import io
import struct

import numpy as np
import pytest

from oracles import reuse_window
from edrsim.cache import CacheGeometry, CacheState, access_block
from edrsim.trace import (Op, PhaseSpec, SyntheticTraceSpec,
                          TraceArrays, TraceError, TraceHeader, TraceRecord,
                          _reuse_sources, generate_synthetic,
                          read_trace_arrays, write_trace_arrays)


def test_empty_trace_round_trip():
    buf = io.BytesIO()
    n = write_trace_arrays(TraceArrays.from_records([]),
                           TraceHeader(record_count=0), buf)
    assert n == len(buf.getvalue())  # only the header
    buf.seek(0)
    header, arrays = read_trace_arrays(buf)
    assert header.record_count == 0
    assert list(arrays.records()) == []


def test_single_record_is_16_bytes():
    buf = io.BytesIO()
    header_only = io.BytesIO()
    write_trace_arrays(TraceArrays.from_records([]),
                       TraceHeader(record_count=0), header_only)
    write_trace_arrays(TraceArrays.from_records([TraceRecord(5, Op.READ, 0x1000)]),
                       TraceHeader(record_count=1), buf)
    assert len(buf.getvalue()) - len(header_only.getvalue()) == 16


def test_round_trip_1000_generated_records():
    spec = SyntheticTraceSpec(
        phases=[PhaseSpec(50_000, 32 * 1024, 0.4, 0.3)], rng_seed=11)
    arrays = generate_synthetic(spec)
    records = list(arrays.records())[:1000]
    header = TraceHeader(record_count=len(records), description="round trip")
    buf = io.BytesIO()
    write_trace_arrays(TraceArrays.from_records(records), header, buf)
    buf.seek(0)
    rheader, rarrays = read_trace_arrays(buf)
    assert rheader.description == "round trip"
    assert list(rarrays.records()) == records


def test_bulk_and_record_paths_produce_identical_bytes():
    # the bulk writer against the documented layout packed one record at a time
    spec = SyntheticTraceSpec(phases=[PhaseSpec(20_000, 16 * 1024, 0.5, 0.2)],
                              rng_seed=3)
    arrays = generate_synthetic(spec)
    header = TraceHeader(record_count=len(arrays))
    header_only = io.BytesIO()
    write_trace_arrays(TraceArrays.from_records([]),
                       TraceHeader(record_count=0), header_only)
    buf = io.BytesIO()
    write_trace_arrays(arrays, header, buf)
    body = buf.getvalue()[len(header_only.getvalue()):]
    assert body == b"".join(
        struct.pack("<IB3xQ", r.instr_gap, int(r.op), r.address)
        for r in arrays.records())
    buf.seek(0)
    rheader, rarrays = read_trace_arrays(buf)
    assert rheader.record_count == len(arrays)
    assert np.array_equal(rarrays.gaps, arrays.gaps)
    assert np.array_equal(rarrays.ops, arrays.ops)
    assert np.array_equal(rarrays.addrs, arrays.addrs)


def test_bad_magic_rejected():
    with pytest.raises(TraceError, match="magic"):
        read_trace_arrays(io.BytesIO(b"NOTTRACE" + b"\0" * 64))


def test_truncated_record_reports_index():
    buf = io.BytesIO()
    records = [TraceRecord(1, Op.READ, i * 64) for i in range(4)]
    write_trace_arrays(TraceArrays.from_records(records),
                       TraceHeader(record_count=4), buf)
    data = buf.getvalue()[:-20]  # chop the last record and a bit more
    with pytest.raises(TraceError, match="index 2"):
        read_trace_arrays(io.BytesIO(data))


def test_header_record_count_enforced():
    with pytest.raises(TraceError):
        write_trace_arrays(TraceArrays.from_records([TraceRecord(0, Op.READ, 0)]),
                           TraceHeader(record_count=2), io.BytesIO())


def test_page_size_must_be_power_of_two():
    with pytest.raises(TraceError):
        TraceHeader(page_size_bytes=3000)


def test_generator_is_deterministic_and_seed_sensitive():
    spec_a = SyntheticTraceSpec(phases=[PhaseSpec(10_000, 8 * 1024, 0.2, 0.5)],
                                rng_seed=1)
    spec_b = SyntheticTraceSpec(phases=[PhaseSpec(10_000, 8 * 1024, 0.2, 0.5)],
                                rng_seed=2)
    one = generate_synthetic(spec_a)
    two = generate_synthetic(spec_a)
    other = generate_synthetic(spec_b)
    assert np.array_equal(one.addrs, two.addrs)
    assert np.array_equal(one.ops, two.ops)
    assert not np.array_equal(one.addrs, other.addrs)


def test_zero_write_fraction_has_no_writes():
    spec = SyntheticTraceSpec(phases=[PhaseSpec(10_000, 64 * 1024, 0.0, 0.3)],
                              rng_seed=9)
    arrays = generate_synthetic(spec)
    assert not arrays.ops.any()


def test_zero_phases_rejected():
    with pytest.raises(TraceError):
        SyntheticTraceSpec(phases=[], rng_seed=0)


def test_working_set_bounds_blocks_per_phase():
    ws = 4 * 1024
    spec = SyntheticTraceSpec(phases=[PhaseSpec(50_000, ws, 0.5, 0.7)],
                              rng_seed=4, block_bytes=64)
    arrays = generate_synthetic(spec)
    blocks = set((arrays.addrs // 64).tolist())
    assert len(blocks) <= ws // 64
    # cumulative instruction positions are non-decreasing and sum exactly
    assert arrays.instructions == 50_000
    assert (arrays.gaps >= 0).all()


def test_phases_have_distinct_footprints():
    spec = SyntheticTraceSpec(
        phases=[PhaseSpec(10_000, 8 * 1024), PhaseSpec(10_000, 8 * 1024),
                PhaseSpec(10_000, 8 * 1024)],
        rng_seed=21)
    arrays = generate_synthetic(spec)
    thirds = len(arrays) // 3
    f0 = set((arrays.addrs[:thirds] // 64).tolist())
    f1 = set((arrays.addrs[thirds:2 * thirds] // 64).tolist())
    f2 = set((arrays.addrs[2 * thirds:] // 64).tolist())
    assert not (f0 & f1) and not (f1 & f2) and not (f0 & f2)


def test_reuse_locality_biases_toward_recent_blocks():
    hot = generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(200_000, 1024 * 1024, 0.0, 0.9)], rng_seed=6))
    cold = generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(200_000, 1024 * 1024, 0.0, 0.0)], rng_seed=6))
    assert len(set(hot.addrs.tolist())) < len(set(cold.addrs.tolist()))


@pytest.mark.parametrize("reuse", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 7, 31, 32, 33, 4000])
def test_reuse_window_matches_the_record_loop(reuse, n):
    # draws as generate_synthetic makes them for a phase of n records
    rng = np.random.default_rng(n)
    uniform = rng.integers(0, 1000, size=n, dtype=np.int64)
    reused = rng.random(n) < reuse
    widx = rng.integers(0, 32, size=n, dtype=np.int64)
    got = uniform[_reuse_sources(reused, widx)]
    assert np.array_equal(got, reuse_window(uniform, reused, widx))


def test_replay_oracle_small_working_set_fits():
    # 64 KB working set replayed against a 2 MB cache: below 1% misses
    spec = SyntheticTraceSpec(phases=[PhaseSpec(10_000_000, 64 * 1024, 0.3, 0.0)],
                              rng_seed=7)
    arrays = generate_synthetic(spec)
    geometry = CacheGeometry(2 * 1024 * 1024, 8)
    state = CacheState(geometry)
    misses = 0
    for i, rec in enumerate(arrays.records()):
        if not access_block(state, rec.op == Op.WRITE, rec.address, i).hit:
            misses += 1
    assert misses / len(arrays) < 0.01
