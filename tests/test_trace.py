import io
import struct

import numpy as np
import pytest

from oracles import replay_codes, reuse_window, trace_of
from edrsim.cache import HIT, CacheGeometry, CacheState
from edrsim.trace import (Op, PhaseSpec, SyntheticTraceSpec,
                          TraceArrays, TraceError, TraceHeader,
                          _PHASE_STRIDE_BLOCKS, _reuse_sources,
                          generate_synthetic,
                          read_trace_arrays, write_trace_arrays)


def _same(a: TraceArrays, b: TraceArrays) -> bool:
    return (np.array_equal(a.gaps, b.gaps) and np.array_equal(a.ops, b.ops)
            and np.array_equal(a.addrs, b.addrs))


def test_empty_trace_round_trip():
    buf = io.BytesIO()
    n = write_trace_arrays(trace_of([]), TraceHeader(record_count=0), buf)
    assert n == len(buf.getvalue())  # only the header
    buf.seek(0)
    header, arrays = read_trace_arrays(buf)
    assert header.record_count == 0
    assert len(arrays) == 0


def test_single_record_is_16_bytes():
    buf = io.BytesIO()
    header_only = io.BytesIO()
    write_trace_arrays(trace_of([]), TraceHeader(record_count=0), header_only)
    write_trace_arrays(trace_of([(5, Op.READ, 0x1000)]),
                       TraceHeader(record_count=1), buf)
    assert len(buf.getvalue()) - len(header_only.getvalue()) == 16


def test_round_trip_1000_generated_records():
    spec = SyntheticTraceSpec(
        phases=[PhaseSpec(50_000, 32 * 1024, 0.4, 0.3)], rng_seed=11)
    arrays = generate_synthetic(spec)
    first = TraceArrays(gaps=arrays.gaps[:1000], ops=arrays.ops[:1000],
                        addrs=arrays.addrs[:1000])
    header = TraceHeader(record_count=len(first), description="round trip")
    buf = io.BytesIO()
    write_trace_arrays(first, header, buf)
    buf.seek(0)
    rheader, rarrays = read_trace_arrays(buf)
    assert rheader.description == "round trip"
    assert len(rarrays) == 1000 and _same(rarrays, first)


def test_bulk_and_record_paths_produce_identical_bytes():
    # the bulk writer against the documented layout packed one record at a time
    spec = SyntheticTraceSpec(phases=[PhaseSpec(20_000, 16 * 1024, 0.5, 0.2)],
                              rng_seed=3)
    arrays = generate_synthetic(spec)
    header = TraceHeader(record_count=len(arrays))
    header_only = io.BytesIO()
    write_trace_arrays(trace_of([]), TraceHeader(record_count=0), header_only)
    buf = io.BytesIO()
    write_trace_arrays(arrays, header, buf)
    body = buf.getvalue()[len(header_only.getvalue()):]
    assert body == b"".join(
        struct.pack("<IB3xQ", gap, op, addr)
        for gap, op, addr in zip(arrays.gaps.tolist(), arrays.ops.tolist(),
                                 arrays.addrs.tolist()))
    buf.seek(0)
    rheader, rarrays = read_trace_arrays(buf)
    assert rheader.record_count == len(arrays)
    assert _same(rarrays, arrays)


def test_bad_magic_rejected():
    with pytest.raises(TraceError, match="magic"):
        read_trace_arrays(io.BytesIO(b"NOTTRACE" + b"\0" * 64))


def test_truncated_record_reports_index():
    buf = io.BytesIO()
    write_trace_arrays(trace_of((1, Op.READ, i * 64) for i in range(4)),
                       TraceHeader(record_count=4), buf)
    data = buf.getvalue()[:-20]  # chop the last record and a bit more
    with pytest.raises(TraceError, match="index 2"):
        read_trace_arrays(io.BytesIO(data))


def test_other_format_version_rejected():
    buf = io.BytesIO()
    write_trace_arrays(trace_of([(1, Op.READ, 0)]),
                       TraceHeader(version=99, record_count=1), buf)
    with pytest.raises(TraceError, match="version 99, expected 1"):
        read_trace_arrays(io.BytesIO(buf.getvalue()))


def test_op_other_than_read_or_write_rejected():
    # the replay would take any op but WRITE as a read
    buf = io.BytesIO()
    write_trace_arrays(trace_of((1, Op.READ, i * 64) for i in range(4)),
                       TraceHeader(record_count=4), buf)
    data = bytearray(buf.getvalue())
    data[-16 * 2 + 4] = 7  # the op byte of record 2
    data[-16 + 4] = 9
    with pytest.raises(TraceError, match="record 2: op 7 is neither"):
        read_trace_arrays(io.BytesIO(bytes(data)))


def test_header_record_count_enforced():
    with pytest.raises(TraceError):
        write_trace_arrays(trace_of([(0, Op.READ, 0)]),
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


@pytest.mark.parametrize("block_bytes", [64, 256])
def test_working_set_may_not_pass_the_phase_stride(block_bytes):
    # a working set of exactly the stride fills its phase's footprint
    stride = _PHASE_STRIDE_BLOCKS * block_bytes
    spec = SyntheticTraceSpec(
        phases=[PhaseSpec(10_000, stride), PhaseSpec(1_000, 8 * 1024)],
        rng_seed=3, block_bytes=block_bytes)
    blocks = generate_synthetic(spec).addrs // block_bytes
    assert (blocks[:200] < _PHASE_STRIDE_BLOCKS).all()
    assert (blocks[200:] >= _PHASE_STRIDE_BLOCKS).all()
    # one block more would reach into the next phase's
    with pytest.raises(TraceError, match="wider than"):
        SyntheticTraceSpec(phases=[PhaseSpec(10_000, 8 * 1024),
                                   PhaseSpec(10_000, stride + block_bytes)],
                           block_bytes=block_bytes)


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
    codes = replay_codes(CacheState(CacheGeometry(2 * 1024 * 1024, 8)), arrays)
    misses = sum(not code & HIT for code in codes)
    assert misses / len(arrays) < 0.01
