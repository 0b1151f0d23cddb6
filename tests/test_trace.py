import io
import os
import struct
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (HIT, generate_reference, replay_codes, reuse_sources,
                     reuse_window, trace_of, view)
from edrsim.cache import CacheGeometry, CacheState
from edrsim.trace import (Op, PhaseSpec, SyntheticTraceSpec,
                          TraceArrays, TraceError, TraceHeader,
                          _BUFFER_BYTES, _PHASE_STRIDE_BLOCKS,
                          generate_synthetic, read_trace_arrays, seed_words,
                          write_trace_arrays)


def _same(a: TraceArrays, b: TraceArrays) -> bool:
    return (np.array_equal(view(a.gaps), view(b.gaps))
            and np.array_equal(view(a.ops), view(b.ops))
            and np.array_equal(view(a.addrs), view(b.addrs))
            and a.instructions == b.instructions)


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
        for gap, op, addr in zip(arrays.gaps, arrays.ops, arrays.addrs))
    buf.seek(0)
    rheader, rarrays = read_trace_arrays(buf)
    assert rheader.record_count == len(arrays)
    assert _same(rarrays, arrays)


def test_fields_at_their_extremes_round_trip():
    # the widest gap and the top address, with both ops and next to zeros:
    # every byte of a field is written and read back in its place
    records = [(2**32 - 1, Op.WRITE, 2**64 - 1), (0, Op.READ, 0),
               (2**32 - 1, Op.READ, 2**64 - 1), (1, Op.WRITE, 2**63),
               (0x01020304, Op.READ, 0x0102030405060708)]
    arrays = trace_of(records)
    header_only = io.BytesIO()
    write_trace_arrays(trace_of([]), TraceHeader(record_count=0), header_only)
    buf = io.BytesIO()
    write_trace_arrays(arrays, TraceHeader(record_count=len(records)), buf)
    body = buf.getvalue()[len(header_only.getvalue()):]
    assert body[:16] == bytes.fromhex("ffffffff 01 000000 ffffffffffffffff")
    assert body[64:] == bytes.fromhex("04030201 00 000000 0807060504030201")
    assert body == b"".join(struct.pack("<IB3xQ", *r) for r in records)
    buf.seek(0)
    _, back = read_trace_arrays(buf)
    assert _same(back, arrays)
    assert back.instructions == 2 * (2**32 - 1) + 1 + 0x01020304


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


def _pipe(data: bytes):
    """A read stream over `data` that cannot seek, as a FIFO or a process
    substitution named as `[trace] path` gives."""
    r, w = os.pipe()
    os.write(w, data)  # a few records: fits the pipe's buffer
    os.close(w)
    return os.fdopen(r, "rb")


def test_trace_read_from_a_pipe():
    buf = io.BytesIO()
    arrays = trace_of((i, Op.WRITE if i % 2 else Op.READ, i * 64)
                      for i in range(5))
    write_trace_arrays(arrays, TraceHeader(record_count=5), buf)
    with _pipe(buf.getvalue()) as fh:
        assert not fh.seekable()
        _, back = read_trace_arrays(fh)
    assert _same(back, arrays)


def test_pipe_is_read_only_up_to_the_header_count():
    # a header that claims 2 of the 3 records: the third stays in the pipe
    buf = io.BytesIO()
    write_trace_arrays(trace_of((1, Op.READ, i * 64) for i in range(3)),
                       TraceHeader(record_count=3), buf)
    data = bytearray(buf.getvalue())
    data[12:20] = struct.pack("<Q", 2)  # after the magic and version
    with _pipe(bytes(data)) as fh:
        _, back = read_trace_arrays(fh)
        assert view(back.addrs).tolist() == [0, 64]
        assert fh.read() == data[-16:]


@pytest.mark.parametrize("stream", ["file", "pipe"])
@pytest.mark.parametrize("count", [2**40, 2**62])
def test_record_count_past_the_file_reports_index(count, stream, tmp_path):
    # a count the file does not hold used to size the read: 2**40 records
    # raised a MemoryError, 2**62 an OverflowError
    buf = io.BytesIO()
    write_trace_arrays(trace_of((1, Op.READ, i * 64) for i in range(2)),
                       TraceHeader(record_count=2), buf)
    data = bytearray(buf.getvalue())
    data[12:20] = struct.pack("<Q", count)  # after the magic and version
    path = tmp_path / "claims-more.trace"
    path.write_bytes(data)
    opened = open(path, "rb") if stream == "file" else _pipe(bytes(data))
    with opened as fh, \
            pytest.raises(TraceError, match="truncated record at index 2$"):
        read_trace_arrays(fh)


# the records one buffer of the reader and the writer holds
_PER_BUFFER = _BUFFER_BYTES // 16


def _numbered(n: int) -> TraceArrays:
    """n records whose gap and address are their index; every third is a
    write."""
    return TraceArrays(array("I", range(n)),
                       bytearray(i % 3 == 2 for i in range(n)),
                       array("Q", range(n)))


def _trace_bytes(arrays: TraceArrays, description: str = "") -> bytes:
    buf = io.BytesIO()
    write_trace_arrays(arrays, TraceHeader(record_count=len(arrays),
                                           description=description), buf)
    return buf.getvalue()


class _Trickle(io.RawIOBase):
    """A stream that gives at most `step` bytes per read, as a socket or a
    slow pipe may."""

    def __init__(self, data: bytes, step: int):
        self.data, self.pos, self.step = data, 0, step

    def readable(self):
        return True

    def readinto(self, b):
        k = min(len(b), self.step, len(self.data) - self.pos)
        b[:k] = self.data[self.pos:self.pos + k]
        self.pos += k
        return k


@pytest.mark.parametrize("step", [1, 5, 16, 17, _BUFFER_BYTES - 1,
                                  _BUFFER_BYTES + 1])
def test_short_reads_round_trip_header_and_records(step):
    # a header and description split across reads used to raise "truncated
    # trace header"; the description is wider than the buffer and splits
    # its multi-byte characters, and the records span three buffers
    arrays = _numbered(2 * _PER_BUFFER + 3)
    description = "\u00e9t\u00e9 " * (_BUFFER_BYTES // 5)
    data = _trace_bytes(arrays, description)
    stream = _Trickle(data + b"tail", step)
    header, back = read_trace_arrays(stream)
    assert (header.record_count, header.description) == (len(arrays),
                                                        description)
    assert _same(back, arrays)
    assert _trace_bytes(back, header.description) == data
    assert stream.data[stream.pos:] == b"tail"  # nothing read past the count


def _open(data: bytes, stream: str, tmp_path):
    if stream == "bytes":
        return io.BytesIO(data)
    path = tmp_path / "boundary.trace"
    path.write_bytes(data)
    return open(path, "rb")


@pytest.mark.parametrize("stream", ["file", "bytes"])
@pytest.mark.parametrize("index", [_PER_BUFFER - 1, _PER_BUFFER])
def test_bad_op_at_a_buffer_boundary_reports_its_index(index, stream,
                                                      tmp_path):
    # the last record of the first buffer and the first of the second
    data = bytearray(_trace_bytes(_numbered(2 * _PER_BUFFER), "boundary"))
    records = len(data) - 2 * _BUFFER_BYTES
    data[records + 16 * index + 4] = 7
    data[records + 16 * (index + 1) + 4] = 9
    with _open(bytes(data), stream, tmp_path) as fh, pytest.raises(
            TraceError, match=f"^record {index}: op 7 is neither"):
        read_trace_arrays(fh)


@pytest.mark.parametrize("stream", ["file", "bytes"])
@pytest.mark.parametrize("bad_op_before", [False, True])
@pytest.mark.parametrize("partial", [0, 5])
@pytest.mark.parametrize("index", [_PER_BUFFER - 1, _PER_BUFFER])
def test_truncation_at_a_buffer_boundary_reports_its_index(
        index, partial, bad_op_before, stream, tmp_path):
    # the file ends before record `index`, or `partial` bytes into it; a bad
    # op in an earlier record does not hide that records are missing
    data = bytearray(_trace_bytes(_numbered(2 * _PER_BUFFER), "boundary"))
    records = len(data) - 2 * _BUFFER_BYTES
    if bad_op_before:
        data[records + 16 * (index - 2) + 4] = 7
    cut = bytes(data[:records + 16 * index + partial])
    with _open(cut, stream, tmp_path) as fh, pytest.raises(
            TraceError, match=f"^truncated record at index {index}$"):
        read_trace_arrays(fh)


@pytest.mark.parametrize("cut", [0, 27])
def test_truncated_header_rejected(cut):
    # the header is 28 bytes
    data = _trace_bytes(_numbered(2))[:cut]
    with pytest.raises(TraceError, match="^truncated trace header$"):
        read_trace_arrays(io.BytesIO(data))


@pytest.mark.parametrize("length, cut", [(4, 2), (_BUFFER_BYTES + 8,
                                                  _BUFFER_BYTES + 3)],
                         ids=["in the first read", "past a buffer"])
def test_truncated_description_rejected(length, cut):
    data = _trace_bytes(_numbered(0), "d" * length)[:28 + cut]
    with pytest.raises(TraceError, match="^truncated trace description$"):
        read_trace_arrays(io.BytesIO(data))


def test_columns_of_unequal_length_rejected():
    for ops, addrs in ((bytearray(2), array("Q", [0])),
                       (bytearray(3), array("Q", [0, 0]))):
        with pytest.raises(TraceError, match="^trace columns must have "
                           "equal length$"):
            TraceArrays(array("I", [1, 2]), ops, addrs)


@pytest.mark.parametrize("block_bytes", [0, -64, 48])
def test_synthetic_block_size_must_be_a_power_of_two(block_bytes):
    with pytest.raises(TraceError,
                       match="^block_bytes must be a power of two$"):
        SyntheticTraceSpec(phases=[PhaseSpec(1000, 4096)],
                           block_bytes=block_bytes)


def test_description_that_is_not_utf8_rejected():
    # it used to escape as a bare UnicodeDecodeError
    data = bytearray(_trace_bytes(_numbered(2), "ab\u00e9"))
    data[28 + 2] = 0xFF  # the first byte of the description's third char
    with pytest.raises(TraceError, match="^trace description is not UTF-8: "
                       "byte 0xff at offset 2$"):
        read_trace_arrays(io.BytesIO(bytes(data)))


# what a read or a write may allocate beyond its columns and its buffer:
# the header, the stream's small objects and the ctypes arguments
_SLACK_BYTES = 16 * 1024


def _peak_bytes(call) -> int:
    """The most memory that `call()` held at once beyond what was held
    before it, as tracemalloc sees it (array and bytearray buffers
    included)."""
    call()  # the kernel is loaded and every import done
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
        del result
    finally:
        tracemalloc.stop()
    return peak


def test_reading_a_file_holds_its_columns_and_one_buffer(tmp_path):
    # the file body (16 B a record) used to be held next to its columns
    # (13 B a record): 29 B a record in all
    n = 100_000
    path = tmp_path / "big.trace"
    path.write_bytes(_trace_bytes(_numbered(n), "held"))

    def read():
        with open(path, "rb") as fh:
            return read_trace_arrays(fh)

    assert _peak_bytes(read) <= 13 * n + _BUFFER_BYTES + _SLACK_BYTES


def test_writing_holds_one_buffer():
    # the whole packed body (16 B a record) used to be built first
    class Discard(io.RawIOBase):
        def writable(self):
            return True

        def write(self, b):
            return memoryview(b).nbytes

    arrays = _numbered(100_000)

    def write():
        return write_trace_arrays(arrays, TraceHeader(
            record_count=len(arrays)), Discard())

    assert _peak_bytes(write) <= _BUFFER_BYTES + _SLACK_BYTES


def test_other_format_version_rejected():
    buf = io.BytesIO()
    write_trace_arrays(trace_of([(1, Op.READ, 0)]),
                       TraceHeader(record_count=1), buf)
    data = bytearray(buf.getvalue())
    data[8:12] = struct.pack("<I", 99)  # the version, after the magic
    with pytest.raises(TraceError, match="version 99, expected 1"):
        read_trace_arrays(io.BytesIO(bytes(data)))


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


def test_writer_rejects_what_the_reader_rejects():
    sink = io.BytesIO()
    records = [(1, Op.READ, i * 64) for i in range(4)]
    records[2] = (1, 7, 128)
    with pytest.raises(TraceError, match="record 2: op 7 is neither"):
        write_trace_arrays(trace_of(records), TraceHeader(record_count=4),
                           sink)
    assert not sink.getvalue()  # nothing written


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
    assert one.addrs == two.addrs
    assert one.ops == two.ops
    assert one.addrs != other.addrs


def test_zero_write_fraction_has_no_writes():
    spec = SyntheticTraceSpec(phases=[PhaseSpec(10_000, 64 * 1024, 0.0, 0.3)],
                              rng_seed=9)
    arrays = generate_synthetic(spec)
    assert not any(arrays.ops)


def test_zero_phases_rejected():
    with pytest.raises(TraceError):
        SyntheticTraceSpec(phases=[], rng_seed=0)


def test_negative_seed_rejected():
    # numpy's SeedSequence refuses one too, but only once a trace is drawn
    with pytest.raises(TraceError, match="seed must be >= 0, got -1"):
        SyntheticTraceSpec(phases=[PhaseSpec(1000, 4096)], rng_seed=-1)
    with pytest.raises(TraceError, match="seed must be >= 0"):
        seed_words(-1)


@pytest.mark.parametrize("instructions, rate", [
    # one record of 10**10 instructions: its gap would wrap in a u32
    (10**10, 1e-7),
    # 10**7 records: (j + 1) * instructions would wrap in a u64
    (10**13, 1e-3),
    # ctypes would pass 2**64 + 5 instructions as 5
    (2**64 + 5, 1e-10),
    # one instruction past the widest gap
    (2**32, 1e-7),
    # the record count overflowed a float and escaped as OverflowError
    (10**400, 20.0), (1000, 1e308),
], ids=["gap past u32", "edge past u64", "instructions past u64",
        "gap of 2**32", "instructions past a float", "infinite records"])
def test_phase_the_generator_cannot_draw_rejected(instructions, rate):
    with pytest.raises(TraceError, match="does not fit the generator"):
        SyntheticTraceSpec(phases=[PhaseSpec(instructions, 4096)],
                           accesses_per_kilo_instr=rate)


def test_widest_gap_drawn_whole():
    spec = SyntheticTraceSpec(phases=[PhaseSpec(2**32 - 1, 4096)],
                              accesses_per_kilo_instr=1e-7)
    arrays = generate_synthetic(spec)
    assert list(arrays.gaps) == [2**32 - 1]
    assert arrays.instructions == 2**32 - 1


# seeds of one, two, three and five 32-bit words; the pool holds four
_SEEDS = [0, 2**32, 2**64 + 1, 2**130 + 5]


@settings(max_examples=200, deadline=None)
@given(seed=st.sampled_from(_SEEDS) | st.integers(0, 2**200))
def test_seed_words_match_numpy_seed_sequence(seed):
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert seed_words(seed) == want.tolist()


# a phase: instructions, working-set blocks, bytes short of the last block,
# write fraction, reuse locality
_PHASE = st.tuples(
    st.integers(1, 40_000),
    st.sampled_from([1, 2, 33, _PHASE_STRIDE_BLOCKS])
    | st.integers(1, _PHASE_STRIDE_BLOCKS),
    st.integers(0, 63),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(seed=st.sampled_from(_SEEDS) | st.integers(0, 2**140),
       phases=st.lists(_PHASE, min_size=1, max_size=4),
       rate=st.sampled_from([20.0, 1000.0, 7.5]))
# single-record phases, a one-block working set (which draws nothing)
# between two that draw, and working sets of exactly 2**26 blocks
@example(seed=0, phases=[(1, 1, 0, 0.0, 0.0)], rate=1000.0)
@example(seed=2**32, phases=[(1, 2**26, 0, 1.0, 1.0), (40, 1, 63, 0.5, 0.5),
                             (300, 5, 0, 0.0, 1.0)], rate=1000.0)
@example(seed=2**64 + 1, phases=[(20_000, 2**26, 0, 0.3, 0.5)] * 4, rate=20.0)
@example(seed=2**130 + 5, phases=[(3, 7, 1, 1.0, 0.0), (9000, 3, 0, 0.0, 1.0)],
         rate=7.5)
# lru.c draws the reuse, ring and write columns in four chains: phases of
# 1 to 9 records (fewer than the chains, and every residue mod 4), after
# block columns of 33 blocks or of none, so that ring columns start with
# and without a carried spare half
@example(seed=7, phases=[(k, 33, 0, 0.5, 0.5) for k in range(1, 10)],
         rate=1000.0)
@example(seed=8, phases=[(k, 1, 0, 0.5, 0.5) for k in range(1, 10)],
         rate=1000.0)
# an odd phase leaves a spare half, which starts the next phase's ring
# column (one block: no block draws), whose 5 other slots leave another
# for the third phase's block column
@example(seed=9, phases=[(7, 1, 0, 0.5, 0.5), (6, 1, 0, 0.5, 1.0),
                         (41, 40, 0, 0.5, 0.5)], rate=1000.0)
# a working set under 2**26 blocks whose block column rejects 1 draw in
# 65 (2**32 % 66,076,420 is 66,076,416; a power of two never rejects)
@example(seed=10, phases=[(3000, 66_076_420, 0, 0.3, 0.5),
                          (101, 33, 0, 0.3, 0.5)], rate=1000.0)
def test_generator_matches_numpy_reference(seed, phases, rate):
    spec = SyntheticTraceSpec(
        phases=[PhaseSpec(instructions, blocks * 64 - short, writes, reuse)
                for instructions, blocks, short, writes, reuse in phases],
        rng_seed=seed, accesses_per_kilo_instr=rate)
    got, want = generate_synthetic(spec), generate_reference(spec)
    assert view(got.gaps).tolist() == want.gaps.tolist()
    assert view(got.ops).tolist() == want.ops.tolist()
    assert view(got.addrs).tolist() == want.addrs.tolist()
    assert got.instructions == int(want.gaps.sum(dtype=np.uint64))


def test_working_set_bounds_blocks_per_phase():
    ws = 4 * 1024
    spec = SyntheticTraceSpec(phases=[PhaseSpec(50_000, ws, 0.5, 0.7)],
                              rng_seed=4, block_bytes=64)
    arrays = generate_synthetic(spec)
    blocks = {addr // 64 for addr in arrays.addrs}
    assert len(blocks) <= ws // 64
    # the gaps sum exactly to the phase's instructions
    assert arrays.instructions == sum(arrays.gaps) == 50_000


def test_phases_have_distinct_footprints():
    spec = SyntheticTraceSpec(
        phases=[PhaseSpec(10_000, 8 * 1024), PhaseSpec(10_000, 8 * 1024),
                PhaseSpec(10_000, 8 * 1024)],
        rng_seed=21)
    arrays = generate_synthetic(spec)
    thirds = len(arrays) // 3
    f0 = {addr // 64 for addr in arrays.addrs[:thirds]}
    f1 = {addr // 64 for addr in arrays.addrs[thirds:2 * thirds]}
    f2 = {addr // 64 for addr in arrays.addrs[2 * thirds:]}
    assert not (f0 & f1) and not (f1 & f2) and not (f0 & f2)


@pytest.mark.parametrize("block_bytes", [64, 256])
def test_working_set_may_not_pass_the_phase_stride(block_bytes):
    # a working set of exactly the stride fills its phase's footprint
    stride = _PHASE_STRIDE_BLOCKS * block_bytes
    spec = SyntheticTraceSpec(
        phases=[PhaseSpec(10_000, stride), PhaseSpec(1_000, 8 * 1024)],
        rng_seed=3, block_bytes=block_bytes)
    blocks = view(generate_synthetic(spec).addrs) // block_bytes
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
    assert len(set(hot.addrs)) < len(set(cold.addrs))


@pytest.mark.parametrize("reuse", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 7, 31, 32, 33, 4000])
def test_reuse_window_matches_the_record_loop(reuse, n):
    # draws as generate_reference makes them for a phase of n records
    rng = np.random.default_rng(n)
    uniform = rng.integers(0, 1000, size=n, dtype=np.int64)
    reused = rng.random(n) < reuse
    widx = rng.integers(0, 32, size=n, dtype=np.int64)
    got = uniform[reuse_sources(reused, widx)]
    assert np.array_equal(got, reuse_window(uniform, reused, widx))


def test_replay_oracle_small_working_set_fits():
    # 64 KB working set replayed against a 2 MB cache: below 1% misses
    spec = SyntheticTraceSpec(phases=[PhaseSpec(10_000_000, 64 * 1024, 0.3, 0.0)],
                              rng_seed=7)
    arrays = generate_synthetic(spec)
    codes = replay_codes(CacheState(CacheGeometry(2 * 1024 * 1024, 8)), arrays)
    misses = sum(not code & HIT for code in codes)
    assert misses / len(arrays) < 0.01
