"""Memory-access traces: column model, binary file format, synthetic generators.

Traces carry raw LLC-level accesses (no L1 filtering is simulated; the
generator's accesses_per_kilo_instr knob stands in for L1 intensity).
Instruction positions are stored as deltas so phases concatenate trivially.

The generator draws from numpy's default_rng stream, reimplemented here
(`seed_words`) and in lru.c (`edr_generate`), so a seed gives the same trace
whatever numpy version is installed, or none. lru.c also packs and unpacks
the file's records.

A file is read and written through one fixed buffer of _BUFFER_BYTES, so a
read holds the columns (13 B a record) and that buffer, and a write holds
the buffer alone, however long the trace.
"""

import ctypes
import math
import os
import stat
import struct
from array import array
from enum import IntEnum

from .cache import address, kernel, zeros
from .record import Record

MAGIC = b"EDRTRACE"
FORMAT_VERSION = 1

# magic, version: u32, record_count: u64, page_size_bytes: u32, desc_len: u32
_HEADER = struct.Struct("<8sIQII")
# instr_gap: u32, op: u8, 3 pad bytes, address: u64 -- 16 bytes, little endian
_RECORD_BYTES = 16
# a file is read and written through one buffer of this many bytes
_BUFFER_BYTES = 1 << 16
_BUFFER_RECORDS = _BUFFER_BYTES // _RECORD_BYTES


class TraceError(ValueError):
    """Malformed trace input (bad magic, truncation, bad field values)."""


class Op(IntEnum):
    READ = 0
    WRITE = 1


class TraceHeader(Record):
    """A trace file's header; a file is written at FORMAT_VERSION, and a
    file of another version is rejected."""

    def __init__(self, record_count: int = 0, page_size_bytes: int = 4096,
                 description: str = ""):
        self.record_count = record_count
        self.page_size_bytes = p = page_size_bytes
        self.description = description
        if p <= 0 or p & (p - 1):
            raise TraceError(f"page_size_bytes must be a power of two, got {p}")


class TraceArrays(Record):
    """Column-wise in-memory trace; the representation the simulator replays.

    Record i is one memory access: `gaps[i]` instructions elapsed since the
    previous record, a read or write (`ops[i]`, an `Op` value, so also the
    write flag) and a full byte address (`addrs[i]`). The columns are
    buffers of u32, u8 and u64 items: `array("I")`, `bytearray` and
    `array("Q")` here, numpy arrays in the tests. `instructions`, the sum of
    the gaps, is counted from them unless given; the columns must not change
    afterwards. A run reads the columns and keeps nothing on the trace.
    """

    def __init__(self, gaps: array, ops: bytearray, addrs: array,
                 instructions: int | None = None):
        self.gaps = gaps
        self.ops = ops
        self.addrs = addrs
        n = len(gaps)
        if len(ops) != n or len(addrs) != n:
            raise TraceError("trace columns must have equal length")
        self.instructions = (sum(gaps.tolist()) if instructions is None
                             else instructions)

    def __len__(self):
        return len(self.gaps)


def _columns(n: int) -> TraceArrays:
    """Zeroed columns for n records, 0 instructions."""
    return TraceArrays(zeros("I", n), bytearray(n), zeros("Q", n), 0)


def _column_addresses(arrays: TraceArrays, lo: int = 0) -> tuple:
    """The addresses of the gap, op and address of record `lo`."""
    n = len(arrays)
    return (address(arrays.gaps, 4, n) + 4 * lo,
            address(arrays.ops, 1, n) + lo,
            address(arrays.addrs, 8, n) + 8 * lo)


def _check_ops(arrays: TraceArrays) -> None:
    """Reject a trace with an op that is neither READ nor WRITE, naming the
    first such record."""
    n = len(arrays)
    bad = kernel("edr_check_ops")(address(arrays.ops, 1, n), n)
    if bad < n:
        raise TraceError(f"record {bad}: op {arrays.ops[bad]} is neither "
                         f"READ ({Op.READ:d}) nor WRITE ({Op.WRITE:d})")


class PhaseSpec(Record):
    """One program phase for the synthetic generator."""

    def __init__(self, instructions: int, working_set_bytes: int,
                 write_fraction: float = 0.0, reuse_locality: float = 0.0):
        self.instructions = instructions
        self.working_set_bytes = working_set_bytes
        self.write_fraction = write_fraction
        self.reuse_locality = reuse_locality
        if instructions <= 0:
            raise TraceError("instructions must be > 0")
        if working_set_bytes <= 0:
            raise TraceError("working_set_bytes must be > 0")
        if not 0.0 <= write_fraction <= 1.0:
            raise TraceError("write_fraction must be in [0, 1]")
        if not 0.0 <= reuse_locality <= 1.0:
            raise TraceError("reuse_locality must be in [0, 1]")


# phases live 2^26 blocks (4 GiB at 64 B blocks) apart, and no working set
# is wider, so their footprints never overlap
_PHASE_STRIDE_BLOCKS = 1 << 26


class SyntheticTraceSpec(Record):
    def __init__(self, phases: list[PhaseSpec], rng_seed: int = 0,
                 accesses_per_kilo_instr: float = 20.0,
                 block_bytes: int = 64):
        self.phases = phases
        self.rng_seed = rng_seed
        self.accesses_per_kilo_instr = rate = accesses_per_kilo_instr
        self.block_bytes = b = block_bytes  # [geometry]'s, in a config
        if not phases:
            raise TraceError("synthetic spec needs at least one phase")
        if rng_seed < 0:
            raise TraceError(f"seed must be >= 0, got {rng_seed}")
        if not (math.isfinite(rate) and rate > 0):
            raise TraceError(f"accesses_per_kilo_instr must be a finite "
                             f"number > 0, got {rate}")
        if b <= 0 or b & (b - 1):
            raise TraceError("block_bytes must be a power of two")
        for k, phase in enumerate(phases, 1):
            if -(-phase.working_set_bytes // b) > _PHASE_STRIDE_BLOCKS:
                raise TraceError(
                    f"phase {k}: working_set_bytes {phase.working_set_bytes} "
                    f"is wider than {_PHASE_STRIDE_BLOCKS} blocks of {b} B, "
                    "the distance between two phases' footprints")
            try:
                n = self.records(phase)
            except OverflowError:  # past a float, or infinitely many
                n = 0
            # gaps are u32; record j ends at (j + 1) * i // n, in u64
            i = phase.instructions
            if i > n * _MASK32 or n * i > _MASK64:
                raise TraceError(f"phase {k}, of {i} instructions at {rate} "
                                 "accesses per kilo-instruction, does not "
                                 "fit the generator")

    def records(self, phase: PhaseSpec) -> int:
        """The records a phase draws at the access rate, at least one."""
        return max(1, round(phase.instructions
                            * self.accesses_per_kilo_instr / 1000.0))


def _pack_header(header: TraceHeader) -> bytes:
    desc = header.description.encode("utf-8")
    return _HEADER.pack(MAGIC, FORMAT_VERSION, header.record_count,
                        header.page_size_bytes, len(desc)) + desc


def write_trace_arrays(arrays: TraceArrays, header: TraceHeader, sink) -> int:
    """Write header + fixed-width records to a binary stream, packed a
    buffer at a time.

    Returns the number of bytes written. header.record_count must be the
    number of records, and every op must be READ or WRITE: the writer
    refuses what `read_trace_arrays` rejects, before it writes a byte.
    """
    n = len(arrays)
    if header.record_count != n:
        raise TraceError(
            f"header says {header.record_count} records, have {n}")
    _check_ops(arrays)
    hdr = _pack_header(header)
    sink.write(hdr)
    buf = bytearray(_BUFFER_BYTES)  # the pad bytes stay zero
    view, base, pack = memoryview(buf), address(buf, 1, len(buf)), \
        kernel("edr_pack")
    for lo in range(0, n, _BUFFER_RECORDS):
        m = min(_BUFFER_RECORDS, n - lo)
        pack(base, m, *_column_addresses(arrays, lo))
        sink.write(view[:m * _RECORD_BYTES])
    return len(hdr) + n * _RECORD_BYTES


def _fill(source, view: memoryview, want: int) -> int:
    """Read the stream into view[:want] until that is full or the stream
    ends, however few bytes each read gives. Returns the bytes read."""
    got = 0
    while got < want:
        more = source.readinto(view[got:want])
        if not more:
            break
        got += more
    return got


def _read_header(source, view: memoryview) -> TraceHeader:
    if _fill(source, view, _HEADER.size) < _HEADER.size:
        raise TraceError("truncated trace header")
    magic, version, count, page, desc_len = _HEADER.unpack_from(view)
    if magic != MAGIC:
        raise TraceError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise TraceError(f"trace format version {version}, expected "
                         f"{FORMAT_VERSION}")
    desc = bytearray()  # grows as its bytes arrive, whatever desc_len says
    while len(desc) < desc_len:
        want = min(desc_len - len(desc), len(view))
        got = _fill(source, view, want)
        desc += view[:got]
        if got < want:
            raise TraceError("truncated trace description")
    try:
        text = desc.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(f"trace description is not UTF-8: byte "
                         f"{desc[exc.start]:#04x} at offset {exc.start}"
                         ) from None
    return TraceHeader(record_count=count, page_size_bytes=page,
                       description=text)


def _records_held(source) -> int:
    """The whole records a regular file holds past its position; 0 for a
    stream of unknown length (a pipe, an in-memory stream)."""
    try:
        st = os.fstat(source.fileno())
        if stat.S_ISREG(st.st_mode):
            return max(0, st.st_size - source.tell()) // _RECORD_BYTES
    except (AttributeError, OSError):  # io.UnsupportedOperation among them
        pass
    return 0


def _grow(arrays: TraceArrays, n: int) -> None:
    """Zeroed columns for records len(arrays) to n, appended in place."""
    more = n - len(arrays)
    arrays.gaps.frombytes(bytes(4 * more))
    arrays.ops += bytes(more)
    arrays.addrs.frombytes(bytes(8 * more))


def read_trace_arrays(source) -> tuple[TraceHeader, TraceArrays]:
    """Read a binary trace from a stream into columns. Returns
    (header, arrays).

    The stream is read through one buffer of _BUFFER_BYTES, up to the
    records the header claims or the stream's end, whichever comes first;
    each buffer's whole records are unpacked into the columns in place. A
    regular file's columns are sized once, for the records it holds; a
    stream's grow as its records arrive. So a count past the end sizes
    nothing, and a pipe is left holding whatever follows the records. The
    ops are checked once every record is in, so a missing record is
    reported before a bad op."""
    buf = bytearray(_BUFFER_BYTES)
    view = memoryview(buf)
    header = _read_header(source, view)
    n = header.record_count
    arrays = _columns(min(n, _records_held(source)))
    base, unpack = address(buf, 1, len(buf)), kernel("edr_unpack")
    gap_sum = ctypes.c_uint64()
    # records read. Each read asks for whole records, and only the
    # stream's end leaves it short, so no part of a record is carried over.
    done = 0
    while done < n:
        want = min(len(buf), (n - done) * _RECORD_BYTES)
        end = _fill(source, view, want)
        m = end // _RECORD_BYTES
        if m:
            if done + m > len(arrays):
                _grow(arrays, done + m)
            unpack(base, m, *_column_addresses(arrays, done),
                   ctypes.byref(gap_sum))
            arrays.instructions += gap_sum.value
        done += m
        if end < want:
            raise TraceError(f"truncated record at index {done}")
    _check_ops(arrays)
    return header, arrays


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def seed_words(seed: int) -> list[int]:
    """numpy's `SeedSequence(seed).generate_state(4, np.uint64)`: the
    seed's 32-bit words, least significant first, are hashed into a pool
    of four words, and the pool is hashed out again into eight, which pair
    up little end first."""
    if seed < 0:
        raise TraceError(f"seed must be >= 0, got {seed}")
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _pcg64(seed: int) -> array:
    """The PCG64 generator numpy's `default_rng(seed)` starts with, as
    lru.c's edr_generate holds it: the 128-bit state and increment, high
    word first, and no spare 32-bit half."""
    s0, s1, s2, s3 = seed_words(seed)
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * 0x2360ED051FC65DA44385DF649FCCF645
             + inc) & _MASK128
    return array("Q", [state >> 64, state & _MASK64, inc >> 64,
                       inc & _MASK64, 0, 0])


def generate_synthetic(spec: SyntheticTraceSpec) -> TraceArrays:
    """Generate a deterministic trace from a phase-structured spec.

    Each phase draws block addresses from its own working set; with
    probability reuse_locality a recently touched block is re-touched.
    Identical spec + seed reproduce the trace exactly: the records that
    numpy's `default_rng(seed)` draws for them (see lru.c's edr_generate).
    """
    counts = [spec.records(phase) for phase in spec.phases]
    arrays = _columns(sum(counts))
    rng = _pcg64(spec.rng_seed)
    state = address(rng, 8, len(rng))
    generate = kernel("edr_generate")
    block, lo = spec.block_bytes, 0
    for phase_idx, (phase, n) in enumerate(zip(spec.phases, counts)):
        arrays.instructions += generate(
            state, n, phase.instructions,
            -(-phase.working_set_bytes // block),  # ceil
            phase_idx * _PHASE_STRIDE_BLOCKS, block, phase.reuse_locality,
            phase.write_fraction, *_column_addresses(arrays, lo))
        lo += n
    return arrays
