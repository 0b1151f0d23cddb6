"""Memory-access traces: column model, binary file format, synthetic generators.

Traces carry raw LLC-level accesses (no L1 filtering is simulated; the
generator's accesses_per_kilo_instr knob stands in for L1 intensity).
Instruction positions are stored as deltas so phases concatenate trivially.

The generator draws from numpy's default_rng stream, reimplemented here
(`seed_words`) and in lru.c (`edr_generate`), so a seed gives the same trace
whatever numpy version is installed, or none. lru.c also packs and unpacks
the file's records.
"""

import ctypes
import math
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


class TraceError(ValueError):
    """Malformed trace input (bad magic, truncation, bad field values)."""


class Op(IntEnum):
    READ = 0
    WRITE = 1


class TraceHeader(Record):
    def __init__(self, version: int = FORMAT_VERSION, record_count: int = 0,
                 page_size_bytes: int = 4096, description: str = ""):
        self.version = version
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


def _column_addresses(arrays: TraceArrays) -> tuple:
    n = len(arrays)
    return (address(arrays.gaps, 4, n), address(arrays.ops, 1, n),
            address(arrays.addrs, 8, n))


def _bad_op(index: int, op: int) -> TraceError:
    return TraceError(f"record {index}: op {op} is neither READ "
                      f"({Op.READ:d}) nor WRITE ({Op.WRITE:d})")


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
    return _HEADER.pack(MAGIC, header.version, header.record_count,
                        header.page_size_bytes, len(desc)) + desc


def write_trace_arrays(arrays: TraceArrays, header: TraceHeader, sink) -> int:
    """Write header + fixed-width records to a binary stream.

    Returns the number of bytes written. The header must have this format's
    version and header.record_count the number of records, and every op must
    be READ or WRITE: the writer refuses what `read_trace_arrays` rejects.
    """
    _check_version(header.version)
    n = len(arrays)
    if header.record_count != n:
        raise TraceError(
            f"header says {header.record_count} records, have {n}")
    hdr = _pack_header(header)
    body = bytearray(n * _RECORD_BYTES)
    got = kernel("edr_pack")(address(body, 1, len(body)), n,
                             *_column_addresses(arrays))
    if got < n:
        raise _bad_op(got, arrays.ops[got])
    sink.write(hdr)
    sink.write(body)
    return len(hdr) + len(body)


def _check_version(version: int) -> None:
    if version != FORMAT_VERSION:
        raise TraceError(f"trace format version {version}, expected "
                         f"{FORMAT_VERSION}")


def _read_header(source) -> TraceHeader:
    raw = source.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise TraceError("truncated trace header")
    magic, version, count, page, desc_len = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise TraceError(f"bad magic {magic!r}, expected {MAGIC!r}")
    _check_version(version)
    desc = source.read(desc_len)
    if len(desc) < desc_len:
        raise TraceError("truncated trace description")
    return TraceHeader(version=version, record_count=count,
                       page_size_bytes=page, description=desc.decode("utf-8"))


def read_trace_arrays(source) -> tuple[TraceHeader, TraceArrays]:
    """Read a binary trace from a stream into columns. Returns
    (header, arrays)."""
    header = _read_header(source)
    n = header.record_count
    # a bounded chunk at a time, up to the records the header claims or the
    # stream's end, whichever comes first: a count past the end sizes no
    # read, and a pipe is left holding whatever follows the records
    want, chunks, got = n * _RECORD_BYTES, [], 0
    while got < want:
        chunk = source.read(min(want - got, 1 << 24))
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    body = b"".join(chunks)
    if len(body) < want:
        raise TraceError(
            f"truncated record at index {len(body) // _RECORD_BYTES}")
    arrays = _columns(n)
    gap_sum = ctypes.c_uint64()
    got = kernel("edr_unpack")(body, n, *_column_addresses(arrays),
                               ctypes.byref(gap_sum))
    if got < n:
        raise _bad_op(got, arrays.ops[got])
    arrays.instructions = gap_sum.value
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
    gaps, ops, addrs = _column_addresses(arrays)
    generate = kernel("edr_generate")
    block = spec.block_bytes
    for phase_idx, (phase, n) in enumerate(zip(spec.phases, counts)):
        arrays.instructions += generate(
            state, n, phase.instructions,
            -(-phase.working_set_bytes // block),  # ceil
            phase_idx * _PHASE_STRIDE_BLOCKS, block, phase.reuse_locality,
            phase.write_fraction, gaps, ops, addrs)
        gaps += 4 * n
        ops += n
        addrs += 8 * n
    return arrays
