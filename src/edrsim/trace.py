"""Memory-access traces: column model, binary file format, synthetic generators.

Traces carry raw LLC-level accesses (no L1 filtering is simulated; the
generator's accesses_per_kilo_instr knob stands in for L1 intensity).
Instruction positions are stored as deltas so phases concatenate trivially.
"""

import math
import struct
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

MAGIC = b"EDRTRACE"
FORMAT_VERSION = 1

# magic, version: u32, record_count: u64, page_size_bytes: u32, desc_len: u32
_HEADER = struct.Struct("<8sIQII")
# instr_gap: u32, op: u8, 3 pad bytes, address: u64 -- 16 bytes, little endian
_RECORD_DTYPE = np.dtype([("gap", "<u4"), ("op", "u1"), ("pad", "V3"), ("addr", "<u8")])


class TraceError(ValueError):
    """Malformed trace input (bad magic, truncation, bad field values)."""


class Op(IntEnum):
    READ = 0
    WRITE = 1


@dataclass
class TraceHeader:
    version: int = FORMAT_VERSION
    record_count: int = 0
    page_size_bytes: int = 4096
    description: str = ""

    def __post_init__(self):
        p = self.page_size_bytes
        if p <= 0 or p & (p - 1):
            raise TraceError(f"page_size_bytes must be a power of two, got {p}")


@dataclass
class TraceArrays:
    """Column-wise in-memory trace; the representation the simulator replays.

    Record i is one memory access: `gaps[i]` instructions elapsed since the
    previous record, a read or write (`ops[i]`, an `Op` value) and a full
    byte address (`addrs[i]`).
    """

    gaps: np.ndarray  # u32
    ops: np.ndarray  # u8 (Op values)
    addrs: np.ndarray  # u64

    def __post_init__(self):
        n = len(self.gaps)
        if len(self.ops) != n or len(self.addrs) != n:
            raise TraceError("trace columns must have equal length")

    def __len__(self):
        return len(self.gaps)

    @property
    def instructions(self) -> int:
        return int(self.gaps.sum())


@dataclass
class PhaseSpec:
    """One program phase for the synthetic generator."""

    instructions: int
    working_set_bytes: int
    write_fraction: float = 0.0
    reuse_locality: float = 0.0

    def __post_init__(self):
        if self.instructions <= 0:
            raise TraceError("phase instructions must be > 0")
        if self.working_set_bytes <= 0:
            raise TraceError("phase working_set_bytes must be > 0")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise TraceError("write_fraction must be in [0, 1]")
        if not 0.0 <= self.reuse_locality <= 1.0:
            raise TraceError("reuse_locality must be in [0, 1]")


# phases live 2^26 blocks (4 GiB at 64 B blocks) apart, and no working set
# is wider, so their footprints never overlap
_PHASE_STRIDE_BLOCKS = 1 << 26


@dataclass
class SyntheticTraceSpec:
    phases: list[PhaseSpec] = field(default_factory=list)
    rng_seed: int = 0
    accesses_per_kilo_instr: float = 20.0
    block_bytes: int = 64

    def __post_init__(self):
        if not self.phases:
            raise TraceError("synthetic spec needs at least one phase")
        rate = self.accesses_per_kilo_instr
        if not (math.isfinite(rate) and rate > 0):
            raise TraceError(f"accesses_per_kilo_instr must be a finite "
                             f"number > 0, got {rate}")
        b = self.block_bytes
        if b <= 0 or b & (b - 1):
            raise TraceError("block_bytes must be a power of two")
        for phase in self.phases:
            if -(-phase.working_set_bytes // b) > _PHASE_STRIDE_BLOCKS:
                raise TraceError(
                    f"phase working_set_bytes {phase.working_set_bytes} is "
                    f"wider than {_PHASE_STRIDE_BLOCKS} blocks of {b} B, the "
                    "distance between two phases' footprints")


def _pack_header(header: TraceHeader) -> bytes:
    desc = header.description.encode("utf-8")
    return _HEADER.pack(MAGIC, header.version, header.record_count,
                        header.page_size_bytes, len(desc)) + desc


def write_trace_arrays(arrays: TraceArrays, header: TraceHeader, sink) -> int:
    """Write header + fixed-width records to a binary stream.

    Returns the number of bytes written. header.record_count must match the
    number of records.
    """
    if header.record_count != len(arrays):
        raise TraceError(
            f"header says {header.record_count} records, have {len(arrays)}")
    hdr = _pack_header(header)
    out = np.zeros(len(arrays), dtype=_RECORD_DTYPE)
    out["gap"] = arrays.gaps
    out["op"] = arrays.ops
    out["addr"] = arrays.addrs
    body = out.tobytes()
    sink.write(hdr)
    sink.write(body)
    return len(hdr) + len(body)


def _read_header(source) -> TraceHeader:
    raw = source.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise TraceError("truncated trace header")
    magic, version, count, page, desc_len = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise TraceError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise TraceError(f"trace format version {version}, expected "
                         f"{FORMAT_VERSION}")
    desc = source.read(desc_len)
    if len(desc) < desc_len:
        raise TraceError("truncated trace description")
    return TraceHeader(version=version, record_count=count,
                       page_size_bytes=page, description=desc.decode("utf-8"))


def read_trace_arrays(source) -> tuple[TraceHeader, TraceArrays]:
    """Read a binary trace into columns. Returns (header, arrays)."""
    header = _read_header(source)
    size = header.record_count * _RECORD_DTYPE.itemsize
    body = source.read(size)
    if len(body) < size:
        got = len(body) // _RECORD_DTYPE.itemsize
        raise TraceError(f"truncated record at index {got}")
    raw = np.frombuffer(body, dtype=_RECORD_DTYPE, count=header.record_count)
    ops = raw["op"].copy()
    bad = np.flatnonzero(ops > Op.WRITE)
    if len(bad):
        raise TraceError(f"record {bad[0]}: op {ops[bad[0]]} is neither "
                         f"READ ({Op.READ:d}) nor WRITE ({Op.WRITE:d})")
    return header, TraceArrays(gaps=raw["gap"].copy(), ops=ops,
                               addrs=raw["addr"].copy())


_REUSE_WINDOW = 32


def _reuse_sources(reuse: np.ndarray, widx: np.ndarray) -> np.ndarray:
    """The record whose fresh block each record ends up touching.

    A reused record re-touches the block at slot `widx % filled` of a ring
    of the last _REUSE_WINDOW blocks: record w % j while the ring is
    filling (j <= _REUSE_WINDOW), else the most recent record before j that
    is congruent to w modulo the ring size. Following those links until
    they stop changing (pointer jumping) reaches a record that drew its own
    block. The first record has nothing to re-touch.
    """
    j = np.arange(len(reuse), dtype=np.int64)
    src = np.where(j <= _REUSE_WINDOW, widx % np.maximum(j, 1),
                   j - 1 - (j - 1 - widx) % _REUSE_WINDOW)
    src = np.where(reuse & (j > 0), src, j)
    while True:
        nxt = src[src]
        if np.array_equal(nxt, src):
            return src
        src = nxt


def generate_synthetic(spec: SyntheticTraceSpec) -> TraceArrays:
    """Generate a deterministic trace from a phase-structured spec.

    Each phase draws block addresses from its own working set; with
    probability reuse_locality a recently touched block is re-touched.
    Identical spec + seed reproduce the trace exactly.
    """
    rng = np.random.default_rng(spec.rng_seed)
    block = spec.block_bytes
    gap_chunks = []
    op_chunks = []
    addr_chunks = []

    for phase_idx, phase in enumerate(spec.phases):
        n = max(1, round(phase.instructions * spec.accesses_per_kilo_instr / 1000.0))
        # spread the phase's instructions evenly over its records
        edges = (np.arange(1, n + 1, dtype=np.uint64) * phase.instructions) // n
        gaps = np.diff(edges, prepend=np.uint64(0)).astype(np.uint32)

        ws_blocks = -(-phase.working_set_bytes // block)  # ceil
        base_block = phase_idx * _PHASE_STRIDE_BLOCKS
        uniform = rng.integers(0, ws_blocks, size=n, dtype=np.int64)
        reuse = rng.random(n) < phase.reuse_locality
        widx = rng.integers(0, _REUSE_WINDOW, size=n, dtype=np.int64)
        writes = rng.random(n) < phase.write_fraction

        blocks = uniform[_reuse_sources(reuse, widx)]
        addrs = (blocks.astype(np.uint64) + np.uint64(base_block)) * np.uint64(block)
        gap_chunks.append(gaps)
        op_chunks.append(writes.astype(np.uint8))
        addr_chunks.append(addrs)

    return TraceArrays(gaps=np.concatenate(gap_chunks),
                       ops=np.concatenate(op_chunks),
                       addrs=np.concatenate(addr_chunks))
