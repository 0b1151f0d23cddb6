"""Set-associative colored LLC model.

The cache is split into M equally sized colors; memory regions (page number
mod M) map onto the currently active colors through a mapping table.
Shrinking the active set flushes the dropped colors and remaps their regions;
growing rebalances regions onto the new colors. A valid line is always
reachable through the current mapping: whenever a region is remapped, its
resident lines are flushed (dirty ones counted as writebacks), which keeps
lookups consistent and the per-bank valid counters exact.

The sets live in flat numpy arrays: set s owns the tag slots
[s * ways, (s + 1) * ways), of which its first `fill[s]` hold the resident
tags, least recent first: the same LRU stack the profiling units keep
(Mattson et al., 1970). A tag is a full block number, so a block sits in at
most one set; each slot has a dirty byte and a last-touch record index.

`replay` is the functional pass of a simulation: it applies a run of trace
records to those arrays and writes each record's outcome into a code byte
(a `Replay`), which the timing pass in `sim.run` then reads. Hits,
misses and evictions do not depend on time, so one replay serves every
scheme that never remaps the cache. The per-record work is a C routine
(lru.c's edr_replay), built at first use; see native.py.
"""

import ctypes
import os
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    pass


class ReconfigError(ValueError):
    pass


def _is_pow2(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Cache shape: total size, ways, block size, page size, bank size."""

    size_bytes: int
    associativity: int
    block_bytes: int = 64
    page_bytes: int = 4096
    bank_bytes: int = 1 << 20

    def __post_init__(self):
        for name in ("size_bytes", "associativity", "block_bytes", "page_bytes",
                     "bank_bytes"):
            if not _is_pow2(getattr(self, name)):
                raise GeometryError(f"{name} must be a power of two")
        if not self.size_bytes >= self.bank_bytes >= self.block_bytes:
            raise GeometryError("need size_bytes >= bank_bytes >= block_bytes")
        if self.page_bytes < self.block_bytes:
            raise GeometryError("page_bytes must be >= block_bytes")
        denom = self.page_bytes * self.associativity
        if self.size_bytes % denom:
            raise GeometryError("color count is not integral")
        if self.size_bytes // denom < 2:
            raise GeometryError(
                f"need at least 2 colors, got {self.size_bytes // denom}")

    @property
    def color_count(self) -> int:
        return self.size_bytes // (self.page_bytes * self.associativity)

    @property
    def total_lines(self) -> int:
        return self.size_bytes // self.block_bytes

    @property
    def total_sets(self) -> int:
        return self.total_lines // self.associativity

    @property
    def sets_per_color(self) -> int:
        # equals blocks-per-page: the page offset selects the set inside a color
        return self.page_bytes // self.block_bytes

    @property
    def lines_per_color(self) -> int:
        return self.total_lines // self.color_count

    @property
    def num_banks(self) -> int:
        return self.size_bytes // self.bank_bytes

    @property
    def sets_per_bank(self) -> int:
        return self.total_sets // self.num_banks


def lines_at(geometry: CacheGeometry, colors: int) -> int:
    """Total cache lines available when `colors` colors are active."""
    if not 1 <= colors <= geometry.color_count:
        raise GeometryError(f"colors must be in [1, {geometry.color_count}]")
    return colors * geometry.lines_per_color


@dataclass
class ReconfigReport:
    flushed_lines: int
    writebacks: int
    switched_blocks: int


class CacheState:
    """Mutable cache state owned by a single simulation instance."""

    def __init__(self, geometry: CacheGeometry, active_colors=None,
                 min_colors: int = 1):
        self.geometry = geometry
        self.min_colors = min_colors
        m_total = geometry.color_count
        if active_colors is None:
            active = list(range(m_total))
        else:
            active = sorted(set(active_colors))
            if not active or active[0] < 0 or active[-1] >= m_total:
                raise ReconfigError("active colors out of range")
            if len(active) < min_colors:
                raise ReconfigError(
                    f"need at least {min_colors} active colors")
        self.active_colors: set[int] = set(active)
        # balanced initial mapping: region i -> i-th active color, cycling
        self.mapping: list[int] = [active[i % len(active)] for i in range(m_total)]
        # set s: tag slots [s * ways, (s + 1) * ways), the first fill[s]
        # resident, least recent first, with a dirty byte and a last-touch
        # index per slot (the latter kept only for a last-touch column)
        self.tags = np.zeros(geometry.total_lines, dtype=np.uint64)
        self.dirty = np.zeros(geometry.total_lines, dtype=np.uint8)
        self.touch = np.zeros(geometry.total_lines, dtype=np.int32)
        self.fill = np.zeros(geometry.total_sets, dtype=np.int32)
        self.n_valid = 0
        self.valid_by_bank = np.zeros(geometry.num_banks, dtype=np.int64)

    @property
    def active_count(self) -> int:
        return len(self.active_colors)


# outcome bits of a Replay code byte
HIT = 1
EVICTED = 2  # a miss that pushed out the set's least recent line
DIRTY_VICTIM = 4  # ... and that line was dirty
WRITE = 8


class Replay:
    """Outcome columns of a functional replay, one entry per trace record.

    `codes` holds the HIT/EVICTED/DIRTY_VICTIM/WRITE bits, one byte per
    record. `last_touch`, if given an int32 array (`sim.fixed_replay` does),
    gets the index of the record that last touched the line each record hits
    or evicts, -1 for a fill of a free way: RPV's input.
    """

    def __init__(self, geometry: CacheGeometry, records: int):
        self.geometry = geometry
        self.codes = bytearray(records)
        self.last_touch = None

    def __len__(self):
        return len(self.codes)


_lib = None


def kernel(name: str):
    """A routine of lru.c, which is built and loaded at the first call."""
    global _lib
    if _lib is None:
        from . import native  # the compiler is needed only from here on
        lib = native.load(os.path.join(os.path.dirname(__file__), "lru.c"))
        ptr, i64, u64, c_int = (ctypes.c_void_p, ctypes.c_int64,
                                ctypes.c_uint64, ctypes.c_int)
        lib.edr_replay.restype = i64
        lib.edr_replay.argtypes = [ptr, ptr, i64, i64, ptr, ptr, ptr, ptr,
                                   ptr, ptr, ptr, ptr, c_int, c_int, u64, ptr,
                                   ptr, ptr, ptr]
        lib.edr_time.restype = None
        lib.edr_time.argtypes = [ptr, ptr, ptr, ctypes.c_double, i64, i64,
                                 ptr, ptr, i64, ptr, i64, c_int, ptr, ptr,
                                 i64, i64]
        _lib = lib
    return getattr(_lib, name)


def layout(geometry: CacheGeometry, mapping=None) -> np.ndarray:
    """How the kernels find a byte address's set under `mapping` (region ->
    color; the identity if None): the block shift, the page shift, the
    region mask, the mask of a block's set inside its color, the sets per
    bank, then the first set of each region's color."""
    g = geometry
    out = np.empty(5 + g.color_count, dtype=np.int64)
    out[:5] = (g.block_bytes.bit_length() - 1, g.page_bytes.bit_length() - 1,
               g.color_count - 1, g.sets_per_color - 1, g.sets_per_bank)
    out[5:] = range(g.color_count) if mapping is None else mapping
    out[5:] *= g.sets_per_color
    return out


def replay(state: CacheState, addrs, writes, lo: int, hi: int, out: Replay,
           units=None, ratio: int = 64) -> None:
    """Apply records [lo, hi) to the cache and write their outcomes to `out`.

    `addrs` and `writes` are the trace's columns: byte addresses and write
    flags (numpy arrays). A record's region (page number mod M) picks a
    color through the mapping, which is fixed for the call, and its page
    offset picks the set inside that color. A hit moves the tag to the end
    of its set's row; a miss into a full set evicts the first. The dirty
    bytes and the valid counters (total and per bank) follow, and so do the
    last-touch indices when `out` has a last-touch column. With `units`,
    every block whose number is a multiple of `ratio` is looked up in each
    profiling unit, which counts its accesses, misses and load misses.
    """
    g = state.geometry
    stray = set(state.mapping) - state.active_colors
    if stray:
        raise AssertionError(
            f"mapping routes regions to inactive colors {sorted(stray)}")
    units = units or []
    if units and (ratio < 1 or any(u.associativity != g.associativity
                                   for u in units)):
        raise ValueError("profiling units need a sampling ratio >= 1 and the "
                         "cache's associativity")
    addrs = np.ascontiguousarray(addrs, dtype=np.uint64)
    writes = np.ascontiguousarray(writes, dtype=np.bool_)
    codes = np.frombuffer(out.codes, dtype=np.uint8)
    column = out.last_touch
    lo, hi, _ = slice(lo, hi).indices(len(codes))  # as a slice of them
    # the kernel trusts them
    if not (len(addrs) == len(writes) == len(codes)
            and (column is None or len(column) == len(codes))):
        raise ValueError(f"records [{lo}, {hi}) of the trace do not fit its "
                         "write flags or the replay")
    shape = np.array([(u.num_sets, u.sample_ratio_denom) for u in units],
                     dtype=np.int64)
    counts = np.zeros((len(units), 3), dtype=np.int64)
    ptrs = ctypes.c_void_p * len(units)
    where = layout(g, state.mapping)
    fills = kernel("edr_replay")(
        addrs.ctypes.data, writes.ctypes.data, lo, hi, codes.ctypes.data,
        None if column is None else column.ctypes.data,
        state.tags.ctypes.data, state.dirty.ctypes.data,
        state.touch.ctypes.data, state.fill.ctypes.data,
        state.valid_by_bank.ctypes.data, where.ctypes.data, g.associativity, len(units), ratio,
        ptrs(*[u.tags.ctypes.data for u in units]),
        ptrs(*[u.fill.ctypes.data for u in units]), shape.ctypes.data,
        counts.ctypes.data)
    state.n_valid += fills
    for unit, (misses, load_misses, accesses) in zip(units, counts.tolist()):
        unit.misses += misses
        unit.load_misses += load_misses
        unit.accesses += accesses


def _flush(state: CacheState, color: int, regions=None) -> tuple[int, int]:
    """Invalidate the lines of a color, or only those of some regions in it.

    The surviving tags of each set move to the front of its row in their
    order. Returns (flushed lines, writebacks of dirty ones).
    """
    g = state.geometry
    ways = g.associativity
    first = color * g.sets_per_color
    rows = slice(first, first + g.sets_per_color)
    tags = state.tags.reshape(-1, ways)[rows]  # views into the state
    dirty = state.dirty.reshape(-1, ways)[rows]
    fill = state.fill[rows]
    gone = np.arange(ways) < fill[:, None]  # the resident slots ...
    if regions is not None:  # ... of the regions' pages
        page_shift = g.sets_per_color.bit_length() - 1  # tag >> it = page
        pulled = np.zeros(g.color_count, dtype=bool)
        pulled[regions] = True
        gone &= pulled[(tags >> page_shift) & np.uint64(g.color_count - 1)]
    lost = gone.sum(axis=1)
    flushed = int(lost.sum())
    if not flushed:
        return 0, 0
    writebacks = int(np.count_nonzero(dirty[gone]))
    dirty[gone] = 0
    if regions is not None:
        # a stable sort on "gone" moves the survivors to the front in order
        order = np.argsort(gone, axis=1, kind="stable")
        tags[:] = np.take_along_axis(tags, order, axis=1)
        dirty[:] = np.take_along_axis(dirty, order, axis=1)
    fill -= lost.astype(np.int32)
    state.n_valid -= flushed
    np.subtract.at(state.valid_by_bank,
                   np.arange(first, first + g.sets_per_color) // g.sets_per_bank,
                   lost)
    return flushed, writebacks


def reconfigure(state: CacheState, new_colors) -> ReconfigReport:
    """Switch the active color set; flush and remap as needed.

    Deactivated colors are flushed wholesale and their regions re-spread
    round-robin over the surviving colors (ascending). Newly activated colors
    pull regions from the most loaded colors until they reach the balanced
    share; pulled regions are flushed from their old color so no stale line
    outlives its mapping entry. Which color gives up which region depends
    only on the region counts, so every pull is planned first and each
    donor is then flushed once, over all the regions it gave up.
    """
    g = state.geometry
    m_total = g.color_count
    new = sorted(set(new_colors))
    if not new or new[0] < 0 or new[-1] >= m_total:
        raise ReconfigError("new colors out of range")
    if len(new) < state.min_colors:
        raise ReconfigError(
            f"cannot go below {state.min_colors} colors (asked {len(new)})")
    new_set = set(new)
    deactivated = state.active_colors - new_set
    activated = new_set - state.active_colors

    flushed = writebacks = 0

    # 1. flush everything in colors being turned off
    for color in sorted(deactivated):
        f, w = _flush(state, color)
        flushed += f
        writebacks += w

    # 2. orphaned regions go round-robin over the new active set
    rr = 0
    for region in range(m_total):
        if state.mapping[region] in deactivated:
            state.mapping[region] = new[rr % len(new)]
            rr += 1

    # 3. rebalance onto newly activated colors
    pulled: dict[int, list[int]] = {}
    if activated:
        counts = {c: 0 for c in new}
        for region in range(m_total):
            counts[state.mapping[region]] += 1
        target = m_total // len(new)
        regions_of = {c: [] for c in new}
        for region in range(m_total):
            regions_of[state.mapping[region]].append(region)
        for color in sorted(activated):
            while counts[color] < target:
                donor = max(counts, key=lambda c: (counts[c], -c))
                if counts[donor] <= counts[color]:
                    break
                region = regions_of[donor].pop()  # highest region index
                pulled.setdefault(donor, []).append(region)
                state.mapping[region] = color
                regions_of[color].append(region)
                counts[donor] -= 1
                counts[color] += 1
    for donor, regions in sorted(pulled.items()):
        f, w = _flush(state, donor, regions)
        flushed += f
        writebacks += w

    switched = (len(deactivated) + len(activated)) * g.lines_per_color
    state.active_colors = new_set
    return ReconfigReport(flushed_lines=flushed, writebacks=writebacks,
                          switched_blocks=switched)
