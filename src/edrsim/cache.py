"""Set-associative colored LLC model.

The cache is split into M equally sized colors; memory regions (page number
mod M) map onto the currently active colors through a mapping table.
Shrinking the active set flushes the dropped colors and remaps their regions;
growing rebalances regions onto the new colors. A valid line is always
reachable through the current mapping: whenever a region is remapped, its
resident lines are flushed (dirty ones counted as writebacks), which keeps
lookups consistent and the per-bank valid counters exact.

Each set is a list of resident tags, least recent first: the same LRU stack
the profiling units keep (Mattson et al., 1970). A tag is a full block
number, so a block sits in at most one set, and the dirty bits live in a set
of tags.

`replay` is the functional pass of a simulation: it applies a run of trace
records to the tag lists and writes each record's outcome into a code byte
(a `Replay`), which the timing pass in `sim.run` then reads. Hits,
misses and evictions do not depend on time, so one replay serves every
scheme that never remaps the cache.
"""

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
        # resident tags of each set, least recent first
        self.sets: list[list[int]] = [[] for _ in range(geometry.total_sets)]
        self.dirty: set[int] = set()
        self.n_valid = 0
        self.valid_by_bank = [0] * geometry.num_banks

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
    record. `last_touch` is left for the timing pass to fill once (see
    `sim.last_touch`): RPV's per-record index of the record that last touched
    the line a hit or an eviction takes.
    """

    def __init__(self, geometry: CacheGeometry, records: int):
        self.geometry = geometry
        self.codes = bytearray(records)
        self.last_touch = None

    def __len__(self):
        return len(self.codes)


def replay(state: CacheState, addrs, writes, lo: int, hi: int, out: Replay,
           units=None, ratio: int = 64) -> None:
    """Apply records [lo, hi) to the cache and write their outcomes to `out`.

    `addrs` and `writes` are the trace's columns: byte addresses and write
    flags (numpy arrays; only the slice [lo, hi) is turned into Python
    objects). A record's region (page number mod M) picks a color through
    the mapping, which is fixed for the call, and its page offset picks the
    set inside that color. A hit moves the tag to the end of its set's list;
    a miss into a full set evicts the first. The dirty set and the valid
    counters (total and per bank) follow. With `units`, every block whose
    number is a multiple of `ratio` is probed in each profiling unit.
    """
    g = state.geometry
    stray = set(state.mapping) - state.active_colors
    if stray:
        raise AssertionError(
            f"mapping routes regions to inactive colors {sorted(stray)}")
    ways = g.associativity
    block_shift = g.block_bytes.bit_length() - 1
    page_shift = g.page_bytes.bit_length() - 1
    region_mask = g.color_count - 1
    within_mask = g.sets_per_color - 1
    sets_per_bank = g.sets_per_bank
    first_set = [color * g.sets_per_color for color in state.mapping]
    sets = state.sets
    dirty = state.dirty
    valid_by_bank = state.valid_by_bank
    codes = out.codes
    fills = 0
    for i, addr, is_write in zip(range(lo, hi), addrs[lo:hi].tolist(),
                                 writes[lo:hi].tolist()):
        tag = addr >> block_shift
        set_index = first_set[(addr >> page_shift) & region_mask] + (tag & within_mask)
        tags = sets[set_index]
        if tag in tags:
            tags.remove(tag)
            tags.append(tag)
            if is_write:
                dirty.add(tag)
                codes[i] = HIT | WRITE
            else:
                codes[i] = HIT
        else:
            if len(tags) == ways:
                victim = tags.pop(0)
                if victim in dirty:
                    dirty.remove(victim)
                    code = EVICTED | DIRTY_VICTIM
                else:
                    code = EVICTED
            else:
                code = 0
                valid_by_bank[set_index // sets_per_bank] += 1
                fills += 1
            tags.append(tag)
            if is_write:
                dirty.add(tag)
                code |= WRITE
            codes[i] = code
        if units is not None and not tag % ratio:
            for unit in units:
                unit.probe(tag, is_write)
    state.n_valid += fills


def banks(addrs: np.ndarray, geometry: CacheGeometry,
          mapping: list[int]) -> np.ndarray:
    """The bank of each byte address's set, with the set found as `replay`
    finds it under `mapping` (region -> color)."""
    g = geometry
    blocks = (addrs >> (g.block_bytes.bit_length() - 1)).astype(np.int64)
    sets = blocks & (g.sets_per_color - 1)  # the set within the color
    blocks >>= g.sets_per_color.bit_length() - 1  # the page ...
    blocks &= g.color_count - 1  # ... and its region
    sets += (np.asarray(mapping, dtype=np.int64) * g.sets_per_color)[blocks]
    sets //= g.sets_per_bank
    return sets


def _flush(state: CacheState, color: int, region: int | None = None) -> tuple[int, int]:
    """Invalidate the lines of a color, or only those of one region in it.

    The surviving tags keep their order. Returns (flushed lines, writebacks
    of dirty ones).
    """
    g = state.geometry
    sets_per_color = g.sets_per_color
    sets_per_bank = g.sets_per_bank
    page_shift = sets_per_color.bit_length() - 1  # tag >> page_shift = page
    region_mask = g.color_count - 1
    dirty = state.dirty
    flushed = writebacks = 0
    start = color * sets_per_color
    for set_index in range(start, start + sets_per_color):
        tags = state.sets[set_index]
        if region is None:
            gone = tags[:]
            tags.clear()
        else:
            gone = [t for t in tags if (t >> page_shift) & region_mask == region]
            if gone:
                tags[:] = [t for t in tags
                           if (t >> page_shift) & region_mask != region]
        if not gone:
            continue
        bank = set_index // sets_per_bank
        stale = dirty.intersection(gone)
        writebacks += len(stale)
        dirty -= stale
        flushed += len(gone)
        state.n_valid -= len(gone)
        state.valid_by_bank[bank] -= len(gone)
    return flushed, writebacks


def reconfigure(state: CacheState, new_colors) -> ReconfigReport:
    """Switch the active color set; flush and remap as needed.

    Deactivated colors are flushed wholesale and their regions re-spread
    round-robin over the surviving colors (ascending). Newly activated colors
    pull regions from the most loaded colors until they reach the balanced
    share; pulled regions are flushed from their old color so no stale line
    outlives its mapping entry.
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
                f, w = _flush(state, donor, region)
                flushed += f
                writebacks += w
                state.mapping[region] = color
                regions_of[color].append(region)
                counts[donor] -= 1
                counts[color] += 1

    switched = (len(deactivated) + len(activated)) * g.lines_per_color
    state.active_colors = new_set
    return ReconfigReport(flushed_lines=flushed, writebacks=writebacks,
                          switched_blocks=switched)
