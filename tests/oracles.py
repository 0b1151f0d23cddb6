"""Brute-force reference implementations, used only by the test suite.

These are deliberately plain: full scans and straight-line formula
re-evaluation, O(lines) or O(trace), no shared code with the paths they
check beyond the parameter objects.

`replay` drives the compiled functional pass (`passes.Passes`) over a run
of records. The module also holds a record-at-a-time model of the cache:
`access_block` applies one access to a `CacheState`'s sets held as plain
Python lists (`SetLists`) and returns the outcome bits of the code byte
`replay` writes, `age_in` a hit's age, the rest of that byte, `probe`
looks one block up at each size of a profiling unit, and
`replay_reference` is `replay` built from them, record by record in
Python: the reference the compiled kernel is diffed against.
`flush_reference` is the compiled flush of a reconfiguration in numpy, on
`view`s of the state's columns, one color at a time.
`reconfigure_reference` plans each pulled region of a reconfiguration by
a `max` over every color and flushes each donor on its own, and
`select_reference` prices each candidate through `interpolate_reference`,
the `IntervalStats` it predicts and `interval_energy`: the one-at-a-time
forms of `reconfigure` and `select`.
`generate_reference` is the synthetic trace generator in numpy, drawing
from numpy's own generator. `RpvPhases` keeps RPV's last-touch phases
and per-bank-per-phase valid counts beside the state. A line slot of the
flat arrays is one word, the line's tag in bits 0-62 and its dirty bit in
bit 63: `set_tags` and `set_dirty` read one set back as lists of each,
`dirty_bits` the dirty bit of every slot, and `SetLists.store` writes
both back. The
charge-timeline oracle checks the refresh counts against its own per-line
charges, and
`reference_run`, the record-at-a-time replay that `sim.run`'s two-stage
replay must match, counts refreshed lines from the same model.

`HIT`, `EVICTED`, `DIRTY_VICTIM`, `WRITE` and `AGE_SHIFT` name the
parts of the code byte, as lru.c makes it, and `predicted_hit_ratio`
gives LRU's hit ratio on a uniform working set from first principles.
`trace_of` builds a trace from tuples, and `replay_codes` and
`age_column` drive the real functional pass, for tests that check the
cache itself; `age_mirror` is `age_column` from per-set lists. `plain` is
a report as the tree of dicts and lists whose `json.dumps` the CLI's
writer must match byte for byte.
"""

import ctypes
import math
import os
from array import array
from dataclasses import dataclass

import numpy as np

from edrsim import native
from edrsim.cache import (CacheGeometry, CacheState, ReconfigReport,
                          reconfigure)
from edrsim.controller import (Candidate, ControllerConfig, Decision,
                               candidate_space, select)
from edrsim.energy import (EnergyBreakdown, EnergyParams, SchemeKind,
                           interval_energy)
from edrsim.passes import Passes
from edrsim.profiler import (IntervalStats, ProfilingUnit, TimingParams,
                             interpolate, profiled_points)
from edrsim.record import Record
from edrsim.refresh import RefreshConfig
from edrsim.sim import RunReport
from edrsim.trace import (_PHASE_STRIDE_BLOCKS, Op, SyntheticTraceSpec,
                          TraceArrays)


def trace_of(records) -> TraceArrays:
    """A trace from (instruction gap, op, byte address) tuples."""
    records = list(records)
    return TraceArrays(gaps=array("I", [r[0] for r in records]),
                       ops=bytearray(r[1] for r in records),
                       addrs=array("Q", [r[2] for r in records]))


def view(column) -> np.ndarray:
    """A numpy array over a column's memory (an `array.array`, a
    `bytearray` or a numpy array): writing one writes the other."""
    return np.asarray(column)


def ints(column) -> list[int]:
    """A column's items as Python ints."""
    return memoryview(column).tolist()


def replay(state: CacheState, trace: TraceArrays, lo: int, hi: int,
           codes: bytearray, unit=None) -> None:
    """Apply records [lo, hi) of a trace to the cache and write their
    outcomes to `codes`, a byte per record of the trace.

    The trace's columns may be numpy arrays. A record's region (page
    number mod M) picks a color through the mapping, which is fixed for
    the call, and its page offset picks the set inside that color. A hit
    moves the tag to the end of its set's row; a miss into a full set
    evicts the first. The dirty bits and the valid counters (total and
    per bank) follow. With a profiling `unit`, every block whose number is
    a multiple of its sampling ratio is looked up at each of its sizes,
    which count its accesses, misses and load misses.
    """
    Passes(state, trace, unit, [], TimingParams(), 0, 1 << 62, codes)(lo, hi)


def replay_codes(state: CacheState, trace: TraceArrays, lo: int = 0,
                 hi: int | None = None) -> bytes:
    """Apply records [lo, hi) of a trace to `state` with `replay`;
    their code bytes."""
    hi = len(trace) if hi is None else hi
    codes = bytearray(len(trace))
    replay(state, trace, lo, hi, codes)
    return bytes(codes[lo:hi])


DIRTY = 1 << 63  # a line slot's dirty bit, above its tag

# a record's code byte, as lru.c makes it: its outcome bits and, for a hit,
# from bit AGE_SHIFT up, the line's age: the lines of its set touched
# since, 0 for the most recent
HIT = 1
EVICTED = 2  # a miss that pushed out the set's least recent line
DIRTY_VICTIM = 4  # ... and that line was dirty
WRITE = 8
AGE_SHIFT = 4


def _words(state, row: int) -> list[int]:
    start = row * (len(state.tags) // len(state.fill))
    return state.tags[start:start + state.fill[row]].tolist()


def set_tags(state, row: int) -> list[int]:
    """The resident tags of a set of a `CacheState`, or of a row (a sampled
    set) of a `ProfilingUnit`, least recent first."""
    return [word & ~DIRTY for word in _words(state, row)]


def set_dirty(state: CacheState, row: int) -> list[int]:
    """The dirty bits (0 or 1) of a set's resident lines, in `set_tags`
    order."""
    return [word >> 63 for word in _words(state, row)]


def dirty_bits(state: CacheState) -> np.ndarray:
    """The dirty bit of every line slot of a state, the empty ones
    included, as 0s and 1s."""
    return view(state.tags) >> np.uint64(63)


def _store_set(state, row: int, tags: list[int]) -> None:
    start = row * (len(state.tags) // len(state.fill))
    state.tags[start:start + len(tags)] = array("Q", tags)
    state.fill[row] = len(tags)


def all_sets(state) -> list[list[int]]:
    """`set_tags` of every set (or sampled set)."""
    ways = len(state.tags) // len(state.fill)
    tags = [word & ~DIRTY for word in state.tags.tolist()]
    return [tags[row * ways:row * ways + n]
            for row, n in enumerate(state.fill)]


def bank_of(geometry: CacheGeometry, sets):
    """The bank of a set index, or of each of a numpy array of them."""
    return sets // geometry.sets_per_bank


def dirty_tags(state: CacheState) -> set[int]:
    """The resident tags whose dirty bit is set."""
    return {tag for row in range(len(state.fill))
            for tag, d in zip(set_tags(state, row), set_dirty(state, row))
            if d}


class RpvPhases:
    """RPV's refresh bookkeeping beside a `CacheState` that never remaps:
    the phase of the retention period each resident tag was last touched
    in, and the valid lines of each bank by that phase."""

    def __init__(self, geometry: CacheGeometry, config: RefreshConfig):
        self.phase_cycles = config.phase_cycles
        self.phases = config.phases
        self.of_tag: dict[int, int] = {}
        self.by_bank = [[0] * config.phases for _ in range(geometry.num_banks)]

    def phase_of(self, cycle: int) -> int:
        return cycle // self.phase_cycles % self.phases

    def lines(self, phase: int) -> list[int]:
        """Per bank, the valid lines due at the boundary of `phase`."""
        return [bank[phase] for bank in self.by_bank]


class SetLists:
    """A `CacheState`'s sets as plain Python lists, the record-at-a-time
    model's cache: per set, the resident tags least recent first and their
    dirty flags, and the valid lines per bank, read from the state's
    arrays. `store` writes them back; until then the state's
    arrays are stale. The mapping is the state's own array."""

    def __init__(self, state: CacheState):
        g = state.geometry
        self.state = state
        self.mapping = state.mapping
        self.ways, self.block_bytes, self.page_bytes = (
            g.associativity, g.block_bytes, g.page_bytes)
        self.colors, self.sets_per_color = g.color_count, g.sets_per_color
        self.tags = all_sets(state)
        self.dirty = [set_dirty(state, row) for row in range(len(self.tags))]
        self.valid_by_bank = state.valid_by_bank.tolist()

    def set_of(self, address: int) -> int:
        """The set of a byte address: its region (page number mod M) picks
        a color through the mapping, its page offset the set inside the
        color."""
        color = self.mapping[address // self.page_bytes % self.colors]
        return (color * self.sets_per_color
                + address % self.page_bytes // self.block_bytes)

    def store(self) -> CacheState:
        """Write the sets and counters into the state's arrays; the state.
        A set's slots past its tags keep what they held."""
        state = self.state
        for row, (tags, dirty) in enumerate(zip(self.tags, self.dirty)):
            start = row * self.ways
            state.tags[start:start + len(tags)] = array(
                "Q", [tag | d << 63 for tag, d in zip(tags, dirty)])
            state.fill[row] = len(tags)
        state.valid_by_bank[:] = array("q", self.valid_by_bank)
        return state


def access_block(model: SetLists, is_write: bool, address: int,
                 rpv: RpvPhases | None = None, now: int = 0) -> int:
    """Apply one access (LRU probe and fill, dirty and valid bookkeeping,
    and with `rpv` the line's last-touch phase at cycle `now`); returns the
    HIT/EVICTED/DIRTY_VICTIM/WRITE bits of its code byte."""
    set_index = model.set_of(address)
    assert set_index // model.sets_per_color < model.state.active_count
    tag = address // model.block_bytes
    tags = model.tags[set_index]
    dirty = model.dirty[set_index]
    bank = bank_of(model.state.geometry, set_index)
    if tag in tags:
        i = tags.index(tag)
        del tags[i]
        was_dirty = dirty.pop(i)
        code = HIT
    else:
        code = was_dirty = 0
        if len(tags) == model.ways:  # full: evict least recent
            victim = tags.pop(0)
            code = EVICTED
            if dirty.pop(0):
                code |= DIRTY_VICTIM
            model.valid_by_bank[bank] -= 1
            if rpv is not None:
                rpv.by_bank[bank][rpv.of_tag.pop(victim)] -= 1
        model.valid_by_bank[bank] += 1
    tags.append(tag)
    dirty.append(1 if is_write else was_dirty)
    if is_write:
        code |= WRITE
    if rpv is not None:
        if code & HIT:
            rpv.by_bank[bank][rpv.of_tag[tag]] -= 1
        rpv.of_tag[tag] = rpv.phase_of(now)
        rpv.by_bank[bank][rpv.of_tag[tag]] += 1
    return code


def age_in(model: SetLists, address: int) -> int | None:
    """The age of a block in its set, the tags after it in the list: what
    a hit on it stores from bit AGE_SHIFT up. None if not resident."""
    tags = model.tags[model.set_of(address)]
    tag = address // model.block_bytes
    return len(tags) - 1 - tags.index(tag) if tag in tags else None


def probe(unit: ProfilingUnit, block: int, is_write: bool) -> None:
    """Look one block up at each size of a profiling unit: where its set
    is sampled, the size counts an access, and a miss (and a load miss)
    when the block is not resident; a hit moves the block to the end of
    the set, a miss appends it and drops the first tag of a full set. Size
    u's sets are the rows after those of the sizes before it."""
    first = 0
    for u, rows in enumerate(unit.rows.tolist()):
        set_index = block % (rows * unit.ratio)
        if not set_index % unit.ratio:
            row = first + set_index // unit.ratio
            tags = set_tags(unit, row)
            unit.counts[3 * u + 2] += 1
            if block in tags:
                tags.remove(block)
            else:
                unit.counts[3 * u] += 1
                unit.counts[3 * u + 1] += not is_write
                if len(tags) == unit.ways:
                    tags.pop(0)
            tags.append(block)
            _store_set(unit, row, tags)
        first += rows


def size_counts(unit: ProfilingUnit) -> list[tuple[int, int, int]]:
    """Per size of a profiling unit, X first: its (misses, load misses,
    accesses)."""
    counts = unit.counts.tolist()
    return [tuple(counts[i:i + 3]) for i in range(0, len(counts), 3)]


def predicted_hit_ratio(lines: int, ws_blocks: int) -> float:
    """The steady-state LRU hit ratio of a cache of `lines` lines under
    uniform, independent references to a working set of `ws_blocks`
    blocks that spread evenly over its sets: min(1, A*S/W). A set of A
    ways then holds A of its k = W/S blocks, whichever were touched, so
    every reference hits with probability min(1, A/k) (King, IFIP 1971;
    Mattson et al., IBM Systems Journal 1970)."""
    return min(1.0, lines / ws_blocks)


def profiler_overhead_bytes(unit: ProfilingUnit, tag_bits: int = 30) -> float:
    """Storage footprint of a profiling unit: its tags (it stores no
    data)."""
    return len(unit.tags) * tag_bits / 8


def replay_reference(state: CacheState, trace: TraceArrays, lo: int,
                     hi: int, codes: bytearray, unit=None) -> None:
    """`replay` record by record: `access_block`, with a hit's `age_in`,
    then `probe` in the profiling unit for a block whose number is a
    multiple of its sampling ratio."""
    assert max(state.mapping) < state.active_count, \
        f"mapping routes regions to inactive color {max(state.mapping)}"
    model = SetLists(state)
    block_bytes = state.geometry.block_bytes
    for i, addr, is_write in zip(range(lo, hi), ints(trace.addrs)[lo:hi],
                                 ints(trace.ops)[lo:hi]):
        age = age_in(model, addr) or 0
        codes[i] = access_block(model, bool(is_write), addr) \
            | age << AGE_SHIFT
        block = addr // block_bytes
        if unit is not None and not block % unit.ratio:
            probe(unit, block, bool(is_write))
    model.store()


def flush_reference(state: CacheState, color: int,
                    regions=None) -> tuple[int, int]:
    """A flush in numpy: invalidate the resident lines of a color, or only
    those whose page's region is in `regions`, as `cache._flush` does in
    each color it scans, with the regions it marks. A stable sort moves
    the survivors of each set to the front of its row in their order, and
    the flushed lines lose their dirty bits. Returns (flushed lines,
    writebacks of dirty ones)."""
    g = state.geometry
    ways = g.associativity
    first = color * g.sets_per_color
    rows = slice(first, first + g.sets_per_color)
    words = view(state.tags).reshape(-1, ways)[rows]  # views into the state
    fill = view(state.fill)[rows]
    gone = np.arange(ways) < fill[:, None]  # the resident slots ...
    if regions is not None:  # ... of the regions' pages
        page_shift = g.sets_per_color.bit_length() - 1  # tag >> it = page
        pulled = np.zeros(g.color_count, dtype=bool)
        pulled[regions] = True
        tags = words & np.uint64(DIRTY - 1)
        gone &= pulled[(tags >> page_shift) & np.uint64(g.color_count - 1)]
    lost = gone.sum(axis=1)
    flushed = int(lost.sum())
    if not flushed:
        return 0, 0
    writebacks = int(np.count_nonzero(words[gone] >> np.uint64(63)))
    words[gone] &= np.uint64(DIRTY - 1)
    if regions is not None:
        order = np.argsort(gone, axis=1, kind="stable")
        words[:] = np.take_along_axis(words, order, axis=1)
    fill -= lost.astype(np.int32)
    np.subtract.at(view(state.valid_by_bank),
                   bank_of(g, np.arange(first, first + g.sets_per_color)),
                   lost)
    return flushed, writebacks


def estimate_misses(unit: ProfilingUnit, colors: int,
                    geometry: CacheGeometry) -> tuple[float, float]:
    """The profiling unit's estimated (misses, load misses) for a cache of
    `colors` colors, as `controller.select` interpolates them."""
    m_total = geometry.color_count
    if not 1 <= colors <= m_total:
        raise ValueError(f"colors must be in [1, {m_total}]")
    [got] = interpolate(profiled_points(unit),
                        [colors * geometry.size_bytes / m_total])
    return got


def interpolate_reference(points: list[tuple],
                          size: float) -> tuple[float, float]:
    """`profiler.interpolate` at one size, walking up from the smallest
    profiled size to the first one at or above `size`."""
    hi = len(points) - 1
    while points[hi][0] < size:
        hi -= 1
    hi_size, hi_log, hi_m, hi_l = points[hi]
    if hi_size == size or hi == len(points) - 1:
        return hi_m, hi_l
    _, lo_log, lo_m, lo_l = points[hi + 1]
    t = (math.log2(size) - lo_log) / (hi_log - lo_log)
    return lo_m + t * (hi_m - lo_m), lo_l + t * (hi_l - lo_l)


def estimate_time(stats: IntervalStats, est_load_misses: float,
                  timing: TimingParams) -> float:
    """`controller.select`'s time estimate of a candidate: the finished
    interval's cycles outside load misses, plus the hit and DRAM latency
    per estimated load miss."""
    compute = stats.elapsed_cycles - stats.memory_stall_cycles
    # a float, as the report writes it, even for a whole number of misses
    per_miss = float(timing.l2_hit_cycles + timing.dram_latency_cycles)
    return compute + per_miss * est_load_misses


def estimate_refreshes(n_valid: int, colors: int, geometry: CacheGeometry,
                       t_cycles: float, config: RefreshConfig) -> int:
    """`controller.select`'s refresh estimate of a candidate: the lines
    refreshed over an interval of t_cycles at the given allocation."""
    per_period = min(n_valid, colors * geometry.lines_per_color)
    periods = int(t_cycles // config.retention_cycles)
    return per_period * periods


def reconfigure_reference(state: CacheState, colors: int,
                          batched: bool = True) -> ReconfigReport:
    """`cache.reconfigure`, planning each pull on its own: the donor is the
    color with the most regions, the lowest index on a tie, found by a
    `max` over every color for each pulled region. `batched` flushes each
    donor once, over all the regions it gave up, as `reconfigure` does;
    otherwise each region is flushed from its donor as soon as it is
    pulled. `reconfigure`'s range checks are left out."""
    g = state.geometry
    m, old = g.color_count, state.active_count
    flushed = writebacks = 0
    for color in range(colors, old):
        f, w = flush_reference(state, color)
        flushed, writebacks = flushed + f, writebacks + w
    orphans = [r for r in range(m) if state.mapping[r] >= colors]
    for rr, region in enumerate(orphans):
        state.mapping[region] = rr % colors
    regions_of = [[r for r in range(m) if state.mapping[r] == c]
                  for c in range(colors)]
    pulled = [[] for _ in range(colors)]
    for color in range(old, colors):
        while len(regions_of[color]) < m // colors:
            donor = max(range(colors), key=lambda c: (len(regions_of[c]), -c))
            if len(regions_of[donor]) <= len(regions_of[color]):
                break
            region = regions_of[donor].pop()  # highest region index
            if batched:
                pulled[donor].append(region)
            else:
                f, w = flush_reference(state, donor, [region])
                flushed, writebacks = flushed + f, writebacks + w
            state.mapping[region] = color
            regions_of[color].append(region)
    for donor, regions in enumerate(pulled):
        if regions:
            f, w = flush_reference(state, donor, regions)
            flushed, writebacks = flushed + f, writebacks + w
    state.active_count = colors
    return ReconfigReport(flushed, writebacks,
                          abs(colors - old) * g.lines_per_color)


def select_reference(stats: IntervalStats, unit: ProfilingUnit,
                     state: CacheState, refresh_config: RefreshConfig,
                     cfg: ControllerConfig, params: EnergyParams,
                     timing: TimingParams) -> Decision:
    """`controller.select`, one candidate at a time:
    `interpolate_reference` at its size, the `IntervalStats` it predicts
    (`estimate_time`, `estimate_refreshes`) and their `interval_energy`
    as a DCR interval."""
    geometry = state.geometry
    m_total = geometry.color_count
    current = state.active_count
    space = candidate_space(current, m_total, cfg)

    points = profiled_points(unit)
    _, full_load = interpolate_reference(points, geometry.size_bytes)
    t_0 = estimate_time(stats, full_load, timing)
    if t_0 <= 0:
        return Decision(current, current, False, [])

    accesses = stats.l2_hits + stats.l2_misses
    if stats.l2_misses > 0:
        wb_ratio = max(0.0, (stats.dram_accesses - stats.l2_misses)
                       / stats.l2_misses)
    else:
        wb_ratio = 0.0

    candidates = []
    for colors in space:
        est_m, est_load = interpolate_reference(
            points, colors * geometry.size_bytes / m_total)
        t_i = estimate_time(stats, est_load, timing)
        d_i = (t_i - t_0) / t_0 * 100.0
        expected = IntervalStats(
            l2_hits=max(accesses - est_m, 0.0),
            l2_misses=est_m,
            refreshed_lines=estimate_refreshes(
                state.n_valid, colors, geometry, t_i, refresh_config),
            dram_accesses=est_m * (1.0 + wb_ratio),
            active_fraction=colors / m_total,
            elapsed_cycles=t_i,
            switched_blocks=abs(colors - current) * geometry.lines_per_color,
            prof_accesses=stats.prof_accesses,
        )
        energy = interval_energy(expected, params, SchemeKind.DCR,
                                 timing.clock_ghz).total
        candidates.append(Candidate(colors, t_i, d_i, energy,
                                    rejected_by_beta=d_i > cfg.beta))

    survivors = [c for c in candidates if not c.rejected_by_beta]
    if survivors:
        best = min(survivors, key=lambda c: (c.est_energy_j, c.colors))
        return Decision(current, best.colors, False, candidates)
    best = min(candidates, key=lambda c: (c.delta_pct, c.colors))
    return Decision(current, best.colors, True, candidates)


def observe_arrays(unit: ProfilingUnit, trace,
                   geometry: CacheGeometry) -> None:
    """Feed a whole trace to a profiling unit through `replay`, on a
    scratch main cache of `geometry`: each record whose block number is a
    multiple of the unit's sampling ratio is looked up at every size."""
    replay(CacheState(geometry), trace, 0, len(trace), bytearray(len(trace)),
           unit)


def observe_reference(unit: ProfilingUnit, trace,
                      geometry: CacheGeometry) -> None:
    """`observe_arrays` one sampled record at a time, with `probe`."""
    blocks = view(trace.addrs) // np.uint64(geometry.block_bytes)
    sampled = blocks % np.uint64(unit.ratio) == 0
    for block, op in zip(blocks[sampled].tolist(),
                         view(trace.ops)[sampled].tolist()):
        probe(unit, block, op == Op.WRITE)


@dataclass
class OracleVerdict:
    ok: bool
    first_divergence: str = ""


def full_profile(arrays, geometry: CacheGeometry, emulated_size: int):
    """Exact (misses, load_misses) of a conventional LRU cache of the given
    size replaying the whole trace: every set, no sampling."""
    ways = geometry.associativity
    num_sets = emulated_size // (geometry.block_bytes * ways)
    assert num_sets >= 1
    sets: list[list[int]] = [[] for _ in range(num_sets)]
    misses = 0
    load_misses = 0
    block_bytes = geometry.block_bytes
    ops = ints(arrays.ops)
    blocks = (view(arrays.addrs) // block_bytes).tolist()
    for i in range(len(blocks)):
        b = blocks[i]
        lst = sets[b % num_sets]
        if b in lst:
            lst.remove(b)
            lst.append(b)
        else:
            misses += 1
            if ops[i] == 0:
                load_misses += 1
            lst.append(b)
            if len(lst) > ways:
                lst.pop(0)
    return misses, load_misses


_profile = None


def compiled_full_profile(arrays, geometry: CacheGeometry, emulated_size: int):
    """`full_profile` in C (lru_oracle.c, built with `edrsim.native`): the
    same counts from a per-way last-use time and an oldest-way victim
    instead of an ordered tag list."""
    global _profile
    if _profile is None:
        lib = native.load(os.path.join(os.path.dirname(__file__),
                                       "lru_oracle.c"))
        _profile = lib.lru_profile
        ptr, i64, c_int = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int
        _profile.argtypes = [ptr, ptr, i64, c_int, i64, c_int, ptr]
        _profile.restype = c_int
    ways = geometry.associativity
    num_sets = emulated_size // (geometry.block_bytes * ways)
    assert num_sets >= 1
    addrs = np.ascontiguousarray(view(arrays.addrs), dtype=np.uint64)
    ops = np.ascontiguousarray(view(arrays.ops), dtype=np.uint8)
    out = np.zeros(2, dtype=np.int64)
    if _profile(addrs.ctypes.data, ops.ctypes.data, len(addrs),
                geometry.block_bytes.bit_length() - 1, num_sets, ways,
                out.ctypes.data):
        raise MemoryError(f"no memory for {num_sets} x {ways} LRU ways")
    misses, load_misses = out.tolist()
    return misses, load_misses


def recompute_energy(stats: IntervalStats, params: EnergyParams,
                     scheme: SchemeKind, ghz: float) -> EnergyBreakdown:
    """Straight-line re-evaluation of the interval energy equations."""
    t = stats.elapsed_cycles / (ghz * 1e9)
    f_a = stats.active_fraction if scheme is SchemeKind.DCR else 1.0
    n_r = 0 if scheme is SchemeKind.SRAM else stats.refreshed_lines
    le_l2 = params.p_leak_l2 * f_a * t
    de_l2 = params.e_dyn_l2_j * (2 * stats.l2_misses + stats.l2_hits)
    re_l2 = n_r * params.e_dyn_l2_j
    e_dram = params.p_leak_dram * t + params.e_dyn_dram_j * stats.dram_accesses
    if scheme is SchemeKind.DCR:
        e_prof = params.p_leak_prof * t + params.e_dyn_prof_j * stats.prof_accesses
        e_algo = params.e_transition_j * stats.switched_blocks + e_prof
    else:
        e_prof = 0.0
        e_algo = 0.0
    total = le_l2 + de_l2 + re_l2 + e_dram + e_algo
    return EnergyBreakdown(le_l2, de_l2, re_l2, e_dram, e_algo, e_prof, total)


def validate_state(state: CacheState,
                   rpv: RpvPhases | None = None) -> OracleVerdict:
    """Full-scan consistency check of a cache state.

    Verifies set occupancy (at most `associativity` distinct tags per set, no
    block in two sets), the n_valid counter (total and per bank), that no
    dirty bit is set on an empty slot, containment (no valid line in an
    inactive color), mapping totality and codomain, and reachability (each
    valid line's region still maps to the color holding it). With `rpv`, it
    also checks that every resident tag, and only those, has a phase, and
    the per-bank-per-phase counts.
    """
    g = state.geometry
    m_total = g.color_count

    if len(state.mapping) != m_total:
        return OracleVerdict(False, f"mapping has {len(state.mapping)} entries, "
                             f"expected {m_total}")
    codomain, active = set(state.mapping), set(range(state.active_count))
    if not codomain <= active:
        return OracleVerdict(False, "mapping targets inactive colors "
                             f"{sorted(codomain - active)}")
    if codomain != active:
        return OracleVerdict(False, "active colors without any region: "
                             f"{sorted(active - codomain)}")

    n_valid = 0
    resident: set[int] = set()
    by_bank = [0] * g.num_banks
    if rpv is not None:
        by_bank_phase = [[0] * rpv.phases for _ in range(g.num_banks)]
    if len(state.fill) != g.total_sets or len(state.tags) != g.total_lines:
        return OracleVerdict(False, "arrays do not match the geometry")
    if min(state.fill) < 0 or max(state.fill) > g.associativity:
        return OracleVerdict(False, f"a set's fill count is outside [0, "
                             f"{g.associativity}]: {min(state.fill)} "
                             f"to {max(state.fill)}")
    slots = np.arange(g.associativity) < view(state.fill)[:, None]
    stale = dirty_bits(state).reshape(-1, g.associativity)[~slots]
    if stale.any():
        return OracleVerdict(False, f"{np.count_nonzero(stale)} dirty bits "
                             "set on empty slots")
    for set_index, tags in enumerate(all_sets(state)):
        color = set_index // g.sets_per_color
        bank = bank_of(g, set_index)
        for tag in tags:
            if tag in resident:
                return OracleVerdict(False, f"tag {tag:#x} resident twice "
                                     f"(again in set {set_index})")
            resident.add(tag)
            n_valid += 1
            by_bank[bank] += 1
            if rpv is not None:
                if tag not in rpv.of_tag:
                    return OracleVerdict(False, f"tag {tag:#x} in set "
                                         f"{set_index} has no phase")
                by_bank_phase[bank][rpv.of_tag[tag]] += 1
            if color >= state.active_count:
                return OracleVerdict(False, f"valid line in inactive color "
                                     f"{color} (set {set_index} tag {tag:#x})")
            # tags are full block numbers, so the region is recoverable
            region = (tag // (g.page_bytes // g.block_bytes)) % m_total
            if state.mapping[region] != color:
                return OracleVerdict(False, f"stale line: region {region} maps "
                                     f"to {state.mapping[region]} but line sits "
                                     f"in color {color}")

    stray = (rpv.of_tag.keys() if rpv is not None else set()) - resident
    if stray:
        return OracleVerdict(False, f"phase entries for non-resident "
                             f"tags {sorted(stray)[:8]}")
    if n_valid != state.n_valid:
        return OracleVerdict(False, f"n_valid counter {state.n_valid}, "
                             f"scan found {n_valid}")
    if by_bank != state.valid_by_bank.tolist():
        return OracleVerdict(False, f"per-bank counters {state.valid_by_bank}, "
                             f"scan found {by_bank}")
    if rpv is not None and by_bank_phase != rpv.by_bank:
        return OracleVerdict(False, "per-bank-phase counters diverge from scan")
    return OracleVerdict(True)


@dataclass
class TimelineVerdict:
    ok: bool
    line: tuple[int, int] | None = None  # (set_index, tag)
    at_cycle: int | None = None
    detail: str = ""


def timeline_oracle(trace, policy: str, config: RefreshConfig,
                    geometry: CacheGeometry,
                    skip_phases=frozenset()) -> TimelineVerdict:
    """Brute-force retention-safety check on a small cache instance.

    Replays the trace against the record-at-a-time cache under the given
    policy while tracking every line's exact charge timestamp (charged on
    install, read, write, and refresh). Reports a violation if any valid
    line's time-since-charge ever exceeds the retention period, whether it
    is next touched, refreshed, evicted or still resident at the end. At
    each refresh boundary the oracle scans the array for the lines the
    policy covers and requires the scan to count the lines the policy's
    counters say are due: every valid line per bank for valid-only, the
    valid lines of the due phase per bank for RPV. skip_phases injects a
    broken polyphase policy for mutation testing.
    """
    if policy not in ("refresh_all", "rpv", "valid_only"):
        raise ValueError(f"unknown policy {policy!r}")
    if geometry.total_sets > 64:
        raise ValueError("timeline oracle is for small instances (<= 64 sets)")

    model = SetLists(CacheState(geometry))
    rpv = RpvPhases(geometry, config) if policy == "rpv" else None
    retention = config.retention_cycles
    boundary_len = config.phase_cycles if policy == "rpv" else retention
    charge: dict[tuple[int, int], int] = {}  # (set_index, tag) -> cycle

    def over_age(key, cycle) -> TimelineVerdict | None:
        t0 = charge.get(key)
        if t0 is not None and cycle - t0 > retention:
            return TimelineVerdict(
                False, line=key, at_cycle=t0 + retention,
                detail=f"line {key} charged at {t0}, still valid at {cycle}")
        return None

    def resident(phase=None):
        return [(set_index, tag) for set_index, tags in enumerate(model.tags)
                for tag in tags
                if phase is None or rpv.of_tag[tag] == phase]

    now = 0
    next_boundary = boundary_len
    for gap, op, addr in zip(ints(trace.gaps), ints(trace.ops),
                             ints(trace.addrs)):
        now += gap
        while next_boundary <= now:
            at = next_boundary
            next_boundary += boundary_len
            if policy == "refresh_all":
                lines = resident()
            elif policy == "valid_only":
                lines = resident()
                assert len(lines) == sum(model.valid_by_bank)
            else:
                phase = rpv.phase_of(at)
                if phase in skip_phases:
                    continue
                lines = resident(phase)
                assert len(lines) == sum(rpv.lines(phase))
            for key in lines:
                bad = over_age(key, at)
                if bad:
                    return bad
                charge[key] = at

        set_index = model.set_of(addr)
        tags = model.tags[set_index]
        oldest = tags[0] if tags else None
        if access_block(model, op == Op.WRITE, addr, rpv, now) & EVICTED:
            # the line the fill pushed out must not have outlived its charge
            bad = over_age((set_index, oldest), now)
            if bad:
                return bad
            del charge[(set_index, oldest)]
        key = (set_index, addr // geometry.block_bytes)
        bad = over_age(key, now)
        if bad:
            return bad
        charge[key] = now
        now += 1

    # every line still valid at the end must be within its retention window
    for key in resident():
        bad = over_age(key, now)
        if bad:
            return bad
    return TimelineVerdict(True)


def age_column(trace, geometry: CacheGeometry) -> list[int | None]:
    """The age each hit of a fixed replay stores in its code byte (RPV's
    input), as the compiled functional pass writes it: `replay_codes` of
    the whole trace on a full-size cache; None for a miss, which stores
    none."""
    codes = replay_codes(CacheState(geometry), trace)
    assert not any(code >> AGE_SHIFT for code in codes if not code & HIT)
    return [code >> AGE_SHIFT if code & HIT else None for code in codes]


def age_mirror(trace, geometry: CacheGeometry) -> list[int | None]:
    """`age_column`, record by record: per set, a list of the blocks it
    holds, least recent first, in which a hit finds its block's age, the
    blocks after it. A hit moves its block to the end, a miss appends its
    own and drops the first of a full set."""
    sets: list[list[int]] = [[] for _ in range(geometry.total_sets)]
    ways = geometry.associativity
    model = SetLists(CacheState(geometry))  # for its set_of
    out = []
    for addr in ints(trace.addrs):
        blocks = sets[model.set_of(addr)]
        block = addr // geometry.block_bytes
        if block in blocks:
            out.append(len(blocks) - 1 - blocks.index(block))
            blocks.remove(block)
        else:
            out.append(None)
            if len(blocks) == ways:
                blocks.pop(0)
        blocks.append(block)
    return out


def reuse_sources(reuse: np.ndarray, widx: np.ndarray) -> np.ndarray:
    """The record whose fresh block each record ends up touching.

    A reused record re-touches the block at slot `widx % filled` of a ring
    of the last 32 blocks: record w % j while the ring is filling
    (j <= 32), else the most recent record before j that is congruent to w
    modulo the ring size. Following those links until they stop changing
    (pointer jumping) reaches a record that drew its own block. The first
    record has nothing to re-touch.
    """
    j = np.arange(len(reuse), dtype=np.int64)
    src = np.where(j <= 32, widx % np.maximum(j, 1), j - 1 - (j - 1 - widx) % 32)
    src = np.where(reuse & (j > 0), src, j)
    while True:
        nxt = src[src]
        if np.array_equal(nxt, src):
            return src
        src = nxt


def generate_reference(spec: SyntheticTraceSpec) -> TraceArrays:
    """`trace.generate_synthetic` in numpy, drawing from numpy's own
    `default_rng`: per phase, the block of every record, then its reuse
    flag, its ring slot and its write flag, each a vector of draws."""
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
        widx = rng.integers(0, 32, size=n, dtype=np.int64)
        writes = rng.random(n) < phase.write_fraction

        blocks = uniform[reuse_sources(reuse, widx)]
        addrs = (blocks.astype(np.uint64) + np.uint64(base_block)) * np.uint64(block)
        gap_chunks.append(gaps)
        op_chunks.append(writes.astype(np.uint8))
        addr_chunks.append(addrs)
    return TraceArrays(gaps=np.concatenate(gap_chunks),
                       ops=np.concatenate(op_chunks),
                       addrs=np.concatenate(addr_chunks))


def reuse_window(uniform, reuse, widx):
    """`generate_reference`'s reuse ring, one record at a time: a reused
    record re-touches the block at slot widx % filled of a ring of the last
    32 blocks."""
    window = [0] * 32
    filled = 0
    wpos = 0
    out = []
    for u, r, w in zip(uniform.tolist(), reuse.tolist(), widx.tolist()):
        b = window[w % filled] if r and filled else u
        out.append(b)
        window[wpos] = b
        wpos = (wpos + 1) % 32
        if filled < 32:
            filled += 1
    return np.array(out, dtype=np.int64)


def reference_run(trace, scheme, geometry, timing, params,
                  warmup_instructions=None, interval_instructions=None
                  ) -> RunReport:
    """`sim.run` one record at a time: access_block, then the profiling
    unit, with due refresh events fired before each access. An event
    refreshes, per bank, every line (baseline), the valid lines (DCR) or the
    valid lines last touched in the due phase (RPV). Same arguments and
    report as `sim.run`."""
    if scheme.energy is not None:
        params = scheme.energy
    total_instr = trace.instructions
    if warmup_instructions is None:
        warmup_instructions = total_instr // 10
    assert 0 <= warmup_instructions < total_instr

    kind = scheme.kind
    is_dcr = kind is SchemeKind.DCR
    refresh_cfg = scheme.refresh
    ctrl_cfg = scheme.controller
    if interval_instructions is None:
        interval_instructions = 10_000_000

    state = CacheState(geometry)
    model = SetLists(state)
    rpv = RpvPhases(geometry, refresh_cfg) if kind is SchemeKind.RPV else None
    unit = (ProfilingUnit(geometry, ctrl_cfg.sampling_ratio_denom)
            if is_dcr else None)
    m_total = geometry.color_count

    if refresh_cfg is None:
        boundary_len = 0
        next_boundary = None
    else:
        boundary_len = (refresh_cfg.phase_cycles
                        if kind is SchemeKind.RPV else refresh_cfg.retention_cycles)
        next_boundary = boundary_len

    num_banks = geometry.num_banks
    bank_busy = [0] * num_banks
    miss_cost = timing.l2_hit_cycles + timing.dram_latency_cycles

    now = 0
    cum_instr = 0
    warmed = warmup_instructions == 0
    interval_start_cycle = 0
    interval_instr = 0
    stats = IntervalStats(active_fraction=state.active_count / m_total)
    intervals = []
    decisions = []

    def fire(at):
        if kind is SchemeKind.BASELINE_EDRAM:
            per_bank = [geometry.total_lines // num_banks] * num_banks
        elif kind is SchemeKind.RPV:
            per_bank = rpv.lines(rpv.phase_of(at))
        else:
            per_bank = list(model.valid_by_bank)
        for b, lines in enumerate(per_bank):
            if lines:
                bank_busy[b] = max(bank_busy[b], at) + lines
        if warmed:
            stats.refreshed_lines += sum(per_bank)

    def close_interval(run_controller):
        nonlocal model, stats, interval_start_cycle, interval_instr
        stats.instructions = interval_instr
        stats.elapsed_cycles = now - interval_start_cycle
        if unit is not None:
            stats.prof_accesses = sum(a for _, _, a in size_counts(unit))
        stats.index = index = len(intervals)
        stats.colors = state.active_count
        stats.energy = interval_energy(stats, params, kind, timing.clock_ghz)
        intervals.append(stats)
        carry_writebacks = carry_switched = 0
        if run_controller:
            model.store()  # the controller reads and remaps the state
            decision = select(stats, unit, state, refresh_cfg, ctrl_cfg,
                              params, timing)
            report = reconfigure(state, decision.chosen)
            model = SetLists(state)
            decision.interval = index
            decision.switched_blocks = report.switched_blocks
            decision.flush_writebacks = report.writebacks
            decisions.append(decision)
            carry_writebacks = report.writebacks
            carry_switched = report.switched_blocks
            unit.reset()
        interval_instr = 0
        interval_start_cycle = now
        stats = IntervalStats(active_fraction=state.active_count / m_total,
                              dram_accesses=carry_writebacks,
                              switched_blocks=carry_switched)

    for gap, op, addr in zip(ints(trace.gaps), ints(trace.ops),
                             ints(trace.addrs)):
        now += round(gap * timing.base_cpi)
        cum_instr += gap
        if warmed:
            interval_instr += gap
        elif cum_instr >= warmup_instructions:
            warmed = True
            interval_start_cycle = now
            stats = IntervalStats(active_fraction=state.active_count / m_total)
            if unit is not None:
                unit.reset()

        is_write = op == Op.WRITE
        bank = bank_of(geometry, model.set_of(addr))
        while True:
            while next_boundary is not None and next_boundary <= now:
                fire(next_boundary)
                next_boundary += boundary_len
            if bank_busy[bank] > now:
                now = bank_busy[bank]
                continue
            break

        code = access_block(model, is_write, addr, rpv, now)
        if code & HIT:
            now += timing.l2_hit_cycles
            if warmed:
                stats.l2_hits += 1
        else:
            now += miss_cost
            if warmed:
                stats.l2_misses += 1
                stats.dram_accesses += 1 + bool(code & DIRTY_VICTIM)
                if not is_write:
                    stats.load_misses += 1
                    stats.memory_stall_cycles += miss_cost
        block = addr // geometry.block_bytes
        if unit is not None and block % unit.ratio == 0:
            probe(unit, block, is_write)

        if warmed and interval_instr >= interval_instructions:
            close_interval(run_controller=is_dcr)

    if warmed and (interval_instr > 0 or stats.l2_hits or stats.l2_misses
                   or stats.refreshed_lines or stats.dram_accesses
                   or stats.switched_blocks):
        close_interval(run_controller=False)

    return RunReport.from_intervals(scheme, warmup_instructions, intervals,
                                    decisions)


def plain(obj):
    """A report as a tree of dicts, lists and JSON scalars: each record as
    the dict of its fields, recursively through lists and dicts, and a
    scheme kind as its value."""
    if isinstance(obj, SchemeKind):
        return obj.value
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, Record):
        return {name: plain(getattr(obj, name)) for name in obj._fields}
    return obj
