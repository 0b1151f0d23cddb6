"""Brute-force reference implementations, used only by the test suite.

These are deliberately plain: full scans and straight-line formula
re-evaluation, O(lines) or O(trace), no shared code with the paths they
check beyond the parameter objects.

`replay` drives the compiled functional pass (`cache.Passes`) over a run
of records. The module also holds a record-at-a-time model of the cache:
`access_block` applies one access to a `CacheState`'s sets held as plain
Python lists (`SetLists`) and returns the code byte `replay` writes,
`probe` looks one block up at each size of a profiling unit, and
`replay_reference` is
`replay` built from the two, record by record in Python: the reference
the compiled kernel is diffed against. `flush_reference` is the compiled
flush of a reconfiguration in numpy, on `view`s of the state's columns.
`reconfigure_reference` plans each pulled region of a reconfiguration by
a `max` over every color, and `select_reference` prices each candidate
through the `IntervalStats` it predicts and `interval_energy`: the
one-at-a-time forms of `reconfigure` and `select`.
`generate_reference` is the synthetic trace generator in numpy, drawing
from numpy's own generator. `RpvPhases` keeps RPV's last-touch phases
and per-bank-per-phase valid counts beside the state. `set_tags` and
`set_dirty` read one set of the flat arrays back as lists. The
charge-timeline oracle checks the refresh counts against its own per-line
charges, and
`reference_run`, the record-at-a-time replay that `sim.run`'s two-stage
replay must match, counts refreshed lines from the same model.

`trace_of` builds a trace from tuples and `replay_codes` drives the real
functional pass, for tests that check the cache itself. `plain` is a report
as the tree of dicts and lists whose `json.dumps` the CLI's writer must
match byte for byte.
"""

import ctypes
import os
from array import array
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from edrsim import cache, native
from edrsim.cache import (DIRTY_VICTIM, EVICTED, HIT, WRITE, CacheGeometry,
                          CacheState, Passes, ReconfigReport, Replay, layout,
                          reconfigure)
from edrsim.controller import (Candidate, ControllerConfig, Decision,
                               candidate_space, select)
from edrsim.energy import (EnergyBreakdown, EnergyParams, SchemeKind,
                           interval_energy)
from edrsim.profiler import (IntervalStats, ProfilingUnit, TimingParams,
                             estimate_refreshes, estimate_time, interpolate,
                             profiled_points)
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


def replay(state: CacheState, addrs, writes, lo: int, hi: int, out: Replay,
           unit=None) -> None:
    """Apply records [lo, hi) to the cache and write their outcomes to `out`.

    `addrs` and `writes` are the trace's columns: byte addresses and write
    flags (a trace's ops, or numpy arrays); [lo, hi) must lie inside them. A record's region
    (page number mod M) picks a color through the mapping, which is fixed
    for the call, and its page offset picks the set inside that color. A
    hit moves the tag to the end of its set's row; a miss into a full set
    evicts the first. The dirty bytes and the valid counters (total and per
    bank) follow, and so do the last-touch indices when `out` has a
    last-touch column. With a profiling `unit`, every block whose number
    is a multiple of its sampling ratio is looked up at each of its sizes,
    which count its accesses, misses and load misses.
    """
    passes = Passes(state.geometry, addrs, out)
    passes.bind_cache(state, writes, unit)
    passes(lo, hi)


def replay_codes(state: CacheState, trace: TraceArrays, lo: int = 0,
                 hi: int | None = None) -> bytes:
    """Apply records [lo, hi) of a trace to `state` with `replay`;
    their code bytes."""
    hi = len(trace) if hi is None else hi
    out = Replay(len(trace))
    replay(state, trace.addrs, trace.ops, lo, hi, out)
    return bytes(out.codes[lo:hi])


def set_tags(state, row: int) -> list[int]:
    """The resident tags of a set of a `CacheState`, or of a row (a sampled
    set) of a `ProfilingUnit`, least recent first."""
    start = row * (len(state.tags) // len(state.fill))
    return state.tags[start:start + state.fill[row]].tolist()


def set_dirty(state: CacheState, row: int) -> list[int]:
    """The dirty bytes of a set's resident tags, in `set_tags` order."""
    start = row * state.geometry.associativity
    return list(state.dirty[start:start + state.fill[row]])


def _store_set(state, row: int, tags: list[int]) -> None:
    start = row * (len(state.tags) // len(state.fill))
    state.tags[start:start + len(tags)] = array("Q", tags)
    state.fill[row] = len(tags)


def all_sets(state) -> list[list[int]]:
    """`set_tags` of every set (or sampled set)."""
    ways = len(state.tags) // len(state.fill)
    tags = state.tags.tolist()
    return [tags[row * ways:row * ways + n]
            for row, n in enumerate(state.fill)]


def dirty_tags(state: CacheState) -> set[int]:
    """The resident tags whose dirty byte is set."""
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
    arrays are stale. The mapping is the state's own list."""

    def __init__(self, state: CacheState):
        g = state.geometry
        self.state = state
        self.mapping = state.mapping
        self.ways, self.block_bytes, self.page_bytes = (
            g.associativity, g.block_bytes, g.page_bytes)
        self.colors, self.sets_per_color, self.sets_per_bank = (
            g.color_count, g.sets_per_color, g.sets_per_bank)
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
            state.tags[start:start + len(tags)] = array("Q", tags)
            state.dirty[start:start + len(tags)] = bytes(dirty)
            state.fill[row] = len(tags)
        state.valid_by_bank[:] = array("q", self.valid_by_bank)
        return state


def access_block(model: SetLists, is_write: bool, address: int,
                 rpv: RpvPhases | None = None, now: int = 0) -> int:
    """Apply one access (LRU probe and fill, dirty and valid bookkeeping,
    and with `rpv` the line's last-touch phase at cycle `now`); returns the
    HIT/EVICTED/DIRTY_VICTIM/WRITE code byte."""
    set_index = model.set_of(address)
    assert set_index // model.sets_per_color < model.state.active_count
    tag = address // model.block_bytes
    tags = model.tags[set_index]
    dirty = model.dirty[set_index]
    bank = set_index // model.sets_per_bank
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


def profiler_overhead_bytes(unit: ProfilingUnit, tag_bits: int = 30) -> float:
    """Storage footprint of a profiling unit: its tags (it stores no
    data)."""
    return len(unit.tags) * tag_bits / 8


def replay_reference(state: CacheState, addrs, writes, lo: int, hi: int,
                     out: Replay, unit=None) -> None:
    """`replay` record by record: `access_block`, then `probe` in the
    profiling unit for a block whose number is a multiple of its sampling
    ratio."""
    assert max(state.mapping) < state.active_count, \
        f"mapping routes regions to inactive color {max(state.mapping)}"
    model = SetLists(state)
    block_bytes = state.geometry.block_bytes
    for i, addr, is_write in zip(range(lo, hi), ints(addrs)[lo:hi],
                                 ints(writes)[lo:hi]):
        out.codes[i] = access_block(model, bool(is_write), addr)
        block = addr // block_bytes
        if unit is not None and not block % unit.ratio:
            probe(unit, block, bool(is_write))
    model.store()


def flush_reference(state: CacheState, color: int,
                    regions=None) -> tuple[int, int]:
    """`cache._flush` in numpy: invalidate the resident lines of a color, or
    only those whose page's region is in `regions`. A stable sort moves the
    survivors of each set to the front of its row in their order, and the
    flushed lines' dirty bytes are cleared. Returns (flushed lines,
    writebacks of dirty ones)."""
    g = state.geometry
    ways = g.associativity
    first = color * g.sets_per_color
    rows = slice(first, first + g.sets_per_color)
    tags = view(state.tags).reshape(-1, ways)[rows]  # views into the state
    dirty = view(state.dirty).reshape(-1, ways)[rows]
    fill = view(state.fill)[rows]
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
        order = np.argsort(gone, axis=1, kind="stable")
        tags[:] = np.take_along_axis(tags, order, axis=1)
        dirty[:] = np.take_along_axis(dirty, order, axis=1)
    fill -= lost.astype(np.int32)
    np.subtract.at(view(state.valid_by_bank),
                   np.arange(first, first + g.sets_per_color) // g.sets_per_bank,
                   lost)
    return flushed, writebacks


def estimate_misses(unit: ProfilingUnit, colors: int,
                    geometry: CacheGeometry) -> tuple[float, float]:
    """The profiling unit's estimated (misses, load misses) for a cache of
    `colors` colors, as `controller.select` interpolates them."""
    m_total = geometry.color_count
    if not 1 <= colors <= m_total:
        raise ValueError(f"colors must be in [1, {m_total}]")
    return interpolate(profiled_points(unit),
                       colors * geometry.size_bytes / m_total)


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
        f, w = cache._flush(state, color)
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
                f, w = cache._flush(state, donor, [region])
                flushed, writebacks = flushed + f, writebacks + w
            state.mapping[region] = color
            regions_of[color].append(region)
    for donor, regions in enumerate(pulled):
        if regions:
            f, w = cache._flush(state, donor, regions)
            flushed, writebacks = flushed + f, writebacks + w
    state.active_count = colors
    state.layout[:] = layout(g, state.mapping)
    return ReconfigReport(flushed, writebacks,
                          abs(colors - old) * g.lines_per_color)


def select_reference(stats: IntervalStats, unit: ProfilingUnit,
                     state: CacheState, refresh_config: RefreshConfig,
                     cfg: ControllerConfig, params: EnergyParams,
                     timing: TimingParams) -> Decision:
    """`controller.select`, one candidate at a time: `estimate_misses` at
    its size, the `IntervalStats` it predicts and their `interval_energy`
    as a DCR interval."""
    geometry = state.geometry
    m_total = geometry.color_count
    current = state.active_count
    space = candidate_space(current, m_total, cfg)

    _, full_load = estimate_misses(unit, m_total, geometry)
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
        est_m, est_load = estimate_misses(unit, colors, geometry)
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
    out = Replay(len(trace))
    replay(CacheState(geometry), trace.addrs, trace.ops, 0, len(trace), out,
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
    dirty byte is set on an empty slot, containment (no valid line in an
    inactive color), mapping totality and codomain, the layout the kernels
    route by (it must follow the mapping), and reachability (each valid
    line's region still maps to the color holding it). With `rpv`, it
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
    if state.layout != layout(g, state.mapping):
        return OracleVerdict(False, "the kernels' layout does not follow "
                             "the mapping")

    n_valid = 0
    resident: set[int] = set()
    by_bank = [0] * g.num_banks
    if rpv is not None:
        by_bank_phase = [[0] * rpv.phases for _ in range(g.num_banks)]
    if len(state.fill) != g.total_sets or len(state.tags) != g.total_lines \
            or len(state.dirty) != g.total_lines:
        return OracleVerdict(False, "arrays do not match the geometry")
    if min(state.fill) < 0 or max(state.fill) > g.associativity:
        return OracleVerdict(False, f"a set's fill count is outside [0, "
                             f"{g.associativity}]: {min(state.fill)} "
                             f"to {max(state.fill)}")
    slots = np.arange(g.associativity) < view(state.fill)[:, None]
    stale = view(state.dirty).reshape(-1, g.associativity)[~slots]
    if stale.any():
        return OracleVerdict(False, f"{np.count_nonzero(stale)} dirty bytes "
                             "set on empty slots")
    for set_index, tags in enumerate(all_sets(state)):
        color = set_index // g.sets_per_color
        bank = set_index // g.sets_per_bank
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


def last_touch_mirror(trace, geometry: CacheGeometry) -> list[int]:
    """The last-touch column of `sim.fixed_replay`, record by record: a
    per-set list of record indices kept in the order of `access_block`'s tag
    list, so a hit or an eviction reads the index of the record that last
    touched its line."""
    model = SetLists(CacheState(geometry))
    mirror: list[list[int]] = [[] for _ in range(geometry.total_sets)]
    out = []
    for i, (op, addr) in enumerate(zip(ints(trace.ops), ints(trace.addrs))):
        set_index = model.set_of(addr)
        before = list(model.tags[set_index])
        indices = mirror[set_index]
        code = access_block(model, op == Op.WRITE, addr)
        if code & HIT:
            out.append(indices.pop(before.index(addr // geometry.block_bytes)))
        elif code & EVICTED:
            out.append(indices.pop(0))
        else:
            out.append(-1)
        indices.append(i)
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

    state = CacheState(geometry, min_colors=ctrl_cfg.c_min if is_dcr else 1)
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
        bank = model.set_of(addr) // model.sets_per_bank
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
    """A report as a tree of dicts, lists and JSON scalars: each dataclass
    as the dict of its fields, recursively through lists and dicts, and a
    scheme kind as its value."""
    if isinstance(obj, SchemeKind):
        return obj.value
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}
    return obj
