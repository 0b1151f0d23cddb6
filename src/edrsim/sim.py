"""Trace replay harness: timing, refresh events, controller intervals, metrics.

The timing model is in-order single-issue: every record costs its instruction
gap times the base CPI, plus the L2 hit latency, plus the DRAM latency on a
miss, a load's or a store's alike: no store buffer hides a store miss. Only
load misses are tallied as memory stall, the share of the time that DCR's
controller re-estimates for each candidate size. Refresh bursts occupy each
bank for one cycle per refreshed line; an access to a busy bank waits for
the burst to finish. Metrics accumulate only after the warm-up window.

A run has two stages, as in gem5's atomic and timing CPUs. The functional
pass decides each record's hit, eviction and dirty victim and writes them
to a code byte per record; the timing pass turns the codes into cycles,
refresh bursts and bank waits. The functional pass does not depend on
time, so baseline, RPV and SRAM share one: `fixed_replay` builds it, with
RPV's last-touch column, and keeps it for the next run on the same trace
and geometry. DCR replays each interval only after the controller has
acted on the previous one.

Both passes are one compiled record loop (lru.c's edr_run), which `run`
binds once (`cache.Passes`), DCR with the functional pass and the others
with the codes of their fixed replay. Per record it counts the gap's
instructions and cycles, fires the refresh boundaries due by then, waits
out a burst on the record's bank, takes the functional pass or reads the
code, updates the counters an event reads (DCR's valid lines per bank;
RPV's valid lines per bank and last-touch phase), adds the hit or miss
latency and tallies the outcome. The loop itself finds where warm-up ends,
restarting its tallies there, and stops after a record that closes an
interval. Its clock, bank timers and counters carry from one call to the
next; `run` reads each interval's tallies and lets DCR's controller act.
DCR's records find their sets through the cache's own layout, which a
reconfiguration rewrites, so the next call follows the new mapping.
"""

import weakref
from array import array

from . import cache as _cache
from .cache import CacheGeometry, CacheState, Replay, reconfigure, zeros
from .controller import ControllerConfig, Decision, candidate_space, select
from .energy import EnergyBreakdown, EnergyParams, SchemeKind, interval_energy
from .profiler import IntervalStats, ProfilingUnit, TimingParams, sampled_rows
from .record import Record
from .refresh import RefreshConfig
from .trace import TraceArrays


class SchemeConfigError(ValueError):
    pass


class SchemeSpec(Record):
    def __init__(self, kind: SchemeKind, refresh: RefreshConfig | None = None,
                 controller: ControllerConfig | None = None,
                 energy: EnergyParams | None = None, name: str = ""):
        self.kind = kind
        self.refresh = refresh
        self.controller = controller
        self.energy = energy  # falls back to the run's shared params
        self.name = name or kind.value
        if kind is SchemeKind.SRAM:
            if refresh is not None:
                raise SchemeConfigError("SRAM scheme takes no refresh config")
        elif refresh is None:
            raise SchemeConfigError(f"{kind.value} scheme needs a refresh config")
        if kind is SchemeKind.DCR:
            if controller is None:
                raise SchemeConfigError("DCR scheme needs a controller config")
        elif controller is not None:
            raise SchemeConfigError(
                f"{kind.value} scheme must not carry a controller config")
        if kind in (SchemeKind.BASELINE_EDRAM, SchemeKind.DCR):
            if refresh.phases != 1:
                raise SchemeConfigError(
                    f"{kind.value} scheme uses whole-period refresh (phases=1)")


class RunReport(Record):
    def __init__(self, scheme: str, kind: SchemeKind, warmup_instructions: int,
                 instructions: int, total_cycles: int, total_energy_j: float,
                 energy_components: dict, rpki: float, mpki: float,
                 active_ratio_pct: float, total_refreshed_lines: int,
                 total_l2_hits: int, total_l2_misses: int,
                 intervals: list[IntervalStats], decisions: list[Decision]):
        self.scheme = scheme
        self.kind = kind
        self.warmup_instructions = warmup_instructions
        self.instructions = instructions
        self.total_cycles = total_cycles
        self.total_energy_j = total_energy_j
        self.energy_components = energy_components
        self.rpki = rpki
        self.mpki = mpki
        self.active_ratio_pct = active_ratio_pct
        self.total_refreshed_lines = total_refreshed_lines
        self.total_l2_hits = total_l2_hits
        self.total_l2_misses = total_l2_misses
        self.intervals = intervals
        self.decisions = decisions

    @classmethod
    def from_intervals(cls, scheme: SchemeSpec, warmup_instructions: int,
                       intervals: list[IntervalStats],
                       decisions: list[Decision]) -> "RunReport":
        """The run totals of a scheme's closed intervals."""
        instructions = sum(iv.instructions for iv in intervals)
        total_cycles = sum(iv.elapsed_cycles for iv in intervals)
        total_refreshed = sum(iv.refreshed_lines for iv in intervals)
        total_hits = sum(iv.l2_hits for iv in intervals)
        total_misses = sum(iv.l2_misses for iv in intervals)
        components = {name: sum(getattr(iv.energy, name) for iv in intervals)
                      for name in EnergyBreakdown._fields if name != "total"}
        total_energy = sum(iv.energy.total for iv in intervals)
        kilo = instructions / 1000.0 if instructions else 1.0
        if total_cycles:
            active_ratio = 100.0 * sum(
                iv.active_fraction * iv.elapsed_cycles
                for iv in intervals) / total_cycles
        else:
            active_ratio = 100.0

        return cls(
            scheme=scheme.name,
            kind=scheme.kind,
            warmup_instructions=warmup_instructions,
            instructions=instructions,
            total_cycles=total_cycles,
            total_energy_j=total_energy,
            energy_components=components,
            rpki=total_refreshed / kilo,
            mpki=total_misses / kilo,
            active_ratio_pct=active_ratio,
            total_refreshed_lines=total_refreshed,
            total_l2_hits=total_hits,
            total_l2_misses=total_misses,
            intervals=intervals,
            decisions=decisions,
        )


def check_scheme(scheme: SchemeSpec, geometry: CacheGeometry) -> None:
    """Reject a scheme that cannot run on this geometry, before any record:
    a refresh burst longer than the retention period, which would hold its
    bank forever; a DCR c_min above the colors; no candidate at the first
    decision, from the full size (each later allocation is a candidate); a
    profiling unit that cannot sample 1 set in sampling_ratio_denom."""
    if scheme.refresh is not None:
        lines = geometry.total_lines // geometry.num_banks
        period = scheme.refresh.retention_cycles
        if lines >= period:
            raise SchemeConfigError(
                f"{scheme.name}: refreshing a bank of {lines} lines takes "
                f"{lines} cycles, which does not fit in the {period}-cycle "
                f"retention period")
    cfg = scheme.controller
    if cfg is None:
        return
    m_total = geometry.color_count
    if cfg.c_min > m_total:
        raise SchemeConfigError(
            f"{scheme.name}: c_min {cfg.c_min} exceeds the {m_total} colors "
            f"of a {geometry.size_bytes // 1024} KB cache")
    if not candidate_space(m_total, m_total, cfg):
        raise SchemeConfigError(
            f"{scheme.name}: no multiple of granularity {cfg.granularity} "
            f"lies in [{max(cfg.c_min, m_total - cfg.delta)}, {m_total}], "
            f"the candidates of the full-size cache")
    try:
        sampled_rows(geometry, cfg.sampling_ratio_denom)
    except ValueError as exc:
        raise SchemeConfigError(f"{scheme.name}: {exc}") from None


# slots of the timing pass's clock (lru.c's struct clock): the cycle, the
# next refresh boundary, the boundary length, the current phase, the
# instructions that end warm-up and those that close an interval, then the
# tallies: instructions, cycles, refreshed lines, hits, misses, dirty
# victims and load misses
_INSTRUCTIONS = 6
_NO_TALLIES = zeros("q", 7)

# the last fixed replay built: (a weak reference to its trace, its
# geometry, the replay)
_kept = None


def _drop_kept(trace_ref) -> None:
    global _kept
    if _kept is not None and _kept[0] is trace_ref:
        _kept = None


def fixed_replay(trace: TraceArrays, geometry: CacheGeometry) -> Replay:
    """The functional pass of a scheme that never remaps the cache.

    Baseline, RPV and SRAM see the same hits, misses and evictions, so they
    share one replay of the trace on a full-size cache, with RPV's
    last-touch column (int32, so at most 2**31 - 1 records). The last
    replay built is kept and returned again for the same trace object and
    an equal geometry, until that trace is freed; any other call drops it
    before building a new one, so at most one is alive. A trace's columns
    must not change once it has been replayed.
    """
    global _kept
    if _kept is not None and _kept[0]() is trace and _kept[1] == geometry:
        return _kept[2]
    _kept = None
    n = len(trace)
    if n >= 1 << 31:
        raise ValueError(f"a last-touch column indexes at most 2**31 - 1 "
                         f"records with int32, not {n}")
    out = Replay(n)
    out.last_touch = zeros("i", n)
    passes = _cache.Passes(geometry, trace.addrs, out)
    passes.bind_cache(CacheState(geometry), trace.ops)
    passes(0, n)
    _kept = (weakref.ref(trace, _drop_kept), geometry, out)
    return out


def _close_interval(intervals, decisions, stats, colors, scheme, params,
                    timing, state, unit, run_controller) -> tuple[int, int]:
    """Record a finished interval and, for DCR, let the controller act.

    Returns the flush writebacks and switched blocks the next interval pays.
    """
    stats.index = index = len(intervals)
    stats.colors = colors
    if unit is not None:
        stats.prof_accesses = sum(unit.counts[2::3])  # every size's accesses
    stats.energy = interval_energy(stats, params, scheme.kind,
                                   timing.clock_ghz)
    intervals.append(stats)
    if not run_controller:
        return 0, 0
    decision = select(stats, unit, state, scheme.refresh, scheme.controller,
                      params, timing)
    report = reconfigure(state, decision.chosen)
    decision.interval = index
    decision.switched_blocks = report.switched_blocks
    decision.flush_writebacks = report.writebacks
    decisions.append(decision)
    unit.reset()
    return report.writebacks, report.switched_blocks


def run(trace: TraceArrays, scheme: SchemeSpec, geometry: CacheGeometry,
        timing: TimingParams, params: EnergyParams,
        warmup_instructions: int | None = None,
        interval_instructions: int | None = None) -> RunReport:
    """Replay a trace under one scheme and return the full report.

    A scheme that never remaps (baseline, RPV, SRAM) times the columns of
    the `fixed_replay` of this trace and geometry, which successive runs on
    them share. DCR replays the trace itself, one interval at a time, so
    each interval sees the mapping the controller left. Unless given, the
    warm-up is a tenth of the trace, and an interval is 10,000,000
    instructions for every scheme.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    if scheme.energy is not None:
        params = scheme.energy
    check_scheme(scheme, geometry)

    total_instr = trace.instructions
    if warmup_instructions is None:
        warmup_instructions = total_instr // 10
    if not 0 <= warmup_instructions < total_instr:
        raise ValueError(f"warm-up of {warmup_instructions} instructions must "
                         f"be >= 0 and shorter than the trace")

    kind = scheme.kind
    is_dcr = kind is SchemeKind.DCR
    is_rpv = kind is SchemeKind.RPV
    refresh_cfg = scheme.refresh
    ctrl_cfg = scheme.controller
    if interval_instructions is None:
        interval_instructions = 10_000_000
    if not 1 <= interval_instructions < 1 << 63:
        raise ValueError("interval_instructions must be >= 1 and below 2**63")

    n = len(trace)
    # the kernel's int64 clock stays below 2**62, a run's boundary without
    # refresh: per record, it gains the gap in cycles (rounded), a latency
    # and a wait on a refresh burst, which holds a bank for at most its lines
    wait = geometry.total_lines // geometry.num_banks if refresh_cfg else 0
    if total_instr * timing.base_cpi + n * (1 + timing.l2_hit_cycles
                                            + timing.dram_latency_cycles
                                            + wait) >= 1 << 62:
        raise ValueError(f"{total_instr} instructions at base_cpi "
                         f"{timing.base_cpi} could take 2**62 cycles or more")
    m_total = geometry.color_count
    if is_dcr:
        state = CacheState(geometry, min_colors=ctrl_cfg.c_min)
        unit = ProfilingUnit(geometry, ctrl_cfg.sampling_ratio_denom)
        replay = Replay(n)
    else:
        state = unit = None
        replay = fixed_replay(trace, geometry)

    num_banks = geometry.num_banks
    if refresh_cfg is None:
        boundary_len = 0
        next_boundary = 1 << 62  # never
    else:
        boundary_len = (refresh_cfg.phase_cycles if is_rpv
                        else refresh_cfg.retention_cycles)
        next_boundary = boundary_len
    clock = array("q", [0, next_boundary, boundary_len, 0,
                        warmup_instructions, interval_instructions,
                        0, 0, 0, 0, 0, 0, 0])
    bank_busy = zeros("q", num_banks)
    # the lines a refresh event covers in each bank, at bank * phases +
    # phase: every line for the baseline, DCR's valid lines, RPV's valid
    # lines by last-touch phase
    k_phases = refresh_cfg.phases if is_rpv else 1
    if is_dcr:
        counts = state.valid_by_bank
    elif kind is SchemeKind.BASELINE_EDRAM:
        counts = array("q", [geometry.total_lines // num_banks]) * num_banks
    else:
        counts = zeros("q", num_banks * k_phases)

    hit_cycles = timing.l2_hit_cycles
    miss_cost = hit_cycles + timing.dram_latency_cycles
    passes = _cache.Passes(geometry, trace.addrs, replay)
    if is_dcr:
        passes.bind_cache(state, trace.ops, unit)
    # RPV times a copy of the last-touch column, which the pass overwrites
    # with phases
    passes.bind_timing(trace.gaps, clock, bank_busy, counts,
                       replay.last_touch[:] if is_rpv else None,
                       timing.base_cpi, hit_cycles, miss_cost, k_phases)

    carry_writebacks = carry_switched = 0
    active_fraction = 1.0
    intervals: list[IntervalStats] = []
    decisions: list[Decision] = []
    lo = 0
    while True:
        # up to the record that closes an interval, or to the end
        lo = passes(lo, n)
        instructions, cycles, refreshed, hits, misses, writebacks, \
            load_misses = clock[_INSTRUCTIONS:].tolist()
        clock[_INSTRUCTIONS:] = _NO_TALLIES
        closes = instructions >= interval_instructions
        stats = IntervalStats(
            instructions=instructions,
            l2_hits=hits, l2_misses=misses, load_misses=load_misses,
            memory_stall_cycles=load_misses * miss_cost,
            refreshed_lines=refreshed,
            dram_accesses=carry_writebacks + misses + writebacks,
            active_fraction=active_fraction,
            elapsed_cycles=cycles,
            switched_blocks=carry_switched)
        # the interval after the last close is kept if anything happened
        # in it: a close on the last record leaves one of no instructions,
        # which pays for what that decision switched and flushed
        if closes or (instructions or hits or misses or refreshed
                      or stats.dram_accesses or carry_switched):
            colors = state.active_count if is_dcr else m_total
            carry_writebacks, carry_switched = _close_interval(
                intervals, decisions, stats, colors, scheme, params,
                timing, state, unit,
                run_controller=is_dcr and closes)
        if is_dcr:
            active_fraction = state.active_count / m_total
        if lo == n and not closes:
            break

    return RunReport.from_intervals(scheme, warmup_instructions, intervals,
                                    decisions)


class ComparisonRow(Record):
    """One scheme against the baseline; the fields after `kind` are in the
    column order of comparison.csv and sweep.csv."""

    def __init__(self, scheme: str, kind: SchemeKind, pct_energy_saved: float,
                 pct_perf_improvement: float, delta_rpki: float,
                 delta_mpki: float, active_ratio_pct: float, rpki: float,
                 mpki: float, total_energy_j: float):
        self.scheme = scheme
        self.kind = kind
        self.pct_energy_saved = pct_energy_saved
        self.pct_perf_improvement = pct_perf_improvement
        self.delta_rpki = delta_rpki
        self.delta_mpki = delta_mpki
        self.active_ratio_pct = active_ratio_pct
        self.rpki = rpki
        self.mpki = mpki
        self.total_energy_j = total_energy_j


def comparison_row(base: RunReport, rep: RunReport) -> ComparisonRow:
    """rep's metrics relative to base; base against itself gives 0.0 deltas.
    A base of no energy has no saving to be a percentage of."""
    if not base.total_energy_j > 0:
        raise SchemeConfigError(
            f"baseline {base.scheme} uses {base.total_energy_j} J; energy "
            f"saved is a percentage of it, so it must be > 0")
    return ComparisonRow(
        scheme=rep.scheme,
        kind=rep.kind,
        pct_energy_saved=(base.total_energy_j - rep.total_energy_j)
        / base.total_energy_j * 100.0,
        pct_perf_improvement=(base.total_cycles - rep.total_cycles)
        / base.total_cycles * 100.0,
        delta_rpki=base.rpki - rep.rpki,
        delta_mpki=rep.mpki - base.mpki,
        active_ratio_pct=rep.active_ratio_pct,
        rpki=rep.rpki,
        mpki=rep.mpki,
        total_energy_j=rep.total_energy_j,
    )


class ComparisonReport(Record):
    def __init__(self, baseline_name: str, baseline: RunReport,
                 rows: list[ComparisonRow], reports: dict[str, RunReport]):
        self.baseline_name = baseline_name
        self.baseline = baseline
        self.rows = rows
        self.reports = reports

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline_name,
            "baseline_total_energy_j": self.baseline.total_energy_j,
            "baseline_total_cycles": self.baseline.total_cycles,
            "baseline_rpki": self.baseline.rpki,
            "baseline_mpki": self.baseline.mpki,
            "rows": self.rows,
        }


def compare(trace: TraceArrays, schemes: list[SchemeSpec], geometry: CacheGeometry,
            timing: TimingParams, params: EnergyParams,
            warmup_instructions: int | None = None,
            interval_instructions: int | None = None) -> ComparisonReport:
    """`run` every scheme on the same trace and report metrics vs the
    baseline.

    The first scheme with the baseline-eDRAM kind is the reference; every
    other scheme gets a comparison row.
    """
    names = [s.name for s in schemes]
    if len(set(names)) != len(names):
        raise SchemeConfigError("scheme names must be unique")
    baseline_idx = next((i for i, s in enumerate(schemes)
                         if s.kind is SchemeKind.BASELINE_EDRAM), None)
    if baseline_idx is None or len(schemes) < 2:
        raise SchemeConfigError("compare needs >= 2 schemes including the baseline")

    reports = [run(trace, spec, geometry, timing, params, warmup_instructions,
                   interval_instructions) for spec in schemes]
    base = reports[baseline_idx]
    rows = [comparison_row(base, rep) for i, rep in enumerate(reports)
            if i != baseline_idx]
    return ComparisonReport(base.scheme, base, rows,
                            {r.scheme: r for r in reports})
