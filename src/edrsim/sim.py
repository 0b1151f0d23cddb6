"""Trace replay harness: timing, refresh events, controller intervals, metrics.

The timing model is in-order single-issue: every record costs its instruction
gap times the base CPI, plus the L2 hit latency, plus the DRAM latency on a
miss, a load's or a store's alike: no store buffer hides a store miss. Only
load misses are tallied as memory stall, the share of the time that DCR's
controller re-estimates for each candidate size. Refresh bursts occupy each
bank for one cycle per refreshed line; an access to a busy bank waits for
the burst to finish. Metrics accumulate only after the warm-up window.

A run has two stages, as in gem5's atomic and timing CPUs. The functional
pass decides each record's hit, eviction and dirty victim, its code byte;
the timing pass turns the code into cycles, refresh bursts and bank waits.
Both are one compiled record loop (lru.c's edr_run), which `_trip` binds
in one `passes.Passes` call: the trace, a full-size cache of the trip's
own, a clock and a timer per scheme. The fixed schemes of one
`run_schemes` call (baseline, RPV and SRAM, which never remap) share a
trip: the functional pass does not depend on time, so one trip replays
and times them all, and a sweep's values of one geometry share one
(`cli._sweep_reports`). `run` times any one scheme on a trip of its own,
DCR's with its profiling unit. No code byte is stored: each record's
code is timed in the iteration that makes it.
When DCR runs beside the fixed schemes, a helper thread takes the fixed
trip, its loop and its tallies, while `run` times DCR on the calling
thread: the compiled loop releases the GIL.

Per record the loop counts the gap's instructions, then on every timer
adds its cycles, fires the refresh boundaries due by then and waits out a
burst on the record's bank; it takes the functional pass, tallies the
outcome, and on every timer updates the counters an event reads (DCR's
valid lines per bank; RPV's valid lines per bank and last-touch phase)
and adds the hit or miss latency. The schemes share the records, their
outcomes, the warm-up and the interval closes, which depend on
instructions only, so one clock, the last members of the trip's
`struct run`, holds those tallies for all of them; a timer holds its
scheme's cycle, refresh boundaries, bank timers, counters, the cycle its
tallies started at and the tally of refreshed lines. A scheme with
refresh has a boundary every `phase_cycles` of its `RefreshConfig` and
`phases` counters per bank; baseline and DCR take one phase. RPV keeps
the phase of each line slot, a byte per line (`RefreshConfig` holds the
phases to 256), each set's most recent first, and replays on them the LRU
move that each code gives: a hit's holds the line's age, its slot in that
order. The loop itself finds where warm-up ends, restarting the tallies
there, and stops after a record that closes an interval. The clock and
the timers carry from one call to the next; at each stop `Passes.take`
reads and restarts all their tallies at once, and `_time` turns them
into each scheme's interval and lets DCR's controller act. DCR's
records find their sets through the cache's own layout, which a
reconfiguration rewrites, so the next call follows the new mapping.
"""

import threading

from .cache import CacheGeometry, CacheState, reconfigure
from .controller import Decision, select
from .energy import EnergyParams, SchemeKind, interval_energy
from .passes import Passes
from .profiler import IntervalStats, ProfilingUnit, TimingParams
from .record import Record
from .scheme import RunReport, SchemeConfigError, SchemeSpec, check_run
from .trace import TraceArrays


def run(trace: TraceArrays, scheme: SchemeSpec, geometry: CacheGeometry,
        timing: TimingParams, params: EnergyParams,
        warmup_instructions: int | None = None,
        interval_instructions: int | None = None) -> RunReport:
    """Simulate a trace under one scheme, on a `_trip` of its own, and
    return the full report. DCR's trip stops at each interval's end, so
    each interval sees the mapping the controller left. Unless given, the
    warm-up is a tenth of the trace, and an interval is 10,000,000
    instructions for every scheme.
    """
    taken = check_run(trace, scheme, geometry, timing, warmup_instructions,
                      interval_instructions)
    return _time([scheme], _trip(trace, [scheme], geometry, timing, *taken),
                 geometry, timing, params, *taken)[0]


def _trip(trace: TraceArrays, schemes: list[SchemeSpec],
          geometry: CacheGeometry, timing: TimingParams,
          warmup_instructions: int, interval_instructions: int):
    """One timed trip of `schemes` through the trace, bound by one
    `Passes` on a new full-size cache of its own, with a timer each: the
    schemes that never remap, or one DCR scheme alone, with its profiling
    unit. Returns the cache, the unit (None without DCR) and the trip's
    stops: a generator, not yet started, that takes the records up to
    each stop and yields `Passes.take`: the clock's tallies and each
    timer's. The checks of `check_run` have passed."""
    dcr = schemes[0].controller  # None but for DCR
    n = len(trace)
    state = CacheState(geometry, dcr.c_min if dcr else 1)
    unit = dcr and ProfilingUnit(geometry, dcr.sampling_ratio_denom)
    passes = Passes(state, trace, unit, schemes, timing, warmup_instructions,
                    interval_instructions)

    def stops():
        lo = 0
        while True:
            # up to the record that closes an interval, or to the end
            lo = passes(lo, n)
            taken = passes.take()
            yield taken
            if lo == n and taken[0][0] < interval_instructions:
                return
    return state, unit, stops()


def _time(schemes: list[SchemeSpec], trip, geometry: CacheGeometry,
          timing: TimingParams, params: EnergyParams,
          warmup_instructions: int,
          interval_instructions: int) -> list[RunReport]:
    """The reports of `schemes`, in order, from the cache, the unit and the
    stops of their `_trip` (or a list of the stops it yielded): each
    stop's tallies become an interval of each scheme, and the controller
    of a DCR scheme acts at each close, before its trip goes on.
    """
    state, unit, stops = trip
    dcr = schemes[0] if unit is not None else None
    m_total = geometry.color_count
    miss_cost = timing.l2_hit_cycles + timing.dram_latency_cycles
    carry_writebacks = carry_switched = 0
    active_fraction = 1.0
    intervals: list[list[IntervalStats]] = [[] for _ in schemes]
    decisions: list[Decision] = []
    for (instructions, hits, misses, writebacks, load_misses), timers in stops:
        closes = instructions >= interval_instructions
        for scheme, (cycles, refreshed), kept in zip(schemes, timers,
                                                     intervals):
            stats = IntervalStats(
                instructions=instructions,
                l2_hits=hits, l2_misses=misses, load_misses=load_misses,
                memory_stall_cycles=load_misses * miss_cost,
                refreshed_lines=refreshed,
                dram_accesses=carry_writebacks + misses + writebacks,
                active_fraction=active_fraction,
                elapsed_cycles=cycles,
                switched_blocks=carry_switched)
            # the interval after the last close is kept if anything
            # happened in it: a close on the last record leaves one of no
            # instructions, which pays for what that decision switched and
            # flushed
            if not (closes or instructions or hits or misses or refreshed
                    or stats.dram_accesses or carry_switched):
                continue
            stats.index = len(kept)
            stats.colors = state.active_count
            if dcr is not None:  # every size's accesses
                stats.prof_accesses = sum(unit.counts[2::3])
            stats.energy = interval_energy(stats, scheme.energy or params,
                                           scheme.kind, timing.clock_ghz)
            kept.append(stats)
        carry_writebacks = carry_switched = 0
        if dcr is not None:
            if closes:
                # the controller acts on DCR's interval, the only one; the
                # next interval pays for what its decision flushed and
                # switched
                decision = select(stats, unit, state, dcr.refresh,
                                  dcr.controller, dcr.energy or params,
                                  timing)
                report = reconfigure(state, decision.chosen)
                decision.interval = stats.index
                decision.switched_blocks = carry_switched = \
                    report.switched_blocks
                decision.flush_writebacks = carry_writebacks = \
                    report.writebacks
                decisions.append(decision)
                unit.reset()
            active_fraction = state.active_count / m_total

    return [RunReport.from_intervals(scheme, warmup_instructions, kept,
                                     decisions)
            for scheme, kept in zip(schemes, intervals)]


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


def run_schemes(trace: TraceArrays, schemes: list[SchemeSpec],
                geometry: CacheGeometry, timing: TimingParams,
                params: EnergyParams, warmup_instructions: int | None = None,
                interval_instructions: int | None = None) -> list[RunReport]:
    """`run` every scheme on the same trace; the reports in scheme order.

    Every scheme is checked first, in order, so the first invalid one
    raises its own error before any record is replayed. The schemes that
    never remap are then timed together, on one `_trip` with a timer each,
    bound here: on a helper thread while this thread `run`s each DCR
    scheme, if any (the compiled loop releases the GIL, and the trips
    share only the trace, which neither writes), else here. The helper
    runs only the loop and the reads of its tallies; the intervals are
    built here.
    """
    for scheme in schemes:
        # the warm-up and interval a run takes, the same for every scheme
        taken = check_run(trace, scheme, geometry, timing,
                          warmup_instructions, interval_instructions)
    fixed = [i for i, s in enumerate(schemes) if s.kind is not SchemeKind.DCR]
    group = [schemes[i] for i in fixed]
    helper, failed = None, []
    if group:
        state, unit, stops = trip = _trip(trace, group, geometry, timing,
                                          *taken)
        if len(group) < len(schemes):
            done = []

            def take():
                try:
                    done.extend(stops)
                except BaseException as exc:
                    failed.append(exc)

            helper = threading.Thread(target=take)
            helper.start()
            trip = state, unit, done
    try:
        reports = {i: run(trace, scheme, geometry, timing, params, *taken)
                   for i, scheme in enumerate(schemes) if i not in fixed}
    finally:
        if helper is not None:
            helper.join()
    if failed:
        raise failed[0]
    if group:
        reports.update(zip(fixed, _time(group, trip, geometry, timing,
                                        params, *taken)))
    return [reports[i] for i in range(len(schemes))]


def check_compare(schemes: list[SchemeSpec]) -> int:
    """The index of the schemes' reference in `compare`, the first of the
    baseline-eDRAM kind. Raises SchemeConfigError unless there are at
    least 2 schemes, uniquely named, and a baseline among them."""
    names = [s.name for s in schemes]
    if len(set(names)) != len(names):
        raise SchemeConfigError("scheme names must be unique")
    baseline_idx = next((i for i, s in enumerate(schemes)
                         if s.kind is SchemeKind.BASELINE_EDRAM), None)
    if baseline_idx is None or len(schemes) < 2:
        raise SchemeConfigError("compare needs >= 2 schemes including the baseline")
    return baseline_idx


def compare(trace: TraceArrays, schemes: list[SchemeSpec], geometry: CacheGeometry,
            timing: TimingParams, params: EnergyParams,
            warmup_instructions: int | None = None,
            interval_instructions: int | None = None) -> ComparisonReport:
    """`run_schemes` on the same trace and report metrics vs the baseline.

    The first scheme with the baseline-eDRAM kind is the reference; every
    other scheme gets a comparison row (see `check_compare`).
    """
    baseline_idx = check_compare(schemes)
    reports = run_schemes(trace, schemes, geometry, timing, params,
                          warmup_instructions, interval_instructions)
    base = reports[baseline_idx]
    rows = [comparison_row(base, rep) for i, rep in enumerate(reports)
            if i != baseline_idx]
    return ComparisonReport(base.scheme, base, rows,
                            {r.scheme: r for r in reports})
