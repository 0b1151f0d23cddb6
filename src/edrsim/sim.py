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
time, so baseline, RPV and SRAM share one, the fixed replay, one per
geometry. `run_schemes` builds it and keeps it on the trace
(`TraceArrays.fixed_replay`) for the next call with an equal geometry.
DCR replays each interval only after the controller has acted on the
previous one, and times each record as it replays it, so it stores no
codes. When DCR runs beside the fixed schemes, a helper thread takes the
fixed replay's functional pass while DCR runs on the calling thread: the
compiled loop releases the GIL.

Both passes are one compiled record loop (lru.c's edr_run), which `_time`
binds once (`passes.Passes`) with a timer per scheme: DCR alone, with the
functional pass, and the fixed schemes of one `run_schemes` call
together, on the codes of their fixed replay, so one trip times them all;
`run` of one fixed scheme is that trip with one timer. Per record the
loop counts the gap's instructions, then on every timer adds its cycles,
fires the refresh boundaries due by then and waits out a burst on the
record's bank; it takes the functional pass or reads the code, tallies
the outcome, and on every timer updates the counters an event reads
(DCR's valid lines per bank; RPV's valid lines per bank and last-touch
phase) and adds the hit or miss latency. The schemes share the records,
their outcomes, the warm-up and the interval closes, which depend on
instructions only, so one clock holds those tallies for all of them; a
timer holds its scheme's cycle, refresh boundaries, bank timers,
counters and the tallies of cycles and refreshed lines. A scheme with
refresh has a boundary every `phase_cycles` of its `RefreshConfig` and
`phases` counters per bank; baseline and DCR take one phase. RPV keeps
the phase of each line slot, a byte per line (`RefreshConfig` holds the
phases to 256), each set's most recent first, and replays on them the LRU
move that each code gives: a hit's holds the line's age, its slot in that
order. The kept replay is never written. The loop itself finds where
warm-up ends, restarting the tallies there, and stops after a record that
closes an interval. The clock and the timers carry from one call to the
next; `_time` reads each interval's tallies, builds each scheme's
interval and lets DCR's controller act. DCR's records find their sets
through the cache's own layout, which a reconfiguration rewrites, so the
next call follows the new mapping.
"""

import threading
from array import array

from .cache import CacheGeometry, CacheState, Replay, reconfigure, zeros
from .controller import Decision, select
from .energy import EnergyParams, SchemeKind, interval_energy
from .passes import Passes
from .profiler import IntervalStats, ProfilingUnit, TimingParams
from .record import Record
from .scheme import RunReport, SchemeConfigError, SchemeSpec, check_run
from .trace import TraceArrays


def _fixed_pass(trace: TraceArrays, geometry: CacheGeometry):
    """The functional pass of a new fixed replay of the trace (its `out`),
    bound on a full-size cache of its own but not yet taken; None if the
    trace keeps one of an equal geometry. The kept one is dropped first,
    so a trace holds at most one. A trace's columns must not change once
    it has been replayed."""
    if trace.fixed_replay is not None and trace.fixed_replay[0] == geometry:
        return None
    trace.fixed_replay = None
    passes = Passes(geometry, trace.addrs, Replay(len(trace)))
    passes.bind_cache(CacheState(geometry), trace.ops)
    return passes


def run(trace: TraceArrays, scheme: SchemeSpec, geometry: CacheGeometry,
        timing: TimingParams, params: EnergyParams,
        warmup_instructions: int | None = None,
        interval_instructions: int | None = None) -> RunReport:
    """Replay a trace under one scheme and return the full report.

    A scheme that never remaps (baseline, RPV, SRAM) is `run_schemes` of
    that scheme alone: it times the fixed replay the trace keeps, built
    there if none serves. DCR replays the trace itself, one interval at a
    time, so each interval sees the mapping the controller left. Unless
    given, the warm-up is a tenth of the trace, and an interval is
    10,000,000 instructions for every scheme.
    """
    if scheme.kind is not SchemeKind.DCR:
        return run_schemes(trace, [scheme], geometry, timing, params,
                           warmup_instructions, interval_instructions)[0]
    warmup_instructions, interval_instructions = check_run(
        trace, scheme, geometry, timing, warmup_instructions,
        interval_instructions)
    return _time(trace, [scheme], geometry, timing, params,
                 warmup_instructions, interval_instructions)[0]


def _time(trace: TraceArrays, schemes: list[SchemeSpec],
          geometry: CacheGeometry, timing: TimingParams,
          params: EnergyParams, warmup_instructions: int,
          interval_instructions: int,
          replay: Replay | None = None) -> list[RunReport]:
    """The reports of `schemes`, in order, timed on one trip through the
    trace with a timer each: the schemes that never remap, on the codes of
    their fixed `replay`, or one DCR scheme alone, which replays the trace
    into a cache of its own, storing no codes, and lets its controller act
    at each close. The checks of `check_run` have passed.
    """
    dcr = schemes[0] if schemes[0].kind is SchemeKind.DCR else None
    n = len(trace)
    m_total = geometry.color_count
    hit_cycles = timing.l2_hit_cycles
    miss_cost = hit_cycles + timing.dram_latency_cycles
    state = unit = None
    if dcr is not None:
        ctrl_cfg = dcr.controller
        state = CacheState(geometry, min_colors=ctrl_cfg.c_min)
        unit = ProfilingUnit(geometry, ctrl_cfg.sampling_ratio_denom)
        replay = Replay(n, codes=False)
    passes = Passes(geometry, trace.addrs, replay)
    if dcr is not None:
        passes.bind_cache(state, trace.ops, unit)
    specs = []
    for scheme in schemes:
        # a boundary every phase_cycles, over the lines it covers in each
        # bank, at bank * phases + phase: every line for the baseline,
        # DCR's valid lines, RPV's valid lines by last-touch phase; without
        # refresh (SRAM), never
        refresh, kind = scheme.refresh, scheme.kind
        if refresh is None:
            specs.append((0, 1, None, False))
            continue
        if kind is SchemeKind.DCR:
            counts = state.valid_by_bank
        elif kind is SchemeKind.BASELINE_EDRAM:
            counts = array("q", [geometry.lines_per_bank]) * geometry.num_banks
        else:
            counts = zeros("q", geometry.num_banks * refresh.phases)
        specs.append((refresh.phase_cycles, refresh.phases, counts,
                      kind is SchemeKind.RPV))
    clock, timers = passes.bind_timing(
        trace.gaps, timing.base_cpi, hit_cycles, miss_cost,
        warmup_instructions, interval_instructions, specs)

    carry_writebacks = carry_switched = 0
    active_fraction = 1.0
    intervals: list[list[IntervalStats]] = [[] for _ in schemes]
    decisions: list[Decision] = []
    lo = 0
    while True:
        # up to the record that closes an interval, or to the end
        lo = passes(lo, n)
        instructions, hits, misses, writebacks, load_misses = clock.take()
        closes = instructions >= interval_instructions
        for scheme, timer, kept in zip(schemes, timers, intervals):
            cycles, refreshed = timer.take()
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
            stats.colors = m_total if dcr is None else state.active_count
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
                decision = select(stats, unit, state, dcr.refresh, ctrl_cfg,
                                  dcr.energy or params, timing)
                report = reconfigure(state, decision.chosen)
                decision.interval = stats.index
                decision.switched_blocks = carry_switched = \
                    report.switched_blocks
                decision.flush_writebacks = carry_writebacks = \
                    report.writebacks
                decisions.append(decision)
                unit.reset()
            active_fraction = state.active_count / m_total
        if lo == n and not closes:
            break

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
    raises its own error before any record is replayed. Then, when a
    scheme never remaps and the trace keeps no fixed replay of the
    geometry (see `_fixed_pass`), its functional pass is taken and the
    replay kept on the trace: on a helper thread while this thread runs
    DCR, if DCR is among the schemes (the compiled loop releases the GIL,
    and the two passes share only the trace, which neither writes), else
    here. The fixed schemes are then timed together on that replay, in
    one trip with a timer each.
    """
    for scheme in schemes:
        # the warm-up and interval a run takes, the same for every scheme
        taken = check_run(trace, scheme, geometry, timing,
                          warmup_instructions, interval_instructions)
    args = (geometry, timing, params, warmup_instructions,
            interval_instructions)
    dcr = [i for i, s in enumerate(schemes) if s.kind is SchemeKind.DCR]
    fixed = [i for i in range(len(schemes)) if i not in dcr]
    reports = {}
    functional = _fixed_pass(trace, geometry) if fixed else None
    if functional is not None:
        # whoever takes the pass holds the only reference to it, and with
        # it to the pass's cache, which is freed as soon as the pass returns
        out, job, failed = functional.out, [functional], []
        del functional

        def take_fixed_pass():
            try:
                job.pop()(0, len(out))
            except BaseException as exc:
                failed.append(exc)

        if dcr:
            helper = threading.Thread(target=take_fixed_pass)
            helper.start()
            try:
                for i in dcr:
                    reports[i] = run(trace, schemes[i], *args)
            finally:
                helper.join()
        else:
            take_fixed_pass()
        if failed:
            raise failed[0]
        trace.fixed_replay = geometry, out
    if fixed:
        reports.update(zip(fixed, _time(
            trace, [schemes[i] for i in fixed], geometry, timing, params,
            *taken, trace.fixed_replay[1])))
    return [reports[i] if i in reports else run(trace, scheme, *args)
            for i, scheme in enumerate(schemes)]


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
