"""Trace replay harness: timing, refresh events, controller intervals, metrics.

The timing model is in-order single-issue: every record costs its instruction
gap times the base CPI, plus the L2 hit latency, plus the DRAM latency on a
miss. Load-miss latency is accounted as memory stall; store misses advance
the clock but are hidden by the store buffer. Refresh bursts occupy each bank
for one cycle per refreshed line; an access to a busy bank waits for the
burst to finish. Metrics accumulate only after the warm-up window.
"""

from dataclasses import asdict, dataclass, field, fields

from . import cache as _cache
from . import refresh as _refresh
from .cache import CacheGeometry, CacheState
from .controller import Candidate, ControllerConfig, apply as apply_decision, select
from .energy import EnergyBreakdown, EnergyParams, SchemeKind, interval_energy
from .profiler import IntervalStats, make_units, reset_interval
from .refresh import RefreshConfig
from .trace import Op, TraceArrays


class SchemeConfigError(ValueError):
    pass


@dataclass
class SchemeSpec:
    kind: SchemeKind
    refresh: RefreshConfig | None = None
    controller: ControllerConfig | None = None
    energy: EnergyParams | None = None  # falls back to the run's shared params
    profiler_ratio: int = 64
    name: str = ""

    def __post_init__(self):
        if not self.name:
            self.name = self.kind.value
        if self.kind is SchemeKind.SRAM:
            if self.refresh is not None:
                raise SchemeConfigError("SRAM scheme takes no refresh config")
        elif self.refresh is None:
            raise SchemeConfigError(f"{self.kind.value} scheme needs a refresh config")
        if self.kind is SchemeKind.DCR:
            if self.controller is None:
                raise SchemeConfigError("DCR scheme needs a controller config")
        elif self.controller is not None:
            raise SchemeConfigError(
                f"{self.kind.value} scheme must not carry a controller config")
        if self.kind in (SchemeKind.BASELINE_EDRAM, SchemeKind.DCR):
            if self.refresh.phases != 1:
                raise SchemeConfigError(
                    f"{self.kind.value} scheme uses whole-period refresh (phases=1)")


@dataclass
class TimingParams:
    l2_hit_cycles: int = 12
    dram_latency_cycles: int = 154
    base_cpi: float = 1.0
    clock_ghz: float = 2.2

    def __post_init__(self):
        if min(self.l2_hit_cycles, self.dram_latency_cycles) <= 0:
            raise ValueError("latencies must be > 0")
        if self.base_cpi <= 0 or self.clock_ghz <= 0:
            raise ValueError("base_cpi and clock_ghz must be > 0")


@dataclass
class IntervalRecord:
    index: int
    colors: int
    stats: IntervalStats
    energy: EnergyBreakdown


@dataclass
class DecisionRecord:
    interval: int
    current: int
    chosen: int
    fail_safe: bool
    switched_blocks: int
    flush_writebacks: int
    candidates: list[Candidate]


def _report_dict(report) -> dict:
    """asdict() with the report spellings: `scheme` for scheme_name and the
    kind's value for the kind."""
    doc = asdict(report)
    doc["scheme"] = doc.pop("scheme_name")
    doc["kind"] = report.kind.value
    return doc


@dataclass
class RunReport:
    scheme_name: str
    kind: SchemeKind
    warmup_instructions: int
    instructions: int
    total_cycles: int
    total_energy_j: float
    energy_components: dict
    rpki: float
    mpki: float
    active_ratio_pct: float
    total_refreshed_lines: int
    total_l2_hits: int
    total_l2_misses: int
    refresh_event_cycles: list[int] | None
    intervals: list[IntervalRecord] = field(default_factory=list)
    decisions: list[DecisionRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        doc = _report_dict(self)
        del doc["refresh_event_cycles"]
        for iv in doc["intervals"]:
            iv.update(iv.pop("stats"))
        return doc


def run(trace: TraceArrays, scheme: SchemeSpec, geometry: CacheGeometry,
        timing: TimingParams, params: EnergyParams,
        warmup_instructions: int | None = None,
        interval_instructions: int | None = None,
        collect_refresh_events: bool = False) -> RunReport:
    """Replay a trace under one scheme and return the full report."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    if scheme.energy is not None:
        params = scheme.energy
    if abs(params.clock_ghz - timing.clock_ghz) > 1e-12:
        raise ValueError("energy params and timing disagree on the clock")

    total_instr = trace.instructions
    if warmup_instructions is None:
        warmup_instructions = total_instr // 10
    if warmup_instructions >= total_instr:
        raise ValueError("warm-up must be shorter than the trace")

    kind = scheme.kind
    is_dcr = kind is SchemeKind.DCR
    refresh_cfg = scheme.refresh
    ctrl_cfg = scheme.controller
    if interval_instructions is None:
        interval_instructions = (ctrl_cfg.interval_instructions
                                 if is_dcr else 10_000_000)

    phase_clock = refresh_cfg.phase_clock() if kind is SchemeKind.RPV else None
    state = CacheState(geometry, phase_clock=phase_clock,
                       min_colors=ctrl_cfg.c_min if is_dcr else 1)
    units = make_units(geometry, scheme.profiler_ratio) if is_dcr else None
    m_total = geometry.color_count

    if refresh_cfg is None:
        boundary_len = 0
        next_boundary = None
    else:
        boundary_len = (refresh_cfg.phase_cycles
                        if kind is SchemeKind.RPV else refresh_cfg.retention_cycles)
        next_boundary = boundary_len

    sets_per_bank = geometry.sets_per_bank
    block_bytes = geometry.block_bytes
    sample_ratio = scheme.profiler_ratio
    bank_busy = [0] * geometry.num_banks
    event_cycles: list[int] | None = [] if collect_refresh_events else None

    hit_cycles = timing.l2_hit_cycles
    dram_cycles = timing.dram_latency_cycles
    miss_cost = hit_cycles + dram_cycles
    base_cpi = timing.base_cpi
    unit_cpi = abs(base_cpi - 1.0) < 1e-12

    now = 0
    cum_instr = 0
    warmed = warmup_instructions == 0
    interval_start_cycle = 0
    interval_instr = 0
    interval_index = 0
    stats = IntervalStats(active_fraction=state.active_count / m_total)
    intervals: list[IntervalRecord] = []
    decisions: list[DecisionRecord] = []

    raw_access = _cache.access_block
    rpv = _refresh.rpv_refresh
    refresh_all = _refresh.refresh_all
    valid_only = _refresh.valid_only_refresh
    k_phases = refresh_cfg.phases if refresh_cfg else 1
    phase_len = refresh_cfg.phase_cycles if refresh_cfg else 1

    def fire(at: int) -> None:
        if kind is SchemeKind.BASELINE_EDRAM:
            ev = refresh_all(state, refresh_cfg, at)
        elif kind is SchemeKind.RPV:
            ev = rpv(state, refresh_cfg, (at // phase_len) % k_phases, at)
        else:  # DCR refreshes only valid lines in the active colors
            ev = valid_only(state, refresh_cfg, at)
        for b, lines in enumerate(ev.per_bank_lines):
            if lines:
                start = bank_busy[b] if bank_busy[b] > at else at
                bank_busy[b] = start + lines
        if warmed:
            stats.refreshed_lines += ev.lines_refreshed
        if event_cycles is not None:
            event_cycles.append(at)

    def close_interval(run_controller: bool) -> None:
        nonlocal stats, interval_start_cycle, interval_instr, interval_index
        stats.instructions = interval_instr
        stats.elapsed_cycles = now - interval_start_cycle
        if units is not None:
            stats.prof_accesses = sum(u.accesses for u in units)
        breakdown = interval_energy(stats, params, kind)
        colors = state.active_count
        intervals.append(IntervalRecord(interval_index, colors, stats, breakdown))

        carry_writebacks = 0
        carry_switched = 0
        if run_controller:
            decision = select(stats, units, state, refresh_cfg, ctrl_cfg, params)
            report = apply_decision(decision, state)
            decisions.append(DecisionRecord(
                interval=interval_index,
                current=decision.current,
                chosen=decision.chosen,
                fail_safe=decision.fail_safe,
                switched_blocks=report.switched_blocks,
                flush_writebacks=report.writebacks,
                candidates=decision.candidates,
            ))
            carry_writebacks = report.writebacks
            carry_switched = report.switched_blocks
            reset_interval(units)

        interval_index += 1
        interval_instr = 0
        interval_start_cycle = now
        stats = IntervalStats(active_fraction=state.active_count / m_total,
                              dram_accesses=carry_writebacks,
                              switched_blocks=carry_switched)

    gaps = trace.gaps.tolist()
    ops = trace.ops.tolist()
    addrs = trace.addrs.tolist()
    write_op = int(Op.WRITE)

    for i in range(len(gaps)):
        gap = gaps[i]
        now += gap if unit_cpi else round(gap * base_cpi)
        cum_instr += gap
        if warmed:
            interval_instr += gap
        elif cum_instr >= warmup_instructions:
            warmed = True
            interval_start_cycle = now
            stats = IntervalStats(active_fraction=state.active_count / m_total)
            if units is not None:
                reset_interval(units)

        is_write = ops[i] == write_op
        addr = addrs[i]
        _color, set_index, _tag = _cache.locate(state, addr)
        bank = set_index // sets_per_bank

        # fire due refresh events, then wait out any burst on our bank; a wait
        # can cross the next boundary, so settle both together
        while True:
            while next_boundary is not None and next_boundary <= now:
                fire(next_boundary)
                next_boundary += boundary_len
            if bank_busy[bank] > now:
                now = bank_busy[bank]
                continue
            break

        res = raw_access(state, is_write, addr, now)
        if res.hit:
            now += hit_cycles
            if warmed:
                stats.l2_hits += 1
        else:
            now += miss_cost
            if warmed:
                stats.l2_misses += 1
                stats.dram_accesses += 1
                if res.evicted_dirty:
                    stats.dram_accesses += 1
                if not is_write:
                    stats.load_misses += 1
                    stats.memory_stall_cycles += miss_cost
        if units is not None:
            # every unit samples exactly the blocks with residue 0, since
            # make_units requires the ratio to divide each unit's set count
            block = addr // block_bytes
            if block % sample_ratio == 0:
                for unit in units:
                    unit.probe(block, is_write)

        if warmed and interval_instr >= interval_instructions:
            close_interval(run_controller=is_dcr)

    if warmed and (interval_instr > 0 or stats.l2_hits or stats.l2_misses
                   or stats.refreshed_lines or stats.dram_accesses
                   or stats.switched_blocks):
        close_interval(run_controller=False)  # no decision after the last interval

    instructions = sum(iv.stats.instructions for iv in intervals)
    total_cycles = sum(iv.stats.elapsed_cycles for iv in intervals)
    total_refreshed = sum(iv.stats.refreshed_lines for iv in intervals)
    total_hits = sum(iv.stats.l2_hits for iv in intervals)
    total_misses = sum(iv.stats.l2_misses for iv in intervals)
    components = {f.name: sum(getattr(iv.energy, f.name) for iv in intervals)
                  for f in fields(EnergyBreakdown) if f.name != "total"}
    total_energy = sum(iv.energy.total for iv in intervals)
    kilo = instructions / 1000.0 if instructions else 1.0
    if total_cycles:
        active_ratio = 100.0 * sum(
            iv.stats.active_fraction * iv.stats.elapsed_cycles
            for iv in intervals) / total_cycles
    else:
        active_ratio = 100.0

    return RunReport(
        scheme_name=scheme.name,
        kind=kind,
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
        refresh_event_cycles=event_cycles,
        intervals=intervals,
        decisions=decisions,
    )


@dataclass
class ComparisonRow:
    """One scheme against the baseline; the fields after `kind` are in the
    column order of comparison.csv and sweep.csv."""

    scheme_name: str
    kind: SchemeKind
    pct_energy_saved: float
    pct_perf_improvement: float
    delta_rpki: float
    delta_mpki: float
    active_ratio_pct: float
    rpki: float
    mpki: float
    total_energy_j: float

    def to_dict(self) -> dict:
        return _report_dict(self)


def comparison_row(base: RunReport, rep: RunReport) -> ComparisonRow:
    """rep's metrics relative to base; base against itself gives 0.0 deltas."""
    return ComparisonRow(
        scheme_name=rep.scheme_name,
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


@dataclass
class ComparisonReport:
    baseline_name: str
    baseline: RunReport
    rows: list[ComparisonRow]
    reports: dict[str, RunReport]

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline_name,
            "baseline_total_energy_j": self.baseline.total_energy_j,
            "baseline_total_cycles": self.baseline.total_cycles,
            "baseline_rpki": self.baseline.rpki,
            "baseline_mpki": self.baseline.mpki,
            "rows": [r.to_dict() for r in self.rows],
        }


def compare(trace: TraceArrays, schemes: list[SchemeSpec], geometry: CacheGeometry,
            timing: TimingParams, params: EnergyParams,
            warmup_instructions: int | None = None,
            interval_instructions: int | None = None) -> ComparisonReport:
    """Run every scheme on the same trace and report metrics vs the baseline.

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

    reports = [run(trace, spec, geometry, timing, params,
                   warmup_instructions=warmup_instructions,
                   interval_instructions=interval_instructions)
               for spec in schemes]

    base = reports[baseline_idx]
    rows = [comparison_row(base, rep) for i, rep in enumerate(reports)
            if i != baseline_idx]
    return ComparisonReport(base.scheme_name, base, rows,
                            {r.scheme_name: r for r in reports})
