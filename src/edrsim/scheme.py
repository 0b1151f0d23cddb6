"""A scheme: its spec, the checks it must pass before a run, and the report
of its run (see sim.py for how a run is replayed)."""

from .cache import CacheGeometry
from .controller import ControllerConfig, Decision, candidate_space
from .energy import EnergyBreakdown, EnergyParams, SchemeKind
from .profiler import IntervalStats, TimingParams, sampled_rows
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
        lines = geometry.lines_per_bank
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


def check_run(trace: TraceArrays, scheme: SchemeSpec,
              geometry: CacheGeometry, timing: TimingParams,
              warmup_instructions: int | None,
              interval_instructions: int | None) -> tuple[int, int]:
    """`sim.run`'s checks, before any record: `check_scheme`, the warm-up,
    the interval length and the range of the clock. Returns the warm-up and
    the interval length the run takes."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    check_scheme(scheme, geometry)
    total_instr = trace.instructions
    if warmup_instructions is None:
        warmup_instructions = total_instr // 10
    if not 0 <= warmup_instructions < total_instr:
        raise ValueError(f"warm-up of {warmup_instructions} instructions must "
                         f"be >= 0 and shorter than the trace")
    if interval_instructions is None:
        interval_instructions = 10_000_000
    if not 1 <= interval_instructions < 1 << 63:
        raise ValueError("interval_instructions must be >= 1 and below 2**63")
    # the kernel's int64 clock stays below 2**62, a run's boundary without
    # refresh: per record, it gains the gap in cycles (rounded), a latency
    # and a wait on a refresh burst, which holds a bank for at most its lines
    wait = geometry.lines_per_bank if scheme.refresh else 0
    if total_instr * timing.base_cpi + len(trace) * (
            1 + timing.l2_hit_cycles + timing.dram_latency_cycles
            + wait) >= 1 << 62:
        raise ValueError(f"{total_instr} instructions at base_cpi "
                         f"{timing.base_cpi} could take 2**62 cycles or more")
    return warmup_instructions, interval_instructions
