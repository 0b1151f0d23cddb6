"""Interval-driven cache allocation controller.

At each interval boundary the controller enumerates candidate color counts
around the current allocation, predicts each candidate's interval from the
profiling unit and prices it with the run's own energy formula, drops
candidates whose slowdown versus the full-size cache exceeds the tolerance,
and picks the energy minimum among the survivors: a color count c, which
`cache.reconfigure` realizes by keeping the colors [0, c) on.
`ControllerConfig` holds its knobs, the profiling unit's sampling ratio
among them, and a DCR report lists each `Decision`.
"""

import math

from .cache import CacheGeometry, CacheState
from .energy import EnergyParams, SchemeKind, energy_terms
from .profiler import (IntervalStats, ProfilingUnit, TimingParams,
                       interpolate, profiled_points)
from .record import Record
from .refresh import RefreshConfig


class ControllerConfig(Record):
    def __init__(self, c_min: int, granularity: int = 2, delta: int = 16,
                 beta: float = 3.0, sampling_ratio_denom: int = 64):
        self.c_min = c_min
        self.granularity = granularity
        self.delta = delta
        self.beta = beta
        # the profiler samples 1 set in this many
        self.sampling_ratio_denom = sampling_ratio_denom
        if c_min < 1:
            raise ValueError("c_min must be >= 1")
        if granularity < 1:
            raise ValueError(f"granularity must be >= 1, got {granularity}")
        if delta < granularity:
            raise ValueError("delta must be >= granularity")
        if not (math.isfinite(beta) and beta > 0):
            raise ValueError(f"beta must be a finite number > 0, got {beta}")
        if sampling_ratio_denom < 1:
            raise ValueError(f"sampling_ratio_denom must be >= 1, "
                             f"got {sampling_ratio_denom}")


def default_config(geometry: CacheGeometry, **overrides) -> ControllerConfig:
    """Default tuning: minimum allocation is a 1/16th slice of the colors."""
    overrides.setdefault("c_min", max(1, geometry.color_count // 16))
    return ControllerConfig(**overrides)


def candidate_space(current: int, total_colors: int, cfg: ControllerConfig) -> list[int]:
    """Allocation candidates: multiples of the granularity within [c_min, M]
    and within delta colors of the current allocation, ascending."""
    lo = max(cfg.c_min, current - cfg.delta)
    hi = min(total_colors, current + cfg.delta)
    first = lo + (-lo) % cfg.granularity  # round up to a multiple
    return list(range(first, hi + 1, cfg.granularity))


class Candidate(Record):
    def __init__(self, colors: int, est_time_cycles: float, delta_pct: float,
                 est_energy_j: float, rejected_by_beta: bool):
        self.colors = colors
        self.est_time_cycles = est_time_cycles
        self.delta_pct = delta_pct
        self.est_energy_j = est_energy_j
        self.rejected_by_beta = rejected_by_beta


class Decision(Record):
    """`select` fills in all but the closed interval's index and what
    `reconfigure` then switched and flushed, which the run sets."""

    def __init__(self, current: int, chosen: int, fail_safe: bool,
                 candidates: list[Candidate], interval: int = 0,
                 switched_blocks: int = 0, flush_writebacks: int = 0):
        self.current = current
        self.chosen = chosen
        self.fail_safe = fail_safe
        self.candidates = candidates
        self.interval = interval
        self.switched_blocks = switched_blocks
        self.flush_writebacks = flush_writebacks


def select(stats: IntervalStats, unit: ProfilingUnit, state: CacheState,
           refresh_config: RefreshConfig, cfg: ControllerConfig,
           params: EnergyParams, timing: TimingParams) -> Decision:
    """Pick the next interval's color count from the finished interval's
    stats.

    A candidate of c colors is priced on the next interval it predicts:
    the profiling unit's misses and load misses at its size
    (`interpolate`, all candidates in one walk); a time of the finished
    interval's cycles outside load misses plus the hit and DRAM latency
    per estimated load miss; every valid line the c colors hold refreshed
    once per whole retention period of that time; the finished interval's
    writebacks per miss; and the blocks switched on or off from here.
    """
    geometry = state.geometry
    m_total = geometry.color_count
    current = state.active_count
    space = candidate_space(current, m_total, cfg)

    points = profiled_points(unit)
    # the same for every candidate: the time outside load misses, the
    # cycles per load miss (a float, as the report writes the time, even
    # for a whole number of misses), and the refresh period
    compute = stats.elapsed_cycles - stats.memory_stall_cycles
    per_miss = float(timing.l2_hit_cycles + timing.dram_latency_cycles)
    retention = refresh_config.retention_cycles
    t_0 = compute + per_miss * points[0][3]  # X is profiled
    if t_0 <= 0:
        # an interval of no compute whose full size sampled no load miss:
        # no time to weigh a candidate's slowdown against, so stay put
        return Decision(current, current, False, [])

    accesses = stats.l2_hits + stats.l2_misses
    if stats.l2_misses > 0:
        wb_ratio = max(0.0, (stats.dram_accesses - stats.l2_misses) / stats.l2_misses)
    else:
        wb_ratio = 0.0

    size_bytes, lines_per_color = geometry.size_bytes, geometry.lines_per_color
    n_valid, ghz, beta = state.n_valid, timing.clock_ghz, cfg.beta
    prof_accesses = stats.prof_accesses
    candidates = []
    for colors, (est_m, est_load) in zip(space, interpolate(
            points, [colors * size_bytes / m_total for colors in space])):
        t_i = compute + per_miss * est_load
        d_i = (t_i - t_0) / t_0 * 100.0  # % slower than the full size
        refreshed = min(n_valid, colors * lines_per_color) \
            * int(t_i // retention)
        energy = energy_terms(
            params, SchemeKind.DCR, ghz, t_i, colors / m_total,
            max(accesses - est_m, 0.0), est_m, refreshed,
            est_m * (1.0 + wb_ratio), abs(colors - current) * lines_per_color,
            prof_accesses)[-1]
        candidates.append(Candidate(colors, t_i, d_i, energy, d_i > beta))

    survivors = [c for c in candidates if not c.rejected_by_beta]
    if survivors:
        best = min(survivors, key=lambda c: (c.est_energy_j, c.colors))
        return Decision(current, best.colors, False, candidates)
    # every candidate breaches the slowdown bound (possible right after a
    # working-set shift); take the least-bad one instead of stalling
    best = min(candidates, key=lambda c: (c.delta_pct, c.colors))
    return Decision(current, best.colors, True, candidates)
