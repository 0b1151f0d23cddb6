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
                       estimate_refreshes, estimate_time, interpolate,
                       profiled_points)
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
    stats."""
    geometry = state.geometry
    m_total = geometry.color_count
    current = state.active_count
    space = candidate_space(current, m_total, cfg)

    points = profiled_points(unit)
    _, full_load = interpolate(points, geometry.size_bytes)
    t_0 = estimate_time(stats, full_load, timing)
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
    n_valid, ghz = state.n_valid, timing.clock_ghz
    candidates = []
    for colors in space:
        est_m, est_load = interpolate(points, colors * size_bytes / m_total)
        t_i = estimate_time(stats, est_load, timing)
        d_i = (t_i - t_0) / t_0 * 100.0  # % slower than the full size
        # priced on the counts the candidate predicts for the next interval
        energy = energy_terms(
            params, SchemeKind.DCR, ghz, t_i, colors / m_total,
            max(accesses - est_m, 0.0), est_m,
            estimate_refreshes(n_valid, colors, geometry, t_i, refresh_config),
            est_m * (1.0 + wb_ratio), abs(colors - current) * lines_per_color,
            stats.prof_accesses)[-1]
        candidates.append(Candidate(colors, t_i, d_i, energy, d_i > cfg.beta))

    survivors = [c for c in candidates if not c.rejected_by_beta]
    if survivors:
        best = min(survivors, key=lambda c: (c.est_energy_j, c.colors))
        return Decision(current, best.colors, False, candidates)
    # every candidate breaches the slowdown bound (possible right after a
    # working-set shift); take the least-bad one instead of stalling
    best = min(candidates, key=lambda c: (c.delta_pct, c.colors))
    return Decision(current, best.colors, True, candidates)
