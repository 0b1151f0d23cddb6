"""Set-sampled profiling units and per-interval statistics.

Five tag-only LRU units emulate conventional caches of size X, X/2, X/4, X/8
and X/16 (X = the main cache size) and count misses and load misses on a
sampled subset of sets. All units sample the same set residues, one set in
`sample_ratio_denom`, so the LRU stacks stay comparable across sizes. A
unit's sampled sets are laid out as the main cache's (see cache.py),
without dirty bytes, and the functional pass steps them with the same LRU
routine. Estimates for intermediate sizes are interpolated log-linearly
between the profiled points.
"""

import math
from dataclasses import dataclass

from .cache import CacheGeometry, lines_at, zeros
from .refresh import RefreshConfig

PROFILED_FRACTIONS = (1, 2, 4, 8, 16)  # size = X / fraction


@dataclass
class IntervalStats:
    """Counters accumulated over one controller interval."""

    instructions: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    load_misses: int = 0
    memory_stall_cycles: int = 0
    refreshed_lines: int = 0
    dram_accesses: int = 0
    active_fraction: float = 1.0
    elapsed_cycles: int = 0
    switched_blocks: int = 0
    prof_accesses: int = 0


class ProfilingUnit:
    """Tag-only LRU emulation of one cache size on sampled sets."""

    def __init__(self, emulated_size: int, geometry: CacheGeometry,
                 sample_ratio_denom: int):
        self.emulated_size = emulated_size
        self.associativity = geometry.associativity
        self.num_sets = emulated_size // (geometry.block_bytes * geometry.associativity)
        if self.num_sets < 1:
            raise ValueError(f"emulated size {emulated_size} too small")
        if sample_ratio_denom < 1:
            raise ValueError(
                f"sampling_ratio_denom must be >= 1, got {sample_ratio_denom}")
        if self.num_sets % sample_ratio_denom:
            raise ValueError(
                f"sampling 1/{sample_ratio_denom} must divide {self.num_sets} sets")
        self.sample_ratio_denom = sample_ratio_denom
        # the sampled sets are the residue-0 ones: set s is row
        # s // sample_ratio_denom, its tags least recent first
        rows = self.num_sets // sample_ratio_denom
        self.tags = zeros("Q", rows * self.associativity)
        self.fill = zeros("i", rows)
        self.misses = self.load_misses = self.accesses = 0


def make_units(geometry: CacheGeometry, sample_ratio_denom: int) -> list[ProfilingUnit]:
    """Build the five standard units (X down to X/16)."""
    return [ProfilingUnit(geometry.size_bytes // f, geometry, sample_ratio_denom)
            for f in PROFILED_FRACTIONS]


def reset_interval(units: list[ProfilingUnit]) -> None:
    """Zero the interval counters; tag arrays persist (warm profiler)."""
    for unit in units:
        unit.misses = unit.load_misses = unit.accesses = 0


def profiler_overhead_bytes(units: list[ProfilingUnit], tag_bits: int = 30) -> float:
    """Storage footprint of all units (tags only; no data is stored)."""
    total_bits = sum(len(u.fill) * u.associativity * tag_bits for u in units)
    return total_bits / 8.0


def estimate_misses(units: list[ProfilingUnit], colors: int,
                    geometry: CacheGeometry) -> tuple[float, float]:
    """Estimated (misses, load misses) for a cache of `colors` colors.

    Exact at the five profiled sizes; log-linear in size between them; sizes
    below the smallest unit clamp to its estimate. Counts are scaled by the
    sampling ratio.
    """
    m_total = geometry.color_count
    if not 1 <= colors <= m_total:
        raise ValueError(f"colors must be in [1, {m_total}]")
    size = colors * geometry.size_bytes / m_total
    points = sorted(units, key=lambda u: u.emulated_size)
    scale = points[0].sample_ratio_denom

    def scaled(u):
        return u.misses * scale, u.load_misses * scale

    if size <= points[0].emulated_size:
        return scaled(points[0])
    for unit in points:
        if size == unit.emulated_size:
            return scaled(unit)
    if size >= points[-1].emulated_size:
        return scaled(points[-1])
    for lo, hi in zip(points, points[1:]):
        if lo.emulated_size < size < hi.emulated_size:
            t = ((math.log2(size) - math.log2(lo.emulated_size))
                 / (math.log2(hi.emulated_size) - math.log2(lo.emulated_size)))
            lo_m, lo_l = scaled(lo)
            hi_m, hi_l = scaled(hi)
            return lo_m + t * (hi_m - lo_m), lo_l + t * (hi_l - lo_l)
    raise AssertionError("unreachable")


def estimate_time(stats: IntervalStats, est_load_misses: float) -> float:
    """Interval-time estimate: memory stall cycles scale linearly with load misses."""
    if stats.load_misses > 0:
        stall_per_load_miss = stats.memory_stall_cycles / stats.load_misses
    else:
        stall_per_load_miss = 0.0
    compute = stats.elapsed_cycles - stats.memory_stall_cycles
    return compute + stall_per_load_miss * est_load_misses


def estimate_refreshes(n_valid: int, colors: int, geometry: CacheGeometry,
                       t_cycles: float, config: RefreshConfig) -> int:
    """Lines refreshed over an interval of t_cycles at the given allocation."""
    if t_cycles <= 0:
        raise ValueError("t_cycles must be > 0")
    per_period = min(n_valid, lines_at(geometry, colors))
    periods = int(t_cycles // config.retention_cycles)
    return per_period * periods
