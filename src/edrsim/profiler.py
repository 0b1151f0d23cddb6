"""DCR's set-sampled profiling unit and per-interval statistics.

One `ProfilingUnit` emulates conventional caches of size X, X/2, X/4, X/8
and X/16 (X = the main cache size), as UMON-style set sampling does
(Qureshi & Patt, MICRO 2006), and counts misses, load misses and accesses
on one set in `ratio` of each size. Every size samples the same set
residues, so the LRU stacks stay comparable across sizes. The sampled
sets are laid out as the main cache's (see cache.py), without dirty
bytes, and the functional pass steps them with the same LRU routine,
adding to the unit's counts in place. Estimates for intermediate sizes
are interpolated log-linearly between the profiled points.
"""

import math
from array import array
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
    """DCR's profiling unit: tag-only LRU emulations of the cache at each
    size X / f, f in PROFILED_FRACTIONS, on one set in `ratio` of each.

    `sizes` lists the emulated sizes in that order. Their sampled sets
    share one flat `tags` array, of `ways` slots per row, and one `fill`
    array, size after size: size u owns the next `rows[u]` rows, and its
    set s is the (s // ratio)-th of them. `counts` holds the misses, load
    misses and accesses of size u at 3u, 3u + 1 and 3u + 2, where the
    compiled pass adds to them in place.
    """

    def __init__(self, geometry: CacheGeometry, ratio: int):
        if ratio < 1:
            raise ValueError(f"sampling_ratio_denom must be >= 1, got {ratio}")
        self.ratio = ratio
        self.ways = geometry.associativity
        self.sizes = [geometry.size_bytes // f for f in PROFILED_FRACTIONS]
        self.rows = array("q")
        for size in self.sizes:
            sets = size // (geometry.block_bytes * self.ways)
            if sets < 1:
                raise ValueError(f"emulated size {size} too small")
            if sets % ratio:
                raise ValueError(f"sampling 1/{ratio} must divide {sets} sets")
            self.rows.append(sets // ratio)
        self.tags = zeros("Q", sum(self.rows) * self.ways)
        self.fill = zeros("i", sum(self.rows))
        self.counts = zeros("q", 3 * len(self.sizes))

    def reset(self) -> None:
        """Zero the counts; the tags persist (a warm profiler)."""
        self.counts[:] = zeros("q", len(self.counts))


def estimate_misses(unit: ProfilingUnit, colors: int,
                    geometry: CacheGeometry) -> tuple[float, float]:
    """Estimated (misses, load misses) for a cache of `colors` colors.

    Exact at the profiled sizes; log-linear in size between them; sizes
    below the smallest clamp to its estimate. Counts are scaled by the
    sampling ratio.
    """
    m_total = geometry.color_count
    if not 1 <= colors <= m_total:
        raise ValueError(f"colors must be in [1, {m_total}]")
    size = colors * geometry.size_bytes / m_total
    sizes, counts, scale = unit.sizes, unit.counts, unit.ratio

    def scaled(u):
        return counts[3 * u] * scale, counts[3 * u + 1] * scale

    # the sizes descend from X: walk up from the smallest to the first one
    # at or above `size`
    hi = len(sizes) - 1
    while sizes[hi] < size:
        hi -= 1
    if sizes[hi] == size or hi == len(sizes) - 1:
        return scaled(hi)
    lo = hi + 1
    t = ((math.log2(size) - math.log2(sizes[lo]))
         / (math.log2(sizes[hi]) - math.log2(sizes[lo])))
    lo_m, lo_l = scaled(lo)
    hi_m, hi_l = scaled(hi)
    return lo_m + t * (hi_m - lo_m), lo_l + t * (hi_l - lo_l)


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
