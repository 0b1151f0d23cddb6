"""DCR's set-sampled profiling unit, per-interval statistics and the
timing parameters that its time estimate charges.

One `ProfilingUnit` emulates conventional caches of size X, X/2, X/4, X/8
and X/16 (X = the main cache size), as UMON-style set sampling does
(Qureshi & Patt, MICRO 2006), and counts misses, load misses and accesses
on one set in `ratio` of each size. Every size samples the same set
residues, so the LRU stacks stay comparable across sizes. The sampled
sets are laid out as the main cache's (see cache.py), with no dirty
bit ever set, and the functional pass steps them with the same LRU routine,
adding to the unit's counts in place. Estimates for intermediate sizes
are interpolated log-linearly between the profiled points, for all of a
decision's candidate sizes in one walk.
"""

import math
from array import array

from .cache import CacheGeometry, zeros
from .energy import EnergyBreakdown
from .record import Record

PROFILED_FRACTIONS = (1, 2, 4, 8, 16)  # size = X / fraction


class TimingParams(Record):
    def __init__(self, l2_hit_cycles: int = 12, dram_latency_cycles: int = 154,
                 base_cpi: float = 1.0, clock_ghz: float = 2.2):
        self.l2_hit_cycles = l2_hit_cycles
        self.dram_latency_cycles = dram_latency_cycles
        self.base_cpi = base_cpi
        self.clock_ghz = clock_ghz
        hit, dram = l2_hit_cycles, dram_latency_cycles
        if not 0 < min(hit, dram) <= max(hit, dram) < 1 << 63:  # int64s
            raise ValueError(f"latencies must be > 0 and below 2**63, got "
                             f"{hit} and {dram}")
        for name, value in (("base_cpi", base_cpi), ("clock_ghz", clock_ghz)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, "
                                 f"got {value}")


class IntervalStats(Record):
    """Counters accumulated over one controller interval; a run's report
    adds the interval's index, its color count and its energy."""

    def __init__(self, instructions: int = 0, l2_hits: int = 0,
                 l2_misses: int = 0, load_misses: int = 0,
                 memory_stall_cycles: int = 0, refreshed_lines: int = 0,
                 dram_accesses: int = 0, active_fraction: float = 1.0,
                 elapsed_cycles: int = 0, switched_blocks: int = 0,
                 prof_accesses: int = 0, index: int = 0, colors: int = 0,
                 energy: EnergyBreakdown | None = None):
        self.instructions = instructions
        self.l2_hits = l2_hits
        self.l2_misses = l2_misses
        self.load_misses = load_misses
        self.memory_stall_cycles = memory_stall_cycles
        self.refreshed_lines = refreshed_lines
        self.dram_accesses = dram_accesses
        self.active_fraction = active_fraction
        self.elapsed_cycles = elapsed_cycles
        self.switched_blocks = switched_blocks
        self.prof_accesses = prof_accesses
        self.index = index
        self.colors = colors
        self.energy = energy


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
        self.ratio = ratio
        self.ways = geometry.associativity
        self.sizes = [geometry.size_bytes // f for f in PROFILED_FRACTIONS]
        self.rows = array("q", sampled_rows(geometry, ratio))
        self.tags = zeros("Q", sum(self.rows) * self.ways)
        self.fill = zeros("i", sum(self.rows))
        self.counts = zeros("q", 3 * len(self.sizes))

    def reset(self) -> None:
        """Zero the counts; the tags persist (a warm profiler)."""
        self.counts[:] = zeros("q", len(self.counts))


def sampled_rows(geometry: CacheGeometry, ratio: int) -> list[int]:
    """The sets that 1-in-`ratio` sampling keeps of each emulated size;
    ValueError if a size has no set or `ratio` does not divide its sets."""
    rows = []
    for f in PROFILED_FRACTIONS:
        sets = geometry.total_sets // f
        if sets < 1:
            raise ValueError(f"emulated size {geometry.size_bytes // f} "
                             f"too small")
        if sets % ratio:
            raise ValueError(f"sampling 1/{ratio} must divide {sets} sets")
        rows.append(sets // ratio)
    return rows


def profiled_points(unit: ProfilingUnit) -> list[tuple]:
    """(size, log2 of it, misses, load misses) of each emulated size, from
    X down, with the counts scaled by the sampling ratio."""
    counts, scale = unit.counts, unit.ratio
    return [(size, math.log2(size), counts[3 * u] * scale,
             counts[3 * u + 1] * scale) for u, size in enumerate(unit.sizes)]


def interpolate(points: list[tuple], sizes) -> list[tuple[float, float]]:
    """Estimated (misses, load misses) of caches of `sizes` bytes, ascending
    and at most X, from `profiled_points`, in one walk up the points:
    exact at the profiled sizes; log-linear in size between them; sizes
    below the smallest clamp to its estimate."""
    got, hi, smallest = [], len(points) - 1, len(points) - 1
    for size in sizes:
        # walk up to the first profiled size at or above `size`
        while points[hi][0] < size:
            hi -= 1
        hi_size, hi_log, hi_m, hi_l = points[hi]
        if hi_size == size or hi == smallest:
            got.append((hi_m, hi_l))
            continue
        _, lo_log, lo_m, lo_l = points[hi + 1]
        t = (math.log2(size) - lo_log) / (hi_log - lo_log)
        got.append((lo_m + t * (hi_m - lo_m), lo_l + t * (hi_l - lo_l)))
    return got
