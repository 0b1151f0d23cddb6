"""Hit ratios from first principles, against the cache and the profiling
unit: uniform references with no reuse locality over a working set of W
contiguous blocks, which spread evenly over the sets, make LRU hit with
probability min(1, A*S/W) (`oracles.predicted_hit_ratio`).

After warm-up every set is full, so each reference hits independently
with that probability, and a run's hit ratio over n references is
binomial: it must lie within `SIGMAS` standard errors of the
prediction, and be exactly 1 where the working set fits."""

import math

import pytest

from oracles import predicted_hit_ratio, size_counts
from edrsim.cache import CacheGeometry, CacheState
from edrsim.energy import SchemeKind, builtin_params
from edrsim.passes import Passes
from edrsim.profiler import ProfilingUnit, TimingParams
from edrsim.sim import SchemeSpec, run
from edrsim.trace import PhaseSpec, SyntheticTraceSpec, generate_synthetic

# 512 KB, 8 ways, 64 B blocks: 1024 sets, the fewest whose X/16 size (64
# sets) the profiling unit can sample one set in 64
GEOMETRY = CacheGeometry(size_bytes=512 * 1024, associativity=8,
                         bank_bytes=256 * 1024)
LINES = GEOMETRY.total_lines
RATIO = 64
SIGMAS = 4
APKI = 20  # 50 instructions a record
# warm-up: 20 references per block of the smallest working set, so that
# the chance that one of its blocks is never touched is below 2e-5; then
# 40 per block are measured
WARM_RECORDS, MEASURED_RECORDS = 20 * LINES, 40 * LINES
TIMING = TimingParams()


def _trace(ws_blocks: int, seed: int):
    records = WARM_RECORDS + MEASURED_RECORDS
    return generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(records * 1000 // APKI,
                          ws_blocks * GEOMETRY.block_bytes, 0.3, 0.0)],
        rng_seed=seed, accesses_per_kilo_instr=APKI))


def _check(hits: int, accesses: int, lines: int, ws_blocks: int, what):
    p = predicted_hit_ratio(lines, ws_blocks)
    error = math.sqrt(p * (1 - p) / accesses)
    assert abs(hits / accesses - p) <= SIGMAS * error, (
        what, hits / accesses, p, error)


# working sets of 1, 1.25, 1.5, 2 and 4 times the cache, each a whole
# number of blocks per set at every size, and a seed each
@pytest.mark.parametrize("scale, seed", [(1, 2101), (1.25, 2102),
                                         (1.5, 2103), (2, 2104), (4, 2105)])
def test_uniform_hit_ratio_is_min_1_a_s_over_w(scale, seed):
    ws_blocks = int(scale * LINES)
    trace = _trace(ws_blocks, seed)
    warm_at = WARM_RECORDS * 1000 // APKI
    report = run(trace, SchemeSpec(kind=SchemeKind.SRAM,
                                   energy=builtin_params("SRAM_2MB")),
                 GEOMETRY, TIMING, builtin_params("EDRAM_2MB"), warm_at,
                 trace.instructions)
    accesses = report.total_l2_hits + report.total_l2_misses
    # the record whose gap ends warm-up is counted
    assert accesses == MEASURED_RECORDS + 1
    _check(report.total_l2_hits, accesses, LINES, ws_blocks, "cache")
    # the profiling unit's sizes X/f, of S/f sets, each sampled one set
    # in 64 on the same trace, its counts restarted where warm-up ends
    unit = ProfilingUnit(GEOMETRY, RATIO)
    passes = Passes(CacheState(GEOMETRY), trace, unit, [], TIMING, warm_at,
                    trace.instructions)
    assert passes(0, len(trace)) == len(trace)
    for size, (misses, _, accesses) in zip(unit.sizes, size_counts(unit),
                                           strict=True):
        assert accesses > MEASURED_RECORDS // RATIO // 2
        _check(accesses - misses, accesses, size // GEOMETRY.block_bytes,
               ws_blocks, size)
