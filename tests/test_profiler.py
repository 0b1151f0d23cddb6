import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (HIT, WRITE, compiled_full_profile, estimate_misses,
                     estimate_refreshes, estimate_time, full_profile,
                     interpolate_reference, observe_arrays, observe_reference,
                     probe, profiler_overhead_bytes, replay, size_counts,
                     trace_of)
from edrsim.cache import CacheGeometry, CacheState
from edrsim.passes import Passes
from edrsim.profiler import (PROFILED_FRACTIONS, IntervalStats, ProfilingUnit,
                             TimingParams, interpolate)
from edrsim.refresh import RefreshConfig
from edrsim.trace import Op, PhaseSpec, SyntheticTraceSpec, generate_synthetic


def _trace(seed, ws_kb=96, records=30_000, reuse=0.0, writes=0.3):
    instr = records * 50
    return generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(instr, ws_kb * 1024, writes, reuse)], rng_seed=seed,
        accesses_per_kilo_instr=1000 * records / instr))


def test_full_sampling_matches_main_cache(small_geometry):
    # with the identity mapping, colored placement equals conventional modulo
    # placement, so the 1X size at full sampling tracks the cache exactly
    arrays = _trace(5, ws_kb=96)
    unit = ProfilingUnit(small_geometry, 1)
    codes = bytearray(len(arrays))
    replay(CacheState(small_geometry), arrays, 0, len(arrays), codes, unit)
    misses = sum(not code & HIT for code in codes)
    load_misses = sum(not code & (HIT | WRITE) for code in codes)
    assert unit.sizes[0] == small_geometry.size_bytes
    assert size_counts(unit)[0][:2] == (misses, load_misses)


def test_full_sampling_matches_full_profile_oracle(small_geometry):
    arrays = _trace(6, ws_kb=48)
    unit = ProfilingUnit(small_geometry, 1)
    observe_arrays(unit, arrays, small_geometry)
    assert unit.sizes == [small_geometry.size_bytes // f
                          for f in PROFILED_FRACTIONS]
    for size, (misses, load_misses, _) in zip(unit.sizes, size_counts(unit),
                                              strict=True):
        exact = full_profile(arrays, small_geometry, size)
        assert (misses, load_misses) == exact
        assert compiled_full_profile(arrays, small_geometry, size) == exact


def test_unsampled_record_leaves_counters_alone(small_geometry):
    unit = ProfilingUnit(small_geometry, 2)
    # block 1 maps to set 1 at every size: sampled sets are the even ones,
    # and the unit takes only the even blocks
    arrays = trace_of([(1, Op.READ, 64), (1, Op.READ, 128)])
    state = CacheState(small_geometry)
    codes = bytearray(2)
    replay(state, arrays, 0, 1, codes, unit)
    assert not any(unit.counts)
    assert not any(unit.fill)
    replay(state, arrays, 1, 2, codes, unit)
    assert size_counts(unit) == [(1, 1, 1)] * len(PROFILED_FRACTIONS)
    # set 2 is the second sampled set: the second row of each size
    firsts = [sum(unit.rows[:u]) for u in range(len(unit.rows))]
    assert [unit.tags[(first + 1) * unit.ways] for first in firsts] == \
        [2] * len(firsts)
    assert [i for i, n in enumerate(unit.fill) if n] == \
        [first + 1 for first in firsts]
    assert sum(unit.fill) == len(firsts)
    # the Python reference agrees
    ref = ProfilingUnit(small_geometry, 2)
    probe(ref, 1, False)
    probe(ref, 2, False)
    for name in ("tags", "fill", "counts"):
        assert getattr(unit, name) == getattr(ref, name), name


def test_replay_feeds_units_like_the_python_reference(small_geometry):
    # sim.run fills the unit inside the functional pass; it must end as the
    # unit probed record by record from the trace alone
    arrays = _trace(7, ws_kb=64, records=5_000)
    for ratio in (1, 2):
        fed = ProfilingUnit(small_geometry, ratio)
        codes = bytearray(len(arrays))
        state = CacheState(small_geometry)
        half = len(arrays) // 2  # two calls, as sim.run's segments make
        replay(state, arrays, 0, half, codes, fed)
        replay(state, arrays, half, len(arrays), codes, fed)
        want = ProfilingUnit(small_geometry, ratio)
        observe_reference(want, arrays, small_geometry)
        assert fed.tags == want.tags
        assert fed.fill == want.fill
        assert fed.counts == want.counts
        assert (0, 0, 0) not in size_counts(fed)


def test_sampled_estimates_track_full_profile(small_geometry):
    arrays = _trace(8, ws_kb=48, records=100_000)
    unit = ProfilingUnit(small_geometry, 2)
    observe_arrays(unit, arrays, small_geometry)
    m = small_geometry.color_count
    for size, frac in zip(unit.sizes, PROFILED_FRACTIONS, strict=True):
        est, _ = estimate_misses(unit, m // frac if frac <= m else 1,
                                 small_geometry)
        exact, _ = full_profile(arrays, small_geometry, size)
        assert abs(est - exact) <= 0.15 * max(exact, 1)


def test_estimate_exact_at_profiled_points(small_geometry):
    unit = ProfilingUnit(small_geometry, 1)
    arrays = _trace(9, ws_kb=32)
    observe_arrays(unit, arrays, small_geometry)
    m = small_geometry.color_count
    (one_x, half, *_) = size_counts(unit)
    assert estimate_misses(unit, m, small_geometry) == (
        float(one_x[0]), float(one_x[1]))
    assert estimate_misses(unit, m // 2, small_geometry) == (
        float(half[0]), float(half[1]))


def test_estimate_log_linear_blend(small_geometry):
    unit = ProfilingUnit(small_geometry, 1)
    # plant distinct counts, X first
    for u, n in enumerate((100, 200, 300, 400, 500)):
        unit.counts[3 * u:3 * u + 2] = array("q", [n, n // 2])
    m = small_geometry.color_count
    # 3M/8 colors: size between X/4 and X/2, blended in log2(size)
    colors = 3 * m // 8
    size = colors / m * small_geometry.size_bytes
    x2, x4 = unit.sizes[1], unit.sizes[2]
    t = ((math.log2(size) - math.log2(x4))
         / (math.log2(x2) - math.log2(x4)))
    expected = 300 + t * (200 - 300)
    got, _ = estimate_misses(unit, colors, small_geometry)
    assert got == pytest.approx(expected, rel=1e-12)


def test_estimate_clamps_below_smallest(geometry_2mb):
    unit = ProfilingUnit(geometry_2mb, 64)
    unit.counts[-3:-1] = array("q", [42, 21])  # X/16, the last size
    # 2 colors of 64 -> 64 KB, below the 128 KB (X/16) point: clamp to it
    got = estimate_misses(unit, 2, geometry_2mb)
    assert got == (42.0 * 64, 21.0 * 64)


@settings(max_examples=200, deadline=None)
@given(log_x=st.integers(7, 40),
       counts=st.lists(st.integers(0, 10**12), min_size=10, max_size=10),
       fractions=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1,
                          max_size=40),
       profiled=st.lists(st.sampled_from(PROFILED_FRACTIONS), max_size=5))
def test_one_walk_interpolation_matches_the_reference(log_x, counts,
                                                      fractions, profiled):
    # drawn counts at the five profiled sizes of X = 2**log_x bytes, priced
    # at ascending sizes in (0, X], profiled ones among them: the walk
    # gives each size what the per-size reference does, bit for bit
    x = 2 ** log_x
    points = [(x // f, math.log2(x // f), counts[2 * u], counts[2 * u + 1])
              for u, f in enumerate(PROFILED_FRACTIONS)]
    sizes = sorted([x * q for q in fractions] + [x / f for f in profiled])
    got = interpolate(points, sizes)
    want = [interpolate_reference(points, size) for size in sizes]
    assert repr(got) == repr(want)


def test_monotone_profiled_points_on_random_traces(small_geometry):
    for seed in range(8):
        unit = ProfilingUnit(small_geometry, 2)
        observe_arrays(unit, _trace(100 + seed, ws_kb=40, records=40_000),
                       small_geometry)
        # X first: misses only grow as the size shrinks
        misses = [m for m, _, _ in size_counts(unit)]
        assert misses == sorted(misses)


def test_estimate_time_self_consistency():
    # 200 cycles per load miss, as the run charged them
    timing = TimingParams(l2_hit_cycles=12, dram_latency_cycles=188)
    stats = IntervalStats(load_misses=20_000, memory_stall_cycles=4_000_000,
                          elapsed_cycles=10_000_000)
    assert estimate_time(stats, 20_000, timing) == 10_000_000
    assert estimate_time(stats, 0, timing) == 6_000_000
    assert estimate_time(stats, 30_000, timing) == 12_000_000  # 6M + 200 * 30k


def test_estimate_time_zero_load_misses():
    # an interval without a load miss still prices each estimated one at
    # the hit plus DRAM latency: 12 + 154 cycles
    stats = IntervalStats(load_misses=0, memory_stall_cycles=0,
                          elapsed_cycles=5_000)
    assert estimate_time(stats, 1_000, TimingParams()) == 5_000 + 166 * 1_000
    assert estimate_time(stats, 0, TimingParams()) == 5_000


def test_estimate_time_is_linear():
    stats = IntervalStats(load_misses=100, memory_stall_cycles=50_000,
                          elapsed_cycles=300_000)
    t0 = estimate_time(stats, 0, TimingParams())
    t1 = estimate_time(stats, 1, TimingParams())
    t500 = estimate_time(stats, 500, TimingParams())
    assert t500 == pytest.approx(t0 + 500 * (t1 - t0), rel=1e-12)


def test_estimate_refreshes_formula(geometry_2mb):
    cfg = RefreshConfig(88_000)
    assert estimate_refreshes(20_000, 64, geometry_2mb, 880_000, cfg) == 200_000
    assert estimate_refreshes(0, 64, geometry_2mb, 880_000, cfg) == 0
    # clamped by the capacity of the allocation
    cfg1g = RefreshConfig(40_000)
    small = CacheGeometry(64 * 1024, 8, page_bytes=1024, bank_bytes=32 * 1024)
    assert estimate_refreshes(1000, 4, small, 40_000, cfg1g) == \
        min(1000, 4 * small.lines_per_color)
    # an allocation's lines are proportional to its colors
    for colors, lines in ((64, 32768), (32, 16384), (4, 2048)):
        assert estimate_refreshes(10**6, colors, geometry_2mb, 88_000,
                                  cfg) == lines


def test_estimate_refreshes_monotone(geometry_2mb):
    cfg = RefreshConfig(88_000)
    base = estimate_refreshes(5_000, 8, geometry_2mb, 1_000_000, cfg)
    assert estimate_refreshes(6_000, 8, geometry_2mb, 1_000_000, cfg) >= base
    assert estimate_refreshes(5_000, 8, geometry_2mb, 2_000_000, cfg) >= base


def test_reset_interval_keeps_tags_warm(small_geometry):
    unit = ProfilingUnit(small_geometry, 1)
    arrays = _trace(12, ws_kb=16, records=8_000)
    observe_arrays(unit, arrays, small_geometry)
    unit.reset()
    assert not any(unit.counts)
    # replaying the same working set now mostly hits: tags survived the reset
    observe_arrays(unit, arrays, small_geometry)
    misses, _, accesses = size_counts(unit)[0]
    assert misses < 0.02 * accesses


def test_overhead_within_bound(geometry_2mb):
    unit = ProfilingUnit(geometry_2mb, 64)
    overhead = profiler_overhead_bytes(unit, tag_bits=30)
    assert overhead <= 0.002 * geometry_2mb.size_bytes


def test_units_reject_non_dividing_ratio(small_geometry):
    # the 64 KB cache's X/4 has 32 sets and its X/16 8; 1/64 divides neither
    with pytest.raises(ValueError, match="sampling 1/64 must divide"):
        ProfilingUnit(small_geometry, 64)


def test_replay_rejects_a_unit_of_other_associativity(small_geometry):
    # the kernel steps the unit's rows with the cache's ways
    four_way = CacheGeometry(64 * 1024, 4, page_bytes=1024,
                             bank_bytes=32 * 1024)
    with pytest.raises(ValueError, match="differ in geometry"):
        Passes(CacheState(small_geometry), trace_of([(0, Op.READ, 0)]),
               ProfilingUnit(four_way, 1), [], TimingParams(), 0, 1 << 62)
