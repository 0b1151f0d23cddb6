import math
from array import array

import pytest

from oracles import (compiled_full_profile, full_profile, observe_arrays,
                     observe_reference, probe, replay, trace_of)
from edrsim.cache import HIT, WRITE, CacheGeometry, CacheState, Passes, Replay
from edrsim.profiler import (IntervalStats, estimate_misses,
                             estimate_refreshes, estimate_time, make_units,
                             profiler_overhead_bytes, reset_interval)
from edrsim.refresh import RefreshConfig
from edrsim.trace import Op, PhaseSpec, SyntheticTraceSpec, generate_synthetic


def _trace(seed, ws_kb=96, records=30_000, reuse=0.0, writes=0.3):
    instr = records * 50
    return generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(instr, ws_kb * 1024, writes, reuse)], rng_seed=seed,
        accesses_per_kilo_instr=1000 * records / instr))


def test_full_sampling_matches_main_cache(small_geometry):
    # with the identity mapping, colored placement equals conventional modulo
    # placement, so the 1X unit at full sampling tracks the cache exactly
    arrays = _trace(5, ws_kb=96)
    units = make_units(small_geometry, sample_ratio_denom=1)
    out = Replay(small_geometry, len(arrays))
    replay(CacheState(small_geometry), arrays.addrs, arrays.ops,
           0, len(arrays), out, units)
    misses = sum(not code & HIT for code in out.codes)
    load_misses = sum(not code & (HIT | WRITE) for code in out.codes)
    one_x = max(units, key=lambda u: u.emulated_size)
    assert one_x.misses == misses
    assert one_x.load_misses == load_misses


def test_full_sampling_matches_full_profile_oracle(small_geometry):
    arrays = _trace(6, ws_kb=48)
    units = make_units(small_geometry, sample_ratio_denom=1)
    observe_arrays(units, arrays, small_geometry)
    for unit in units:
        exact = full_profile(arrays, small_geometry, unit.emulated_size)
        assert (unit.misses, unit.load_misses) == exact
        assert compiled_full_profile(arrays, small_geometry,
                                     unit.emulated_size) == exact


def test_unsampled_record_leaves_counters_alone(small_geometry):
    units = make_units(small_geometry, sample_ratio_denom=2)
    # block 1 maps to set 1 in every unit: sampled sets are the even ones,
    # and the units take only the even blocks
    arrays = trace_of([(1, Op.READ, 64), (1, Op.READ, 128)])
    state = CacheState(small_geometry)
    out = Replay(small_geometry, 2)
    replay(state, arrays.addrs, arrays.ops, 0, 1, out, units)
    assert all(u.accesses == 0 and u.misses == 0 for u in units)
    assert not any(any(u.fill) for u in units)
    replay(state, arrays.addrs, arrays.ops, 1, 2, out, units)
    assert all(u.accesses == 1 and u.misses == 1 for u in units)
    # set 2 is the second sampled set
    assert all(u.tags[u.associativity] == 2 and u.fill.tolist() == [0, 1] + [
        0] * (len(u.fill) - 2) for u in units)
    # the Python reference agrees
    ref = make_units(small_geometry, sample_ratio_denom=2)
    for unit in ref:
        probe(unit, 1, False)
        probe(unit, 2, False)
    for a, b in zip(units, ref):
        assert (a.tags.tolist(), a.fill.tolist(), a.accesses, a.misses) == \
            (b.tags.tolist(), b.fill.tolist(), b.accesses, b.misses)


def test_replay_feeds_units_like_the_python_reference(small_geometry):
    # sim.run fills the units inside the functional pass; they must end as
    # the units probed record by record from the trace alone
    arrays = _trace(7, ws_kb=64, records=5_000)
    for ratio in (1, 2):
        fed = make_units(small_geometry, sample_ratio_denom=ratio)
        out = Replay(small_geometry, len(arrays))
        state = CacheState(small_geometry)
        half = len(arrays) // 2  # two calls, as sim.run's segments make
        replay(state, arrays.addrs, arrays.ops, 0, half, out, fed)
        replay(state, arrays.addrs, arrays.ops, half, len(arrays), out, fed)
        want = make_units(small_geometry, sample_ratio_denom=ratio)
        observe_reference(want, arrays, small_geometry)
        for a, b in zip(fed, want):
            assert a.tags.tolist() == b.tags.tolist()
            assert a.fill.tolist() == b.fill.tolist()
            assert (a.misses, a.load_misses, a.accesses) == \
                (b.misses, b.load_misses, b.accesses) != (0, 0, 0)


def test_sampled_estimates_track_full_profile(small_geometry):
    arrays = _trace(8, ws_kb=48, records=100_000)
    units = make_units(small_geometry, sample_ratio_denom=2)
    observe_arrays(units, arrays, small_geometry)
    m = small_geometry.color_count
    for unit, frac in zip(sorted(units, key=lambda u: -u.emulated_size),
                          (1, 2, 4, 8, 16)):
        est, _ = estimate_misses(units, m // frac if frac <= m else 1,
                                 small_geometry)
        exact, _ = full_profile(arrays, small_geometry, unit.emulated_size)
        assert abs(est - exact) <= 0.15 * max(exact, 1)


def test_estimate_exact_at_profiled_points(small_geometry):
    units = make_units(small_geometry, sample_ratio_denom=1)
    arrays = _trace(9, ws_kb=32)
    observe_arrays(units, arrays, small_geometry)
    m = small_geometry.color_count
    one_x = max(units, key=lambda u: u.emulated_size)
    half = sorted(units, key=lambda u: u.emulated_size)[-2]
    assert estimate_misses(units, m, small_geometry) == (
        float(one_x.misses), float(one_x.load_misses))
    assert estimate_misses(units, m // 2, small_geometry) == (
        float(half.misses), float(half.load_misses))


def test_estimate_log_linear_blend(small_geometry):
    units = make_units(small_geometry, sample_ratio_denom=1)
    by_size = sorted(units, key=lambda u: u.emulated_size)
    # plant distinct counts: X/4 unit and X/2 unit
    for u, n in zip(by_size, (500, 400, 300, 200, 100)):
        u.misses = n
        u.load_misses = n // 2
    m = small_geometry.color_count
    # 3M/8 colors: size between X/4 and X/2, blended in log2(size)
    colors = 3 * m // 8
    size = colors / m * small_geometry.size_bytes
    x4, x2 = by_size[-3], by_size[-2]
    t = ((math.log2(size) - math.log2(x4.emulated_size))
         / (math.log2(x2.emulated_size) - math.log2(x4.emulated_size)))
    expected = x4.misses + t * (x2.misses - x4.misses)
    got, _ = estimate_misses(units, colors, small_geometry)
    assert got == pytest.approx(expected, rel=1e-12)


def test_estimate_clamps_below_smallest(geometry_2mb):
    units = make_units(geometry_2mb, sample_ratio_denom=64)
    smallest = min(units, key=lambda u: u.emulated_size)
    smallest.misses = 42
    smallest.load_misses = 21
    # 2 colors of 64 -> 64 KB, below the 128 KB (X/16) point: clamp to it
    got = estimate_misses(units, 2, geometry_2mb)
    assert got == (42.0 * 64, 21.0 * 64)


def test_monotone_profiled_points_on_random_traces(small_geometry):
    for seed in range(8):
        units = make_units(small_geometry, sample_ratio_denom=2)
        observe_arrays(units, _trace(100 + seed, ws_kb=40, records=40_000),
                       small_geometry)
        by_size = sorted(units, key=lambda u: u.emulated_size)
        misses = [u.misses for u in by_size]
        assert misses == sorted(misses, reverse=True) or all(
            misses[i] >= misses[i + 1] for i in range(len(misses) - 1))


def test_estimate_time_self_consistency():
    stats = IntervalStats(load_misses=20_000, memory_stall_cycles=4_000_000,
                          elapsed_cycles=10_000_000)
    assert estimate_time(stats, 20_000) == 10_000_000
    assert estimate_time(stats, 0) == 6_000_000
    assert estimate_time(stats, 30_000) == 12_000_000  # 6M + 200 * 30k


def test_estimate_time_zero_load_misses():
    stats = IntervalStats(load_misses=0, memory_stall_cycles=0,
                          elapsed_cycles=5_000)
    assert estimate_time(stats, 1_000) == 5_000


def test_estimate_time_is_linear():
    stats = IntervalStats(load_misses=100, memory_stall_cycles=50_000,
                          elapsed_cycles=300_000)
    t0 = estimate_time(stats, 0)
    t1 = estimate_time(stats, 1)
    t500 = estimate_time(stats, 500)
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


def test_estimate_refreshes_monotone(geometry_2mb):
    cfg = RefreshConfig(88_000)
    base = estimate_refreshes(5_000, 8, geometry_2mb, 1_000_000, cfg)
    assert estimate_refreshes(6_000, 8, geometry_2mb, 1_000_000, cfg) >= base
    assert estimate_refreshes(5_000, 8, geometry_2mb, 2_000_000, cfg) >= base


def test_reset_interval_keeps_tags_warm(small_geometry):
    units = make_units(small_geometry, sample_ratio_denom=1)
    arrays = _trace(12, ws_kb=16, records=8_000)
    observe_arrays(units, arrays, small_geometry)
    reset_interval(units)
    assert all(u.misses == 0 and u.accesses == 0 for u in units)
    # replaying the same working set now mostly hits: tags survived the reset
    observe_arrays(units, arrays, small_geometry)
    one_x = max(units, key=lambda u: u.emulated_size)
    assert one_x.misses < 0.02 * one_x.accesses


def test_overhead_within_bound(geometry_2mb):
    units = make_units(geometry_2mb, sample_ratio_denom=64)
    overhead = profiler_overhead_bytes(units, tag_bits=30)
    assert overhead <= 0.002 * geometry_2mb.size_bytes


def test_units_reject_non_dividing_ratio(small_geometry):
    # smallest unit of the 64 KB cache has 8 sets; 1/64 cannot divide it
    with pytest.raises(ValueError):
        make_units(small_geometry, sample_ratio_denom=64)


def test_replay_rejects_units_with_two_sampling_ratios(small_geometry):
    # the units' one ratio picks the blocks they see: with two, a block
    # offered at one ratio could fall in a set the other does not sample
    units = make_units(small_geometry, sample_ratio_denom=1)
    units[1:] = make_units(small_geometry, sample_ratio_denom=2)[1:]
    passes = Passes(small_geometry, array("Q", [0]), Replay(small_geometry, 1))
    with pytest.raises(ValueError, match="one sampling ratio"):
        passes.bind_cache(CacheState(small_geometry), bytearray(1), units)
