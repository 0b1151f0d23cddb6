import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import HIT, WRITE, replay, select_reference, size_counts
from edrsim.cache import CacheGeometry, CacheState, reconfigure
from edrsim.controller import (Candidate, ControllerConfig, Decision,
                               candidate_space, default_config, select)
from edrsim.energy import EnergyParams, builtin_params
from edrsim.profiler import (PROFILED_FRACTIONS, IntervalStats, ProfilingUnit,
                             TimingParams)
from edrsim.refresh import RefreshConfig
from edrsim.trace import PhaseSpec, SyntheticTraceSpec, generate_synthetic

# select() charges 12 + 154 cycles per load miss and scores candidates at
# a 2 GHz clock
TIMING = TimingParams(clock_ghz=2.0)


def brute_force_space(current, total, cfg):
    return [c for c in range(total + 1)
            if cfg.c_min <= c <= total
            and c % cfg.granularity == 0
            and abs(c - current) <= cfg.delta]


def test_space_from_full_size():
    cfg = ControllerConfig(c_min=4)
    assert candidate_space(64, 64, cfg) == list(range(48, 65, 2))
    assert len(candidate_space(64, 64, cfg)) == 9


def test_space_from_minimum():
    cfg = ControllerConfig(c_min=4)
    assert candidate_space(4, 64, cfg) == list(range(4, 21, 2))
    assert len(candidate_space(4, 64, cfg)) == 9


def test_space_with_wide_delta_covers_everything():
    cfg = ControllerConfig(c_min=4, delta=64)
    assert candidate_space(64, 64, cfg) == list(range(4, 65, 2))


def test_space_matches_brute_force():
    rng = random.Random(7)
    for total in (16, 32, 64, 128):
        for _ in range(40):
            cfg = ControllerConfig(c_min=rng.randint(1, max(1, total // 8)),
                                   delta=rng.choice([2, 4, 8, 16, 32]),
                                   granularity=2)
            current = rng.randint(cfg.c_min, total)
            assert candidate_space(current, total, cfg) == \
                brute_force_space(current, total, cfg)


def test_delta_pct(small_geometry):
    # a candidate's slowdown is its time estimate over the full size's, in
    # percent; with no full-size time select() keeps the allocation instead
    # (test_select_keeps_the_allocation_without_a_full_size_time)
    state, unit, stats = _prepped_state_and_unit(small_geometry, ws_kb=24)
    decision = select(stats, unit, state, RefreshConfig(2000),
                      default_config(small_geometry, delta=8),
                      builtin_params("EDRAM_2MB"), TIMING)
    full = next(c for c in decision.candidates
                if c.colors == small_geometry.color_count)
    assert full.delta_pct == 0.0
    for cand in decision.candidates:
        assert cand.delta_pct == pytest.approx(
            (cand.est_time_cycles - full.est_time_cycles)
            / full.est_time_cycles * 100.0)


def _prepped_state_and_unit(geometry, ws_kb, seed=3, records=40_000):
    arrays = generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(records * 50, ws_kb * 1024, 0.3, 0.0)],
        rng_seed=seed, accesses_per_kilo_instr=20))
    state = CacheState(geometry)
    unit = ProfilingUnit(geometry, 2)
    codes = bytearray(len(arrays))
    replay(state, arrays, 0, len(arrays), codes, unit)
    hits = sum(bool(code & HIT) for code in codes)
    misses = len(arrays) - hits
    load_misses = sum(not code & (HIT | WRITE) for code in codes)
    stats = IntervalStats(
        instructions=arrays.instructions, l2_hits=hits, l2_misses=misses,
        load_misses=load_misses, memory_stall_cycles=load_misses * 166,
        dram_accesses=misses, elapsed_cycles=arrays.instructions
        + (hits + misses) * 12 + misses * 154,
        active_fraction=1.0,
        prof_accesses=sum(a for _, _, a in size_counts(unit)))
    return state, unit, stats


def test_select_prefers_small_when_working_set_is_tiny(small_geometry):
    state, unit, stats = _prepped_state_and_unit(small_geometry, ws_kb=4)
    cfg = default_config(small_geometry, delta=8)
    refresh = RefreshConfig(2000)
    params = builtin_params("EDRAM_2MB")
    decision = select(stats, unit, state, refresh, cfg, params, TIMING)
    assert decision.chosen == min(candidate_space(
        state.active_count, small_geometry.color_count, cfg))
    assert not decision.fail_safe


def test_select_is_deterministic(small_geometry):
    state, unit, stats = _prepped_state_and_unit(small_geometry, ws_kb=24)
    cfg = default_config(small_geometry, delta=8)
    refresh = RefreshConfig(2000)
    params = builtin_params("EDRAM_2MB")
    one = select(stats, unit, state, refresh, cfg, params, TIMING)
    two = select(stats, unit, state, refresh, cfg, params, TIMING)
    assert one == two


def test_select_chosen_is_in_space_and_beats_current(small_geometry):
    state, unit, stats = _prepped_state_and_unit(small_geometry, ws_kb=24)
    cfg = default_config(small_geometry, delta=4)
    refresh = RefreshConfig(2000)
    params = builtin_params("EDRAM_2MB")
    decision = select(stats, unit, state, refresh, cfg, params, TIMING)
    space = candidate_space(state.active_count, small_geometry.color_count, cfg)
    assert decision.chosen in space
    current_cand = next(c for c in decision.candidates
                        if c.colors == state.active_count)
    chosen_cand = next(c for c in decision.candidates
                       if c.colors == decision.chosen)
    if not current_cand.rejected_by_beta:
        assert chosen_cand.est_energy_j <= current_cand.est_energy_j


def test_beta_filter_rejects_slow_candidates(small_geometry):
    # hand-built scenario: the small candidate is cheapest but too slow
    state, unit, stats = _prepped_state_and_unit(small_geometry, ws_kb=48)
    slow = TimingParams(dram_latency_cycles=788, clock_ghz=2.0)  # exaggerate
    stats.memory_stall_cycles = stats.load_misses * 800  # 12 + 788 per miss
    stats.elapsed_cycles = stats.memory_stall_cycles * 2
    cfg = default_config(small_geometry, beta=3.0, delta=8)
    refresh = RefreshConfig(2000)
    params = builtin_params("EDRAM_2MB")
    decision = select(stats, unit, state, refresh, cfg, params, slow)
    for cand in decision.candidates:
        if cand.rejected_by_beta:
            assert cand.delta_pct > cfg.beta
            assert decision.chosen != cand.colors or decision.fail_safe


def test_fail_safe_when_everything_breaches_beta(small_geometry):
    state, unit, stats = _prepped_state_and_unit(small_geometry, ws_kb=48)
    state2 = CacheState(small_geometry)
    reconfigure(state2, 1)  # one active color, every region in it
    # fake a situation where even the largest reachable candidate is slow:
    # current = 1 color, delta = 2, and stalls dominate; no miss at X
    planted = ProfilingUnit(small_geometry, 2)
    planted.counts[:] = array("q", [0, 0, 0] + [10_000, 8_000, 0] * (
        len(PROFILED_FRACTIONS) - 1))
    stats.load_misses = 8_000
    stats.memory_stall_cycles = 8_000 * 166
    stats.elapsed_cycles = stats.memory_stall_cycles + 1_000_000
    cfg = ControllerConfig(c_min=1, delta=2, beta=3.0)
    refresh = RefreshConfig(2000)
    params = builtin_params("EDRAM_2MB")
    decision = select(stats, planted, state2, refresh, cfg, params, TIMING)
    assert decision.fail_safe
    assert all(c.rejected_by_beta for c in decision.candidates)
    # least-bad candidate: minimal slowdown
    min_delta = min(c.delta_pct for c in decision.candidates)
    chosen = next(c for c in decision.candidates if c.colors == decision.chosen)
    assert chosen.delta_pct == min_delta


def test_select_keeps_the_allocation_without_a_full_size_time(small_geometry):
    # no compute, and no load miss sampled at the full size: the full-size
    # estimate is 0 cycles, so no slowdown can be weighed against it
    state = CacheState(small_geometry)
    reconfigure(state, 4)
    planted = ProfilingUnit(small_geometry, 2)
    planted.counts[:] = array("q", [0, 0, 0] + [10_000, 8_000, 0] * (
        len(PROFILED_FRACTIONS) - 1))
    stats = IntervalStats(l2_misses=8_000, load_misses=8_000,
                          memory_stall_cycles=8_000 * 166,
                          elapsed_cycles=8_000 * 166, dram_accesses=8_000)
    decision = select(stats, planted, state, RefreshConfig(2000),
                      ControllerConfig(c_min=1, delta=8),
                      builtin_params("EDRAM_2MB"), TIMING)
    assert decision == Decision(4, 4, False, [])


def test_tie_break_toward_fewer_colors(small_geometry):
    # identical energies force the tie-break
    cands = [Candidate(colors=c, est_time_cycles=100.0, delta_pct=0.0,
                       est_energy_j=1.0, rejected_by_beta=False)
             for c in (4, 6, 8)]
    best = min(cands, key=lambda c: (c.est_energy_j, c.colors))
    assert best.colors == 4


def test_argmin_invariant_under_uniform_scaling(small_geometry):
    state, unit, stats = _prepped_state_and_unit(small_geometry, ws_kb=24)
    cfg = default_config(small_geometry, delta=8)
    refresh = RefreshConfig(2000)
    params = builtin_params("EDRAM_2MB")
    decision = select(stats, unit, state, refresh, cfg, params, TIMING)
    survivors = [c for c in decision.candidates if not c.rejected_by_beta]
    scaled = [Candidate(c.colors, c.est_time_cycles, c.delta_pct,
                        c.est_energy_j * 7.5, c.rejected_by_beta)
              for c in survivors]
    best_scaled = min(scaled, key=lambda c: (c.est_energy_j, c.colors))
    assert best_scaled.colors == decision.chosen


def test_controller_converges_on_small_working_set():
    # 64 KB working set on the 2 MB / 64-color cache: the controller walks
    # down delta colors per interval and reaches c_min in ceil((M-c_min)/delta)
    # decisions (four, from 64 to 4 with delta=16)
    from edrsim.energy import SchemeKind
    from edrsim.sim import SchemeSpec, TimingParams, run

    geometry = CacheGeometry(2 * 1024 * 1024, 8)
    arrays = generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(3_000_000, 64 * 1024, 0.3, 0.3)], rng_seed=10))
    scheme = SchemeSpec(
        kind=SchemeKind.DCR, refresh=RefreshConfig(88_000),
        controller=default_config(geometry, sampling_ratio_denom=64))
    report = run(arrays, scheme, geometry, TimingParams(),
                 builtin_params("EDRAM_2MB"), warmup_instructions=200_000,
                 interval_instructions=400_000)
    chosen = [d.chosen for d in report.decisions]
    assert len(chosen) >= 5
    assert chosen[3] <= scheme.controller.c_min + scheme.controller.granularity
    assert all(c <= scheme.controller.c_min + scheme.controller.granularity
               for c in chosen[3:])


def test_default_config_c_min_is_sixteenth():
    g = CacheGeometry(2 * 1024 * 1024, 8)
    assert default_config(g).c_min == 4
    assert default_config(g).delta == 16
    assert default_config(g).beta == 3.0
    assert default_config(g).granularity == 2


# 8, 32 and 64 colors; every sampling ratio drawn below divides the sets
# of each emulated size
_GEOMETRIES = (
    CacheGeometry(size_bytes=64 * 1024, associativity=8, page_bytes=1024,
                  bank_bytes=32 * 1024),
    CacheGeometry(size_bytes=64 * 1024, associativity=8, page_bytes=256,
                  bank_bytes=16 * 1024),
    CacheGeometry(size_bytes=2 * 1024 * 1024, associativity=8),
)
_COUNTS = st.integers(0, 10**9)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_select_matches_select_reference(data):
    # the scalar candidate pricing against IntervalStats + interval_energy
    # per candidate, on drawn profiling counts, stats and allocations:
    # equal Decisions, every float bit for bit
    g = data.draw(st.sampled_from(_GEOMETRIES))
    m = g.color_count
    granularity = data.draw(st.integers(1, 8))
    cfg = ControllerConfig(
        c_min=data.draw(st.integers(1, m)), granularity=granularity,
        delta=data.draw(st.integers(granularity, m)),
        beta=data.draw(st.floats(0.01, 100.0)))
    current = data.draw(st.integers(cfg.c_min, m))
    if not candidate_space(current, m, cfg):
        return
    unit = ProfilingUnit(g, data.draw(st.sampled_from([1, 2, 8])))
    unit.counts[:] = array("q", data.draw(
        st.lists(_COUNTS, min_size=15, max_size=15)))
    state = CacheState(g)
    reconfigure(state, current)
    lines = g.total_lines // g.num_banks
    state.valid_by_bank[:] = array("q", data.draw(st.lists(
        st.integers(0, lines), min_size=g.num_banks, max_size=g.num_banks)))
    load_misses = data.draw(_COUNTS)
    misses = load_misses + data.draw(_COUNTS)
    stall = load_misses * 166
    stats = IntervalStats(
        instructions=data.draw(_COUNTS),
        l2_hits=data.draw(_COUNTS), l2_misses=misses,
        load_misses=load_misses, memory_stall_cycles=stall,
        refreshed_lines=data.draw(_COUNTS),
        dram_accesses=data.draw(st.integers(0, 2 * misses + 1)),
        active_fraction=current / m,
        elapsed_cycles=stall + data.draw(st.integers(0, 10**10)),
        switched_blocks=data.draw(_COUNTS),
        prof_accesses=data.draw(_COUNTS))
    refresh = RefreshConfig(data.draw(st.integers(1, 10**7)))
    params = data.draw(st.one_of(
        st.just(builtin_params("EDRAM_2MB")),
        st.lists(st.floats(0.0, 1e3), min_size=7, max_size=7).map(
            lambda values: EnergyParams(*values))))
    timing = TimingParams(
        l2_hit_cycles=data.draw(st.integers(1, 50)),
        dram_latency_cycles=data.draw(st.integers(50, 500)),
        clock_ghz=data.draw(st.floats(0.1, 10.0)))
    got = select(stats, unit, state, refresh, cfg, params, timing)
    want = select_reference(stats, unit, state, refresh, cfg, params, timing)
    assert got == want
    assert repr(got) == repr(want)  # -0.0 against 0.0 too
