import random

import pytest

from oracles import recompute_energy
from edrsim.energy import (EnergyParams, EnergyParamsError, SchemeKind,
                           builtin_params, interval_energy)
from edrsim.profiler import IntervalStats

GHZ = 2.2  # the core clock the energy functions take


def test_builtin_sram_values():
    p = builtin_params("SRAM_2MB")
    assert p.e_dyn_l2 == 0.648
    assert p.p_leak_l2 == 1.296
    assert p.e_dyn_dram == 70.0
    assert p.p_leak_dram == 0.18
    assert p.e_transition == 2.0
    assert p.e_dyn_prof == 0.0031
    assert p.p_leak_prof == 0.0050


def test_builtin_edram_leakage_is_one_eighth():
    assert builtin_params("EDRAM_2MB").p_leak_l2 == pytest.approx(0.162, rel=1e-12)
    assert builtin_params("EDRAM_2MB").e_dyn_l2 == 0.648


def test_unknown_technology_rejected():
    with pytest.raises(EnergyParamsError):
        builtin_params("EDRAM_8MB")


def _one_second_stats(**kw):
    return IntervalStats(elapsed_cycles=int(GHZ * 1e9), **kw)


def test_leakage_only_interval():
    p = builtin_params("EDRAM_2MB")
    stats = _one_second_stats()
    b = interval_energy(stats, p, SchemeKind.BASELINE_EDRAM, GHZ)
    assert b.le_l2 == pytest.approx(0.162, rel=1e-12)
    assert b.e_dram == pytest.approx(0.18, rel=1e-12)
    assert b.de_l2 == 0 and b.re_l2 == 0 and b.e_algo == 0


def test_dynamic_energy_miss_costs_double():
    p = builtin_params("EDRAM_2MB")
    stats = IntervalStats(l2_hits=1000, l2_misses=500)
    b = interval_energy(stats, p, SchemeKind.BASELINE_EDRAM, GHZ)
    assert b.de_l2 == pytest.approx(1.296e-6, rel=1e-12)


def test_refresh_energy_per_line():
    p = builtin_params("EDRAM_2MB")
    stats = IntervalStats(refreshed_lines=32768)
    b = interval_energy(stats, p, SchemeKind.BASELINE_EDRAM, GHZ)
    assert b.re_l2 == pytest.approx(32768 * 0.648e-9, rel=1e-12)


def test_transition_energy():
    p = builtin_params("EDRAM_2MB")
    stats = IntervalStats(switched_blocks=16384)
    b = interval_energy(stats, p, SchemeKind.DCR, GHZ)
    assert b.e_algo == pytest.approx(16384 * 2e-12, rel=1e-12)
    assert b.e_algo == pytest.approx(32.768e-9, rel=1e-12)


def test_sram_never_refreshes():
    p = builtin_params("SRAM_2MB")
    stats = IntervalStats(refreshed_lines=999)  # must be ignored
    b = interval_energy(stats, p, SchemeKind.SRAM, GHZ)
    assert b.re_l2 == 0.0


def test_non_dcr_schemes_run_full_cache_with_no_algo_cost():
    p = builtin_params("EDRAM_2MB")
    stats = _one_second_stats()
    stats.active_fraction = 0.25  # ignored outside DCR
    stats.switched_blocks = 123
    stats.prof_accesses = 456
    for kind in (SchemeKind.BASELINE_EDRAM, SchemeKind.SRAM, SchemeKind.RPV):
        b = interval_energy(stats, p, kind, GHZ)
        assert b.e_algo == 0.0 and b.e_prof == 0.0
        assert b.le_l2 == pytest.approx(p.p_leak_l2 * 1.0, rel=1e-12)


def test_dcr_scales_leakage_by_active_fraction():
    p = builtin_params("EDRAM_2MB")
    stats = _one_second_stats()
    stats.active_fraction = 0.25
    b = interval_energy(stats, p, SchemeKind.DCR, GHZ)
    assert b.le_l2 == pytest.approx(0.162 * 0.25, rel=1e-12)


def test_composition_and_linearity():
    p = builtin_params("EDRAM_2MB")
    rng = random.Random(99)
    for _ in range(200):
        stats = IntervalStats(
            l2_hits=rng.randrange(10**7), l2_misses=rng.randrange(10**6),
            refreshed_lines=rng.randrange(10**7),
            dram_accesses=rng.randrange(10**6),
            active_fraction=rng.uniform(0.05, 1.0),
            elapsed_cycles=rng.randrange(1, 10**10),
            switched_blocks=rng.randrange(10**5),
            prof_accesses=rng.randrange(10**5))
        b = interval_energy(stats, p, SchemeKind.DCR, GHZ)
        assert b.total == b.le_l2 + b.de_l2 + b.re_l2 + b.e_dram + b.e_algo
        assert min(b.le_l2, b.de_l2, b.re_l2, b.e_dram, b.e_algo) >= 0
    # linearity spot checks
    s1 = IntervalStats(refreshed_lines=1000)
    s2 = IntervalStats(refreshed_lines=3000)
    assert interval_energy(s2, p, SchemeKind.DCR, GHZ).re_l2 == \
        pytest.approx(3 * interval_energy(s1, p, SchemeKind.DCR, GHZ).re_l2,
                      rel=1e-12)


def test_interval_energy_matches_oracle_bit_for_bit():
    p = builtin_params("EDRAM_2MB")
    rng = random.Random(1)
    kinds = list(SchemeKind)
    for _ in range(500):
        stats = IntervalStats(
            l2_hits=rng.randrange(10**7), l2_misses=rng.randrange(10**6),
            refreshed_lines=rng.randrange(10**7),
            dram_accesses=rng.randrange(10**6),
            active_fraction=rng.uniform(0.05, 1.0),
            elapsed_cycles=rng.randrange(0, 10**10),
            switched_blocks=rng.randrange(10**5),
            prof_accesses=rng.randrange(10**5))
        kind = rng.choice(kinds)
        a = interval_energy(stats, p, kind, GHZ)
        b = recompute_energy(stats, p, kind, GHZ)
        assert (a.le_l2, a.de_l2, a.re_l2, a.e_dram, a.e_algo, a.e_prof,
                a.total) == (b.le_l2, b.de_l2, b.re_l2, b.e_dram, b.e_algo,
                             b.e_prof, b.total)


def test_predict_monotone_in_active_fraction():
    # the controller prices a candidate's predicted interval with
    # interval_energy: the same interval on more colors costs more
    p = builtin_params("EDRAM_2MB")
    energies = [interval_energy(
        IntervalStats(l2_hits=50_000, l2_misses=1000, refreshed_lines=10_000,
                      dram_accesses=1200, active_fraction=m / 64,
                      elapsed_cycles=5_000_000), p, SchemeKind.DCR, GHZ).total
        for m in (8, 16, 32, 64)]
    assert energies == sorted(energies)
    assert len(set(energies)) == 4


def test_negative_params_rejected():
    with pytest.raises(EnergyParamsError):
        EnergyParams(e_dyn_l2=-1, p_leak_l2=1, e_dyn_dram=1, p_leak_dram=1,
                     e_transition=1, e_dyn_prof=1, p_leak_prof=1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_params_rejected(value):
    # a NaN leakage would make every report's energy NaN, which is not JSON
    with pytest.raises(EnergyParamsError, match="finite"):
        EnergyParams(e_dyn_l2=1, p_leak_l2=value, e_dyn_dram=1,
                     p_leak_dram=1, e_transition=1, e_dyn_prof=1,
                     p_leak_prof=1)
