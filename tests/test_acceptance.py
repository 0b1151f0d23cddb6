"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import contextlib
import os
import random
import time

import pytest

from oracles import (compiled_full_profile, full_profile, observe_arrays,
                     profiler_overhead_bytes, recompute_energy, replay_codes,
                     size_counts, timeline_oracle, trace_of, validate_state)
from edrsim.cache import CacheGeometry, CacheState, reconfigure
from edrsim.cli import main as cli_main
from edrsim.controller import ControllerConfig, candidate_space, default_config
from edrsim.energy import SchemeKind, builtin_params, interval_energy
from edrsim.profiler import IntervalStats, ProfilingUnit
from edrsim.refresh import RefreshConfig
from edrsim.sim import SchemeSpec, TimingParams, compare
from edrsim.trace import Op, PhaseSpec, SyntheticTraceSpec, generate_synthetic


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} [{label}]: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {num:2d} [{label}]: PASS", flush=True)


# --- shared expensive artifacts -------------------------------------------

GEOMETRY_2MB = CacheGeometry(2 * 1024 * 1024, 8)
TIMING = TimingParams()  # 12 / 154 cycles, CPI 1.0, 2.2 GHz


def _phase_trace(seed=42):
    return generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(10_000_000, 64 * 1024, 0.3, 0.5),
                PhaseSpec(10_000_000, 1024 * 1024, 0.3, 0.5),
                PhaseSpec(10_000_000, 128 * 1024, 0.3, 0.5)],
        rng_seed=seed, accesses_per_kilo_instr=20))


def _schemes(retention_us):
    cycles = retention_us * 2200  # at 2.2 GHz
    return [
        SchemeSpec(kind=SchemeKind.BASELINE_EDRAM,
                   refresh=RefreshConfig(cycles)),
        SchemeSpec(kind=SchemeKind.RPV, refresh=RefreshConfig(cycles, 4)),
        SchemeSpec(kind=SchemeKind.DCR, refresh=RefreshConfig(cycles),
                   controller=default_config(GEOMETRY_2MB)),
    ]


@pytest.fixture(scope="module")
def ordering_runs():
    """Baseline/RPV/DCR comparisons of the three-phase trace at 40 and 30 us."""
    trace = _phase_trace()
    out = {}
    for retention in (40, 30):
        out[retention] = compare(trace, _schemes(retention), GEOMETRY_2MB,
                                 TIMING, builtin_params("EDRAM_2MB"),
                                 warmup_instructions=3_000_000,
                                 interval_instructions=500_000)
    return out


# --- criteria --------------------------------------------------------------

def test_criterion_1_refresh_safety(tiny_geometry):
    started = time.monotonic()
    with criterion(1, "refresh safety"):
        cfg_whole = RefreshConfig(2000)
        cfg_rpv = RefreshConfig(2000, 4)
        for seed in range(1000):
            rng = random.Random(seed)
            records = trace_of((rng.randint(0, 30),
                                Op.WRITE if rng.random() < 0.4 else Op.READ,
                                rng.randrange(24 * 1024 // 64) * 64)
                               for _ in range(400))  # > 3 retention periods
            for policy, cfg in (("refresh_all", cfg_whole),
                                ("rpv", cfg_rpv),
                                ("valid_only", cfg_whole)):
                verdict = timeline_oracle(records, policy, cfg, tiny_geometry)
                assert verdict.ok, f"seed {seed} {policy}: {verdict.detail}"
        # a polyphase policy that skips one phase must be caught
        records = trace_of([(1600, Op.WRITE, 0x80), (6000, Op.READ, 0x2000)])
        assert timeline_oracle(records, "rpv", cfg_rpv, tiny_geometry).ok
        broken = timeline_oracle(records, "rpv", cfg_rpv, tiny_geometry,
                                 skip_phases={3})
        assert not broken.ok
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_2_counter_scan_equivalence(small_geometry):
    started = time.monotonic()
    with criterion(2, "counter/scan equivalence"):
        m = small_geometry.color_count
        for seed in range(50):
            arrays = generate_synthetic(SyntheticTraceSpec(
                phases=[PhaseSpec(500_000, 48 * 1024, 0.4, 0.3)],
                rng_seed=seed, accesses_per_kilo_instr=20))
            rng = random.Random(1000 + seed)
            state = CacheState(small_geometry)
            for lo in range(0, 10_000, 1000):
                replay_codes(state, arrays, lo, lo + 1000)
                # forced reconfiguration
                reconfigure(state, rng.randint(1, m))
            verdict = validate_state(state)
            assert verdict.ok, f"seed {seed}: {verdict.first_divergence}"
        elapsed = time.monotonic() - started
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_3_energy_model_exactness():
    started = time.monotonic()
    with criterion(3, "energy-model exactness"):
        params = builtin_params("EDRAM_2MB")
        rng = random.Random(2024)
        kinds = list(SchemeKind)
        for _ in range(10_000):
            stats = IntervalStats(
                l2_hits=rng.randrange(10**8), l2_misses=rng.randrange(10**7),
                load_misses=rng.randrange(10**6),
                refreshed_lines=rng.randrange(10**8),
                dram_accesses=rng.randrange(10**7),
                active_fraction=rng.uniform(1 / 16, 1.0),
                elapsed_cycles=rng.randrange(0, 10**11),
                switched_blocks=rng.randrange(10**5),
                prof_accesses=rng.randrange(10**6))
            kind = rng.choice(kinds)
            got = interval_energy(stats, params, kind, TIMING.clock_ghz)
            want = recompute_energy(stats, params, kind, TIMING.clock_ghz)
            assert (got.le_l2, got.de_l2, got.re_l2, got.e_dram, got.e_algo,
                    got.e_prof, got.total) == \
                   (want.le_l2, want.de_l2, want.re_l2, want.e_dram,
                    want.e_algo, want.e_prof, want.total)
        # worked values
        one_second = IntervalStats(elapsed_cycles=int(2.2e9))
        b = interval_energy(one_second, params, SchemeKind.BASELINE_EDRAM,
                            TIMING.clock_ghz)
        assert abs(b.le_l2 - 0.162) / 0.162 < 1e-12
        assert abs(b.e_dram - 0.18) / 0.18 < 1e-12
        d = interval_energy(IntervalStats(l2_hits=1000, l2_misses=500),
                            params, SchemeKind.BASELINE_EDRAM, TIMING.clock_ghz)
        assert abs(d.de_l2 - 1.296e-6) / 1.296e-6 < 1e-12
        elapsed = time.monotonic() - started
        assert elapsed < 5, f"took {elapsed:.1f}s"


def test_criterion_4_candidate_space_exactness():
    started = time.monotonic()
    with criterion(4, "candidate-space exactness"):
        for total in (16, 32, 64, 128):
            c_mins = sorted({1, 2, max(1, total // 16), max(1, total // 8)})
            for c_min in c_mins:
                for delta in (2, 4, 8, 16, 32):
                    cfg = ControllerConfig(c_min=c_min, delta=delta)
                    for current in range(c_min, total + 1):
                        got = candidate_space(current, total, cfg)
                        want = [c for c in range(total + 1)
                                if cfg.c_min <= c <= total
                                and c % cfg.granularity == 0
                                and abs(c - current) <= cfg.delta]
                        assert got == want, (total, c_min, delta, current)
                        # within delta colors both ways: at most delta+1
                        # even candidates; the one-sided bound delta/2+1
                        # applies when the window is clipped at a boundary
                        assert len(got) <= delta + 1
                        if current == total or current <= cfg.c_min:
                            assert len(got) <= delta // 2 + 1
        elapsed = time.monotonic() - started
        assert elapsed < 5, f"took {elapsed:.1f}s"


def test_criterion_5_scheme_ordering_at_40us(ordering_runs):
    started = time.monotonic()
    with criterion(5, "scheme ordering at 40us"):
        report = ordering_runs[40]
        energy = {name: rep.total_energy_j
                  for name, rep in report.reports.items()}
        assert energy["dcr"] < energy["rpv"] < energy["baseline_edram"]
        rows = {r.scheme: r for r in report.rows}
        assert rows["dcr"].delta_rpki > rows["rpv"].delta_rpki > 0
        # fixture construction dominates; keep the stated ceiling anyway
        assert time.monotonic() - started < 300


def test_criterion_6_smaller_retention_increases_savings(ordering_runs):
    with criterion(6, "retention-period direction"):
        saved_40 = {r.scheme: r.pct_energy_saved
                    for r in ordering_runs[40].rows}
        saved_30 = {r.scheme: r.pct_energy_saved
                    for r in ordering_runs[30].rows}
        assert saved_30["dcr"] > saved_40["dcr"]
        assert saved_30["rpv"] > saved_40["rpv"]


def test_criterion_7_sram_crossover_direction():
    with criterion(7, "SRAM crossover direction"):
        from edrsim.sim import run

        trace = generate_synthetic(SyntheticTraceSpec(
            phases=[PhaseSpec(20_000_000, 256 * 1024, 0.3, 0.5)],
            rng_seed=5, accesses_per_kilo_instr=1.0))  # low access rate
        edram = builtin_params("EDRAM_2MB")
        sram_rep = run(trace, SchemeSpec(kind=SchemeKind.SRAM,
                                         energy=builtin_params("SRAM_2MB")),
                       GEOMETRY_2MB, TIMING, edram)
        margins = []
        for retention in (40, 30, 20, 10):
            base_rep = run(trace, SchemeSpec(
                kind=SchemeKind.BASELINE_EDRAM,
                refresh=RefreshConfig(retention * 2200)),
                GEOMETRY_2MB, TIMING, edram)
            margins.append((sram_rep.total_energy_j - base_rep.total_energy_j)
                           / sram_rep.total_energy_j * 100.0)
        # SRAM costs more than the eDRAM baseline at 40us
        assert margins[0] > 0
        # and the eDRAM margin shrinks monotonically as retention shrinks
        assert margins[0] > margins[1] > margins[2] > margins[3]


def test_criterion_8_dcr_performance_bounds(ordering_runs):
    with criterion(8, "DCR performance-loss bound"):
        report = ordering_runs[40]
        rows = {r.scheme: r for r in report.rows}
        assert rows["dcr"].delta_mpki <= 1.0
        dcr_cycles = report.reports["dcr"].total_cycles
        base_cycles = report.reports["baseline_edram"].total_cycles
        assert dcr_cycles <= base_cycles


def test_criterion_9_profiler_fidelity():
    with criterion(9, "profiler fidelity"):
        # 1/64 sampling within +/-15% of the exhaustive profile, 10 seeds;
        # the exhaustive profile is the compiled oracle, pinned to the
        # Python one on the ratio-1 traces below
        for seed in range(10):
            trace = generate_synthetic(SyntheticTraceSpec(
                phases=[PhaseSpec(500_000_000, 512 * 1024, 0.3, 0.0)],
                rng_seed=300 + seed, accesses_per_kilo_instr=20))
            assert len(trace) == 10_000_000
            unit = ProfilingUnit(GEOMETRY_2MB, 64)
            observe_arrays(unit, trace, GEOMETRY_2MB)
            for size, (misses, load_misses, _) in zip(unit.sizes,
                                                      size_counts(unit)):
                exact, exact_loads = compiled_full_profile(
                    trace, GEOMETRY_2MB, size)
                est = misses * 64
                est_loads = load_misses * 64
                assert abs(est - exact) <= 0.15 * max(exact, 1), \
                    (seed, size, est, exact)
                assert abs(est_loads - exact_loads) <= 0.15 * max(exact_loads, 1)
        # at sampling ratio 1: exact equality with both oracles
        for seed in (77, 78):
            trace = generate_synthetic(SyntheticTraceSpec(
                phases=[PhaseSpec(50_000_000, 256 * 1024, 0.3, 0.0)],
                rng_seed=seed, accesses_per_kilo_instr=20))
            unit = ProfilingUnit(GEOMETRY_2MB, 1)
            observe_arrays(unit, trace, GEOMETRY_2MB)
            for size, (misses, load_misses, _) in zip(unit.sizes,
                                                      size_counts(unit)):
                exact = full_profile(trace, GEOMETRY_2MB, size)
                assert (misses, load_misses) == exact
                assert compiled_full_profile(trace, GEOMETRY_2MB,
                                             size) == exact
        # tag-only storage bound at 1/64 with 30-bit tags
        unit = ProfilingUnit(GEOMETRY_2MB, 64)
        assert profiler_overhead_bytes(unit, tag_bits=30) \
            <= 0.002 * GEOMETRY_2MB.size_bytes


ACCEPT_CONFIG = """
[geometry]
l2_size_kb = 2048

[timing]
clock_ghz = 2.2

[energy]
builtin = EDRAM_2MB

[run]
warmup_fraction = 0.1
interval_instructions = 200000

[trace]
synthetic = true

[synthetic]
seed = 31
accesses_per_kilo_instr = 20
phases = 1000000:65536:0.3:0.4; 1000000:524288:0.3:0.4

[scheme.baseline]
kind = baseline_edram
retention_period_us = 40

[scheme.rpv]
kind = rpv
retention_period_us = 40
phases = 4

[scheme.dcr]
kind = dcr
retention_period_us = 40
"""


def test_criterion_10_byte_identical_reports(tmp_path):
    with criterion(10, "determinism"):
        cfg = tmp_path / "accept.cfg"
        cfg.write_text(ACCEPT_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli_main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        assert any(n.endswith(".json") for n in names)
        for name in names:
            with open(out_a / name, "rb") as fh:
                first = fh.read()
            with open(out_b / name, "rb") as fh:
                second = fh.read()
            assert first == second, f"{name} differs between runs"
        # compare output is deterministic too
        cmp_a = tmp_path / "ca"
        cmp_b = tmp_path / "cb"
        assert cli_main(["compare", "--config", str(cfg),
                         "--out", str(cmp_a)]) == 0
        assert cli_main(["compare", "--config", str(cfg),
                         "--out", str(cmp_b)]) == 0
        for name in sorted(os.listdir(cmp_a)):
            with open(cmp_a / name, "rb") as fh:
                first = fh.read()
            with open(cmp_b / name, "rb") as fh:
                second = fh.read()
            assert first == second, f"{name} differs between runs"
