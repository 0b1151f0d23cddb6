import numpy as np
import pytest

from oracles import trace_of
from edrsim.cache import CacheGeometry, Passes
from edrsim.controller import default_config
from edrsim.energy import SchemeKind, builtin_params
from edrsim.refresh import RefreshConfig
from edrsim.sim import (SchemeConfigError, SchemeSpec, TimingParams, compare,
                        run)
from edrsim.trace import (Op, PhaseSpec, SyntheticTraceSpec, TraceArrays,
                          generate_synthetic)


def _trace(seed=1, instr=2_000_000, ws_kb=24, writes=0.3, reuse=0.2, apki=20):
    return generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(instr, ws_kb * 1024, writes, reuse)], rng_seed=seed,
        accesses_per_kilo_instr=apki))


TIMING_2GHZ = TimingParams(clock_ghz=2.0)
EDRAM_2GHZ = builtin_params("EDRAM_2MB")
SRAM_2GHZ = builtin_params("SRAM_2MB")


def _small_schemes():
    return {
        "baseline": SchemeSpec(kind=SchemeKind.BASELINE_EDRAM,
                               refresh=RefreshConfig(2000)),
        "rpv": SchemeSpec(kind=SchemeKind.RPV, refresh=RefreshConfig(2000, 4)),
        "sram": SchemeSpec(kind=SchemeKind.SRAM, energy=SRAM_2GHZ),
    }


def test_exact_timing_of_hand_built_trace(small_geometry):
    # SRAM, no refresh: pure compute + latency arithmetic
    trace = trace_of([
        (10, Op.READ, 0x0000),   # cold load miss
        (5, Op.READ, 0x0000),    # hit
        (0, Op.WRITE, 0x0000),   # hit
        (7, Op.WRITE, 0x9000),   # store miss (no stall)
    ])
    report = run(trace, SchemeSpec(kind=SchemeKind.SRAM),
                 small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
                 warmup_instructions=0)
    # cycles: gaps (22) + miss (12+154) + hit (12) + hit (12) + miss (166)
    assert report.total_cycles == 22 + 166 + 12 + 12 + 166
    iv = report.intervals[0]
    assert iv.l2_hits == 2 and iv.l2_misses == 2
    assert iv.load_misses == 1
    assert iv.memory_stall_cycles == 166  # only the load miss stalls
    assert iv.dram_accesses == 2
    assert report.instructions == 22  # with warmup=0 every gap counts


def test_sram_never_fires_refresh(small_geometry):
    report = run(_trace(instr=500_000), SchemeSpec(kind=SchemeKind.SRAM),
                 small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
                 warmup_instructions=0)
    assert report.total_refreshed_lines == 0
    assert report.energy_components["re_l2"] == 0.0
    assert report.active_ratio_pct == 100.0


def test_refresh_events_fire_at_exact_multiples(small_geometry):
    cfg = RefreshConfig(2000)
    report = run(_trace(instr=500_000),
                 SchemeSpec(kind=SchemeKind.BASELINE_EDRAM, refresh=cfg),
                 small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
                 warmup_instructions=0)
    # every line refreshed per event, and events did fire
    total_lines = small_geometry.total_lines
    assert report.total_refreshed_lines > 0
    assert report.total_refreshed_lines % total_lines == 0


def test_determinism_bit_identical_reports(small_geometry):
    arrays = _trace(seed=9, instr=800_000)
    scheme = SchemeSpec(
        kind=SchemeKind.DCR, refresh=RefreshConfig(2000),
        controller=default_config(small_geometry, sampling_ratio_denom=2))
    a = run(arrays, scheme, small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
            interval_instructions=100_000)
    b = run(arrays, scheme, small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
            interval_instructions=100_000)
    assert a == b


def test_conservation_across_intervals(small_geometry):
    arrays = _trace(seed=4, instr=1_500_000)
    scheme = SchemeSpec(kind=SchemeKind.BASELINE_EDRAM,
                        refresh=RefreshConfig(2000))
    report = run(arrays, scheme, small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
                 warmup_instructions=150_000, interval_instructions=200_000)
    assert len(report.intervals) > 3
    assert report.instructions == sum(iv.instructions
                                      for iv in report.intervals)
    assert report.total_cycles == sum(iv.elapsed_cycles
                                      for iv in report.intervals)
    assert report.total_energy_j == pytest.approx(
        sum(iv.energy.total for iv in report.intervals), rel=1e-12)
    assert report.total_refreshed_lines == sum(iv.refreshed_lines
                                               for iv in report.intervals)
    kilo = report.instructions / 1000
    assert report.rpki == pytest.approx(report.total_refreshed_lines / kilo)
    assert report.mpki == pytest.approx(report.total_l2_misses / kilo)


def test_warmup_excluded_from_metrics(small_geometry):
    arrays = _trace(seed=6, instr=1_000_000)
    scheme = SchemeSpec(kind=SchemeKind.BASELINE_EDRAM,
                        refresh=RefreshConfig(2000))
    cold = run(arrays, scheme, small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
               warmup_instructions=0)
    warm = run(arrays, scheme, small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
               warmup_instructions=500_000)
    assert warm.instructions < cold.instructions
    # cold-start misses land in the warm-up window
    assert warm.mpki < cold.mpki


def test_warmup_must_be_shorter_than_trace(small_geometry):
    arrays = _trace(instr=100_000)
    scheme = SchemeSpec(kind=SchemeKind.SRAM)
    with pytest.raises(ValueError):
        run(arrays, scheme, small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
            warmup_instructions=100_000)


def test_scheme_validation_rejects_conflicts():
    with pytest.raises(SchemeConfigError):
        SchemeSpec(kind=SchemeKind.SRAM, refresh=RefreshConfig(2000))
    with pytest.raises(SchemeConfigError):
        SchemeSpec(kind=SchemeKind.DCR, refresh=RefreshConfig(2000))
    with pytest.raises(SchemeConfigError):
        SchemeSpec(kind=SchemeKind.RPV, refresh=RefreshConfig(2000, 4),
                   controller=default_config(CacheGeometry(2**21, 8)))
    with pytest.raises(SchemeConfigError):
        SchemeSpec(kind=SchemeKind.BASELINE_EDRAM,
                   refresh=RefreshConfig(2000, 4))  # polyphase on baseline


def test_dcr_active_ratio_within_bounds(small_geometry):
    arrays = _trace(seed=2, instr=2_000_000, ws_kb=4)
    ctrl = default_config(small_geometry, sampling_ratio_denom=2)
    scheme = SchemeSpec(kind=SchemeKind.DCR, refresh=RefreshConfig(2000),
                        controller=ctrl)
    report = run(arrays, scheme, small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
                 interval_instructions=200_000)
    lo = ctrl.c_min / small_geometry.color_count * 100
    assert lo <= report.active_ratio_pct <= 100.0
    assert report.active_ratio_pct < 100.0  # it did shrink


def test_compare_baseline_against_itself(small_geometry):
    arrays = _trace(seed=3, instr=600_000)
    base = SchemeSpec(kind=SchemeKind.BASELINE_EDRAM,
                      refresh=RefreshConfig(2000), name="base")
    twin = SchemeSpec(kind=SchemeKind.BASELINE_EDRAM,
                      refresh=RefreshConfig(2000), name="twin")
    report = compare(arrays, [base, twin], small_geometry, TIMING_2GHZ,
                     EDRAM_2GHZ)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.pct_energy_saved == 0.0
    assert row.pct_perf_improvement == 0.0
    assert row.delta_rpki == 0.0
    assert row.delta_mpki == 0.0


def test_compare_requires_baseline(small_geometry):
    arrays = _trace(instr=200_000)
    schemes = [SchemeSpec(kind=SchemeKind.SRAM),
               SchemeSpec(kind=SchemeKind.RPV, refresh=RefreshConfig(2000, 4))]
    with pytest.raises(SchemeConfigError):
        compare(arrays, schemes, small_geometry, TIMING_2GHZ, EDRAM_2GHZ)


def test_compare_rpv_and_sram_exact_invariants(small_geometry):
    arrays = _trace(seed=8, instr=1_000_000)
    schemes = list(_small_schemes().values())
    report = compare(arrays, schemes, small_geometry, TIMING_2GHZ, EDRAM_2GHZ)
    by_name = {r.scheme: r for r in report.rows}
    # non-reconfiguring schemes keep the whole cache on and miss identically
    assert by_name["rpv"].active_ratio_pct == 100.0
    assert by_name["rpv"].delta_mpki == 0.0
    assert by_name["rpv"].delta_rpki >= 0.0
    assert by_name["sram"].active_ratio_pct == 100.0
    assert by_name["sram"].delta_mpki == 0.0


def test_compare_rejects_duplicate_names(small_geometry):
    arrays = _trace(instr=200_000)
    a = SchemeSpec(kind=SchemeKind.BASELINE_EDRAM,
                   refresh=RefreshConfig(2000), name="x")
    b = SchemeSpec(kind=SchemeKind.SRAM, name="x")
    with pytest.raises(SchemeConfigError):
        compare(arrays, [a, b], small_geometry, TIMING_2GHZ, EDRAM_2GHZ)


def test_empty_trace_rejected(small_geometry):
    empty = TraceArrays(gaps=np.array([], dtype=np.uint32),
                        ops=np.array([], dtype=np.uint8),
                        addrs=np.array([], dtype=np.uint64))
    with pytest.raises(ValueError):
        run(empty, SchemeSpec(kind=SchemeKind.SRAM), small_geometry,
            TIMING_2GHZ, EDRAM_2GHZ)


def test_dcr_flush_writebacks_charged_to_next_interval(small_geometry):
    # 12 KB working set: the X/4 profiling point shows it fits, so the
    # controller shrinks, flushing dirty lines from the dropped colors
    arrays = _trace(seed=14, instr=1_200_000, ws_kb=12, writes=0.5)
    scheme = SchemeSpec(
        kind=SchemeKind.DCR, refresh=RefreshConfig(2000),
        controller=default_config(small_geometry, sampling_ratio_denom=2))
    report = run(arrays, scheme, small_geometry, TIMING_2GHZ, EDRAM_2GHZ,
                 warmup_instructions=0, interval_instructions=150_000)
    shrink = next((d for d in report.decisions
                   if d.chosen < d.current and d.flush_writebacks > 0), None)
    assert shrink is not None, "expected at least one shrinking decision"
    nxt = report.intervals[shrink.interval + 1]
    assert nxt.switched_blocks == shrink.switched_blocks
    # the following interval paid for the flush writebacks
    assert nxt.dram_accesses >= shrink.flush_writebacks


# a 2-color cache: both used to replay every record up to the first
# decision and fail there with "min() arg is an empty sequence"
@pytest.mark.parametrize("overrides, error", [
    (dict(c_min=3), "c_min 3 exceeds the 2 colors"),
    (dict(granularity=4, delta=4),
     r"no multiple of granularity 4 lies in \[1, 2\]"),
], ids=["c_min above the colors", "no candidate"])
def test_run_checks_the_controller_before_any_record(monkeypatch, overrides,
                                                     error):
    geometry = CacheGeometry(64 * 1024, 8, bank_bytes=32 * 1024)
    scheme = SchemeSpec(kind=SchemeKind.DCR, refresh=RefreshConfig(2000),
                        controller=default_config(
                            geometry, sampling_ratio_denom=1, **overrides))
    monkeypatch.setattr(Passes, "__call__",
                        lambda *args: pytest.fail("a record was replayed"))
    with pytest.raises(SchemeConfigError, match=error):
        run(_trace(), scheme, geometry, TIMING_2GHZ, EDRAM_2GHZ)
