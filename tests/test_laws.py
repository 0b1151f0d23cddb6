"""Laws that relate the schemes' reports on one trace, drawn with hypothesis
on the tiny geometries and checked through `sim.run_schemes` (the fixed
schemes on one trip, DCR on its own) and through `sim.run` (each scheme on
a trip of its own). Each law follows from the model, not from a recorded
number, so it guards every timer's tallies through any rewrite of the
record loop:

- RPV with one phase refreshes the valid lines at every boundary, as does
  a DCR that never shrinks (`c_min` equal to the color count, called
  full-size DCR here): the two take the same cycles, refresh the same lines
  and count the same hits and misses;
- with a retention period longer than the run, no scheme refreshes, so all
  take the same cycles;
- SRAM never waits on a refresh burst, so no scheme takes fewer cycles;
- the baseline refreshes every line at each boundary;
- the fixed schemes and full-size DCR replay the same cache, so they count
  the same hits, misses and DRAM accesses.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from edrsim.cache import CacheGeometry
from edrsim.controller import ControllerConfig
from edrsim.energy import SchemeKind, builtin_params
from edrsim.profiler import TimingParams
from edrsim.refresh import RefreshConfig
from edrsim.sim import SchemeSpec, run, run_schemes
from edrsim.trace import PhaseSpec, SyntheticTraceSpec, generate_synthetic

# the conftest's tiny and small geometries: 4 and 8 colors, 2 banks
GEOMETRIES = [
    CacheGeometry(size_bytes=32 * 1024, associativity=8, block_bytes=64,
                  page_bytes=1024, bank_bytes=16 * 1024),
    CacheGeometry(size_bytes=64 * 1024, associativity=8, block_bytes=64,
                  page_bytes=1024, bank_bytes=32 * 1024)]
TIMING = TimingParams(clock_ghz=2.0)
EDRAM = builtin_params("EDRAM_2MB")

_DRAWN = dict(
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(0, 1 << 16),
    ws_kb=st.sampled_from([8, 24, 64]),
    writes=st.sampled_from([0.0, 0.3, 1.0]),
    reuse=st.sampled_from([0.0, 0.5]),
    phases=st.sampled_from([2, 4, 8]),
    warmup=st.sampled_from([0, None]),
    interval=st.sampled_from([30_000, 100_000]))


def _schemes(geometry: CacheGeometry, retention: int, phases: int):
    """baseline, RPV of `phases`, RPV of one phase, SRAM and full-size DCR,
    the eDRAM schemes at one retention period of `retention` * phases
    cycles."""
    def refresh(k):
        return RefreshConfig(retention * phases, k)
    full = ControllerConfig(c_min=geometry.color_count,
                            sampling_ratio_denom=2)
    return [SchemeSpec(SchemeKind.BASELINE_EDRAM, refresh(1)),
            SchemeSpec(SchemeKind.RPV, refresh(phases)),
            SchemeSpec(SchemeKind.RPV, refresh(1), name="rpv1"),
            SchemeSpec(SchemeKind.SRAM),
            SchemeSpec(SchemeKind.DCR, refresh(1), full, name="dcrfull")]


def _paths(geometry, seed, ws_kb, writes, reuse, schemes, warmup, interval):
    """The schemes' reports on one drawn trace through `run_schemes`, and
    through `run` one scheme at a time."""
    trace = generate_synthetic(SyntheticTraceSpec(
        [PhaseSpec(300_000, ws_kb * 1024, writes, reuse)], rng_seed=seed))
    rest = geometry, TIMING, EDRAM, warmup, interval
    return [run_schemes(trace, schemes, *rest),
            [run(trace, scheme, *rest) for scheme in schemes]]


def _intervals(report, *names):
    return [tuple(getattr(iv, name) for name in names)
            for iv in report.intervals]


@settings(max_examples=60, deadline=None)
@given(retention=st.integers(600, 3000), **_DRAWN)
def test_scheme_laws_hold_interval_by_interval(geometry, seed, ws_kb, writes,
                                               reuse, phases, retention,
                                               warmup, interval):
    schemes = _schemes(geometry, retention, phases)
    for reports in _paths(geometry, seed, ws_kb, writes, reuse, schemes,
                          warmup, interval):
        base, rpv, rpv1, sram, full = reports
        tallies = ("elapsed_cycles", "refreshed_lines", "l2_hits",
                   "l2_misses")
        assert _intervals(rpv1, *tallies) == _intervals(full, *tallies)
        assert base.total_refreshed_lines > 0
        for rep in base, rpv, full:
            assert all(s <= o for s, o in zip(
                _intervals(sram, "elapsed_cycles"),
                _intervals(rep, "elapsed_cycles"))), rep.scheme
        assert all(lines % geometry.total_lines == 0
                   for lines, in _intervals(base, "refreshed_lines"))
        counts = ("l2_hits", "l2_misses", "dram_accesses")
        for rep in rpv, sram, full:
            assert _intervals(rep, *counts) == _intervals(base, *counts), \
                rep.scheme


@settings(max_examples=30, deadline=None)
@given(**_DRAWN)
def test_no_scheme_refreshes_within_a_retention_period_longer_than_the_run(
        geometry, seed, ws_kb, writes, reuse, phases, warmup, interval):
    schemes = _schemes(geometry, 1 << 40, phases)
    del schemes[2]  # one RPV is enough
    for reports in _paths(geometry, seed, ws_kb, writes, reuse, schemes,
                          warmup, interval):
        cycles = _intervals(reports[0], "elapsed_cycles")
        for rep in reports:
            assert rep.total_refreshed_lines == 0, rep.scheme
            assert _intervals(rep, "elapsed_cycles") == cycles, rep.scheme
