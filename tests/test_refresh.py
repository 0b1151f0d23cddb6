import random

import pytest

from oracles import (RpvPhases, SetLists, access_block, replay_codes,
                     timeline_oracle, trace_of)
from edrsim.cache import CacheGeometry, CacheState, reconfigure
from edrsim.config import ConfigError, _retention_cycles
from edrsim.energy import SchemeKind, builtin_params
from edrsim.refresh import RefreshConfig, RefreshConfigError
from edrsim.sim import SchemeSpec, TimingParams, run
from edrsim.trace import Op


def _fragment(seed, n_records=400, gap_hi=12, ws_bytes=24 * 1024):
    """Random small trace fragment with explicit gaps."""
    rng = random.Random(seed)
    return trace_of((rng.randint(0, gap_hi),
                     Op.WRITE if rng.random() < 0.4 else Op.READ,
                     rng.randrange(ws_bytes // 64) * 64)
                    for _ in range(n_records))


def _model(geometry, trace, rpv, cycle_step=1):
    """The test-side cache after the trace, record i at cycle i * cycle_step."""
    lists = SetLists(CacheState(geometry))
    for i, (op, addr) in enumerate(zip(trace.ops, trace.addrs)):
        access_block(lists, op == Op.WRITE, addr, rpv, i * cycle_step)
    return lists.store()


def test_retention_cycles_arithmetic():
    # a config's retention period in us becomes cycles of the run's clock
    assert _retention_cycles(40, 1.0) == 40_000
    assert _retention_cycles(40, 2.2) == 88_000
    assert _retention_cycles(30, 2.2) == 66_000
    assert RefreshConfig(88_000, 4).phase_cycles == 22_000
    with pytest.raises(ConfigError, match="whole number of cycles"):
        _retention_cycles(0.0001, 2.2)  # 0.22 cycles


def test_retention_must_divide_phases():
    with pytest.raises(RefreshConfigError):
        RefreshConfig(1, 3)  # 1 cycle, 3 phases


def test_refresh_all_counts_every_line():
    g = CacheGeometry(2 * 1024 * 1024, 8)
    scheme = SchemeSpec(kind=SchemeKind.BASELINE_EDRAM,
                        refresh=RefreshConfig(40_000))
    # events at 40k (an empty cache) and 80k cycles (one valid line)
    trace = trace_of([(40_000, Op.WRITE, 0x1234 * 64), (40_000, Op.READ, 0)])
    report = run(trace, scheme, g, TimingParams(clock_ghz=1.0),
                 builtin_params("EDRAM_2MB"),
                 warmup_instructions=0)
    assert report.total_refreshed_lines == 2 * 32768
    # each 16384-line bank burst holds its bank as long: the first access
    # waits out the first burst
    assert report.total_cycles == 40_000 + 16_384 + 2 * 166 + 40_000


def test_valid_only_counts(tiny_geometry):
    state = CacheState(tiny_geometry)
    assert state.valid_by_bank.tolist() == [0, 0]
    replay_codes(state, trace_of((1, Op.READ, i * 64) for i in range(512)))
    assert state.n_valid == sum(state.valid_by_bank) == 512


def test_valid_only_drops_by_flush_count(tiny_geometry):
    state = CacheState(tiny_geometry)
    replay_codes(state, _fragment(3, n_records=2000, ws_bytes=16 * 1024))
    before = sum(state.valid_by_bank)
    report = reconfigure(state, 2)
    after = sum(state.valid_by_bank)
    assert after == before - report.flushed_lines


def test_rpv_refreshes_line_at_its_own_phase_boundary(tiny_geometry):
    cfg = RefreshConfig(2000, 4)  # 500 cycles per phase
    rpv = RpvPhases(tiny_geometry, cfg)
    # write one line in phase 2 of period 0 (cycle 1100); replay the
    # boundaries that follow it through the end of period 1
    access_block(SetLists(CacheState(tiny_geometry)), True, 0x40, rpv, 1100)
    counts = {}
    for boundary in range(1500, 4001, 500):
        counts[boundary] = sum(rpv.lines(rpv.phase_of(boundary)))
    # refreshed exactly at the phase-2 boundary of the next period (cycle 3000)
    assert counts[3000] == 1
    assert sum(counts.values()) == 1


def test_rpv_partition_over_one_period(tiny_geometry):
    rpv = RpvPhases(tiny_geometry, RefreshConfig(2000, 4))
    state = _model(tiny_geometry, _fragment(17, n_records=1500), rpv)
    total = sum(sum(rpv.lines(phase)) for phase in range(4))
    assert total == state.n_valid


def test_dominance_per_period(tiny_geometry):
    rpv = RpvPhases(tiny_geometry, RefreshConfig(2000, 4))
    state = _model(tiny_geometry, _fragment(23, n_records=3000), rpv,
                   cycle_step=3)
    all_count = tiny_geometry.total_lines
    rpv_total = sum(sum(rpv.lines(p)) for p in range(4))
    valid_count = sum(state.valid_by_bank)
    assert rpv_total <= all_count
    assert valid_count <= all_count


@pytest.mark.parametrize("policy", ["refresh_all", "rpv", "valid_only"])
def test_timeline_oracle_ok_on_random_fragments(policy, tiny_geometry):
    cfg = RefreshConfig(2000, 4 if policy == "rpv" else 1)
    for seed in range(60):
        records = _fragment(seed, n_records=400, gap_hi=20)
        verdict = timeline_oracle(records, policy, cfg, tiny_geometry)
        assert verdict.ok, f"seed {seed}: {verdict.detail}"


def test_timeline_oracle_catches_skipped_phase(tiny_geometry):
    cfg = RefreshConfig(2000, 4)
    # write one block inside phase 3 (cycles 1500..1999), then idle long
    # enough that its refresh would be overdue
    records = trace_of([(1600, Op.WRITE, 0x80),
                        (6000, Op.READ, 0x100000 >> 1)])
    good = timeline_oracle(records, "rpv", cfg, tiny_geometry)
    assert good.ok
    bad = timeline_oracle(records, "rpv", cfg, tiny_geometry, skip_phases={3})
    assert not bad.ok
    assert bad.line is not None and bad.at_cycle is not None


def test_timeline_oracle_mutation_caught_on_random_fragments(tiny_geometry):
    cfg = RefreshConfig(2000, 4)
    caught = 0
    for seed in range(30):
        records = _fragment(seed, n_records=400, gap_hi=20)
        if not timeline_oracle(records, "rpv", cfg, tiny_geometry,
                               skip_phases={3}).ok:
            caught += 1
    assert caught > 20  # nearly every fragment leaves a phase-3 line unrefreshed


def test_timeline_oracle_rejects_large_instances():
    g = CacheGeometry(2 * 1024 * 1024, 8)
    with pytest.raises(ValueError):
        timeline_oracle(trace_of([]), "refresh_all", RefreshConfig(40_000),
                        g)
