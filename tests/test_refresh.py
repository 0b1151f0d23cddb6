import random

import pytest

from oracles import timeline_oracle
from edrsim.cache import CacheGeometry, CacheState, access_block, reconfigure
from edrsim.refresh import (RefreshConfig, RefreshConfigError, refresh_all,
                            rpv_refresh, valid_only_refresh)
from edrsim.trace import Op, TraceRecord


def _fragment(seed, n_records=400, gap_hi=12, ws_bytes=24 * 1024):
    """Random small trace fragment with explicit gaps."""
    rng = random.Random(seed)
    records = []
    for _ in range(n_records):
        records.append(TraceRecord(
            rng.randint(0, gap_hi),
            Op.WRITE if rng.random() < 0.4 else Op.READ,
            rng.randrange(ws_bytes // 64) * 64))
    return records


def test_retention_cycles_arithmetic():
    assert RefreshConfig(40, 1.0, 1).retention_cycles == 40_000
    assert RefreshConfig(40, 2.2, 4).retention_cycles == 88_000
    assert RefreshConfig(40, 2.2, 4).phase_cycles == 22_000
    assert RefreshConfig(30, 2.2, 4).retention_cycles == 66_000


def test_retention_must_divide_phases():
    with pytest.raises(RefreshConfigError):
        RefreshConfig(0.001, 1.0, 3)  # 1 cycle, 3 phases


def test_refresh_all_counts_every_line():
    g = CacheGeometry(2 * 1024 * 1024, 8)
    state = CacheState(g)
    cfg = RefreshConfig(40, 1.0, 1)
    ev = refresh_all(state, cfg, 40_000)
    assert ev.lines_refreshed == 32768
    assert ev.per_bank_lines == [16384, 16384]
    # state independent: next event identical
    access_block(state, True, 0x1234 * 64, 41_000)
    ev2 = refresh_all(state, cfg, 80_000)
    assert ev2.lines_refreshed == ev.lines_refreshed


def test_valid_only_counts(tiny_geometry):
    cfg = RefreshConfig(1, 2.0, 1)  # 2000 cycles
    state = CacheState(tiny_geometry)
    assert valid_only_refresh(state, cfg, 2000).lines_refreshed == 0
    for i in range(512):
        access_block(state, False, i * 64, i)
    ev = valid_only_refresh(state, cfg, 4000)
    assert ev.lines_refreshed == 512
    assert sum(ev.per_bank_lines) == 512


def test_valid_only_drops_by_flush_count(tiny_geometry):
    cfg = RefreshConfig(1, 2.0, 1)
    state = CacheState(tiny_geometry)
    for i, rec in enumerate(_fragment(3, n_records=2000, ws_bytes=16 * 1024)):
        access_block(state, rec.op == Op.WRITE, rec.address, i)
    before = valid_only_refresh(state, cfg, 2000).lines_refreshed
    report = reconfigure(state, sorted(state.active_colors)[:2])
    after = valid_only_refresh(state, cfg, 4000).lines_refreshed
    assert after == before - report.flushed_lines


def test_rpv_refreshes_line_at_its_own_phase_boundary(tiny_geometry):
    cfg = RefreshConfig(1, 2.0, 4)  # 2000 cycles, 500/phase
    state = CacheState(tiny_geometry, phase_clock=cfg.phase_clock())
    # write one line in phase 2 of period 0 (cycle 1100); replay the
    # boundaries that follow it through the end of period 1
    access_block(state, True, 0x40, 1100)
    counts = {}
    for boundary in range(1500, 4001, 500):
        phase = (boundary // 500) % 4
        ev = rpv_refresh(state, cfg, phase, boundary)
        counts[boundary] = ev.lines_refreshed
    # refreshed exactly at the phase-2 boundary of the next period (cycle 3000)
    assert counts[3000] == 1
    assert sum(counts.values()) == 1


def test_rpv_partition_over_one_period(tiny_geometry):
    cfg = RefreshConfig(1, 2.0, 4)
    state = CacheState(tiny_geometry, phase_clock=cfg.phase_clock())
    for i, rec in enumerate(_fragment(17, n_records=1500)):
        access_block(state, rec.op == Op.WRITE, rec.address, i)
    total = 0
    for phase in range(4):
        total += rpv_refresh(state, cfg, phase, 10_000 + phase * 500).lines_refreshed
    assert total == state.n_valid


def test_dominance_per_period(tiny_geometry):
    cfg = RefreshConfig(1, 2.0, 4)
    state = CacheState(tiny_geometry, phase_clock=cfg.phase_clock())
    for i, rec in enumerate(_fragment(23, n_records=3000)):
        access_block(state, rec.op == Op.WRITE, rec.address, i * 3)
    all_count = refresh_all(state, cfg, 2000).lines_refreshed
    rpv_total = sum(rpv_refresh(state, cfg, p, 2000 + 500 * p).lines_refreshed
                    for p in range(4))
    valid_count = valid_only_refresh(state, cfg, 2000).lines_refreshed
    assert rpv_total <= all_count
    assert valid_count <= all_count


@pytest.mark.parametrize("policy", ["refresh_all", "rpv", "valid_only"])
def test_timeline_oracle_ok_on_random_fragments(policy, tiny_geometry):
    cfg = RefreshConfig(1, 2.0, 4 if policy == "rpv" else 1)  # 2000 cycles
    for seed in range(60):
        records = _fragment(seed, n_records=400, gap_hi=20)
        verdict = timeline_oracle(records, policy, cfg, tiny_geometry)
        assert verdict.ok, f"seed {seed}: {verdict.detail}"


def test_timeline_oracle_catches_skipped_phase(tiny_geometry):
    cfg = RefreshConfig(1, 2.0, 4)
    # write one block inside phase 3 (cycles 1500..1999), then idle long
    # enough that its refresh would be overdue
    records = [TraceRecord(1600, Op.WRITE, 0x80),
               TraceRecord(6000, Op.READ, 0x100000 >> 1)]
    good = timeline_oracle(records, "rpv", cfg, tiny_geometry)
    assert good.ok
    bad = timeline_oracle(records, "rpv", cfg, tiny_geometry, skip_phases={3})
    assert not bad.ok
    assert bad.line is not None and bad.at_cycle is not None


def test_timeline_oracle_mutation_caught_on_random_fragments(tiny_geometry):
    cfg = RefreshConfig(1, 2.0, 4)
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
        timeline_oracle([], "refresh_all", RefreshConfig(40, 1.0, 1), g)
