import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (AGE_SHIFT, DIRTY_VICTIM, EVICTED, HIT, WRITE, RpvPhases,
                     SetLists, access_block, all_sets, dirty_bits,
                     dirty_tags, flush_reference, full_profile,
                     reconfigure_reference, replay_codes, trace_of,
                     validate_state, view)
from edrsim import cache
from edrsim.cache import (CacheGeometry, CacheState, GeometryError,
                          ReconfigError, layout, reconfigure, zeros)
from edrsim.refresh import RefreshConfig
from edrsim.trace import Op, PhaseSpec, SyntheticTraceSpec, generate_synthetic


def _access(state, is_write, addr) -> int:
    """One access through `oracles.replay`; its code byte."""
    return replay_codes(state, trace_of([(0, is_write, addr)]))[0]


def _set_holding(state, addr) -> int:
    tag = addr // state.geometry.block_bytes
    return next(i for i, tags in enumerate(all_sets(state)) if tag in tags)


def test_color_count_2mb_is_64():
    assert CacheGeometry(2 * 1024 * 1024, 8).color_count == 64


def test_color_count_4mb_is_128():
    assert CacheGeometry(4 * 1024 * 1024, 8).color_count == 128


def test_single_color_geometry_rejected():
    # 32 KB with 4 KB pages and 8 ways yields one color
    with pytest.raises(GeometryError):
        CacheGeometry(32 * 1024, 8, page_bytes=4096, bank_bytes=32 * 1024)


def test_non_power_of_two_rejected():
    with pytest.raises(GeometryError):
        CacheGeometry(3 * 1024 * 1024, 8)


def test_lines_at_proportional():
    # an allocation of c colors holds c * lines_per_color lines: turning
    # off all but c of the 64 colors switches off the rest
    g = CacheGeometry(2 * 1024 * 1024, 8)
    assert g.color_count * g.lines_per_color == 32768
    for colors, lines in ((64, 32768), (32, 16384), (4, 2048)):
        report = reconfigure(CacheState(g), colors)
        assert report.switched_blocks == 32768 - lines


def test_locate_same_page_same_color(small_geometry):
    state = CacheState(small_geometry)
    per_color = small_geometry.sets_per_color
    _access(state, False, 0x4000)
    _access(state, False, 0x4000 + small_geometry.block_bytes)
    s1 = _set_holding(state, 0x4000)
    s2 = _set_holding(state, 0x4000 + small_geometry.block_bytes)
    assert s1 // per_color == s2 // per_color
    assert s2 == s1 + 1  # next block of the page sits in the next set


def test_locate_page_plus_m_same_region(small_geometry):
    state = CacheState(small_geometry)
    m = small_geometry.color_count
    page = small_geometry.page_bytes
    a = 5 * page + 128
    b = (5 + m) * page + 128
    _access(state, False, a)
    assert _access(state, False, b) == 0  # different pages stay distinguishable
    assert _set_holding(state, a) == _set_holding(state, b)  # same region


def test_locate_follows_remap(small_geometry):
    state = CacheState(small_geometry)
    addr = 3 * small_geometry.page_bytes
    per_color = small_geometry.sets_per_color
    _access(state, False, addr)
    before = _set_holding(state, addr) // per_color
    # turn off the color currently holding region 3, and those above it
    reconfigure(state, before)
    assert _access(state, False, addr) == 0  # flushed with its color
    after = _set_holding(state, addr) // per_color
    assert after != before
    assert after < state.active_count
    assert after == state.mapping[3]


def test_cold_miss_fills_line(small_geometry):
    state = CacheState(small_geometry)
    assert _access(state, False, 0x1000) == 0  # a load miss, nothing evicted
    assert state.n_valid == 1


def test_lru_evicts_least_recent(small_geometry):
    state = CacheState(small_geometry)
    w = small_geometry.associativity
    m = small_geometry.color_count
    page = small_geometry.page_bytes
    # w+1 distinct tags landing in one set: same page offset, pages m apart
    addrs = [(i * m) * page for i in range(w + 1)]
    for a in addrs:
        assert not _access(state, False, a) & HIT
    assert _access(state, False, addrs[0]) == EVICTED  # first one was evicted
    # and the second-oldest went next
    assert _access(state, False, addrs[1]) == EVICTED


def test_hit_promotes_to_mru(small_geometry):
    state = CacheState(small_geometry)
    w = small_geometry.associativity
    m = small_geometry.color_count
    page = small_geometry.page_bytes
    addrs = [(i * m) * page for i in range(w)]
    for a in addrs:
        _access(state, False, a)
    _access(state, False, addrs[0])  # touch the oldest
    assert _access(state, False, (w * m) * page) == EVICTED
    # survived, second most recent: the hit's code carries age 1
    code = _access(state, False, addrs[0])
    assert code & 0x0F == HIT and code >> AGE_SHIFT == 1


def test_write_sets_dirty_and_eviction_reports_it(small_geometry):
    state = CacheState(small_geometry)
    w = small_geometry.associativity
    m = small_geometry.color_count
    page = small_geometry.page_bytes
    _access(state, True, 0)  # dirty line
    for i in range(1, w):
        _access(state, False, (i * m) * page)
    assert _access(state, False, (w * m) * page) == EVICTED | DIRTY_VICTIM


def test_store_miss_is_not_load_miss(small_geometry):
    state = CacheState(small_geometry)
    assert _access(state, True, 0x2000) == WRITE  # a miss that is no load


def test_counter_matches_scan_after_random_replay(small_geometry):
    spec = SyntheticTraceSpec(
        phases=[PhaseSpec(100_000, 96 * 1024, 0.4, 0.4)], rng_seed=13,
        accesses_per_kilo_instr=100)
    arrays = generate_synthetic(spec)
    state = CacheState(small_geometry)
    replay_codes(state, arrays)
    verdict = validate_state(state)
    assert verdict.ok, verdict.first_divergence
    assert state.n_valid == sum(state.fill)
    # the test-side model, with RPV's phases: 500 cycles each, 4 of them
    lists = SetLists(CacheState(small_geometry))
    rpv = RpvPhases(small_geometry, RefreshConfig(2000, 4))
    for i, (op, addr) in enumerate(zip(arrays.ops, arrays.addrs)):
        access_block(lists, op == Op.WRITE, addr, rpv, i * 7)
    model = lists.store()
    verdict = validate_state(model, rpv)
    assert verdict.ok, verdict.first_divergence
    assert all_sets(model) == all_sets(state)
    assert dirty_tags(model) == dirty_tags(state)


def test_full_cache_matches_independent_lru(small_geometry):
    # with every color active, set = block mod total_sets, so the main cache
    # must miss exactly like a plain per-set LRU of the same size
    arrays = generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(200_000, 96 * 1024, 0.4, 0.4),
                PhaseSpec(200_000, 40 * 1024, 0.4, 0.2)],
        rng_seed=21, accesses_per_kilo_instr=100))
    assert len(arrays) == 40_000
    codes = replay_codes(CacheState(small_geometry), arrays)
    misses = sum(not code & HIT for code in codes)
    load_misses = sum(not code & (HIT | WRITE) for code in codes)
    assert (misses, load_misses) == full_profile(arrays, small_geometry,
                                                 small_geometry.size_bytes)


def test_identity_reconfigure_is_free(small_geometry, monkeypatch):
    # at every color, then after a shrink to 3: a reconfigure to the
    # current count calls no flush and leaves every column byte-equal
    state = CacheState(small_geometry)
    replay_codes(state, trace_of((0, i % 3 == 0, i * small_geometry.block_bytes)
                                 for i in range(200)))
    flushes = []
    real_flush = cache._flush

    def flush(*args):
        flushes.append(args)
        return real_flush(*args)
    monkeypatch.setattr(cache, "_flush", flush)

    def columns():
        return [bytes(memoryview(getattr(state, name))) for name in (
            "tags", "fill", "valid_by_bank", "layout")] + [state.mapping[:]]
    for colors in (small_geometry.color_count, 3):
        reconfigure(state, colors)
        calls, before = len(flushes), columns()
        report = reconfigure(state, state.active_count)
        assert report.flushed_lines == 0
        assert report.writebacks == 0
        assert report.switched_blocks == 0
        assert len(flushes) == calls
        assert columns() == before
    assert len(flushes) == 1  # the shrink's


def test_reconfigure_counts_flushes_and_writebacks(small_geometry):
    state = CacheState(small_geometry)
    m = small_geometry.color_count
    page = small_geometry.page_bytes
    # fill lines in region (m-1): 12 blocks, 3 of them written
    victim_region = m - 1
    base = victim_region * page
    replay_codes(state, trace_of((0, i < 3, base + i * small_geometry.block_bytes)
                                 for i in range(12)))
    victim_color = state.mapping[victim_region]
    # count by scan what sits in the victim color
    start = victim_color * small_geometry.sets_per_color
    valid = dirty = 0
    stale = dirty_tags(state)
    for tags in all_sets(state)[start:start + small_geometry.sets_per_color]:
        for tag in tags:
            valid += 1
            dirty += tag in stale
    assert (valid, dirty) == (12, 3)
    assert victim_color == m - 1  # the last color: turned off alone
    report = reconfigure(state, victim_color)
    assert report.flushed_lines == 12
    assert report.writebacks == 3
    verdict = validate_state(state)
    assert verdict.ok, verdict.first_divergence


def test_region_pull_keeps_survivors_in_lru_order(small_geometry):
    g = small_geometry
    state = CacheState(g)
    reconfigure(state, g.color_count // 2)  # two regions per color
    rng = random.Random(4)
    replay_codes(state, trace_of(
        (0, rng.random() < 0.4, rng.randrange(4 * g.total_lines) * g.block_bytes)
        for _ in range(3000)))
    before = all_sets(state)
    dirty = dirty_tags(state)
    # each new color pulls a region out of an old one
    report = reconfigure(state, g.color_count)
    after = all_sets(state)
    flushed = writebacks = 0
    for set_index, tags in enumerate(before):
        color = set_index // g.sets_per_color
        kept = [t for t in tags if state.mapping[
            (t // (g.page_bytes // g.block_bytes)) % g.color_count] == color]
        assert after[set_index] == kept
        flushed += len(tags) - len(kept)
        writebacks += len(dirty.intersection(tags) - set(kept))
    assert report.flushed_lines == flushed > 0
    assert report.writebacks == writebacks > 0
    assert dirty_tags(state) == dirty & set().union(*after)
    verdict = validate_state(state)
    assert verdict.ok, verdict.first_divergence


def test_switched_blocks_64_to_32_colors():
    g = CacheGeometry(2 * 1024 * 1024, 8)
    state = CacheState(g)
    report = reconfigure(state, 32)
    assert report.switched_blocks == 32 * 512


def test_reconfigure_is_idempotent(small_geometry):
    state = CacheState(small_geometry)
    replay_codes(state, trace_of((0, i % 2 == 0, i * 64 * 13)
                                 for i in range(500)))
    colors = small_geometry.color_count // 2
    reconfigure(state, colors)
    second = reconfigure(state, colors)
    assert second.flushed_lines == 0
    assert second.switched_blocks == 0


def test_reconfigure_below_min_colors_rejected(small_geometry):
    # and any other count outside [min_colors, color count]
    m = small_geometry.color_count
    state = CacheState(small_geometry, min_colors=2)
    for colors in (1, 0, m + 1):
        with pytest.raises(ReconfigError):
            reconfigure(state, colors)
    assert state.active_count == m
    assert validate_state(state).ok


def test_reconfigure_shrinks_then_grows_by_count(small_geometry):
    # the colors [0, c) are on after each call, every one serving a region
    g = small_geometry
    m = g.color_count
    state = CacheState(g)
    report = reconfigure(state, m // 2)
    assert state.active_count == m // 2
    assert set(state.mapping) == set(range(m // 2))
    assert report.switched_blocks == (m - m // 2) * g.lines_per_color
    report = reconfigure(state, m // 2 + 2)
    assert state.active_count == m // 2 + 2
    assert set(state.mapping) == set(range(m // 2 + 2))
    assert report.switched_blocks == 2 * g.lines_per_color
    verdict = validate_state(state)
    assert verdict.ok, verdict.first_divergence


def test_n_valid_drops_by_flushed_count(small_geometry):
    state = CacheState(small_geometry)
    spec = SyntheticTraceSpec(phases=[PhaseSpec(20_000, 48 * 1024, 0.3, 0.0)],
                              rng_seed=2, accesses_per_kilo_instr=200)
    replay_codes(state, generate_synthetic(spec))
    before = state.n_valid
    report = reconfigure(state, small_geometry.color_count // 2)
    assert state.n_valid == before - report.flushed_lines
    verdict = validate_state(state)
    assert verdict.ok, verdict.first_divergence


def test_growth_rebalances_and_stays_consistent(small_geometry):
    state = CacheState(small_geometry)
    spec = SyntheticTraceSpec(phases=[PhaseSpec(20_000, 48 * 1024, 0.3, 0.0)],
                              rng_seed=8, accesses_per_kilo_instr=200)
    arrays = generate_synthetic(spec)
    assert len(arrays) == 4000
    replay_codes(state, arrays)
    reconfigure(state, 2)
    replay_codes(state, arrays)
    report = reconfigure(state, 6)
    assert report.switched_blocks == 4 * small_geometry.lines_per_color
    verdict = validate_state(state)
    assert verdict.ok, verdict.first_divergence
    # every active color serves at least one region
    assert set(state.mapping) == set(range(state.active_count))


def test_replay_rejects_records_outside_the_trace(small_geometry):
    arrays = trace_of([(1, 0, 64 * i) for i in range(10)])
    for lo, hi in [(0, 11), (-1, 3), (5, 4)]:
        with pytest.raises(ValueError, match=f"records \\[{lo}, {hi}\\)"):
            replay_codes(CacheState(small_geometry), arrays, lo, hi)
    assert len(replay_codes(CacheState(small_geometry), arrays, 10, 10)) == 0


@settings(max_examples=200, deadline=None)
@given(page_bytes=st.sampled_from([256, 1024]),
       banks=st.sampled_from([1, 2, 4]), ways=st.sampled_from([2, 4, 8]),
       colors=st.sampled_from([4, 8, 16]), seed=st.integers(0, 2**32 - 1),
       full=st.sampled_from([0.0, 0.5, 1.0]),
       dirty=st.sampled_from([0.0, 0.3, 1.0]),
       flushes=st.lists(st.tuples(
           st.lists(st.integers(0, 15), min_size=16, max_size=16),
           st.lists(st.integers(0, 15), min_size=1, max_size=16)),
           min_size=1, max_size=4))
def test_compiled_flush_matches_flush_reference(page_bytes, banks, ways,
                                               colors, seed, full, dirty,
                                               flushes):
    # random rows: some sets full, the rest filled part way, a share of
    # the resident lines dirty, tags of any region (half at or above 2^62,
    # just under the dirty bit); each flush routes the regions by a drawn
    # mapping, so that a color holds lines of regions it is not mapped to
    # and a marked color may hold several marked regions
    g = CacheGeometry(size_bytes=colors * page_bytes * ways,
                      associativity=ways, page_bytes=page_bytes,
                      bank_bytes=colors * page_bytes * ways // banks)
    rng = np.random.default_rng(seed)
    fill = np.where(rng.random(g.total_sets) < full, ways,
                    rng.integers(0, ways + 1, g.total_sets)).astype(np.int32)
    tags = rng.integers(0, 1 << 62, g.total_lines, dtype=np.uint64)
    tags[rng.random(g.total_lines) < 0.5] |= np.uint64(1 << 62)
    resident = (np.arange(ways) < fill[:, None]).ravel()
    dirt = (rng.random(g.total_lines) < dirty) & resident
    words = tags | dirt.astype(np.uint64) << np.uint64(63)
    states = [CacheState(g), CacheState(g)]
    for state in states:
        view(state.tags)[:], view(state.fill)[:] = words, fill
        np.add.at(view(state.valid_by_bank),
                  np.arange(g.total_sets) // g.sets_per_bank, fill)
    for mapping, marked in flushes:
        mapping = [c % colors for c in mapping[:colors]]
        marked = sorted({r % colors for r in marked})
        for state in states:
            state.layout[:] = layout(g, mapping)
        moved = bytes(r in marked for r in range(colors))
        scanned = sorted({mapping[r] for r in marked})
        got = cache._flush(states[0], moved,
                           bytes(c in scanned for c in range(colors)))
        want = [flush_reference(states[1], color, marked)
                for color in scanned]
        assert got == tuple(map(sum, zip(*want)))
        assert all_sets(states[0]) == all_sets(states[1])
        assert np.array_equal(dirty_bits(states[0]), dirty_bits(states[1]))
        for name in ("fill", "valid_by_bank"):
            assert np.array_equal(getattr(states[0], name),
                                  getattr(states[1], name)), name
        assert states[0].n_valid == states[1].n_valid


def test_random_reconfigure_sequences_keep_invariants(small_geometry):
    rng = random.Random(1234)
    m = small_geometry.color_count
    spec = SyntheticTraceSpec(phases=[PhaseSpec(50_000, 64 * 1024, 0.5, 0.3)],
                              rng_seed=55, accesses_per_kilo_instr=100)
    arrays = generate_synthetic(spec)
    state = CacheState(small_geometry)
    for step in range(20):
        replay_codes(state, arrays, step * 200, step * 200 + 200)
        reconfigure(state, rng.randint(1, m))
        verdict = validate_state(state)
        assert verdict.ok, f"step {step}: {verdict.first_divergence}"


@pytest.mark.parametrize("page_bytes", [1024, 256])
def test_batched_pulls_match_flushing_one_region_at_a_time(page_bytes,
                                                           monkeypatch):
    # 8 or 32 colors; growing from a few colors makes each donor give up
    # several regions, which reconfigure flushes in one scan of the donor
    g = CacheGeometry(size_bytes=64 * 1024, associativity=8,
                      page_bytes=page_bytes, bank_bytes=16 * 1024)
    m = g.color_count
    spec = SyntheticTraceSpec(phases=[PhaseSpec(60_000, 96 * 1024, 0.5, 0.3)],
                              rng_seed=page_bytes, accesses_per_kilo_instr=100)
    arrays = generate_synthetic(spec)
    batched, single = CacheState(g), CacheState(g)
    # per flush call: the most regions that one scanned color gave up
    most = []
    real_flush = cache._flush

    def flush(state, moved, scan):
        assert state is batched
        # reconfigure flushes before it rewrites the mapping, and scans
        # the old colors of the moved regions
        donors = [state.mapping[r] for r in range(m) if moved[r]]
        assert list(scan) == [c in donors for c in range(m)]
        most.append(max(map(donors.count, donors)))
        return real_flush(state, moved, scan)
    monkeypatch.setattr(cache, "_flush", flush)
    rng = random.Random(page_bytes)
    for step in range(30):
        for state in (batched, single):
            replay_codes(state, arrays, step * 200, step * 200 + 200)
        colors = rng.choice([1, 2, rng.randint(1, m), m])
        calls, changes = len(most), colors != batched.active_count
        assert reconfigure(batched, colors) == \
            reconfigure_reference(single, colors, batched=False), step
        # one flush per reconfiguration that changes the count, none else
        assert len(most) - calls == changes, step
        # the resident tags in order; the slots past a set's fill hold
        # leftovers that no lookup reads
        assert all_sets(batched) == all_sets(single), step
        assert np.array_equal(dirty_bits(batched), dirty_bits(single)), step
        for name in ("fill", "valid_by_bank", "layout"):
            assert np.array_equal(getattr(batched, name),
                                  getattr(single, name)), (step, name)
        assert batched.mapping == single.mapping
        assert batched.n_valid == single.n_valid
    assert max(most) > 1
    assert validate_state(batched).ok


@functools.cache
def _reconfig_trace(page_bytes: int):
    spec = SyntheticTraceSpec(phases=[PhaseSpec(60_000, 96 * 1024, 0.5, 0.3)],
                              rng_seed=page_bytes, accesses_per_kilo_instr=100)
    return generate_synthetic(spec)


@settings(max_examples=60, deadline=None)
@given(page_bytes=st.sampled_from([1024, 256, 128]), data=st.data())
def test_reconfigure_matches_the_reference_planner(page_bytes, data):
    # 8, 32 or 64 colors; each step replays 200 records, so that pulls and
    # turned-off colors flush resident lines, then moves to a drawn count
    g = CacheGeometry(size_bytes=64 * 1024, associativity=8,
                      page_bytes=page_bytes, bank_bytes=16 * 1024)
    m = g.color_count
    steps = data.draw(st.lists(st.integers(1, m), min_size=1, max_size=15))
    arrays = _reconfig_trace(page_bytes)
    fast, reference = CacheState(g), CacheState(g)
    for step, colors in enumerate(steps):
        for state in (fast, reference):
            replay_codes(state, arrays, step * 200, step * 200 + 200)
        assert reconfigure(fast, colors) == \
            reconfigure_reference(reference, colors), step
        assert fast.mapping == reference.mapping, step
        assert fast.layout == reference.layout, step
        assert all_sets(fast) == all_sets(reference), step
        verdict = validate_state(fast)
        assert verdict.ok, f"step {step}: {verdict.first_divergence}"


@pytest.mark.parametrize("m", [8, 32])
def test_every_reconfiguration_pair_matches_the_reference_planner(m):
    # every ordered pair (old, colors) on an empty cache: a growth starts
    # from the full cache shrunk to old, a shrink from one color grown to
    # old
    g = CacheGeometry(size_bytes=m * 128 * 2, associativity=2,
                      page_bytes=128, bank_bytes=m * 128 * 2)
    for old in range(1, m + 1):
        for colors in range(1, m + 1):
            if colors == old:
                continue
            states = [CacheState(g), CacheState(g)]
            for state in states:
                reconfigure(state, old if colors > old else 1)
                reconfigure(state, old)
            reconfigure(states[0], colors)
            reconfigure_reference(states[1], colors)
            assert states[0].mapping == states[1].mapping, (old, colors)
            assert states[0].layout == states[1].layout, (old, colors)


@pytest.mark.parametrize("typecode", ["Q", "q", "i"])
@pytest.mark.parametrize("n", [0, 1, 3_000_017])
def test_zeros(typecode, n):
    column = zeros(typecode, n)
    assert column.typecode == typecode
    assert len(column) == n
    assert not any(column)
