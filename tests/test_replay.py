"""The two-stage replay (functional pass, then timing pass) against the
record-at-a-time reference in oracles.reference_run, bit for bit, and the
compiled functional pass against its Python reference,
oracles.replay_reference."""

import collections
import itertools
import random
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (AGE_SHIFT, DIRTY_VICTIM, EVICTED, HIT, WRITE, SetLists,
                     access_block, age_column, age_in, age_mirror, all_sets,
                     dirty_tags, ints, reference_run, replay,
                     replay_reference, trace_of, validate_state, view)
from edrsim.cache import CacheGeometry, CacheState, reconfigure
from edrsim.cli import _sweep_reports
from edrsim.controller import default_config
from edrsim.energy import SchemeKind, builtin_params
from edrsim import profiler
from edrsim.passes import Passes
from edrsim.profiler import ProfilingUnit
from edrsim.refresh import RefreshConfig, RefreshConfigError
from edrsim.scheme import check_scheme
from edrsim.sim import (SchemeConfigError, SchemeSpec, TimingParams, compare,
                        run, run_schemes)
from edrsim.trace import (PhaseSpec, SyntheticTraceSpec, TraceArrays,
                          generate_synthetic)

EDRAM = builtin_params("EDRAM_2MB")
SRAM = builtin_params("SRAM_2MB")


def _geometry(banks, ways=8):
    # 64 KB, 8-way, 1 KB pages: 8 colors, 128 sets, 1024 lines; at 16
    # ways, 4 colors of 64 sets
    return CacheGeometry(size_bytes=64 * 1024, associativity=ways,
                         page_bytes=1024, bank_bytes=64 * 1024 // banks)


def _trace(seed):
    # a working set that fits, then one that thrashes, with many writes
    return generate_synthetic(SyntheticTraceSpec(
        phases=[PhaseSpec(120_000, 24 * 1024, 0.4, 0.3),
                PhaseSpec(120_000, 160 * 1024, 0.5, 0.2)],
        rng_seed=seed, accesses_per_kilo_instr=25))


def _scheme(kind, phases, geometry):
    refresh = RefreshConfig(2000, phases)
    if kind is SchemeKind.SRAM:
        return SchemeSpec(kind=kind, energy=SRAM)
    if kind is SchemeKind.DCR:
        return SchemeSpec(kind=kind, refresh=refresh,
                          controller=default_config(
                              geometry, delta=4, sampling_ratio_denom=2))
    return SchemeSpec(kind=kind, refresh=refresh)


_KINDS = [(SchemeKind.BASELINE_EDRAM, 1), (SchemeKind.RPV, 1),
          (SchemeKind.RPV, 2), (SchemeKind.RPV, 4), (SchemeKind.SRAM, 1),
          (SchemeKind.DCR, 1)]
_WARMUPS = ["none", "default", "first record"]
# every kind meets every warm-up, every CPI and every bank count
_CASES = [(i, kind, phases, warmup, "") for i, ((kind, phases), warmup)
          in enumerate(itertools.product(_KINDS, _WARMUPS))]
# and the timing pass's corner cases: gaps that span several refresh periods,
# so one record fires several events; RPV bursts on one bank that last a
# whole phase; two warm-ups again on other CPIs, traces and intervals; gaps
# whose cycles at CPI 1.5 end in a half, which rounds to even
_CASES += [(18 + j, kind, phases, warmup, variant)
           for j, (kind, phases, warmup, variant) in enumerate([
               (SchemeKind.BASELINE_EDRAM, 1, "default", "sparse"),
               (SchemeKind.RPV, 4, "none", "sparse"),
               (SchemeKind.DCR, 1, "default", "sparse"),
               (SchemeKind.RPV, 4, "default", "long burst"),
               (SchemeKind.RPV, 2, "first record", ""),
               (SchemeKind.DCR, 1, "none", ""),
               (SchemeKind.RPV, 4, "default", "odd gaps")])]


def _case_id(case):
    i, kind, phases, warmup, variant = case
    name = f"{i}-{kind.value}-k{phases}-{warmup}" + (
        f"-{variant}" if variant else "")
    return name.replace(" ", "_")


@pytest.mark.parametrize("case", _CASES, ids=_case_id)
def test_run_matches_reference_run(case, monkeypatch):
    i, kind, phases, warmup, variant = case
    k, w = divmod(i, len(_WARMUPS))
    cpi = (1.0, 0.7, 1.5)[(k + w) % 3]
    banks = 1 if variant == "long burst" else (1, 2, 4)[(k + 2 * w) % 3]
    interval = random.Random(i).choice((5_000, 10_000, 20_000))
    geometry = _geometry(banks)
    trace = _trace(seed=100 + i)
    gaps = view(trace.gaps)
    if variant == "sparse":  # every 97th gap spans 3-7 refresh periods
        gaps[::97] += 9_000
    elif variant == "odd gaps":  # 61.5 cycles round to 62, 64.5 to 64
        assert cpi == 1.5
        gaps[1::4] += 1
        gaps[3::4] += 3
    trace = TraceArrays(trace.gaps, trace.ops, trace.addrs)  # recount
    warmup_instructions = {"none": 0, "default": None,
                           "first record": int(trace.gaps[0])}[warmup]
    scheme = _scheme(kind, phases, geometry)
    bursts = []
    if variant == "long burst":
        # 1028 cycles for 1024 lines: a phase is 257 cycles, about the
        # lines one phase's burst refreshes, so a burst holds the bank up to
        # the next boundary and a wait on it runs into the next event
        scheme.refresh = RefreshConfig(1028, phases)

        def lines(rpv, phase):
            per_bank = real_lines(rpv, phase)
            bursts.append(sum(per_bank))
            return per_bank
        real_lines = oracles.RpvPhases.lines
        monkeypatch.setattr(oracles.RpvPhases, "lines", lines)
    timing = TimingParams(base_cpi=cpi, clock_ghz=2.0)
    kwargs = dict(warmup_instructions=warmup_instructions,
                  interval_instructions=interval)

    got = run(trace, scheme, geometry, timing, EDRAM, **kwargs)
    want = reference_run(trace, scheme, geometry, timing, EDRAM, **kwargs)
    assert got == want
    if kind is SchemeKind.DCR:
        assert len(got.decisions) > 5  # the controller acted many times
    if variant == "long burst":
        assert max(bursts) >= scheme.refresh.phase_cycles


_TINY_SCHEMES = [(SchemeKind.BASELINE_EDRAM, 1), (SchemeKind.SRAM, 1),
                 (SchemeKind.DCR, 1)] + [(SchemeKind.RPV, k) for k in range(1, 5)]


# the records of a tiny config, 2-150 of them, each drawn as one integer
# (fewer draws, so longer traces at the same cost) that packs its gap, 0-40
# instructions; whether a write; a block index, 0-511; and, for a long gap,
# how many retention periods of instructions it adds
_LONG_GAPS = (0, 0, 0, 0, 2, 3, 4, 5)
_TINY_RECORDS = st.integers(2, 150).flatmap(lambda n: st.lists(
    st.integers(0, (1 << 19) - 1).map(lambda x: (
        x % 41, x >> 6 & 1, x >> 7 & 511, _LONG_GAPS[x >> 16])),
    min_size=n, max_size=n))


def _filling(ways):
    """Records that fill one set past its ways, then touch its lines from
    the most recent back, so that hits take every age up to ways - 1;
    twice, so that refresh boundaries fire on the phases those hits
    moved."""
    order = [*range(ways + 4), *range(ways + 3, 3, -1)]
    return [(40, b % 3 == 0, b, 0) for b in order * 2]


def _tiny_case(ways, banks, retention, sets, records, seen):
    """A tiny cache and a trace for it: 128 B pages of two 64 B blocks on
    8 colors, 16 sets, 32-256 lines, so DCR's X/16 unit has one set. The
    records touch 2 * ways blocks in each of `sets` sets (1, 2, 4 or all
    16), so that sets fill and evict at every associativity. Gaps of 0
    put several records on one instruction count, so that warm-up can end
    and an interval close on a record that adds no instructions; a long
    gap adds 2-5 retention periods, so that one record fires several
    events. Tallies in `seen` the evictions and the hits of age 6 or more
    that the trace draws, at each associativity."""
    geometry = CacheGeometry(size_bytes=16 * 64 * ways, associativity=ways,
                             page_bytes=128,
                             bank_bytes=16 * 64 * ways // banks)
    gaps = [gap + far * retention for gap, _, _, far in records]
    # block index b sits in set b % sets of the sets spread 16 // sets apart
    blocks = [b % (2 * ways * sets) * (16 // sets) for _, _, b, _ in records]
    trace = TraceArrays(gaps=np.array(gaps, dtype=np.uint32),
                        ops=np.array([w for _, w, _, _ in records],
                                     dtype=np.uint8),
                        addrs=np.array(blocks, dtype=np.uint64) * 64)
    codes = oracles.replay_codes(CacheState(geometry), trace)
    seen[ways, "evictions"] += sum(bool(code & EVICTED) for code in codes)
    seen[ways, "ages of 6 or more"] += sum(
        code >> AGE_SHIFT >= 6 for code in codes if code & HIT)
    return geometry, trace, gaps


def _assert_drawn(seen):
    """Evictions and hits of age 6 or more at 8 and 16 ways, which a draw
    of too few blocks a set never fills."""
    for ways in (8, 16):
        assert seen[ways, "evictions"], ways
        assert seen[ways, "ages of 6 or more"], ways


def test_run_matches_reference_run_on_tiny_configs():
    # the retention grows with the ways, so that a bank's burst fits in it
    # (check_scheme)
    seen = collections.Counter()

    @settings(max_examples=150, deadline=None)
    @given(ways=st.sampled_from([2, 4, 8, 16]),
           banks=st.sampled_from([1, 2, 4]),
           scheme=st.sampled_from(_TINY_SCHEMES),
           cpi=st.sampled_from([0.7, 1.0, 1.5]),
           retention=st.sampled_from([120, 240]),
           sets=st.sampled_from([1, 2, 4, 16]), records=_TINY_RECORDS,
           warmup=st.integers(0, 3), parts=st.integers(2, 8),
           delta=st.integers(1, 8))
    @example(ways=8, banks=2, scheme=(SchemeKind.RPV, 4), cpi=1.0,
             retention=120, sets=1, records=_filling(8), warmup=0, parts=3,
             delta=1)
    @example(ways=16, banks=1, scheme=(SchemeKind.RPV, 3), cpi=0.7,
             retention=240, sets=1, records=_filling(16), warmup=1, parts=2,
             delta=1)
    # DCR refreshes the lines its cache holds when a boundary fires, not
    # those it held when the trip was bound
    @example(ways=8, banks=2, scheme=(SchemeKind.DCR, 1), cpi=1.0,
             retention=120, sets=1, records=_filling(8), warmup=0, parts=3,
             delta=1)
    def check(ways, banks, scheme, cpi, retention, sets, records, warmup,
              parts, delta):
        kind, phases = scheme
        retention *= max(1, ways // 2)
        geometry, trace, gaps = _tiny_case(ways, banks, retention, sets,
                                           records, seen)
        total = trace.instructions
        assume(total > 0)
        warmups = [None] + [w for w in (0, gaps[0], total - gaps[-1] - 1)
                            if 0 <= w < total]
        warmup = warmups[warmup % len(warmups)]
        refresh = RefreshConfig(retention, phases)
        if kind is SchemeKind.SRAM:
            spec = SchemeSpec(kind=kind, energy=SRAM)
        elif kind is SchemeKind.DCR:
            spec = SchemeSpec(kind=kind, refresh=refresh,
                              controller=default_config(
                                  geometry, granularity=1, delta=delta,
                                  sampling_ratio_denom=1))
        else:
            spec = SchemeSpec(kind=kind, refresh=refresh)
        timing = TimingParams(base_cpi=cpi, clock_ghz=2.0)
        kwargs = dict(warmup_instructions=warmup,
                      interval_instructions=max(1, total // parts))
        got = run(trace, spec, geometry, timing, EDRAM, **kwargs)
        want = reference_run(trace, spec, geometry, timing, EDRAM, **kwargs)
        assert got == want

    check()
    _assert_drawn(seen)


def test_rpv_with_more_phases_than_a_byte_holds():
    # 300 phases of 10 cycles: a record's phase is a byte, so they are
    # refused before any scheme holds them
    with pytest.raises(RefreshConfigError, match=r"phases must be in "
                                                 r"\[1, 256\], got 300"):
        RefreshConfig(3000, 300)


@pytest.mark.parametrize("phases", [256, 257])
def test_rpv_phase_column_at_the_width_boundary(phases):
    # 256 phases are the most a byte per record numbers; 257 are refused
    if phases > 256:
        with pytest.raises(RefreshConfigError, match="got 257"):
            RefreshConfig(10 * phases, phases)
        return
    geometry = _geometry(2)
    trace = _trace(seed=11)
    scheme = SchemeSpec(kind=SchemeKind.RPV,
                        refresh=RefreshConfig(10 * phases, phases))
    timing = TimingParams(base_cpi=1.5, clock_ghz=2.0)
    kwargs = dict(interval_instructions=50_000)
    got = run(trace, scheme, geometry, timing, EDRAM, **kwargs)
    want = reference_run(trace, scheme, geometry, timing, EDRAM, **kwargs)
    assert got == want
    assert got.total_refreshed_lines > 0


def test_decision_on_the_last_record_opens_a_trailing_interval():
    # 240k instructions close the last 4000-instruction interval on the last
    # record; that decision switches colors and flushes dirty lines, which
    # an interval of no instructions pays for
    geometry = _geometry(2)
    trace = _trace(seed=100)
    scheme = _scheme(SchemeKind.DCR, 1, geometry)
    timing = TimingParams(clock_ghz=2.0)
    got = run(trace, scheme, geometry, timing, EDRAM, warmup_instructions=0,
              interval_instructions=4_000)
    want = reference_run(trace, scheme, geometry, timing, EDRAM,
                         warmup_instructions=0, interval_instructions=4_000)
    assert got == want
    last = got.intervals[-1]
    assert last.instructions == 0 and last.elapsed_cycles == 0
    assert last.switched_blocks == got.decisions[-1].switched_blocks > 0
    assert last.dram_accesses == got.decisions[-1].flush_writebacks


def test_compare_with_shared_replay_matches_reference_runs():
    geometry = _geometry(2)
    trace = _trace(seed=7)
    timing = TimingParams(base_cpi=1.5, clock_ghz=2.0)
    schemes = [_scheme(kind, phases, geometry)
               for kind, phases in _KINDS if phases in (1, 4)]
    schemes[1].name = "rpv1"
    report = compare(trace, schemes, geometry, timing, EDRAM,
                     warmup_instructions=20_000, interval_instructions=10_000)
    for spec in schemes:
        want = reference_run(trace, spec, geometry, timing, EDRAM,
                             warmup_instructions=20_000,
                             interval_instructions=10_000)
        assert report.reports[spec.name] == want, spec.name


def _grouped(refresh, phases=(2, 4)):
    """Baseline, two RPV schemes of `phases` and SRAM, as one call to
    `run_schemes` times them: on one trip, a timer each."""
    rpv = [SchemeSpec(kind=SchemeKind.RPV, name=f"rpv{k}",
                      refresh=RefreshConfig(refresh.retention_cycles, k))
           for k in phases]
    return [SchemeSpec(kind=SchemeKind.BASELINE_EDRAM, refresh=refresh),
            *rpv, SchemeSpec(kind=SchemeKind.SRAM, energy=SRAM)]


def _assert_grouped_equals_reference_and_lone_runs(trace, schemes, geometry,
                                                   timing, **kwargs):
    """Each scheme's report from the grouped call equals the record-at-a-
    time reference and `run` of that scheme alone, on a trace that keeps
    no replay; returns the reports."""
    got = run_schemes(trace, schemes, geometry, timing, EDRAM, **kwargs)
    for spec, report in zip(schemes, got, strict=True):
        want = reference_run(trace, spec, geometry, timing, EDRAM, **kwargs)
        assert report == want, spec.name
        alone = TraceArrays(trace.gaps, trace.ops, trace.addrs)
        assert run(alone, spec, geometry, timing, EDRAM, **kwargs) == want, \
            spec.name
    return got


@pytest.mark.parametrize("case", ["warm-up inside an interval",
                                  "close on the last record", "long burst"])
def test_grouped_timing_matches_reference_and_lone_runs(case, monkeypatch):
    # the grouped call shares the warm-up, the closes and the tallies of
    # outcomes among the timers; each timer keeps its own cycle, refresh
    # boundaries, banks and, for RPV, phases
    geometry = _geometry(1 if case == "long burst" else 2)
    trace = _trace(seed=31)
    refresh = RefreshConfig(2400)
    kwargs = dict(warmup_instructions=23_456, interval_instructions=10_000)
    bursts = []
    if case == "close on the last record":
        # 240,000 instructions in 6,000 gaps of 40: the 60th close falls
        # on the last record
        kwargs = dict(warmup_instructions=0, interval_instructions=4_000)
    elif case == "long burst":
        # 1028 cycles for one bank of 1024 lines, more than a 257- or
        # 514-cycle phase: a burst may hold the bank for its whole phase,
        # so that a wait on it runs into the next boundary. It holds it no
        # longer: a line joins a phase only while its bank is free in it.
        refresh = RefreshConfig(1028)
        real_lines = oracles.RpvPhases.lines

        def lines(rpv, phase):
            per_bank = real_lines(rpv, phase)
            bursts.append(sum(per_bank) - rpv.phase_cycles)
            return per_bank
        monkeypatch.setattr(oracles.RpvPhases, "lines", lines)
    timing = TimingParams(base_cpi=1.5, clock_ghz=2.0)
    got = _assert_grouped_equals_reference_and_lone_runs(
        trace, _grouped(refresh), geometry, timing, **kwargs)
    cycles = {report.total_cycles for report in got}
    assert len(cycles) == len(got)  # every scheme waits differently
    if case == "close on the last record":
        for report in got:
            assert [iv.instructions for iv in report.intervals] == \
                [4_000] * 60
    if case == "long burst":
        assert max(bursts) == 0


def test_grouped_timing_matches_reference_on_tiny_configs():
    # the tiny caches of test_run_matches_reference_run_on_tiny_configs,
    # timed for baseline, two RPV schemes and SRAM on one trip: a phase of
    # 30-960 cycles may be shorter than the 32-256 lines of a one-bank
    # cache
    seen = collections.Counter()

    @settings(max_examples=60, deadline=None)
    @given(ways=st.sampled_from([2, 4, 8, 16]),
           banks=st.sampled_from([1, 2, 4]),
           phases=st.sampled_from([(1, 2), (2, 4), (3, 4), (4, 1)]),
           cpi=st.sampled_from([0.7, 1.0, 1.5]),
           retention=st.sampled_from([120, 240]),
           sets=st.sampled_from([1, 2, 4, 16]), records=_TINY_RECORDS,
           warmup=st.integers(0, 4), interval=st.integers(0, 2))
    @example(ways=8, banks=4, phases=(2, 4), cpi=1.5, retention=120, sets=1,
             records=_filling(8), warmup=0, interval=2)
    @example(ways=16, banks=2, phases=(3, 4), cpi=1.0, retention=240,
             sets=1, records=_filling(16), warmup=2, interval=1)
    def check(ways, banks, phases, cpi, retention, sets, records, warmup,
              interval):
        retention *= max(1, ways // 2)
        geometry, trace, gaps = _tiny_case(ways, banks, retention, sets,
                                           records, seen)
        total = trace.instructions
        assume(total > 0)
        warmups = [None] + [w for w in (0, gaps[0], total // 3,
                                        total - gaps[-1] - 1)
                            if 0 <= w < total]
        warmup = warmups[warmup % len(warmups)]
        # the instructions after warm-up, which one interval of that
        # length closes on the last record that adds any
        counted = 0
        for gap in gaps:
            counted += gap
            if warmup and counted >= warmup:
                break
        after = total - counted if warmup else total
        intervals = [i for i in (after, max(1, total // 3),
                                 max(1, total // 7)) if i]
        timing = TimingParams(base_cpi=cpi, clock_ghz=2.0)
        _assert_grouped_equals_reference_and_lone_runs(
            trace, _grouped(RefreshConfig(retention), phases), geometry,
            timing, warmup_instructions=warmup,
            interval_instructions=intervals[interval % len(intervals)])

    check()
    _assert_drawn(seen)


def test_ages_reach_the_nibble_boundary_at_16_ways():
    # 16 blocks of one set, touched in turn three times: once the set is
    # full, each touch hits its oldest line, of age 15, the most four bits
    # hold; then a trace that fills and thrashes the other sets
    geometry = _geometry(2, ways=16)
    page, colors = geometry.page_bytes, geometry.color_count
    cycle = [(40, i % 3 == 0, i * colors * page) for i in range(16)] * 3
    tail = _trace(seed=16)
    trace = trace_of(cycle + list(zip(*map(oracles.ints, (
        tail.gaps, tail.ops, tail.addrs)))))
    ages = age_column(trace, geometry)
    assert ages[:48] == [None] * 16 + [15] * 32
    assert ages == age_mirror(trace, geometry)
    timing = TimingParams(base_cpi=1.5, clock_ghz=2.0)
    _assert_grouped_equals_reference_and_lone_runs(
        trace, _grouped(RefreshConfig(2400)), geometry, timing,
        warmup_instructions=0, interval_instructions=10_000)


def test_functional_replay_matches_access_block(small_geometry):
    trace = _trace(seed=3)
    fast = CacheState(small_geometry)
    codes = bytearray(len(trace))
    # in two chunks, to cover a start in the middle of the trace
    half = len(trace) // 2
    replay(fast, trace, 0, half, codes)
    replay(fast, trace, half, len(trace), codes)

    lists = SetLists(CacheState(small_geometry))
    for i, (addr, is_write) in enumerate(zip(trace.addrs, trace.ops)):
        # the outcome bits, then a hit's age above them
        age = age_in(lists, int(addr))
        assert codes[i] & 0x0F == access_block(lists, is_write, addr), i
        assert codes[i] >> AGE_SHIFT == (age or 0), i
    slow = lists.store()
    assert all_sets(fast) == all_sets(slow)
    assert dirty_tags(fast) == dirty_tags(slow)
    assert fast.n_valid == slow.n_valid
    assert fast.valid_by_bank.tolist() == slow.valid_by_bank.tolist()
    assert validate_state(fast).ok


def _tallies(trace, codes, lo, hi):
    """A clock's tallies of records [lo, hi), from their code bytes."""
    window = codes[lo:hi]
    return (sum(trace.gaps[lo:hi]),
            sum(bool(code & HIT) for code in window),
            sum(not code & HIT for code in window),
            sum(bool(code & DIRTY_VICTIM) for code in window),
            sum(not code & (HIT | WRITE) for code in window))


def test_functional_replay_clock_tallies_its_stored_codes(
        small_geometry):
    # a clock with no timer, no warm-up and no close counts, over each
    # call's records, what their stored codes say
    trace = _trace(seed=3)
    codes = bytearray(len(trace))
    passes = Passes(CacheState(small_geometry), trace, None, [],
                    TimingParams(base_cpi=1.5), 0, 1 << 62, codes)
    assert passes.timers == []
    half = len(trace) // 2
    for lo, hi in (0, half), (half, len(trace)):
        assert passes(lo, hi) == hi
        assert passes.take() == (_tallies(trace, codes, lo, hi), [])
    # the second phase thrashes: evictions of dirty and of clean lines
    evicted = [code & DIRTY_VICTIM for code in codes if code & EVICTED]
    assert any(evicted) and not all(evicted)


def _assert_same_state(fast, slow, fast_unit=None, slow_unit=None):
    """Every array and counter of two states (and their profiling units)
    is equal, the empty slots included."""
    for name in ("tags", "fill", "valid_by_bank"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
    assert fast.n_valid == slow.n_valid
    assert fast.mapping == slow.mapping
    if fast_unit is not None:
        for name in ("tags", "fill", "counts"):
            assert getattr(fast_unit, name) == getattr(slow_unit, name), name


def _kernel_against_reference(geometry, trace, cuts, colors, ratio=None):
    """Replay the segments between `cuts` with the kernel and with the
    Python reference, reconfiguring both to colors[k] after segment k;
    with `ratio`, both also feed a profiling unit of that ratio. Compare
    everything after each step."""
    states = [CacheState(geometry) for _ in range(2)]
    units = [ProfilingUnit(geometry, ratio) if ratio else None
             for _ in range(2)]
    codes = [bytearray(len(trace)) for _ in range(2)]
    bounds = [0, *cuts, len(trace)]
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for step, state, unit, out in zip((replay, replay_reference), states,
                                          units, codes):
            step(state, trace, lo, hi, out, unit)
        assert codes[0][lo:hi] == codes[1][lo:hi], k
        _assert_same_state(states[0], states[1], units[0], units[1])
        if k < len(colors):
            reports = [reconfigure(state, colors[k]) for state in states]
            assert reports[0] == reports[1]
            _assert_same_state(states[0], states[1])
    assert validate_state(states[0]).ok
    return codes[0], units[0]


@pytest.mark.parametrize("banks", [1, 2, 4])
def test_kernel_matches_reference_on_a_fixed_replay(banks):
    geometry = _geometry(banks)
    trace = _trace(seed=40 + banks)
    codes, _ = _kernel_against_reference(geometry, trace, [len(trace) // 3],
                                         [])
    codes = np.frombuffer(codes, dtype=np.uint8)
    assert (codes & 2).any() and (codes & 4).any()  # evictions, dirty ones
    # hits of every age an 8-way set holds
    assert set(codes[codes & HIT == 1] >> AGE_SHIFT) == set(range(8))


def test_kernel_matches_reference_across_reconfigurations():
    # DCR's shape: short segments, the controller shrinking and growing the
    # allocation between them, and the unit's five sizes fed for sampled
    # blocks
    geometry = _geometry(2)
    trace = _trace(seed=61)
    rng = random.Random(61)
    cuts = sorted(rng.sample(range(1, len(trace)), 11))
    m = geometry.color_count
    colors = [rng.randint(2, m) for _ in cuts]
    _, unit = _kernel_against_reference(geometry, trace, cuts, colors,
                                        ratio=2)
    assert all(misses and accesses for misses, _, accesses in
               oracles.size_counts(unit))


@settings(max_examples=200, deadline=None)
@given(ways=st.sampled_from([2, 4]), colors=st.sampled_from([2, 4]),
       data=st.data(),
       accesses=st.lists(st.tuples(st.integers(0, 63), st.booleans(),
                                   st.booleans()),
                         min_size=1, max_size=150))
def test_kernel_matches_reference_on_tiny_caches(ways, colors, data,
                                                 accesses):
    # 128 B pages of two 64 B blocks: 2 sets per color, 4-8 sets in all;
    # half the blocks sit at or above 2^63 bytes. A unit of X, X/2 and X/4
    # (1-8 sets) stands in for DCR's five sizes, whose X/16 has no set here.
    geometry = CacheGeometry(size_bytes=colors * 128 * ways,
                             associativity=ways, page_bytes=128,
                             bank_bytes=colors * 128 * ways // 2)
    blocks, writes, high = zip(*accesses)
    addrs = [(b + (h << 57)) * 64 for b, h in zip(blocks, high)]
    trace = TraceArrays(gaps=np.ones(len(addrs), dtype=np.uint32),
                        ops=np.array(writes, dtype=np.uint8),
                        addrs=np.array(addrs, dtype=np.uint64))
    cuts = sorted(set(data.draw(st.lists(
        st.integers(1, max(1, len(addrs) - 1)), max_size=4))))
    allocations = [data.draw(st.integers(1, colors)) for _ in cuts]
    ratio = data.draw(st.sampled_from([1, 2]))
    with mock.patch.object(profiler, "PROFILED_FRACTIONS",
                           (1, 2) if ratio == 2 else (1, 2, 4)):
        _kernel_against_reference(geometry, trace, cuts, allocations, ratio)


@pytest.mark.parametrize("block_bytes", [2, 64])
def test_line_words_at_the_top_of_the_address_space(block_bytes):
    # a line slot keeps its tag in bits 0-62 and its dirty bit in bit 63:
    # blocks at the top of the address space, 2**64 - 1 first, fill the
    # tag's top bits (all 63 of them at 2-byte blocks); the rest of a
    # 1536-block working set has random high bits. 8 colors of 16 sets, 4
    # ways; the cache shrinks to 2 colors, then grows back to 8.
    geometry = CacheGeometry(size_bytes=512 * block_bytes, associativity=4,
                             block_bytes=block_bytes,
                             page_bytes=16 * block_bytes,
                             bank_bytes=256 * block_bytes)
    rng = random.Random(block_bytes)
    top = (1 << 64) // block_bytes - 1
    pool = [top - i for i in range(768)] + [
        rng.getrandbits(64) // block_bytes for _ in range(768)]
    hot = pool[:96] + pool[-96:]
    records = [(3, 0, (1 << 64) - 1)] + [
        (3, rng.random() < 0.4,
         rng.choice(hot if rng.random() < 0.6 else pool) * block_bytes
         + rng.randrange(block_bytes)) for _ in range(5999)]
    trace = trace_of(records)
    state, model = CacheState(geometry), CacheState(geometry)
    codes, reference = bytearray(len(trace)), bytearray(len(trace))
    passes = Passes(state, trace, None, [], TimingParams(), 0, 1 << 62,
                    codes)
    written_hits = writebacks = 0
    for lo, hi, colors in (0, 2000, 2), (2000, 4000, 8), (4000, 6000, None):
        assert passes(lo, hi) == hi
        replay_reference(model, trace, lo, hi, reference)
        assert codes[lo:hi] == reference[lo:hi], lo
        assert passes.take() == (_tallies(trace, reference, lo, hi), []), lo
        assert all_sets(state) == all_sets(model)
        assert dirty_tags(state) == dirty_tags(model)
        written_hits += sum(code & (HIT | WRITE) == HIT | WRITE
                            for code in reference[lo:hi])
        if colors is None:
            break
        # the model's dirty lines that leave: those of the colors turned
        # off, or of the regions pulled to a color turned on
        before = dirty_tags(model)
        report = reconfigure(state, colors)
        assert report == oracles.reconfigure_reference(model, colors)
        lost = before - dirty_tags(model)
        assert report.writebacks == len(lost)
        assert report.flushed_lines > report.writebacks > 0
        writebacks += report.writebacks
        assert validate_state(state).ok
    assert max(ints(trace.addrs)) == (1 << 64) - 1
    assert written_hits and writebacks
    evicted = [code & DIRTY_VICTIM for code in reference if code & EVICTED]
    assert any(evicted) and not all(evicted)  # dirty and clean evictions
    assert validate_state(state).ok


@pytest.mark.parametrize("span", [None, 10, 1 << 34])
def test_last_touch_matches_a_per_set_mirror(span, small_geometry,
                                             geometry_2mb):
    # a hit's age counts the lines of its set touched since its last touch
    if span is None:
        geometry, trace = small_geometry, _trace(seed=5)
    else:
        # on 4096 sets: fewer distinct blocks than sets, or block numbers
        # past 32 bits; all in sets 0-7, so that they evict each other
        geometry = geometry_2mb
        rng = np.random.default_rng(span % 1000)
        pool = rng.integers(0, span, 200)
        pool += rng.integers(0, 8, 200) - pool % geometry.total_sets
        n = 3_000
        trace = TraceArrays(gaps=np.ones(n, dtype=np.uint32),
                            ops=(rng.random(n) < 0.3).astype(np.uint8),
                            addrs=rng.choice(pool, n).astype(np.uint64) * 64)
    got = age_column(trace, geometry)
    assert got == age_mirror(trace, geometry)
    ages = [age for age in got if age is not None]
    assert len(ages) > len(trace) // 4  # many hits
    # of every age, but where each set holds at most one block
    ways = geometry.associativity
    assert set(ages) == ({0} if span == 10 else set(range(ways)))


@settings(max_examples=150, deadline=None)
@given(ways=st.sampled_from([2, 4]), colors=st.sampled_from([2, 4]),
       banks=st.sampled_from([1, 2]),
       accesses=st.lists(st.tuples(st.integers(0, 47), st.booleans()),
                         min_size=1, max_size=120))
def test_last_touch_property_on_tiny_caches(ways, colors, banks, accesses):
    # 128 B pages of two 64 B blocks: 2 sets per color, 4-8 sets in all
    geometry = CacheGeometry(size_bytes=colors * 128 * ways, associativity=ways,
                             page_bytes=128, bank_bytes=colors * 128 * ways // banks)
    blocks, writes = zip(*accesses)
    trace = TraceArrays(gaps=np.ones(len(blocks), dtype=np.uint32),
                        ops=np.array(writes, dtype=np.uint8),
                        addrs=np.array(blocks, dtype=np.uint64) * 64)
    assert age_column(trace, geometry) == age_mirror(trace, geometry)


def _fixed_schemes(geometry, kinds=(SchemeKind.BASELINE_EDRAM,
                                     SchemeKind.RPV, SchemeKind.SRAM)):
    return [_scheme(kind, 4 if kind is SchemeKind.RPV else 1, geometry)
            for kind in kinds]


def test_fixed_trip_keeps_nothing_on_the_trace():
    # each call binds a trip on a cache of its own, which is freed when the
    # call returns; a later call, of the same geometry or another, replays
    # the trace again
    geometry = _geometry(2)
    trace = _trace(seed=1)
    rest = (TimingParams(clock_ghz=2.0), EDRAM)
    want = [run(TraceArrays(trace.gaps, trace.ops, trace.addrs), scheme,
                geometry, *rest) for scheme in _fixed_schemes(geometry)]
    made = []

    def cache(*args, **kwargs):
        made.append(CacheState(*args, **kwargs))
        return made[-1]
    with mock.patch("edrsim.sim.CacheState", cache):
        assert run_schemes(trace, _fixed_schemes(geometry), geometry,
                           *rest) == want
        kept = weakref.ref(made.pop())
        assert kept() is None
        assert set(vars(trace)) == {"gaps", "ops", "addrs", "instructions"}
        # each scheme run alone, another geometry, and all of them again
        for scheme in _fixed_schemes(geometry):
            run(trace, scheme, geometry, *rest)
        other = _geometry(4)
        run(trace, _scheme(SchemeKind.RPV, 4, other), other, *rest)
        assert run_schemes(trace, _fixed_schemes(geometry), geometry,
                           *rest) == want
        assert len(made) == 5


def test_only_rpv_keeps_slot_phases_and_no_trip_stores_codes(trips_bound):
    # RPV's timer keeps the last-touch phase of each line slot, a byte per
    # line, and no other timer keeps one; the trip stores no code bytes,
    # with RPV or without
    geometry = _geometry(2)
    trace = _trace(seed=1)
    rest = (TimingParams(clock_ghz=2.0), EDRAM)
    plain = _fixed_schemes(geometry, (SchemeKind.BASELINE_EDRAM,
                                      SchemeKind.SRAM))
    run_schemes(trace, plain, geometry, *rest)
    run_schemes(trace, _fixed_schemes(geometry), geometry, *rest)
    assert [trip.codes for trip in trips_bound] == [None, None]
    plain_phases, phases = [[timer.slot_phase for timer in trip.timers]
                            for trip in trips_bound]
    assert plain_phases == [None, None]
    assert phases[0] is None and phases[1] and phases[2] is None


def test_fixed_replay_is_kept_for_an_equal_geometry(trips_bound):
    # a sweep parses a new but equal geometry for each value; the values
    # share one trip, with a timer for each distinct fixed scheme (here
    # the two values' schemes are equal, so three timers serve both)
    trace = _trace(seed=1)
    first, second = _geometry(2), _geometry(2)
    assert first is not second
    timing = TimingParams(clock_ghz=2.0)
    configs = [SimpleNamespace(schemes=_fixed_schemes(g), geometry=g,
                               timing=timing, energy=EDRAM,
                               interval_instructions=None)
               for g in (first, second)]
    got = _sweep_reports(trace, configs, 20_000)
    assert [len(trip.timers) for trip in trips_bound] == [3]
    want = run_schemes(trace, _fixed_schemes(first), first, timing, EDRAM,
                       20_000)
    assert got == [want, want]


def test_run_rejects_an_empty_interval():
    geometry = _geometry(2)
    scheme = _scheme(SchemeKind.BASELINE_EDRAM, 1, geometry)
    with pytest.raises(ValueError, match="interval_instructions must be"):
        run(_trace(seed=1), scheme, geometry, TimingParams(clock_ghz=2.0),
            EDRAM, interval_instructions=0)


def test_refresh_burst_must_fit_in_the_retention_period():
    # one bank of 1024 lines: a 1024-cycle period never frees it
    geometry = _geometry(1)
    fits = SchemeSpec(kind=SchemeKind.BASELINE_EDRAM,
                      refresh=RefreshConfig(1025))
    check_scheme(fits, geometry)
    for kind, phases in _KINDS:
        if kind is SchemeKind.SRAM:
            continue
        tight = _scheme(kind, phases, geometry)
        tight.refresh = RefreshConfig(1024, phases)
        with pytest.raises(SchemeConfigError, match="1024-cycle"):
            check_scheme(tight, geometry)
        with pytest.raises(SchemeConfigError):
            run(_trace(seed=1), tight, geometry, TimingParams(clock_ghz=2.0),
                EDRAM)
