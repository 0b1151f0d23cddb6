"""The two-stage replay (functional pass, then timing pass) against the
record-at-a-time reference in oracles.reference_run, bit for bit, and the
compiled functional pass against its Python reference,
oracles.replay_reference."""

import itertools
import random
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (SetLists, access_block, all_sets, dirty_tags,
                     last_touch_mirror, reference_run, replay,
                     replay_reference, validate_state, view)
from edrsim.cache import CacheGeometry, CacheState, Replay, reconfigure
from edrsim.controller import default_config
from edrsim.energy import SchemeKind, builtin_params
from edrsim import profiler
from edrsim.profiler import ProfilingUnit
from edrsim.refresh import RefreshConfig
from edrsim.sim import (SchemeConfigError, SchemeSpec, TimingParams,
                        check_scheme, compare, fixed_replay, run)
from edrsim.trace import (PhaseSpec, SyntheticTraceSpec, TraceArrays,
                          generate_synthetic)

EDRAM = builtin_params("EDRAM_2MB")
SRAM = builtin_params("SRAM_2MB")


def _geometry(banks):
    # 64 KB, 8-way, 1 KB pages: 8 colors, 128 sets, 1024 lines
    return CacheGeometry(size_bytes=64 * 1024, associativity=8,
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


@settings(max_examples=150, deadline=None)
@given(ways=st.sampled_from([2, 4]), banks=st.sampled_from([1, 2, 4]),
       scheme=st.sampled_from(_TINY_SCHEMES),
       cpi=st.sampled_from([0.7, 1.0, 1.5]),
       retention=st.sampled_from([120, 240]), data=st.data(),
       records=st.lists(st.tuples(st.integers(0, 40), st.booleans(),
                                  st.integers(0, 95), st.booleans()),
                        min_size=2, max_size=150))
def test_run_matches_reference_run_on_tiny_configs(ways, banks, scheme, cpi,
                                                   retention, data, records):
    # 128 B pages of two 64 B blocks on 8 colors: 16 sets, 32-64 lines, so
    # DCR's X/16 unit has one set. Gaps of 0 put several records on one
    # instruction count, so that warm-up can end and an interval close on
    # a record that adds no instructions.
    kind, phases = scheme
    geometry = CacheGeometry(size_bytes=16 * 64 * ways, associativity=ways,
                             page_bytes=128,
                             bank_bytes=16 * 64 * ways // banks)
    gaps, writes, blocks, long = zip(*records)
    # a long gap adds 2-5 retention periods of instructions, so that one
    # record fires several events
    gaps = [g + (data.draw(st.integers(2, 5)) * retention if far else 0)
            for g, far in zip(gaps, long)]
    trace = TraceArrays(gaps=np.array(gaps, dtype=np.uint32),
                        ops=np.array(writes, dtype=np.uint8),
                        addrs=np.array(blocks, dtype=np.uint64) * 64)
    total = trace.instructions
    assume(total > 0)
    warmup = data.draw(st.sampled_from(
        [None] + [w for w in (0, gaps[0], total - gaps[-1] - 1)
                  if 0 <= w < total]))
    interval = max(1, total // data.draw(st.integers(2, 8)))
    refresh = RefreshConfig(retention, phases)
    if kind is SchemeKind.SRAM:
        spec = SchemeSpec(kind=kind, energy=SRAM)
    elif kind is SchemeKind.DCR:
        spec = SchemeSpec(kind=kind, refresh=refresh,
                          controller=default_config(
                              geometry, granularity=1,
                              delta=data.draw(st.integers(1, 8)),
                              sampling_ratio_denom=1))
    else:
        spec = SchemeSpec(kind=kind, refresh=refresh)
    timing = TimingParams(base_cpi=cpi, clock_ghz=2.0)
    kwargs = dict(warmup_instructions=warmup, interval_instructions=interval)
    got = run(trace, spec, geometry, timing, EDRAM, **kwargs)
    want = reference_run(trace, spec, geometry, timing, EDRAM, **kwargs)
    assert got == want


def test_rpv_with_more_phases_than_a_byte_holds():
    # 300 phases of 10 cycles: more phases than a byte could number, which
    # each record's int32 entry of the last-touch column holds
    geometry = _geometry(2)
    trace = _trace(seed=9)
    scheme = SchemeSpec(kind=SchemeKind.RPV,
                        refresh=RefreshConfig(3000, 300))
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


def test_functional_replay_matches_access_block(small_geometry):
    trace = _trace(seed=3)
    writes = trace.ops
    fast = CacheState(small_geometry)
    out = Replay(len(trace))
    # in two chunks, to cover a start in the middle of the trace
    half = len(trace) // 2
    replay(fast, trace.addrs, writes, 0, half, out)
    replay(fast, trace.addrs, writes, half, len(trace), out)

    lists = SetLists(CacheState(small_geometry))
    for i, (addr, is_write) in enumerate(zip(trace.addrs, writes)):
        assert out.codes[i] == access_block(lists, is_write, addr), i
    slow = lists.store()
    assert all_sets(fast) == all_sets(slow)
    assert dirty_tags(fast) == dirty_tags(slow)
    assert fast.n_valid == slow.n_valid
    assert fast.valid_by_bank.tolist() == slow.valid_by_bank.tolist()
    assert validate_state(fast).ok


def _assert_same_state(fast, slow, fast_unit=None, slow_unit=None):
    """Every array and counter of two states (and their profiling units)
    is equal, the empty slots included."""
    for name in ("tags", "dirty", "fill", "valid_by_bank"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
    assert fast.n_valid == slow.n_valid
    assert fast.mapping == slow.mapping
    if fast_unit is not None:
        for name in ("tags", "fill", "counts"):
            assert getattr(fast_unit, name) == getattr(slow_unit, name), name


def _kernel_against_reference(geometry, trace, cuts, colors, ratio=None,
                              min_colors=1):
    """Replay the segments between `cuts` with the kernel and with the
    Python reference, reconfiguring both to colors[k] after segment k;
    with `ratio`, both also feed a profiling unit of that ratio. Compare
    everything after each step."""
    writes = trace.ops
    states = [CacheState(geometry, min_colors=min_colors) for _ in range(2)]
    units = [ProfilingUnit(geometry, ratio) if ratio else None
             for _ in range(2)]
    outs = [Replay(len(trace)) for _ in range(2)]
    bounds = [0, *cuts, len(trace)]
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for step, state, unit, out in zip((replay, replay_reference), states,
                                          units, outs):
            step(state, trace.addrs, writes, lo, hi, out, unit)
        assert outs[0].codes[lo:hi] == outs[1].codes[lo:hi], k
        _assert_same_state(states[0], states[1], units[0], units[1])
        if k < len(colors):
            reports = [reconfigure(state, colors[k]) for state in states]
            assert reports[0] == reports[1]
            _assert_same_state(states[0], states[1])
    assert validate_state(states[0]).ok
    return outs[0], units[0]


@pytest.mark.parametrize("banks", [1, 2, 4])
def test_kernel_matches_reference_on_a_fixed_replay(banks):
    geometry = _geometry(banks)
    trace = _trace(seed=40 + banks)
    out, _ = _kernel_against_reference(geometry, trace, [len(trace) // 3],
                                       [])
    codes = np.frombuffer(out.codes, dtype=np.uint8)
    assert (codes & 2).any() and (codes & 4).any()  # evictions, dirty ones


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
                                        ratio=2, min_colors=2)
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


@pytest.mark.parametrize("span", [None, 10, 1 << 34])
def test_last_touch_matches_a_per_set_mirror(span, small_geometry,
                                             geometry_2mb):
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
    got = fixed_replay(trace, geometry).last_touch
    assert got.tolist() == last_touch_mirror(trace, geometry)
    assert sum(t >= 0 for t in got) > len(trace) // 2  # mostly hits, evictions


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
    got = fixed_replay(trace, geometry).last_touch
    assert got.tolist() == last_touch_mirror(trace, geometry)


def test_fixed_replay_is_kept_for_one_trace_and_geometry():
    geometry = _geometry(2)
    trace = _trace(seed=1)
    first = fixed_replay(trace, geometry)
    assert fixed_replay(trace, geometry) is first
    # another geometry, or an equal trace in another object, replaces it
    assert fixed_replay(trace, _geometry(4)) is not first
    copy = TraceArrays(trace.gaps, trace.ops, trace.addrs)
    assert fixed_replay(copy, geometry).codes == first.codes
    assert fixed_replay(trace, geometry) is not first
    kept = weakref.ref(fixed_replay(trace, geometry))
    del trace
    assert kept() is None  # freed with its trace


def test_run_rejects_an_empty_interval():
    geometry = _geometry(2)
    scheme = _scheme(SchemeKind.BASELINE_EDRAM, 1, geometry)
    with pytest.raises(ValueError, match="interval_instructions must be"):
        run(_trace(seed=1), scheme, geometry, TimingParams(clock_ghz=2.0),
            EDRAM, interval_instructions=0)


@pytest.mark.parametrize("where", ["next", "last", "past the end"])
def test_rpv_rejects_a_last_touch_entry_that_points_forward(where):
    # a corrupt column would make the timing pass read a record index as a
    # phase, or read past the column; it stops at the record instead. `run`
    # times the replay that fixed_replay keeps for this trace and geometry.
    geometry = _geometry(2)
    trace = _trace(seed=4)
    replay = fixed_replay(trace, geometry)
    r = [i for i, t in enumerate(replay.last_touch) if t >= 0][100]
    replay.last_touch[r] = {"next": r + 1, "last": len(trace) - 1,
                            "past the end": 2**31 - 1}[where]
    rpv = _scheme(SchemeKind.RPV, 4, geometry)
    with pytest.raises(ValueError, match=f"record {r}: its last-touch"):
        run(trace, rpv, geometry, TimingParams(clock_ghz=2.0), EDRAM)


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
