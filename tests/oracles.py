"""Brute-force reference implementations, used only by the test suite.

These are deliberately plain: full scans and straight-line formula
re-evaluation, O(lines) or O(trace), no shared code with the paths they
check beyond the parameter objects. The one exception is the charge-timeline
oracle, which drives the real cache and refresh policies and checks them
against its own per-line charge bookkeeping.
"""

from dataclasses import dataclass

from edrsim.cache import CacheGeometry, CacheState, access_block, locate
from edrsim.energy import EnergyBreakdown, EnergyParams, SchemeKind
from edrsim.profiler import IntervalStats
from edrsim.refresh import (RefreshConfig, refresh_all, rpv_refresh,
                            valid_only_refresh)
from edrsim.trace import Op


@dataclass
class OracleVerdict:
    ok: bool
    first_divergence: str = ""


def full_profile(arrays, geometry: CacheGeometry, emulated_size: int):
    """Exact (misses, load_misses) of a conventional LRU cache of the given
    size replaying the whole trace: every set, no sampling."""
    ways = geometry.associativity
    num_sets = emulated_size // (geometry.block_bytes * ways)
    assert num_sets >= 1
    sets: list[list[int]] = [[] for _ in range(num_sets)]
    misses = 0
    load_misses = 0
    block_bytes = geometry.block_bytes
    ops = arrays.ops.tolist()
    blocks = (arrays.addrs // block_bytes).tolist()
    for i in range(len(blocks)):
        b = blocks[i]
        lst = sets[b % num_sets]
        if b in lst:
            lst.remove(b)
            lst.append(b)
        else:
            misses += 1
            if ops[i] == 0:
                load_misses += 1
            lst.append(b)
            if len(lst) > ways:
                lst.pop(0)
    return misses, load_misses


def recompute_energy(stats: IntervalStats, params: EnergyParams,
                     scheme: SchemeKind) -> EnergyBreakdown:
    """Straight-line re-evaluation of the interval energy equations."""
    t = stats.elapsed_cycles / (params.clock_ghz * 1e9)
    f_a = stats.active_fraction if scheme is SchemeKind.DCR else 1.0
    n_r = 0 if scheme is SchemeKind.SRAM else stats.refreshed_lines
    le_l2 = params.p_leak_l2 * f_a * t
    de_l2 = params.e_dyn_l2_j * (2 * stats.l2_misses + stats.l2_hits)
    re_l2 = n_r * params.e_dyn_l2_j
    e_dram = params.p_leak_dram * t + params.e_dyn_dram_j * stats.dram_accesses
    if scheme is SchemeKind.DCR:
        e_prof = params.p_leak_prof * t + params.e_dyn_prof_j * stats.prof_accesses
        e_algo = params.e_transition_j * stats.switched_blocks + e_prof
    else:
        e_prof = 0.0
        e_algo = 0.0
    total = le_l2 + de_l2 + re_l2 + e_dram + e_algo
    return EnergyBreakdown(le_l2, de_l2, re_l2, e_dram, e_algo, e_prof, total)


def validate_state(state: CacheState) -> OracleVerdict:
    """Full-scan consistency check of a cache state.

    Verifies set occupancy (at most `associativity` distinct tags per set, no
    block in two sets), the n_valid counter (total, per bank, per
    bank-and-phase), that every dirty bit and phase entry belongs to a
    resident tag, containment (no valid line in an inactive color), mapping
    totality and codomain, and reachability (each valid line's region still
    maps to the color holding it).
    """
    g = state.geometry
    m_total = g.color_count

    if len(state.mapping) != m_total:
        return OracleVerdict(False, f"mapping has {len(state.mapping)} entries, "
                             f"expected {m_total}")
    codomain = set(state.mapping)
    if not codomain <= state.active_colors:
        return OracleVerdict(False, "mapping targets inactive colors "
                             f"{sorted(codomain - state.active_colors)}")
    if codomain != state.active_colors:
        return OracleVerdict(False, "active colors without any region: "
                             f"{sorted(state.active_colors - codomain)}")

    n_valid = 0
    resident: set[int] = set()
    by_bank = [0] * g.num_banks
    phases = len(state.valid_by_bank_phase[0])
    by_bank_phase = [[0] * phases for _ in range(g.num_banks)]
    for set_index, tags in enumerate(state.sets):
        color = set_index // g.sets_per_color
        bank = set_index // g.sets_per_bank
        if len(tags) > g.associativity:
            return OracleVerdict(False, f"set {set_index} holds {len(tags)} "
                                 f"tags, associativity is {g.associativity}")
        for tag in tags:
            if tag in resident:
                return OracleVerdict(False, f"tag {tag:#x} resident twice "
                                     f"(again in set {set_index})")
            resident.add(tag)
            n_valid += 1
            by_bank[bank] += 1
            if state.phase_clock is not None:
                if tag not in state.phase_of_tag:
                    return OracleVerdict(False, f"tag {tag:#x} in set "
                                         f"{set_index} has no phase")
                by_bank_phase[bank][state.phase_of_tag[tag]] += 1
            if color not in state.active_colors:
                return OracleVerdict(False, f"valid line in inactive color "
                                     f"{color} (set {set_index} tag {tag:#x})")
            region = state.region_of_tag(tag)
            if state.mapping[region] != color:
                return OracleVerdict(False, f"stale line: region {region} maps "
                                     f"to {state.mapping[region]} but line sits "
                                     f"in color {color}")

    stray = (state.dirty | state.phase_of_tag.keys()) - resident
    if stray:
        return OracleVerdict(False, f"dirty or phase entries for non-resident "
                             f"tags {sorted(stray)[:8]}")
    if n_valid != state.n_valid:
        return OracleVerdict(False, f"n_valid counter {state.n_valid}, "
                             f"scan found {n_valid}")
    if by_bank != state.valid_by_bank:
        return OracleVerdict(False, f"per-bank counters {state.valid_by_bank}, "
                             f"scan found {by_bank}")
    if state.phase_clock is not None and by_bank_phase != state.valid_by_bank_phase:
        return OracleVerdict(False, "per-bank-phase counters diverge from scan")
    return OracleVerdict(True)


@dataclass
class TimelineVerdict:
    ok: bool
    line: tuple[int, int] | None = None  # (set_index, tag)
    at_cycle: int | None = None
    detail: str = ""


def timeline_oracle(records, policy: str, config: RefreshConfig,
                    geometry: CacheGeometry,
                    skip_phases=frozenset()) -> TimelineVerdict:
    """Brute-force retention-safety check on a small cache instance.

    Replays the records against a real cache under the given policy while
    tracking every line's exact charge timestamp (charged on install, read,
    write, and refresh). Reports a violation if any valid line's
    time-since-charge ever exceeds the retention period, whether it is next
    touched, refreshed, evicted or still resident at the end. At each refresh
    boundary the oracle scans the array for the lines the policy covers and
    requires the scan to count the lines the event reports refreshed.
    skip_phases injects a broken polyphase policy for mutation testing.
    """
    if policy not in ("refresh_all", "rpv", "valid_only"):
        raise ValueError(f"unknown policy {policy!r}")
    if geometry.total_sets > 64:
        raise ValueError("timeline oracle is for small instances (<= 64 sets)")

    clock = config.phase_clock() if policy == "rpv" else None
    state = CacheState(geometry, phase_clock=clock)
    retention = config.retention_cycles
    boundary_len = config.phase_cycles if policy == "rpv" else retention
    charge: dict[tuple[int, int], int] = {}  # (set_index, tag) -> cycle

    def over_age(key, cycle) -> TimelineVerdict | None:
        t0 = charge.get(key)
        if t0 is not None and cycle - t0 > retention:
            return TimelineVerdict(
                False, line=key, at_cycle=t0 + retention,
                detail=f"line {key} charged at {t0}, still valid at {cycle}")
        return None

    def resident(phase=None):
        return [(set_index, tag) for set_index, tags in enumerate(state.sets)
                for tag in tags
                if phase is None or state.phase_of_tag[tag] == phase]

    now = 0
    next_boundary = boundary_len
    for rec in records:
        now += rec.instr_gap
        while next_boundary <= now:
            at = next_boundary
            next_boundary += boundary_len
            if policy == "refresh_all":
                refresh_all(state, config, at)
                lines = resident()
            elif policy == "valid_only":
                lines = resident()
                assert len(lines) == valid_only_refresh(
                    state, config, at).lines_refreshed
            else:
                phase = (at // config.phase_cycles) % config.phases
                if phase in skip_phases:
                    continue
                lines = resident(phase)
                assert len(lines) == rpv_refresh(
                    state, config, phase, at).lines_refreshed
            for key in lines:
                bad = over_age(key, at)
                if bad:
                    return bad
                charge[key] = at

        _, set_index, _ = locate(state, rec.address)
        before = set(state.sets[set_index])
        res = access_block(state, rec.op == Op.WRITE, rec.address, now)
        # a line the fill pushed out must not have outlived its charge
        for tag in before - set(state.sets[set_index]):
            bad = over_age((set_index, tag), now)
            if bad:
                return bad
            del charge[(set_index, tag)]
        key = (res.set_index, res.tag)
        bad = over_age(key, now)
        if bad:
            return bad
        charge[key] = now
        now += 1

    # every line still valid at the end must be within its retention window
    for key in resident():
        bad = over_age(key, now)
        if bad:
            return bad
    return TimelineVerdict(True)
