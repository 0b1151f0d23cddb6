"""The arguments of lru.c's record loop, edr_run, bound once per trip.

One `Passes` call binds a trip's functional pass (a cache, the trace, and
DCR's profiling unit) and its timing pass: a `Timer` per scheme and the
clock that they share, so that one loop replays the records once, times
every scheme on each record's code as it is made (RPV's timer keeps each
line slot's phase, moved by the codes' ages) and stops at the end of
each interval, where `Passes.take` reads the clock's and the timers'
tallies. Only the tests bind code bytes to store. The classes mirror
lru.c's structs in order."""

import ctypes
from array import array

from .cache import CacheState, address, kernel, zeros
from .energy import SchemeKind
from .profiler import TimingParams


class _Run(ctypes.Structure):
    """lru.c's struct run, the clock last: where warm-up ends and an
    interval closes, and the tallies that a run's timers share."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "addrs", "codes", "cache", "writes")] + [
        ("n_sizes", ctypes.c_int64), ("ratio", ctypes.c_uint64)] + [
        (name, ctypes.c_void_p) for name in (
            "unit_tags", "unit_fill", "unit_rows", "unit_counts", "gaps")] + [
        ("cpi", ctypes.c_double), ("hit_cycles", ctypes.c_int64),
        ("miss_cycles", ctypes.c_int64), ("n_banks", ctypes.c_int64),
        ("timers", ctypes.c_void_p)] + [
        (name, ctypes.c_int64) for name in (
            "n_timers", "warm_at", "close_at", "instructions", "hits",
            "misses", "dirty_victims", "load_misses")]


class Timer(ctypes.Structure):
    """lru.c's struct timer: one scheme's cycle, refresh boundaries and
    banks."""

    _fields_ = [(name, ctypes.c_int64) for name in (
        "now", "next_boundary", "boundary_len", "phase", "start",
        "refreshed")] + [
        ("bank_busy", ctypes.c_void_p), ("counts", ctypes.c_void_p),
        ("phases", ctypes.c_int64), ("slot_phase", ctypes.c_void_p)]


class Passes:
    """A trip's arguments to lru.c's edr_run, bound once.

    Built on a cache state and a trace, it binds the functional pass: the
    trace's addresses, write flags and gaps, the state, and, with a
    `profiler.ProfilingUnit`, its sizes, which look up every block whose
    number is a multiple of the unit's sampling ratio. With `codes`, a
    bytearray of a byte per record, the kernel also stores each record's
    code there. It binds the timing pass too, with `timing`'s CPI and
    latencies: the clock, the last members of `args`, whose warm-up ends
    at `warm_at` instructions and whose intervals close every `close_at`,
    and `timers`, one per scheme, in order: the elements of one array,
    which the kernel steps through on every record. A scheme's timer fires
    a refresh boundary every `phase_cycles` of its `RefreshConfig`,
    refreshing in each bank the lines that the phase it opens covers:
    every line for the baseline, the state's valid lines for DCR (its live
    per-bank counters), and for RPV the valid lines of that last-touch
    phase, which a byte per line slot keeps (`RefreshConfig` holds the
    phases to 256); SRAM's never fires. Calling it with [lo, hi) takes
    those records through the bound passes, one record at a time, and
    returns the record after the last one taken: `hi`, or earlier where an
    interval closed. The kernel counts in the bound buffers and structs,
    the cache's, the profiling unit's, the run's and the timers', so a
    call copies nothing back; the caller takes the tallies at each stop
    (`take`). A timer keeps the cycle its tallies started at, so its
    cycles are `now - start`; the end of warm-up moves `start` to the
    cycle it ends at. Records find their sets through the state's mapping,
    which `reconfigure` rewrites in place.
    """

    def __init__(self, state: CacheState, trace, unit, schemes,
                 timing: TimingParams, warm_at: int, close_at: int,
                 codes=None):
        g, n = state.geometry, len(trace)
        if unit is not None and unit.ways != g.associativity:
            raise ValueError("the cache and the profiling unit differ in "
                             "geometry")
        if max(state.mapping) >= state.active_count:
            raise AssertionError("mapping routes regions to inactive color "
                                 f"{max(state.mapping)}")
        self.records, banks = n, g.num_banks
        # the buffers the pointers below point into, besides the timers'
        self._bound = [state]
        pin = self._pin
        hit = timing.l2_hit_cycles
        self.args = a = _Run(
            addrs=pin(trace.addrs, 8, n), codes=pin(codes, 1, n),
            cache=ctypes.addressof(state.arrays),
            writes=pin(trace.ops, 1, n), gaps=pin(trace.gaps, 4, n),
            cpi=timing.base_cpi, hit_cycles=hit,
            miss_cycles=hit + timing.dram_latency_cycles, n_banks=banks,
            n_timers=len(schemes), warm_at=warm_at, close_at=close_at)
        if unit is not None:
            a.unit_tags = pin(unit.tags, 8, len(unit.tags))
            a.unit_fill = pin(unit.fill, 4, len(unit.fill))
            a.unit_rows = pin(unit.rows, 8, len(unit.rows))
            a.unit_counts = pin(unit.counts, 8, len(unit.counts))
            a.n_sizes, a.ratio = len(unit.sizes), unit.ratio
        timers = (Timer * len(schemes))()
        a.timers = ctypes.addressof(timers)
        self.timers = list(timers)  # each keeps the array alive
        for scheme, timer in zip(schemes, self.timers):
            refresh, kind = scheme.refresh, scheme.kind
            timer.next_boundary, timer.phases = 1 << 62, 1
            timer.bank_busy = pin(zeros("q", banks), 8, banks)
            if refresh is not None:  # all but SRAM
                timer.boundary_len = timer.next_boundary = \
                    refresh.phase_cycles
                timer.phases = phases = refresh.phases
                if kind is SchemeKind.BASELINE_EDRAM:
                    counts = array("q", [g.lines_per_bank]) * banks
                elif kind is SchemeKind.DCR:
                    counts = state.valid_by_bank
                else:  # RPV
                    counts = zeros("q", banks * phases)
                    timer.slot_phase = pin(bytearray(g.total_lines), 1,
                                           g.total_lines)
                timer.counts = pin(counts, 8, banks * phases)
        self._byref = ctypes.byref(a)
        self._run = kernel("edr_run")

    def _pin(self, buffer, itemsize: int, n: int) -> int | None:
        """The address of a buffer of n items of `itemsize` bytes, kept
        alive as long as this binding, or None for None."""
        self._bound.append(buffer)
        return None if buffer is None else address(buffer, itemsize, n)

    def __call__(self, lo: int, hi: int) -> int:
        if not 0 <= lo <= hi <= self.records:
            raise ValueError(f"records [{lo}, {hi}) are not all in the "
                             f"trace's {self.records}")
        return self._run(self._byref, lo, hi)

    def take(self) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
        """The clock's tallies since the last take, or since warm-up
        ended (instructions, hits, misses, dirty victims and load misses),
        and each timer's cycles and refreshed lines since then. All of
        them restart, a timer at its current cycle."""
        a = self.args
        tallies = (a.instructions, a.hits, a.misses, a.dirty_victims,
                   a.load_misses)
        a.instructions = a.hits = a.misses = a.dirty_victims = \
            a.load_misses = 0
        timers = [(t.now - t.start, t.refreshed) for t in self.timers]
        for t in self.timers:
            t.start, t.refreshed = t.now, 0
        return tallies, timers
