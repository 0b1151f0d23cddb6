"""The arguments of lru.c's record loop, edr_run, bound once per trip.

`Passes` binds a trip's functional pass (a cache, the trace, and DCR's
profiling unit) and its timing pass: a `Clock` that the trip's schemes
share and a `Timer` per scheme, so that one loop replays the records
once, times every scheme on each record's code as it is made (RPV's timer
keeps each line slot's phase, moved by the codes' ages) and stops at the
end of each interval. Only the tests bind code bytes to store. The
classes mirror lru.c's structs in order."""

import ctypes

from .cache import CacheState, address, kernel, zeros


class _Run(ctypes.Structure):
    """lru.c's struct run."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "addrs", "codes", "cache", "writes")] + [
        ("n_sizes", ctypes.c_int64), ("ratio", ctypes.c_uint64)] + [
        (name, ctypes.c_void_p) for name in (
            "unit_tags", "unit_fill", "unit_rows", "unit_counts", "clock",
            "gaps")] + [
        ("cpi", ctypes.c_double), ("hit_cycles", ctypes.c_int64),
        ("miss_cycles", ctypes.c_int64), ("n_banks", ctypes.c_int64),
        ("timers", ctypes.c_void_p), ("n_timers", ctypes.c_int64)]


class Clock(ctypes.Structure):
    """lru.c's struct clock: where warm-up ends and an interval closes, and
    the tallies that every timer of a run shares."""

    _fields_ = [(name, ctypes.c_int64) for name in (
        "warm_at", "close_at", "instructions", "hits", "misses",
        "dirty_victims", "load_misses")]

    def take(self) -> tuple[int, int, int, int, int]:
        """The instructions, hits, misses, dirty victims and load misses
        since the last take, or since warm-up ended; cleared."""
        got = (self.instructions, self.hits, self.misses,
               self.dirty_victims, self.load_misses)
        self.instructions = self.hits = self.misses = 0
        self.dirty_victims = self.load_misses = 0
        return got


class Timer(ctypes.Structure):
    """lru.c's struct timer: one scheme's cycle, refresh boundaries and
    banks."""

    _fields_ = [(name, ctypes.c_int64) for name in (
        "now", "next_boundary", "boundary_len", "phase", "cycles",
        "refreshed")] + [
        ("bank_busy", ctypes.c_void_p), ("counts", ctypes.c_void_p),
        ("phases", ctypes.c_int64), ("slot_phase", ctypes.c_void_p)]

    def take(self) -> tuple[int, int]:
        """The cycles and refreshed lines since the last take, or since
        warm-up ended; cleared."""
        got = self.cycles, self.refreshed
        self.cycles = self.refreshed = 0
        return got


class Passes:
    """A trip's arguments to lru.c's edr_run, bound once.

    Built on a cache state and a trace, it binds the functional pass: the
    trace's addresses, write flags and gaps, the state, and, with a
    `profiler.ProfilingUnit`, its sizes, which look up every block whose
    number is a multiple of the unit's sampling ratio. With `codes`, a
    bytearray of a byte per record, the kernel also stores each record's
    code there. It also binds a clock with no timer, no warm-up and no
    close, which `bind_timing` replaces (see `sim._trip`). Calling it with
    [lo, hi) takes those records through the bound passes, one record at a
    time, and returns the record after the last one taken: `hi`, or
    earlier where the timing pass closed an interval. The kernel counts in
    the bound buffers and structs, the cache's, the profiling unit's, the
    clock's and the timers', so a call copies nothing back. Records find
    their sets through the state's layout, which `reconfigure` keeps
    current.
    """

    def __init__(self, state: CacheState, trace, unit=None, codes=None):
        g, n = state.geometry, len(trace)
        if unit is not None and unit.ways != g.associativity:
            raise ValueError("the cache and the profiling unit differ in "
                             "geometry")
        if max(state.mapping) >= state.active_count:
            raise AssertionError("mapping routes regions to inactive color "
                                 f"{max(state.mapping)}")
        self.geometry, self.records = g, n
        clock = Clock(close_at=1 << 62)
        # the buffers the pointers below point into
        self._bound = [state, clock]
        self.args = _Run(cache=ctypes.addressof(state.arrays),
                         clock=ctypes.addressof(clock))
        self._bind("addrs", trace.addrs, 8, n)
        self._bind("codes", codes, 1, n)
        self._bind("writes", trace.ops, 1, n)
        self._bind("gaps", trace.gaps, 4, n)
        if unit is not None:
            self._bind("unit_tags", unit.tags, 8, len(unit.tags))
            self._bind("unit_fill", unit.fill, 4, len(unit.fill))
            self._bind("unit_rows", unit.rows, 8, len(unit.rows))
            self._bind("unit_counts", unit.counts, 8, len(unit.counts))
            self.args.n_sizes, self.args.ratio = len(unit.sizes), unit.ratio
        self._byref = ctypes.byref(self.args)
        self._run = kernel("edr_run")

    def _bind(self, name: str, buffer, itemsize: int, n: int) -> None:
        """Point the kernel's argument `name` at a buffer of n items of
        `itemsize` bytes, or at nothing for None."""
        self._bound.append(buffer)
        setattr(self.args, name,
                None if buffer is None else address(buffer, itemsize, n))

    def bind_timing(self, cpi: float, hit_cycles: int, miss_cycles: int,
                    warm_at: int, close_at: int,
                    timers) -> tuple[Clock, list[Timer]]:
        """Time the records: the kernel's arguments of the same names (see
        lru.c's edr_run), on a new clock, and a timer for each
        (boundary_len, phases, counts, by_phase) of `timers`. A timer fires
        a refresh boundary every boundary_len cycles, never if 0, which
        refreshes in bank b the counts[b * phases + phase] lines of the
        phase it opens (an int64 buffer, None without refresh). With
        by_phase (RPV), they count the valid lines by the phase of their
        last touch, and a byte per line slot bound here keeps its phase
        (`RefreshConfig` holds `phases` to 256). Returns the clock and the
        timers, whose tallies the caller takes at each stop."""
        banks, lines = self.geometry.num_banks, self.geometry.total_lines
        clock, bound = Clock(warm_at=warm_at, close_at=close_at), []
        for boundary_len, phases, counts, by_phase in timers:
            timer = Timer(next_boundary=boundary_len or 1 << 62,
                          boundary_len=boundary_len, phases=phases)
            busy, slot_phase = zeros("q", banks), None
            timer.bank_busy = address(busy, 8, banks)
            if counts is not None:
                timer.counts = address(counts, 8, banks * phases)
            if by_phase:
                slot_phase = bytearray(lines)
                timer.slot_phase = address(slot_phase, 1, lines)
            self._bound += [timer, busy, counts, slot_phase]
            bound.append(timer)
        pointers = (ctypes.c_void_p * len(bound))(
            *map(ctypes.addressof, bound))
        self._bound += [clock, pointers]
        a = self.args
        a.clock, a.timers = ctypes.addressof(clock), ctypes.addressof(pointers)
        a.n_timers, a.n_banks = len(bound), banks
        a.cpi, a.hit_cycles, a.miss_cycles = cpi, hit_cycles, miss_cycles
        return clock, bound

    def __call__(self, lo: int, hi: int) -> int:
        if not 0 <= lo <= hi <= self.records:
            raise ValueError(f"records [{lo}, {hi}) are not all in the "
                             f"trace's {self.records}")
        return self._run(self._byref, lo, hi)
