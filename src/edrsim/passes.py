"""The arguments of lru.c's record loop, edr_run, bound once per trip.

`Passes` binds a trip's functional pass (a cache, and DCR's profiling
unit) and its timing pass: a `Clock` that the trip's schemes share and a
`Timer` per scheme, so that one loop replays the records once, times
every scheme on each record's code as it is made (RPV's timer keeps each
line slot's phase, moved by the codes' ages) and stops at the end of each
interval. Only the tests bind code bytes to store. The classes mirror
lru.c's structs in order."""

import ctypes

from .cache import CacheGeometry, CacheState, Replay, address, kernel, zeros


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
    """A run's arguments to lru.c's edr_run, bound once.

    The trace's byte addresses and the code bytes of `out`, if it has any,
    are bound here, the functional pass by `bind_cache` and the timing
    pass, with a timer per scheme, by `bind_timing` (see `sim._trip`).
    Calling it with [lo, hi) takes those records through the bound passes,
    one record at a time, and returns the record after the last one taken:
    `hi`, or earlier where the timing pass closed an interval. The kernel
    counts in the bound buffers and structs, the cache's, the profiling
    unit's, the clock's and the timers', so a call copies nothing back.
    """

    def __init__(self, geometry: CacheGeometry, addrs, out: Replay):
        n = len(out)
        if len(addrs) != n:
            raise ValueError(f"a trace of {len(addrs)} records does not "
                             f"fit a replay of {n}")
        self.geometry = geometry
        self.out = out
        # the buffers the pointers below point into
        self._bound = [addrs]
        self.args = _Run(addrs=address(addrs, 8, n))
        self._bind("codes", out.codes, 1, n)
        self._byref = ctypes.byref(self.args)
        self._run = kernel("edr_run")

    def _bind(self, name: str, buffer, itemsize: int, n: int) -> None:
        """Point the kernel's argument `name` at a buffer of n items of
        `itemsize` bytes, or at nothing for None."""
        self._bound.append(buffer)
        setattr(self.args, name,
                None if buffer is None else address(buffer, itemsize, n))

    def bind_cache(self, state: CacheState, writes, unit=None) -> None:
        """Replay into `state`, with the write flags `writes`, one byte per
        record (a trace's ops are), finding sets through the state's layout,
        which `reconfigure` keeps current. With a `profiler.ProfilingUnit`,
        every block whose number is a multiple of its sampling ratio is also
        looked up at each of its sizes, which adds to its counts."""
        g = self.geometry
        if state.geometry != g or (unit is not None
                                   and unit.ways != g.associativity):
            raise ValueError("the cache, the profiling unit and the replay "
                             "differ in geometry")
        if max(state.mapping) >= state.active_count:
            raise AssertionError("mapping routes regions to inactive color "
                                 f"{max(state.mapping)}")
        self._bound.append(state)
        self._bind("writes", writes, 1, len(self.out))
        self.args.cache = ctypes.addressof(state.arrays)
        if unit is not None:
            self._bind("unit_tags", unit.tags, 8, len(unit.tags))
            self._bind("unit_fill", unit.fill, 4, len(unit.fill))
            self._bind("unit_rows", unit.rows, 8, len(unit.rows))
            self._bind("unit_counts", unit.counts, 8, len(unit.counts))
            self.args.n_sizes, self.args.ratio = len(unit.sizes), unit.ratio

    def bind_timing(self, gaps, cpi: float, hit_cycles: int,
                    miss_cycles: int, warm_at: int, close_at: int,
                    timers) -> tuple[Clock, list[Timer]]:
        """Time the records: the kernel's arguments of the same names (see
        lru.c's edr_run), and a timer for each (boundary_len, phases,
        counts, by_phase) of `timers`. A timer fires a refresh boundary
        every boundary_len cycles, never if 0, which refreshes in bank b
        the counts[b * phases + phase] lines of the phase it opens (an
        int64 buffer, None without refresh). With by_phase (RPV), they
        count the valid lines by the phase of their last touch, and a byte
        per line slot bound here keeps its phase (`RefreshConfig` holds
        `phases` to 256). Returns the clock and the timers, whose tallies
        the caller takes at each stop."""
        g, n = self.geometry, len(self.out)
        banks, lines = g.num_banks, g.total_lines
        self._bind("gaps", gaps, 4, n)
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
        n = len(self.out)
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"records [{lo}, {hi}) are not all in the "
                             f"trace's {n}")
        if not self.args.cache:
            raise ValueError("no cache is bound to replay the records into")
        return self._run(self._byref, lo, hi)
