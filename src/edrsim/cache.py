"""Set-associative colored LLC model.

The cache is split into M equally sized colors, of which the colors [0, c)
are on; memory regions (page number mod M) map onto them through a mapping
table. Shrinking c remaps the regions of the colors turned off; growing
it rebalances regions onto the colors turned on. A valid line is always
reachable through the current mapping: whenever a region is remapped, its
resident lines are flushed (dirty ones counted as writebacks), in one
flush per reconfiguration, which keeps lookups consistent and the
per-bank valid counters exact.

The sets live in flat `array.array`s: set s owns the line slots
[s * ways, (s + 1) * ways), of which its first `fill[s]` hold the resident
lines, least recent first: the same LRU stack DCR's profiling unit keeps at
each of its sizes (Mattson et al., 1970). A slot is a 64-bit word: the
line's tag, a full block number (so a block sits in at most one set), in
bits 0-62, which blocks of 2 bytes or more leave room for, and its dirty
bit in bit 63. Each bank counts its valid lines; `n_valid` is their sum.

The functional pass of a simulation applies trace records to those arrays
and gives each record's outcome as a code byte, which the timing pass
reads in the same step (the tests also bind a bytearray that stores it);
a hit's also holds the line's age in four bits, so at most 16 ways.
Hits, misses and evictions do not depend on time, so every scheme that
never remaps the cache is timed on one pass, in one trip (see
`sim.run_schemes`). The per-record work, like the flush of a
reconfiguration, is C (lru.c), built at first use (see native.py);
`passes.Passes`, built on a state, a trace and the trip's schemes, binds
all of a trip's arguments to it in one call.
The kernels route regions through the state's own `layout`, which
`reconfigure` rewrites, so a bound run follows every reconfiguration.
"""

import ctypes
import itertools
import operator
import os
from array import array

from .record import Record


class GeometryError(ValueError):
    pass


class ReconfigError(ValueError):
    pass


def _is_pow2(x: int) -> bool:
    return x > 0 and x & (x - 1) == 0


class CacheGeometry(Record):
    """Cache shape: total size, ways, block size, page size, bank size."""

    def __init__(self, size_bytes: int, associativity: int,
                 block_bytes: int = 64, page_bytes: int = 4096,
                 bank_bytes: int = 1 << 20):
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.block_bytes = block_bytes
        self.page_bytes = page_bytes
        self.bank_bytes = bank_bytes
        for name in self._fields:
            if not _is_pow2(getattr(self, name)):
                raise GeometryError(f"{name} must be a power of two")
        # a line's word keeps its dirty bit above its tag, in bit 63
        if not size_bytes >= bank_bytes >= block_bytes >= 2:
            raise GeometryError(
                "need size_bytes >= bank_bytes >= block_bytes >= 2")
        # so a bank holds a power of two of whole sets
        if bank_bytes < block_bytes * associativity:
            raise GeometryError(
                f"a bank of {bank_bytes} bytes is smaller than one set of "
                f"{associativity} {block_bytes}-byte blocks")
        if associativity > 16:  # a hit's code holds its age in 4 bits
            raise GeometryError(
                f"associativity must be at most 16, got {associativity}")
        if page_bytes < block_bytes:
            raise GeometryError("page_bytes must be >= block_bytes")
        if size_bytes % (page_bytes * associativity):
            raise GeometryError("color count is not integral")
        self.color_count = size_bytes // (page_bytes * associativity)
        if self.color_count < 2:
            raise GeometryError(
                f"need at least 2 colors, got {self.color_count}")
        self.total_lines = size_bytes // block_bytes
        self.total_sets = self.total_lines // associativity
        # equals blocks-per-page: the page offset selects the set inside a color
        self.sets_per_color = page_bytes // block_bytes
        self.lines_per_color = self.total_lines // self.color_count
        self.num_banks = size_bytes // bank_bytes
        self.sets_per_bank = self.total_sets // self.num_banks
        self.lines_per_bank = self.total_lines // self.num_banks

    def __hash__(self):
        return hash(self._values())


class ReconfigReport(Record):
    def __init__(self, flushed_lines: int, writebacks: int,
                 switched_blocks: int):
        self.flushed_lines = flushed_lines
        self.writebacks = writebacks
        self.switched_blocks = switched_blocks


class _Cache(ctypes.Structure):
    """lru.c's struct cache: a CacheState's arrays, ways and layout."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "tags", "fill", "valid_by_bank")] + [
        ("ways", ctypes.c_int64), ("layout", ctypes.c_void_p)]


class CacheState:
    """Mutable cache state owned by a single simulation instance."""

    def __init__(self, geometry: CacheGeometry, min_colors: int = 1):
        self.geometry = geometry
        self.min_colors = min_colors
        m_total = geometry.color_count
        # the colors [0, active_count) are on: at first every color, with
        # region i in color i
        self.active_count = m_total
        self.mapping: list[int] = list(range(m_total))
        # set s: line slots [s * ways, (s + 1) * ways), the first fill[s]
        # resident, least recent first; a word each, dirty bit on top
        lines, sets = geometry.total_lines, geometry.total_sets
        self.tags = zeros("Q", lines)
        self.fill = zeros("i", sets)
        self.valid_by_bank = zeros("q", geometry.num_banks)
        # how the kernels find a set under the mapping; reconfigure
        # rewrites it in place
        self.layout = layout(geometry)
        # the same, as the compiled routines take it
        self.arrays = _Cache(
            address(self.tags, 8, lines), address(self.fill, 4, sets),
            address(self.valid_by_bank, 8, geometry.num_banks),
            geometry.associativity, address(self.layout, 8, len(self.layout)))

    @property
    def n_valid(self) -> int:
        return sum(self.valid_by_bank)


_lib = None


def kernel(name: str):
    """A routine of lru.c, which is built and loaded at the first call."""
    global _lib
    if _lib is None:
        from . import native  # the compiler is needed only from here on
        lib = native.load(os.path.join(os.path.dirname(__file__), "lru.c"))
        ptr, i64, u64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
        for routine, restype, argtypes in (
                (lib.edr_run, i64, [ptr, i64, i64]),
                (lib.edr_flush, i64, [ptr, ptr, ptr, ptr]),
                (lib.edr_generate, u64, [ptr, i64, u64, u64, u64, u64,
                                         ctypes.c_double, ctypes.c_double,
                                         ptr, ptr, ptr]),
                (lib.edr_unpack, None, [ptr, i64, ptr, ptr, ptr, ptr]),
                (lib.edr_check_ops, i64, [ptr, i64]),
                (lib.edr_pack, None, [ptr, i64, ptr, ptr, ptr])):
            routine.restype, routine.argtypes = restype, argtypes
        _lib = lib
    return getattr(_lib, name)


def zeros(typecode: str, n: int) -> array:
    """An `array.array` of n zeros."""
    return array(typecode, [0]) * n


def address(buffer, itemsize: int, n: int) -> int:
    """The address of a writable C-contiguous buffer of n items of
    `itemsize` bytes: an `array.array`, a `bytearray` or a numpy array; 0
    for an empty one. A kernel reads and writes it there, so the caller
    keeps the buffer alive and never resizes it."""
    view = memoryview(buffer)
    if view.nbytes != itemsize * n:
        raise ValueError(f"a buffer of {view.nbytes} bytes does not hold "
                         f"{n} items of {itemsize} bytes")
    return ctypes.addressof(ctypes.c_char.from_buffer(view)) if n else 0


def layout(geometry: CacheGeometry, mapping=None) -> array:
    """How the kernels find a byte address's set under `mapping` (region ->
    color; the identity if None): the block shift, the page shift, the
    region mask, the mask of a block's set inside its color, the shift from
    a set to its bank, then the first set of each region's color."""
    g, per_color = geometry, geometry.sets_per_color
    regions = range(g.color_count) if mapping is None else mapping
    return array("q", [g.block_bytes.bit_length() - 1,
                       g.page_bytes.bit_length() - 1, g.color_count - 1,
                       per_color - 1, g.sets_per_bank.bit_length() - 1,
                       *[color * per_color for color in regions]])


def _flush(state: CacheState, moved: bytes, scan: bytes) -> tuple[int, int]:
    """Invalidate the lines of the regions that `moved` marks (a byte per
    region) in the colors that `scan` marks (a byte per color): the colors
    that `state.layout` still maps those regions to, each scanned once.

    The surviving tags of each set move to the front of its row in their
    order. Returns (flushed lines, writebacks of dirty ones).
    """
    writebacks = ctypes.c_int64()
    flushed = kernel("edr_flush")(ctypes.byref(state.arrays), moved, scan,
                                  ctypes.byref(writebacks))
    return flushed, writebacks.value


def _plan(mapping: list[int], old: int, colors: int) -> list[int]:
    """The mapping (region -> color) that `reconfigure` from `old` to
    `colors` colors on makes of `mapping`.

    A shrink re-spreads the regions of the colors turned off round-robin
    over [0, colors), in region order. A growth gives each color turned
    on, in ascending order, m // colors of the m regions, one at a time
    from the color holding the most: the lowest index on a tie, its
    highest region first. The colors below the one being filled hold more
    than m // colors regions on average, and the colors turned on before
    it no more, so the donor is always an old color. An old color's l-th
    lowest region is thus pulled at level l, and the pulls go by level
    down, then by color.
    """
    if colors < old:
        spare = itertools.count()
        return [c if c < colors else next(spare) % colors for c in mapping]
    share = len(mapping) // colors
    level = [itertools.count(1) for _ in range(old)]
    pulls = sorted((-next(level[c]), c, region)
                   for region, c in enumerate(mapping))
    planned = mapping.copy()
    for k, (_, _, region) in enumerate(pulls[:(colors - old) * share]):
        planned[region] = old + k // share
    return planned


def reconfigure(state: CacheState, colors: int) -> ReconfigReport:
    """Keep the colors [0, colors) on; flush and remap as needed.

    Colors turned off give their regions to the colors left on, and
    colors turned on pull regions from the others, as `_plan` lays out.
    Every region whose color changes is flushed from its old color, so no
    stale line outlives its mapping entry: one flush for the whole
    reconfiguration, made before the layout is rewritten. A count equal to
    the current one changes nothing and returns at once.
    """
    g = state.geometry
    m_total = g.color_count
    if not 1 <= colors <= m_total:
        raise ReconfigError(f"colors must be in [1, {m_total}], got {colors}")
    if colors < state.min_colors:
        raise ReconfigError(
            f"cannot go below {state.min_colors} colors (asked {colors})")
    old = state.active_count
    if colors == old:
        return ReconfigReport(flushed_lines=0, writebacks=0,
                              switched_blocks=0)
    planned = _plan(state.mapping, old, colors)
    moved = bytes(map(operator.ne, state.mapping, planned))
    scanned = set(itertools.compress(state.mapping, moved))
    flushed, writebacks = _flush(
        state, moved, bytes(c in scanned for c in range(m_total)))
    state.mapping[:] = planned
    state.active_count = colors
    state.layout[:] = layout(g, planned)
    switched = abs(colors - old) * g.lines_per_color
    return ReconfigReport(flushed_lines=flushed, writebacks=writebacks,
                          switched_blocks=switched)
