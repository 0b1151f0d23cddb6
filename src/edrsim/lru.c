/* The compiled passes of edrsim, built by native.py with the local C
 * compiler and called through ctypes.
 *
 * A trip binds its arguments once, in a struct run (passes.Passes, which
 * binds the cache, the trace and a timer per scheme when it is built),
 * whose last members are the trip's clock, and edr_run then takes records
 * [lo, hi) through one loop that does, per record:
 *
 * - the timing pass (see sim.py), with the run's clock and its timers,
 *   one per scheme: count the record's instructions, then on every timer
 *   turn its gap into cycles, fire the refresh events due by then and
 *   wait out a burst on its bank;
 * - the functional pass (see cache.py) on the run's cache: an LRU step
 *   over flat arrays, applied to the main cache and to each size of DCR's
 *   profiling unit. A set is a row of `ways` line slots, a word each: the
 *   line's tag (its block number) in bits 0-62 and its dirty bit on top.
 *   A set's first `fill` slots hold its resident lines, least recent
 *   first. The step gives the record's code byte, whose hit also holds
 *   the line's age (see lru_step), stored only if the run binds codes;
 * - the timing pass again: the tallies of the record's outcome, and on
 *   every timer the hit or miss latency. The loop stops after a record
 *   that closes an interval.
 *
 * The record is decoded once for all of it: its set, its bank, its gap in
 * cycles and its code. The schemes that never remap the cache (baseline,
 * RPV and SRAM) bind one cache and a timer each, so one trip replays and
 * times them all; DCR binds its cache, its profiling unit and one timer.
 * A record finds its set through its cache's mapping: mapping[region] is
 * the color the region maps to, whose sets start at color << color_shift,
 * and the block's offset in its page picks the set inside that color.
 * cache.reconfigure rewrites the mapping in place, between calls.
 *
 * edr_flush invalidates the lines of the regions that a reconfiguration
 * of DCR's moves, in the old colors its caller marks.
 * edr_generate writes one phase of a synthetic trace from numpy's PCG64
 * stream: its blocks one draw after another, and its other columns, whose
 * draw counts are known, in four chains that each start with a jump ahead
 * in the stream, so their draws need not wait on each other. edr_pack and
 * edr_unpack convert a trace's columns to and from the file's records, a
 * buffer's worth at a time; edr_check_ops finds a column's first bad op,
 * before a write begins and after a read ends (see trace.py). */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* a code byte: the outcome bits, then a hit's age (at most 16 ways) */
enum { HIT = 1, EVICTED = 2, DIRTY_VICTIM = 4, WRITE = 8, AGE_SHIFT = 4 };
/* a line slot's dirty bit, above its tag: a tag is a byte address shifted
 * right by at least one bit, since a block holds 2 bytes or more */
#define DIRTY ((uint64_t)1 << 63)

/* A scheme's timer, carried across calls: its cycle, its next refresh
 * boundary, the boundary length and the current phase; the cycle its
 * tallies started at (so it has taken now - start cycles since) and the
 * tally of refreshed lines, both restarted with the clock's; each bank's
 * busy-until cycle; the lines a boundary refreshes in bank b at a phase,
 * counts[b * phases + phase]; and RPV's phase of each line slot. */
struct timer {
    int64_t now, next_boundary, boundary_len, phase, start, refreshed;
    int64_t *bank_busy;
    int64_t *counts;
    int64_t phases;
    uint8_t *slot_phase; /* RPV's phase of each line slot (see settle) */
};

/* A cache.CacheState: its line slots, a word each of a tag and the dirty
 * bit, its fill and valid counts, its ways and its mapping (region ->
 * color); then its shape: the log2 of the block and the page sizes, the
 * region mask (colors - 1), and the log2 of a color's and a bank's sets. */
struct cache {
    uint64_t *tags;
    int32_t *fill;
    int64_t *valid_by_bank;
    int64_t ways;
    const int64_t *mapping;
    int64_t block_shift, page_shift, region_mask, color_shift, bank_shift;
};

/* What a run's passes read and write: the functional pass on the
 * cache, and the timing pass on an array of n_timers timers, none or
 * more, and on the clock. NULL codes skip the store of the code bytes. */
struct run {
    const uint64_t *addrs;
    uint8_t *codes;
    /* the functional pass */
    struct cache *cache;
    const uint8_t *writes;
    int64_t n_sizes; /* the profiling unit's, sampled one set in ratio */
    uint64_t ratio;
    uint64_t *unit_tags;
    int32_t *unit_fill;
    const int64_t *unit_rows;
    int64_t *unit_counts;
    /* the timing pass */
    const uint32_t *gaps;
    double cpi;
    int64_t hit_cycles, miss_cycles;
    int64_t n_banks;
    struct timer *timers;
    int64_t n_timers;
    /* the clock, shared by the timers, whose schemes see the same records
     * and outcomes: the instructions that end warm-up (0 once it has
     * ended, or without one) and those that close an interval; then the
     * tallies since warm-up ended or the caller last cleared them */
    int64_t warm_at, close_at;
    int64_t instructions, hits, misses, dirty_victims, load_misses;
};

/* One access to a set: a hit moves its line's word to the end of the
 * row, a miss appends the tag and, in a full row, pushes out the first
 * line. A tag matches a word's bits 0-62; `dirty` (DIRTY for a write, or
 * 0) is set in the accessed line, which a hit moves with its own dirty
 * bit. Returns the HIT, EVICTED and DIRTY_VICTIM bits and, for a hit in
 * slot i, the line's age last - i from bit AGE_SHIFT up; the accessed
 * line ends in slot *fill - 1. */
static inline __attribute__((always_inline)) int lru_step(
    uint64_t *row, int32_t *fill, int ways, uint64_t tag, uint64_t dirty)
{
    int last = *fill - 1, i = last, code;
    uint64_t moved;

    while (i >= 0 && (row[i] & ~DIRTY) != tag)
        i--;
    if (i >= 0) {
        code = HIT | (last - i) << AGE_SHIFT;
        moved = row[i] | dirty;
    } else if (last + 1 < ways) {
        row[last + 1] = tag | dirty;
        *fill = last + 2;
        return 0;
    } else {
        i = 0;
        code = EVICTED | (row[0] & DIRTY ? DIRTY_VICTIM : 0);
        moved = tag | dirty;
    }
    /* a rotation: a plain shift loop compiles to a call of memmove */
    for (int j = last; j >= i; j--) {
        uint64_t next = row[j];

        row[j] = moved;
        moved = next;
    }
    return code;
}

/* The functional pass of record r, whose block `tag` sits in `set` of
 * `bank`: the LRU step on the cache c, a run's cache copied for the call,
 * with a write's dirty bit, and a fill of a free way counted in
 * valid_by_bank. With a profiling unit, a block whose number is a
 * multiple of `ratio` is then looked up at each size u. A size samples
 * every ratio-th of its sets, a multiple of ratio, so the block's set,
 * block % sets, is sampled: the size's row block / ratio % unit_rows[u],
 * counted from the rows of the sizes before it. Size u counts misses,
 * load misses and accesses at unit_counts[3u..3u + 2]. Returns the
 * record's code byte, also stored if the run binds codes. */
static inline __attribute__((always_inline)) int replay(
    const struct run *run, const struct cache *c, int64_t r, uint64_t tag,
    int64_t set, int64_t bank)
{
    int ways = (int)c->ways, is_write = run->writes[r] != 0;
    int code = lru_step(c->tags + set * ways, c->fill + set, ways, tag,
                        is_write ? DIRTY : 0) | (is_write ? WRITE : 0);

    if (!(code & (HIT | EVICTED)))
        c->valid_by_bank[bank]++;
    if (run->codes)
        run->codes[r] = (uint8_t)code;
    if (!run->n_sizes || tag % run->ratio)
        return code;
    for (int64_t u = 0, first = 0; u < run->n_sizes;
         first += run->unit_rows[u++]) {
        int64_t row = first + (int64_t)(tag / run->ratio
                                        % (uint64_t)run->unit_rows[u]);
        int64_t *count = run->unit_counts + 3 * u;

        count[2]++;
        if (!(lru_step(run->unit_tags + row * ways, run->unit_fill + row,
                       ways, tag, 0) & HIT)) {
            count[0]++;
            count[1] += !is_write;
        }
    }
    return code;
}

/* A timer after its next refresh boundary fires: in each bank b, the
 * boundary refreshes counts[b * phases + phase] lines at the phase it
 * opens, and holds the bank one cycle per line. Rare, so kept out of the
 * record loop, whose timers need the registers; the timer goes by value
 * and comes back. */
static __attribute__((noinline, cold)) struct timer fire(struct timer t,
                                                         int64_t n_banks)
{
    const int64_t next = t.next_boundary, phases = t.phases;
    const int64_t phase = next / t.boundary_len % phases;

    for (int64_t b = 0; b < n_banks; b++) {
        int64_t lines = t.counts[b * phases + phase];

        if (lines) {
            t.bank_busy[b] = (t.bank_busy[b] > next ? t.bank_busy[b] : next)
                             + lines;
            t.refreshed += lines;
        }
    }
    t.phase = phase;
    t.next_boundary = next + t.boundary_len;
    return t;
}

/* Bring a timer to the cycle at which a record reaches its bank: add the
 * record's gap, in cycles, then fire every refresh boundary due by then
 * and, while the bank is busy with a burst, wait for it, firing the
 * boundaries that fall due meanwhile. */
static void advance(struct timer *t, int64_t gap_cycles, int64_t bank,
                    int64_t n_banks)
{
    int64_t now = t->now + gap_cycles;

    while (t->next_boundary <= now || t->bank_busy[bank] > now) {
        if (t->next_boundary <= now)
            *t = fire(*t, n_banks);
        else
            now = t->bank_busy[bank];
    }
    t->now = now;
}

/* Charge a timer for a record in `bank` once its code is known: with slot
 * phases (RPV), replay the record's LRU move on its set's row, a phase
 * byte (at most 256 phases) per way, most recent first, at row_at. Slot
 * a (a hit's age, a miss's ways - 1) leaves, slots [0, a) move up one and
 * slot 0 takes the current phase; a hit's or a victim's line leaves the
 * phase of slot a. Then the latency. */
static void settle(struct timer *t, int64_t row_at, int64_t bank, int code,
                   int a, int64_t latency)
{
    if (t->slot_phase) {
        int64_t *counts = t->counts + bank * t->phases;
        uint8_t *row = t->slot_phase + row_at, moved = (uint8_t)t->phase;

        /* a rotation: a plain shift loop compiles to a slower memmove */
        for (int j = 0; j <= a; j++) {
            uint8_t next = row[j];

            row[j] = moved;
            moved = next;
        }
        if (code & (HIT | EVICTED))
            counts[moved]--;
        counts[t->phase]++;
    }
    t->now += latency;
}

/* Take records [lo, hi) through the passes the run binds (see above),
 * store the run's clock back, and return the record after the last one
 * taken: hi, or earlier after a record that closes an interval.
 *
 * Each record adds its gap to the instruction tally and advances every
 * timer by rint(gap * cpi) cycles. The first record whose instructions
 * since the start of the trace reach warm_at ends warm-up after its gap:
 * every tally, the timers' and the unit's counts included, restarts
 * there, and each timer's start moves to that cycle. Each timer then
 * fires the refresh boundaries due and waits for the record's bank
 * (advance). The record takes the functional
 * pass, adds to the hit or miss tally (a miss also to those of dirty
 * victims and, unless a write, of load misses), and each timer is
 * charged hit_cycles or miss_cycles (settle). After warm-up, a
 * record that brings the instruction tally to close_at closes an
 * interval, and the loop stops after it.
 *
 * DCR binds the cache's valid_by_bank as its timer's counts, so that a
 * refresh covers the valid lines. A timer with slot phases (RPV) counts
 * the valid lines by the phase of their last touch, which it keeps per
 * line slot from each record's code, made by the same iteration's LRU
 * step (settle). */
int64_t edr_run(struct run *run, int64_t lo, int64_t hi)
{
    /* copies, which the stores of the loop cannot alias; reconfigure
     * rewrites the mapping only between calls, and a's clock goes back */
    struct run a = *run;
    const struct cache c = *a.cache;
    const uint64_t region_mask = (uint64_t)c.region_mask;
    const uint64_t within_mask = ((uint64_t)1 << c.color_shift) - 1;
    int64_t r, stop = hi, i;

    for (r = lo; r < hi; r++) {
        uint64_t addr = a.addrs[r], tag = addr >> c.block_shift;
        int64_t set = c.mapping[(addr >> c.page_shift) & region_mask]
                      << c.color_shift | (int64_t)(tag & within_mask);
        int64_t bank = set >> c.bank_shift;
        int64_t gap_cycles = (int64_t)rint(a.gaps[r] * a.cpi), latency;
        int code, age;

        a.instructions += a.gaps[r];
        if (a.warm_at && a.instructions >= a.warm_at) {
            a.warm_at = a.instructions = 0;
            a.hits = a.misses = a.dirty_victims = a.load_misses = 0;
            /* the timers' tallies restart at the end of this gap */
            for (i = 0; i < a.n_timers; i++) {
                a.timers[i].start = a.timers[i].now + gap_cycles;
                a.timers[i].refreshed = 0;
            }
            if (a.n_sizes)
                memset(a.unit_counts, 0, (size_t)a.n_sizes * 3
                                         * sizeof *a.unit_counts);
        }
        for (i = 0; i < a.n_timers; i++)
            advance(&a.timers[i], gap_cycles, bank, a.n_banks);
        code = replay(&a, &c, r, tag, set, bank);
        age = code & HIT ? code >> AGE_SHIFT : (int)c.ways - 1;
        if (code & HIT) {
            latency = a.hit_cycles;
            a.hits++;
        } else {
            latency = a.miss_cycles;
            a.misses++;
            a.dirty_victims += (code & DIRTY_VICTIM) != 0;
            a.load_misses += !(code & WRITE);
        }
        for (i = 0; i < a.n_timers; i++)
            settle(&a.timers[i], set * c.ways, bank, code, age, latency);
        if (!a.warm_at && a.instructions >= a.close_at) {
            stop = r + 1;
            break;
        }
    }
    *run = a;
    return stop;
}

/* Invalidate the resident lines of the regions that `moved` marks (a
 * byte per region) in the colors that `scan` marks (a byte per color),
 * the colors the mapping sends them to: cache.reconfigure marks both and
 * calls this once, before it rewrites the mapping. Each marked color is
 * scanned once, for the lines of every marked region. The survivors of
 * each set move to the front of its row in their order, the slots they
 * leave lose their dirty bits, and fill and valid_by_bank lose the
 * flushed lines. Stores the writebacks of dirty lines and returns the
 * lines flushed. */
int64_t edr_flush(const struct cache *c, const uint8_t *moved,
                  const uint8_t *scan, int64_t *writebacks)
{
    const uint64_t region_mask = (uint64_t)c->region_mask;
    /* as many colors as regions; a color has a set per block of a page,
     * and a tag is a block number, so its page is tag >> color_shift */
    const int64_t color_shift = c->color_shift;
    int64_t colors = c->region_mask + 1, sets = (int64_t)1 << color_shift;
    int64_t flushed = 0, dirty_lost = 0;

    for (int64_t color = 0; color < colors; color++) {
        if (!scan[color])
            continue;
        for (int64_t s = color * sets; s < (color + 1) * sets; s++) {
            uint64_t *row = c->tags + s * c->ways;
            int32_t n = c->fill[s], kept = 0, i;

            for (i = 0; i < n; i++) {
                if (!moved[((row[i] & ~DIRTY) >> color_shift) & region_mask])
                    row[kept++] = row[i];
                else
                    dirty_lost += row[i] >> 63;
            }
            for (i = kept; i < n; i++)
                row[i] &= ~DIRTY;
            c->fill[s] = kept;
            c->valid_by_bank[s >> c->bank_shift] -= n - kept;
            flushed += n - kept;
        }
    }
    *writebacks = dirty_lost;
    return flushed;
}

/* PCG64 as numpy's default_rng runs it (O'Neill, 2014): a 128-bit LCG
 * whose output is the XSL-RR permutation of the new state. A 32-bit draw
 * takes the low half of a 64-bit one and keeps the high half, the spare,
 * for the next 32-bit draw; a double takes a 64-bit draw of its own. */
typedef unsigned __int128 u128;

#define MULT (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

struct pcg {
    u128 state, inc;
    int has_spare;
    uint32_t spare;
};

/* one LCG step of a state, and the draw it gives */
static inline uint64_t step(u128 *state, u128 inc)
{
    uint64_t x;
    unsigned rot;

    *state = *state * MULT + inc;
    x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    rot = (unsigned)(*state >> 122);
    return (x >> rot) | (x << (-rot & 63));
}

static uint32_t next32(struct pcg *g)
{
    uint64_t x;

    if (g->has_spare) {
        g->has_spare = 0;
        return g->spare;
    }
    x = step(&g->state, g->inc);
    g->has_spare = 1;
    g->spare = (uint32_t)(x >> 32);
    return (uint32_t)x;
}

/* A draw in [0, top], by Lemire's multiply-and-reject on 32-bit draws, as
 * numpy's integers() makes it for a range below 2**32 - 1. */
static uint32_t below(struct pcg *g, uint32_t top)
{
    uint32_t span = top + 1;
    uint64_t m = (uint64_t)next32(g) * span;

    if ((uint32_t)m < span) {
        uint32_t threshold = (UINT32_MAX - top) % span;

        while ((uint32_t)m < threshold)
            m = (uint64_t)next32(g) * span;
    }
    return (uint32_t)(m >> 32);
}

enum { REUSE_WINDOW = 32, REUSED = 32, CHAINS = 4 };

/* The state `steps` draws after `state`, in O(log steps) multiplications
 * (Brown, 1994): k steps of the LCG are again a map x -> a x + c, and the
 * maps of 2**i steps come from squaring. */
static u128 jump(u128 state, u128 inc, uint64_t steps)
{
    u128 mult = MULT, plus = inc, a = 1, c = 0;

    for (; steps; steps >>= 1) {
        if (steps & 1) {
            a *= mult;
            c = c * mult + plus;
        }
        plus *= mult + 1;
        mult *= mult;
    }
    return a * state + c;
}

/* What a chained column makes of its draw i, x (see chained). random()
 * is x's top 53 bits over 2**53, converted as an int64_t, in one
 * instruction. A ring slot, integers(0, 32), is below()'s product of a
 * 32-bit half and 32, >> 32: the half's top 5 bits, never rejected. */
static inline void take(uint8_t *ops, int64_t i, uint64_t x, double p,
                        uint8_t flag)
{
    if (flag) {
        ops[i] = (double)(int64_t)(x >> 11) * 0x1p-53 < p ? flag : 0;
    } else {
        ops[2 * i] |= (uint8_t)((uint32_t)x >> 27);
        ops[2 * i + 1] |= (uint8_t)(x >> 59);
    }
}

/* A column's `draws` 64-bit draws in CHAINS chains that need not wait on
 * each other: chain k jumps to draw k * part and takes `part` draws, and
 * the last goes on through the tail; g ends after the last draw. With a
 * `flag`, draw i sets ops[i] to it where its random() is below p, else to
 * 0; without (the ring), it adds its halves' slots to ops[2i], ops[2i+1]. */
static inline __attribute__((always_inline)) void chained(
    struct pcg *g, int64_t draws, uint8_t *ops, double p, uint8_t flag)
{
    const int64_t part = draws / CHAINS;
    u128 s[CHAINS];

    for (int k = 0; k < CHAINS; k++)
        s[k] = jump(g->state, g->inc, (uint64_t)(k * part));
    for (int64_t i = 0; i < part; i++)
#pragma GCC unroll 4
        for (int k = 0; k < CHAINS; k++)
            take(ops, k * part + i, step(&s[k], g->inc), p, flag);
    for (int64_t i = CHAINS * part; i < draws; i++)
        take(ops, i, step(&s[CHAINS - 1], g->inc), p, flag);
    g->state = s[CHAINS - 1];
}

/* One phase of trace.generate_synthetic: n >= 1 records that spread
 * `instructions` evenly, record j ending at (j + 1) * instructions / n,
 * and touch blocks of a working set of ws_blocks blocks (at most 2**26)
 * that starts at base_block. Draws, in this order and as numpy's
 * Generator makes them: n blocks, integers(0, ws_blocks), of which a
 * working set of one block draws none; n reuse draws, random() <
 * reuse; n ring slots, integers(0, 32); n write draws, random() < write.
 * A rejected block moves every later draw, so the blocks are drawn in
 * turn; the other columns are chained, the ring two slots to a draw after
 * a carried spare half, if any, and an odd last slot leaves a new spare.
 *
 * The gaps need no product: each is instructions / n, plus one where the
 * running remainder of instructions % n per record reaches n. A reused
 * record re-touches the block at slot `slot % filled` of a ring of the
 * phase's last 32 blocks: record slot % j while the ring is filling (j <=
 * 32), else the most recent record before j that is congruent to slot
 * modulo the ring size. That record is earlier, so one pass in record
 * order resolves every reuse, with a mask in place of a branch. The first
 * record has nothing to re-touch.
 *
 * `rng` holds the generator between phases: the state and the increment,
 * high word first, whether a spare 32-bit half is held, and that half.
 * Returns the sum of the gaps, `instructions`. */
uint64_t edr_generate(uint64_t *rng, int64_t n, uint64_t instructions,
                      uint64_t ws_blocks, uint64_t base_block,
                      uint64_t block_bytes, double reuse, double write,
                      uint32_t *gaps, uint8_t *ops, uint64_t *addrs)
{
    struct pcg g = {((u128)rng[0] << 64) | rng[1],
                    ((u128)rng[2] << 64) | rng[3], rng[4] != 0,
                    (uint32_t)rng[5]};
    const uint64_t whole = instructions / (uint64_t)n;
    const uint64_t rest = instructions % (uint64_t)n;
    uint64_t carry = 0;
    int64_t j, held;

    for (j = 0; j < n; j++) {
        uint64_t over = (carry += rest) >= (uint64_t)n;

        carry -= over ? (uint64_t)n : 0;
        gaps[j] = (uint32_t)(whole + over);
    }
    for (j = 0; j < n; j++)
        addrs[j] = ws_blocks > 1 ? below(&g, (uint32_t)(ws_blocks - 1)) : 0;
    /* the ops hold each record's reuse bit and ring slot until the writes
     * are drawn */
    chained(&g, n, ops, reuse, REUSED);
    held = g.has_spare;
    if (held)
        ops[0] |= (uint8_t)(next32(&g) >> 27);
    chained(&g, (n - held) / 2, ops + held, 0.0, 0);
    if ((n - held) % 2)
        ops[n - 1] |= (uint8_t)(next32(&g) >> 27);
    addrs[0] = (addrs[0] + base_block) * block_bytes;
    for (j = 1; j < n; j++) {
        uint64_t slot = ops[j] & (REUSE_WINDOW - 1);
        uint64_t from = j > REUSE_WINDOW
            ? (uint64_t)j - 1 - (((uint64_t)j - 1 - slot) & (REUSE_WINDOW - 1))
            : slot % (uint64_t)j;
        uint64_t reused = -(uint64_t)((ops[j] & REUSED) != 0);

        addrs[j] = (addrs[from] & reused)
                   | ((addrs[j] + base_block) * block_bytes & ~reused);
    }
    chained(&g, n, ops, write, 1);
    rng[0] = (uint64_t)(g.state >> 64);
    rng[1] = (uint64_t)g.state;
    rng[4] = (uint64_t)g.has_spare;
    rng[5] = g.spare;
    return instructions;
}

/* A trace file's record: the instruction gap (u32), the op (u8), 3 pad
 * bytes and the byte address (u64), little endian. */
enum { RECORD_BYTES = 16 };

/* A field of `bytes` bytes, a byte at a time on every host: unrolled, the
 * loop is one load or store where the host is little endian. */
static inline uint64_t get_le(const uint8_t *p, int bytes)
{
    uint64_t v = 0;
#pragma GCC unroll 8
    for (int i = bytes - 1; i >= 0; i--)
        v = v << 8 | p[i];
    return v;
}

static inline void put_le(uint8_t *p, uint64_t v, int bytes)
{
#pragma GCC unroll 8
    for (int i = 0; i < bytes; i++, v >>= 8)
        p[i] = (uint8_t)v;
}

/* n records of a trace file into its columns, storing the sum of their
 * gaps; the ops are checked once all are in (edr_check_ops). */
void edr_unpack(const uint8_t *records, int64_t n, uint32_t *gaps,
                uint8_t *ops, uint64_t *addrs, uint64_t *gap_sum)
{
    uint64_t sum = 0;

    for (int64_t j = 0; j < n; j++) {
        const uint8_t *p = records + j * RECORD_BYTES;

        gaps[j] = (uint32_t)get_le(p, 4);
        ops[j] = p[4];
        addrs[j] = get_le(p + 8, 8);
        sum += gaps[j];
    }
    *gap_sum = sum;
}

/* The index of the first of n ops that is neither READ (0) nor WRITE (1),
 * or n: a trace's whole ops column, before a write begins and after a
 * read ends. */
int64_t edr_check_ops(const uint8_t *ops, int64_t n)
{
    int64_t j = 0;

    while (j < n && ops[j] <= 1)
        j++;
    return j;
}

/* A trace's columns into n records of a buffer whose pad bytes are zero;
 * edr_check_ops has passed the ops. */
void edr_pack(uint8_t *records, int64_t n, const uint32_t *gaps,
              const uint8_t *ops, const uint64_t *addrs)
{
    for (int64_t j = 0; j < n; j++) {
        uint8_t *p = records + j * RECORD_BYTES;

        put_le(p, gaps[j], 4);
        p[4] = ops[j];
        put_le(p + 8, addrs[j], 8);
    }
}
