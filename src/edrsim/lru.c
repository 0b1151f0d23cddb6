/* The compiled passes of edrsim, built by native.py with the local C
 * compiler and called through ctypes.
 *
 * A run binds its arguments once, in a struct run (cache.Passes), and
 * edr_run then takes records [lo, hi) through the passes it binds:
 *
 * - the functional pass (see cache.py), a tag-only LRU step over flat
 *   arrays, applied to the main cache and to DCR's profiling units. A set
 *   is a row of `ways` tag slots; its first `fill` slots hold the resident
 *   tags, least recent first, and for RPV the record that last touched
 *   each;
 * - the timing pass (see sim.py), which turns the functional pass's code
 *   bytes into cycles, fires refresh events at their boundaries, makes an
 *   access wait out a burst on its bank and tallies the outcomes.
 *
 * DCR binds both, so one call replays, times and tallies a segment. Both
 * find a record's set through a layout, built by cache.layout:
 * layout[FIRST_SET + region] is the first set of the color the region maps
 * to, and the block's offset in its page picks the set inside that color.
 *
 * edr_flush invalidates a color's lines when DCR reconfigures the cache. */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { HIT = 1, EVICTED = 2, DIRTY_VICTIM = 4, WRITE = 8 };
enum { BLOCK_SHIFT, PAGE_SHIFT, REGION_MASK, WITHIN_MASK, SETS_PER_BANK,
       FIRST_SET };
/* the timing pass's clock, carried across calls, then its tallies since
 * the caller last cleared them */
enum { NOW, NEXT_BOUNDARY, BOUNDARY_LEN, PHASE, REFRESHED, HITS, MISSES,
       DIRTY_VICTIMS, LOAD_MISSES };

/* A cache.CacheState: its arrays and shape. */
struct cache {
    uint64_t *tags;
    uint8_t *dirty;
    int32_t *touch;
    int32_t *fill;
    int64_t *valid_by_bank;
    int64_t ways, sets_per_color, sets_per_bank;
    int64_t page_shift; /* a tag's page is tag >> page_shift */
    int64_t region_mask;
};

/* What a run's passes read and write; a NULL cache skips the functional
 * pass and a NULL clock the timing pass. */
struct run {
    const int64_t *layout;
    const uint64_t *addrs;
    uint8_t *codes;
    /* the functional pass */
    struct cache *cache;
    const uint8_t *writes;
    int32_t *last_touch;
    int64_t n_units;
    uint64_t ratio;
    uint64_t *const *unit_tags;
    int32_t *const *unit_fill;
    const int64_t *unit_shape;
    int64_t *unit_counts;
    /* the timing pass */
    int64_t *clock;
    const uint32_t *gaps;
    double cpi;
    int64_t hit_cycles, miss_cycles;
    int64_t *bank_busy;
    int64_t n_banks;
    int64_t *counts;
    int64_t phases;
    int64_t track;
    int32_t *phase_touch;
};

static int64_t set_of(const int64_t *layout, uint64_t addr)
{
    return layout[FIRST_SET + ((addr >> layout[PAGE_SHIFT])
                               & (uint64_t)layout[REGION_MASK])]
           + (int64_t)((addr >> layout[BLOCK_SHIFT])
                       & (uint64_t)layout[WITHIN_MASK]);
}

/* One access to a set: a hit moves the tag to the end of the row, a miss
 * appends it and, in a full row, pushes out the first. `dirty` and `touch`,
 * if not NULL, are the row's dirty byte and last-touch index per slot and
 * move with the tags. Returns the HIT, EVICTED and DIRTY_VICTIM bits; the
 * accessed tag ends in slot *fill - 1, with the touch index of the line it
 * hit or evicted (-1 in a free way). */
static int lru_step(uint64_t *row, uint8_t *dirty, int32_t *touch,
                    int32_t *fill, int ways, uint64_t tag)
{
    int last = *fill - 1, i = last, code = HIT;
    uint8_t d = 0;

    while (i >= 0 && row[i] != tag)
        i--;
    if (i >= 0) {
        if (dirty)
            d = dirty[i];
    } else if (last + 1 < ways) {
        row[++last] = tag;
        if (dirty)
            dirty[last] = 0;
        if (touch)
            touch[last] = -1;
        *fill = last + 1;
        return 0;
    } else {
        i = 0;
        code = EVICTED | (dirty && dirty[0] ? DIRTY_VICTIM : 0);
    }
    memmove(row + i, row + i + 1, (size_t)(last - i) * sizeof *row);
    row[last] = tag;
    if (dirty) {
        memmove(dirty + i, dirty + i + 1, (size_t)(last - i));
        dirty[last] = d;
    }
    if (touch) {
        int32_t t = touch[i];

        memmove(touch + i, touch + i + 1, (size_t)(last - i) * sizeof *touch);
        touch[last] = t;
    }
    return code;
}

/* Apply records [lo, hi) to the main cache, writing one code byte each
 * and, with last_touch, the touch index that lru_step leaves; return the
 * fills of free ways. With units, every block whose number is a multiple
 * of `ratio` is looked up in each unit u: in set (block % sets) / denom
 * when that set is sampled (block % sets % denom == 0), where unit_shape[2u]
 * is its set count and unit_shape[2u + 1] its sampling denominator. The
 * unit counts misses, load misses and accesses at unit_counts[3u..3u + 2]. */
static int64_t replay(const struct run *run, int64_t lo, int64_t hi)
{
    const struct cache *c = run->cache;
    const int64_t *layout = run->layout;
    const uint64_t *addrs = run->addrs;
    const uint8_t *writes = run->writes;
    uint8_t *codes = run->codes, *dirty = c->dirty;
    int32_t *last_touch = run->last_touch, *fill = c->fill;
    int32_t *touch = last_touch ? c->touch : NULL;
    int64_t *valid_by_bank = c->valid_by_bank, *unit_counts = run->unit_counts;
    uint64_t *tags = c->tags, ratio = run->ratio;
    uint64_t *const *unit_tags = run->unit_tags;
    int32_t *const *unit_fill = run->unit_fill;
    const int64_t *unit_shape = run->unit_shape;
    int ways = (int)c->ways, n_units = (int)run->n_units;
    int64_t fills = 0;

    for (int64_t r = lo; r < hi; r++) {
        uint64_t tag = addrs[r] >> layout[BLOCK_SHIFT];
        int64_t set = set_of(layout, addrs[r]);
        int is_write = writes[r] != 0;
        int code = lru_step(tags + set * ways, dirty + set * ways,
                            touch ? touch + set * ways : NULL, fill + set,
                            ways, tag);

        if (!(code & (HIT | EVICTED))) {
            valid_by_bank[set / layout[SETS_PER_BANK]]++;
            fills++;
        }
        if (is_write) {
            dirty[set * ways + fill[set] - 1] = 1;
            code |= WRITE;
        }
        if (last_touch) {
            int32_t *t = touch + set * ways + fill[set] - 1;

            last_touch[r] = *t;
            *t = (int32_t)r;
        }
        codes[r] = (uint8_t)code;
        if (!n_units || tag % ratio)
            continue;
        for (int u = 0; u < n_units; u++) {
            uint64_t s = tag % (uint64_t)unit_shape[2 * u];
            uint64_t denom = (uint64_t)unit_shape[2 * u + 1];
            int64_t *count = unit_counts + 3 * u;

            if (s % denom)
                continue;
            s /= denom;
            count[2]++;
            if (!(lru_step(unit_tags[u] + s * ways, NULL, NULL,
                           unit_fill[u] + s, ways, tag) & HIT)) {
                count[0]++;
                count[1] += !is_write;
            }
        }
    }
    return fills;
}

/* Time records [lo, hi). Each record adds rint(gap * cpi) cycles, fires
 * every refresh boundary due by then, waits while its bank is busy with a
 * burst (firing the boundaries that fall due meanwhile), then costs
 * hit_cycles or miss_cycles and adds to the hit or miss tally (a miss also
 * to those of dirty victims and, unless a write, of load misses).
 *
 * A boundary refreshes, in each bank b, counts[b * phases + phase] lines
 * at the phase it opens, and holds the bank one cycle per line. With
 * `track` (DCR), a fill of a free way adds one at the current phase. With
 * phase_touch (RPV), a copy of the last-touch column, a record adds one at
 * the current phase and a hit or an eviction takes one from
 * phase_touch[phase_touch[r]], the phase that the record last touching
 * the line wrote over its index, as phase_touch[r] gets r's own. Returns
 * -1, or the first record whose entry names no earlier record or whose
 * phase is out of range, at which the pass stops. */
static int64_t time_records(const struct run *run, int64_t lo, int64_t hi)
{
    const int64_t *layout = run->layout;
    const uint64_t *addrs = run->addrs;
    const uint32_t *gaps = run->gaps;
    const uint8_t *codes = run->codes;
    int64_t *clock = run->clock, *counts = run->counts;
    int64_t *bank_busy = run->bank_busy;
    int32_t *touch = run->phase_touch;
    double cpi = run->cpi;
    int64_t hit_cycles = run->hit_cycles, miss_cycles = run->miss_cycles;
    int64_t n_banks = run->n_banks, phases = run->phases, track = run->track;
    int64_t now = clock[NOW], next = clock[NEXT_BOUNDARY];
    int64_t len = clock[BOUNDARY_LEN], phase = clock[PHASE];
    int64_t refreshed = clock[REFRESHED], hits = clock[HITS];
    int64_t misses = clock[MISSES], dirty_victims = clock[DIRTY_VICTIMS];
    int64_t load_misses = clock[LOAD_MISSES], bad = -1;

    for (int64_t r = lo; r < hi; r++) {
        int64_t bank = set_of(layout, addrs[r]) / layout[SETS_PER_BANK];
        int code = codes[r];

        now += (int64_t)rint(gaps[r] * cpi);
        for (;;) {
            for (; next <= now; next += len) {
                phase = next / len % phases;
                for (int64_t b = 0; b < n_banks; b++) {
                    int64_t lines = counts[b * phases + phase];

                    if (lines) {
                        bank_busy[b] = (bank_busy[b] > next ? bank_busy[b]
                                                            : next) + lines;
                        refreshed += lines;
                    }
                }
            }
            if (bank_busy[bank] <= now)
                break;
            now = bank_busy[bank];
        }
        if (touch) {
            int32_t t = touch[r];

            if (t >= 0) {
                if (t >= r || touch[t] < 0 || touch[t] >= phases) {
                    bad = r;
                    break;
                }
                counts[bank * phases + touch[t]]--;
            }
            counts[bank * phases + phase]++;
            touch[r] = (int32_t)phase;
        } else if (track && !(code & (HIT | EVICTED))) {
            counts[bank * phases + phase]++;
        }
        if (code & HIT) {
            now += hit_cycles;
            hits++;
        } else {
            now += miss_cycles;
            misses++;
            dirty_victims += (code & DIRTY_VICTIM) != 0;
            load_misses += !(code & WRITE);
        }
    }
    clock[NOW] = now;
    clock[NEXT_BOUNDARY] = next;
    clock[PHASE] = phase;
    clock[REFRESHED] = refreshed;
    clock[HITS] = hits;
    clock[MISSES] = misses;
    clock[DIRTY_VICTIMS] = dirty_victims;
    clock[LOAD_MISSES] = load_misses;
    return bad;
}

/* Take records [lo, hi) through the passes the run binds: replay them,
 * then time them. With track, a refresh covers the valid lines the
 * segment starts with, so they are copied into counts first. Returns the
 * fills of free ways, or -1 - r when the timing pass stopped at record r. */
int64_t edr_run(const struct run *run, int64_t lo, int64_t hi)
{
    int64_t fills = 0, bad = -1;

    if (run->cache) {
        if (run->track)
            memcpy(run->counts, run->cache->valid_by_bank,
                   (size_t)run->n_banks * sizeof *run->counts);
        fills = replay(run, lo, hi);
    }
    if (run->clock)
        bad = time_records(run, lo, hi);
    return bad < 0 ? fills : -1 - bad;
}

/* Invalidate the resident lines of a color's sets, or with `pulled` (a
 * byte per region) only those whose page falls in a marked region. The
 * survivors of each set move to the front of its row in their order, the
 * dirty bytes past them are cleared, and fill and valid_by_bank lose the
 * flushed lines. `touch` is not moved: only a fixed replay keeps it, and
 * it never flushes. Stores the writebacks of dirty lines and returns the
 * lines flushed. */
int64_t edr_flush(const struct cache *c, int64_t color,
                  const uint8_t *pulled, int64_t *writebacks)
{
    int64_t first = color * c->sets_per_color, flushed = 0, dirty_lost = 0;

    for (int64_t s = first; s < first + c->sets_per_color; s++) {
        uint64_t *row = c->tags + s * c->ways;
        uint8_t *dirty = c->dirty + s * c->ways;
        int32_t n = c->fill[s], kept = 0;

        for (int32_t i = 0; i < n; i++) {
            if (pulled && !pulled[(row[i] >> c->page_shift)
                                  & (uint64_t)c->region_mask]) {
                row[kept] = row[i];
                dirty[kept++] = dirty[i];
            } else {
                dirty_lost += dirty[i] != 0;
            }
        }
        memset(dirty + kept, 0, (size_t)(n - kept));
        c->fill[s] = kept;
        c->valid_by_bank[s / c->sets_per_bank] -= n - kept;
        flushed += n - kept;
    }
    *writebacks = dirty_lost;
    return flushed;
}
