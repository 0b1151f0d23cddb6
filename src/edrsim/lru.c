/* The compiled passes of edrsim, built by native.py with the local C
 * compiler and called through ctypes.
 *
 * edr_replay is the functional pass (see cache.py): a tag-only LRU step
 * over flat arrays, applied to the main cache and to DCR's profiling units.
 * A set is a row of `ways` tag slots; its first `fill` slots hold the
 * resident tags, least recent first, and for RPV the record that last
 * touched each.
 *
 * edr_time is the timing pass (see sim.py): it turns the functional pass's
 * code bytes into cycles, fires refresh events at their boundaries and
 * makes an access wait out a burst on its bank.
 *
 * Both find a record's set through a layout, built by cache.layout:
 * layout[FIRST_SET + region] is the first set of the color the region maps
 * to, and the block's offset in its page picks the set inside that color. */
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { HIT = 1, EVICTED = 2, DIRTY_VICTIM = 4, WRITE = 8 };
enum { BLOCK_SHIFT, PAGE_SHIFT, REGION_MASK, WITHIN_MASK, SETS_PER_BANK,
       FIRST_SET };
/* the timing pass's clock, carried across calls */
enum { NOW, NEXT_BOUNDARY, BOUNDARY_LEN, PHASE, REFRESHED };

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
int64_t edr_replay(const uint64_t *addrs, const uint8_t *writes, int64_t lo,
                   int64_t hi, uint8_t *codes, int32_t *last_touch,
                   uint64_t *tags, uint8_t *dirty, int32_t *touch,
                   int32_t *fill, int64_t *valid_by_bank,
                   const int64_t *layout, int ways, int n_units,
                   uint64_t ratio, uint64_t *const *unit_tags,
                   int32_t *const *unit_fill, const int64_t *unit_shape,
                   int64_t *unit_counts)
{
    int64_t fills = 0;

    for (int64_t r = lo; r < hi; r++) {
        uint64_t tag = addrs[r] >> layout[BLOCK_SHIFT];
        int64_t set = set_of(layout, addrs[r]);
        int is_write = writes[r] != 0;
        int code = lru_step(tags + set * ways, dirty + set * ways,
                            last_touch ? touch + set * ways : NULL, fill + set,
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
 * hit_cycles or miss_cycles. clock[] holds the cycle, the next boundary
 * (never due for a boundary length of 0), the boundary length, the current
 * phase and the refreshed lines so far.
 *
 * A boundary refreshes, in each bank b, counts[b * phases + phase] lines
 * at the phase it opens, and holds the bank one cycle per line. With
 * `track` (DCR), a fill of a free way adds one at the current phase. With
 * touch (RPV), a copy of the last-touch column, a record adds one at the
 * current phase and a hit or an eviction takes one from touch[touch[r]],
 * the phase that the record last touching the line wrote over its index,
 * as touch[r] gets r's own. */
void edr_time(const uint32_t *gaps, const uint8_t *codes,
              const uint64_t *addrs, double cpi, int64_t hit_cycles,
              int64_t miss_cycles, int64_t *clock, int64_t *bank_busy,
              int64_t n_banks, int64_t *counts, int64_t phases, int track,
              int32_t *touch, const int64_t *layout, int64_t lo, int64_t hi)
{
    int64_t now = clock[NOW], next = clock[NEXT_BOUNDARY];
    int64_t len = clock[BOUNDARY_LEN], phase = clock[PHASE];
    int64_t refreshed = clock[REFRESHED];

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
            if (touch[r] >= 0)
                counts[bank * phases + touch[touch[r]]]--;
            counts[bank * phases + phase]++;
            touch[r] = (int32_t)phase;
        } else if (track && !(code & (HIT | EVICTED))) {
            counts[bank * phases + phase]++;
        }
        now += code & HIT ? hit_cycles : miss_cycles;
    }
    clock[NOW] = now;
    clock[NEXT_BOUNDARY] = next;
    clock[PHASE] = phase;
    clock[REFRESHED] = refreshed;
}
