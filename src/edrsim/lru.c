/* The functional pass of edrsim (see cache.py): a tag-only LRU step over
 * flat arrays, applied to the main cache and to DCR's profiling units.
 *
 * A set is a row of `ways` tag slots; its first `fill` slots hold the
 * resident tags, least recent first. Built by native.py with the local C
 * compiler and called through ctypes. */
#include <stdint.h>
#include <string.h>

enum { HIT = 1, EVICTED = 2, DIRTY_VICTIM = 4, WRITE = 8 };

/* One access to a set: a hit moves the tag to the end of the row, a miss
 * appends it and, in a full row, pushes out the first. `dirty`, if not
 * NULL, is the row's dirty byte per slot and moves with the tags. Returns
 * the HIT, EVICTED and DIRTY_VICTIM bits; the accessed tag ends in slot
 * *fill - 1. */
static int lru_step(uint64_t *row, uint8_t *dirty, int32_t *fill, int ways,
                    uint64_t tag)
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
    return code;
}

/* Apply n records to the main cache, writing one code byte each, and return
 * the fills of free ways. A record's set is the first set of the
 * color its region maps to (`first_set`, by region) plus the block's offset
 * in the page. With units, every block whose number is a multiple of
 * `ratio` is looked up in each unit u: in set (block % sets) / denom when
 * that set is sampled (block % sets % denom == 0), where unit_shape[2u] is
 * its set count and unit_shape[2u + 1] its sampling denominator. The unit
 * counts misses, load misses and accesses at unit_counts[3u..3u + 2]. */
int64_t edr_replay(const uint64_t *addrs, const uint8_t *writes, int64_t n,
                   uint8_t *codes, uint64_t *tags, uint8_t *dirty,
                   int32_t *fill, int64_t *valid_by_bank,
                   const int64_t *first_set, int ways, int block_shift,
                   int page_shift, uint64_t region_mask, uint64_t within_mask,
                   int64_t sets_per_bank, int n_units, uint64_t ratio,
                   uint64_t *const *unit_tags, int32_t *const *unit_fill,
                   const int64_t *unit_shape, int64_t *unit_counts)
{
    int64_t fills = 0;

    for (int64_t r = 0; r < n; r++) {
        uint64_t tag = addrs[r] >> block_shift;
        int64_t set = first_set[(addrs[r] >> page_shift) & region_mask]
                      + (int64_t)(tag & within_mask);
        int is_write = writes[r] != 0;
        int code = lru_step(tags + set * ways, dirty + set * ways, fill + set,
                            ways, tag);

        if (!(code & (HIT | EVICTED))) {
            valid_by_bank[set / sets_per_bank]++;
            fills++;
        }
        if (is_write) {
            dirty[set * ways + fill[set] - 1] = 1;
            code |= WRITE;
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
            if (!(lru_step(unit_tags[u] + s * ways, NULL, unit_fill[u] + s,
                           ways, tag) & HIT)) {
                count[0]++;
                count[1] += !is_write;
            }
        }
    }
    return fills;
}
