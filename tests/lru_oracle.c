/* Exhaustive LRU reference for the profiler tests: the misses and load
 * misses of a conventional cache of `sets` x `ways` blocks that replays
 * every record, with a block in set (block % sets).
 *
 * It shares no logic with the simulator's kernel (src/edrsim/lru.c): each
 * way keeps the time of its last use (0 while empty), a hit stamps its
 * way, and a miss replaces the way with the oldest time. */
#include <stdint.h>
#include <stdlib.h>

int lru_profile(const uint64_t *addrs, const uint8_t *ops, int64_t n,
                int block_shift, int64_t sets, int ways, int64_t *out)
{
    uint64_t *tag = calloc((size_t)(sets * ways), sizeof *tag);
    uint64_t *used = calloc((size_t)(sets * ways), sizeof *used);
    int64_t misses = 0, load_misses = 0;

    if (!tag || !used) {
        free(tag);
        free(used);
        return -1;
    }
    for (int64_t r = 0; r < n; r++) {
        uint64_t block = addrs[r] >> block_shift;
        uint64_t *t = tag + (block % (uint64_t)sets) * ways;
        uint64_t *u = used + (block % (uint64_t)sets) * ways;
        int way = -1, oldest = 0;

        for (int w = 0; w < ways && way < 0; w++) {
            if (u[w] && t[w] == block)
                way = w;
            else if (u[w] < u[oldest])
                oldest = w;
        }
        if (way < 0) {
            misses++;
            load_misses += ops[r] == 0;
            way = oldest;
            t[way] = block;
        }
        u[way] = (uint64_t)r + 1;
    }
    out[0] = misses;
    out[1] = load_misses;
    free(tag);
    free(used);
    return 0;
}
