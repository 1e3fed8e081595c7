/* Phase-2 state search for one segment assignment, compiled kernel.
 *
 * Same search as the Python loop in search.py, in the same order, so
 * it visits the same states and returns the same witness. A state is a
 * set of vertices, each mapped to a base segment, kept as bitmasks:
 * `assigned`, and val[k], the vertices mapped to base segment k. Vertex
 * v may take base segment t when lo[v] <= t < hi[v], every assigned
 * neighbour holds t or t+1, and no unassigned neighbour's segment
 * starts after t. The visited set is an open-addressing table of the
 * packed 3-bit-per-vertex keys, so n is at most 21.
 */
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

#define MAXN 21

enum { BW_NO = 0, BW_YES = 1, BW_UNKNOWN = 2, BW_NOMEM = 3 };

typedef struct {
    uint64_t *slot; /* 0 marks an empty slot; the root key 0 is not stored */
    uint64_t mask;  /* capacity - 1, capacity a power of two */
    uint64_t used;
} table;

static uint64_t slot_of(uint64_t key, uint64_t mask)
{
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    key ^= key >> 33;
    return key & mask;
}

/* Slot holding `key`, or the empty slot where it belongs. */
static uint64_t *find(const table *tb, uint64_t key)
{
    uint64_t i = slot_of(key, tb->mask);
    while (tb->slot[i] != 0 && tb->slot[i] != key)
        i = (i + 1) & tb->mask;
    return &tb->slot[i];
}

/* Doubles the capacity; 0 when out of memory. */
static int grow(table *tb)
{
    table big = {calloc(2 * (tb->mask + 1), sizeof(uint64_t)), 2 * tb->mask + 1, tb->used};
    if (big.slot == NULL)
        return 0;
    for (uint64_t i = 0; i <= tb->mask; i++)
        if (tb->slot[i] != 0)
            *find(&big, tb->slot[i]) = tb->slot[i];
    free(tb->slot);
    *tb = big;
    return 1;
}

static int past(double deadline)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec > deadline;
}

/* Searches positions in color order; step[d] is the base segment of
 * the d-th position. On BW_YES, path[d] is the vertex placed at step d.
 * out[0] gets the states visited (the root included), out[1] the
 * deepest depth reached. The clock is read every 1024 expansions. */
int bw_dfs(int n, const uint64_t *adj, const int *lo, const int *hi, const int *step,
           uint64_t max_states, double deadline, int *path, uint64_t *out)
{
    uint64_t cand[MAXN], late[MAXN], val[MAXN + 1] = {0};
    uint64_t key[MAXN + 1], rem[MAXN + 1], assigned = 0, states = 1, expansions = 1;
    int depth = 0, depth_max = 0, status;
    for (int t = 0; t < n; t++) {
        cand[t] = late[t] = 0;
        for (int v = 0; v < n; v++) {
            if (lo[v] <= t && t < hi[v])
                cand[t] |= 1ULL << v;
            if (lo[v] > t)
                late[t] |= 1ULL << v;
        }
    }
    table tb = {calloc(1024, sizeof(uint64_t)), 1023, 0};
    key[0] = 0;
    if (tb.slot == NULL) {
        status = BW_NOMEM;
        goto done;
    }
    if (past(deadline)) {
        status = BW_UNKNOWN;
        goto done;
    }
    rem[0] = cand[step[0]];
    for (;;) {
        if (rem[depth] == 0) {
            if (depth == 0) {
                status = BW_NO;
                goto done;
            }
            depth--;
            assigned &= ~(1ULL << path[depth]);
            val[step[depth]] &= ~(1ULL << path[depth]);
            continue;
        }
        int v = __builtin_ctzll(rem[depth]), t = step[depth];
        rem[depth] &= rem[depth] - 1;
        if (adj[v] & assigned & ~(val[t] | val[t + 1]))
            continue;
        if (adj[v] & ~assigned & late[t])
            continue;
        uint64_t child = key[depth] | (uint64_t)(1 + t - lo[v]) << (3 * v);
        uint64_t *slot = find(&tb, child);
        if (*slot == child)
            continue;
        if (states >= max_states) {
            status = BW_UNKNOWN;
            goto done;
        }
        *slot = child;
        states++;
        if (2 * ++tb.used > tb.mask + 1 && !grow(&tb)) {
            status = BW_NOMEM;
            goto done;
        }
        path[depth] = v;
        assigned |= 1ULL << v;
        val[t] |= 1ULL << v;
        key[++depth] = child;
        if (depth > depth_max)
            depth_max = depth;
        if (depth == n) {
            status = BW_YES;
            goto done;
        }
        if ((expansions++ & 1023) == 0 && past(deadline)) {
            status = BW_UNKNOWN;
            goto done;
        }
        rem[depth] = cand[step[depth]] & ~assigned;
    }
done:
    free(tb.slot);
    out[0] = states;
    out[1] = (uint64_t)depth_max;
    return status;
}
