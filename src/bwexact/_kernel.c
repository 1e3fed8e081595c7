/* Phase-2 state search for one segment assignment, compiled kernel.
 *
 * Same search as the Python loop in search.py, in the same order, so
 * it visits the same states and returns the same witness. A state is a
 * set of vertices, each mapped to a base segment, kept as bitmasks:
 * `assigned`, and val[k], the vertices mapped to base segment k. Vertex
 * v may take base segment t when lo[v] <= t < hi[v], every assigned
 * neighbour holds t or t+1, and no unassigned neighbour's segment
 * starts after t. A child state is then dropped, before it is counted
 * or stored, when the steps left cannot hold the unassigned vertices
 * (see hall). The visited set is an open-addressing table of the
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

/* Hall-count test on the child state that places v at base segment t.
 * ok[s] holds the parent's unassigned vertices that may still take
 * segment s: s lies in their segment and every assigned neighbour holds
 * s or s+1. The child's masks go to nok. slots[s] counts the steps
 * left after the child with base segment s, and `unplaced` is the
 * child's unassigned set. With m[s] = nok[s] for s that has steps
 * left, and A(w) the segments s with w in m[s], the child is dropped
 * (0) when some A(w) is empty, when more than slots[s] vertices have
 * A(w) = {s}, or when more than slots[s] + slots[s+1] vertices have
 * A(w) within {s, s+1}. These are Hall conditions that every
 * completion meets, since assigned values never change below a state,
 * so a dropped child has no completion and the search returns what it
 * would without the test. */
static int hall(int nseg, const uint64_t *ok, uint64_t *nok, const int *slots, uint64_t unplaced,
                uint64_t nbrs, int t)
{
    uint64_t m[MAXN + 2], suf[MAXN + 3], pre = 0;
    suf[nseg] = suf[nseg + 1] = 0;
    for (int s = 0; s < nseg; s++) {
        nok[s] = ok[s] & unplaced & (s == t || s == t - 1 ? ~0ULL : ~nbrs);
        m[s] = slots[s] ? nok[s] : 0;
    }
    m[nseg] = 0;
    for (int s = nseg - 1; s >= 0; s--)
        suf[s] = suf[s + 1] | m[s]; /* suf[s]: the union of m[s..] */
    if (unplaced & ~suf[0])
        return 0;
    for (int s = 0; s < nseg; s++) {
        if (__builtin_popcountll(m[s] & ~(pre | suf[s + 1])) > slots[s])
            return 0;
        if (__builtin_popcountll((m[s] | m[s + 1]) & ~(pre | suf[s + 2])) > slots[s] + slots[s + 1])
            return 0;
        pre |= m[s];
    }
    return 1;
}

static int past(double deadline)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec > deadline;
}

/* Searches positions in color order; step[d] is the base segment of
 * the d-th position, in 0..n-1. Vertex v's segment is base segments
 * lo[v] .. lo[v] + width[v] - 1. On BW_YES, path[d] is the vertex
 * placed at step d. out[0] gets the states visited (the root
 * included), out[1] the deepest depth reached. The clock is read every
 * 1024 expansions. */
int bw_dfs(int n, const uint64_t *adj, const int *lo, const int *width, const int *step,
           uint64_t max_states, double deadline, int *path, uint64_t *out)
{
    uint64_t cand[MAXN], late[MAXN], val[MAXN + 1] = {0}, ok[MAXN + 1][MAXN];
    uint64_t key[MAXN + 1], rem[MAXN + 1], assigned = 0, states = 1, expansions = 1;
    uint64_t all = (1ULL << n) - 1;
    int slots[MAXN + 1][MAXN + 1] = {{0}}, nseg = 0;
    int depth = 0, depth_max = 0, status;
    for (int t = 0; t < n; t++) {
        cand[t] = late[t] = 0;
        for (int v = 0; v < n; v++) {
            if (lo[v] <= t && t < lo[v] + width[v])
                cand[t] |= 1ULL << v;
            if (lo[v] > t)
                late[t] |= 1ULL << v;
        }
        ok[0][t] = cand[t];
        if (step[t] >= nseg)
            nseg = step[t] + 1;
    }
    /* slots[d][s]: steps at index >= d with base segment s */
    for (int d = n - 1; d >= 0; d--) {
        for (int s = 0; s < nseg; s++)
            slots[d][s] = slots[d + 1][s];
        slots[d][step[d]]++;
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
        if (!hall(nseg, ok[depth], ok[depth + 1], slots[depth + 1], all & ~(assigned | 1ULL << v),
                  adj[v], t))
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
