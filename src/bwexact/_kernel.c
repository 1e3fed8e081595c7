/* Compiled kernel: bw_dfs is the phase-2 state search for one segment
 * assignment, and bw_decide a decide over the phase-1 walk, or over the
 * part of it under a range of root choices. Python calls bw_decide
 * only; bw_dfs stays exported so that the tests can check it run by run.
 *
 * bw_dfs runs the same search as the Python loop in search.py, in the
 * same order, so it visits the same states and returns the same
 * witness. A state is a set of vertices, each mapped to a base segment,
 * kept as bitmasks: `assigned`, and val[k], the vertices mapped to base
 * segment k. Vertex v may take base segment t when lo[v] <= t < hi[v],
 * every assigned neighbour holds t or t+1, and no unassigned
 * neighbour's segment starts after t. A child state is then dropped,
 * before it is counted or stored, when some window of base segments has
 * fewer steps left than unassigned vertices that can only go there (see
 * hall). The visited set is an open-addressing table of the packed
 * 3-bit-per-vertex keys, so n is at most MAXN = 21.
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
 * (0) when some A(w) is empty, or when for some window [i, j] more than
 * slots[i] + ... + slots[j] vertices have A(w) inside [i, j]. Every
 * completion matches each unassigned w to its own step left at a
 * segment of A(w), since assigned values never change below a state,
 * so a dropped child has no completion and the search returns what it
 * would without the test. Each A(w) is an interval, so these windows
 * are all of Hall's condition for that matching (Glover 1967). */
static int hall(int nseg, const uint64_t *ok, uint64_t *nok, const int *slots, uint64_t unplaced,
                uint64_t nbrs, int t)
{
    uint64_t m[MAXN + 1], suf[MAXN + 2], pre = 0;
    suf[nseg] = 0;
    for (int s = 0; s < nseg; s++) {
        nok[s] = ok[s] & unplaced & (s == t || s == t - 1 ? ~0ULL : ~nbrs);
        m[s] = slots[s] ? nok[s] : 0;
    }
    for (int s = nseg - 1; s >= 0; s--)
        suf[s] = suf[s + 1] | m[s]; /* suf[s]: the union of m[s..] */
    if (unplaced & ~suf[0])
        return 0;
    for (int i = 0; i < nseg; pre |= m[i++]) { /* pre: the union of m[..i-1] */
        uint64_t inner = 0;
        for (int j = i, cap = 0; j < nseg; j++) {
            inner |= m[j];
            cap += slots[j];
            if (__builtin_popcountll(inner & ~(pre | suf[j + 1])) > cap)
                return 0;
        }
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

/* Whether the segment of width w from base segment c holds a position
 * in 1..n and leaves no gap to the segment of any vertex in `nbrs`. */
static int fits(int n, int b, int c, int w, uint64_t nbrs, const int *lo, const int *width)
{
    if (c * (b + 1) + 1 > n || (c + w) * (b + 1) < 1) /* first position > n, or last < 1 */
        return 0;
    for (; nbrs; nbrs &= nbrs - 1) {
        int u = __builtin_ctzll(nbrs);
        if (lo[u] + width[u] < c || c + w < lo[u])
            return 0;
    }
    return 1;
}

/* One decide, or one part of it: runs bw_dfs on every segment assignment
 * over the spanning tree whose root lo lies in root_lo .. root_hi - 1, in
 * the order of assignments.enumerate_assignments, under the rules of
 * solve.decide. order is the tree's preorder and parent[v] v's parent
 * (-1 at the root); a vertex with no child has a width-4 segment, any
 * other width 2. The root's lo runs up from root_lo, an inner child's is
 * its parent's - 1 then + 1, a leaf's its parent's - 1. The first BW_YES
 * wins, and pos[v] is then v's position. A run stopped by a cap makes
 * the answer BW_UNKNOWN unless a later run says yes, and one that ends
 * unfinished after the deadline ends the decide. out[0] gets the runs,
 * out[1] the states of all runs, out[2] the most states in one run. */
int bw_decide(int n, int b, const uint64_t *adj, const int *order, const int *parent,
              int root_lo, int root_hi, uint64_t max_states, double deadline, int *pos,
              uint64_t *out)
{
    int width[MAXN], step[MAXN], seq[MAXN], lo[MAXN], path[MAXN], next[MAXN], last[MAXN];
    uint64_t earlier[MAXN], seen = 0, run[2];
    int k = 0, d, unknown = 0;
    for (d = 0; d < n; d++) { /* a parent comes before its children in preorder */
        width[order[d]] = 4;
        if (parent[order[d]] >= 0)
            width[parent[order[d]]] = 2;
        earlier[d] = adj[order[d]] & seen; /* the neighbours before d in preorder */
        seen |= 1ULL << order[d];
    }
    for (int c = 0; c <= b; c++) /* positions by (color, base segment) */
        for (int p = c; p < n; p += b + 1, k++) {
            seq[k] = p + 1;
            step[k] = p / (b + 1);
        }
    out[0] = out[1] = out[2] = 0;
    next[0] = root_lo; /* a root lo past the last base segment holds no position */
    last[0] = (root_hi < (n + b) / (b + 1) ? root_hi : (n + b) / (b + 1)) - 1;
    for (d = 0;;) {
        int v = order[d], c = next[d], stride = d ? 2 : 1;
        while (c <= last[d] && !fits(n, b, c, width[v], earlier[d], lo, width))
            c += stride;
        if (c > last[d]) {
            if (d-- == 0)
                return unknown ? BW_UNKNOWN : BW_NO;
            continue;
        }
        next[d] = c + stride;
        lo[v] = c;
        if (d + 1 < n) {
            int u = order[++d];
            next[d] = lo[parent[u]] - 1;
            last[d] = next[d] + (width[u] == 4 ? 0 : 2);
            continue;
        }
        int status = bw_dfs(n, adj, lo, width, step, max_states, deadline, path, run);
        out[0]++;
        out[1] += run[0];
        out[2] = run[0] > out[2] ? run[0] : out[2];
        if (status == BW_YES) {
            for (k = 0; k < n; k++)
                pos[path[k]] = seq[k];
            return BW_YES;
        }
        if (status != BW_NO) {
            if (past(deadline))
                return BW_UNKNOWN;
            unknown = 1;
        }
    }
}
