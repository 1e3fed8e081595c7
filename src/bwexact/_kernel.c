/* Compiled kernel: bw_dfs is the phase-2 state search for one segment
 * assignment, bw_decide a decide over the phase-1 walk, or over the
 * part of it under a range of root choices, and bw_bounds a connected
 * graph's lower bound and best Cuthill-McKee ordering. Python calls
 * bw_decide and bw_bounds; bw_dfs stays exported so that the tests can
 * check it run by run.
 *
 * bw_dfs runs the same search as dfs_decide in search.py, in the same
 * order, so it visits the same states and returns the same witness. A
 * state is a set of vertices, each mapped to a base segment. Vertex v
 * may take base segment t when t lies in its segment and every assigned
 * neighbour holds t or t+1: the Hall masks ok[s] kept per depth state
 * exactly that (see hall), so the candidates at a step with base
 * segment t are the vertices of ok[t]. A candidate with an unassigned
 * neighbour whose segment starts after t is skipped by a cheap
 * pre-check, since hall drops that child too. A child state is dropped,
 * before it is counted or stored, when some window of base segments has
 * fewer steps left than unassigned vertices that can only go there. The
 * visited set is an open-addressing table of the packed 3-bit-per-vertex
 * keys, so n is at most MAXN, the 3-bit fields a uint64_t holds. Python
 * reads the limit from bw_maxn, so MAXN is its only copy.
 *
 * Twin leaves, two leaves of the tree with the same parent and the same
 * neighbours besides each other, hold the same segment in every run,
 * and swapping them maps each ordering to one of the same bandwidth. So
 * a twin is a candidate only once its nearest lower-id twin is placed:
 * twin[v] holds that twin's bit, 0 for none. The first witness already
 * keeps twins in id order (a lower twin free at the same step is tried
 * first, and the swapped witness lies under it), so the rule changes no
 * answer and no witness, only the states.
 *
 * Both functions take a stop flag, `stop`, next to the deadline: when
 * it is not NULL and *stop is nonzero, they stop as if the deadline had
 * passed. It is read wherever the clock is. Another thread sets it once
 * a parallel decide's answer is known, so that the parts still running
 * return; it only goes from 0 to 1, so a stale read costs one more
 * check at most. Both return BW_NO, BW_YES or BW_UNKNOWN, the last for
 * any stop short of an answer: cap, deadline, stop flag, out of memory.
 * bw_decide answers with the first run that does not answer BW_NO.
 */
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

#define MAXN 21

const int bw_maxn = MAXN;

enum { BW_NO = 0, BW_YES = 1, BW_UNKNOWN = 2 };

typedef struct {
    uint64_t *slot; /* 0 marks an empty slot; the root key 0 is not stored */
    uint64_t mask;  /* capacity - 1, capacity a power of two */
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
    table big = {calloc(2 * (tb->mask + 1), sizeof(uint64_t)), 2 * tb->mask + 1};
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
 * s or s+1. That is the extension rule, so ok[t] also gives the
 * candidates at a step with base segment t. The child's masks go to
 * nok. left[s] counts the steps left after the child with base
 * segment s, and `unplaced` is the child's unassigned set. With
 * m[s] = nok[s] for s that has steps left, and A(w) the segments s
 * with w in m[s], the child is dropped (0) when some A(w) is empty, or
 * when for some window [i, j] more than left[i] + ... + left[j]
 * vertices have A(w) inside [i, j]. Every
 * completion matches each unassigned w to its own step left at a
 * segment of A(w), since assigned values never change below a state,
 * so a dropped child has no completion and the search returns what it
 * would without the test. Each A(w) is an interval, so these windows
 * are all of Hall's condition for that matching (Glover 1967). */
static int hall(int nseg, const uint64_t *ok, uint64_t *nok, const int *left, uint64_t unplaced,
                uint64_t nbrs, int t)
{
    uint64_t m[MAXN + 1], suf[MAXN + 2], pre = 0;
    suf[nseg] = 0;
    for (int s = 0; s < nseg; s++) {
        nok[s] = ok[s] & unplaced & (s == t || s == t - 1 ? ~0ULL : ~nbrs);
        m[s] = left[s] ? nok[s] : 0;
    }
    for (int s = nseg - 1; s >= 0; s--)
        suf[s] = suf[s + 1] | m[s]; /* suf[s]: the union of m[s..] */
    if (unplaced & ~suf[0])
        return 0;
    for (int i = 0; i < nseg; pre |= m[i++]) { /* pre: the union of m[..i-1] */
        uint64_t inner = 0;
        for (int j = i, cap = 0; j < nseg; j++) {
            inner |= m[j];
            cap += left[j];
            if (__builtin_popcountll(inner & ~(pre | suf[j + 1])) > cap)
                return 0;
        }
    }
    return 1;
}

static int past(double deadline, const volatile int *stop)
{
    struct timespec ts;
    if (stop != NULL && *stop)
        return 1;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec > deadline;
}

/* Searches positions in color order; step[d] is the base segment of
 * the d-th position, in 0..n-1. Vertex v's segment is base segments
 * lo[v] .. lo[v] + width[v] - 1. On BW_YES, path[d] is the vertex
 * placed at step d. left[s], kept on push and pop, counts the steps
 * after the current depth with base segment s: hall's steps left.
 * twin[v] is the bit of v's nearest lower-id twin, 0 for none; v is a
 * candidate only once that twin is assigned.
 * out[0] gets the states visited, the root included; each state but
 * the root has a key in the table. The clock and the stop flag are
 * read before the root and then every 1024 states. */
int bw_dfs(int n, const uint64_t *adj, const uint64_t *twin, const int *lo, const int *width,
           const int *step, uint64_t max_states, double deadline, const volatile int *stop,
           int *path, uint64_t *out)
{
    uint64_t late[MAXN], ok[MAXN + 1][MAXN];
    uint64_t key[MAXN + 1], rem[MAXN + 1], assigned = 0, states = 1;
    uint64_t all = (1ULL << n) - 1;
    int left[MAXN] = {0}, nseg = 0;
    int depth = 0, status;
    for (int t = 0; t < n; t++) {
        ok[0][t] = late[t] = 0;
        for (int v = 0; v < n; v++) {
            if (lo[v] <= t && t < lo[v] + width[v])
                ok[0][t] |= 1ULL << v;
            if (lo[v] > t)
                late[t] |= 1ULL << v;
        }
        if (step[t] >= nseg)
            nseg = step[t] + 1;
        if (t > 0)
            left[step[t]]++;
    }
    table tb = {calloc(1024, sizeof(uint64_t)), 1023};
    key[0] = 0;
    if (tb.slot == NULL) { /* out of memory */
        status = BW_UNKNOWN;
        goto done;
    }
    if (past(deadline, stop)) {
        status = BW_UNKNOWN;
        goto done;
    }
    rem[0] = ok[0][step[0]];
    for (;;) {
        if (rem[depth] == 0) {
            if (depth == 0) {
                status = BW_NO;
                goto done;
            }
            left[step[depth--]]++;
            assigned &= ~(1ULL << path[depth]);
            continue;
        }
        int v = __builtin_ctzll(rem[depth]), t = step[depth];
        rem[depth] &= rem[depth] - 1;
        if (((adj[v] & late[t]) | twin[v]) & ~assigned) /* an unassigned late neighbour or lower twin */
            continue;
        uint64_t child = key[depth] | (uint64_t)(1 + t - lo[v]) << (3 * v);
        uint64_t *slot = find(&tb, child);
        if (*slot == child)
            continue;
        if (!hall(nseg, ok[depth], ok[depth + 1], left, all & ~(assigned | 1ULL << v), adj[v], t))
            continue;
        if (states >= max_states) {
            status = BW_UNKNOWN;
            goto done;
        }
        *slot = child;
        states++;
        if (2 * (states - 1) > tb.mask + 1 && !grow(&tb)) { /* out of memory */
            status = BW_UNKNOWN;
            goto done;
        }
        path[depth] = v;
        assigned |= 1ULL << v;
        key[++depth] = child;
        if (depth == n) {
            status = BW_YES;
            goto done;
        }
        if (((states - 1) & 1023) == 0 && past(deadline, stop)) {
            status = BW_UNKNOWN;
            goto done;
        }
        left[step[depth]]--;
        rem[depth] = ok[depth][step[depth]];
    }
done:
    free(tb.slot);
    out[0] = states;
    return status;
}

/* Whether the segment of width w from base segment c holds a position
 * in 1..n, that is meets base segments 0 .. nseg - 1, and leaves no gap
 * to the segment of any vertex in `nbrs`. */
static int fits(int nseg, int c, int w, uint64_t nbrs, const int *lo, const int *width)
{
    if (c >= nseg || c + w <= 0)
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
 * the order of search.enumerate_assignments, under the rule of
 * solve.decide. order is the tree's preorder and parent[v] v's parent
 * (-1 at the root); a vertex with no child has a width-4 segment, any
 * other width 2. The root's lo runs up from root_lo, an inner child's is
 * its parent's - 1 then + 1, a leaf's its parent's - 1; fits drops a
 * choice whose segment holds no position in 1..n. The first run that
 * does not answer BW_NO ends the walk with its status: BW_YES, and then
 * pos[v] is v's position, or BW_UNKNOWN from any stop (cap, deadline,
 * stop flag, out of memory). BW_NO once every run said no. out[0] gets
 * the runs, out[1] the states of all runs, out[2] the most states in
 * one run. Each leaf's twin bit for bw_dfs (see the top) is found once,
 * before the walk, from adj, parent and the widths: a twin shares the
 * parent, so it shares the segment in every run. */
int bw_decide(int n, int b, const uint64_t *adj, const int *order, const int *parent,
              int root_lo, int root_hi, uint64_t max_states, double deadline,
              const volatile int *stop, int *pos, uint64_t *out)
{
    int width[MAXN], step[MAXN], seq[MAXN], lo[MAXN], path[MAXN], next[MAXN], last[MAXN];
    uint64_t earlier[MAXN], twin[MAXN], seen = 0, states;
    int k = 0, d, nseg = (n + b) / (b + 1);
    for (d = 0; d < n; d++) { /* a parent comes before its children in preorder */
        width[order[d]] = 4;
        if (parent[order[d]] >= 0)
            width[parent[order[d]]] = 2;
        earlier[d] = adj[order[d]] & seen; /* the neighbours before d in preorder */
        seen |= 1ULL << order[d];
    }
    for (int v = 0; v < n; v++) { /* v's nearest lower-id twin leaf, if any */
        twin[v] = 0;
        for (int u = v - 1; u >= 0 && width[v] == 4 && twin[v] == 0; u--)
            if (width[u] == 4 && parent[u] == parent[v]
                && (adj[u] & ~(1ULL << v)) == (adj[v] & ~(1ULL << u)))
                twin[v] = 1ULL << u;
    }
    for (int c = 0; c <= b; c++) /* positions by (color, base segment) */
        for (int p = c; p < n; p += b + 1, k++) {
            seq[k] = p + 1;
            step[k] = p / (b + 1);
        }
    out[0] = out[1] = out[2] = 0;
    next[0] = root_lo;
    last[0] = root_hi - 1;
    for (d = 0;;) {
        int v = order[d], c = next[d], stride = d ? 2 : 1;
        while (c <= last[d] && !fits(nseg, c, width[v], earlier[d], lo, width))
            c += stride;
        if (c > last[d]) {
            if (d-- == 0)
                return BW_NO;
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
        int status = bw_dfs(n, adj, twin, lo, width, step, max_states, deadline, stop, path, &states);
        out[0]++;
        out[1] += states;
        out[2] = states > out[2] ? states : out[2];
        if (status == BW_YES)
            for (k = 0; k < n; k++)
                pos[path[k]] = seq[k];
        if (status != BW_NO)
            return status;
    }
}

enum { BOUNDS_OK = 0, BOUNDS_DISCONNECTED = 1, BOUNDS_NO_MEMORY = 2 };

/* solve.bounds on a graph with n >= 2 vertices, given as off and nbr:
 * v's neighbours are nbr[off[v]] .. nbr[off[v + 1] - 1], ascending, as
 * in g.adj. Gives lo in out[0], hi in out[1] and the 1-based ordering
 * of width hi in pos: the identity unless the Cuthill-McKee ordering
 * from some source is strictly narrower, and then the first narrowest.
 * The sources go in id order, and each BFS visits neighbours by
 * (degree, id); the lists in that order come from one counting pass,
 * which appends each vertex, taken by degree and then id, to its
 * neighbours' lists. The early exits are the Python loop's: the width
 * scan stops once it reaches hi, and the loop once hi meets the degree
 * bound. The clock is read before each source; once it has passed the
 * deadline, lo is the degree bound alone. The arrays are O(n + m) and
 * have no MAXN limit. Returns BOUNDS_OK, BOUNDS_DISCONNECTED when a
 * BFS misses a vertex or n < 2, or BOUNDS_NO_MEMORY. */
int bw_bounds(int n, const int *off, const int *nbr, double deadline, int *pos, int *out)
{
    int maxdeg = 0, hi = 0, diam = 0, status = BOUNDS_OK;
    if (n < 2) /* no diameter bound; solve.bounds refuses these first */
        return BOUNDS_DISCONNECTED;
    for (int v = 0; v < n; v++) {
        int deg = off[v + 1] - off[v];
        if (deg > maxdeg)
            maxdeg = deg;
        if (deg && nbr[off[v + 1] - 1] - v > hi) /* the identity's width */
            hi = nbr[off[v + 1] - 1] - v;
        pos[v] = v + 1;
    }
    int degree_bound = (maxdeg + 1) / 2, cycle_bound = off[n] / 2 >= n ? 2 : 1;
    if (degree_bound < cycle_bound)
        degree_bound = cycle_bound;
    int lo = degree_bound; /* past the deadline, the diameter bound is left out */
    int *cm = malloc(sizeof(int) * ((size_t)off[n] + 3 * (size_t)n + (size_t)maxdeg + 2));
    if (cm == NULL)
        return BOUNDS_NO_MEMORY;
    int *dist = cm + off[n], *order = dist + n, *via = order + n, *below = via + n;
    /* The counting pass: below[d] counts the vertices of degree < d, so
     * order lists them by (degree, id); via[v] is where v's list in cm
     * takes its next neighbour. */
    for (int d = 0; d <= maxdeg + 1; d++)
        below[d] = 0;
    for (int v = 0; v < n; v++)
        below[off[v + 1] - off[v] + 1]++;
    for (int d = 1; d <= maxdeg + 1; d++)
        below[d] += below[d - 1];
    for (int v = 0; v < n; v++) {
        order[below[off[v + 1] - off[v]]++] = v;
        via[v] = off[v];
    }
    for (int i = 0; i < n; i++)
        for (int k = off[order[i]]; k < off[order[i] + 1]; k++)
            cm[via[nbr[k]]++] = order[i];
    for (int src = 0; src < n; src++) {
        if (past(deadline, NULL))
            goto done;
        for (int v = 0; v < n; v++)
            dist[v] = -1;
        dist[src] = 0;
        order[0] = src;
        int seen = 1, width = 0;
        for (int i = 0; i < seen; i++) /* via[j]: the index in order of j's BFS parent */
            for (int k = off[order[i]]; k < off[order[i] + 1]; k++)
                if (dist[cm[k]] < 0) {
                    dist[cm[k]] = dist[order[i]] + 1;
                    via[seen] = i;
                    order[seen++] = cm[k];
                }
        if (seen != n) {
            status = BOUNDS_DISCONNECTED;
            goto done;
        }
        if (dist[order[n - 1]] > diam)
            diam = dist[order[n - 1]];
        /* The width of a BFS order is its widest tree edge, j - via[j]. */
        for (int j = 1; j < n && width < hi; j++)
            if (j - via[j] > width)
                width = j - via[j];
        if (width < hi) {
            hi = width;
            for (int i = 0; i < n; i++)
                pos[order[i]] = i + 1;
        }
        if (hi == degree_bound) {
            lo = hi;
            goto done;
        }
    }
    if ((n - 1 + diam - 1) / diam > lo) /* ceil((n - 1) / diam) */
        lo = (n - 1 + diam - 1) / diam;
done:
    free(cm);
    out[0] = lo;
    out[1] = hi;
    return status;
}
