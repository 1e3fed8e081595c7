"""Rebuild the instance pools under perfbench/pools/.

    python3 perfbench/pin.py [--pool gnp|tree|small ...] [--retime]

Solves every candidate spec below with the solver in ``src/`` and
records its bandwidth and state counts. Those bandwidths become the
pins that every benchmark run checks against, so rerun this only on a
commit whose answers are trusted: pinning from a wrong solver would
make the benchmark certify wrong answers. Small instances are also
checked against the brute-force oracle here. Each pool is then solved
in seven passes, timed as a benchmark run times them, for every
instance's reference solve time. Takes about 15 minutes on 2 cores.
``--retime`` measures only the reference times again (about five
minutes on 2 cores) and keeps the pins.

The gnp and tree pools keep only candidates whose state total falls in
a band, so that every instance in a workload costs about the same and
per-solve latency is a stable statistic; the gnp pool also keeps only
graphs where proofs of "no" take at least half the states, which is
what that workload is for. At the commit that pinned them, no sampled
G(16, p) or random tree with n = 16 fitted a band (1.0M-2.5M and
0.38M-2.4M states, 4-12 s each).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from multiprocessing import get_context
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bwexact  # noqa: E402

import bwexact.solve  # noqa: E402
import run  # noqa: E402
from corpus import COLUMNS, POOL_DIR, build_graph  # noqa: E402
from spans import Tracer, layer_totals, tracing  # noqa: E402

# Which solved candidates a pool keeps: a state-total band, and a floor
# on the share of states spent in decide calls that answer "no".
KEEP = {
    "gnp": {"states_total": [110_000, 190_000], "no_state_share": 0.5},
    "tree": {"states_total": [110_000, 190_000]},
    "small": {},
}


def candidates(pool: str) -> list[tuple]:
    if pool == "gnp":
        return [
            ("random_gnp", [n, p], s, True)
            for n, seeds in ((14, 60), (15, 24))
            for p in (0.25, 0.3, 0.35)
            for s in range(seeds)
        ]
    if pool == "tree":
        out = [("random_tree", [n], s, True)
               for n, seeds in ((14, 80), (15, 16), (16, 8)) for s in range(seeds)]
        for n in (14, 15, 16):
            for spine in (n // 2 - 2, n // 2, n // 2 + 2):
                out.extend(("caterpillar", [spine, n - spine], s, True) for s in range(12))
        return out
    if pool == "small":
        out = []
        for idx in range(1470):
            n = 4 + idx % 7
            kind = (idx // 7) % 5
            if kind < 3:
                p, conn = ((0.3, True), (0.45, True), (0.2, False))[kind]
                out.append(("random_gnp", [n, p], idx, conn))
            elif kind == 3:
                out.append(("random_tree", [n], idx, True))
            else:
                spine = max(1, n // 2)
                out.append(("caterpillar", [spine, n - spine], idx, True))
        return out
    raise ValueError(pool)


def pin_one(args: tuple) -> list:
    pool, spec = args
    family, params, seed, connected = spec
    g = build_graph(bwexact, family, params, seed, connected)
    tracer = Tracer()
    with tracing(tracer, bwexact.solve):
        res = bwexact.minimize_bandwidth(g)
    if res.status != "optimal":
        raise RuntimeError(f"{spec}: status {res.status}")
    if pool == "small":
        oracle = bwexact.oracle_bandwidth(g).bandwidth
        if oracle != res.bandwidth:
            raise RuntimeError(f"{spec}: solver {res.bandwidth} != oracle {oracle}")
    edges = tuple(sorted(g.edges))
    no_share = layer_totals(tracer.spans, parallel=False)["solve.no_state_share"]
    return [family, params, seed, connected, res.bandwidth,
            res.stats["states_total"], res.stats["states_max_run"], (no_share, g.n, edges)]


def reference_times(rows: list, repeats: int = 7) -> list[float]:
    """Each row's median solve time over `repeats` passes over all the
    rows, timed and normalized by the host's slowdown the way a
    benchmark run times them (``run.run_pass``)."""
    corpus = [{"key": i, "graph": build_graph(bwexact, *row[:4])} for i, row in enumerate(rows)]
    passes = [run.run_pass(bwexact, corpus, 1, perf_counter() + 600)["norm"] for _ in range(repeats)]
    return [round(statistics.median(times), 7) for times in zip(*passes)]


def write_pool(pool: str, keep: dict, rows: list) -> str:
    path = os.path.join(POOL_DIR, f"{pool}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"columns": %s,\n "keep": %s,\n "instances": [\n'
                 % (json.dumps(COLUMNS), json.dumps(keep)))
        fh.write(",\n".join("  " + json.dumps(r) for r in rows))
        fh.write("\n]}\n")
    return path


def retime(pool: str) -> str:
    """Measure the reference times of a pool again, keeping its pins."""
    path = os.path.join(POOL_DIR, f"{pool}.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = doc["instances"]
    for row, seconds in zip(rows, reference_times(rows)):
        row[-1] = seconds
    return write_pool(pool, doc["keep"], rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pool", choices=sorted(KEEP), action="append")
    ap.add_argument("--retime", action="store_true",
                    help="only measure the reference times of the pools again, keeping their pins")
    args = ap.parse_args()
    if args.retime:
        for pool in args.pool or sorted(KEEP):
            print(f"{pool}: retimed -> {retime(pool)}", flush=True)
        return 0
    ctx = get_context("spawn")
    for pool in args.pool or sorted(KEEP):
        specs = candidates(pool)
        with ctx.Pool(min(2, os.cpu_count() or 1)) as workers:
            rows = workers.map(pin_one, [(pool, s) for s in specs], chunksize=1)
        keep = KEEP[pool]
        lo, hi = keep.get("states_total", (0, float("inf")))
        seen, kept = set(), []
        for row in rows:
            no_share, *shape = row.pop()
            if tuple(shape) in seen:  # two specs can generate the same graph
                continue
            seen.add(tuple(shape))
            if lo <= row[5] <= hi and no_share >= keep.get("no_state_share", 0.0):
                kept.append(row)
        for row, seconds in zip(kept, reference_times(kept)):
            row.append(seconds)
        path = write_pool(pool, keep, kept)
        print(f"{pool}: kept {len(kept)} of {len(specs)} candidates -> {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
