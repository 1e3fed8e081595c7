"""Instance pools and the seed -> corpus draw.

A pool is a JSON file under ``pools/`` listing generator specs
(family, params, generator seed, connected flag) with the bandwidth
pinned for each instance and reference numbers for its work (state
total, largest run, normalized solve time), all recorded by ``pin.py``. A
workload seed never generates fresh graphs: it draws a corpus from the
pool, so every answer stays checkable against its pin.
"""

from __future__ import annotations

import json
import os
import random
import statistics

POOL_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pools")
COLUMNS = ["family", "params", "seed", "connected", "bandwidth", "states_total",
           "states_max_run", "ref_s"]

# Candidate corpora drawn per seed, scaled so a draw costs about the
# same for every corpus size; the candidate closest to the pool's
# typical work is kept.
CANDIDATE_PICKS = 2048


def build_graph(bwexact, family: str, params: list, seed: int, connected: bool):
    if family == "random_gnp":
        return bwexact.generate(family, *params, seed=seed, connected=connected)
    return bwexact.generate(family, *params, seed=seed)


def load_pool(name: str) -> list[dict]:
    with open(os.path.join(POOL_DIR, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["columns"] != COLUMNS:
        raise ValueError(f"pool {name}: unexpected columns {doc['columns']}")
    return [dict(zip(COLUMNS, row), key=f"{name}#{i}") for i, row in enumerate(doc["instances"])]


def draw_corpus(pool: list[dict], size: int, seed: int) -> list[dict]:
    """Seeded draw of `size` pool instances.

    Plain random subsets of exponential-time instances differ in total
    work by tens of percent, which would swamp the change under test.
    So the seed draws candidate corpora by stratified sampling (the pool
    sorted by reference solve time and cut into `size` strata, one
    instance from each) and keeps the candidate closest to the pool's
    typical corpus: total reference time and state total near `size`
    times their pool medians, median reference time near the pool's,
    and largest reference time near the median largest of a uniform
    draw. Ties go to the earlier draw. The same seed gives the same
    corpus.
    """
    if not 1 <= size <= len(pool):
        raise ValueError(f"corpus size {size} outside 1..{len(pool)}")
    rng = random.Random(seed)
    order = sorted(range(len(pool)), key=lambda i: (pool[i]["ref_s"], i))
    cuts = [len(pool) * j // size for j in range(size + 1)]
    median_s = statistics.median(inst["ref_s"] for inst in pool)
    top_s = pool[order[min(len(pool) - 1, int(0.5 ** (1 / size) * len(pool)))]]["ref_s"]
    target_states = size * statistics.median(inst["states_total"] for inst in pool)
    best, best_gap = None, None
    for _ in range(max(8, CANDIDATE_PICKS // size)):
        pick = [order[rng.randrange(cuts[j], cuts[j + 1])] for j in range(size)]
        ref = [pool[i]["ref_s"] for i in pick]
        gap = (abs(sum(ref) / (size * median_s) - 1)
               + abs(statistics.median(ref) / median_s - 1)
               + abs(max(ref) / top_s - 1)
               + abs(sum(pool[i]["states_total"] for i in pick) / target_states - 1))
        if best_gap is None or gap < best_gap:
            best, best_gap = pick, gap
    rng.shuffle(best)
    return [pool[i] for i in best]
