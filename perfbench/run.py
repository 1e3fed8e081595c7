"""Benchmark of the exact bandwidth solver, one workload per run.

    python3 perfbench/run.py --workload gnp-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root. The solver is imported from ``src/`` of
that root and driven through its public API (``bwexact.generate``, then
``bwexact.minimize_bandwidth``), one solve at a time, in this process.

A run times the set-up in several fresh interpreters and peak memory in
another, then repeats passes over the seed's corpus for ``--seconds``
and reports medians. Every time is normalized by the host's current
slowdown, measured by a frozen yardstick run between solves (see
``yardstick.py``). Every answer is checked outside the timed region.
With ``--trace 1`` the run alternates untraced and traced passes and
reports per-layer numbers instead (see ``spans.py``). The last line of
standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``. METRICS.md explains the workloads, the metrics
and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import yardstick
from corpus import build_graph, draw_corpus, load_pool
from spans import Tracer, layer_totals, tracing

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# size: instances per pass. oracle: also check each answer against the
# brute-force oracle. reference: solve each instance again serially and
# require the identical answer, witness and states_total.
WORKLOADS = {
    "gnp-dense": {"pool": "gnp", "size": 7, "workers": 1},
    "tree-sparse": {"pool": "tree", "size": 7, "workers": 1},
    "small-many": {"pool": "small", "size": 480, "workers": 1, "oracle": True},
    "gnp-dense-w2": {"pool": "gnp", "size": 7, "workers": 2, "reference": True},
}

SETUP_REPEATS = 5  # fresh-interpreter set-ups timed per run
# Seconds of solving between two yardstick runs (see yardstick.py); the
# yardstick takes about 0.05 s, so this keeps it under a fifth of a pass.
YARDSTICK_EVERY_S = 0.25
# Hang guard. The solver's own budget bounds each decide call, not a
# whole solve, and pool workers ignore it, so the harness bounds every
# pass and check from outside with SIGALRM: a run stops solving
# RUN_LIMIT_S after it starts, and the solve cut off counts as failed.
RUN_LIMIT_S = 150.0
WORKLOAD_TIMEOUT_S = 180.0

END_TO_END_UNITS = {
    "wall_s": "s", "solve_s.p50": "s", "solve_s.p90": "s", "states_total": "count",
    "certified_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "search.s": "s", "search.states_per_s": "1/s", "search.runs": "count",
    "search.states_max_run": "count", "assignments.s": "s", "assignments.yielded": "count",
    "assignments.useful_ratio": "ratio", "solve.decide_calls": "count", "solve.decide_s": "s",
    "solve.no_state_share": "ratio", "solve.lower_bound_s": "s", "solve.self_s": "s",
    "graph.s": "s", "geometry.s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_s": "s", "host.slowdown": "ratio",
}


class SolveTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    def fire(signum, frame):
        raise SolveTimeout(f"no answer within {seconds:.1f} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_solver():
    """Import bwexact from ROOT/src, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import bwexact
    import bwexact.solve

    if not os.path.abspath(bwexact.__file__).startswith(src + os.sep):
        raise ImportError(f"bwexact came from {bwexact.__file__}, not {src}")
    return bwexact


def environment(workload: str, seed: int, workers: int) -> dict:
    src = os.path.join(ROOT, "src", "bwexact")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
        "workers": workers,
    }


def git_sha() -> str | None:
    """HEAD's commit from .git, read without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(FileNotFoundError):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def setup(bwexact, spec: dict, seed: int, workers: int):
    """Load the pinned pool, draw the seed's corpus, build its graphs and
    warm up with one solve of the heaviest small pinned instance."""
    corpus = draw_corpus(load_pool(spec["pool"]), spec["size"], seed)
    for inst in corpus:
        inst["graph"] = build_graph(bwexact, inst["family"], inst["params"], inst["seed"], inst["connected"])
    warm = max(load_pool("small"), key=lambda inst: inst["states_total"])
    g = build_graph(bwexact, warm["family"], warm["params"], warm["seed"], warm["connected"])
    res = bwexact.minimize_bandwidth(g, workers=workers)
    if res.bandwidth != warm["bandwidth"]:
        raise RuntimeError(f"warm-up {warm['key']}: bandwidth {res.bandwidth}, pinned {warm['bandwidth']}")
    return corpus


def run_pass(bwexact, corpus, workers: int, run_end: float, tracer=None) -> dict:
    """Solve every corpus instance once; time only the solves.

    The yardstick runs before the first solve, after the last, and
    after any solve that ends YARDSTICK_EVERY_S or more after the
    previous yardstick. A solve's normalized time is its time over the
    mean slowdown of the yardstick runs just before and just after it.
    """
    solve = bwexact.minimize_bandwidth
    results, times, before = [], [], []
    slow = [yardstick.slowdown()]
    last_yard = perf_counter()
    timed_out = None
    start = perf_counter()
    try:
        with time_limit(run_end - start):
            for inst in corpus:
                before.append(len(slow) - 1)
                t0 = perf_counter()
                if tracer is None:
                    res = solve(inst["graph"], workers=workers)
                else:
                    tracer.instance = inst["key"]
                    span = tracer.begin("minimize_bandwidth")
                    try:
                        res = solve(inst["graph"], workers=workers)
                    finally:
                        tracer.end(span)
                t1 = perf_counter()
                times.append(t1 - t0)
                results.append(res)
                if t1 - last_yard >= YARDSTICK_EVERY_S:
                    slow.append(yardstick.slowdown())
                    last_yard = perf_counter()
    except SolveTimeout as exc:
        timed_out = str(exc)
    if times and before[len(times) - 1] == len(slow) - 1:
        slow.append(yardstick.slowdown())
    norm = [t / ((slow[i] + slow[i + 1]) / 2) for t, i in zip(times, before)]
    return {"wall": perf_counter() - start, "times": times, "norm": norm, "slowdown": slow,
            "results": results, "timed_out": timed_out, "traced": tracer is not None}


def solve_wall(p: dict) -> float:
    """A pass's solve time, normalized by its median slowdown."""
    return sum(p["times"]) / statistics.median(p["slowdown"])


def normalized(totals: dict, slowdown: float) -> dict:
    """Layer totals with every time divided by `slowdown`."""
    out = {}
    for key, value in totals.items():
        if key.endswith("_per_s"):
            out[key] = value * slowdown
        elif key.endswith(("_s", ".s")):
            out[key] = value / slowdown
        else:
            out[key] = value
    return out


def check(inst: dict, res) -> str | None:
    """Why a solve is not certified, or None if it is."""
    g = inst["graph"]
    if res.status != "optimal":
        return f"status {res.status}"
    pos = res.ordering
    if sorted(pos) != list(range(1, g.n + 1)):
        return "witness is not a permutation of 1..n"
    width = max((abs(pos[u] - pos[v]) for u, v in g.edges), default=0)
    if width != res.bandwidth:
        return f"witness has bandwidth {width}, reported {res.bandwidth}"
    if res.bandwidth != inst["bandwidth"]:
        return f"bandwidth {res.bandwidth}, pinned {inst['bandwidth']}"
    return None


def fingerprint(res) -> tuple:
    return res.bandwidth, tuple(res.ordering), res.stats["states_total"]


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), interpolated between samples, never
    beyond the largest."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    run_end = perf_counter() + RUN_LIMIT_S
    bwexact = import_solver()
    workers = min(spec["workers"], len(os.sched_getaffinity(0)))
    env = environment(name, seed, workers)
    print(json.dumps({"env": env}), flush=True)
    with time_limit(run_end - perf_counter()):
        corpus = setup(bwexact, spec, seed, workers)
    failures: dict[str, str] = {}
    if not trace:
        setup_s = run_probe(failures, "setup_s", lambda: measure_setup(name, seed, run_end))
        peak_rss = run_probe(failures, "peak_rss_mb", lambda: measure_peak_rss(spec, workers, run_end))

    # Timed passes. A pass that would end past the window is not started.
    tracer = Tracer() if trace else None
    passes, traced, span_marks = [], [], []
    window_end = perf_counter() + seconds
    while True:
        plain = run_pass(bwexact, corpus, workers, run_end)
        passes.append(plain)
        longest = plain["wall"]
        if trace and plain["timed_out"] is None:
            mark = len(tracer.spans)
            with tracing(tracer, bwexact.solve):
                p = run_pass(bwexact, corpus, workers, run_end, tracer)
            if p["timed_out"] is None:
                span_marks.append((mark, len(tracer.spans)))
                traced.append(p)
            passes.append(p)
            longest += p["wall"]
        if passes[-1]["timed_out"] or perf_counter() + longest > window_end:
            break

    # Checks, outside the timed region. A failed solve is (pass, instance).
    failed_solves: set[tuple[int, str]] = set()
    attempted = 0
    first = None
    for i, p in enumerate(passes):
        attempted += len(p["results"])
        for inst, res in zip(corpus, p["results"]):
            why = check(inst, res)
            if why is None and first is not None and fingerprint(res) != first[inst["key"]]:
                why = "answer or states_total differs from the first pass"
            if why is not None:
                failures.setdefault(inst["key"], why)
                failed_solves.add((i, inst["key"]))
        if first is None and len(p["results"]) == len(corpus):
            first = {inst["key"]: fingerprint(res) for inst, res in zip(corpus, p["results"])}
        if p["timed_out"] and len(p["results"]) < len(corpus):
            key = corpus[len(p["results"])]["key"]
            attempted += 1
            failures.setdefault(key, p["timed_out"])
            failed_solves.add((i, key))
    # color_order runs only in pool workers on a parallel workload, so
    # geometry.s there comes from the traced serial reference solves.
    ref_tracer = Tracer() if trace and workers > 1 else None
    for key, why in verify_untimed(bwexact, spec, corpus, passes[0], run_end, ref_tracer).items():
        failures.setdefault(key, why)
        failed_solves.update((i, key) for i, p in enumerate(passes) if any(
            inst["key"] == key for inst in corpus[:len(p["results"])]))
    failed = len(failed_solves)

    complete = [p for p in passes if p["timed_out"] is None and not p["traced"]] or passes[:1]
    # Times are normalized by the host's slowdown (see yardstick.py),
    # then each instance's median over passes is taken, so one slow pass
    # moves no percentile.
    times = [statistics.median(s) for s in zip(*(p["norm"] for p in complete))] or [complete[0]["wall"]]
    slowdown = statistics.median(x for p in passes for x in p["slowdown"])
    metrics: dict[str, float] = {"host.slowdown": slowdown}
    if not trace:
        metrics |= {
            "wall_s": sum(times),
            "solve_s.p50": statistics.median(times),
            "solve_s.p90": quantile(times, 90),
            "states_total": sum(r.stats["states_total"] for r in passes[0]["results"]),
            "certified_frac": (attempted - failed) / attempted if attempted else 0.0,
            "peak_rss_mb": peak_rss,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
    else:
        # Each traced pass is normalized by its own median slowdown.
        per_pass = [normalized(layer_totals(tracer.spans[a:b], workers > 1), statistics.median(p["slowdown"]))
                    for (a, b), p in zip(span_marks, traced)]
        for key in per_pass[0] if per_pass else ():
            metrics[key] = statistics.median(t[key] for t in per_pass)
        traced_wall = statistics.median(solve_wall(p) for p in traced) if traced else 0.0
        plain_wall = statistics.median(solve_wall(p) for p in complete)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        metrics["trace.unattributed_s"] = traced_wall - metrics.pop("self_sum_s", 0.0)
        if ref_tracer is not None:
            metrics["geometry.s"] = normalized(layer_totals(ref_tracer.spans, False), slowdown)["geometry.s"]
        units = PER_LAYER_UNITS
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(path, {"env": env, "fields": ["id", "name", "start", "end", "parent", "instance", "attrs"]})
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}", flush=True)

    for key, why in sorted(failures.items()):
        print(f"FAILED {key}: {why}", file=sys.stderr, flush=True)
    print(f"{name} seed={seed} passes={len(passes)} traced={len(traced)} solves={attempted} failed={failed}")
    print("  pass walls (s): " + " ".join(f"{p['wall']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    print(f"  host slowdown: median {slowdown:.3f}, range "
          f"{min(x for p in passes for x in p['slowdown']):.3f}-{max(x for p in passes for x in p['slowdown']):.3f}")
    for key, unit in units.items():
        print(f"  {key:<26} {metrics.get(key, float('nan')):>14.6g} {unit}")
    return {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items() if key in metrics},
    }


def timed_setup(name: str, seed: int) -> float:
    """Seconds to import the solver and set a workload up, normalized by
    the mean slowdown of a yardstick run before and one after; meant for
    a fresh interpreter."""
    spec = WORKLOADS[name]
    before = yardstick.slowdown()
    t0 = perf_counter()
    bwexact = import_solver()
    setup(bwexact, spec, seed, min(spec["workers"], len(os.sched_getaffinity(0))))
    dt = perf_counter() - t0
    return dt / ((before + yardstick.slowdown()) / 2)


def measure_setup(name: str, seed: int, run_end: float) -> float:
    """Median of SETUP_REPEATS set-ups, each in a fresh interpreter so
    that the import is cold for the interpreter (the OS page cache is
    warm after the first)."""
    return statistics.median(probe(f"timed_setup({name!r}, {seed})", run_end) for _ in range(SETUP_REPEATS))


def run_probe(failures: dict, label: str, measure) -> float:
    """A probe's value, or 0.0 with the reason recorded in `failures`."""
    try:
        return measure()
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        failures[label] = f"{type(exc).__name__}: {exc}"
        return 0.0


def probe(call: str, run_end: float) -> float:
    """Evaluate `call`, a call of a function of this module, in a fresh
    interpreter."""
    code = f"import sys; sys.path.insert(0, {HERE!r}); import run; print(run.{call})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=max(1.0, run_end - perf_counter()), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {call} failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb(pool: str, key: str, workers: int) -> float:
    """Resident high-water mark, in MB, of this process (plus its largest
    pool child) after one solve of a pool instance; meant for a fresh
    interpreter. VmHWM, not ru_maxrss: the latter keeps the high-water
    mark of the process image that exec replaced."""
    bwexact = import_solver()
    inst = next(inst for inst in load_pool(pool) if inst["key"] == key)
    g = build_graph(bwexact, inst["family"], inst["params"], inst["seed"], inst["connected"])
    bwexact.minimize_bandwidth(g, workers=workers)
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    if workers > 1:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def measure_peak_rss(spec: dict, workers: int, run_end: float) -> float:
    """Peak memory of a fresh process solving the pool instance with the
    largest pinned run, whose visited set dominates memory.

    A fresh process, because the high-water mark of the long-lived
    benchmark process grows with every pass as the heap fragments, so it
    would depend on solve order and on how many passes fit the window.
    """
    key = max(load_pool(spec["pool"]), key=lambda inst: (inst["states_max_run"], inst["key"]))["key"]
    return probe(f"peak_rss_mb({spec['pool']!r}, {key!r}, {workers})", run_end)


def verify_untimed(bwexact, spec: dict, corpus: list, first_pass: dict, run_end: float,
                   tracer: Tracer | None = None) -> dict:
    """Checks that need extra solver or oracle calls: the oracle on
    small-many, and exact serial agreement for a parallel workload,
    whose serial solves `tracer` records if given."""
    failures = {}
    if not (spec.get("oracle") or spec.get("reference")):
        return failures
    key = None
    try:
        with time_limit(run_end - perf_counter()):
            for inst, res in zip(corpus, first_pass["results"]):
                key = inst["key"]
                if spec.get("oracle"):
                    want = bwexact.oracle_bandwidth(inst["graph"]).bandwidth
                    if want != res.bandwidth:
                        failures[key] = f"bandwidth {res.bandwidth}, oracle {want}"
                if spec.get("reference"):
                    with tracing(tracer, bwexact.solve) if tracer else contextlib.nullcontext():
                        serial = bwexact.minimize_bandwidth(inst["graph"], workers=1)
                    if fingerprint(serial) != fingerprint(res):
                        failures[key] = "parallel answer, witness or states_total differs from serial"
    except SolveTimeout as exc:
        failures[key] = f"untimed check: {exc}"
    return failures


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the exact bandwidth solver.")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, ValueError, RuntimeError, SolveTimeout,
            subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
