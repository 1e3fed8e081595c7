"""Command-line front end: decide / solve / oracle / analyze / gen / bench.

Exit codes: 0 success (yes / optimal), 1 no, 2 unknown (budget
exhausted), 3 input or usage error, or an internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from .analysis import (
    McWeights,
    constraint_residuals,
    kappa_for,
    optimize_weights,
)
from .assignments import max_assignments
from .graph import FAMILY_PARAMS, Graph, GraphError, generate, parse_graph, write_graph
from .solve import (
    Budget,
    OPTIMAL,
    NO,
    UNKNOWN,
    YES,
    decide,
    minimize_bandwidth,
    oracle_bandwidth,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _budget(args) -> Budget:
    return Budget(max_states=args.max_states, max_seconds=args.max_seconds)


def _report(args, payload: dict) -> dict:
    return {
        "command": " ".join(args.echo),
        **payload,
    }


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report))
        return
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        else:
            print(f"{key}: {value}")


def cmd_decide(args) -> int:
    g = _load_graph(args.graph)
    start = time.monotonic()
    res = decide(g, args.b, _budget(args), root=args.root, workers=args.workers)
    report = _report(args, {
        "input": {"n": g.n, "m": g.m},
        "status": res.status,
        "ordering": res.ordering,
        "counters": res.stats.to_dict(),
        "timing": {"wall_seconds": time.monotonic() - start},
    })
    _emit(report, args.json)
    return {YES: EXIT_OK, NO: EXIT_NO, UNKNOWN: EXIT_UNKNOWN}[res.status]


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    start = time.monotonic()
    res = minimize_bandwidth(g, _budget(args), root=args.root, workers=args.workers)
    report = _report(args, {
        "input": {"n": g.n, "m": g.m},
        **res.to_dict(),
        "timing": {"wall_seconds": time.monotonic() - start},
    })
    _emit(report, args.json)
    return EXIT_OK if res.status == OPTIMAL else EXIT_UNKNOWN


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    start = time.monotonic()
    res = oracle_bandwidth(g, limit=args.limit)
    report = _report(args, {
        "input": {"n": g.n, "m": g.m},
        **res.to_dict(),
        "timing": {"wall_seconds": time.monotonic() - start},
    })
    _emit(report, args.json)
    return EXIT_OK


def cmd_analyze(args) -> int:
    start = time.monotonic()
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise GraphError("analyze needs both --alpha and --beta, or neither")
        weights = McWeights(args.alpha, args.beta)
        bound = kappa_for(weights, tol=args.tol)
    else:
        weights, bound = optimize_weights(
            grid_step=args.grid_step, refine_step=args.refine_step, tol=args.tol
        )
    residuals = constraint_residuals(bound.kappa, weights)
    report = _report(args, {
        "alpha": weights.alpha,
        "beta": weights.beta,
        "kappa": bound.kappa,
        "residuals": list(residuals),
        "binding": list(bound.binding),
        "grid_step": args.grid_step,
        "timing": {"wall_seconds": time.monotonic() - start},
    })
    _emit(report, args.json)
    return EXIT_OK


def cmd_gen(args) -> int:
    types = FAMILY_PARAMS[args.family]
    params = []
    for i, (convert, text) in enumerate(zip(types, args.params), 1):
        try:
            params.append(convert(text))
        except ValueError:
            raise GraphError(
                f"family {args.family} parameter {i} must be {convert.__name__}, got {text!r}"
            ) from None
    params += args.params[len(types):]  # left for generate to count and reject
    g = generate(args.family, *params, seed=args.seed)
    text = write_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def bench_instances(suite: str, seed: int):
    """Instance corpus per suite; deterministic for a fixed seed."""
    if suite == "small":
        for n in range(4, 9):
            yield f"path{n}", generate("path", n)
            yield f"cycle{n}", generate("cycle", n)
        for m in range(3, 7):
            yield f"star{m}", generate("star", m)
        for n in range(4, 7):
            yield f"complete{n}", generate("complete", n)
        for i in range(4):
            yield f"tree8_s{seed + i}", generate("random_tree", 8, seed=seed + i)
        for i in range(4):
            yield f"gnp9_s{seed + i}", generate("random_gnp", 9, 0.35, seed=seed + i)
    elif suite == "smoke":
        for i in range(3):
            yield f"gnp14_s{seed + i}", generate("random_gnp", 14, 0.35, seed=seed + i)
    else:
        raise GraphError(f"unknown bench suite {suite!r}")


def cmd_bench(args) -> int:
    budget = _budget(args)
    for name, g in bench_instances(args.suite, args.seed):
        start = time.monotonic()
        res = minimize_bandwidth(g, budget, workers=args.workers)
        stats = res.stats
        n = g.n
        line = {
            "name": name,
            "n": n,
            "m": g.m,
            "bandwidth": res.bandwidth,
            "status": res.status,
            "states_total": stats["states_total"],
            "states_max_run": stats["states_max_run"],
            "per_run_ceiling": stats["per_run_ceiling"],
            "assignments_generated": stats["assignments_generated"],
            "phase1_ceiling": max_assignments(n),
            "wall_seconds": time.monotonic() - start,
        }
        print(json.dumps(line), flush=True)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwexact", description="Exact graph bandwidth solver."
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_budget_flags(p):
        p.add_argument("--max-states", type=int, default=Budget().max_states,
                       help="visited-state cap per search run")
        p.add_argument("--max-seconds", type=float, default=None,
                       help="overall wall-time cap")
        p.add_argument("--root", type=int, default=0,
                       help="spanning-tree root vertex")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1), each searching the assignments of one "
                            "root segment at a time; results match serial")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("decide", help="is there an ordering of bandwidth <= b?")
    p.add_argument("graph")
    p.add_argument("--b", type=int, required=True)
    add_budget_flags(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("solve", help="compute the exact bandwidth with a witness")
    p.add_argument("graph")
    add_budget_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force bandwidth (small n only)")
    p.add_argument("graph")
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("analyze", help="branching-recurrence bound on the state count")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--grid-step", type=float, default=0.005)
    p.add_argument("--refine-step", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("family", choices=sorted(FAMILY_PARAMS))
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run a generated corpus, one JSON line per instance")
    p.add_argument("suite", choices=["small", "smoke"])
    p.add_argument("--seed", type=int, default=0)
    add_budget_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo = ["bwexact", *argv]
    try:
        return args.func(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        # A crash must not exit 1, which reads as a proven "no".
        traceback.print_exc()
        print("error: internal failure, no answer", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
