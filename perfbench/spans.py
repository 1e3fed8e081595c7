"""Span tracing around the layer calls that ``bwexact.solve`` makes.

The solver is not instrumented. Instead, while a ``tracing`` block is
active, the names that ``bwexact.solve`` looks up at call time
(``decide``, ``lower_bound``, ``spanning_tree``, ``connected_components``,
``color_order``, ``enumerate_assignments``, ``dfs_decide``) are replaced
by wrappers that record a span per call, or per ``next()`` for the
assignment stream. Spans stay in memory until the run ends.

Pool workers forked by a parallel ``decide`` inherit the wrappers, but
record nothing: only parent-side spans exist for ``workers > 1``, and
the kernel's work there is known only from the ``DecideStats`` counters
that ``decide`` returns.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from time import perf_counter

# Span name -> layer. A layer's self time is the time its spans cover
# minus the time covered by their child spans.
LAYER = {
    "minimize_bandwidth": "solve",
    "decide": "solve",
    "lower_bound": "lower_bound",
    "connected_components": "graph",
    "spanning_tree": "graph",
    "color_order": "geometry",
    "enumerate_assignments.next": "assignments",
    "dfs_decide": "search",
}

NAME, START, END, PARENT, INSTANCE, ATTRS = range(6)


class Tracer:
    """Records spans ``[name, start, end, parent span, instance, attrs]``.

    Each thread keeps its own stack of open spans, because a parallel
    ``decide`` iterates the assignment stream on the pool's feeder
    thread; spans from that thread have no parent.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance: str | None = None
        self._local = threading.local()
        self._pid = os.getpid()

    def begin(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, perf_counter(), None, stack[-1] if stack else None, self.instance, None]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = perf_counter()
        self._local.stack.pop()

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span[ATTRS] = attrs(out)
            return out

        return traced

    def wrap_stream(self, name, fn):
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if os.getpid() != self._pid:
                yield from it
                return
            while True:
                span = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(span)
                yield item

        return traced

    def write(self, path: str, header: dict) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                parent = ids[id(s[PARENT])] if s[PARENT] is not None else None
                fh.write(json.dumps([i, s[NAME], s[START], s[END], parent, s[INSTANCE], s[ATTRS]]) + "\n")


def _decide_attrs(res) -> dict:
    st = res.stats
    return {"status": res.status, "states": st.states_total, "runs": st.runs,
            "yielded": st.assignments_generated, "states_max_run": st.states_max_run}


def _dfs_attrs(out) -> dict:
    status, _pos, stats = out
    return {"status": status, "states": stats.states_visited}


@contextlib.contextmanager
def tracing(tracer: Tracer, solve_module):
    """Swap traced wrappers into ``bwexact.solve`` for the block."""
    wrappers = {
        "decide": tracer.wrap("decide", solve_module.decide, _decide_attrs),
        "lower_bound": tracer.wrap("lower_bound", solve_module.lower_bound),
        "connected_components": tracer.wrap("connected_components", solve_module.connected_components),
        "spanning_tree": tracer.wrap("spanning_tree", solve_module.spanning_tree),
        "color_order": tracer.wrap("color_order", solve_module.color_order),
        "enumerate_assignments": tracer.wrap_stream(
            "enumerate_assignments.next", solve_module.enumerate_assignments),
        "dfs_decide": tracer.wrap("dfs_decide", solve_module.dfs_decide, _dfs_attrs),
    }
    saved = {name: getattr(solve_module, name) for name in wrappers}
    for name, fn in wrappers.items():
        setattr(solve_module, name, fn)
    try:
        yield tracer
    finally:
        for name, fn in saved.items():
            setattr(solve_module, name, fn)


def layer_totals(spans: list[list], parallel: bool) -> dict:
    """Per-layer numbers for the spans of one pass.

    With ``parallel`` the kernel runs in pool workers, so ``search.s`` is
    the self time of ``decide``: the parent blocked on the pool.
    """
    self_s = dict.fromkeys(set(LAYER.values()), 0.0)
    decide_s = decide_self = 0.0
    decide_calls = 0
    states = no_states = runs = yielded = max_run = 0
    for s in spans:
        dur = s[END] - s[START]
        self_s[LAYER[s[NAME]]] += dur
        if s[PARENT] is not None:
            self_s[LAYER[s[PARENT][NAME]]] -= dur
            if s[PARENT][NAME] == "decide":
                decide_self -= dur
        if s[NAME] == "decide":
            decide_s += dur
            decide_self += dur
            decide_calls += 1
            a = s[ATTRS]
            if a is None:  # cut off by the hang guard
                continue
            states += a["states"]
            runs += a["runs"]
            yielded += a["yielded"]
            max_run = max(max_run, a["states_max_run"])
            if a["status"] == "no":
                no_states += a["states"]
    if parallel:
        self_s["search"] += decide_self
        self_s["solve"] -= decide_self
    search_s = self_s["search"]
    return {
        "search.s": search_s,
        "search.states_per_s": states / search_s if search_s > 0 else 0.0,
        "search.runs": runs,
        "search.states_max_run": max_run,
        "assignments.s": self_s["assignments"],
        "assignments.yielded": yielded,
        "assignments.useful_ratio": runs / yielded if yielded else 0.0,
        "solve.decide_calls": decide_calls,
        "solve.decide_s": decide_s,
        "solve.no_state_share": no_states / states if states else 0.0,
        "solve.lower_bound_s": self_s["lower_bound"],
        "solve.self_s": self_s["solve"],
        "graph.s": self_s["graph"],
        "geometry.s": self_s["geometry"],
        "self_sum_s": sum(self_s.values()),
    }
