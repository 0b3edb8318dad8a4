"""Outside-in tracer: times calls into each slowthink module's public
functions by swapping module attributes for timing wrappers.

Nothing under ``src/`` changes. ``install`` wraps every public function a
layer module defines, then rebinds the names other modules imported directly
(``simulate`` and ``bounds`` hold their own references to
``selector_success_prob`` and ``step_correct_prob``), so calls through those
names are timed too. Spans stay in memory as ``[name, start_ns, end_ns,
parent, attrs]`` and are written out once, when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "models", "bounds", "simulate", "info_theory", "calibration",
          "hsic", "reporting")
# cli's public surface is its two entry points; its subcommand bodies count
# as cli self time.
CLI_FUNCTIONS = ("dispatch", "build_parser")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _mc_kind(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    spec = _arg(args, kwargs, 1, "strategy")
    kind = spec.kind
    if kind == "bon":
        kind = f"bon.{spec.rule}"
    elif kind in ("beam", "mcts_worst"):
        kind += ".noisy" if cfg.selector.kind == "noisy_score" else ".ideal"
    return {"kind": kind, "trials": _arg(args, kwargs, 2, "trials")}


# Extra counters recorded on a span from its call's arguments and result.
ANNOTATE = {
    "simulate.monte_carlo": _mc_kind,
    "simulate.verify_bounds": lambda a, k, r: {"ok": int(bool(r))},
    "info_theory.fano_suite": lambda a, k, r: {"instances": r.instances},
    "hsic.permutation_null": lambda a, k, r: {"perms": len(r)},
    "reporting.format_csv": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
    "reporting.render_plot": lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
}


class Tracer:
    """In-memory span store for one pass (``run_id``)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATE.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if annotate is not None:
                rec[4] = annotate(args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "attrs": attrs,
                }) + "\n")


def install(tracer: Tracer) -> None:
    """Swap each layer's public functions for traced wrappers, then rebind
    every module-level name that still refers to an unwrapped original."""
    modules = {layer: importlib.import_module(f"slowthink.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        if layer == "cli":
            names = CLI_FUNCTIONS
        else:
            names = [
                n for n, obj in vars(mod).items()
                if not n.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ]
        for n in names:
            original = getattr(mod, n)
            wrapped[original] = tracer.wrap(f"{layer}.{n}", original)
            setattr(mod, n, wrapped[original])
    for mod in [importlib.import_module("slowthink"), *modules.values()]:
        for n, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, n, wrapped[obj])


def _union(intervals) -> int:
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def summarize(spans: list[list], wall_s: float) -> dict:
    """Per span name (and per ``kind`` of Monte Carlo call): calls, busy
    seconds (union of the spans' intervals, so recursion is not counted
    twice), self seconds (duration minus what child spans cover) and the sums
    of annotated counters. Also per layer, and the share of the pass wall
    time covered by top-level ``cli.dispatch`` spans."""
    children: dict[int, list] = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    groups: dict[str, dict] = {}

    def add(key, start, end, self_ns, attrs):
        g = groups.setdefault(key, {"calls": 0, "intervals": [], "self_ns": 0, "sums": {}})
        g["calls"] += 1
        g["intervals"].append((start, end))
        g["self_ns"] += self_ns
        for k, v in (attrs or {}).items():
            if isinstance(v, (int, float)):
                g["sums"][k] = g["sums"].get(k, 0) + v

    top_dispatch = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        self_ns = (end - start) - _union(children.get(i, ()))
        add(name, start, end, self_ns, attrs)
        add(name.split(".", 1)[0], start, end, self_ns, attrs)
        if attrs and "kind" in attrs:
            add(f"{name.split('.', 1)[0]}.{attrs['kind']}", start, end, self_ns, attrs)
        if name == "cli.dispatch" and parent < 0:
            top_dispatch += end - start
    out = {
        key: {
            "calls": g["calls"],
            "busy_s": _union(g["intervals"]) / 1e9,
            "self_s": g["self_ns"] / 1e9,
            **g["sums"],
        }
        for key, g in groups.items()
    }
    out["_coverage"] = {"dispatch_share": (top_dispatch / 1e9) / wall_s if wall_s else 0.0}
    return out


def noisy_eps_cache() -> dict:
    """Hits and misses of the selector-reliability cache in this process,
    or zeros when the program no longer has that cache."""
    from slowthink import models

    info = getattr(getattr(models, "_noisy_score_success", None), "cache_info", None)
    if info is None:
        return {"hits": 0, "misses": 0}
    stats = info()
    return {"hits": stats.hits, "misses": stats.misses}
