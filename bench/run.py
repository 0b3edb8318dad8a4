"""slowthink benchmark driver.

Usage (from the repository root):

    python3 bench/run.py --workload mc-ideal --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): mc-ideal, mc-noisy, exact-analysis. Each
run generates its inputs and their reference outputs from ``--seed``
(untimed), imports the program once unmeasured to compile bytecode, then
runs measured passes while they fit in ``--seconds``. A pass runs
the workload's whole command list in a fresh interpreter
(``pass_child.py``) through ``slowthink.cli.dispatch``; passes run one at a
time, with BLAS and OpenMP pinned to one thread. Every command of every pass
is checked by ``checker.py``.

With ``--trace 0`` the result carries the end-to-end metrics: the median
pass wall time, the median time for a fresh interpreter to finish
``import slowthink.cli`` (one sample per pass), and the median peak RSS of a
pass. With ``--trace 1`` traced and untraced passes alternate; the result
carries the per-layer metrics from the traced passes, the import breakdown
from ``python -X importtime``, and the tracing overhead.

The second-to-last stdout line is a detailed JSON report (environment, every
metric with its unit, sample count and quartiles, failures); the last line is
the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_PASSES = 2
PASS_TIMEOUT_S = 120
IMPORT_SAMPLES = 3


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Metrics:
    """Named metric samples with units; reports median, quartiles and count."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.units: dict[str, str] = {}

    def add(self, name: str, unit: str, value) -> None:
        self.units[name] = unit
        values = self.samples.setdefault(name, [])
        if value is not None:
            values.append(float(value))

    def value(self, name: str) -> float:
        return _median(self.samples.get(name, []))

    def report(self) -> dict:
        out = {}
        for name, values in self.samples.items():
            q1, q3 = _quartiles(values)
            out[name] = {"value": _median(values) if values else None,
                         "unit": self.units[name], "samples": len(values),
                         "q1": q1, "q3": q3}
        return out


# ---------------------------------------------------------------------------
# metric definitions
# ---------------------------------------------------------------------------

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

SIM_KINDS = ("single_path", "beam.ideal", "beam.noisy", "bon.orm_max", "bon.orm_vote",
             "bon.self_consistency", "mcts_best", "mcts_worst.ideal", "mcts_worst.noisy",
             "lookahead")


def _per_layer_from(layers: dict) -> list[tuple[str, str, float]]:
    """Per-layer metrics of one traced pass from its span summary. A layer or
    function the workload never calls reads 0."""

    def g(key, field="calls"):
        return layers.get(key, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = [
        ("cli.dispatch.calls", "count", g("cli.dispatch")),
        ("cli.dispatch.busy_s", "s", g("cli.dispatch", "busy_s")),
        ("cli.build_parser.busy_s", "s", g("cli.build_parser", "busy_s")),
        ("cli.self_s", "s", g("cli", "self_s")),
        ("models.selector_success_prob.calls", "count", g("models.selector_success_prob")),
        ("models.selector_success_prob.busy_s", "s",
         g("models.selector_success_prob", "busy_s")),
        ("bounds.calls", "count", g("bounds")),
        ("bounds.busy_s", "s", g("bounds", "busy_s")),
        ("simulate.monte_carlo.calls", "count", g("simulate.monte_carlo")),
        ("simulate.monte_carlo.busy_s", "s", g("simulate.monte_carlo", "busy_s")),
        ("simulate.trials", "count", g("simulate.monte_carlo", "trials")),
        ("simulate.verify_pass_ratio", "ratio",
         ratio(g("simulate.verify_bounds", "ok"), g("simulate.verify_bounds"))),
    ]
    for kind in SIM_KINDS:
        out.append((f"simulate.{kind}.trials_per_s", "1/s",
                    ratio(g(f"simulate.{kind}", "trials"), g(f"simulate.{kind}", "busy_s"))))
    drawn = g("info_theory.random_sequence")
    out += [
        ("simulate.lookahead_selection_success.busy_s", "s",
         g("simulate.lookahead_selection_success", "busy_s")),
        ("info_theory.fano_suite.busy_s", "s", g("info_theory.fano_suite", "busy_s")),
        ("info_theory.sequences_drawn", "count", drawn),
        ("info_theory.qualify_ratio", "ratio",
         ratio(g("info_theory.fano_suite", "instances"), drawn)),
    ]
    for fn in ("fano_check", "mutual_information", "conditional_entropy"):
        out.append((f"info_theory.{fn}.calls", "count", g(f"info_theory.{fn}")))
        out.append((f"info_theory.{fn}.busy_s", "s", g(f"info_theory.{fn}", "busy_s")))
    perms = g("hsic.permutation_null", "perms")
    out += [
        ("info_theory.random_joint.busy_s", "s", g("info_theory.random_joint", "busy_s")),
        ("hsic.gaussian_gram.calls", "count", g("hsic.gaussian_gram")),
        ("hsic.gaussian_gram.busy_s", "s", g("hsic.gaussian_gram", "busy_s")),
        ("hsic.permutation_null.busy_s", "s", g("hsic.permutation_null", "busy_s")),
        ("hsic.perms_per_s", "1/s", ratio(perms, g("hsic.permutation_null", "busy_s"))),
        ("hsic.hsic.busy_s", "s", g("hsic.hsic", "busy_s")),
        ("hsic.fit_decay.busy_s", "s", g("hsic.fit_decay", "busy_s")),
        ("calibration.ingest_traces.busy_s", "s", g("calibration.ingest_traces", "busy_s")),
        ("calibration.records_per_s", "1/s",
         ratio(g("calibration.parse_trace_record"), g("calibration.ingest_traces", "busy_s"))),
        ("reporting.format_csv.busy_s", "s", g("reporting.format_csv", "busy_s")),
        ("reporting.csv_bytes", "bytes", g("reporting.format_csv", "bytes")),
        ("reporting.write_manifest.busy_s", "s", g("reporting.write_manifest", "busy_s")),
        ("reporting.emit_plot.busy_s", "s", g("reporting.emit_plot", "busy_s")),
        ("reporting.svg_bytes", "bytes", g("reporting.render_plot", "bytes")),
        ("trace.dispatch_coverage", "ratio", layers["_coverage"]["dispatch_share"]),
    ]
    return out


def _throughputs(cmds, result) -> list[tuple[str, str, float | None]]:
    """The workload-specific end-to-end rates of one untraced pass; None where
    the workload does no such work."""
    secs = {c.name: r["seconds"] for c, r in zip(cmds, result["commands"])}
    trials = sum(c.trials for c in cmds)
    hsic = [c for c in cmds if c.name.startswith("hsic")]
    fano = [c for c in cmds if c.name == "fano-suite"]
    return [
        ("mc_trials_per_s", "1/s", trials / result["wall_s"] if trials else None),
        ("fano_instances_per_s", "1/s",
         fano[0].extra["instances"] / secs["fano-suite"] if fano else None),
        ("hsic_perms_per_s", "1/s",
         sum(c.extra["perms"] for c in hsic) / sum(secs[c.name] for c in hsic)
         if hsic else None),
    ]


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(PINNED)
    return env


def run_pass(workdir: Path, cmds, trace: bool, run_id: str, spans_out: Path | None):
    """Run the command list once in a fresh interpreter; returns the child's
    result with ``setup_s`` added, or None when the child died."""
    for cmd in cmds:
        for path in (cmd.out, Path(str(cmd.out) + ".manifest.json"), cmd.svg):
            if path is not None and path.exists():
                path.unlink()
    job = workdir / "job.json"
    result_path = workdir / "result.json"
    job.write_text(json.dumps({
        "commands": [c.argv for c in cmds], "trace": trace, "run_id": run_id,
        "spans_out": str(spans_out) if spans_out else None,
    }), encoding="utf-8")
    if result_path.exists():
        result_path.unlink()
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "pass_child.py"), str(job), str(result_path)],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["imported_at"] - spawned
    return result


def import_breakdown() -> dict:
    """``import slowthink.cli`` under ``python -X importtime``: total seconds
    of the slowthink imports and the cumulative seconds of scipy.special
    (0 when it is not imported)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import slowthink.cli"],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    total = scipy_special = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)", line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if indent == 1 and (name == "slowthink" or name.startswith("slowthink.")):
            total += cumulative
        if name == "scipy.special":
            scipy_special = max(scipy_special, cumulative)
    return {"total_s": total / 1e6, "scipy_special_s": scipy_special / 1e6}


def environment(seed: int, versions: dict) -> dict:
    import platform

    return {
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        **PINNED,
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """One benchmark run; returns (detail report, result line)."""
    import checker
    import workloads

    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cmds = workloads.WORKLOADS[workload](workdir, seed, scale)
        check = checker.Checker(workload, cmds)
        metrics = Metrics()
        failures: list[str] = []
        attempted = failed = dead = 0
        versions: dict = {}
        spans_out = ROOT / ".bench_results" / f"spans-{workload}.jsonl" if trace else None
        if spans_out:
            spans_out.parent.mkdir(exist_ok=True)
        untraced_walls, traced_walls = [], []

        def one_pass(index: int, traced: bool):
            nonlocal attempted, failed, dead, versions
            # the spans of the run's first traced pass are written out
            result = run_pass(workdir, cmds, traced, f"{workload}-{seed}-{index}",
                              spans_out if traced and not traced_walls else None)
            attempted += len(cmds)
            if result is None:
                failed += len(cmds)
                dead += 1
                failures.append(f"pass {index}: interpreter exited abnormally")
                return
            versions = result["versions"]
            for cmd, res in zip(cmds, result["commands"]):
                errors = check.check(cmd, res["rc"], res["stderr"])
                if errors:
                    failed += 1
                    failures.extend(f"pass {index} {cmd.name}: {e}" for e in errors[:5])
            metrics.add("setup_s", "s", result["setup_s"])
            if traced:
                traced_walls.append(result["wall_s"])
                for name, unit, value in _per_layer_from(result["layers"]):
                    metrics.add(name, unit, value)
                cache = result["noisy_eps_cache"]
                lookups = cache["hits"] + cache["misses"]
                metrics.add("models.noisy_eps.cache_hit_ratio", "ratio",
                            cache["hits"] / lookups if lookups else 0.0)
            else:
                untraced_walls.append(result["wall_s"])
                metrics.add("wall_s", "s", result["wall_s"])
                metrics.add("peak_rss_mb", "MB", result["maxrss_kb"] / 1024.0)
                for name, unit, value in _throughputs(cmds, result):
                    metrics.add(name, unit, value)

        # warm-up: compile bytecode and fill the file cache before timing
        subprocess.run([sys.executable, "-c", "import slowthink.cli"], env=_child_env(),
                       cwd=ROOT, check=True, timeout=PASS_TIMEOUT_S)
        start = time.perf_counter()
        index, pass_s = 1, []
        # start a pass only when it is expected to end within the budget
        while dead < 3:
            elapsed = time.perf_counter() - start
            done = len(untraced_walls) + len(traced_walls)
            if done >= MIN_PASSES * (2 if trace else 1) and elapsed + _median(pass_s) > seconds:
                break
            t0 = time.perf_counter()
            one_pass(index, trace and index % 2 == 0)
            pass_s.append(time.perf_counter() - t0)
            index += 1
        if trace:
            for _ in range(IMPORT_SAMPLES):
                imp = import_breakdown()
                metrics.add("import.total_s", "s", imp["total_s"])
                metrics.add("import.scipy_special_s", "s", imp["scipy_special_s"])
            metrics.add("trace.overhead_s", "s",
                        _median(traced_walls) - _median(untraced_walls))
        metrics.add("failed_ops_ratio", "ratio", failed / attempted if attempted else 1.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": {"untraced": len(untraced_walls), "traced": len(traced_walls)},
        "environment": environment(seed, versions),
        "metrics": metrics.report(),
        "failures": failures[:50],
    }
    wanted = per_layer_names() if trace else [name for name, _ in END_TO_END]
    missing = [name for name in wanted if name not in metrics.units]
    if missing:
        raise RuntimeError(f"no pass produced {missing}; failures: {failures[:5]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.value(name), "unit": metrics.units[name]}
            for name in wanted
        },
    }
    return report, result


def per_layer_names() -> list[str]:
    """Names of the per-layer metrics a traced run reports, in order."""
    fake = {"_coverage": {"dispatch_share": 0.0}}
    names = [name for name, _, _ in _per_layer_from(fake)]
    return names + ["models.noisy_eps.cache_hit_ratio", "import.total_s",
                    "import.scipy_special_s", "trace.overhead_s",
                    "mc_trials_per_s", "fano_instances_per_s", "hsic_perms_per_s"]


def main(argv=None) -> int:
    # pin before anything imports numpy; passes get the pins through _child_env
    os.environ.update(PINNED)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink trial counts and input sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "slowthink" / "cli.py").is_file():
        print(f"error: no slowthink sources under {SRC}", file=sys.stderr)
        return 2
    report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.scale)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
