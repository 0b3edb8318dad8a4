"""Tests of the benchmark itself: every workload runs at a tiny size and
reports every metric it names, the checker rejects wrong output, and the
tracer's self-time arithmetic holds."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = 0.02
ISSUE_END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "failed_ops_ratio",
                    "mc_trials_per_s", "fano_instances_per_s", "hsic_perms_per_s")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_metric(workload, tmp_path):
    commands = len(workloads.WORKLOADS[workload](tmp_path, 1, TINY))
    report, result = run.measure(workload, seed=1, seconds=0, trace=True, scale=TINY)
    assert result["correct"], report["failures"]
    passes = report["passes"]["traced"] + report["passes"]["untraced"]
    assert result["failed"] == 0 and result["attempted"] == passes * commands
    assert set(result["metrics"]) == set(run.per_layer_names())
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and metric["unit"], name
    detail = report["metrics"]
    for name in ISSUE_END_TO_END:
        assert detail[name]["unit"]
    for name, _ in run.END_TO_END:
        assert detail[name]["samples"] >= run.MIN_PASSES
        assert detail[name]["value"] > 0
    assert report["passes"]["traced"] >= run.MIN_PASSES
    assert result["metrics"]["cli.dispatch.calls"]["value"] == commands
    assert result["metrics"]["trace.dispatch_coverage"]["value"] > 0.95
    assert {"python", "numpy", "scipy", "platform", "nproc", "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS", "seed"} <= set(report["environment"])


def test_untraced_result_line_has_exactly_the_end_to_end_metrics():
    report, result = run.measure("exact-analysis", seed=2, seconds=0, trace=False, scale=TINY)
    assert result["correct"], report["failures"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert report["metrics"]["setup_s"]["samples"] == run.MIN_PASSES


def _run_command(cmds, name):
    from slowthink.cli import dispatch

    cmd = next(c for c in cmds if c.name == name)
    return cmd, dispatch(cmd.argv)


def _corrupt(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_checker_flags_corrupted_exact_cell_and_wrong_exit_code(tmp_path):
    cmds = workloads.exact_analysis(tmp_path, 5, TINY)
    check = checker.Checker("exact-analysis", cmds)
    cmd, rc = _run_command(cmds, "calibrate")
    assert check.check(cmd, rc, "") == []
    assert check.check(cmd, 1, "") != []
    n_call = float(cmd.out.read_text().splitlines()[1].split(",")[3])
    _corrupt(cmd.out, 1, 3, repr(n_call * (1 + 1e-7)))
    assert any("n_call" in e for e in check.check(cmd, rc, ""))


def test_checker_flags_corrupted_monte_carlo_estimate(tmp_path):
    cmds = workloads.mc_ideal(tmp_path, 5, TINY)
    check = checker.Checker("mc-ideal", cmds)
    cmd, rc = _run_command(cmds, "gamma-sweep")
    assert check.check(cmd, rc, "gamma-sweep: ... -> PASS") == []
    assert check.check(cmd, rc, "") == ["no PASS verdict printed"]
    _corrupt(cmd.out, 4, 1, "0.2")  # gamma=3 succeeds about 1.5% of the time
    errors = check.check(cmd, rc, "gamma-sweep: ... -> PASS")
    assert any("estimate" in e and "reference" in e for e in errors)


def test_tracer_self_time_subtracts_child_spans():
    spans = [
        ["cli.dispatch", 0, 100, -1, None],
        ["simulate.monte_carlo", 10, 50, 0, {"kind": "single_path", "trials": 8}],
        ["bounds.bon_bound", 60, 70, 0, None],
        ["models.step_correct_prob", 20, 30, 1, None],
    ]
    summary = tracer.summarize(spans, wall_s=100e-9)
    assert summary["cli.dispatch"]["self_s"] == pytest.approx(50e-9)
    assert summary["simulate.monte_carlo"]["self_s"] == pytest.approx(30e-9)
    assert summary["simulate.single_path"]["trials"] == 8
    assert summary["_coverage"]["dispatch_share"] == pytest.approx(1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "mc-ideal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
