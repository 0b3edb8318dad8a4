"""End-to-end command-line behavior: golden values, exit discipline,
round-trips, and manifest-driven reproduction."""

import csv
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import slowthink
from slowthink import simulate
from slowthink.cli import dispatch
from slowthink.reporting import run_environment


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    rc = dispatch(list(argv) + ["--out", str(out)])
    rows = []
    if out.exists():
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
    return rc, out, rows


class TestBoundsCommand:
    def test_single_path_row(self, tmp_path):
        rc, _, rows = run(
            tmp_path, "bounds", "--lambda", "1", "--L", "2", "--strategy", "single"
        )
        assert rc == 0
        assert len(rows) == 1
        assert float(rows[0]["bound"]) == pytest.approx(0.049787068367863944, rel=1e-9)
        assert rows[0]["vacuous"] == "false"

    def test_all_strategies(self, tmp_path):
        rc, _, rows = run(
            tmp_path, "bounds", "--lambda", "1", "--L", "2", "--k", "2", "--b", "2",
            "--N", "4", "--strategy", "all",
        )
        assert rc == 0
        names = {r["strategy"] for r in rows}
        assert names == {
            "single", "beam-exact", "beam-simplified", "bon", "mcts-best", "mcts-worst"
        }

    @pytest.mark.parametrize("decay", [["--table", "0.9,0.8"], ["--lambda", "3"]])
    def test_all_leaves_undefined_simplified_bounds_empty(self, tmp_path, decay):
        rc, _, rows = run(tmp_path, "bounds", "--strategy", "all", "--L", "2", *decay)
        assert rc == 0
        cells = {r["strategy"]: (r["bound"], r["vacuous"]) for r in rows}
        assert len(cells) == 6
        for name in ("beam-simplified", "bon", "mcts-best", "mcts-worst"):
            assert cells[name] == ("", "")
        for name in ("single", "beam-exact"):
            assert float(cells[name][0]) > 0.0 and cells[name][1] == "false"

    def test_named_undefined_bound_still_exits_2(self, tmp_path, capsys):
        rc, _, rows = run(tmp_path, "bounds", "--strategy", "bon", "--table", "0.9,0.8",
                          "--L", "2")
        assert rc == 2 and rows == []
        assert "exponential decay" in capsys.readouterr().err

    def test_vacuous_flagged(self, tmp_path):
        rc, _, rows = run(
            tmp_path, "bounds", "--lambda", "1", "--L", "1", "--k", "8",
            "--strategy", "beam-simplified",
        )
        assert rc == 0
        assert rows[0]["vacuous"] == "true"

    @pytest.mark.parametrize(
        "strategy, flags",
        [
            ("mcts-worst", ["--b", "1000"]),
            ("bon", ["--N", str(10**20)]),
            ("beam-simplified", ["--k", str(10**20), "--b", "2"]),
        ],
    )
    def test_bound_past_double_range_is_inf(self, tmp_path, strategy, flags):
        # the log-domain value is past the double range; the unclipped bound
        # prints as inf and is vacuous, under --strategy all too
        for wanted in (strategy, "all"):
            rc, _, rows = run(tmp_path, "bounds", "--lambda", "1", "--L", "40",
                              "--strategy", wanted, *flags)
            assert rc == 0
            cells = {r["strategy"]: (r["bound"], r["vacuous"]) for r in rows}
            assert cells[strategy] == ("inf", "true")

    def test_unknown_subcommand_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_validation_error_exit(self, tmp_path, capsys):
        rc = dispatch(["bounds", "--lambda", "-1", "--L", "2", "--strategy", "single"])
        assert rc == 2
        assert "error" in capsys.readouterr().err.lower()


class TestCalibrateCommand:
    def test_reference_stats(self, tmp_path):
        rc, _, rows = run(tmp_path, "calibrate", "--stats", "1.67,9.45,4.00")
        assert rc == 0
        row = rows[0]
        assert float(row["n_call"]) == pytest.approx(15.7815, rel=1e-6)
        assert float(row["n_res"]) == pytest.approx(3.945375, rel=1e-6)
        assert (row["n_int_low"], row["n_int_high"]) == ("4", "15")

    def test_traces_input(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            json.dumps(
                {"question_id": "q", "events": [[0, 3], [1, 3]], "ideal_path_length": 3}
            )
            + "\n"
        )
        rc, _, rows = run(tmp_path, "calibrate", "--traces", str(trace))
        assert rc == 0
        assert float(rows[0]["avg_b"]) == 3.0
        assert float(rows[0]["avg_p"]) == 2.0

    def test_requires_some_input(self, capsys):
        assert dispatch(["calibrate"]) == 2


class TestSimulateCommand:
    def test_verify_pass_row(self, tmp_path):
        rc, _, rows = run(
            tmp_path, "simulate", "--strategy", "single_path", "--lambda", "1",
            "--L", "2", "--trials", "20000", "--seed", "42",
        )
        assert rc == 0
        assert rows[0]["verify"] == "pass"
        assert float(rows[0]["mean_calls"]) == 1.0

    def test_sweep_emits_one_row_per_value(self, tmp_path):
        rc, _, rows = run(
            tmp_path, "simulate", "--strategy", "bon", "--rule", "orm_max",
            "--lambda", "1", "--L", "2", "--trials", "5000", "--seed", "1",
            "--sweep", "N=1,2,4",
        )
        assert rc == 0
        assert [r["N"] for r in rows] == ["1", "2", "4"]

    def test_sweep_range_syntax(self, tmp_path):
        rc, _, rows = run(
            tmp_path, "simulate", "--strategy", "beam", "--b", "1",
            "--lambda", "1", "--L", "2", "--trials", "2000", "--seed", "1",
            "--sweep", "k=1:5:2",
        )
        assert rc == 0
        assert [r["k"] for r in rows] == ["1", "3", "5"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "decay": {"kind": "exponential", "lambda_tau": 1.0},
                    "L": 2,
                    "strategy": {"kind": "single_path"},
                    "trials": 5000,
                    "seed": 3,
                }
            )
        )
        rc, _, rows = run(tmp_path, "simulate", "--config", str(cfg))
        assert rc == 0
        assert rows[0]["trials"] == "5000"
        rc, _, rows = run(
            tmp_path, "simulate", "--config", str(cfg), "--trials", "2500",
            name="override.csv",
        )
        assert rc == 0
        assert rows[0]["trials"] == "2500"

    def test_strategy_flag_sets_key_inside_config_strategy(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"L": 2, "strategy": {"kind": "bon", "N": 2, "rule": "orm_max"},
                 "trials": 500}
            )
        )
        rc, _, rows = run(tmp_path, "simulate", "--config", str(cfg), "--N", "8")
        assert rc == 0
        assert rows[0]["N"] == "8" and rows[0]["rule"] == "orm_max"

    @pytest.mark.parametrize(
        "strategy", [["bon", "--N", "2"], ["mcts_best", "--b", "2"], ["mcts_worst", "--b", "2"]]
    )
    @pytest.mark.parametrize("decay", [["--table", "0.9,0.8,0.7"], ["--lambda", "3"]])
    def test_undefined_simplified_bound_leaves_cells_empty(self, tmp_path, strategy, decay):
        rc, _, rows = run(
            tmp_path, "simulate", "--strategy", *strategy, "--L", "3",
            "--trials", "500", *decay,
        )
        assert rc == 0
        assert float(rows[0]["estimate"]) > 0.0
        assert (rows[0]["bound"], rows[0]["vacuous"], rows[0]["verify"]) == ("", "", "")


class TestFanoSuiteCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        rc, _, rows = run(
            tmp_path, "fano-suite", "--instances", "60", "--seed", "11"
        )
        assert rc == 0
        assert len(rows) >= 60
        assert all(r["holds"] == "true" for r in rows)
        assert "PASS" in capsys.readouterr().err

    def test_mi_only_mode_reports_failure(self, tmp_path, capsys):
        rc, _, rows = run(
            tmp_path, "fano-suite", "--instances", "150", "--seed", "11",
            "--assumption", "mi-only", name="mi.csv",
        )
        assert rc == 1
        assert any(r["holds"] == "false" for r in rows)
        assert "FAIL" in capsys.readouterr().err

    def test_exhausted_attempt_budget_exits_2(self, tmp_path, capsys):
        # binary supports leave every bound undefined, so nothing qualifies
        rc, _, rows = run(
            tmp_path, "fano-suite", "--support-min", "2", "--support-max", "2",
            "--instances", "1",
        )
        assert (rc, rows) == (2, [])
        assert capsys.readouterr().err == (
            "error: only 0 of 1 qualifying sequences found; widen the attempt budget\n"
        )


class TestHsicAndFitCommands:
    @staticmethod
    def _write_features(path, rows, with_length=False):
        d = len(rows[0])
        header = (["length"] if with_length else []) + [f"f{i}" for i in range(d)]
        lines = [",".join(header)]
        rng = np.random.default_rng(0)
        for r in rows:
            prefix = [f"{rng.integers(1, 9)}"] if with_length else []
            lines.append(",".join(prefix + [f"{v}" for v in r]))
        path.write_text("\n".join(lines) + "\n")

    def test_hsic_with_permutation_test(self, tmp_path):
        rng = np.random.default_rng(5)
        x = tmp_path / "x.csv"
        y = tmp_path / "y.csv"
        svg = tmp_path / "null.svg"
        self._write_features(x, rng.normal(size=(60, 3)).tolist(), with_length=True)
        self._write_features(y, rng.normal(size=(60, 3)).tolist())
        rc, _, rows = run(
            tmp_path, "hsic", "--x", str(x), "--y", str(y), "--sigma", "50",
            "--per-token", "--permutation-test", "200", "--seed", "9",
            "--svg", str(svg),
        )
        assert rc == 0
        row = rows[0]
        assert float(row["hsic"]) >= 0.0
        assert row["per_token_hsic"] != ""
        # pinned when the null was summed elementwise over np.ix_ gathers
        assert (row["perm_p95"], row["perm_pvalue"]) == ("4.34905934e-08", "0.55")
        assert svg.exists() and b"observed" in svg.read_bytes()

    def test_fit_round_trips_emitted_csv(self, tmp_path):
        pts = tmp_path / "pts.csv"
        lines = ["length,value"]
        for i in range(12):
            x = 0.5 + i
            lines.append(f"{x},{2.0 * math.exp(-0.5 * x)}")
        pts.write_text("\n".join(lines) + "\n")
        svg = tmp_path / "fit.svg"
        rc, _, rows = run(tmp_path, "fit", "--points", str(pts), "--svg", str(svg))
        assert rc == 0
        exp_row = next(r for r in rows if r["model"] == "exponential_decay")
        assert float(exp_row["param_1"]) == pytest.approx(2.0, abs=1e-9)
        assert float(exp_row["param_2"]) == pytest.approx(0.5, abs=1e-9)
        assert svg.exists()

    def test_hsic_limits_exit_2(self, tmp_path, monkeypatch, capsys):
        # the limits shrunk so that a 6-row file and 11 permutations cross them
        x = tmp_path / "x.csv"
        self._write_features(x, np.arange(12.0).reshape(6, 2).tolist())
        argv = ["hsic", "--x", str(x), "--y", str(x), "--out", str(tmp_path / "o.csv")]
        monkeypatch.setattr(slowthink.hsic, "MAX_PERMUTATIONS", 10)
        assert dispatch(argv + ["--permutation-test", "10"]) == 0
        capsys.readouterr()
        assert dispatch(argv + ["--permutation-test", "11"]) == 2
        assert capsys.readouterr().err == "error: 11 permutations are over the 10 limit\n"
        monkeypatch.setattr(slowthink.hsic, "MAX_SAMPLES", 5)
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == "error: 6 samples are over the 5 limit\n"

    def test_missing_inputs_rejected(self):
        assert dispatch(["hsic", "--x", "nope.csv"]) == 2
        assert dispatch(["fit"]) == 2

    def test_fit_reingests_emitted_csv_by_column_name(self, tmp_path):
        rc, sweep_out, _ = run(
            tmp_path, "reproduce", "gamma-sweep", "--trials", "20000", "--seed", "3",
            name="sweep.csv",
        )
        assert rc == 0
        rc2, _, rows = run(
            tmp_path, "fit", "--points", str(sweep_out),
            "--x-col", "gamma", "--y-col", "estimate", name="refit.csv",
        )
        assert rc2 == 0
        assert {r["model"] for r in rows} == {"exponential_decay", "linear"}


class TestReproducePresets:
    def test_table1_cells(self, tmp_path):
        rc, _, rows = run(tmp_path, "reproduce", "table1", "--b", "4", "--L", "2")
        assert rc == 0
        by_case = {r["case"]: r for r in rows}
        assert float(by_case["best"]["bon_cost"]) == 8.0
        assert float(by_case["best"]["mcts_cost"]) == 8.0
        assert float(by_case["worst"]["bon_cost"]) == 8.0
        assert float(by_case["worst"]["mcts_cost"]) == 16.0

    def test_calibration_reference(self, tmp_path):
        rc, _, rows = run(tmp_path, "reproduce", "calibration")
        assert rc == 0
        assert len(rows) == 3
        assert all(float(r["rel_err_call"]) <= 0.01 for r in rows)
        assert all(float(r["rel_err_res"]) <= 0.01 for r in rows)

    def test_nmin_grid(self, tmp_path):
        rc, _, rows = run(tmp_path, "reproduce", "nmin")
        assert rc == 0
        assert all(float(r["rel_err"]) <= 1e-9 for r in rows)


# Runs each argv list given on its command line through cli.dispatch in a
# fresh interpreter, then reports the exit codes, any scipy module loaded and
# whether importing cli alone loaded concurrent.futures.
_IMPORT_PROBE = """
import json, sys
from slowthink import cli
futures = "concurrent.futures" in sys.modules
codes = [cli.dispatch(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "futures_at_import": futures,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_commands_do_not_load_scipy(tmp_path):
    """Runtime needs only numpy: scipy is a test-only oracle, and importing it
    used to cost more than half of every command's start-up. Nor does the
    import build the Monte Carlo thread pool, which is made on first use."""
    rng = np.random.default_rng(3)
    for name in ("x", "y"):
        rows = ["f0,f1,length"] + [f"{a},{b},{n}" for a, b, n in zip(
            rng.normal(size=30), rng.normal(size=30), rng.integers(1, 50, size=30))]
        (tmp_path / f"{name}.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "traces.jsonl").write_text(
        json.dumps({"question_id": "q0", "events": [[1, 2], [0, 3]], "ideal_path_length": 2})
        + "\n"
    )
    (tmp_path / "points.csv").write_text(
        "x,y\n" + "".join(f"{x},{0.1 * math.exp(-x / 100)}\n" for x in range(50, 500, 50))
    )
    noisy = ["--selector", "noisy:1,0.25", "--lambda", "2.5", "--trials", "200"]
    commands = [
        ["bounds", "--strategy", "all", "--lambda", "2.5", "--L", "3", "--k", "4",
         "--b", "2", "--N", "4", "--selector", "noisy:1,0.25"],
        ["simulate", "--strategy", "beam", "--k", "8", "--b", "4", "--L", "4"] + noisy,
        ["simulate", "--strategy", "mcts_worst", "--b", "2", "--L", "6"] + noisy,
        ["simulate", "--strategy", "lookahead", "--b", "3", "--gamma", "2", "--L", "4"]
        + noisy,
        ["simulate", "--strategy", "bon", "--rule", "orm_vote", "--sweep", "N=1:16:5",
         "--answer-space", "100", "--score-noise", "0.5", "--L", "3", "--lambda", "2.5",
         "--trials", "200"],
        ["reproduce", "dominance", "--trials", "200"],
        ["reproduce", "bon-vs-mcts", "--trials", "200", "--plot", "bvm.svg"],
        ["reproduce", "gamma-sweep", "--trials", "200"],
        ["reproduce", "nmin"],
        ["fano-suite", "--instances", "20"],
        ["hsic", "--x", "x.csv", "--y", "y.csv", "--per-token",
         "--permutation-test", "20", "--svg", "null.svg"],
        ["calibrate", "--traces", "traces.jsonl"],
        ["fit", "--points", "points.csv", "--svg", "fit.svg"],
    ]
    commands = [argv + ["--out", f"out{i}.csv"] for i, argv in enumerate(commands)]
    commands.append(["reproduce", "from-manifest", "--path", "out1.csv.manifest.json",
                     "--out", "replay.csv"])
    src = str(Path(slowthink.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert all(code in (0, 1) for code in report["codes"]), (report, proc.stderr)
    assert report["scipy"] == []
    assert report["futures_at_import"] is False


_THREAD_PROBE = """
import json, sys, threading
from slowthink import cli
codes = [cli.dispatch(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "futures": "concurrent.futures" in sys.modules,
                  "threads": threading.active_count()}))
"""


def test_histogram_only_commands_start_no_thread(tmp_path):
    """Runs with ideal selectors and no score noise keep only count
    histograms and draw every block on the calling thread: they build no
    Monte Carlo pool and do not import concurrent.futures."""
    commands = [
        ["reproduce", "dominance", "--trials", "1000"],
        ["reproduce", "gamma-sweep", "--trials", "1000"],
        ["simulate", "--strategy", "beam", "--k", "8", "--b", "4", "--L", "5",
         "--lambda", "2.5", "--trials", "100000"],
    ]
    commands = [argv + ["--out", f"out{i}.csv"] for i, argv in enumerate(commands)]
    src = str(Path(slowthink.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert all(code in (0, 1) for code in report["codes"]), (report, proc.stderr)
    assert report["futures"] is False
    assert report["threads"] == 1


def test_pool_threads_call_only_private_functions(tmp_path, monkeypatch):
    """The bench tracer times public functions on one span stack, which stays
    right only while the Monte Carlo pool's threads call none of them."""
    called = set()

    def profile(frame, event, arg):
        if (event == "call" and threading.current_thread() is not threading.main_thread()
                and frame.f_globals.get("__name__", "").startswith("slowthink.")):
            called.add(frame.f_code.co_qualname)

    noisy = ["--selector", "noisy:1,0.25", "--lambda", "2.5", "--trials", "3000"]
    bon = ["--strategy", "bon", "--N", "8", "--answer-space", "20", "--trials", "3000"]
    commands = [
        ["reproduce", "dominance", "--trials", "3000"],
        ["reproduce", "bon-vs-mcts", "--trials", "3000"],
        ["reproduce", "gamma-sweep", "--trials", "3000"],
        ["simulate", "--strategy", "beam", "--k", "8", "--b", "4", "--L", "4"] + noisy,
        ["simulate", "--strategy", "lookahead", "--b", "3", "--gamma", "2", "--L", "4"] + noisy,
        ["simulate", "--strategy", "mcts_worst", "--b", "2", "--L", "4"] + noisy,
        ["simulate", *bon, "--rule", "orm_vote", "--score-noise", "0.5"],
        ["simulate", *bon, "--rule", "self_consistency"],
    ]
    monkeypatch.chdir(tmp_path)
    threading.setprofile(profile)  # profiles the threads started from here on
    try:
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(simulate, "_pool", pool)
            codes = [dispatch(argv + ["--out", f"out{i}.csv"]) for i, argv in enumerate(commands)]
    finally:
        threading.setprofile(None)
    assert all(code in (0, 1) for code in codes)
    assert "_run_block" in called
    assert sorted(name for name in called if name.split(".")[0][0] not in "_<") == []


class TestDeterminismAndManifests:
    def test_byte_identical_reruns(self, tmp_path):
        argv = [
            "simulate", "--strategy", "beam", "--k", "4", "--b", "2",
            "--lambda", "1", "--L", "3", "--trials", "10000", "--seed", "5",
        ]
        rc1, out1, _ = run(tmp_path, *argv, name="r1.csv")
        rc2, out2, _ = run(tmp_path, *argv, name="r2.csv")
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        rc, out, _ = run(
            tmp_path, "fano-suite", "--instances", "40", "--seed", "13",
            name="suite.csv",
        )
        assert rc == 0
        manifest = out.with_suffix(".csv.manifest.json")
        assert manifest.exists()
        loaded = json.loads(manifest.read_text())
        assert loaded["command"] == "fano-suite"
        assert loaded["config"]["instances"] == 40
        replay = tmp_path / "replay.csv"
        rc2 = dispatch(
            ["reproduce", "from-manifest", "--path", str(manifest), "--out", str(replay)]
        )
        assert rc2 == 0
        assert replay.read_bytes() == out.read_bytes()

    def test_from_manifest_warns_on_numpy_mismatch(self, tmp_path, capsys):
        rc, out, _ = run(tmp_path, "reproduce", "nmin")
        manifest = out.with_suffix(".csv.manifest.json")
        replay = ["reproduce", "from-manifest", "--path", str(manifest),
                  "--out", str(tmp_path / "replay.csv")]
        capsys.readouterr()
        assert dispatch(replay) == rc == 0
        assert "warning" not in capsys.readouterr().err
        loaded = json.loads(manifest.read_text())
        loaded["environment"]["numpy"] = "0.0.1"
        manifest.write_text(json.dumps(loaded))
        assert dispatch(replay) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning:")] == [
            f"warning: {manifest} was written under numpy 0.0.1, this is numpy "
            f"{np.__version__}; sampled output may not be bit-identical"
        ]
        # every recorded key but scipy is compared, and named in one line
        env = run_environment()
        loaded["environment"].update(python="2.7.18", platform="plan9", scipy="0.1")
        manifest.write_text(json.dumps(loaded))
        assert dispatch(replay) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning:")] == [
            f"warning: {manifest} was written under numpy 0.0.1, platform plan9, "
            f"python 2.7.18, this is numpy {np.__version__}, platform "
            f"{env['platform']}, python {env['python']}; sampled output may not "
            "be bit-identical"
        ]

    def test_from_manifest_warns_on_version_mismatch(self, tmp_path, capsys):
        rc, out, _ = run(tmp_path, "reproduce", "nmin")
        manifest = out.with_suffix(".csv.manifest.json")
        loaded = json.loads(manifest.read_text())
        assert loaded["version"] == slowthink.__version__
        loaded["version"] = "0.0.9"
        manifest.write_text(json.dumps(loaded))
        capsys.readouterr()
        assert dispatch(["reproduce", "from-manifest", "--path", str(manifest),
                         "--out", str(tmp_path / "replay.csv")]) == rc == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning:")] == [
            f"warning: {manifest} was written under slowthink 0.0.9, this is "
            f"slowthink {slowthink.__version__}; sampled output may not be bit-identical"
        ]

    def test_manifest_rerun_preset(self, tmp_path):
        rc, out, _ = run(tmp_path, "reproduce", "table1", "--b", "3", "--L", "3")
        manifest = out.with_suffix(".csv.manifest.json")
        replay = tmp_path / "replay.csv"
        rc2 = dispatch(
            ["reproduce", "from-manifest", "--path", str(manifest), "--out", str(replay)]
        )
        assert rc == rc2 == 0
        assert replay.read_bytes() == out.read_bytes()


class TestMalformedInput:
    """Every malformed input exits 2 with an error line, never a traceback."""

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "nokind.json").write_text(
            json.dumps({"strategy": {"N": 2}, "L": 2, "trials": 100})
        )
        (tmp_path / "x.csv").write_text("f0,f1\n1,2\n3,oops\n")
        (tmp_path / "y.csv").write_text("f0,f1\n1,2\n3,4\n")
        (tmp_path / "pts.csv").write_text("x,y\n1,2\nnan?,4\n")
        (tmp_path / "inf_len.csv").write_text("length,f0\ninf,1\n2,3\n")
        (tmp_path / "nan_len.csv").write_text("length,f0\nnan,1\n2,3\n")
        configs = {
            "strategy_str": {"strategy": "beam"},
            "strategy_k_str": {"strategy": {"kind": "beam", "k": "x", "b": 2}},
            "decay_num": {"decay": 2},
            "decay_lambda_str": {"decay": {"lambda_tau": "fast"}},
            "selector_str": {"selector": "ideal"},
            "answer_num": {"answer": 5},
            "L_str": {"strategy": {"kind": "single_path"}, "L": "two"},
            "sweep_num": {"strategy": {"kind": "bon"}, "sweep": 3},
            "gammas_num": {"gammas": 3},
            "gammas_null": {"gammas": None},
            "gammas_empty": {"gammas": []},
            "b_values_num": {"b_values": 5},
            "L_values_str": {"L_values": "abc"},
            "L_frac": {"L": 2.7},
            "L_bool": {"L": True},
            "gammas_frac": {"gammas": [1.5], "trials": 10},
            "gammas_negative": {"gammas": [-1, 0, 1]},
            "plot_bool": {"strategy": {"kind": "single_path"}, "trials": 10, "plot": True},
            "traces_bool": {"traces": True},
            "x_num": {"x": 1, "y": "y.csv"},
            "y_list": {"x": "y.csv", "y": ["y.csv"]},
            "points_bool": {"points": True},
            "svg_num": {"points": "good_pts.csv", "svg": 1},
            "decay_stray": {"decay": {"kind": "exponential", "lambda_tau": 1, "tau": 3}},
            "table_stray": {"decay": {"kind": "tabulated", "table": [0.9], "lambda_tau": 1}},
            "ideal_stray": {"selector": {"kind": "ideal", "margn": 2}},
            "constant_stray": {"selector": {"kind": "constant", "epsilon": 0.9, "eps": 1}},
            "noisy_stray": {"selector": {"kind": "noisy_score", "margin": 1, "noise_std": 1,
                                         "noise": 2}},
            "answer_stray": {"strategy": {"kind": "single_path"}, "answer": {"size": 5}},
            "sweep_stray": {"strategy": {"kind": "bon"},
                            "sweep": {"param": "N", "values": [1], "step": 2}},
            "rollout_stray": {"strategy": {"kind": "lookahead", "b": 2, "gamma": 1,
                                           "count_rollout_steps": False}},
            "LL": {"LL": 5},
            "sweep_empty": {"strategy": {"kind": "bon", "N": 2}, "trials": 10,
                            "sweep": {"param": "N", "values": []}},
            "sweep_bare": {"strategy": {"kind": "bon", "N": 2}, "trials": 10, "sweep": {}},
            "sweep_rule": {"strategy": {"kind": "bon", "N": 2}, "trials": 10,
                           "sweep": {"param": "rule", "values": ["orm_max", "orm_vote"]}},
            "tau_label_manifest": {"command": "simulate", "config": {
                "strategy": {"kind": "single_path"}, "trials": 10, "tau_label": "x"}},
            "lambda_bool": {"strategy": {"kind": "single_path"}, "trials": 10,
                            "decay": {"kind": "exponential", "lambda_tau": True}},
        }
        for name, cfg in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        # 1e400 parses to inf, which no count converts to an int
        past_float = {
            "trials_huge": '{"strategy": {"kind": "single_path"}, "trials": 1e400}',
            "beam_k_huge": '{"strategy": {"kind": "beam", "k": 1e400, "b": 2}}',
            "L_huge": '{"L": 1e400}',
            "instances_huge": '{"instances": 1e400}',
        }
        for name, text in past_float.items():
            (tmp_path / f"{name}.json").write_text(text)
        (tmp_path / "nmin_huge.json").write_text(
            json.dumps({"b_values": [10], "L_values": [1000]})
        )
        (tmp_path / "latin1.bin").write_bytes(b"\xff\xfe caf\xe9\n")
        (tmp_path / "good_pts.csv").write_text("x,y\n1,2\n2,1\n3,0.5\n")
        (tmp_path / "nan_pts.csv").write_text("x,y\n1,2\n2,nan\n3,0.5\n4,0.2\n")
        (tmp_path / "inf_pts.csv").write_text("x,y\n1,2\ninf,1\n3,0.5\n4,0.2\n")
        record = {"question_id": "q", "events": [[0, 2.5]], "ideal_path_length": 2}
        (tmp_path / "frac.jsonl").write_text(json.dumps(record) + "\n")
        (tmp_path / "bad.jsonl").write_text(
            json.dumps({**record, "events": [[0, 2]]}) + "\nnot json\n"
        )
        (tmp_path / "adir").mkdir()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--strategy", "single_path", "--selector", "constant"], "selector"),
            (["simulate", "--strategy", "single_path", "--selector", "noisy:1"], "selector"),
            (["simulate", "--strategy", "beam", "--b", "1", "--sweep", "N=a:b"], "sweep"),
            (["simulate", "--strategy", "beam", "--k", "4"], "requires b >= 1"),
            (["simulate", "--config", "nokind.json"], "strategy kind"),
            (["simulate", "--strategy", "beam", "--k", "4", "--b", "2",
              "--sweep", "N=1,2"], "beam takes no parameter N"),
            (["simulate", "--strategy", "single_path", "--lambda", "1",
              "--table", "0.9"], "not allowed with"),
            (["calibrate", "--stats", "1,2"], "stats"),
            (["simulate", "--config", "bad.json"], "bad.json: invalid JSON"),
            (["reproduce", "from-manifest", "--path", "bad.json"], "bad.json: invalid JSON"),
            (["reproduce", "from-manifest", "--path", "nokind.json"], "not a manifest"),
            (["hsic", "--x", "x.csv", "--y", "y.csv"], "x.csv:3:"),
            (["fit", "--points", "pts.csv"], "pts.csv:3:"),
            (["bounds", "--strategy", "lookahead"], "--lambda-delta"),
            (["simulate", "--config", "strategy_str.json"], "section 'strategy'"),
            (["simulate", "--config", "strategy_str.json", "--N", "3"], "section 'strategy'"),
            (["simulate", "--config", "strategy_k_str.json"], "k must be a number"),
            (["bounds", "--config", "decay_num.json"], "section 'decay'"),
            (["simulate", "--strategy", "single_path", "--config", "decay_lambda_str.json"],
             "lambda_tau must be a number"),
            (["bounds", "--config", "selector_str.json"], "section 'selector'"),
            (["simulate", "--strategy", "single_path", "--config", "answer_num.json"],
             "section 'answer'"),
            (["simulate", "--config", "L_str.json"], "L must be a number"),
            (["simulate", "--config", "sweep_num.json"], "section 'sweep'"),
            (["bounds", "--config", "strategy_k_str.json"], "strategy must be one of"),
            (["simulate", "--strategy", "bon", "--N", "100000000", "--trials", "1"],
             "over the 1000000 limit"),
            (["simulate", "--strategy", "beam", "--k", "100000000", "--b", "1",
              "--trials", "1"], "over the 1000000 limit"),
            (["simulate", "--strategy", "bon", "--N", "2", "--rule", "self_consistency",
              "--answer-space", "100000000", "--trials", "1"], "over the 1000000 limit"),
            (["bounds", "--strategy", "beam-exact", "--k", str(10**400), "--b", "2",
              "--lambda", "1", "--L", "2"], "k is too large"),
            (["bounds", "--strategy", "beam-exact", "--k", str(10**400), "--b", "2",
              "--lambda", "1", "--L", "2", "--selector", "noisy:1,1"], "k is too large"),
            (["bounds", "--strategy", "all", "--k", str(10**400), "--b", "2",
              "--lambda", "1", "--L", "2", "--selector", "constant:0.5"], "k is too large"),
            (["bounds", "--strategy", "bon", "--N", str(10**400), "--lambda", "1",
              "--L", "2", "--selector", "noisy:1,1"], "N is too large"),
            (["bounds", "--strategy", "bon", "--N", str(10**400), "--lambda", "1",
              "--L", "2"], "N is too large"),
            (["bounds", "--strategy", "lookahead", "--table", "0.9,0.8",
              "--lambda-delta", "10"], "requires an exponential decay model"),
            # a config section key that nothing reads is named, not ignored
            (["bounds", "--config", "decay_stray.json"],
             "exponential decay takes no parameter tau; its parameters are kind, lambda_tau"),
            (["simulate", "--strategy", "single_path", "--config", "table_stray.json"],
             "tabulated decay takes no parameter lambda_tau"),
            (["bounds", "--config", "ideal_stray.json"], "ideal selector takes no parameter margn"),
            (["simulate", "--strategy", "single_path", "--config", "constant_stray.json"],
             "constant selector takes no parameter eps;"),
            (["bounds", "--config", "noisy_stray.json"],
             "noisy_score selector takes no parameter noise;"),
            (["simulate", "--config", "answer_stray.json"], "answer takes no parameter size"),
            (["simulate", "--config", "sweep_stray.json"], "sweep takes no parameter step"),
            (["simulate", "--config", "rollout_stray.json"],
             "lookahead takes no parameter count_rollout_steps"),
            # the suite's padded cells per sequence are checked before any draw
            (["fano-suite", "--support-min", "100000", "--support-max", "100000",
              "--instances", "1"], "cells per sequence, past the limit of 262144"),
            (["fano-suite", "--max-L", "1000000000", "--instances", "2"],
             "cells per sequence, past the limit of 262144"),
            # a top-level key that no subcommand reads is named too
            (["bounds", "--config", "LL.json"], "the config takes no parameter LL;"),
            (["reproduce", "from-manifest", "--path", "tau_label_manifest.json"],
             "the config takes no parameter tau_label;"),
            # the flag is checked, and named, before either file is read
            (["hsic", "--x", "x.csv", "--y", "y.csv", "--permutation-test", "-1"],
             "permutation_test must be >= 0, got -1"),
            # an ideal selector takes no value
            (["bounds", "--selector", "ideal:0.5"], "selector must be ideal"),
        ],
    )
    def test_exits_2(self, inputs, capsys, argv, message):
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--config", "trials_huge.json"], "trials is out of range"),
            (["simulate", "--config", "beam_k_huge.json"], "k is out of range"),
            (["bounds", "--config", "L_huge.json"], "L is out of range"),
            (["fano-suite", "--config", "instances_huge.json"], "instances is out of range"),
            (["reproduce", "nmin", "--config", "nmin_huge.json"], "past the double range"),
            (["fano-suite", "--support-min", "5", "--support-max", "3"],
             "2 <= min <= max"),
            (["bounds", "--config", "adir"], "adir"),
            (["bounds", "--config", "latin1.bin"], "can't decode"),
            (["calibrate", "--traces", "adir"], "adir"),
            (["fit", "--points", "latin1.bin"], "can't decode"),
            (["hsic", "--x", "latin1.bin", "--y", "y.csv"], "can't decode"),
            (["reproduce", "from-manifest", "--path", "adir"], "adir"),
            (["reproduce", "gamma-sweep", "--config", "gammas_num.json"],
             "gammas must be a non-empty list of integers, got 3"),
            (["reproduce", "gamma-sweep", "--config", "gammas_null.json"],
             "gammas must be a non-empty list of integers, got None"),
            (["reproduce", "gamma-sweep", "--config", "gammas_empty.json"],
             "gammas must be a non-empty list of integers, got []"),
            (["reproduce", "nmin", "--config", "b_values_num.json"],
             "b_values must be a non-empty list of integers, got 5"),
            (["reproduce", "nmin", "--config", "L_values_str.json"],
             "L_values must be a non-empty list of integers, got 'abc'"),
            (["hsic", "--x", "y.csv", "--y", "latin1.bin"], "latin1.bin: 'utf-8' codec"),
            (["calibrate", "--traces", "latin1.bin"], "latin1.bin: 'utf-8' codec"),
            (["fit", "--points", "latin1.bin"], "latin1.bin: 'utf-8' codec"),
            (["reproduce", "from-manifest", "--path", "latin1.bin"],
             "latin1.bin: 'utf-8' codec"),
            # a tabulated decay may not increase, under bounds as under simulate
            (["bounds", "--table", "0.5,0.9", "--L", "2"], "table entry 2 is 0.9"),
            # integer keys and trace fields take whole numbers only
            (["bounds", "--config", "L_frac.json"], "L must be a whole number, got 2.7"),
            (["simulate", "--strategy", "single_path", "--config", "L_bool.json"],
             "L must be a whole number, got True"),
            (["reproduce", "gamma-sweep", "--config", "gammas_frac.json"],
             "gammas must be a whole number, got 1.5"),
            (["calibrate", "--traces", "frac.jsonl"],
             "frac.jsonl:1: trace 'q': children must be a whole number, got 2.5"),
            (["calibrate", "--traces", "bad.jsonl"], "error: bad.jsonl:2: invalid JSON"),
            # file paths in a config must be strings
            (["simulate", "--config", "plot_bool.json"], "plot must be a file path, got True"),
            (["calibrate", "--config", "traces_bool.json"], "traces must be a file path"),
            (["hsic", "--config", "x_num.json"], "x must be a file path, got 1"),
            (["hsic", "--config", "y_list.json"], "y must be a file path"),
            (["fit", "--config", "points_bool.json"], "points must be a file path"),
            (["fit", "--config", "svg_num.json"], "svg must be a file path, got 1"),
            # a reproduce flag the preset does not read is named, not ignored
            (["reproduce", "nmin", "--b", "1", "--trials", "5", "--plot", "x.svg"],
             "error: reproduce nmin does not take --b, --trials, --plot"),
            (["reproduce", "table1", "--b", "3", "--lambda", "2", "--lambda-delta", "4"],
             "reproduce table1 does not take --lambda, --lambda-delta"),
            (["reproduce", "dominance", "--trials", "10", "--path", "bad.json"],
             "reproduce dominance does not take --path"),
            (["reproduce", "fano", "--layer", "2"], "reproduce fano does not take --layer"),
            (["reproduce", "gamma-sweep", "--plot", "x.svg"],
             "reproduce gamma-sweep does not take --plot"),
            (["reproduce", "from-manifest", "--path", "bad.json", "--config", "bad.json"],
             "reproduce from-manifest does not take --config"),
            (["reproduce", "from-manifest", "--path", "bad.json", "--seed", "3"],
             "reproduce from-manifest does not take --seed"),
            # a negative seed is refused by every seeded command
            (["fano-suite", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["reproduce", "fano", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["hsic", "--x", "y.csv", "--y", "y.csv", "--permutation-test", "5", "--seed", "-1"],
             "seed must be >= 0, got -1"),
            (["reproduce", "gamma-sweep", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["reproduce", "dominance", "--seed", "-1"], "seed must be >= 0, got -1"),
            # a sweep takes one value or more, and numbers when plotted
            (["simulate", "--strategy", "bon", "--sweep", "N=5:1"], "with one value or more"),
            (["simulate", "--strategy", "bon", "--sweep", "N="], "with one value or more"),
            (["simulate", "--config", "sweep_empty.json"], "with one value or more"),
            (["simulate", "--config", "sweep_bare.json"], "with one value or more, got {}"),
            (["simulate", "--config", "sweep_rule.json", "--plot", "x.svg"],
             "plotted rule must be a number, got 'orm_max'"),
            # every seeded command words a negative seed alike
            (["simulate", "--strategy", "single_path", "--seed", "-1"],
             "error: seed must be >= 0, got -1"),
            (["reproduce", "gamma-sweep", "--seed", "-1"], "error: seed must be >= 0, got -1"),
            (["reproduce", "bon-vs-mcts", "--seed", "-1"], "error: seed must be >= 0, got -1"),
            # gamma-sweep checks its trials and lambda_tau before any probe draws
            (["reproduce", "gamma-sweep", "--trials", "0"], "error: trials must be >= 1, got 0"),
            (["reproduce", "gamma-sweep", "--lambda", "-1"], "error: lambda_tau must be > 0, got -1"),
            # a rollout depth is a count, as for simulate --gamma
            (["reproduce", "gamma-sweep", "--lambda", "0.5", "--config", "gammas_negative.json"],
             "error: gammas must be >= 0, got -1"),
            # a plot with nothing to draw is refused, not silently skipped
            (["simulate", "--strategy", "single_path", "--trials", "10", "--plot", "a.svg"],
             "error: --plot draws a sweep; give --sweep PARAM=VALUES too"),
            (["hsic", "--x", "y.csv", "--y", "y.csv", "--svg", "n.svg"],
             "error: --svg draws the permutation null; give --permutation-test N too"),
            (["hsic", "--x", "y.csv", "--y", "y.csv", "--permutation-test", "0",
              "--svg", "n.svg"], "give --permutation-test N too"),
            # a real-valued input must be a finite number, and a bool is no number
            (["simulate", "--strategy", "bon", "--N", "2", "--score-noise", "nan",
              "--trials", "10"], "error: score_noise_std must be finite, got nan"),
            (["simulate", "--strategy", "single_path", "--selector", "noisy:1,nan",
              "--trials", "10"], "error: noise_std must be finite, got nan"),
            (["simulate", "--strategy", "beam", "--k", "4", "--b", "2", "--selector",
              "noisy:inf,1", "--trials", "10"], "error: margin must be finite, got inf"),
            (["simulate", "--strategy", "single_path", "--lambda", "inf", "--trials", "10"],
             "error: lambda_tau must be finite, got inf"),
            (["bounds", "--strategy", "lookahead", "--lambda", "1", "--lambda-delta", "2",
              "--depth", "nan"], "error: depth must be finite, got nan"),
            (["reproduce", "gamma-sweep", "--lambda-delta", "inf"],
             "error: lambda_delta must be finite, got inf"),
            (["hsic", "--x", "y.csv", "--y", "y.csv", "--sigma", "inf"],
             "error: sigma must be finite, got inf"),
            (["fit", "--points", "nan_pts.csv"], "error: points must be finite"),
            (["fit", "--points", "inf_pts.csv"], "error: points must be finite"),
            (["simulate", "--config", "lambda_bool.json"],
             "error: lambda_tau must be a number, got True"),
            (["hsic", "--x", "inf_len.csv", "--y", "y.csv", "--per-token"],
             "error: lengths must be finite, got inf"),
            (["hsic", "--x", "nan_len.csv", "--y", "y.csv"], "error: lengths must be finite, got nan"),
        ],
    )
    def test_exits_2_with_one_error_line(self, inputs, capsys, argv, message):
        # values past the float range, unreadable files and an inverted
        # support range are bad input, reported on one line like the rest
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
