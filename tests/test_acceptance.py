"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line with its
measured quantities so a full run doubles as a report. Statistical criteria
pin their master seeds, so outcomes are reproducible bit-for-bit.
"""

import json
import math
import time

import numpy as np

from slowthink import bounds, calibration
from slowthink.cli import dispatch
from slowthink.hsic import fit_decay, hsic, permutation_null
from slowthink.info_theory import fano_suite
from slowthink.models import AnswerModel, DecayModel, SelectorModel, WrongModel
from slowthink.simulate import (
    ORM_MAX,
    ORM_VOTE,
    SELF_CONSISTENCY,
    ProcessConfig,
    StrategySpec,
    matching_bound,
    monte_carlo,
    verify_bounds,
)

E_M3 = 0.049787068367863944

REFERENCE_STATS = {
    "gsm8k": ((4.26, 4.54, 3.11), (19.40, 6.23)),
    "prontoqa": ((1.67, 9.45, 4.00), (15.77, 3.94)),
    "game24": ((4.56, 3.99, 3.00), (18.24, 6.08)),
}


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def halfwidth(report) -> float:
    return (report.ci_high - report.ci_low) / 2


def test_criterion_1_calibration_reproduction(tmp_path):
    t0 = time.perf_counter()
    worst_err = 0.0
    for task, ((b, p, L), (pub_call, pub_res)) in REFERENCE_STATS.items():
        stats = calibration.TraceStats(avg_b=b, avg_p=p, avg_L=L)
        err_call = abs(calibration.n_call(stats) - pub_call) / pub_call
        err_res = abs(calibration.n_res(stats) - pub_res) / pub_res
        worst_err = max(worst_err, err_call, err_res)
    out = tmp_path / "calibrate.csv"
    rc = dispatch(["calibrate", "--stats", "4.26,4.54,3.11", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 0.01 and rc == 0 and elapsed < 1.0
    verdict(
        1,
        "calibration reproduction",
        ok,
        f"max relative error {worst_err:.4%}, {elapsed:.2f}s",
    )


def test_criterion_2_fano_suite():
    t0 = time.perf_counter()
    result = fano_suite(
        instances=1000, support_range=(3, 6), max_len=8, seed=20240811
    )
    elapsed = time.perf_counter() - t0
    ok = (
        result.instances >= 1000
        and result.violations == 0
        and elapsed < 60.0
    )
    verdict(
        2,
        "decoder-error lower bound on random channels",
        ok,
        f"{result.instances} instances, {result.checks} checks, "
        f"{result.violations} violations, {elapsed:.1f}s",
    )


def test_criterion_3_bound_dominance_grid():
    t0 = time.perf_counter()
    trials = 100_000
    failures = []
    count = 0
    seed = 31_000
    for lam in (0.5, 1.0):
        for L in (2, 3, 5):
            cfg = ProcessConfig(
                decay=DecayModel.exponential(lam),
                selector=SelectorModel.ideal(),
                L=L,
            )
            specs = [StrategySpec.single_path()]
            specs += [StrategySpec.beam(k, b) for k, b in ((2, 2), (4, 2), (4, 4))]
            specs += [StrategySpec.bon(n, ORM_MAX) for n in (2, 4, 8, 16)]
            specs += [StrategySpec.mcts_best(b) for b in (2, 4)]
            specs += [StrategySpec.mcts_worst(2)]
            for spec in specs:
                seed += 1
                count += 1
                report = monte_carlo(cfg, spec, trials, seed)
                bound = matching_bound(cfg, spec)
                if not verify_bounds(report, bound):
                    failures.append(
                        f"lam={lam} L={L} {spec.describe()}: "
                        f"ci_low={report.ci_low:.6f} > bound={bound:.6f}"
                    )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    verdict(
        3,
        "Monte Carlo estimates dominated by closed-form bounds",
        ok,
        f"{count} grid configurations, {len(failures)} failures, {elapsed:.1f}s"
        + ("; " + "; ".join(failures[:3]) if failures else ""),
    )


def test_criterion_4_closed_form_spot_check():
    cfg = ProcessConfig(
        decay=DecayModel.exponential(1.0), selector=SelectorModel.ideal(), L=2
    )
    report = monte_carlo(cfg, StrategySpec.single_path(), 100_000, 42)
    ok = report.ci_low <= E_M3 <= report.ci_high
    verdict(
        4,
        "single-path estimate covers the product law",
        ok,
        f"estimate={report.estimate:.6f}, "
        f"ci=({report.ci_low:.6f}, {report.ci_high:.6f}), target={E_M3:.6f}",
    )


def test_criterion_5_minimal_n_scaling():
    worst_rel = 0.0
    exact_best = True
    for b in (2, 3, 4):
        for L in (1, 2, 3, 4, 5):
            best = bounds.n_min(b, L, "best")
            exact_best = exact_best and best == float(b)
            worst = bounds.n_min(b, L, "worst")
            expected = float(b) ** ((L + 1) / 2)
            worst_rel = max(worst_rel, abs(worst - expected) / expected)
    ok = exact_best and worst_rel <= 1e-9
    verdict(
        5,
        "minimal matching N solves the bound equalities",
        ok,
        f"best case exact: {exact_best}, worst-case max rel err {worst_rel:.2e}",
    )


def test_criterion_6_budget_matched_comparison():
    t0 = time.perf_counter()
    trials = 100_000
    ns = (1, 2, 4, 8, 16, 32)
    selector = SelectorModel.noisy_score(margin=1.0, noise_std=0.25)
    cfg = ProcessConfig(
        decay=DecayModel.exponential(1.0),
        selector=selector,
        answer=AnswerModel(100),
        L=3,
        score_noise_std=0.25,
    )
    problems = []

    # reward-guided selection gains from more samples
    for rule in (ORM_VOTE, ORM_MAX):
        reports = [
            monte_carlo(cfg, StrategySpec.bon(n, rule), trials, 600 + i)
            for i, n in enumerate(ns)
        ]
        for a, b in zip(reports, reports[1:]):
            if b.estimate < a.estimate - 3 * (halfwidth(a) + halfwidth(b)):
                problems.append(f"{rule} decreased between N grid points")

    # majority voting over a binary answer space cannot
    cfg_binary = ProcessConfig(
        decay=cfg.decay, selector=selector, answer=AnswerModel(1),
        L=3, score_noise_std=0.25,
    )
    sc = [
        monte_carlo(cfg_binary, StrategySpec.bon(n, SELF_CONSISTENCY), trials, 700 + i)
        for i, n in enumerate(ns)
    ]
    for a, b in zip(sc, sc[1:]):
        if b.estimate > a.estimate + 3 * (halfwidth(a) + halfwidth(b)):
            problems.append("self-consistency increased on a binary answer space")

    # budget-matched Best-of-N lands beside the tree-search envelope
    envelope = monte_carlo(cfg, StrategySpec.mcts_worst(2), trials, 800)
    stats = calibration.complete_tree_stats(2, 3)
    n_range = calibration.reasonable_n_range(stats)
    matched = int(round((n_range.low + n_range.high) / 2))
    assert n_range.low <= matched <= n_range.high
    bon_matched = monte_carlo(cfg, StrategySpec.bon(matched, ORM_MAX), trials, 801)
    gap = abs(bon_matched.estimate - envelope.estimate)
    if gap > 0.02:
        problems.append(f"budget-matched gap {gap:.4f} > 0.02")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 900.0
    verdict(
        6,
        "qualitative strategy comparison at matched budgets",
        ok,
        f"matched N={matched} in [{n_range.low:.2f}, {n_range.high:.2f}], "
        f"gap={gap:.4f}, {elapsed:.1f}s"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_7_lookahead_optimum(tmp_path):
    problems = []
    for lam_delta in (math.e**3 / 2, math.e**4 / 2):
        layers = [l for l in (1, 2, 3) if math.log(2 * lam_delta) > l + 1]
        for l in layers:
            star = bounds.optimal_rollout(WrongModel(lam_delta), l)
            if star != max(math.log(2.0 * lam_delta) - l, 0.0):
                problems.append(f"analytic form mismatch at l={l}")
            # gammas 0..6 draw from seeds 900 + l + gamma; exit 0 means the
            # peak lies within +/-1 of the optimum
            rc = dispatch([
                "reproduce", "gamma-sweep", "--lambda-delta", repr(lam_delta),
                "--layer", str(l), "--trials", "100000", "--seed", str(900 + l),
                "--out", str(tmp_path / "sweep.csv"),
            ])
            if rc != 0:
                problems.append(
                    f"ln(2 lam_delta)={math.log(2 * lam_delta):.1f}, l={l}: "
                    f"gamma-sweep exited {rc} against optimum {star:.2f}"
                )
    # boundary clipping cases stay exact
    if bounds.optimal_rollout(WrongModel(0.5), 1) != 0.0:
        problems.append("clipped case not exactly zero")
    ok = not problems
    verdict(
        7,
        "simulated rollout-depth curve peaks at the analytic optimum",
        ok,
        "; ".join(problems) if problems else "peaks within +/-1 on all cases",
    )


def test_criterion_8_hsic_pipeline():
    t0 = time.perf_counter()
    problems = []

    constant = np.ones((50, 3))
    other = np.random.default_rng(0).normal(size=(50, 3))
    if hsic(constant, other) != 0.0:
        problems.append("constant input did not give exactly zero")

    wins = 0
    for rep in range(50):
        rng = np.random.default_rng(1000 + rep)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=(200, 3))
        stat = hsic(x, y)
        _, null = permutation_null(x, y, count=1000, seed=2000 + rep)
        wins += stat < np.quantile(null, 0.95)
    if wins < 45:
        problems.append(f"independent pairs beat the null only {wins}/50 times")

    rng = np.random.default_rng(29)
    x = np.linspace(0.2, 12.0, 50)
    y = 1.7 * np.exp(-0.4 * x) * (1.0 + 0.05 * rng.standard_normal(50))
    exp_fit, lin_fit = fit_decay(np.column_stack([x, y]))
    if abs(exp_fit.params[1] - 0.4) / 0.4 > 0.10:
        problems.append(f"fitted rate {exp_fit.params[1]:.4f} off by more than 10%")
    if not exp_fit.r2 > lin_fit.r2:
        problems.append("exponential fit did not beat the linear baseline")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    verdict(
        8,
        "kernel dependence pipeline",
        ok,
        f"null wins {wins}/50, rate {exp_fit.params[1]:.4f}, "
        f"r2 {exp_fit.r2:.4f} vs {lin_fit.r2:.4f}, {elapsed:.1f}s"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_9_manifest_determinism(tmp_path):
    commands = {
        "simulate": [
            "simulate", "--strategy", "beam", "--k", "4", "--b", "2",
            "--lambda", "1", "--L", "3", "--trials", "50000", "--seed", "5",
        ],
        "fano": ["fano-suite", "--instances", "200", "--seed", "17"],
        "calibrate": ["calibrate", "--stats", "4.26,4.54,3.11"],
        "nmin": ["reproduce", "nmin"],
        "gamma": [
            "reproduce", "gamma-sweep", "--lambda-delta", str(math.e**3 / 2),
            "--layer", "1", "--trials", "20000", "--seed", "3",
        ],
    }
    mismatches = []
    for name, argv in commands.items():
        first = tmp_path / f"{name}.csv"
        rc1 = dispatch(argv + ["--out", str(first)])
        manifest = tmp_path / f"{name}.csv.manifest.json"
        replay = tmp_path / f"{name}.replay.csv"
        rc2 = dispatch(
            ["reproduce", "from-manifest", "--path", str(manifest), "--out", str(replay)]
        )
        if rc1 != rc2:
            mismatches.append(f"{name}: exit {rc1} vs {rc2}")
        elif first.read_bytes() != replay.read_bytes():
            mismatches.append(f"{name}: replay differs")
        meta = json.loads(manifest.read_text())
        if meta.get("command") is None or "config" not in meta:
            mismatches.append(f"{name}: manifest incomplete")
    ok = not mismatches
    verdict(
        9,
        "manifest reruns are byte-identical",
        ok,
        "; ".join(mismatches) if mismatches else f"{len(commands)} commands replayed",
    )
