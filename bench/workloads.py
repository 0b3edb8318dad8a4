"""Workload definitions: the fixed CLI command list of each workload and the
seeded generators of the input files those commands read.

Every input is a pure function of the workload seed, and generation happens
before any timer starts. ``scale`` shrinks trial counts and input sizes for
the benchmark's own tests; measured runs use ``scale=1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NOISY = "noisy:1,0.25"
HSIC_N = 200
HSIC_DIM = 8
HSIC_PERMS = 1000
FANO_INSTANCES = 1000
TRACE_QUESTIONS = 2000
FIT_POINTS = 200


@dataclass
class Command:
    """One CLI invocation of a workload and what a correct run of it shows."""

    name: str
    argv: list[str]
    out: Path
    trials: int = 0  # Monte Carlo trials requested
    verdict: bool = False  # prints a "... -> PASS" summary line on stderr
    svg: Path | None = None
    extra: dict = field(default_factory=dict)  # inputs the checker recomputes from


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _mc_commands(workdir: Path, seed: int, specs) -> list[Command]:
    """Commands from ``(name, argv, trials, verdict, plot)`` specs, each with
    its own Monte Carlo seed; seeds are 100 apart because dominance and
    gamma-sweep add up to 66 to theirs."""
    cmds = []
    for i, (name, argv, trials, verdict, plot) in enumerate(specs):
        out = workdir / f"{name}.csv"
        svg = workdir / f"{name}.svg" if plot else None
        argv = argv + ["--seed", str(seed * 1000 + 100 * i), "--out", str(out)]
        if svg:
            argv += ["--plot", str(svg)]
        cmds.append(Command(name, argv, out, trials, verdict, svg))
    return cmds


def mc_ideal(workdir: Path, seed: int, scale: float = 1.0) -> list[Command]:
    """Narrow engines with an ideal selector: the 66-cell dominance grid at
    1e5 trials each (binomial-chain beam, orm_max, b<=4 envelopes, all with
    blocks of at most 4 MB that fit in L2), the lookahead gamma sweep and a
    1e6-trial beam k8 b4 L5. The bypass case for changes to wide arrays and
    noisy selectors."""
    t5 = str(_scaled(100_000, scale, 100))
    t6 = str(_scaled(1_000_000, scale, 1000))
    return _mc_commands(workdir, seed, [
        ("dominance", ["reproduce", "dominance", "--trials", t5], 66 * int(t5), True, False),
        ("gamma-sweep", ["reproduce", "gamma-sweep", "--trials", t5], 7 * int(t5), True, False),
        ("beam-k8b4", ["simulate", "--strategy", "beam", "--k", "8", "--b", "4", "--L", "5",
                       "--lambda", "2.5", "--trials", t6], int(t6), False, False),
    ])


def mc_noisy(workdir: Path, seed: int, scale: float = 1.0) -> list[Command]:
    """The same simulate layer used wide and noisy: the bon-vs-mcts preset
    with its plot, orm_vote and self-consistency sweeps over 101 labels
    (32768 x 101 blocks, about 26 MB per array, past L2; np.add.at tallies),
    and beam, lookahead and mcts_worst with a noisy-score selector
    (argpartition, scipy-backed selector reliability). 1e5 trials per row."""
    t = _scaled(100_000, scale, 100)
    common = ["--lambda", "2.5", "--trials", str(t)]
    vote = ["simulate", "--strategy", "bon", "--sweep", "N=1:16:5", "--answer-space", "100",
            "--score-noise", "0.5", "--L", "3"] + common
    noisy = ["--selector", NOISY] + common
    return _mc_commands(workdir, seed, [
        ("bon-vs-mcts", ["reproduce", "bon-vs-mcts", "--trials", str(t)], 4 * t, True, True),
        ("orm-vote", vote + ["--rule", "orm_vote"], 4 * t, False, False),
        ("self-consistency", vote + ["--rule", "self_consistency"], 4 * t, False, False),
        ("beam-noisy", ["simulate", "--strategy", "beam", "--k", "8", "--b", "4", "--L", "4"]
         + noisy, t, False, False),
        ("lookahead", ["simulate", "--strategy", "lookahead", "--b", "3", "--gamma", "2",
                       "--L", "4"] + noisy, t, False, False),
        ("mcts-worst-noisy", ["simulate", "--strategy", "mcts_worst", "--b", "2", "--L", "6"]
         + noisy, t, False, False),
    ])


def _write_features(path: Path, vectors: np.ndarray, lengths=None) -> None:
    header = [f"f{j}" for j in range(vectors.shape[1])]
    rows = [[repr(v) for v in row] for row in vectors.tolist()]
    if lengths is not None:
        header.append("length")
        rows = [row + [str(n)] for row, n in zip(rows, lengths.tolist())]
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n", encoding="utf-8")


def hsic_pair(rng: np.random.Generator, n: int, dependent: bool):
    """Feature matrices of one x/y pair plus token lengths for x. A dependent
    pair maps x linearly into y under noise; an independent pair draws y on
    its own."""
    x = rng.normal(0.0, 25.0, size=(n, HSIC_DIM))
    if dependent:
        mix = rng.normal(0.0, 1.0, size=(HSIC_DIM, HSIC_DIM)) / np.sqrt(HSIC_DIM)
        y = x @ mix + rng.normal(0.0, 10.0, size=(n, HSIC_DIM))
    else:
        y = rng.normal(0.0, 25.0, size=(n, HSIC_DIM))
    lengths = rng.integers(20, 400, size=n)
    return x, y, lengths


def trace_records(rng: np.random.Generator, questions: int) -> list[dict]:
    records = []
    for q in range(questions):
        count = int(rng.integers(1, 31))
        events = np.stack(
            [rng.integers(0, 6, size=count), rng.integers(1, 7, size=count)], axis=1
        )
        records.append(
            {
                "question_id": f"q{q}",
                "events": events.tolist(),
                "ideal_path_length": int(rng.integers(1, 9)),
            }
        )
    return records


def fit_points(rng: np.random.Generator, m: int) -> np.ndarray:
    x = rng.uniform(50.0, 600.0, size=m)
    y = 0.05 * np.exp(-0.004 * x) * rng.lognormal(0.0, 0.1, size=m)
    return np.stack([x, y], axis=1)


def exact_analysis(workdir: Path, seed: int, scale: float = 1.0) -> list[Command]:
    """Where info_theory and hsic do their work (they do none in the mc
    workloads): fano-suite with 1000 instances, three HSIC runs at n=200
    with 1000 permutations and an SVG (one dependent pair, two independent),
    trace calibration over 2000 questions, a decay fit of 200 points, and
    the nmin preset."""
    rng = np.random.default_rng([seed, 7])
    n = _scaled(HSIC_N, scale, 20)
    perms = _scaled(HSIC_PERMS, scale, 20)
    instances = _scaled(FANO_INSTANCES, scale, 5)
    cmds = [
        Command(
            "fano-suite",
            ["fano-suite", "--instances", str(instances), "--seed", str(seed),
             "--out", str(workdir / "fano-suite.csv")],
            workdir / "fano-suite.csv",
            verdict=True,
            extra={"instances": instances, "seed": seed},
        )
    ]
    for i, dependent in enumerate((True, False, False)):
        x, y, lengths = hsic_pair(rng, n, dependent)
        # y files carry no length column, so --per-token uses x's lengths
        xp, yp = workdir / f"hsic{i}_x.csv", workdir / f"hsic{i}_y.csv"
        _write_features(xp, x, lengths)
        _write_features(yp, y)
        name = f"hsic-{'dependent' if dependent else 'independent'}-{i}"
        out, svg = workdir / f"{name}.csv", workdir / f"{name}.svg"
        cmds.append(
            Command(
                name,
                ["hsic", "--x", str(xp), "--y", str(yp), "--per-token",
                 "--permutation-test", str(perms), "--seed", str(seed + i),
                 "--svg", str(svg), "--out", str(out)],
                out,
                svg=svg,
                extra={"x": x, "y": y, "lengths": lengths, "perms": perms,
                       "seed": seed + i},
            )
        )
    traces = trace_records(rng, _scaled(TRACE_QUESTIONS, scale, 20))
    tp = workdir / "traces.jsonl"
    tp.write_text("".join(json.dumps(r) + "\n" for r in traces), encoding="utf-8")
    cmds.append(
        Command("calibrate", ["calibrate", "--traces", str(tp), "--out",
                              str(workdir / "calibrate.csv")],
                workdir / "calibrate.csv", extra={"traces": traces})
    )
    pts = fit_points(rng, _scaled(FIT_POINTS, scale, 20))
    pp = workdir / "points.csv"
    pp.write_text("mean_length,value\n" + "".join(
        f"{x!r},{y!r}\n" for x, y in pts.tolist()), encoding="utf-8")
    cmds.append(
        Command("fit", ["fit", "--points", str(pp), "--svg", str(workdir / "fit.svg"),
                        "--out", str(workdir / "fit.csv")],
                workdir / "fit.csv", svg=workdir / "fit.svg", extra={"points": pts})
    )
    cmds.append(
        Command("nmin", ["reproduce", "nmin", "--out", str(workdir / "nmin.csv")],
                workdir / "nmin.csv")
    )
    return cmds


WORKLOADS = {"mc-ideal": mc_ideal, "mc-noisy": mc_noisy, "exact-analysis": exact_analysis}
