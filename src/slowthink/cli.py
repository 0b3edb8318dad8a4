"""Command-line front door.

Subcommands: bounds, simulate, fano-suite, calibrate, hsic, fit, reproduce.
Every run resolves one configuration dict (JSON config file values overridden
by explicit flags), emits CSV plus a JSON manifest recording the resolved
configuration, and exits 0 when all requested checks pass, 1 when one fails
and 2 on invalid input.

Each flag's ``dest`` is the config key it sets, and a dotted dest such as
``strategy.N`` sets a key inside that config section. Flags left unset are
absent from the parsed arguments (``argparse.SUPPRESS``), so ``_merge``
overlays exactly the flags given.
"""

from __future__ import annotations

import argparse
import csv as _csv
import itertools
import json
import math
import sys
import time

import numpy as np

from . import __version__, bounds, calibration, hsic, info_theory, reporting, simulate
from .errors import (
    PreconditionError,
    SlowthinkError,
    ValidationError,
    at_least,
    checked_number,
    checked_section,
    reject_stray_keys,
    text_lines,
)
from .models import _SELECTORS, DecayModel, SelectorModel, WrongModel

# Reference tree-search statistics (avg_b, avg_p, avg_L) and previously
# published budget-matched N values for the calibration preset.
CALIBRATION_REFERENCE = (
    ("gsm8k", 4.26, 4.54, 3.11, 19.40, 6.23),
    ("prontoqa", 1.67, 9.45, 4.00, 15.77, 3.94),
    ("game24", 4.56, 3.99, 3.00, 18.24, 6.08),
)

# Parsed arguments that choose what to run or where output goes; every
# other argument sets a config key.
_NOT_CONFIG = ("command", "preset", "path", "config", "out", "manifest")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        cfg = json.loads("".join(text_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: must hold a JSON object")
    return cfg


def _merge(config: dict, args: argparse.Namespace) -> dict:
    """Overlay the given flags on the config. Plain keys go first, so
    ``--strategy`` replaces the config's whole strategy section before the
    dotted ``strategy.*`` flags fill it in."""
    resolved = dict(config)
    flags = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    for key in sorted(flags, key=lambda k: "." in k):
        section, _, name = key.rpartition(".")
        if section:
            base = checked_section(resolved.get(section, {}), section)
            resolved[section] = {**base, name: flags[key]}
        else:
            resolved[key] = flags[key]
    return resolved


def _number(resolved: dict, key: str, default, kind=int):
    """A scalar config value as ``kind``; ValidationError when not a number."""
    return checked_number(resolved.get(key, default), key, kind)


def _path(resolved: dict, key: str) -> str | None:
    """A config file path, or None when it is absent or empty; ValidationError
    when it is not a string."""
    value = resolved.get(key)
    if value is not None and not isinstance(value, str):
        raise ValidationError(f"{key} must be a file path, got {value!r}")
    return value or None


def _int_list(resolved: dict, key: str, default: list) -> list[int]:
    """A config list of integers; ValidationError when not a non-empty list."""
    values = resolved.get(key, default)
    if not (isinstance(values, list) and values):
        raise ValidationError(f"{key} must be a non-empty list of integers, got {values!r}")
    return [checked_number(v, key, int) for v in values]


# argparse type= converters: each turns one flag's text into its config value.


def _selector(text: str) -> dict:
    # KIND[:V1,V2,...], one value per field of the kind's row in the selector table
    name, _, params = text.partition(":")
    kind = "noisy_score" if name == "noisy" else name
    fields = _SELECTORS.params.get(kind)
    values = params.split(",") if params else []
    try:
        if fields is not None and len(values) == len(fields):
            return {"kind": kind, **{f: float(v) for f, v in zip(fields, values)}}
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"selector must be ideal, constant:EPS or noisy:MARGIN,STD; got {text!r}"
    )


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _exponential_decay(text: str) -> dict:
    return {"kind": "exponential", "lambda_tau": float(text)}


def _tabulated_decay(text: str) -> dict:
    return {"kind": "tabulated", "table": _floats(text)}


def _sweep(text: str) -> dict:
    param, _, values = text.partition("=")
    try:
        if ":" in values:
            lo, hi, *step = (int(v) for v in values.split(":"))
            ints = list(range(lo, hi + 1, *step[:1]))
        else:
            ints = [int(v) for v in values.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sweep must be PARAM=V1,V2,... or PARAM=LO:HI[:STEP] over integers; got {text!r}"
        )
    return {"param": param.strip(), "values": ints}


class _RunOutput:
    def __init__(self, header, rows, ok=True, summary=""):
        self.header = header
        self.rows = rows
        self.ok = ok
        self.summary = summary


# ---------------------------------------------------------------------------
# Subcommand bodies: resolved config dict -> _RunOutput
# ---------------------------------------------------------------------------


def _lookahead_bound(decay, selector, L, k, b, N, resolved) -> float:
    if "lambda_delta" not in resolved:
        raise ValidationError("the lookahead bound requires --lambda-delta")
    if decay.kind != "exponential":
        raise PreconditionError("the lookahead bound requires an exponential decay model")
    wrong = WrongModel(_number(resolved, "lambda_delta", None, float))
    return bounds.lookahead_distinguishability_bound(
        decay.lambda_tau, wrong, _number(resolved, "depth", L, float)
    )


# bounds --strategy NAME -> bound(decay, selector, L, k, b, N, resolved)
_BOUNDS = {
    "single": lambda d, s, L, k, b, N, r: bounds.single_path_bound(d, L),
    "beam-exact": lambda d, s, L, k, b, N, r: bounds.width_expansion_bound_exact(
        d, s, L, k, b
    ),
    "beam-simplified": lambda d, s, L, k, b, N, r: bounds.width_expansion_bound_simplified(
        d, s, L, k, b
    ),
    "bon": lambda d, s, L, k, b, N, r: bounds.bon_bound(d, s, L, N),
    "mcts-best": lambda d, s, L, k, b, N, r: bounds.mcts_best_bound(d, s, L, b),
    "mcts-worst": lambda d, s, L, k, b, N, r: bounds.mcts_worst_bound(d, s, L, b),
    "lookahead": _lookahead_bound,
}


def _cmd_bounds(resolved: dict) -> _RunOutput:
    decay = DecayModel.from_config(resolved.get("decay", {"lambda_tau": 1.0}))
    selector = SelectorModel.from_config(resolved.get("selector", {"kind": "ideal"}))
    L = _number(resolved, "L", 1)
    k = _number(resolved, "k", 1)
    b = _number(resolved, "b", 1)
    N = _number(resolved, "N", 1)
    wanted = resolved.get("strategy", "single")
    if wanted not in (*_BOUNDS, "all"):
        raise ValidationError(
            f"strategy must be one of {tuple(_BOUNDS)} or 'all', got {wanted!r}"
        )
    names = [n for n in _BOUNDS if n != "lookahead"] if wanted == "all" else [wanted]
    lam = decay.lambda_tau if decay.kind == "exponential" else float("nan")
    rows = []
    for name in names:
        try:
            value = _BOUNDS[name](decay, selector, L, k, b, N, resolved)
            cells = (value, bounds.is_vacuous(value))
        except PreconditionError:
            # under "all", a bound undefined for this decay model leaves its
            # cells empty, as simulate does; asked for by name, it is an error
            if wanted != "all":
                raise
            cells = ("", "")
        rows.append((name, lam, L, k, b, N, selector.kind, *cells))
    header = ("strategy", "lambda_tau", "L", "k", "b", "N", "epsilon_kind", "bound", "vacuous")
    return _RunOutput(header, rows)


def _strategy_rows(runs: list) -> list[dict]:
    """Every strategy-table column, keyed by header name, of each (cfg, spec,
    trials, seed) run of one Monte Carlo batch; bound, vacuous and verify are
    empty when the strategy has no bound."""
    rows = []
    for (cfg, spec, trials, seed), report in zip(runs, simulate.monte_carlo_batch(runs)):
        bound = simulate.matching_bound(cfg, spec)
        rows.append({
            "strategy": spec.kind,
            "rule": spec.rule or "",
            "N": spec.N or "",
            "k": spec.k or "",
            "b": spec.b or "",
            "gamma": "" if spec.gamma is None else spec.gamma,
            "trials": trials,
            "seed": seed,
            "estimate": report.estimate,
            "ci_low": report.ci_low,
            "ci_high": report.ci_high,
            "mean_steps": report.mean_steps,
            "mean_calls": report.mean_calls,
            "bound": "" if bound is None else bound,
            "vacuous": "" if bound is None else bounds.is_vacuous(bound),
            "verify": "" if bound is None
            else "pass" if simulate.verify_bounds(report, bound) else "fail",
        })
    return rows


def _cmd_simulate(resolved: dict) -> _RunOutput:
    if "strategy" not in resolved:
        raise ValidationError("simulate requires --strategy or a config strategy")
    cfg = simulate.ProcessConfig.from_config(resolved)
    strategy_cfg = checked_section(resolved["strategy"], "strategy")
    trials = _number(resolved, "trials", 10_000)
    seed = _number(resolved, "seed", 0)
    plot_path = _path(resolved, "plot")
    sweep = resolved.get("sweep")
    if plot_path and sweep is None:
        raise ValidationError("--plot draws a sweep; give --sweep PARAM=VALUES too")
    if sweep is not None:
        reject_stray_keys(checked_section(sweep, "sweep"), "sweep", ("param", "values"))
        param, values = sweep.get("param"), sweep.get("values")
        if not (isinstance(param, str) and isinstance(values, list) and values):
            raise ValidationError(f'sweep must be {{"param": NAME, "values": [V1, ...]}} with one'
                                  f' value or more, got {sweep!r}')
        if plot_path:  # the plot's x axis reads the values as numbers
            xs = [checked_number(v, f"plotted {param}") for v in values]
        specs = [
            simulate.StrategySpec.from_config({**strategy_cfg, param: value})
            for value in values
        ]
    else:
        specs = [simulate.StrategySpec.from_config(strategy_cfg)]
    rows = _strategy_rows([(cfg, spec, trials, seed) for spec in specs])
    header = tuple(rows[0])
    if plot_path:
        series = [(xs, [r["estimate"] for r in rows])]
        labels = ["estimate"]
        if all(r["bound"] != "" for r in rows):
            series.append((xs, [min(1.0, r["bound"]) for r in rows]))
            labels.append("bound (clipped at 1)")
        reporting.emit_plot(
            series, labels, plot_path,
            title=f"{strategy_cfg['kind']} sweep over {sweep['param']}",
            xlabel=sweep["param"], ylabel="success probability",
        )
    ok = all(r["verify"] != "fail" for r in rows)
    return _RunOutput(header, [tuple(r[h] for h in header) for r in rows], ok)


def _cmd_fano_suite(resolved: dict) -> _RunOutput:
    instances = _number(resolved, "instances", 1000)
    support = (_number(resolved, "support_min", 3), _number(resolved, "support_max", 6))
    max_len = _number(resolved, "max_L", 8)
    seed = _number(resolved, "seed", 0)
    assumption = resolved.get("assumption", "both")
    if assumption not in ("both", "mi-only"):
        raise ValidationError(f"assumption must be 'both' or 'mi-only', got {assumption!r}")
    result = info_theory.fano_suite(
        instances=instances,
        support_range=support,
        max_len=max_len,
        seed=seed,
        require_entropy_condition=assumption == "both",
    )
    header = (
        "sequence", "l", "map_error", "lower_bound", "h_b",
        "mi_nonincreasing", "entropy_condition", "defined", "holds",
    )
    rows = [
        (
            idx, rep.l, rep.lhs, rep.rhs, rep.h_b,
            rep.assumption_holds, rep.entropy_condition, rep.defined, rep.holds,
        )
        for idx, rep in result.reports
    ]
    summary = (
        f"fano-suite: instances={result.instances} checks={result.checks} "
        f"violations={result.violations} -> "
        f"{'PASS' if result.passed else 'FAIL'}"
    )
    return _RunOutput(header, rows, ok=result.passed, summary=summary)


def _cmd_calibrate(resolved: dict) -> _RunOutput:
    if resolved.get("stats") is not None:
        given = resolved["stats"]
        if not isinstance(given, list) or len(given) != 3:
            raise ValidationError(f"stats must be [avg_b, avg_p, avg_L], got {given!r}")
        b, p, L = (checked_number(v, "stats") for v in given)
        stats = calibration.TraceStats(avg_b=b, avg_p=p, avg_L=L)
    elif _path(resolved, "traces"):
        stats = calibration.ingest_traces(resolved["traces"])
    else:
        raise ValidationError("calibrate requires --stats b,p,L or --traces FILE")
    rng = calibration.reasonable_n_range(stats)
    n_lo, n_hi = calibration.integer_candidates(rng)
    header = (
        "avg_b", "avg_p", "avg_L", "n_call", "n_res",
        "n_int_low", "n_int_high", "inverted",
    )
    rows = [
        (
            stats.avg_b, stats.avg_p, stats.avg_L,
            rng.high, rng.low, n_lo, n_hi, rng.inverted,
        )
    ]
    summary = (
        f"calibrate: N_call={rng.high:.9g} N_res={rng.low:.9g} "
        f"reasonable integer N in [{n_lo}, {n_hi}]"
        + (" (range inverted: avg_L < 1)" if rng.inverted else "")
    )
    return _RunOutput(header, rows, summary=summary)


def _csv_rows(path, what: str):
    """The header of CSV file ``path`` and its nonempty rows after it, each
    with its line number; a ValidationError when the file has no header."""
    reader = _csv.reader(text_lines(path))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: empty {what} file (header row required)")
    return header, ((lineno, row) for lineno, row in enumerate(reader, start=2) if row)


def _row_numbers(path, lineno: int, row: list, columns) -> list[float]:
    """The cells of ``row`` at ``columns`` as numbers; a ValidationError naming
    the line when one is not a number."""
    try:
        return [float(row[i]) for i in columns]
    except ValueError as exc:
        raise ValidationError(f"{path}:{lineno}: {exc}")


def _read_feature_csv(path) -> hsic.SampleSet:
    header, rows = _csv_rows(path, "feature")
    cols = [c.strip().lower() for c in header]
    # a group column is read past: it is neither a feature nor stored
    group_idx = cols.index("group") if "group" in cols else None
    length_idx = cols.index("length") if "length" in cols else None
    special = {group_idx, length_idx} - {None}
    feature_idx = [i for i in range(len(cols)) if i not in special]
    numbers = feature_idx if length_idx is None else [length_idx, *feature_idx]
    lengths, vectors = [], []
    for lineno, row in rows:
        if len(row) != len(cols):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(cols)} columns, got {len(row)}"
            )
        values = _row_numbers(path, lineno, row, numbers)
        if length_idx is not None:
            lengths.append(values.pop(0))
        vectors.append(values)
    return hsic.SampleSet(
        vectors=np.asarray(vectors, dtype=np.float64),
        lengths=tuple(lengths) if length_idx is not None else None,
    )


def _cmd_hsic(resolved: dict) -> _RunOutput:
    for key in ("x", "y"):
        if not _path(resolved, key):
            raise ValidationError(f"hsic requires --{key} FILE")
    # 0 means no test
    perm_count = at_least(checked_number(
        resolved.get("permutation_test") or 0, "permutation_test", int
    ), 0, "permutation_test")
    seed = _number(resolved, "seed", 0)
    svg_path = _path(resolved, "svg")
    if svg_path and not perm_count:
        raise ValidationError("--svg draws the permutation null; give --permutation-test N too")
    x = _read_feature_csv(resolved["x"])
    y = _read_feature_csv(resolved["y"])
    cfg = hsic.HsicConfig(sigma=_number(resolved, "sigma", hsic.DEFAULT_SIGMA, float))
    value, null = (hsic.permutation_null(x, y, cfg, count=perm_count, seed=seed)
                   if perm_count else (hsic.hsic(x, y, cfg), None))
    mean_length = resolved.get("mean_length")
    if mean_length is not None:
        mean_length = checked_number(mean_length, "mean_length")
    if mean_length is None and resolved.get("per_token"):
        mean_length = x.mean_length() or y.mean_length()
        if mean_length is None:
            raise ValidationError(
                "--per-token needs a 'length' column in a feature file "
                "or an explicit --mean-length"
            )
    per_token = (
        hsic.per_token_hsic(value, mean_length)
        if mean_length is not None
        else ""
    )
    p95 = pvalue = ""
    if perm_count:
        p95 = float(np.quantile(null, 0.95))
        pvalue = float((null >= value).mean())
        if svg_path:
            ordered = np.sort(null)
            quantiles = [(i + 0.5) / perm_count for i in range(perm_count)]
            reporting.emit_plot(
                [(list(ordered), quantiles)],
                ["shuffled-pairing null"],
                svg_path,
                title="dependence statistic vs permutation null",
                xlabel="statistic",
                ylabel="null quantile",
                vlines=[(value, "observed"), (p95, "null p95")],
                markers=False,
            )
    header = (
        "n", "sigma", "hsic", "mean_length", "per_token_hsic",
        "perm_count", "perm_p95", "perm_pvalue",
    )
    rows = [
        (
            x.n, cfg.sigma, value,
            "" if mean_length is None else mean_length, per_token,
            perm_count or "", p95, pvalue,
        )
    ]
    return _RunOutput(header, rows)


def _read_points_csv(
    path, x_col: str | None = None, y_col: str | None = None
) -> list[tuple[float, float]]:
    header, rows = _csv_rows(path, "points")
    # default: first two columns; named columns let any emitted CSV be
    # re-ingested as (x, y) points
    xi, yi = 0, 1
    if x_col is not None or y_col is not None:
        try:
            xi = header.index(x_col) if x_col is not None else 0
            yi = header.index(y_col) if y_col is not None else 1
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}; header is {header}")
    pts = []
    for lineno, row in rows:
        if len(row) <= max(xi, yi):
            raise ValidationError(f"{path}:{lineno}: missing x/y columns")
        pts.append(tuple(_row_numbers(path, lineno, row, (xi, yi))))
    return pts


def _cmd_fit(resolved: dict) -> _RunOutput:
    if not _path(resolved, "points"):
        raise ValidationError("fit requires --points FILE")
    points = _read_points_csv(
        resolved["points"], resolved.get("x_col"), resolved.get("y_col")
    )
    exp_fit, lin_fit = hsic.fit_decay(points)
    header = ("model", "param_1", "param_2", "r2")
    rows = [
        ("exponential_decay", exp_fit.params[0], exp_fit.params[1], exp_fit.r2),
        ("linear", lin_fit.params[0], lin_fit.params[1], lin_fit.r2),
    ]
    svg_path = _path(resolved, "svg")
    if svg_path:
        xs = sorted(p[0] for p in points)
        grid = [xs[0] + (xs[-1] - xs[0]) * i / 99 for i in range(100)]
        reporting.emit_plot(
            [
                ([p[0] for p in points], [p[1] for p in points]),
                (grid, list(exp_fit.predict(grid))),
                (grid, list(lin_fit.predict(grid))),
            ],
            ["data", "exponential fit", "linear fit"],
            svg_path,
            title="decay fit",
            xlabel="mean length",
            ylabel="value",
        )
    summary = (
        f"fit: exponential r2={exp_fit.r2:.6g}, linear r2={lin_fit.r2:.6g}, "
        f"{'exponential' if exp_fit.r2 > lin_fit.r2 else 'linear'} fits better"
    )
    return _RunOutput(header, rows, summary=summary)


# ---------------------------------------------------------------------------
# reproduce presets
# ---------------------------------------------------------------------------


def _preset_table1(resolved: dict) -> _RunOutput:
    b = _number(resolved, "b", 4)
    L = _number(resolved, "L", 2)
    best, worst = bounds.cost_table(b, L)
    header = ("case", "b", "L", "bon_cost", "mcts_cost")
    rows = [
        ("best", b, L, best.bon_cost, best.mcts_cost),
        ("worst", b, L, worst.bon_cost, worst.mcts_cost),
    ]
    return _RunOutput(header, rows)


def _preset_calibration(resolved: dict) -> _RunOutput:
    header = (
        "task", "avg_b", "avg_p", "avg_L", "n_call", "n_res",
        "published_n_call", "published_n_res", "rel_err_call", "rel_err_res",
    )
    rows = []
    ok = True
    for task, b, p, L, pub_call, pub_res in CALIBRATION_REFERENCE:
        stats = calibration.TraceStats(avg_b=b, avg_p=p, avg_L=L)
        call = calibration.n_call(stats)
        res = calibration.n_res(stats)
        err_call = abs(call - pub_call) / pub_call
        err_res = abs(res - pub_res) / pub_res
        ok = ok and err_call <= 0.01 and err_res <= 0.01
        rows.append((task, b, p, L, call, res, pub_call, pub_res, err_call, err_res))
    summary = (
        "calibration reference reproduced within 1%"
        if ok
        else "calibration reference NOT within 1%"
    )
    return _RunOutput(header, rows, ok=ok, summary=summary)


def _preset_nmin(resolved: dict) -> _RunOutput:
    b_values = _int_list(resolved, "b_values", [2, 3, 4])
    L_values = _int_list(resolved, "L_values", [1, 2, 3, 4, 5])
    header = ("b", "L", "case", "n_min", "equality_solution", "rel_err")
    rows = []
    ok = True
    for b in b_values:
        for L in L_values:
            for case in ("best", "worst"):
                value = bounds.n_min(b, L, case)
                expected = float(b) if case == "best" else float(b) ** ((L + 1) / 2)
                err = abs(value - expected) / expected
                ok = ok and err <= 1e-9
                rows.append((b, L, case, value, expected, err))
    return _RunOutput(header, rows, ok=ok)


def _preset_gamma_sweep(resolved: dict) -> _RunOutput:
    lambda_tau = _number(resolved, "lambda_tau", 1.0, float)
    wrong = WrongModel(_number(resolved, "lambda_delta", math.e**3 / 2, float))
    layer = _number(resolved, "layer", 1)
    gammas = _int_list(resolved, "gammas", list(range(7)))
    at_least(min(gammas), 0, "gammas")
    trials = _number(resolved, "trials", 100_000)
    seed = _number(resolved, "seed", 0)
    gamma_star = bounds.optimal_rollout(wrong, layer)
    runs, lows = [], []
    for i, g in enumerate(gammas):
        d = layer + g
        lows.append(bounds.lookahead_distinguishability_bound(lambda_tau, wrong, d))
        # a depth-d evaluation selects well when it is good and then flags the
        # wrong candidate; the events are independent, so one step at their product
        q = min(lambda_tau * math.exp(-d), 1.0) * max(1.0 - wrong.lambda_delta * math.exp(-d), 0.0)
        runs.append((simulate.ProcessConfig(DecayModel.tabulated([q])),
                     simulate.StrategySpec.single_path(), trials, seed + i))
    header = ("gamma", "estimate", "ci_low", "ci_high", "lower_bound", "gamma_star")
    rows = [(g, rep.estimate, rep.ci_low, rep.ci_high, lb, gamma_star)
            for g, lb, rep in zip(gammas, lows, simulate.monte_carlo_batch(runs))]
    best_gamma = max(rows, key=lambda row: row[1])[0]
    ok = abs(best_gamma - gamma_star) <= 1.0
    summary = (
        f"gamma-sweep: empirical peak at gamma={best_gamma}, "
        f"analytic optimum {gamma_star:.6g} -> {'PASS' if ok else 'FAIL'}"
    )
    return _RunOutput(header, rows, ok=ok, summary=summary)


def _preset_dominance(resolved: dict) -> _RunOutput:
    trials = _number(resolved, "trials", 100_000)
    # the runs draw from seed + 1 on, which the runner accepts from -1
    seed = at_least(_number(resolved, "seed", 31_000), 0, "seed")
    header = (
        "lambda_tau", "L", "strategy", "estimate", "ci_low", "ci_high",
        "bound", "vacuous", "verify",
    )
    specs = [
        simulate.StrategySpec.single_path(),
        *(simulate.StrategySpec.beam(k, b) for k, b in ((2, 2), (4, 2), (4, 4))),
        *(simulate.StrategySpec.bon(n, simulate.ORM_MAX) for n in (2, 4, 8, 16)),
        *(simulate.StrategySpec.mcts_best(b) for b in (2, 4)),
        simulate.StrategySpec.mcts_worst(2),
    ]
    configs = [simulate.ProcessConfig(DecayModel.exponential(lam), SelectorModel.ideal(), L=L)
               for lam in (0.5, 1.0) for L in (2, 3, 5)]
    runs = [(cfg, spec, trials, seed + i)
            for i, (cfg, spec) in enumerate(itertools.product(configs, specs), start=1)]
    rows = [{**row, "lambda_tau": cfg.decay.lambda_tau, "L": cfg.L, "strategy": spec.describe()}
            for (cfg, spec, _, _), row in zip(runs, _strategy_rows(runs))]
    ok = all(r["verify"] != "fail" for r in rows)
    summary = (
        f"dominance: {len(rows)} configurations -> {'PASS' if ok else 'FAIL'}"
    )
    return _RunOutput(header, [tuple(r[h] for h in header) for r in rows], ok, summary)


def _preset_bon_vs_mcts(resolved: dict) -> _RunOutput:
    b = _number(resolved, "b", 2)
    L = _number(resolved, "L", 3)
    trials = _number(resolved, "trials", 100_000)
    seed = _number(resolved, "seed", 0)
    margin = _number(resolved, "margin", 1.0, float)
    noise = _number(resolved, "noise_std", 0.25, float)
    plot_path = _path(resolved, "plot")
    cfg = simulate.ProcessConfig(
        decay=DecayModel.exponential(_number(resolved, "lambda_tau", 1.0, float)),
        selector=SelectorModel.noisy_score(margin, noise),
        answer=simulate.AnswerModel(_number(resolved, "answer_space_size", 100)),
        L=L,
        score_noise_std=noise,
    )
    stats = calibration.complete_tree_stats(b, L)
    rng = calibration.reasonable_n_range(stats)
    n_lo, n_hi = calibration.integer_candidates(rng)
    matched = int(round((rng.low + rng.high) / 2))
    header = (
        "strategy", "N", "estimate", "ci_low", "ci_high",
        "mean_calls", "n_res", "n_call", "gap_vs_envelope",
    )
    envelope, *bon = _strategy_rows(
        [(cfg, simulate.StrategySpec.mcts_worst(b), trials, seed)]
        + [(cfg, simulate.StrategySpec.bon(n, simulate.ORM_MAX), trials, seed + n)
           for n in sorted({n_lo, matched, n_hi})]
    )
    rows = [
        {**row, "n_res": rng.low, "n_call": rng.high,
         "gap_vs_envelope": abs(row["estimate"] - envelope["estimate"])}
        for row in [envelope, *bon]
    ]
    ok = all(r["gap_vs_envelope"] <= 0.02 for r in rows if r["N"] == matched)
    if plot_path:
        xs = [float(r["N"]) for r in bon]
        reporting.emit_plot(
            [(xs, [r["estimate"] for r in bon]), ([xs[0], xs[-1]], [envelope["estimate"]] * 2)],
            ["best-of-n", "tree-search envelope"],
            plot_path,
            title=f"budget-matched comparison (b={b}, L={L})",
            xlabel="N",
            ylabel="success probability",
            vlines=[(rng.low, "N_res"), (rng.high, "N_call")],
        )
    summary = (
        f"bon-vs-mcts: matched N={matched}, gap at matched N <= 0.02 -> "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return _RunOutput(header, [tuple(r[h] for h in header) for r in rows], ok, summary)


_COMMANDS = {
    "bounds": _cmd_bounds,
    "simulate": _cmd_simulate,
    "fano-suite": _cmd_fano_suite,
    "calibrate": _cmd_calibrate,
    "hsic": _cmd_hsic,
    "fit": _cmd_fit,
}

# preset -> (runner, the flag keys it reads)
_PRESETS = {
    "table1": (_preset_table1, ("b", "L")),
    "calibration": (_preset_calibration, ()),
    "nmin": (_preset_nmin, ()),
    "gamma-sweep": (_preset_gamma_sweep, ("lambda_tau", "lambda_delta", "layer", "trials", "seed")),
    "bon-vs-mcts": (_preset_bon_vs_mcts, ("b", "L", "lambda_tau", "trials", "seed", "plot")),
    "dominance": (_preset_dominance, ("trials", "seed")),
    "fano": (_cmd_fano_suite, ("instances", "seed")),
}
# Keys some preset reads from a config but no flag sets.
_CONFIG_ONLY = ("b_values", "L_values", "gammas", "margin", "noise_std", "answer_space_size")


_RUNNERS = {**_COMMANDS, **{f"reproduce:{name}": run for name, (run, _) in _PRESETS.items()}}


def _emit(command: str, resolved: dict, output: _RunOutput, args, t0: float) -> int:
    elapsed = time.perf_counter() - t0
    text = reporting.format_csv(output.header, output.rows)
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    manifest_path = getattr(args, "manifest", None)
    if manifest_path is None and out_path:
        manifest_path = str(out_path) + ".manifest.json"
    if manifest_path:
        reporting.write_manifest(
            manifest_path,
            reporting.manifest_dict(
                command, resolved, resolved.get("seed"), __version__, elapsed
            ),
        )
    if output.summary:
        print(output.summary, file=sys.stderr)
    return 0 if output.ok else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--manifest", help="manifest path (default: OUT.manifest.json)")


def _add_process(p: argparse.ArgumentParser) -> None:
    decay = p.add_mutually_exclusive_group()
    decay.add_argument(
        "--lambda", dest="decay", type=_exponential_decay, metavar="LAMBDA_TAU",
        help="exponential decay rate",
    )
    decay.add_argument(
        "--table", dest="decay", type=_tabulated_decay, metavar="P1,P2,...",
        help="tabulated decay, comma separated",
    )
    p.add_argument("--selector", type=_selector, help="ideal | constant:EPS | noisy:MARGIN,STD")
    p.add_argument("--L", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowthink",
        description=(
            "Correctness bounds, exact information-theoretic checks, and "
            "Monte Carlo simulation for test-time search strategies."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    p = add_command("bounds", "evaluate closed-form strategy bounds")
    _add_common(p)
    _add_process(p)
    p.add_argument("--strategy", choices=(*_BOUNDS, "all"))
    p.add_argument("--k", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--lambda-delta", dest="lambda_delta", type=float)
    p.add_argument("--depth", type=float, help="evaluation depth for the lookahead bound")

    p = add_command("simulate", "Monte Carlo simulation of a strategy")
    _add_common(p)
    _add_process(p)
    p.add_argument(
        "--strategy", type=lambda kind: {"kind": kind}, metavar="KIND",
        help=f"{'|'.join(simulate._REGISTRY)}; replaces the config's strategy section",
    )
    p.add_argument("--rule", dest="strategy.rule", help="bon rule: self_consistency|orm_vote|orm_max")
    p.add_argument("--N", dest="strategy.N", type=int)
    p.add_argument("--k", dest="strategy.k", type=int)
    p.add_argument("--b", dest="strategy.b", type=int)
    p.add_argument("--gamma", dest="strategy.gamma", type=int)
    p.add_argument("--answer-space", dest="answer.answer_space_size", type=int)
    p.add_argument("--score-noise", dest="score_noise_std", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sweep", type=_sweep, help="PARAM=V1,V2,... over a strategy parameter")
    p.add_argument("--plot", help="write an SVG of the sweep here")

    p = add_command("fano-suite", "randomized decoder-error lower-bound suite")
    _add_common(p)
    p.add_argument("--instances", type=int)
    p.add_argument("--support-min", dest="support_min", type=int)
    p.add_argument("--support-max", dest="support_max", type=int)
    p.add_argument("--max-L", dest="max_L", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--assumption",
        choices=("both", "mi-only"),
        help="conditions a layer must satisfy to be checked (default: both)",
    )

    p = add_command("calibrate", "budget-matching N from stats or traces")
    _add_common(p)
    p.add_argument("--stats", type=_floats, help="avg_b,avg_p,avg_L")
    p.add_argument("--traces", help="JSON Lines trace file")

    p = add_command("hsic", "kernel dependence between two feature files")
    _add_common(p)
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--sigma", type=float)
    p.add_argument("--per-token", dest="per_token", action="store_true")
    p.add_argument("--mean-length", dest="mean_length", type=float)
    p.add_argument("--permutation-test", dest="permutation_test", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--svg", help="write the permutation-null curve here")

    p = add_command("fit", "exponential-decay and linear fits of (x, y) points")
    _add_common(p)
    p.add_argument("--points", help="CSV with header; first two columns by default")
    p.add_argument("--x-col", dest="x_col", help="name of the x column")
    p.add_argument("--y-col", dest="y_col", help="name of the y column")
    p.add_argument("--svg", help="write a scatter-with-fits SVG here")

    p = add_command("reproduce", "named preset analyses")
    p.add_argument("preset", choices=(*sorted(_PRESETS), "from-manifest"))
    _add_common(p)
    p.add_argument("--path", help="manifest path for from-manifest")
    p.add_argument("--b", type=int)
    p.add_argument("--L", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda", dest="lambda_tau", type=float)
    p.add_argument("--lambda-delta", dest="lambda_delta", type=float)
    p.add_argument("--layer", type=int)
    p.add_argument("--instances", type=int)
    p.add_argument("--plot", help="write an SVG here")
    return parser


def _reject_flags(args: argparse.Namespace, *reads: str) -> None:
    """Refuse each reproduce flag but --out, --manifest and those of ``reads``."""
    stray = [k for k in vars(args) if k not in ("command", "preset", "out", "manifest", *reads)]
    if stray:
        flags = (f"--{'lambda' if k == 'lambda_tau' else k.replace('_', '-')}" for k in stray)
        raise ValidationError(f"reproduce {args.preset} does not take {', '.join(flags)}")


def _from_manifest(path: str | None) -> tuple[str, dict]:
    if not path:
        raise ValidationError("from-manifest requires --path MANIFEST")
    manifest = _load_config(path)
    command, config = manifest.get("command"), manifest.get("config")
    if command not in _RUNNERS or not isinstance(config, dict):
        raise ValidationError(f"{path}: not a manifest written by this tool")
    recorded = manifest.get("environment")
    recorded = {"slowthink": manifest.get("version", __version__),
                **(recorded if isinstance(recorded, dict) else {})}
    current = {"slowthink": __version__, **reporting.run_environment()}
    # scipy is recorded only when loaded, and no output depends on it
    changed = [key for key, value in current.items()
               if key != "scipy" and recorded.get(key, value) != value]
    if changed:
        old = ", ".join(f"{key} {recorded[key]}" for key in changed)
        new = ", ".join(f"{key} {current[key]}" for key in changed)
        print(f"warning: {path} was written under {old}, this is {new}; "
              "sampled output may not be bit-identical", file=sys.stderr)
    return command, config


def _config_keys(parser: argparse.ArgumentParser) -> list[str]:
    """Top-level keys some subcommand reads, as one config file serves them
    all: every flag's key up to its first dot, and the config-only keys."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    keys = {a.dest.partition(".")[0] for p in sub.choices.values() for a in p._actions}
    return sorted(keys - {"help", *_NOT_CONFIG} | set(_CONFIG_ONLY))


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        if getattr(args, "preset", None) == "from-manifest":
            _reject_flags(args, "path")
            command, resolved = _from_manifest(getattr(args, "path", None))
        else:
            command = args.command
            if command == "reproduce":
                _reject_flags(args, "config", *_PRESETS[args.preset][1])
                command = f"reproduce:{args.preset}"
            resolved = _merge(_load_config(getattr(args, "config", None)), args)
        reject_stray_keys(resolved, "the config", _config_keys(parser))
        return _emit(command, resolved, _RUNNERS[command](resolved), args, t0)
    except (SlowthinkError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
