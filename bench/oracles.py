"""Independent recomputation of the exact-analysis outputs.

Each function returns the CSV header and the expected rows for one command,
computed with plain numpy from the inputs the benchmark generated. Cells are
``("str", text)`` for integers, booleans and labels, which must match
exactly, or ``("num", value, rtol, atol)`` for floats.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
_HOLD_TOL = 1e-12  # slack the program allows before a Fano check fails


def num(value: float, rtol: float = RTOL, atol: float = ATOL) -> tuple:
    return ("num", float(value), rtol, atol)


def text(value) -> tuple:
    if isinstance(value, bool):
        return ("str", "true" if value else "false")
    return ("str", str(value))


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.dot(p, np.log(p)))


def fano_rows(instances: int, seed: int, support=(3, 6), max_len: int = 8):
    """Replays the suite's seeded draws (sequence length, support sizes,
    Dirichlet joints with redraw on an empty marginal) and evaluates every
    layer once: the decoder error ``1 - sum_r max_t p``, the lower bound
    ``(mean earlier H(t|r) - H_b(err)) / ln(|T| - 1)`` and the two
    qualifying conditions on each prefix."""
    lo, hi = support
    rng = np.random.default_rng(seed)
    rows, kept, attempt = [], 0, 0
    while kept < instances:
        length = int(rng.integers(2, max_len + 1))
        layers = []
        for _ in range(length):
            t = int(rng.integers(lo, hi + 1))
            r = int(rng.integers(lo, hi + 1))
            while True:
                p = rng.dirichlet(np.ones(t * r)).reshape(t, r)
                if np.all(p.sum(axis=1) > 0) and np.all(p.sum(axis=0) > 0):
                    break
            layers.append(p / float(p.sum()))
        h_t = [_entropy(p.sum(axis=1)) for p in layers]
        h_r = [_entropy(p.sum(axis=0)) for p in layers]
        h_tr = [_entropy(p.ravel()) for p in layers]
        mi = [max(a + b - c, 0.0) for a, b, c in zip(h_t, h_r, h_tr)]
        loss = [max(c - b, 0.0) for b, c in zip(h_r, h_tr)]
        qualifying = []
        for l in range(2, length + 1):
            t_size = layers[l - 1].shape[0]
            mi_ok = all(mi[i] <= mi[i - 1] for i in range(1, l))
            ent_ok = h_t[l - 1] >= sum(h_t[: l - 1]) / (l - 1)
            if t_size == 2 or not mi_ok or not ent_ok:
                continue
            err = float(1.0 - layers[l - 1].max(axis=0).sum())
            h_b = 0.0 if err in (0.0, 1.0) else -err * math.log(err) - (1 - err) * math.log1p(-err)
            bound = (sum(loss[: l - 1]) / (l - 1) - h_b) / math.log(t_size - 1)
            qualifying.append(
                [text(attempt), text(l), num(err), num(bound), num(h_b), text(True),
                 text(True), text(True), text(err >= bound - _HOLD_TOL)]
            )
        if qualifying:
            kept += 1
            rows.extend(qualifying)
        attempt += 1
    header = ["sequence", "l", "map_error", "lower_bound", "h_b", "mi_nonincreasing",
              "entropy_condition", "defined", "holds"]
    return header, rows


def _gram(m: np.ndarray, sigma: float) -> np.ndarray:
    diff = m[:, None, :] - m[None, :, :]
    return np.exp(-np.einsum("ijk,ijk->ij", diff, diff) / (2.0 * sigma**2))


def hsic_rows(x, y, lengths, perms: int, seed: int, sigma: float = 50.0):
    """Statistic as ``trace(K H L H) / (n-1)^2`` with an explicit centering
    matrix H, and the permutation null as ``sum((H K H) * L[p][:, p])`` over
    the same seeded row shuffles of y."""
    n = x.shape[0]
    k, l_ = _gram(x, sigma), _gram(y, sigma)
    h = np.eye(n) - 1.0 / n
    scale = (n - 1) ** 2
    value = max(float(np.trace(k @ h @ l_ @ h)) / scale, 0.0)
    kc = h @ k @ h
    rng = np.random.default_rng(seed)
    null = np.empty(perms)
    for i in range(perms):
        p = rng.permutation(n)
        null[i] = max(float((kc * l_[p][:, p]).sum()) / scale, 0.0)
    mean_length = float(np.mean(lengths))
    header = ["n", "sigma", "hsic", "mean_length", "per_token_hsic", "perm_count",
              "perm_p95", "perm_pvalue"]
    row = [text(n), num(sigma), num(value), num(mean_length), num(value / mean_length),
           text(perms), num(np.quantile(null, 0.95)), num(float((null >= value).mean()))]
    return header, [row]


def calibrate_rows(traces: list[dict]):
    children = [c for t in traces for _, c in t["events"]]
    avg_b = sum(children) / len(children)
    avg_p = sum(len(t["events"]) for t in traces) / len(traces)
    avg_L = sum(t["ideal_path_length"] for t in traces) / len(traces)
    n_call = avg_p * avg_b
    n_res = n_call / avg_L
    header = ["avg_b", "avg_p", "avg_L", "n_call", "n_res", "n_int_low", "n_int_high",
              "inverted"]
    row = [num(avg_b), num(avg_p), num(avg_L), num(n_call), num(n_res),
           text(math.ceil(n_res)), text(math.floor(n_call)), text(avg_L < 1)]
    return header, [row]


def fit_rows(points: np.ndarray):
    """Least squares through ``numpy.linalg.lstsq``: ln y on x for the
    exponential model, y on x for the linear one; r2 in y space."""
    x, y = points[:, 0], points[:, 1]
    design = np.stack([x, np.ones_like(x)], axis=1)
    pos = y > 0
    (slope, intercept), *_ = np.linalg.lstsq(design[pos], np.log(y[pos]), rcond=None)
    a_exp, c_exp = math.exp(intercept), -slope
    (b_lin, a_lin), *_ = np.linalg.lstsq(design, y, rcond=None)
    ss_tot = float(((y - y.mean()) ** 2).sum())

    def r2(pred):
        return 1.0 - float(((y - pred) ** 2).sum()) / ss_tot

    header = ["model", "param_1", "param_2", "r2"]
    rows = [
        [text("exponential_decay"), num(a_exp), num(c_exp), num(r2(a_exp * np.exp(-c_exp * x)))],
        [text("linear"), num(a_lin), num(b_lin), num(r2(a_lin + b_lin * x))],
    ]
    return header, rows


def nmin_rows():
    """N_min equals b in the best case and b**((L+1)/2) in the worst."""
    rows = []
    for b in (2, 3, 4):
        for L in (1, 2, 3, 4, 5):
            for case in ("best", "worst"):
                expected = float(b) if case == "best" else float(b) ** ((L + 1) / 2)
                rows.append([text(b), text(L), text(case), num(expected), num(expected),
                             num(0.0, 0.0, 1e-9)])
    return ["b", "L", "case", "n_min", "equality_solution", "rel_err"], rows
