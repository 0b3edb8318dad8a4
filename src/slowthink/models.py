"""Probabilistic primitives: step-correctness decay laws, selector reliability
models, wrongness decay, and the synthetic answer-label model used by voting
strategies.

Everything that varies by selector kind is one row of ``_SELECTOR_ROWS``.

All types are immutable after construction and every operation is a pure
function of its inputs, so they are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    Kinds, ResourceLimitError, ValidationError, at_least, checked_number, checked_section,
    reject_stray_keys,
)

# Each kind's fields, in the order errors list them; its other fields stay None.
EXPONENTIAL = "exponential"
TABULATED = "tabulated"
_DECAYS = Kinds("decay", {EXPONENTIAL: ("lambda_tau",), TABULATED: ("table",)}, "{} decay")

IDEAL = "ideal"
CONSTANT = "constant"
NOISY_SCORE = "noisy_score"

# Largest array, in cells, that one Monte Carlo block or exact evaluation builds
_BLOCK_CELLS = 1 << 23
# Engines make wide draws in row chunks of about this many cells, so that
# their buffers stay in cache; no drawn value depends on the chunk size.
_CHUNK_CELLS = 1 << 17


@dataclass(frozen=True)
class DecayModel:
    """Per-layer law for the probability of generating a correct step.

    Two variants:

    * ``exponential`` -- ``min(lambda_tau * e**(-l), 1)`` for any depth l >= 1.
    * ``tabulated`` -- an explicit finite, nonincreasing sequence of
      probabilities, defined only on indices 1..len(table); no extrapolation.
    """

    kind: str
    lambda_tau: float | None = None
    table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        params = _DECAYS.taken(self)
        if "lambda_tau" in params:
            lam = checked_number(self.lambda_tau, "lambda_tau")
            if not lam > 0:
                raise ValidationError(f"exponential decay requires lambda_tau > 0, got {lam!r}")
            object.__setattr__(self, "lambda_tau", lam)
        if "table" in params:
            if not isinstance(self.table, (list, tuple)):
                raise ValidationError(f"tabulated decay table must be a list, got {self.table!r}")
            if not self.table:
                raise ValidationError("tabulated decay requires a nonempty table")
            table = tuple(
                checked_number(v, f"table entry {i + 1}") for i, v in enumerate(self.table)
            )
            for i, v in enumerate(table):
                if not 0.0 <= v <= 1.0:
                    raise ValidationError(f"table entry {i + 1} is {v}, outside [0, 1]")
                if i and v > table[i - 1]:
                    raise ValidationError(
                        f"table entry {i + 1} is {v}, above entry {i}'s "
                        f"{table[i - 1]}; a decay may not increase"
                    )
            object.__setattr__(self, "table", table)

    @classmethod
    def exponential(cls, lambda_tau: float) -> "DecayModel":
        return cls(kind=EXPONENTIAL, lambda_tau=lambda_tau)

    @classmethod
    def tabulated(cls, values) -> "DecayModel":
        return cls(kind=TABULATED, table=values)

    @classmethod
    def from_config(cls, cfg: dict) -> "DecayModel":
        return _DECAYS.build(cls, cfg, {"kind": EXPONENTIAL})

    @property
    def depth_limit(self) -> int | None:
        """Largest evaluable layer index, or None when unbounded."""
        return len(self.table) if self.kind == TABULATED else None


@dataclass(frozen=True)
class WrongModel:
    """Rate constant for how quickly candidate steps become detectably wrong
    as depth grows; a step at depth l is wrong beyond the threshold with
    probability ``max(1 - lambda_delta * e**(-l), 0)``.
    """

    lambda_delta: float

    def __post_init__(self) -> None:
        lam = checked_number(self.lambda_delta, "lambda_delta")
        if not lam > 0:
            raise ValidationError(f"lambda_delta must be > 0, got {lam!r}")
        object.__setattr__(self, "lambda_delta", lam)


@dataclass(frozen=True)
class SelectorModel:
    """Reliability of the value function that picks a correct candidate out of
    a pool, conditional on at least one correct candidate existing.

    * ``ideal`` -- always succeeds, for every pool size.
    * ``constant`` -- succeeds with fixed probability ``epsilon``.
    * ``noisy_score`` -- a correct candidate carries score ``margin`` plus
      Gaussian noise and must outrank pools of purely-noisy competitors, so
      the success probability emerges from the pool size.
    """

    kind: str
    epsilon: float | None = None
    noise_std: float | None = None
    margin: float | None = None

    def __post_init__(self) -> None:
        # a field is set exactly when the kind takes it
        for name in _SELECTORS.taken(self):
            object.__setattr__(self, name, checked_number(getattr(self, name), name))
        eps, std, margin = self.epsilon, self.noise_std, self.margin
        if eps is not None and not 0.0 <= eps <= 1.0:
            raise ValidationError(f"constant selector requires epsilon in [0, 1], got {eps!r}")
        if std is not None and std < 0:
            raise ValidationError(f"noisy-score selector requires noise_std >= 0, got {std!r}")
        if margin is not None and not margin > 0:
            raise ValidationError(f"noisy-score selector requires margin > 0, got {margin!r}")

    @classmethod
    def ideal(cls) -> "SelectorModel":
        return cls(kind=IDEAL)

    @classmethod
    def constant(cls, epsilon: float) -> "SelectorModel":
        return cls(kind=CONSTANT, epsilon=epsilon)

    @classmethod
    def noisy_score(cls, margin: float, noise_std: float) -> "SelectorModel":
        return cls(kind=NOISY_SCORE, margin=margin, noise_std=noise_std)

    @classmethod
    def from_config(cls, cfg: dict) -> "SelectorModel":
        return _SELECTORS.build(cls, cfg, {"kind": IDEAL})


@dataclass(frozen=True)
class AnswerModel:
    """Final-answer label space for voting strategies: label 0 is the correct
    answer, incorrect paths land uniformly on one of ``answer_space_size``
    wrong labels.
    """

    answer_space_size: int = 1

    def __post_init__(self) -> None:
        size = checked_number(self.answer_space_size, "answer_space_size", int)
        object.__setattr__(self, "answer_space_size", at_least(size, 1, "answer_space_size"))

    @classmethod
    def from_config(cls, cfg: dict) -> "AnswerModel":
        reject_stray_keys(checked_section(cfg, "answer"), "answer", ("answer_space_size",))
        return cls(cfg.get("answer_space_size", 1))


def step_correct_prob(model: DecayModel, l: int) -> float:
    """Probability that the step generated at layer ``l`` is correct, given a
    correct prefix."""
    at_least(l, 1, "layer index")
    if model.kind == EXPONENTIAL:
        return min(model.lambda_tau * math.exp(-l), 1.0)
    if l > len(model.table):
        raise ValidationError(
            f"layer {l} outside tabulated range 1..{len(model.table)}"
        )
    return model.table[l - 1]


def selector_success_prob(sel: SelectorModel, b: int) -> float:
    """Probability of picking a correct candidate out of ``b``, given at least
    one correct candidate exists: the eps_b of the selector's kind."""
    at_least(b, 1, "candidate count")
    return _SELECTOR_ROWS[sel.kind].eps(sel, b)


_SQRT1_2 = math.sqrt(0.5)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _log_ndtr(x: float) -> float:
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x * _SQRT1_2))
    return math.log(0.5 * math.erfc(-x * _SQRT1_2))


def log_ndtr(x) -> np.ndarray:
    """log Phi(x) elementwise, Phi the standard normal CDF, accurate in
    relative terms from x = -37 (below it Phi(x) leaves the normal doubles)
    up to where Phi(x) rounds to 1. Its only caller, the selection integral,
    passes x >= -12.
    """
    x = np.asarray(x, dtype=float)
    return np.array([_log_ndtr(v) for v in x.ravel().tolist()]).reshape(x.shape)


# Trapezoid rule on [-12, 12] for the selection integral in _top_correct.
# The integrand is negligible outside it and at its ends, so the rule is a
# plain sum.
_STEP = 0.005
_GRID = _STEP * np.arange(-2400, 2401)
_LOG_PHI = -0.5 * _GRID**2 - _HALF_LOG_2PI


@functools.lru_cache(maxsize=32)
def _log_ndtr_grid(shift: float) -> np.ndarray:
    """log_ndtr(_GRID + shift), read-only, built once per shift."""
    grid = log_ndtr(_GRID + shift)
    grid.flags.writeable = False
    return grid


def _check_cells(cells: int) -> None:
    if cells > _BLOCK_CELLS:
        raise ResourceLimitError(
            f"exact evaluation needs {cells} cells, over the {_BLOCK_CELLS} limit"
        )


def _top_correct(c, n: int, margin: float, std: float) -> np.ndarray:
    """w(c, n) for each c: the chance that the best of c correct candidates,
    scored margin + std*Z, outscores the best of n - c wrong ones, scored
    std*Z. It is the integral of c phi(u) Phi(u)^(c-1) Phi(u + margin/std)^(n-c);
    at std = 0 the argmax takes the first top score, a correct one if c > 0.
    Refused past the cell limit."""
    c = np.asarray(c, dtype=float)
    if std == 0.0:
        return (c > 0).astype(float)
    _check_cells(c.size * _GRID.size)
    c = c[:, None]
    with np.errstate(divide="ignore"):
        log_f = (
            np.log(c) + _LOG_PHI + (c - 1) * _log_ndtr_grid(0.0)
            + (n - c) * _log_ndtr_grid(margin / std)
        )
    return np.exp(log_f).sum(axis=1) * _STEP


def _noisy_hits(rng, c, width: int, margin: float, std: float, b: int = 1) -> np.ndarray:
    """Per row of ``width`` cells, the first ``c`` correct, how many of the b
    top scores of ``margin * correct + std * Z``, Z standard normal, fall on
    correct cells; at std = 0 (margin > 0) that is min(b, c), drawn from
    nothing. Mask and Z are built a row chunk of about _CHUNK_CELLS cells at
    a time, Z into one reused buffer in the order one dense draw reads it."""
    if std == 0:
        return np.minimum(b, c)
    n = len(c)
    step = max(1, _CHUNK_CELLS // width)
    buf = np.empty(min(n, step) * width)
    hits = np.empty(n, dtype=np.intp)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        ok = np.arange(width) < c[rows, None]
        z = rng.standard_normal(out=buf[: ok.size].reshape(ok.shape))
        z *= std
        z += margin * ok
        if b == 1:
            hits[rows] = z.argmax(axis=1) < c[rows]
        else:
            # at or above the row's b-th highest score; a tie has probability 0
            t = np.partition(z, width - b, axis=1)[:, width - b, None]
            hits[rows] = (ok & (z >= t)).sum(axis=1)
    return hits


def _tally(c):
    """The occupied counts c > 0 among per-trial counts c, ascending, and the trials at each."""
    c, m = np.unique(c, return_counts=True)
    return c[c > 0], m[c > 0]


def _keep_ideal(sel, rng, c, m, width: int, top):
    """The engine keep. m[i] open trials have c[i] > 0 of ``width`` candidates
    correct, c ascending; returns the occupied counts of correct ones kept, at
    most ``top``, and the trials at each. At top None a trial whose pick of
    one candidate is correct keeps all c, and any other trial fails."""
    if top is None:
        return c, m
    at = np.arange(min(np.searchsorted(c, top) + 1, c.size))  # counts from top on merge
    return np.minimum(c[: at.size], top), np.add.reduceat(m, at)


def _keep_constant(sel, rng, c, m, width: int, top):
    # the ideal keep for the trials whose pick succeeds, Bin(trials, eps) of them
    c, m = _keep_ideal(sel, rng, c, m, width, top)
    m = rng.binomial(m, sel.epsilon)  # c stays unique: drop the counts no trial keeps
    return c[m > 0], m[m > 0]


def _keep_noisy(sel, rng, c, m, width: int, top):
    # one pick over the trials, in ascending order of c
    c = np.repeat(c, m)
    hits = _noisy_hits(rng, c, width, sel.margin, sel.noise_std, top or 1)
    return _tally(hits if top else c * (hits > 0))


def _kernel(width: int, top: int, eps) -> np.ndarray:
    """The exact keep: T[c, j], the chance that j of the ``top`` candidates
    kept are correct when c of ``width`` are, for a pick that keeps correct
    ones first with chance eps (a scalar, or one per c) and none otherwise."""
    c = np.arange(width + 1)
    kernel = np.zeros((width + 1, top + 1))
    kernel[:, 0] = 1.0 - eps
    kernel[c, np.minimum(c, top)] += eps
    return kernel


def _kernel_noisy(sel, width: int, top: int) -> np.ndarray | None:
    # the top score is correct with chance w(c, width), and keeping every
    # candidate keeps all c; top-b of more noisy scores has no form here yet
    if top == 1:
        return _kernel(width, 1, _top_correct(np.arange(width + 1), width, sel.margin,
                                              sel.noise_std))
    return _kernel(width, top, 1.0) if top == width else None


class _Selector(NamedTuple):
    """Everything that varies by selector kind."""

    params: tuple[str, ...]  # SelectorModel fields and config keys
    eps: Callable  # (sel, b) -> eps_b, the chance of picking the one correct of b
    score: Callable  # (sel, score_noise_std) -> (margin, std) of a pick by scores
    draws: bool  # picks by score draws per trial: eps_b depends on b, runs use the pool
    keep: Callable  # (sel, rng, c, m, width, top) -> see _keep_ideal
    kernel: Callable  # (sel, width, top) -> see _kernel; None if intractable


# Ideal and constant picks ignore the scores, which are then the process's.
_SELECTOR_ROWS = {
    IDEAL: _Selector((), lambda s, b: 1.0, lambda s, std: (1.0, std), False, _keep_ideal,
                     lambda s, width, top: _kernel(width, top, 1.0)),
    CONSTANT: _Selector(("epsilon",), lambda s, b: s.epsilon, lambda s, std: (1.0, std), False,
                        _keep_constant, lambda s, width, top: _kernel(width, top, s.epsilon)),
    NOISY_SCORE: _Selector(
        ("margin", "noise_std"), lambda s, b: float(_top_correct([1], b, s.margin, s.noise_std)[0]),
        lambda s, std: (s.margin, s.noise_std), True, _keep_noisy, _kernel_noisy,
    ),
}
_SELECTORS = Kinds("selector", {k: row.params for k, row in _SELECTOR_ROWS.items()}, "{} selector")
