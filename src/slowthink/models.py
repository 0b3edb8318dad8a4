"""Probabilistic primitives: step-correctness decay laws, selector reliability
models, wrongness decay, and the synthetic answer-label model used by voting
strategies.

All types are immutable after construction and every operation is a pure
function of its inputs, so they are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    Kinds, ValidationError, at_least, checked_number, checked_section, reject_stray_keys,
)

# Each kind's fields, in the order errors list them; its other fields stay None.
EXPONENTIAL = "exponential"
TABULATED = "tabulated"
_DECAYS = Kinds("decay", {EXPONENTIAL: ("lambda_tau",), TABULATED: ("table",)}, "{} decay")

IDEAL = "ideal"
CONSTANT = "constant"
NOISY_SCORE = "noisy_score"
_SELECTORS = Kinds(
    "selector",
    {IDEAL: (), CONSTANT: ("epsilon",), NOISY_SCORE: ("margin", "noise_std")},
    "{} selector",
)


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
    one correct candidate exists; w(1, b) of ``_top_correct`` if noisy-score."""
    at_least(b, 1, "candidate count")
    if sel.kind == IDEAL:
        return 1.0
    if sel.kind == CONSTANT:
        return sel.epsilon
    return float(_top_correct([1], b, sel.margin, sel.noise_std)[0])


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


def _top_correct(c, n: int, margin: float, std: float) -> np.ndarray:
    """w(c, n) for each c: the chance that the best of c correct candidates,
    scored margin + std*Z, outscores the best of n - c wrong ones, scored
    std*Z. It is the integral of c phi(u) Phi(u)^(c-1) Phi(u + margin/std)^(n-c);
    at std = 0 the argmax takes the first top score, a correct one if c > 0."""
    c = np.asarray(c, dtype=float)
    if std == 0.0:
        return (c > 0).astype(float)
    c = c[:, None]
    with np.errstate(divide="ignore"):
        log_f = (
            np.log(c) + _LOG_PHI + (c - 1) * _log_ndtr_grid(0.0)
            + (n - c) * _log_ndtr_grid(margin / std)
        )
    return np.exp(log_f).sum(axis=1) * _STEP
