"""Closed-form success-probability bounds and cost formulas for search
strategies over a decaying step-correctness process.

Conventions shared by every bound here:

* Depth-l step correctness follows the decay model; for the exponential law
  the product over a length-L path is ``lambda**L * e**(-L*(L+1)/2)``.
* Selection reliability enters through ``selector_success_prob``.
* Products are evaluated as sums of natural logarithms; the linear-domain
  value underflows double precision near L ~ 38, so every function accepts
  ``log=True`` to return the log-domain value instead.
* Simplified bounds come from replacing ``1 - (1-p)**k`` by ``k*p``; they can
  exceed 1 and are reported unclipped (see ``is_vacuous``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import PreconditionError, ResourceLimitError, ValidationError, at_least
from .models import (
    EXPONENTIAL, DecayModel, SelectorModel, WrongModel, _SELECTOR_ROWS, selector_success_prob,
    step_correct_prob,
)

# Largest noisy-score pool in the worst-case envelope: it keeps the depth-l
# pool b**l, which the selection integral takes as a float, in float range.
NOISY_CANDIDATE_LIMIT = 10**6

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class CostEntry:
    """Total reasoning cost (step count) of the budget-matched pairing."""

    case: str
    bon_cost: float
    mcts_cost: float

    def __post_init__(self) -> None:
        if self.case not in ("best", "worst"):
            raise ValidationError(f"case must be 'best' or 'worst', got {self.case!r}")
        if not (self.bon_cost > 0 and self.mcts_cost > 0):
            raise ValidationError("costs must be positive")


def is_vacuous(bound: float) -> bool:
    """True when an unclipped upper bound carries no information (>= 1)."""
    return bound >= 1.0


def _check_counts(**counts: int) -> None:
    for name, v in counts.items():
        at_least(v, 1, name)
        if v > sys.float_info.max:
            raise ValidationError(f"{name} is too large to evaluate as a float")


def _log_eps(selector: SelectorModel, b: int) -> float:
    eps = selector_success_prob(selector, b)
    return math.log(eps) if eps > 0.0 else _NEG_INF


def _value(v: float, log: bool) -> float:
    """``v``, or ``e**v`` when not ``log``: inf past the double range."""
    if log:
        return v
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _require_no_clipping(decay: DecayModel) -> None:
    if decay.kind != EXPONENTIAL:
        raise PreconditionError(
            "simplified forms require an exponential decay model; "
            "use the exact product form for tabulated decay"
        )
    if decay.lambda_tau * math.exp(-1) > 1.0:
        raise PreconditionError(
            f"lambda_tau={decay.lambda_tau} clips the layer-1 step probability at 1; "
            "use the exact product form"
        )


def _sum_log_steps(decay: DecayModel, L: int) -> float:
    total = 0.0
    for l in range(1, L + 1):
        p = step_correct_prob(decay, l)
        if p == 0.0:
            return _NEG_INF
        total += math.log(p)
    return total


# Shared assembly so that bound pairs that must agree do so bitwise:
# every simplified-family bound is  eps_log + scale_log + L*log(lam) - L(L+1)/2.
def _assemble_log(eps_log: float, scale_log: float, lam: float, L: int) -> float:
    return eps_log + scale_log + L * math.log(lam) - L * (L + 1) / 2


def single_path_bound(decay: DecayModel, L: int, *, log: bool = False) -> float:
    """Success probability of one unassisted length-L path: the product of the
    per-layer step probabilities."""
    _check_counts(L=L)
    return _value(_sum_log_steps(decay, L), log)


def width_expansion_bound_exact(
    decay: DecayModel,
    selector: SelectorModel,
    L: int,
    k: int,
    b: int,
    *,
    log: bool = False,
) -> float:
    """Exact-form upper bound for a beam-like strategy sampling k candidates
    and keeping b per layer: product over layers of
    ``eps_b * (1 - (1 - p(l))**k)``."""
    _check_counts(L=L, k=k, b=b)
    total = L * _log_eps(selector, b)
    for l in range(1, L + 1):
        p = step_correct_prob(decay, l)
        if p == 0.0:
            total = _NEG_INF
            break
        if p == 1.0:
            continue
        # log(1 - (1-p)^k), kept accurate for tiny p
        total += math.log(-math.expm1(k * math.log1p(-p)))
    return _value(total, log)


def width_expansion_bound_simplified(
    decay: DecayModel,
    selector: SelectorModel,
    L: int,
    k: int,
    b: int,
    *,
    log: bool = False,
) -> float:
    """Simplified width-expansion upper bound
    ``eps_b**L * k**L * lambda**L * e**(-L(L+1)/2)``.

    May exceed 1; callers must not clip (see ``is_vacuous``). Requires the
    no-clipping regime ``lambda * e**(-1) <= 1``.
    """
    _check_counts(L=L, k=k, b=b)
    _require_no_clipping(decay)
    v = _assemble_log(L * _log_eps(selector, b), L * math.log(k), decay.lambda_tau, L)
    return _value(v, log)


def bon_bound(
    decay: DecayModel,
    selector: SelectorModel,
    L: int,
    N: float,
    *,
    log: bool = False,
) -> float:
    """Upper bound for Best-of-N with one final selection over N paths:
    ``eps_N * N**L * lambda**L * e**(-L(L+1)/2)``."""
    _check_counts(N=N, L=L)
    _require_no_clipping(decay)
    eps_log = _log_eps(selector, max(1, math.ceil(N)))
    v = _assemble_log(eps_log, L * math.log(N), decay.lambda_tau, L)
    return _value(v, log)


def mcts_best_bound(
    decay: DecayModel,
    selector: SelectorModel,
    L: int,
    b: int,
    *,
    log: bool = False,
) -> float:
    """Best-case tree-search envelope: identical to the simplified
    width-expansion bound with k = b."""
    return width_expansion_bound_simplified(decay, selector, L, b, b, log=log)


def mcts_worst_bound(
    decay: DecayModel,
    selector: SelectorModel,
    L: int,
    b: int,
    *,
    log: bool = False,
) -> float:
    """Worst-case tree-search envelope over a complete b-ary tree:
    ``lambda**L * (e/b)**(-L(L+1)/2) * prod_l eps_{b^l}``."""
    _check_counts(L=L, b=b)
    _require_no_clipping(decay)
    S = L * (L + 1) / 2
    # Only a pick by score draws depends on the pool b**l, and the limit
    # stops it before the pool leaves float range; the others take one eps.
    noisy = _SELECTOR_ROWS[selector.kind].draws and b > 1
    log_eps = _log_eps(selector, 1)
    pool = 1
    eps_log = 0.0
    for l in range(1, L + 1):
        if noisy:
            pool *= b
            if pool > NOISY_CANDIDATE_LIMIT:
                raise ResourceLimitError(
                    f"{pool} candidates at depth {l} exceeds the noisy-score "
                    f"selector limit of {NOISY_CANDIDATE_LIMIT}"
                )
            log_eps = _log_eps(selector, pool)
        eps_log += log_eps
    v = _assemble_log(eps_log, S * math.log(b), decay.lambda_tau, L)
    return _value(v, log)


def n_min(b: int, L: int, case: str) -> float:
    """Minimal real-valued N at which the Best-of-N bound matches the
    tree-search envelope bound, under ideal selectors on both sides.

    At lambda = 1 the Best-of-N log bound is ``L*log N - L(L+1)/2``, so
    ``N = exp((target + L(L+1)/2) / L)`` for the envelope's log bound
    ``target``. N is polished to the nearest integer whenever that integer
    satisfies the equality exactly in floating point (the best case lands on
    N = b this way). ValidationError when N is past the double range.
    """
    _check_counts(b=b, L=L)
    if case not in ("best", "worst"):
        raise ValidationError(f"case must be 'best' or 'worst', got {case!r}")
    decay = DecayModel.exponential(1.0)
    ideal = SelectorModel.ideal()
    if case == "best":
        target = mcts_best_bound(decay, ideal, L, b, log=True)
    else:
        target = mcts_worst_bound(decay, ideal, L, b, log=True)
    try:
        n_hat = math.exp((target + L * (L + 1) / 2) / L)
    except OverflowError:
        raise ValidationError(
            f"N_min for b={b}, L={L} ({case} case) is past the double range"
        ) from None
    nearest = round(n_hat)
    if nearest >= 1 and _assemble_log(0.0, L * math.log(nearest), 1.0, L) == target:
        return float(nearest)
    return n_hat


def cost_table(b: int, L: int) -> tuple[CostEntry, CostEntry]:
    """Total step counts when Best-of-N runs at the matching N_min: best case
    (b*L, b*L) and worst case (L*b**(L/2), b**L)."""
    _check_counts(b=b, L=L)
    best = CostEntry("best", float(b * L), float(b * L))
    worst = CostEntry("worst", L * float(b) ** (L / 2), float(b) ** L)
    return best, worst


def lookahead_distinguishability_bound(
    lambda_tau: float, wrong: WrongModel, l: float
) -> float:
    """Lower bound on the probability that a depth-l evaluation separates a
    correct candidate from a wrong one:
    ``lambda_tau * e**(-l) - lambda_tau * lambda_delta * e**(-2l)``.

    Defined for ``l >= ln(lambda_tau)`` (where the step law is unclipped).
    """
    if not lambda_tau > 0:
        raise ValidationError(f"lambda_tau must be > 0, got {lambda_tau!r}")
    if l < math.log(lambda_tau):
        raise PreconditionError(
            f"requires l >= ln(lambda_tau) = {math.log(lambda_tau):.6g}, got l={l}"
        )
    decay = lambda_tau * math.exp(-l)
    return decay - decay * wrong.lambda_delta * math.exp(-l)


def optimal_rollout(wrong: WrongModel, l: float) -> float:
    """Rollout depth maximizing the distinguishability bound when evaluating a
    layer-l candidate: ``max(ln(2*lambda_delta) - l, 0)``."""
    return max(math.log(2.0 * wrong.lambda_delta) - at_least(l, 0, "layer index"), 0.0)
