"""Exact information-theoretic verification on finite discrete channels:
entropies, per-step information loss, cumulative (snowball) loss, optimal
decoder error, and the Fano-style lower bound tying them together.

All quantities are in nats. A reasoning step is modelled as a finite joint
distribution p(t, r) between the latent step t and the emitted response r;
a multi-step process is a sequence of such joints.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import RangeError, ValidationError

MASS_TOL = 1e-12
_HOLD_TOL = 1e-12
# fano_suite gives up after this many drawn sequences per requested instance
MAX_ATTEMPTS_FACTOR = 200


def _ent(arr: np.ndarray) -> float:
    nz = arr[arr > 0]
    return float(-(nz * np.log(nz)).sum())


def _validated_dist(dist) -> np.ndarray:
    p = np.asarray(dist, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValidationError("distribution must be a nonempty 1-D array")
    if not p.min() >= 0.0:  # also rejects NaN
        raise ValidationError("distribution has negative or NaN entries")
    total = float(p.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise ValidationError(f"distribution mass {total} is not 1 within {MASS_TOL}")
    return p / total


@dataclass(frozen=True)
class FiniteJoint:
    """Joint distribution p(t, r) over finite supports, rows indexed by t.

    Entries must be nonnegative (NaN is rejected) and sum to 1 within
    ``MASS_TOL`` (the mass is then renormalized exactly once); both marginals
    must be strictly positive, i.e. zero-probability symbols are removed from
    the support before construction. The marginals are summed once here and
    stored read-only next to ``probs``.
    """

    probs: np.ndarray
    _t_marginal: np.ndarray = field(init=False, repr=False, compare=False)
    _r_marginal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise ValidationError("joint must be a 2-D matrix")
        if p.shape[0] < 2 or p.shape[1] < 2:
            raise ValidationError(f"support sizes must be >= 2, got {p.shape}")
        p = _validated_dist(p.ravel()).reshape(p.shape)
        t_marginal = p.sum(axis=1)
        r_marginal = p.sum(axis=0)
        if t_marginal.min() <= 0 or r_marginal.min() <= 0:
            raise ValidationError(
                "marginals must be strictly positive; drop zero-probability "
                "symbols from the support"
            )
        for name, arr in (("probs", p), ("_t_marginal", t_marginal),
                          ("_r_marginal", r_marginal)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def t_support_size(self) -> int:
        return self.probs.shape[0]

    @property
    def r_support_size(self) -> int:
        return self.probs.shape[1]

    def t_marginal(self) -> np.ndarray:
        return self._t_marginal

    def r_marginal(self) -> np.ndarray:
        return self._r_marginal


@dataclass(frozen=True)
class ChannelSequence:
    """One finite joint per reasoning step, in step order."""

    layers: tuple[FiniteJoint, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ValidationError("sequence must contain at least one layer")
        object.__setattr__(self, "layers", layers)

    def __len__(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class InfoLossReport:
    """Per-layer information-loss inequality check."""

    l: int
    lhs: float  # H(t_l | r_l)
    rhs: float  # mean of earlier per-step losses
    mi_nonincreasing: bool
    entropy_condition: bool  # H(t_l) >= mean of earlier H(t_i)
    holds: bool

    @property
    def assumptions_hold(self) -> bool:
        return self.mi_nonincreasing and self.entropy_condition


@dataclass(frozen=True)
class FanoReport:
    """Decoder-error lower-bound check at one layer.

    ``assumption_holds`` records the mutual-information condition alone;
    ``entropy_condition`` records the companion condition that the current
    step's entropy is at least the mean of the earlier ones. The bound is
    guaranteed only when both hold. ``defined`` is False for binary supports,
    where the bound's denominator log(|T|-1) vanishes.
    """

    l: int
    lhs: float  # exact optimal-decoder error at layer l
    rhs: float  # lower bound
    h_b: float  # binary entropy of the realized error event
    assumption_holds: bool
    entropy_condition: bool
    defined: bool
    holds: bool


def entropy(dist) -> float:
    """Shannon entropy -sum p ln p of a distribution, with 0 ln 0 = 0."""
    return _ent(_validated_dist(dist))


def _layer_terms(joint: FiniteJoint) -> tuple[float, float, float]:
    """H(t), I(t; r) and H(t | r) of one joint, from three entropies."""
    h_t = _ent(joint.t_marginal())
    h_r = _ent(joint.r_marginal())
    h_tr = _ent(joint.probs.ravel())
    return h_t, max(h_t + h_r - h_tr, 0.0), max(h_tr - h_r, 0.0)


def conditional_entropy(joint: FiniteJoint) -> float:
    """H(t | r): the per-step information loss."""
    return _layer_terms(joint)[2]


def mutual_information(joint: FiniteJoint) -> float:
    """I(t; r) = H(t) + H(r) - H(t, r)."""
    return _layer_terms(joint)[1]


@dataclass(frozen=True)
class _Prefix:
    """What the checks at layer l read, accumulated over layers 1..l."""

    l: int
    layer: FiniteJoint
    loss: float  # H(t_l | r_l)
    snowball: float  # sum of H(t_i | r_i) over i < l, added in layer order
    mi_nonincreasing: bool  # I(t_i; r_i) nonincreasing over i <= l
    entropy_condition: bool  # H(t_l) >= mean of H(t_i) over i < l


def _prefixes(seq: ChannelSequence) -> Iterator[_Prefix]:
    """Walk the layers once: each layer's terms are computed once, and the
    snowball sum and the mutual-information condition are carried forward.
    The entropy condition's mean stays ``np.mean`` over the prefix, whose
    pairwise summation a running sum would not reproduce beyond 8 terms."""
    ents: list[float] = []
    snow = 0.0
    mi_prev = math.inf
    mi_noninc = True
    for l, layer in enumerate(seq.layers, start=1):
        h_t, mi, loss = _layer_terms(layer)
        mi_noninc = mi_noninc and mi <= mi_prev
        entropy_cond = l == 1 or h_t >= float(np.mean(ents))
        yield _Prefix(l, layer, loss, snow, mi_noninc, entropy_cond)
        ents.append(h_t)
        snow += loss
        mi_prev = mi


def _prefix_at(seq: ChannelSequence, l: int) -> _Prefix:
    return next(islice(_prefixes(seq), l - 1, None))


def snowball(seq: ChannelSequence, l: int) -> float:
    """Cumulative information loss before layer l: sum over layers i < l of
    H(t_i | r_i). Defined for 2 <= l <= len(seq) + 1."""
    if not 2 <= l <= len(seq) + 1:
        raise RangeError(f"l must be in 2..{len(seq) + 1}, got {l}")
    last = _prefix_at(seq, l - 1)
    return last.snowball + last.loss


def map_decoder_error(joint: FiniteJoint) -> float:
    """Error probability of the maximum-a-posteriori decoder t_hat(r), the
    minimum achievable over all decoders: 1 - sum_r max_t p(t, r), clamped at
    0 against rounding when every column has a single nonzero cell."""
    return max(float(1.0 - joint.probs.max(axis=0).sum()), 0.0)


def binary_entropy(p: float) -> float:
    """Entropy in nats of a Bernoulli(p) indicator."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log1p(-p))


def check_info_loss_inequality(seq: ChannelSequence, l: int) -> InfoLossReport:
    """Check H(t_l | r_l) >= (sum of earlier losses) / (l - 1) and report the
    two assumptions it rests on separately. One pass over layers 1..l."""
    if not 2 <= l <= len(seq):
        raise RangeError(f"l must be in 2..{len(seq)}, got {l}")
    p = _prefix_at(seq, l)
    rhs = p.snowball / (l - 1)
    return InfoLossReport(
        l=l,
        lhs=p.loss,
        rhs=rhs,
        mi_nonincreasing=p.mi_nonincreasing,
        entropy_condition=p.entropy_condition,
        holds=p.loss >= rhs - _HOLD_TOL,
    )


def _fano_report(p: _Prefix) -> FanoReport:
    lhs = map_decoder_error(p.layer)
    h_b = binary_entropy(lhs)
    size = p.layer.t_support_size
    defined = size > 2
    rhs = (p.snowball / (p.l - 1) - h_b) / math.log(size - 1) if defined else float("nan")
    return FanoReport(
        l=p.l,
        lhs=lhs,
        rhs=rhs,
        h_b=h_b,
        assumption_holds=p.mi_nonincreasing,
        entropy_condition=p.entropy_condition,
        defined=defined,
        holds=not defined or lhs >= rhs - _HOLD_TOL,
    )


def fano_check(seq: ChannelSequence, l: int) -> FanoReport:
    """Compare the exact optimal-decoder error at layer l against its
    information-theoretic lower bound
    ``[snowball/(l-1) - H_b(error)] / ln(|T_l| - 1)``.

    Cost: one pass over layers 1..l, three entropies per layer (O(l)).
    """
    if not 2 <= l <= len(seq):
        raise RangeError(f"l must be in 2..{len(seq)}, got {l}")
    return _fano_report(_prefix_at(seq, l))


def random_joint(rng: np.random.Generator, t_size: int, r_size: int) -> FiniteJoint:
    """Dirichlet-uniform draw over the joint simplex, redrawn in the rare case
    a marginal underflows to zero (``FiniteJoint`` rejects it)."""
    if t_size < 2 or r_size < 2:
        raise ValidationError(f"support sizes must be >= 2, got {t_size}x{r_size}")
    alpha = np.ones(t_size * r_size)
    while True:
        try:
            return FiniteJoint(rng.dirichlet(alpha).reshape(t_size, r_size))
        except ValidationError:
            continue


def random_sequence(
    rng: np.random.Generator,
    length: int,
    support_range: tuple[int, int] = (3, 6),
) -> ChannelSequence:
    """Sequence of independent Dirichlet-uniform layers with support sizes
    drawn uniformly from ``support_range`` (inclusive)."""
    lo, hi = support_range
    if length < 1:
        raise ValidationError(f"length must be >= 1, got {length}")
    layers = []
    for _ in range(length):
        t = int(rng.integers(lo, hi + 1))
        r = int(rng.integers(lo, hi + 1))
        layers.append(random_joint(rng, t, r))
    return ChannelSequence(tuple(layers))


@dataclass(frozen=True)
class FanoSuiteResult:
    """Aggregate outcome of a randomized lower-bound verification run."""

    instances: int
    checks: int
    violations: int
    reports: tuple[tuple[int, FanoReport], ...]  # (sequence index, report)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def fano_suite(
    instances: int,
    support_range: tuple[int, int] = (3, 6),
    max_len: int = 8,
    seed: int = 0,
    require_entropy_condition: bool = True,
) -> FanoSuiteResult:
    """Generate seeded random channel sequences and verify the decoder-error
    lower bound on every qualifying layer.

    A sequence qualifies when at least one layer l >= 2 has a defined bound
    and satisfies the mutual-information condition (plus, by default, the
    entropy condition; without it the bound is not guaranteed and violations
    are expected). Sequences are drawn until ``instances`` qualify, at most
    ``MAX_ATTEMPTS_FACTOR * instances`` of them.

    Cost per sequence: one pass over its layers, three entropies per layer
    (O(L)), stopped at the first layer where the mutual information rises.
    """
    if instances < 1:
        raise ValidationError(f"instances must be >= 1, got {instances}")
    if max_len < 2:
        raise ValidationError(f"max_len must be >= 2, got {max_len}")
    lo, hi = support_range
    if not 2 <= lo <= hi:
        raise ValidationError(
            f"support range must satisfy 2 <= min <= max, got min={lo}, max={hi}"
        )
    rng = np.random.default_rng(seed)
    kept = 0
    checks = 0
    violations = 0
    rows: list[tuple[int, FanoReport]] = []
    for attempt in range(MAX_ATTEMPTS_FACTOR * instances):
        if kept >= instances:
            break
        length = int(rng.integers(2, max_len + 1))
        seq = random_sequence(rng, length, support_range)
        qualifying = []
        for p in islice(_prefixes(seq), 1, None):
            rep = _fano_report(p)
            if not rep.assumption_holds:
                break  # the condition then fails for every longer prefix too
            if not rep.defined:
                continue
            if require_entropy_condition and not rep.entropy_condition:
                continue
            qualifying.append(rep)
        if not qualifying:
            continue
        kept += 1
        for rep in qualifying:
            checks += 1
            if not rep.holds:
                violations += 1
            rows.append((attempt, rep))
    if kept < instances:
        raise ValidationError(
            f"only {kept} of {instances} qualifying sequences found; "
            "widen the attempt budget"
        )
    return FanoSuiteResult(
        instances=kept, checks=checks, violations=violations, reports=tuple(rows)
    )
