"""Exact information-theoretic verification on finite discrete channels:
entropies, per-step information loss, cumulative (snowball) loss, optimal
decoder error, and the Fano-style lower bound tying them together.

All quantities are in nats. A reasoning step is modelled as a finite joint
distribution p(t, r) between the latent step t and the emitted response r;
a multi-step process is a sequence of such joints. Every function runs through
one draw loop (``_draw``), one batched evaluator of per-joint terms
(``_evaluate``) and one scalar prefix walk over those terms (``_walk``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ResourceLimitError, ValidationError, at_least

MASS_TOL = 1e-12
_HOLD_TOL = 1e-12
# fano_suite gives up after this many drawn sequences per requested instance
MAX_ATTEMPTS_FACTOR = 200
# fano_suite refuses sequences that may hold more padded cells than this
SEQUENCE_CELL_LIMIT = 2**18
# fano_suite draws whole sequences in chunks of about this many padded cells
CHUNK_CELLS = 2**15


def _total(x: np.ndarray) -> np.ndarray:
    """Sum along axis 0 in index order (``np.add.reduce`` sums pairwise when
    axis 0 is the only one, so one joint would not get its bits in a batch)."""
    return np.cumsum(x, axis=0)[-1]


def _ent(cells: np.ndarray) -> np.ndarray:
    """-sum p ln p along axis 0, with 0 ln 0 = 0."""
    return -_total(cells * np.log(np.where(cells > 0, cells, 1.0)))


def _renormalized(cells: np.ndarray) -> np.ndarray:
    """Each column of ``cells``, checked to be a distribution (no negative or
    NaN entry, mass 1 within ``MASS_TOL``) and divided once by its mass."""
    if not cells.min() >= 0.0:  # also rejects NaN
        raise ValidationError("distribution has negative or NaN entries")
    total = _total(cells)
    off = np.abs(total - 1.0) > MASS_TOL
    if off.any():
        raise ValidationError(f"distribution mass {total[off][0]} is not 1 within {MASS_TOL}")
    return cells / total


def _evaluate(cells: np.ndarray, t_sizes, r_sizes):
    """``FiniteJoint``'s checks and terms for joints zero-padded into ``cells[t,
    r, j]``: renormalized cells, both marginals and per joint ``(|T|, H(t),
    I(t; r), H(t | r), MAP error)``. Sums run along axis 0 in index order and
    padding adds exact zeros, so a joint gets the same terms alone as in a batch."""
    t_pad, r_pad, _ = cells.shape
    p = _renormalized(cells.reshape(t_pad * r_pad, -1)).reshape(cells.shape)
    t_marginal, r_marginal = _total(p.transpose(1, 0, 2)), _total(p)
    if ((t_marginal > 0).sum(0) < t_sizes).any() or ((r_marginal > 0).sum(0) < r_sizes).any():
        raise ValidationError("marginals must be strictly positive; drop "
                              "zero-probability symbols from the support")
    h_t, h_r, h_tr = _ent(t_marginal), _ent(r_marginal), _ent(p.reshape(t_pad * r_pad, -1))
    terms = (h_t, np.maximum(h_t + h_r - h_tr, 0.0), np.maximum(h_tr - h_r, 0.0),
             np.maximum(1.0 - _total(p.max(axis=0)), 0.0))
    return p, t_marginal, r_marginal, list(zip(t_sizes, *(a.tolist() for a in terms)))


@dataclass(frozen=True)
class FiniteJoint:
    """Joint distribution p(t, r) over finite supports, rows indexed by t.

    Entries must be nonnegative (NaN is rejected) and sum to 1 within ``MASS_TOL``
    (the mass is then renormalized exactly once); both marginals must be strictly
    positive, i.e. zero-probability symbols are removed from the support before
    construction. The marginals and the terms the checks read (``_evaluate``)
    are computed once here and stored read-only next to ``probs``.
    """

    probs: np.ndarray
    _t_marginal: np.ndarray = field(init=False, repr=False, compare=False)
    _r_marginal: np.ndarray = field(init=False, repr=False, compare=False)
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise ValidationError("joint must be a 2-D matrix")
        if p.shape[0] < 2 or p.shape[1] < 2:
            raise ValidationError(f"support sizes must be >= 2, got {p.shape}")
        p, t_marginal, r_marginal, (terms,) = _evaluate(p[:, :, None], p.shape[:1], p.shape[1:])
        for name, arr in (("probs", p[:, :, 0]), ("_t_marginal", t_marginal[:, 0]),
                          ("_r_marginal", r_marginal[:, 0])):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_terms", terms)

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
    p = np.asarray(dist, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValidationError("distribution must be a nonempty 1-D array")
    return float(_ent(_renormalized(p[:, None]))[0])


def conditional_entropy(joint: FiniteJoint) -> float:
    """H(t | r): the per-step information loss."""
    return joint._terms[3]


def mutual_information(joint: FiniteJoint) -> float:
    """I(t; r) = H(t) + H(r) - H(t, r)."""
    return joint._terms[2]


def map_decoder_error(joint: FiniteJoint) -> float:
    """Error probability of the maximum-a-posteriori decoder t_hat(r), the
    minimum achievable over all decoders: 1 - sum_r max_t p(t, r), clamped at
    0 against rounding when every column has a single nonzero cell."""
    return joint._terms[4]


def _walk(layers):
    """Yields ``(l, terms, snowball, mi_nonincreasing, entropy_condition)`` per
    layer: the snowball summed over i < l in layer order, H(t_l) compared with
    np.mean's value for the earlier H(t_i) (a pairwise sum, not a running one)."""
    ents, snow, mi_prev, mi_noninc = [], 0.0, math.inf, True
    for l, terms in enumerate(layers, start=1):
        _, h_t, mi, loss, _ = terms
        mi_noninc = mi_noninc and mi <= mi_prev
        yield l, terms, snow, mi_noninc, l == 1 or h_t >= float(np.add.reduce(ents)) / (l - 1)
        ents.append(h_t)
        snow += loss
        mi_prev = mi


def snowball(seq: ChannelSequence, l: int) -> float:
    """Cumulative information loss before layer l: sum over layers i < l of
    H(t_i | r_i). Defined for 2 <= l <= len(seq) + 1."""
    if not 2 <= l <= len(seq) + 1:
        raise ValidationError(f"l must be in 2..{len(seq) + 1}, got {l}")
    *_, (_, terms, snow, _, _) = _walk([j._terms for j in seq.layers[: l - 1]])
    return snow + terms[3]


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
        raise ValidationError(f"l must be in 2..{len(seq)}, got {l}")
    *_, (_, terms, snow, mi_noninc, entropy_cond) = _walk([j._terms for j in seq.layers[:l]])
    return InfoLossReport(l=l, lhs=terms[3], rhs=snow / (l - 1), mi_nonincreasing=mi_noninc,
                          entropy_condition=entropy_cond,
                          holds=terms[3] >= snow / (l - 1) - _HOLD_TOL)


def _fano_report(l, terms, snow, mi_noninc, entropy_cond) -> FanoReport:
    size, _, _, _, lhs = terms
    h_b = binary_entropy(lhs)
    defined = size > 2
    rhs = (snow / (l - 1) - h_b) / math.log(size - 1) if defined else float("nan")
    return FanoReport(l=l, lhs=lhs, rhs=rhs, h_b=h_b, assumption_holds=mi_noninc,
                      entropy_condition=entropy_cond, defined=defined,
                      holds=not defined or lhs >= rhs - _HOLD_TOL)


def fano_check(seq: ChannelSequence, l: int) -> FanoReport:
    """Compare the exact optimal-decoder error at layer l against its
    information-theoretic lower bound
    ``[snowball/(l-1) - H_b(error)] / ln(|T_l| - 1)``.

    Cost: a scalar walk over the terms of layers 1..l (O(l)), which each
    ``FiniteJoint`` computed once, when it was built.
    """
    if not 2 <= l <= len(seq):
        raise ValidationError(f"l must be in 2..{len(seq)}, got {l}")
    *_, step = _walk([j._terms for j in seq.layers[:l]])
    return _fano_report(*step)


def _draw(rng: np.random.Generator, lengths, sizes, width: tuple[int, int], max_cells=0):
    """Per length taken from ``lengths``, that many joints of (t, r) = ``sizes()``,
    each ``rng.standard_exponential(t * r)`` times the reciprocal of its sum in
    cell order: bit for bit ``rng.dirichlet(np.ones(t * r))``, without its
    argument checks. A draw with a zero cell is redrawn while a marginal is
    empty. Stops after the sequence that fills ``max_cells`` padded cells.
    Returns ``cells[t, r, j]`` padded to ``width``, support sizes, sequence ends."""
    draws, t_sizes, r_sizes, ends = [], [], [], []
    for length in lengths:
        for _ in range(length):
            t, r = sizes()
            e = rng.standard_exponential(t * r)
            while not e.all():  # a zero cell: redraw while a marginal is empty
                held = e.reshape(t, r) > 0
                if held.any(0).all() and held.any(1).all():
                    break
                e = rng.standard_exponential(t * r)
            draws.append(e)
            t_sizes.append(t)
            r_sizes.append(r)
        ends.append(len(draws))
        if len(draws) * width[0] * width[1] >= max_cells:
            break
    # scatter cell k of joint j, row k // r and column k % r, to cells[row, column, j]
    count = np.multiply(t_sizes, r_sizes)
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    r_of = np.repeat(r_sizes, count)
    cells = np.zeros(width + (len(draws),))
    cells.reshape(-1)[(k // r_of * width[1] + k % r_of) * len(draws)
                      + np.repeat(np.arange(len(draws)), count)] = np.concatenate(draws)
    cells *= 1.0 / _total(cells.reshape(width[0] * width[1], -1))
    return cells, t_sizes, r_sizes, ends


def _support_sizes(rng: np.random.Generator, lo: int, hi: int):
    return lambda: (int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))


def random_joint(rng: np.random.Generator, t_size: int, r_size: int) -> FiniteJoint:
    """Dirichlet-uniform draw over the joint simplex, redrawn in the rare case
    a marginal underflows to zero (``FiniteJoint`` rejects it)."""
    if t_size < 2 or r_size < 2:
        raise ValidationError(f"support sizes must be >= 2, got {t_size}x{r_size}")
    return FiniteJoint(_draw(rng, [1], lambda: (t_size, r_size), (t_size, r_size))[0][:, :, 0])


def random_sequence(rng: np.random.Generator, length: int,
                    support_range: tuple[int, int] = (3, 6)) -> ChannelSequence:
    """Sequence of independent Dirichlet-uniform layers with support sizes
    drawn uniformly from ``support_range`` (inclusive)."""
    lo, hi = support_range
    at_least(length, 1, "length")
    cells, t_sizes, r_sizes, _ = _draw(rng, [length], _support_sizes(rng, lo, hi), (hi, hi))
    return ChannelSequence(tuple(FiniteJoint(cells[:t, :r, j])
                                 for j, (t, r) in enumerate(zip(t_sizes, r_sizes))))


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


def fano_suite(instances: int, support_range: tuple[int, int] = (3, 6), max_len: int = 8,
               seed: int = 0, require_entropy_condition: bool = True) -> FanoSuiteResult:
    """Generate seeded random channel sequences and verify the decoder-error
    lower bound on every qualifying layer.

    A sequence qualifies when at least one layer l >= 2 has a defined bound
    and satisfies the mutual-information condition (plus, by default, the
    entropy condition; without it the bound is not guaranteed and violations
    are expected). Sequences are drawn until ``instances`` qualify, at most
    ``MAX_ATTEMPTS_FACTOR * instances`` of them. ``max_len`` layers padded to
    the largest support may hold at most ``SEQUENCE_CELL_LIMIT`` cells.

    Cost: one batched evaluation per chunk of about ``CHUNK_CELLS`` padded
    cells, then a scalar walk over each sequence's layers (O(L)), stopped at
    the first layer where the mutual information rises.
    """
    at_least(instances, 1, "instances")
    at_least(max_len, 2, "max_len")
    at_least(seed, 0, "seed")
    lo, hi = support_range
    if not 2 <= lo <= hi:
        raise ValidationError(f"support range must satisfy 2 <= min <= max, got min={lo}, "
                              f"max={hi}")
    if max_len * hi * hi > SEQUENCE_CELL_LIMIT:
        raise ResourceLimitError(f"{max_len} layers at support {hi} hold up to {max_len * hi * hi}"
                                 f" cells per sequence, past the limit of {SEQUENCE_CELL_LIMIT}")
    rng = np.random.default_rng(seed)
    budget = MAX_ATTEMPTS_FACTOR * instances
    lengths = (int(rng.integers(2, max_len + 1)) for _ in range(budget))
    sizes = _support_sizes(rng, lo, hi)
    attempt, kept, rows = 0, 0, []
    while kept < instances and attempt < budget:
        cells, t_sizes, r_sizes, ends = _draw(rng, lengths, sizes, (hi, hi), CHUNK_CELLS)
        layers = _evaluate(cells, t_sizes, r_sizes)[3]
        for start, end in zip([0] + ends, ends):
            qualifying = []
            for l, terms, snow, mi_ok, ent_ok in islice(_walk(layers[start:end]), 1, None):
                if not mi_ok:
                    break  # the condition then fails for every longer prefix too
                if terms[0] > 2 and (ent_ok or not require_entropy_condition):
                    qualifying.append((attempt, _fano_report(l, terms, snow, mi_ok, ent_ok)))
            kept += bool(qualifying)
            rows += qualifying
            attempt += 1
            if kept == instances:
                break
    if kept < instances:
        raise ValidationError(f"only {kept} of {instances} qualifying sequences found; "
                              "widen the attempt budget")
    return FanoSuiteResult(kept, len(rows), sum(not rep.holds for _, rep in rows), tuple(rows))
