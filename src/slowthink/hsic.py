"""Gaussian-kernel Hilbert-Schmidt Independence Criterion with per-token
normalization, a permutation null, and decay-curve fitting.

Uses the classical biased estimator trace(K H L H) / (n-1)^2 with centering
matrix H = I - J/n. Input vectors are taken as-is; producing embeddings from
text is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError, at_least, checked_number

DEFAULT_SIGMA = 50.0
# n x n float64 kernel matrices, 128 MiB each at the limit; a permutation test holds four
MAX_SAMPLES = 4096
MAX_PERMUTATIONS = 1_000_000


@dataclass(frozen=True)
class SampleSet:
    """n x d feature matrix with optional per-row token lengths."""

    vectors: np.ndarray
    lengths: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.vectors, dtype=np.float64)
        if x.ndim != 2:
            raise ValidationError("vectors must be a 2-D matrix")
        if x.shape[0] < 2:
            raise ValidationError(f"need at least 2 rows, got {x.shape[0]}")
        if not np.all(np.isfinite(x)):
            raise ValidationError("vectors contain non-finite values")
        x.flags.writeable = False
        object.__setattr__(self, "vectors", x)
        if self.lengths is not None:
            lens = tuple(checked_number(v, "lengths") for v in self.lengths)
            if len(lens) != x.shape[0]:
                raise ValidationError("lengths length must match row count")
            if any(v <= 0 for v in lens):
                raise ValidationError("lengths must be positive")
            object.__setattr__(self, "lengths", lens)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def mean_length(self) -> float | None:
        if self.lengths is None:
            return None
        return sum(self.lengths) / len(self.lengths)


@dataclass(frozen=True)
class HsicConfig:
    """Gaussian kernel bandwidth."""

    sigma: float = DEFAULT_SIGMA

    def __post_init__(self) -> None:
        sigma = checked_number(self.sigma, "sigma")
        if not sigma > 0:
            raise ValidationError(f"sigma must be > 0, got {sigma!r}")
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class FitResult:
    """Fitted curve with coefficient of determination in the original y space."""

    model: str  # "exponential_decay": y = a*exp(-c*x); "linear": y = a + b*x
    params: tuple[float, ...]
    r2: float

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.model == "exponential_decay":
            a, c = self.params
            return a * np.exp(-c * x)
        a, b = self.params
        return a + b * x


def _as_matrix(x) -> np.ndarray:
    m = x.vectors if isinstance(x, SampleSet) else np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 2:
        raise ValidationError("expected an n x d matrix with n >= 2")
    if m.shape[0] > MAX_SAMPLES:
        raise ResourceLimitError(f"{m.shape[0]} samples are over the {MAX_SAMPLES} limit")
    return m


def gaussian_gram(x, cfg: HsicConfig = HsicConfig()) -> np.ndarray:
    """Gram matrix with entries exp(-||x_i - x_j||^2 / (2 sigma^2))."""
    m = _as_matrix(x)
    sq = (m * m).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (m @ m.T)
    np.clip(d2, 0.0, None, out=d2)
    d2 = (d2 + d2.T) / 2.0  # enforce exact symmetry
    k = np.exp(-d2 / (2.0 * cfg.sigma**2))
    np.fill_diagonal(k, 1.0)
    return k


def _center(k: np.ndarray) -> np.ndarray:
    # H K H without materializing H
    row = k.mean(axis=0, keepdims=True)
    col = k.mean(axis=1, keepdims=True)
    return k - row - col + k.mean()


def _centered_grams(x, y, cfg: HsicConfig) -> tuple[np.ndarray, np.ndarray]:
    mx = _as_matrix(x)
    my = _as_matrix(y)
    if mx.shape[0] != my.shape[0]:
        raise ValidationError(
            f"row counts differ: {mx.shape[0]} vs {my.shape[0]}"
        )
    return _center(gaussian_gram(mx, cfg)), _center(gaussian_gram(my, cfg))


def _statistic(kc: np.ndarray, lc: np.ndarray) -> float:
    # sum(Kc * Lc) / (n-1)^2 as one einsum, clamped at 0 against negative
    # rounding residue
    n = kc.shape[0]
    return max(float(np.einsum("ij,ij->", kc, lc)) / (n - 1) ** 2, 0.0)


def hsic(x, y, cfg: HsicConfig = HsicConfig()) -> float:
    """Biased HSIC estimate between paired samples, clamped at 0."""
    return _statistic(*_centered_grams(x, y, cfg))


def per_token_hsic(value: float, mean_length: float) -> float:
    """Normalize a dependence value by a mean token length."""
    if not mean_length > 0:
        raise ValidationError(f"mean_length must be positive, got {mean_length!r}")
    return value / mean_length


def permutation_null(
    x, y, cfg: HsicConfig = HsicConfig(), count: int = 1000, seed: int = 0
) -> tuple[float, np.ndarray]:
    """The observed ``hsic`` statistic and its null distribution under row
    shuffles of y, from one build of the centered kernels. Each null value is
    the statistic on Kc and Lc[perm][:, perm], so the identity permutation
    gives the observed value bit for bit.
    """
    at_least(count, 1, "count")
    if count > MAX_PERMUTATIONS:
        raise ResourceLimitError(f"{count} permutations are over the {MAX_PERMUTATIONS} limit")
    at_least(seed, 0, "seed")
    kc, lc = _centered_grams(x, y, cfg)
    rng = np.random.default_rng(seed)
    # Gather into reused buffers (a fresh n x n array can page-fault on every
    # 4 KiB); "clip" lets take write to out unbuffered, and perm is in range.
    rows = np.empty_like(lc)
    shuffled = np.empty_like(lc)
    out = np.empty(count, dtype=np.float64)
    for i in range(count):
        perm = rng.permutation(kc.shape[0])
        lc.take(perm, axis=0, out=rows, mode="clip")
        rows.take(perm, axis=1, out=shuffled, mode="clip")
        out[i] = _statistic(kc, shuffled)
    return _statistic(kc, lc), out


def _r2(y: np.ndarray, pred: np.ndarray) -> float:
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else float("-inf")
    return 1.0 - ss_res / ss_tot


def fit_decay(points) -> tuple[FitResult, FitResult]:
    """Fit y = a*exp(-c*x) (least squares on ln y over positive-y points) and
    y = a + b*x (ordinary least squares) to (x, y) pairs; both r2 values are
    computed in the original y space over all points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError("points must be an m x 2 array of (x, y)")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points must be finite")
    x, y = pts[:, 0], pts[:, 1]
    if len(np.unique(x)) < 3:
        raise ValidationError(f"need >= 3 distinct x values, got {len(np.unique(x))}")

    pos = y > 0
    if pos.sum() < 3:
        raise ValidationError(
            f"exponential fit needs >= 3 positive-y points, got {int(pos.sum())}"
        )
    slope, intercept = np.polyfit(x[pos], np.log(y[pos]), 1)
    a_exp, c_exp = math.exp(intercept), -slope
    exp_r2 = _r2(y, a_exp * np.exp(-c_exp * x))
    exp_fit = FitResult("exponential_decay", (a_exp, c_exp), exp_r2)

    b_lin, a_lin = np.polyfit(x, y, 1)
    lin_r2 = _r2(y, a_lin + b_lin * x)
    return exp_fit, FitResult("linear", (float(a_lin), float(b_lin)), lin_r2)
