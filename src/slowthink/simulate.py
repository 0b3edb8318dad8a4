"""Monte Carlo simulation of search strategies over a synthetic
step-correctness process.

Process model: the step sampled at depth l is correct with the decay model's
probability if and only if its parent step is correct; every descendant of an
incorrect step is incorrect (errors are irreversible). A trial succeeds when
the strategy's selected final path has all of its steps correct.

Selection semantics: ideal/constant selectors act as a single Bernoulli event
per selection, conditioned on a correct candidate existing, and a failed
selection derails the retained set; noisy-score selectors act mechanistically
through sampled scores (margin for correct candidates plus Gaussian noise).
Sibling candidates are sampled independently given their shared parent.

``monte_carlo_batch`` is the one entry point to the vectorized engines;
``monte_carlo`` is a batch of one run. It processes trials in fixed-size
blocks, each drawing from its own counter-based stream keyed by (master_seed,
block index), and sums integer successes, so results are bit-identical for
fixed inputs whatever thread draws a block or the order blocks finish in.
Blocks of runs that draw noise (noisy-score selectors, score noise,
self-consistency) go to one thread pool, a worker per usable CPU up to
MAX_WORKERS, built when the first such run arrives; the others are drawn on
the calling thread. Peak memory is up to one block per worker; the widest
measured blocks, at the 10^6 width limit, take about 32 MiB. A trial whose
candidates are all wrong has failed, so after each layer an engine keeps only
the trials still open. Every engine keeps them as a sparse histogram by
correct count and draws each layer's counts through ``_draw_counts``; a
constant pick keeps Bin(h, eps) of the h trials at a count. Only noisy picks
and vote tallies expand the histogram into trials, in ascending count order:
``models._noisy_hits`` lays out a pick's rows from the counts, correct cells
first, as a pick treats columns alike, and a pick without score noise draws
nothing. ``exact_success`` computes the same success probabilities exactly,
as small Markov chains over correct-candidate counts, and is the independent
reference the engines are tested against.

Everything that varies by strategy kind is one row of ``_REGISTRY``, and by
selector kind one row of ``models._SELECTOR_ROWS``: the engines keep
candidates with its engine keep, and the exact chains with its kernel.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as _bounds, models as _models
from .errors import (
    Kinds, PreconditionError, ResourceLimitError, ValidationError, at_least, checked_number,
)
from .models import (
    NOISY_SCORE, AnswerModel, DecayModel, SelectorModel, _BLOCK_CELLS, _SELECTOR_ROWS,
    _check_cells, _noisy_hits, _tally, _top_correct, step_correct_prob,
)

SINGLE_PATH = "single_path"
BON = "bon"
BEAM = "beam"
MCTS_BEST = "mcts_best"
MCTS_WORST = "mcts_worst"
LOOKAHEAD = "lookahead"

SELF_CONSISTENCY = "self_consistency"
ORM_VOTE = "orm_vote"
ORM_MAX = "orm_max"
_RULES = (SELF_CONSISTENCY, ORM_VOTE, ORM_MAX)

# monte_carlo refuses a strategy whose per-trial arrays (tree leaves, paths,
# candidates or answer labels) are wider than this.
NODE_LIMIT = 10**6

# Trials per block in monte_carlo; blocks shrink when per-trial arrays are wide.
BLOCK_TRIALS = 32_768
MAX_WORKERS = 4  # most threads drawing blocks at once; each holds one block
_pool = None  # built on first use

Z95 = 1.959963984540054  # normal 97.5% quantile

# Values StrategySpec.from_config supplies for parameters a config leaves out.
_DEFAULTS = {"rule": ORM_MAX, "gamma": 0}


@dataclass(frozen=True)
class ProcessConfig:
    """Synthetic generation process shared by all strategies."""

    decay: DecayModel
    selector: SelectorModel = SelectorModel.ideal()
    answer: AnswerModel = AnswerModel(1)
    L: int = 1
    score_noise_std: float = 0.0

    def __post_init__(self) -> None:
        L = checked_number(self.L, "L", int)
        object.__setattr__(self, "L", at_least(L, 1, "L"))
        std = checked_number(self.score_noise_std, "score_noise_std")
        object.__setattr__(self, "score_noise_std", at_least(std, 0, "score_noise_std"))
        limit = self.decay.depth_limit
        if limit is not None and limit < self.L:
            raise ValidationError(
                f"tabulated decay covers depths 1..{limit} but L={self.L}"
            )

    @classmethod
    def from_config(cls, cfg: dict) -> "ProcessConfig":
        return cls(
            decay=DecayModel.from_config(cfg.get("decay", {"lambda_tau": 1.0})),
            selector=SelectorModel.from_config(cfg.get("selector", {})),
            answer=AnswerModel.from_config(cfg.get("answer", {})),
            L=cfg.get("L", 1),
            score_noise_std=cfg.get("score_noise_std", 0.0),
        )


@dataclass(frozen=True)
class StrategySpec:
    """Parametrized search strategy."""

    kind: str
    N: int | None = None
    rule: str | None = None
    k: int | None = None
    b: int | None = None
    gamma: int | None = None

    def __post_init__(self) -> None:
        params = _STRATEGIES.taken(self)
        for name, least in (("N", 1), ("k", 1), ("b", 1), ("gamma", 0)):
            if name in params:
                v = getattr(self, name)
                v = None if v is None else checked_number(v, name, int)
                if v is None or v < least:
                    raise ValidationError(
                        f"{self.kind} requires {name} >= {least}, got {v!r}"
                    )
                object.__setattr__(self, name, v)
        if "rule" in params and self.rule not in _RULES:
            raise ValidationError(f"bon rule must be one of {_RULES}, got {self.rule!r}")
        if "k" in params and self.k < self.b:
            raise ValidationError(f"beam requires k >= b, got k={self.k}, b={self.b}")

    @classmethod
    def single_path(cls) -> "StrategySpec":
        return cls(kind=SINGLE_PATH)

    @classmethod
    def bon(cls, N: int, rule: str = ORM_MAX) -> "StrategySpec":
        return cls(kind=BON, N=N, rule=rule)

    @classmethod
    def beam(cls, k: int, b: int) -> "StrategySpec":
        return cls(kind=BEAM, k=k, b=b)

    @classmethod
    def mcts_best(cls, b: int) -> "StrategySpec":
        return cls(kind=MCTS_BEST, b=b)

    @classmethod
    def mcts_worst(cls, b: int) -> "StrategySpec":
        return cls(kind=MCTS_WORST, b=b)

    @classmethod
    def lookahead(cls, b: int, gamma: int) -> "StrategySpec":
        return cls(kind=LOOKAHEAD, b=b, gamma=gamma)

    @classmethod
    def from_config(cls, cfg: dict) -> "StrategySpec":
        """Spec from a config section: ``kind`` plus the parameters that kind
        takes; a parameter the kind does not take is rejected."""
        return _STRATEGIES.build(cls, cfg, _DEFAULTS)

    def describe(self) -> str:
        params = _STRATEGIES.params[self.kind]
        return " ".join([self.kind, *(f"{name}={getattr(self, name)}" for name in params)])


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    mean_steps: float
    mean_calls: float

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.trials:
            raise ValidationError("successes outside 0..trials")
        if not (
            0.0 <= self.ci_low <= self.estimate <= self.ci_high <= 1.0
        ):
            raise ValidationError("confidence interval must bracket the estimate")

    @classmethod
    def of(cls, successes: int, trials: int, steps, calls) -> "MonteCarloReport":
        """Report with a Wilson 95% interval and per-trial steps and calls."""
        lo, hi = wilson_interval(successes, trials)
        return cls(trials, successes, successes / trials, lo, hi, float(steps), float(calls))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Score-based binomial 95% confidence interval, well behaved at 0 and 1."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValidationError(f"bad counts: {successes}/{trials}")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # the boundary endpoints are exactly 0 and 1; don't let rounding residue
    # in center-half push them past the estimate
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _step_probs(cfg: ProcessConfig, depth: int) -> list[float]:
    return [step_correct_prob(cfg.decay, l) for l in range(1, depth + 1)]


# ---------------------------------------------------------------------------
# Vectorized block engines
# ---------------------------------------------------------------------------


def _draw_counts(rng, mult, fed, p: float):
    """Occupied correct counts c > 0, ascending, and the trials at each, when
    mult[i] open trials each draw Bin(fed[i], p). While the trials outnumber
    the sum(fed + 1) cells, a group's m draws tally to one Multinomial(m,
    Bin(f, p) pmf); otherwise they are m binomials, sized by the trials."""
    ms, fs = mult.tolist(), fed.tolist()
    if sum(ms) <= sum(fs) + len(fs):
        return _tally(np.concatenate([fed[:0], *(rng.binomial(f, p, m) for m, f in zip(ms, fs))]))
    hist = np.zeros(max(fs) + 1, dtype=np.int64)
    for m, f in zip(ms, fs):
        hist[: f + 1] += rng.multinomial(m, _pmf_row(f, p))
    c = np.flatnonzero(hist[1:]) + 1
    return c, hist[c]


def _sim_single(cfg, strategy, probs, n, rng) -> int:
    for p in probs:
        n = int(_draw_counts(rng, np.array([n]), np.array([1]), p)[1].sum())
    return n


def _sim_bon(cfg, strategy, probs, n, rng) -> int:
    N, rule, std = strategy.N, strategy.rule, cfg.score_noise_std
    # correct paths per open trial: paths are independent, each correct with
    # the product of its step probabilities
    c, m = _draw_counts(rng, np.array([n]), np.array([N]), math.prod(probs))
    if rule != SELF_CONSISTENCY and std == 0:
        # without score noise orm_max picks a correct path, and orm_vote
        # label 0, whenever one exists
        return int(m.sum())
    c = np.repeat(c, m)  # per trial, in ascending order of c
    if rule == ORM_MAX:
        return int(_noisy_hits(rng, c, N, 1.0, std).sum())
    width = cfg.answer.answer_space_size + 1
    # correct paths answer label 0; only the wrong ones draw a label, row by row
    wrong = N - c
    labels = rng.integers(1, width, int(wrong.sum()), dtype=np.int32)
    # one chunk of rows holds at most N labels and a + 1 tallies per row
    step = max(1, _models._CHUNK_CELLS // max(N, width))
    wins = 0
    for start, chunk in zip(range(0, len(c), step),
                            np.split(labels, np.cumsum(wrong)[step - 1 :: step])):
        held = c[start : start + step]
        # per-(trial, label) counts: bincount over the flattened cell index
        owner = np.repeat(width * np.arange(len(held)), wrong[start : start + step])
        counts = np.bincount(chunk + owner, minlength=len(held) * width)
        counts[::width] = held
        live = np.flatnonzero(counts)  # only a label holding a vote can win, and draws
        tally = np.full(counts.size, -np.inf)
        if rule == ORM_VOTE:
            # v path scores std * Z, plus 1 each at label 0, sum to N(v [label 0], v std^2)
            tally[live] = std * np.sqrt(counts[live]) * rng.standard_normal(live.size)
            tally[::width] += held
        else:
            # sub-unit jitter breaks count ties uniformly at random
            tally[live] = counts[live] + 0.5 * rng.random(live.size)
        wins += int((tally.reshape(-1, width).argmax(axis=1) == 0).sum())
    return wins


def _fed_candidates(k: int, b: int, alive):
    # Candidates are dealt round-robin over beams 0..b-1; surviving beams
    # occupy the lowest indices, so `alive` beams feed this many candidates.
    full, rem = divmod(k, b)
    return alive * full + np.minimum(rem, alive)


def _sim_beam(cfg, k, b, probs, n, rng) -> int:
    sel = cfg.selector
    keep = _SELECTOR_ROWS[sel.kind].keep
    # open trials per alive-beam count; the root feeds all k candidates, as b do
    alive, m = np.array([b]), np.array([n])
    for p in probs:
        alive, m = keep(sel, rng, *_draw_counts(rng, m, _fed_candidates(k, b, alive), p), k, b)
    return int(keep(sel, rng, alive, m, b, 1)[1].sum())


def _sim_mcts_worst(cfg, strategy, probs, n, rng) -> int:
    b, sel = strategy.b, cfg.selector
    keep = _SELECTOR_ROWS[sel.kind].keep
    c, m = np.array([1]), np.array([n])  # open trials per correct-node count of the deepest layer
    for depth, p in enumerate(probs, start=1):
        # a layer's pick of one node must be correct; then every correct node goes on
        c, m = keep(sel, rng, *_draw_counts(rng, m, b * c, p), b**depth, None)
    return int(m.sum())


def _sim_lookahead(cfg, strategy, probs, n, rng) -> int:
    b, gamma = strategy.b, strategy.gamma
    margin, std = _SELECTOR_ROWS[cfg.selector.kind].score(cfg.selector, cfg.score_noise_std)
    for l in range(1, cfg.L + 1):
        # m[i] open trials have a[i] > 0 A candidates: correct, with a correct
        # rollout. A pick off them (every pick at a = 0) falls uniformly on one
        # of the b - a others, each correct with chance q given it is not A
        p, r = probs[l - 1], math.prod(probs[l : l + gamma])
        a, m = _draw_counts(rng, np.array([n]), np.array([b]), p * r)
        hits = int(_noisy_hits(rng, np.repeat(a, m), b, margin, std).sum() if std else m.sum())
        q = p * (1 - r) / (1 - p * r) if p * r < 1 else 0.0
        n = hits + int(rng.binomial(n - hits, q))
    return n


# ---------------------------------------------------------------------------
# Exact success probabilities
# ---------------------------------------------------------------------------

_LOG_FACT = np.zeros(1)  # lgamma(i + 1) for i = 0.., never written in place


def _log_factorials(n: int) -> np.ndarray:
    """log(i!) for i = 0..n at least. Pool threads read the table, so it
    grows by binding a longer copy."""
    global _LOG_FACT
    table = _LOG_FACT
    if table.size <= n:
        grown = [math.lgamma(i + 1.0) for i in range(table.size, n + 1)]
        table = _LOG_FACT = np.append(table, grown)
    return table


def _binom_pmf(n, p: float, support: int) -> np.ndarray:
    """P(Bin(n, p) = j) for j = 0..support, one row per entry of ``n``."""
    n = np.asarray(n, dtype=np.int64)[:, None]
    _check_cells(n.size * (support + 1))
    j = np.arange(support + 1)
    rest = np.maximum(n - j, 0)
    log_fact = _log_factorials(max(int(n.max()), support))
    # 0 * log 0 = 0: a count of zero contributes nothing even at p in {0, 1}
    log_p = math.log(p) if p > 0.0 else -math.inf
    log_q = math.log1p(-p) if p < 1.0 else -math.inf
    with np.errstate(invalid="ignore"):
        log_pmf = (
            log_fact[n] - log_fact[j] - log_fact[rest]
            + np.where(j > 0, j * log_p, 0.0) + np.where(rest > 0, rest * log_q, 0.0)
        )
    return np.where(j <= n, np.exp(log_pmf), 0.0)


@functools.lru_cache(maxsize=64)
def _pmf_row(f: int, p: float) -> np.ndarray:
    # numpy's multinomial refuses a sum past 1 + 1e-12; every block shares it
    row = _binom_pmf([f], p, f)[0]
    row /= row.sum()
    row.flags.writeable = False
    return row


def _plurality_win(c: int, n: int, a: int) -> float:
    """Chance that label 0 with c votes wins a plurality vote with uniform
    tie-breaking when n wrong votes fall uniformly on a wrong labels. A label
    holding j <= c votes weighs x**j / j! (x = n / a); f[v, t] is the weight
    of the labels so far holding v votes, t of them tied with label 0, and
    n! / n**n times the final weight is the multinomial probability."""
    if c == 0:
        return 0.0
    x = n / a
    weight = [x**j / math.factorial(j) for j in range(min(c, n) + 1)]
    _check_cells((n + 1) * (n // c + 2))
    f = np.zeros((n + 1, n // c + 2))
    f[0, 0] = 1.0
    for _ in range(a):
        g = np.zeros_like(f)
        for j, wj in enumerate(weight):
            if j == c:
                g[j:, 1:] += wj * f[: n + 1 - j, :-1]
            else:
                g[j:] += wj * f[: n + 1 - j]
        f = g
    ties = np.arange(f.shape[1])
    return math.factorial(n) / n**n * float(f[n] @ (1 / (1 + ties)))


def _exact_bon(cfg, strategy) -> float | None:
    # c of N paths are correct; label 0 collects their votes and scores
    N, std = strategy.N, cfg.score_noise_std
    c = np.arange(N + 1)
    if strategy.rule == SELF_CONSISTENCY:
        a = cfg.answer.answer_space_size
        win = np.array([_plurality_win(int(ci), N - int(ci), a) for ci in c])
    elif strategy.rule == ORM_MAX or std == 0:
        # without score noise orm_vote picks label 0 exactly when orm_max
        # picks a correct path: whenever c > 0
        win = _top_correct(c, N, 1.0, std)
    else:
        return None  # orm_vote: per-label sums of noisy scores, no tractable form
    return float(_binom_pmf([N], math.prod(_step_probs(cfg, cfg.L)), N)[0] @ win)


def _exact_beam(cfg, k: int, b: int) -> float | None:
    """Chain over the alive-beam count 0..b, where alive = 0 is absorbing and
    fails; None where the selector has no kernel for top b of k."""
    sel = cfg.selector
    kernel = _SELECTOR_ROWS[sel.kind].kernel
    keep = kernel(sel, k, b)
    if keep is None:
        return None
    alive = np.arange(b + 1)
    dist = (alive == b).astype(float)
    for p in _step_probs(cfg, cfg.L):
        dist = (dist @ _binom_pmf(_fed_candidates(k, b, alive), p, k)) @ keep
    # a contiguous column: a strided one sums the dot product in another order
    return float(dist @ kernel(sel, b, 1)[:, 1].copy())


def _exact_mcts_worst(cfg, strategy) -> float:
    b, sel = strategy.b, cfg.selector
    row = _SELECTOR_ROWS[sel.kind]
    probs = _step_probs(cfg, cfg.L)
    if not row.draws:
        # a pick without score draws succeeds with eps whatever the counts, so
        # every layer needs a correct node and then one selection event;
        # s is the chance a correct node's subtree holds a correct leaf, by
        # the branching-process recursion s_l = 1 - (1 - p s_{l+1})**b
        s = 1.0
        for p in reversed(probs):
            s = -math.expm1(b * math.log1p(-p * s)) if p * s < 1 else 1.0
        return s * row.eps(sel, b) ** cfg.L
    # forward over the correct count c at each layer: c_l ~ Bin(b c_{l-1}, p_l),
    # weighted by the chance the layer's selection picks a correct node
    dist = np.array([0.0, 1.0])
    for depth, p in enumerate(probs, start=1):
        width = b**depth
        pick = row.kernel(sel, width, 1)[:, 1]
        dist = (dist @ _binom_pmf(b * np.arange(dist.size), p, width)) * pick
    return float(dist.sum())


def _exact_lookahead(cfg, strategy) -> float:
    """Product over layers of the chance of committing a correct candidate.
    A candidate is A (it and its rollout correct, prob p r), B (correct,
    rollout wrong) or wrong. The pick is an A with chance w(n_A, b), else
    uniform over the b - n_A others: a B with mean chance q given n_A."""
    b, gamma = strategy.b, strategy.gamma
    margin, std = _SELECTOR_ROWS[cfg.selector.kind].score(cfg.selector, cfg.score_noise_std)
    n_a = np.arange(b + 1)
    w = _top_correct(n_a, b, margin, std)
    total = 1.0
    for l in range(1, cfg.L + 1):
        p = step_correct_prob(cfg.decay, l)
        r = math.prod(step_correct_prob(cfg.decay, l + j) for j in range(1, gamma + 1))
        q = p * (1 - r) / (1 - p * r) if p * r < 1 else 0.0
        value = np.where(n_a == b, 1.0, w + (1 - w) * q)
        total *= float(_binom_pmf([b], p * r, b)[0] @ value)
    return total


# ---------------------------------------------------------------------------
# Strategy registry and entry points
# ---------------------------------------------------------------------------


def _beam_selector(cfg: ProcessConfig, k: int, b: int) -> SelectorModel:
    """The selector a beam bound is evaluated with. At k = b a noisy-score
    pick over c >= 2 correct candidates beats the paper's eps_b (one correct
    against b - 1 wrong), so that bound can fall below the true value; the
    ideal-selector form always dominates and is used instead."""
    if cfg.selector.kind == NOISY_SCORE and k == b:
        return SelectorModel.ideal()
    return cfg.selector


class _Kind(NamedTuple):
    """Everything that varies by strategy kind."""

    params: tuple[str, ...]  # StrategySpec fields and config keys
    budget: Callable  # (cfg, spec) -> per-trial (steps, model calls)
    width: Callable  # (cfg, spec) -> widest per-trial engine array
    engine: Callable  # (cfg, spec, p_1..p_{L+gamma}, n, rng) -> successes in n trials
    exact: Callable  # (cfg, spec) -> success probability, None if intractable
    bound: Callable | None  # (cfg, spec) -> closed-form upper bound


_REGISTRY = {
    SINGLE_PATH: _Kind(
        (), lambda c, s: (c.L, 1), lambda c, s: 1, _sim_single,
        lambda c, s: math.prod(_step_probs(c, c.L)),
        lambda c, s: _bounds.single_path_bound(c.decay, c.L),
    ),
    BON: _Kind(
        ("N", "rule"), lambda c, s: (s.N * c.L, s.N),
        # orm_max reads only its N paths; the votes also tally a + 1 labels
        lambda c, s: s.N if s.rule == ORM_MAX else max(s.N, c.answer.answer_space_size + 1),
        _sim_bon, _exact_bon,
        # the engine picks by ORM scores and never consults cfg.selector, so
        # the paper's eps_N factor does not apply: bound it as ideal
        lambda c, s: _bounds.bon_bound(c.decay, SelectorModel.ideal(), c.L, s.N),
    ),
    BEAM: _Kind(
        ("k", "b"), lambda c, s: (s.k * c.L,) * 2, lambda c, s: s.k,
        lambda c, s, probs, n, rng: _sim_beam(c, s.k, s.b, probs, n, rng),
        lambda c, s: _exact_beam(c, s.k, s.b),
        lambda c, s: _bounds.width_expansion_bound_exact(
            c.decay, _beam_selector(c, s.k, s.b), c.L, s.k, s.b
        ),
    ),
    MCTS_BEST: _Kind(
        ("b",), lambda c, s: (s.b * c.L,) * 2, lambda c, s: s.b,
        lambda c, s, probs, n, rng: _sim_beam(c, s.b, s.b, probs, n, rng),
        lambda c, s: _exact_beam(c, s.b, s.b),
        lambda c, s: _bounds.mcts_best_bound(c.decay, _beam_selector(c, s.b, s.b), c.L, s.b),
    ),
    MCTS_WORST: _Kind(
        ("b",), lambda c, s: (sum(s.b**l for l in range(1, c.L + 1)),) * 2,
        lambda c, s: s.b**c.L, _sim_mcts_worst, _exact_mcts_worst,
        lambda c, s: _bounds.mcts_worst_bound(c.decay, c.selector, c.L, s.b),
    ),
    LOOKAHEAD: _Kind(
        ("b", "gamma"), lambda c, s: (c.L * s.b * (1 + s.gamma),) * 2,
        lambda c, s: s.b, _sim_lookahead, _exact_lookahead, None,
    ),
}
_STRATEGIES = Kinds("strategy", {kind: row.params for kind, row in _REGISTRY.items()}, "{}")


def monte_carlo(
    cfg: ProcessConfig, strategy: StrategySpec, trials: int, master_seed: int
) -> MonteCarloReport:
    """Run independent trials of a strategy and aggregate successes with a
    Wilson 95% interval and exact budget accounting. Output is bit-identical
    for fixed (cfg, strategy, trials, master_seed)."""
    return monte_carlo_batch([(cfg, strategy, trials, master_seed)])[0]


def monte_carlo_batch(runs: list) -> list[MonteCarloReport]:
    """``monte_carlo`` of each (cfg, strategy, trials, master_seed) run. Every
    run is checked before any block is drawn. Block b of a run holds the next
    BLOCK_TRIALS trials, fewer when a row is wide, and draws from the stream
    keyed by (master_seed, b). Runs that draw noise send their blocks to one
    thread pool, built on the first such run, at most 2 * MAX_WORKERS of them
    at a time; the calling thread draws the rest."""
    global _pool
    args, rows = [], []
    for cfg, strategy, trials, master_seed in runs:
        width = _REGISTRY[strategy.kind].width(cfg, strategy)
        if width > NODE_LIMIT:
            raise ResourceLimitError(f"{strategy.describe()} needs per-trial arrays {width}"
                                     f" wide, over the {NODE_LIMIT} limit")
        at_least(trials, 1, "trials")
        at_least(master_seed, 0, "seed")
        args.append((cfg, strategy, _step_probs(cfg, cfg.L + (strategy.gamma or 0))))
        rows.append(int(min(BLOCK_TRIALS, max(1, _BLOCK_CELLS // width))))
    successes, pending = [0] * len(runs), []
    try:
        for i, (cfg, strategy, trials, master_seed) in enumerate(runs):
            engine = _REGISTRY[strategy.kind].engine
            # only a noise draw expands count histograms into per-trial rows
            pooled = (_SELECTOR_ROWS[cfg.selector.kind].draws or cfg.score_noise_std > 0
                      or strategy.rule == SELF_CONSISTENCY)
            if pooled and _pool is None:
                from concurrent.futures import ThreadPoolExecutor
                cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
                _pool = ThreadPoolExecutor(min(MAX_WORKERS, cpus or os.cpu_count() or 1))
            for b, start in enumerate(range(0, trials, rows[i])):
                block = (engine, args[i], min(rows[i], trials - start),
                         np.random.SeedSequence((master_seed, b)))
                if not pooled:
                    successes[i] += _run_block(*block)
                    continue
                if len(pending) == 2 * MAX_WORKERS:
                    j, done = pending.pop(0)
                    successes[j] += done.result()
                pending.append((i, _pool.submit(_run_block, *block)))
        for j, done in pending:
            successes[j] += done.result()
    finally:
        for _, future in pending:
            future.cancel()
    return [MonteCarloReport.of(n, trials, *_REGISTRY[spec.kind].budget(cfg, spec))
            for n, (cfg, spec, trials, _) in zip(successes, runs)]


def _run_block(engine, args, size: int, seq) -> int:
    return engine(*args, size, np.random.Generator(np.random.Philox(seq)))


def exact_success(cfg: ProcessConfig, strategy: StrategySpec) -> float | None:
    """Exact success probability of the process ``monte_carlo`` samples.

    None where no tractable form exists: beam search with a noisy-score
    selector and k > b > 1 (top-b selection over noisy scores), and orm_vote
    Best-of-N with score noise above 0 (sums of noisy scores per label)."""
    return _REGISTRY[strategy.kind].exact(cfg, strategy)


def verify_bounds(report: MonteCarloReport, bound: float) -> bool:
    """True when an estimate does not statistically exceed its upper bound:
    the Wilson lower limit must not pass the bound."""
    return report.ci_low <= at_least(bound, 0, "bound")


def matching_bound(cfg: ProcessConfig, strategy: StrategySpec) -> float | None:
    """Closed-form upper bound paired with a strategy, or None when the
    strategy has no success bound (lookahead) or its bound is undefined for
    the decay model (simplified forms under tabulated decay or lambda > e)."""
    bound = _REGISTRY[strategy.kind].bound
    try:
        return None if bound is None else bound(cfg, strategy)
    except PreconditionError:
        return None
