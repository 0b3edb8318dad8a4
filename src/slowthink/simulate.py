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

``monte_carlo`` aggregates trials through vectorized engines: trials are
processed in fixed-size blocks, each drawing from its own counter-based
stream keyed by (master_seed, block index), so results are bit-identical for
fixed inputs and independent of execution order. The ``run_*`` functions are
the single-trial reference implementations of the same process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as _bounds
from .errors import (
    PreconditionError,
    RangeError,
    ResourceLimitError,
    ValidationError,
    checked_number,
    checked_section,
)
from .models import (
    IDEAL,
    NOISY_SCORE,
    AnswerModel,
    DecayModel,
    SelectorModel,
    WrongModel,
    selector_success_prob,
    step_correct_prob,
    validate_decay,
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

# Complete-tree simulation refuses to materialize more nodes than this.
NODE_LIMIT = 10**6

# Trials per block in monte_carlo; blocks shrink when per-trial arrays are wide.
BLOCK_TRIALS = 32_768
_BLOCK_CELLS = 1 << 23

Z95 = 1.959963984540054  # normal 97.5% quantile

# Parameters each strategy kind takes: StrategySpec fields and config keys.
_PARAMS = {
    SINGLE_PATH: (),
    BON: ("N", "rule"),
    BEAM: ("k", "b"),
    MCTS_BEST: ("b",),
    MCTS_WORST: ("b",),
    LOOKAHEAD: ("b", "gamma", "count_rollout_steps"),
}
# Values StrategySpec.from_config supplies for parameters a config leaves out.
_DEFAULTS = {"rule": ORM_MAX, "gamma": 0, "count_rollout_steps": True}


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
        if L < 1:
            raise ValidationError(f"L must be >= 1, got {L!r}")
        object.__setattr__(self, "L", L)
        if self.score_noise_std < 0:
            raise ValidationError(
                f"score_noise_std must be >= 0, got {self.score_noise_std!r}"
            )
        problem = validate_decay(self.decay)
        if problem is not None:
            raise ValidationError(f"decay model invalid: {problem}")
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
            score_noise_std=checked_number(
                cfg.get("score_noise_std", 0.0), "score_noise_std"
            ),
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
    count_rollout_steps: bool = True

    def __post_init__(self) -> None:
        params = _PARAMS.get(self.kind)
        if params is None:
            raise ValidationError(
                f"strategy kind must be one of {tuple(_PARAMS)}, got {self.kind!r}"
            )
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
    def lookahead(
        cls, b: int, gamma: int, count_rollout_steps: bool = True
    ) -> "StrategySpec":
        return cls(
            kind=LOOKAHEAD, b=b, gamma=gamma, count_rollout_steps=count_rollout_steps
        )

    @classmethod
    def from_config(cls, cfg: dict) -> "StrategySpec":
        """Spec from a config section: ``kind`` plus the parameters that kind
        takes; a parameter the kind does not take is rejected."""
        kind = checked_section(cfg, "strategy").get("kind")
        params = _PARAMS.get(kind, ())
        stray = sorted(set(cfg) - {"kind", *params})
        if kind in _PARAMS and stray:
            raise ValidationError(
                f"{kind} takes no parameter {', '.join(stray)}; "
                f"its parameters are {', '.join(params) or 'none'}"
            )
        return cls(kind, **{name: cfg.get(name, _DEFAULTS.get(name)) for name in params})

    def describe(self) -> str:
        parts = [self.kind]
        for name in ("N", "rule", "k", "b", "gamma"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v}")
        return " ".join(parts)


@dataclass(frozen=True)
class TrialResult:
    success: bool
    steps_generated: int
    model_calls: int

    def __post_init__(self) -> None:
        if self.steps_generated < 0 or self.model_calls < 1:
            raise ValidationError("invalid trial accounting")


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    mean_steps: float
    mean_calls: float
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.trials:
            raise ValidationError("successes outside 0..trials")
        if not (
            0.0 <= self.ci_low <= self.estimate <= self.ci_high <= 1.0
        ):
            raise ValidationError("confidence interval must bracket the estimate")


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Score-based binomial confidence interval, well behaved at 0 and 1."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValidationError(f"bad counts: {successes}/{trials}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # the boundary endpoints are exactly 0 and 1; don't let rounding residue
    # in center-half push them past the estimate
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def steps_and_calls(cfg: ProcessConfig, strategy: StrategySpec) -> tuple[int, int]:
    """Deterministic per-trial budget: generated steps and model calls.

    Tree strategies pay one call per generated step; Best-of-N pays one call
    per full path.
    """
    L = cfg.L
    if strategy.kind == SINGLE_PATH:
        return L, 1
    if strategy.kind == BON:
        return strategy.N * L, strategy.N
    if strategy.kind == BEAM:
        return strategy.k * L, strategy.k * L
    if strategy.kind == MCTS_BEST:
        return strategy.b * L, strategy.b * L
    if strategy.kind == MCTS_WORST:
        total = sum(strategy.b**l for l in range(1, L + 1))
        return total, total
    per_layer = strategy.b * (1 + strategy.gamma if strategy.count_rollout_steps else 1)
    return L * per_layer, L * per_layer


def _step_probs(cfg: ProcessConfig, depth: int) -> list[float]:
    return [step_correct_prob(cfg.decay, l) for l in range(1, depth + 1)]


def _score_params(cfg: ProcessConfig) -> tuple[float, float]:
    # Mechanistic scoring: noisy-score selectors carry their own margin and
    # noise; otherwise score the correctness indicator with the process noise.
    if cfg.selector.kind == NOISY_SCORE:
        return cfg.selector.margin, cfg.selector.noise_std
    return 1.0, cfg.score_noise_std


def _alive_candidate_count(k: int, b: int, alive: int) -> int:
    # Candidates are dealt round-robin over beams 0..b-1; surviving beams
    # occupy the lowest indices.
    full, rem = divmod(k, b)
    return alive * full + min(rem, alive)


# ---------------------------------------------------------------------------
# Single-trial reference implementations
# ---------------------------------------------------------------------------


def run_single_path(cfg: ProcessConfig, rng: np.random.Generator) -> TrialResult:
    """Sample one unassisted path of length L."""
    ok = True
    for p in _step_probs(cfg, cfg.L):
        ok = bool(rng.random() < p) and ok
    return TrialResult(ok, cfg.L, 1)


def run_bon(
    cfg: ProcessConfig, N: int, rule: str, rng: np.random.Generator
) -> TrialResult:
    """Sample N independent full paths and select by the given rule.

    Correct paths carry the answer label 0; incorrect paths land uniformly on
    one of the wrong labels. Path scores are the correctness indicator plus
    Gaussian noise of std ``score_noise_std``.
    """
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    if rule not in _RULES:
        raise ValidationError(f"unknown rule {rule!r}")
    probs = _step_probs(cfg, cfg.L)
    path_ok = np.ones(N, dtype=bool)
    for p in probs:
        path_ok &= rng.random(N) < p
    a = cfg.answer.answer_space_size
    labels = rng.integers(1, a + 1, size=N)
    labels[path_ok] = 0
    scores = path_ok + cfg.score_noise_std * rng.standard_normal(N)

    if rule == ORM_MAX:
        success = bool(path_ok[int(np.argmax(scores))])
    elif rule == ORM_VOTE:
        sums = np.full(a + 1, -np.inf)
        for lab, s in zip(labels, scores):
            if np.isinf(sums[lab]):
                sums[lab] = 0.0
            sums[lab] += s
        success = int(np.argmax(sums)) == 0
    else:
        counts = np.bincount(labels, minlength=a + 1)
        top = np.flatnonzero(counts == counts.max())
        success = int(rng.choice(top)) == 0
    return TrialResult(success, N * cfg.L, N)


def run_beam(
    cfg: ProcessConfig, k: int, b: int, rng: np.random.Generator
) -> TrialResult:
    """Beam search: sample k candidates per layer, keep b, select one path at
    the end with the same selector."""
    if k < b or b < 1:
        raise ValidationError(f"beam requires k >= b >= 1, got k={k}, b={b}")
    probs = _step_probs(cfg, cfg.L)
    sel = cfg.selector
    alive = 0
    if sel.kind == NOISY_SCORE:
        margin, std = sel.margin, sel.noise_std
        for depth, p in enumerate(probs, start=1):
            if depth == 1:
                parent_ok = np.ones(k, dtype=bool)
            else:
                parent_ok = (np.arange(k) % b) < alive
            corr = parent_ok & (rng.random(k) < p)
            scores = margin * corr + std * rng.standard_normal(k)
            keep = np.argpartition(-scores, b - 1)[:b]
            alive = int(corr[keep].sum())
        final_scores = margin * (np.arange(b) < alive) + std * rng.standard_normal(b)
        success = int(np.argmax(final_scores)) < alive
    else:
        eps = selector_success_prob(sel, b)
        for depth, p in enumerate(probs, start=1):
            m = k if depth == 1 else _alive_candidate_count(k, b, alive)
            ncorr = int(rng.binomial(m, p))
            if ncorr == 0:
                alive = 0
            elif sel.kind == IDEAL or rng.random() < eps:
                alive = min(b, ncorr)
            else:
                alive = 0
        success = alive >= 1 and (sel.kind == IDEAL or rng.random() < eps)
    return TrialResult(bool(success), k * cfg.L, k * cfg.L)


def run_mcts_envelope(
    cfg: ProcessConfig, b: int, case: str, rng: np.random.Generator
) -> TrialResult:
    """Tree-search envelope: best case delegates to beam search with k = b;
    worst case materializes the complete b-ary tree of depth L with per-layer
    selection over all b**l nodes."""
    if case == "best":
        return run_beam(cfg, b, b, rng)
    if case != "worst":
        raise ValidationError(f"case must be 'best' or 'worst', got {case!r}")
    if b**cfg.L > NODE_LIMIT:
        raise ResourceLimitError(
            f"complete tree would hold {b**cfg.L} leaves, over the {NODE_LIMIT} limit"
        )
    probs = _step_probs(cfg, cfg.L)
    sel = cfg.selector
    prev = np.ones(1, dtype=bool)
    selections_ok = True
    total = 0
    for depth, p in enumerate(probs, start=1):
        cnt = b**depth
        total += cnt
        cur = np.repeat(prev, b) & (rng.random(cnt) < p)
        ncorr = int(cur.sum())
        if sel.kind == NOISY_SCORE:
            scores = sel.margin * cur + sel.noise_std * rng.standard_normal(cnt)
            layer_ok = bool(cur[int(np.argmax(scores))])
        elif ncorr == 0:
            layer_ok = False
        elif sel.kind == IDEAL:
            layer_ok = True
        else:
            layer_ok = bool(rng.random() < selector_success_prob(sel, cnt))
        selections_ok = selections_ok and layer_ok
        prev = cur
    return TrialResult(bool(selections_ok and prev.any()), total, total)


def run_lookahead(
    cfg: ProcessConfig,
    b: int,
    gamma: int,
    rng: np.random.Generator,
    count_rollout_steps: bool = True,
) -> TrialResult:
    """Depth-first search keeping one path: at each layer sample b candidates,
    extend each by gamma rollout steps, score at the rollout frontier, and
    commit the best-scoring candidate. Rollout steps are discarded from the
    committed path."""
    if b < 1 or gamma < 0:
        raise ValidationError(f"need b >= 1 and gamma >= 0, got b={b}, gamma={gamma}")
    margin, std = _score_params(cfg)
    node_ok = True
    for l in range(1, cfg.L + 1):
        cand_ok = node_ok & (rng.random(b) < step_correct_prob(cfg.decay, l))
        roll_ok = cand_ok.copy()
        for j in range(1, gamma + 1):
            roll_ok &= rng.random(b) < step_correct_prob(cfg.decay, l + j)
        scores = margin * roll_ok + std * rng.standard_normal(b)
        node_ok = bool(cand_ok[int(np.argmax(scores))])
    per_layer = b * (1 + gamma) if count_rollout_steps else b
    return TrialResult(node_ok, cfg.L * per_layer, cfg.L * per_layer)


# ---------------------------------------------------------------------------
# Lookahead selection probe
# ---------------------------------------------------------------------------


def lookahead_selection_trial(
    lambda_tau: float, wrong: WrongModel, l: int, gamma: int, rng: np.random.Generator
) -> bool:
    """One draw of the event that an evaluation at depth l+gamma separates a
    correct candidate from a wrong one: the correct candidate's rollout still
    looks correct there while the wrong candidate has become detectably wrong."""
    d = l + gamma
    good = rng.random() < min(lambda_tau * math.exp(-d), 1.0)
    flagged = rng.random() < max(1.0 - wrong.lambda_delta * math.exp(-d), 0.0)
    return bool(good and flagged)


def lookahead_selection_success(
    lambda_tau: float,
    wrong: WrongModel,
    l: int,
    gamma: int,
    trials: int,
    master_seed: int,
) -> MonteCarloReport:
    """Monte Carlo estimate of the selection-success probability of a
    depth-(l+gamma) lookahead evaluation."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    d = l + gamma
    p_good = min(lambda_tau * math.exp(-d), 1.0)
    p_flag = max(1.0 - wrong.lambda_delta * math.exp(-d), 0.0)
    successes = 0
    for start, size, rng in _blocks(trials, master_seed, 1):
        good = rng.random(size) < p_good
        flagged = rng.random(size) < p_flag
        successes += int((good & flagged).sum())
    lo, hi = wilson_interval(successes, trials)
    return MonteCarloReport(
        trials=trials,
        successes=successes,
        estimate=successes / trials,
        ci_low=lo,
        ci_high=hi,
        mean_steps=float(1 + gamma),
        mean_calls=float(1 + gamma),
        seed=master_seed,
    )


def lookahead_gamma_sweep(
    lambda_tau: float,
    wrong: WrongModel,
    l: int,
    gammas,
    trials: int,
    master_seed: int,
) -> list[tuple[int, MonteCarloReport]]:
    return [
        (
            int(g),
            lookahead_selection_success(
                lambda_tau, wrong, l, int(g), trials, master_seed + i
            ),
        )
        for i, g in enumerate(gammas)
    ]


# ---------------------------------------------------------------------------
# Vectorized block engines
# ---------------------------------------------------------------------------


def _block_width(cfg: ProcessConfig, strategy: StrategySpec) -> int:
    if strategy.kind == BON:
        return max(strategy.N, cfg.answer.answer_space_size + 1)
    if strategy.kind == BEAM:
        return strategy.k
    if strategy.kind == MCTS_BEST:
        return strategy.b
    if strategy.kind == MCTS_WORST:
        return strategy.b**cfg.L
    if strategy.kind == LOOKAHEAD:
        return strategy.b
    return 1


def _blocks(trials: int, master_seed: int, width: int):
    rows = int(min(BLOCK_TRIALS, max(1, _BLOCK_CELLS // max(width, 1))))
    start = 0
    index = 0
    while start < trials:
        size = min(rows, trials - start)
        seq = np.random.SeedSequence((master_seed, index))
        yield start, size, np.random.Generator(np.random.Philox(seq))
        start += size
        index += 1


def _sim_single(cfg, strategy, n, rng) -> int:
    ok = np.ones(n, dtype=bool)
    for p in _step_probs(cfg, cfg.L):
        ok &= rng.random(n) < p
    return int(ok.sum())


def _sim_bon(cfg, strategy, n, rng) -> int:
    N, rule = strategy.N, strategy.rule
    path_ok = np.ones((n, N), dtype=bool)
    for p in _step_probs(cfg, cfg.L):
        path_ok &= rng.random((n, N)) < p
    a = cfg.answer.answer_space_size
    labels = rng.integers(1, a + 1, size=(n, N))
    labels[path_ok] = 0
    scores = path_ok + cfg.score_noise_std * rng.standard_normal((n, N))
    rows = np.broadcast_to(np.arange(n)[:, None], (n, N))

    if rule == ORM_MAX:
        pick = np.argmax(scores, axis=1)
        return int(path_ok[np.arange(n), pick].sum())
    if rule == ORM_VOTE:
        sums = np.zeros((n, a + 1))
        counts = np.zeros((n, a + 1), dtype=np.int64)
        np.add.at(sums, (rows, labels), scores)
        np.add.at(counts, (rows, labels), 1)
        sums[counts == 0] = -np.inf
        return int((np.argmax(sums, axis=1) == 0).sum())
    counts = np.zeros((n, a + 1))
    np.add.at(counts, (rows, labels), 1.0)
    # sub-unit jitter breaks count ties uniformly at random
    counts += 0.5 * rng.random((n, a + 1))
    return int((np.argmax(counts, axis=1) == 0).sum())


def _sim_beam_core(cfg, k, b, n, rng) -> np.ndarray:
    probs = _step_probs(cfg, cfg.L)
    sel = cfg.selector
    if sel.kind == NOISY_SCORE:
        margin, std = sel.margin, sel.noise_std
        alive = np.zeros(n, dtype=np.int64)
        cols = np.arange(k) % b
        for depth, p in enumerate(probs, start=1):
            if depth == 1:
                parent_ok = np.ones((n, k), dtype=bool)
            else:
                parent_ok = cols[None, :] < alive[:, None]
            corr = parent_ok & (rng.random((n, k)) < p)
            scores = margin * corr + std * rng.standard_normal((n, k))
            keep = np.argpartition(-scores, b - 1, axis=1)[:, :b]
            alive = np.take_along_axis(corr, keep, axis=1).sum(axis=1)
        final = margin * (np.arange(b)[None, :] < alive[:, None])
        final = final + std * rng.standard_normal((n, b))
        return np.argmax(final, axis=1) < alive
    eps = selector_success_prob(sel, b)
    alive = np.zeros(n, dtype=np.int64)
    for depth, p in enumerate(probs, start=1):
        if depth == 1:
            m = np.full(n, k, dtype=np.int64)
        else:
            full, rem = divmod(k, b)
            m = alive * full + np.minimum(rem, alive)
        ncorr = rng.binomial(m, p)
        kept = np.minimum(b, ncorr)
        if sel.kind != IDEAL:
            kept = np.where(rng.random(n) < eps, kept, 0)
        alive = np.where(ncorr > 0, kept, 0)
    success = alive >= 1
    if sel.kind != IDEAL:
        success &= rng.random(n) < eps
    return success


def _sim_beam(cfg, strategy, n, rng) -> int:
    return int(_sim_beam_core(cfg, strategy.k, strategy.b, n, rng).sum())


def _sim_mcts_best(cfg, strategy, n, rng) -> int:
    return int(_sim_beam_core(cfg, strategy.b, strategy.b, n, rng).sum())


def _sim_mcts_worst(cfg, strategy, n, rng) -> int:
    b = strategy.b
    if b**cfg.L > NODE_LIMIT:
        raise ResourceLimitError(
            f"complete tree would hold {b**cfg.L} leaves, over the {NODE_LIMIT} limit"
        )
    sel = cfg.selector
    prev = np.ones((n, 1), dtype=bool)
    ok = np.ones(n, dtype=bool)
    for depth, p in enumerate(_step_probs(cfg, cfg.L), start=1):
        cnt = b**depth
        cur = np.repeat(prev, b, axis=1) & (rng.random((n, cnt)) < p)
        ncorr = cur.sum(axis=1)
        if sel.kind == NOISY_SCORE:
            scores = sel.margin * cur + sel.noise_std * rng.standard_normal((n, cnt))
            layer_ok = cur[np.arange(n), np.argmax(scores, axis=1)]
        elif sel.kind == IDEAL:
            layer_ok = ncorr > 0
        else:
            eps = selector_success_prob(sel, cnt)
            layer_ok = (ncorr > 0) & (rng.random(n) < eps)
        ok &= layer_ok
        prev = cur
    return int((ok & prev.any(axis=1)).sum())


def _sim_lookahead(cfg, strategy, n, rng) -> int:
    b, gamma = strategy.b, strategy.gamma
    margin, std = _score_params(cfg)
    node_ok = np.ones(n, dtype=bool)
    for l in range(1, cfg.L + 1):
        p = step_correct_prob(cfg.decay, l)
        cand_ok = node_ok[:, None] & (rng.random((n, b)) < p)
        roll_ok = cand_ok.copy()
        for j in range(1, gamma + 1):
            roll_ok &= rng.random((n, b)) < step_correct_prob(cfg.decay, l + j)
        scores = margin * roll_ok + std * rng.standard_normal((n, b))
        node_ok = cand_ok[np.arange(n), np.argmax(scores, axis=1)]
    return int(node_ok.sum())


_ENGINES = {
    SINGLE_PATH: _sim_single,
    BON: _sim_bon,
    BEAM: _sim_beam,
    MCTS_BEST: _sim_mcts_best,
    MCTS_WORST: _sim_mcts_worst,
    LOOKAHEAD: _sim_lookahead,
}


def monte_carlo(
    cfg: ProcessConfig, strategy: StrategySpec, trials: int, master_seed: int
) -> MonteCarloReport:
    """Run independent trials of a strategy and aggregate successes with a
    Wilson 95% interval and exact budget accounting. Output is bit-identical
    for fixed (cfg, strategy, trials, master_seed)."""
    if trials < 1:
        raise RangeError(f"trials must be >= 1, got {trials}")
    if master_seed < 0:
        raise ValidationError(f"master_seed must be >= 0, got {master_seed}")
    engine = _ENGINES[strategy.kind]
    steps, calls = steps_and_calls(cfg, strategy)
    successes = 0
    for start, size, rng in _blocks(trials, master_seed, _block_width(cfg, strategy)):
        successes += engine(cfg, strategy, size, rng)
    lo, hi = wilson_interval(successes, trials)
    return MonteCarloReport(
        trials=trials,
        successes=successes,
        estimate=successes / trials,
        ci_low=lo,
        ci_high=hi,
        mean_steps=float(steps),
        mean_calls=float(calls),
        seed=master_seed,
    )


def run_trial(
    cfg: ProcessConfig, strategy: StrategySpec, rng: np.random.Generator
) -> TrialResult:
    """Single-trial dispatch to the reference implementations."""
    if strategy.kind == SINGLE_PATH:
        return run_single_path(cfg, rng)
    if strategy.kind == BON:
        return run_bon(cfg, strategy.N, strategy.rule, rng)
    if strategy.kind == BEAM:
        return run_beam(cfg, strategy.k, strategy.b, rng)
    if strategy.kind == MCTS_BEST:
        return run_mcts_envelope(cfg, strategy.b, "best", rng)
    if strategy.kind == MCTS_WORST:
        return run_mcts_envelope(cfg, strategy.b, "worst", rng)
    return run_lookahead(
        cfg, strategy.b, strategy.gamma, rng, strategy.count_rollout_steps
    )


def verify_bounds(report: MonteCarloReport, bound: float) -> bool:
    """True when an estimate does not statistically exceed its upper bound:
    the Wilson lower limit must not pass the bound."""
    if bound < 0:
        raise ValidationError(f"bound must be >= 0, got {bound}")
    return report.ci_low <= bound


def matching_bound(cfg: ProcessConfig, strategy: StrategySpec) -> float | None:
    """Closed-form upper bound paired with a strategy, or None when the
    strategy has no success bound (lookahead) or its bound is undefined for
    the decay model (simplified forms under tabulated decay or lambda > e)."""
    try:
        if strategy.kind == SINGLE_PATH:
            return _bounds.single_path_bound(cfg.decay, cfg.L)
        if strategy.kind == BON:
            return _bounds.bon_bound(cfg.decay, cfg.selector, cfg.L, strategy.N)
        if strategy.kind == BEAM:
            return _bounds.width_expansion_bound_exact(
                cfg.decay, cfg.selector, cfg.L, strategy.k, strategy.b
            )
        if strategy.kind == MCTS_BEST:
            return _bounds.mcts_best_bound(cfg.decay, cfg.selector, cfg.L, strategy.b)
        if strategy.kind == MCTS_WORST:
            return _bounds.mcts_worst_bound(cfg.decay, cfg.selector, cfg.L, strategy.b)
    except PreconditionError:
        pass
    return None
