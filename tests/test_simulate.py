"""Strategy simulation: agreement with the exact oracle, distributional
equivalences, budget bookkeeping, bound dominance, and bit-level
determinism."""

import csv
import itertools
import json
import math
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.special import ndtr
from scipy.stats import binom

from slowthink import bounds, models, simulate
from slowthink.cli import dispatch
from slowthink.errors import ResourceLimitError, ValidationError
from slowthink.models import (
    NOISY_SCORE,
    AnswerModel,
    DecayModel,
    SelectorModel,
    WrongModel,
    step_correct_prob,
)
from slowthink.simulate import (
    BLOCK_TRIALS,
    ORM_MAX,
    ORM_VOTE,
    SELF_CONSISTENCY,
    MonteCarloReport,
    ProcessConfig,
    StrategySpec,
    exact_success,
    matching_bound,
    monte_carlo,
    verify_bounds,
    wilson_interval,
    _binom_pmf,
)

E_M3 = 0.049787068367863944
BON8_NOISELESS = 0.33538905027918684  # 1 - (1 - e^-3)^8

EXP1 = DecayModel.exponential(1.0)
IDEAL = SelectorModel.ideal()
LAMBDAS = (0.3, 0.9, 1.5, 2.1, 2.7)


def cfg_exp(L, selector=IDEAL, answer=1, noise=0.0, lam=1.0):
    return ProcessConfig(
        decay=DecayModel.exponential(lam),
        selector=selector,
        answer=AnswerModel(answer),
        L=L,
        score_noise_std=noise,
    )


def cfg_certain(L, selector=IDEAL):
    return ProcessConfig(
        decay=DecayModel.tabulated([1.0] * L), selector=selector, L=L
    )


def overlapping(a: MonteCarloReport, b: MonteCarloReport) -> bool:
    return a.ci_low <= b.ci_high and b.ci_low <= a.ci_high


class TestWilson:
    def test_certain_success_interval(self):
        lo, hi = wilson_interval(100, 100)
        assert lo > 0.96
        assert hi == 1.0

    def test_single_trial_spans(self):
        lo, hi = wilson_interval(0, 1)
        assert lo == 0.0 and hi > 0.5
        lo, hi = wilson_interval(1, 1)
        assert hi == 1.0 and lo < 0.5

    @given(st.integers(1, 100000), st.data())
    @settings(max_examples=200)
    def test_brackets_the_estimate(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        lo, hi = wilson_interval(successes, trials)
        phat = successes / trials
        assert 0.0 <= lo <= phat <= hi <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValidationError):
            wilson_interval(5, 4)


class TestSinglePath:
    def test_impossible_step_never_succeeds(self):
        cfg = ProcessConfig(decay=DecayModel.tabulated([0.0]), L=1)
        assert monte_carlo(cfg, StrategySpec.single_path(), 200, 0).successes == 0
        assert exact_success(cfg, StrategySpec.single_path()) == 0.0

    def test_certain_steps_always_succeed(self):
        report = monte_carlo(cfg_certain(3), StrategySpec.single_path(), 200, 0)
        assert report.estimate == 1.0
        assert (report.mean_steps, report.mean_calls) == (3.0, 1.0)

    def test_estimate_matches_product_law(self):
        report = monte_carlo(cfg_exp(2), StrategySpec.single_path(), 100_000, 42)
        assert report.ci_low <= E_M3 <= report.ci_high


class TestBon:
    def test_degenerate_matches_single_path(self):
        cfg = cfg_exp(2)
        a = monte_carlo(cfg, StrategySpec.bon(1, ORM_MAX), 20_000, 1)
        b = monte_carlo(cfg, StrategySpec.single_path(), 20_000, 2)
        assert overlapping(a, b)

    def test_certain_self_consistency(self):
        cfg = ProcessConfig(decay=DecayModel.tabulated([1.0]), L=1)
        spec = StrategySpec.bon(5, SELF_CONSISTENCY)
        assert monte_carlo(cfg, spec, 50, 0).estimate == 1.0
        assert exact_success(cfg, spec) == pytest.approx(1.0, rel=1e-12)

    def test_noiseless_max_selection_matches_at_least_one_law(self):
        report = monte_carlo(cfg_exp(2), StrategySpec.bon(8, ORM_MAX), 100_000, 3)
        assert report.ci_low <= BON8_NOISELESS <= report.ci_high

    def test_nondecreasing_in_n_under_noiseless_selection(self):
        cfg = cfg_exp(3)
        reports = [
            monte_carlo(cfg, StrategySpec.bon(n, ORM_MAX), 20_000, 4)
            for n in (1, 2, 4, 8, 16, 32)
        ]
        for a, b in zip(reports, reports[1:]):
            half = (a.ci_high - a.ci_low) / 2 + (b.ci_high - b.ci_low) / 2
            assert b.estimate >= a.estimate - 1.5 * half

    def test_self_consistency_saturates_on_binary_answers(self):
        # one wrong label and per-path success < 0.5: majority voting cannot
        # gain from more samples
        cfg = cfg_exp(2, answer=1)
        reports = [
            monte_carlo(cfg, StrategySpec.bon(n, SELF_CONSISTENCY), 20_000, 5)
            for n in (1, 2, 4, 8, 16)
        ]
        for a, b in zip(reports, reports[1:]):
            half = (a.ci_high - a.ci_low) / 2 + (b.ci_high - b.ci_low) / 2
            assert b.estimate <= a.estimate + 1.5 * half

    def test_self_consistency_grows_on_diverse_answers(self):
        cfg = cfg_exp(2, answer=100)
        first = monte_carlo(cfg, StrategySpec.bon(1, SELF_CONSISTENCY), 20_000, 6)
        last = monte_carlo(cfg, StrategySpec.bon(16, SELF_CONSISTENCY), 20_000, 6)
        assert last.ci_low > first.ci_high

    def test_vote_beats_chance_with_mild_noise(self):
        cfg = cfg_exp(2, answer=100, noise=0.25)
        rep = monte_carlo(cfg, StrategySpec.bon(8, ORM_VOTE), 20_000, 7)
        single = monte_carlo(cfg, StrategySpec.single_path(), 20_000, 8)
        assert rep.ci_low > single.ci_high

    def test_max_selection_ignores_the_answer_space(self):
        # orm_max never reads answer labels, so they do not size its blocks
        spec = StrategySpec.bon(4, ORM_MAX)
        a, b = (monte_carlo(cfg_exp(2, answer=size, noise=0.5, lam=2.5), spec, 100_000, 1)
                for size in (1, 1000))
        assert a == b

    def test_budget_bookkeeping(self):
        cfg = cfg_exp(3)
        report = monte_carlo(cfg, StrategySpec.bon(5, ORM_MAX), 10, 0)
        assert report.mean_steps == 15.0
        assert report.mean_calls == 5.0


class TestBeam:
    def test_requires_k_at_least_b(self):
        with pytest.raises(ValidationError):
            StrategySpec.beam(1, 2)

    def test_no_branching_matches_single_path(self):
        cfg = cfg_exp(2)
        a = monte_carlo(cfg, StrategySpec.beam(1, 1), 20_000, 9)
        b = monte_carlo(cfg, StrategySpec.single_path(), 20_000, 10)
        assert overlapping(a, b)

    def test_certain_steps_always_succeed(self):
        cfg = cfg_certain(2)
        for k, b in ((2, 2), (4, 2), (3, 1)):
            assert monte_carlo(cfg, StrategySpec.beam(k, b), 200, 0).estimate == 1.0

    def test_dominated_by_exact_bound(self):
        cfg = cfg_exp(2)
        report = monte_carlo(cfg, StrategySpec.beam(4, 2), 100_000, 11)
        bound = bounds.width_expansion_bound_exact(EXP1, IDEAL, 2, 4, 2)
        assert verify_bounds(report, bound)

    def test_noisy_selector_costs_success(self):
        noisy = SelectorModel.noisy_score(margin=1.0, noise_std=2.0)
        sharp = monte_carlo(cfg_exp(2), StrategySpec.beam(4, 2), 20_000, 12)
        fuzzy = monte_carlo(
            cfg_exp(2, selector=noisy), StrategySpec.beam(4, 2), 20_000, 12
        )
        assert fuzzy.estimate < sharp.estimate

    def test_constant_selector_certain_process(self):
        # all candidates correct: success is the chance every per-layer keep
        # and the final pick all fire
        cfg = cfg_certain(2, selector=SelectorModel.constant(0.5))
        report = monte_carlo(cfg, StrategySpec.beam(2, 2), 50_000, 13)
        lo, hi = wilson_interval(report.successes, report.trials)
        assert lo <= 0.5**3 <= hi
        assert exact_success(cfg, StrategySpec.beam(2, 2)) == pytest.approx(0.5**3)

    def test_budget_bookkeeping(self):
        report = monte_carlo(cfg_exp(3), StrategySpec.beam(4, 2), 10, 0)
        assert (report.mean_steps, report.mean_calls) == (12.0, 12.0)


class TestMctsEnvelope:
    def test_best_case_degenerates_to_single_path(self):
        cfg = cfg_exp(2)
        a = monte_carlo(cfg, StrategySpec.mcts_best(1), 20_000, 14)
        b = monte_carlo(cfg, StrategySpec.single_path(), 20_000, 15)
        assert overlapping(a, b)

    def test_worst_case_certain_tree(self):
        report = monte_carlo(cfg_certain(1), StrategySpec.mcts_worst(3), 200, 0)
        assert report.estimate == 1.0
        assert report.mean_steps == 3.0

    def test_worst_case_dominated_by_bound(self):
        cfg = cfg_exp(2)
        report = monte_carlo(cfg, StrategySpec.mcts_worst(2), 100_000, 16)
        bound = bounds.mcts_worst_bound(EXP1, IDEAL, 2, 2)
        assert verify_bounds(report, bound)

    def test_node_budget_is_enforced(self):
        cfg = cfg_exp(25)
        with pytest.raises(ResourceLimitError):
            monte_carlo(cfg, StrategySpec.mcts_worst(2), 10, 0)

    def test_envelope_ordering_more_exploration_never_hurts(self):
        cfg = cfg_exp(3)
        single = monte_carlo(cfg, StrategySpec.single_path(), 50_000, 17)
        best = monte_carlo(cfg, StrategySpec.mcts_best(2), 50_000, 18)
        worst = monte_carlo(cfg, StrategySpec.mcts_worst(2), 50_000, 19)

        def halfwidth(r):
            return (r.ci_high - r.ci_low) / 2

        assert best.estimate >= single.estimate - 3 * (
            halfwidth(best) + halfwidth(single)
        )
        assert worst.estimate >= best.estimate - 3 * (
            halfwidth(worst) + halfwidth(best)
        )
        # with these parameters the ordering is strict
        assert worst.ci_low > single.ci_high

    def test_budget_bookkeeping(self):
        report = monte_carlo(cfg_exp(3), StrategySpec.mcts_worst(2), 10, 0)
        assert (report.mean_steps, report.mean_calls) == (2 + 4 + 8, 2 + 4 + 8)


class TestLookahead:
    def test_certain_process_always_succeeds(self):
        cfg = ProcessConfig(decay=DecayModel.tabulated([1.0] * 6), L=2)
        for gamma in (0, 2, 4):
            spec = StrategySpec.lookahead(2, gamma)
            assert monte_carlo(cfg, spec, 200, 0).estimate == 1.0
            assert exact_success(cfg, spec) == 1.0

    def test_zero_rollout_matches_width_one_beam(self):
        # equivalence holds whenever both paths score candidates the same way:
        # mechanistically under a noisy-score selector, or noiselessly under
        # an ideal one
        noisy = SelectorModel.noisy_score(margin=1.0, noise_std=0.5)
        for cfg, seed in ((cfg_exp(2, selector=noisy), 20), (cfg_exp(2), 30)):
            a = monte_carlo(cfg, StrategySpec.lookahead(3, 0), 20_000, seed)
            b = monte_carlo(cfg, StrategySpec.beam(3, 1), 20_000, seed + 1)
            assert overlapping(a, b)

    def test_rollout_steps_counted(self):
        counted = monte_carlo(cfg_exp(2), StrategySpec.lookahead(3, 2), 10, 0)
        assert (counted.mean_steps, counted.mean_calls) == (2 * 3 * 3, 2 * 3 * 3)

    def test_tabulated_depth_must_cover_rollouts(self):
        cfg = ProcessConfig(decay=DecayModel.tabulated([1.0, 1.0]), L=2)
        spec = StrategySpec.lookahead(2, 1)
        with pytest.raises(ValidationError):
            monte_carlo(cfg, spec, 10, 0)
        with pytest.raises(ValidationError):
            exact_success(cfg, spec)


def gamma_sweep(tmp_path, gammas, *flags):
    """Exit code and CSV rows of ``reproduce gamma-sweep`` over these gammas."""
    config, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    config.write_text(json.dumps({"gammas": gammas}))
    rc = dispatch(["reproduce", "gamma-sweep", "--config", str(config), *flags,
                   "--out", str(out)])
    with open(out, newline="") as fh:
        return rc, list(csv.DictReader(fh))


class TestLookaheadProbe:
    """The rows of ``reproduce gamma-sweep``, at lambda_delta = e^3 / 2."""

    def test_trial_matches_product_law(self, tmp_path):
        rc, [row] = gamma_sweep(tmp_path, [2], "--layer", "1", "--trials", "100000",
                                "--seed", "22")
        d = 3.0
        expected = min(math.exp(-d), 1.0) * max(1 - math.e**3 / 2 * math.exp(-d), 0.0)
        # within 4 standard errors of the exact law, as TestExactOracle holds
        # every engine: a 95% interval misses at one seed in twenty
        se = math.sqrt(expected * (1 - expected) / 100_000)
        assert rc == 0
        assert abs(float(row["estimate"]) - expected) <= 4 * se

    def test_sweep_peaks_at_analytic_optimum(self, tmp_path):
        rc, rows = gamma_sweep(tmp_path, list(range(7)), "--layer", "1", "--trials", "50000",
                               "--seed", "23")
        best_gamma = int(max(rows, key=lambda row: float(row["estimate"]))["gamma"])
        star = bounds.optimal_rollout(WrongModel(math.e**3 / 2), 1)
        assert rc == 0
        assert abs(best_gamma - star) <= 1.0

    def test_too_shallow_evaluation_never_distinguishes(self, tmp_path):
        # at depth 1 every wrong candidate still masquerades as plausible
        _, [row] = gamma_sweep(tmp_path, [0], "--layer", "1", "--trials", "500",
                               "--seed", "0")
        assert float(row["estimate"]) == 0.0


class TestMonteCarloMachinery:
    def test_bit_identical_reports(self):
        cfg = cfg_exp(3, selector=SelectorModel.noisy_score(1.0, 0.5), answer=7, noise=0.3)
        for spec in (
            StrategySpec.single_path(),
            StrategySpec.bon(6, ORM_VOTE),
            StrategySpec.beam(4, 2),
            StrategySpec.mcts_worst(2),
            StrategySpec.lookahead(2, 1),
        ):
            a = monte_carlo(cfg, spec, 12_345, 99)
            b = monte_carlo(cfg, spec, 12_345, 99)
            assert a == b

    def test_block_layout_is_part_of_the_contract(self):
        # block i holds the next BLOCK_TRIALS trials (the last one the rest)
        # and draws from the Philox stream keyed by (master_seed, i)
        cfg, spec, trials, seed = cfg_exp(2), StrategySpec.beam(4, 2), 70_000, 7
        engine = simulate._REGISTRY[spec.kind].engine
        probs = [step_correct_prob(cfg.decay, l) for l in (1, 2)]
        total = 0
        for index, start in enumerate(range(0, trials, BLOCK_TRIALS)):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
            total += engine(cfg, spec, probs, min(BLOCK_TRIALS, trials - start), rng)
        assert monte_carlo(cfg, spec, trials, seed).successes == total

    def test_reports_do_not_depend_on_the_worker_count(self):
        # every kind in one batch, each run three blocks long or more
        runs = [(cfg, spec, 2 * BLOCK_TRIALS + 1000, seed)
                for seed, (cfg, spec) in enumerate(EXACT_CASES.values())]
        batches = []
        for workers in (1, 3):
            with ThreadPoolExecutor(workers) as pool, \
                    mock.patch.object(simulate, "_pool", pool):
                batches.append(simulate.monte_carlo_batch(runs))
        assert batches[0] == batches[1] == [monte_carlo(*run) for run in runs]

    def test_engine_errors_surface_and_leave_the_pool_working(self):
        # single_path draws its blocks on the calling thread; a noisy
        # mcts_worst draws them on the pool's threads
        trials = 3 * BLOCK_TRIALS + 5
        for cfg, spec, pooled in (
            (cfg_exp(2), StrategySpec.single_path(), False),
            (cfg_exp(2, SelectorModel.noisy_score(1.0, 0.25)), StrategySpec.mcts_worst(2), True),
        ):
            expected = monte_carlo(cfg, spec, trials, 3)
            row, raised_on_pool = simulate._REGISTRY[spec.kind], []

            def engine(cfg, spec, probs, n, rng):
                if n < BLOCK_TRIALS:
                    raised_on_pool.append(threading.current_thread() is not threading.main_thread())
                    raise FloatingPointError("tail block")
                return row.engine(cfg, spec, probs, n, rng)

            with mock.patch.dict(simulate._REGISTRY, {spec.kind: row._replace(engine=engine)}):
                with pytest.raises(FloatingPointError, match="tail block"):
                    monte_carlo(cfg, spec, trials, 3)
            assert raised_on_pool == [pooled]
            assert monte_carlo(cfg, spec, trials, 3) == expected

    def test_only_noise_drawing_runs_reach_the_pool(self):
        # count-histogram runs draw every block on the calling thread; a run
        # whose candidates get a noise draw sends its blocks to the pool
        class Refused(Exception):
            pass

        class Pool:
            def submit(self, *args):
                raise Refused

        trials = 2 * BLOCK_TRIALS + 1000
        for seed, (cfg, spec) in enumerate(EXACT_CASES.values()):
            expected = monte_carlo(cfg, spec, trials, seed)
            noisy = (cfg.selector.kind == NOISY_SCORE or cfg.score_noise_std > 0
                     or spec.rule == SELF_CONSISTENCY)
            with mock.patch.object(simulate, "_pool", Pool()):
                if noisy:
                    with pytest.raises(Refused):
                        monte_carlo(cfg, spec, trials, seed)
                else:
                    assert monte_carlo(cfg, spec, trials, seed) == expected

    def test_single_trial_interval(self):
        report = monte_carlo(cfg_exp(1), StrategySpec.single_path(), 1, 0)
        assert report.estimate in (0.0, 1.0)
        assert report.ci_low <= report.estimate <= report.ci_high

    def test_certain_config(self):
        report = monte_carlo(cfg_certain(2), StrategySpec.single_path(), 100, 0)
        assert report.estimate == 1.0
        assert report.ci_low > 0.96

    def test_trials_must_be_positive(self):
        with pytest.raises(ValidationError):
            monte_carlo(cfg_exp(1), StrategySpec.single_path(), 0, 0)

    @pytest.mark.parametrize(
        "answer, spec",
        [
            (1, StrategySpec.bon(10**8, ORM_MAX)),
            (10**8, StrategySpec.bon(2, SELF_CONSISTENCY)),
            (1, StrategySpec.beam(10**8, 1)),
            (1, StrategySpec.mcts_best(10**7)),
            (1, StrategySpec.lookahead(10**7, 0)),
        ],
    )
    def test_wide_strategies_are_refused_before_sampling(self, answer, spec):
        with pytest.raises(ResourceLimitError, match="over the 1000000 limit"):
            monte_carlo(cfg_exp(1, answer=answer), spec, 1, 0)
        # a batch draws no block, not even for the runs before the refused one
        fine = (cfg_exp(1), StrategySpec.single_path(), 10**5, 0)
        with mock.patch.object(simulate, "_run_block") as run_block:
            with pytest.raises(ResourceLimitError, match="over the 1000000 limit"):
                simulate.monte_carlo_batch([fine, (cfg_exp(1, answer=answer), spec, 1, 0)])
            with pytest.raises(ValidationError):
                simulate.monte_carlo_batch([fine, (*fine[:2], 0, 0)])
            with pytest.raises(ValidationError, match="^seed must be >= 0, got -1"):
                simulate.monte_carlo_batch([fine, (*fine[:2], 10, -1)])
        run_block.assert_not_called()


NOISY = SelectorModel.noisy_score(margin=1.0, noise_std=0.5)
CONST = SelectorModel.constant(0.8)

# name -> (config, strategy): every kind, rule and selector the oracle covers
EXACT_CASES = {
    "single": (cfg_exp(3, lam=2.0), StrategySpec.single_path()),
    "bon-max": (cfg_exp(2, lam=2.0), StrategySpec.bon(8, ORM_MAX)),
    "bon-max-noisy-score": (cfg_exp(2, lam=2.0, noise=0.7), StrategySpec.bon(6, ORM_MAX)),
    "bon-vote": (cfg_exp(2, lam=2.0, answer=5), StrategySpec.bon(5, ORM_VOTE)),
    "bon-sc-binary": (cfg_exp(2, lam=2.5), StrategySpec.bon(5, SELF_CONSISTENCY)),
    "bon-sc-diverse": (cfg_exp(3, lam=2.5, answer=10), StrategySpec.bon(7, SELF_CONSISTENCY)),
    "beam-ideal": (cfg_exp(3, lam=2.0), StrategySpec.beam(4, 2)),
    "beam-constant": (cfg_exp(3, CONST, lam=2.0), StrategySpec.beam(5, 2)),
    "beam-noisy-k-eq-b": (cfg_exp(3, NOISY, lam=2.0), StrategySpec.beam(3, 3)),
    "beam-constant-table": (
        ProcessConfig(decay=DecayModel.tabulated([0.9, 0.6]), selector=CONST, L=2),
        StrategySpec.beam(3, 2),
    ),
    "mcts-best-ideal": (cfg_exp(3, lam=2.0), StrategySpec.mcts_best(3)),
    "mcts-best-constant": (cfg_exp(3, CONST, lam=2.0), StrategySpec.mcts_best(3)),
    "mcts-best-noisy": (cfg_exp(3, NOISY, lam=2.0), StrategySpec.mcts_best(3)),
    # layer 2 has more cells than trials in a block, so every block draws
    # both per-trial binomials and multinomial count histograms
    "mcts-best-wide": (cfg_exp(4, lam=2.0), StrategySpec.mcts_best(512)),
    "mcts-worst-ideal": (cfg_exp(3, lam=2.0), StrategySpec.mcts_worst(2)),
    "mcts-worst-constant": (cfg_exp(3, CONST, lam=2.0), StrategySpec.mcts_worst(2)),
    "mcts-worst-noisy": (cfg_exp(3, NOISY, lam=2.0), StrategySpec.mcts_worst(2)),
    "lookahead-score-noise": (cfg_exp(3, lam=2.0, noise=0.3), StrategySpec.lookahead(3, 2)),
    "lookahead-noiseless": (cfg_exp(2, lam=2.0), StrategySpec.lookahead(3, 1)),
    "lookahead-noisy": (cfg_exp(3, NOISY, lam=2.0), StrategySpec.lookahead(3, 2)),
}
EXACT_TRIALS = 200_000


def within_4se(report: MonteCarloReport, exact: float) -> bool:
    se = math.sqrt(exact * (1 - exact) / report.trials)
    return abs(report.estimate - exact) <= 4 * se


class TestBinomPmf:
    """``_binom_pmf`` against scipy's binomial pmf. Its log-gamma form loses
    about n * eps * log(n) relative, so the counts stay at most 200."""

    @pytest.mark.parametrize("p", [0.0, 1.0, 1e-9, 0.3, 0.5, 0.999, 1.0 - 1e-9])
    @pytest.mark.parametrize("n,support", [([0], 0), ([0], 4), ([1, 0, 5], 8),
                                           ([40, 3], 40), ([200], 200)])
    def test_matches_scipy(self, n, support, p):
        got = _binom_pmf(n, p, support)
        want = binom.pmf(np.arange(support + 1), np.array(n)[:, None], p)
        assert got.shape == want.shape
        zero = want == 0.0
        assert (got[zero] == 0.0).all()  # j > n, or p in {0, 1} off its atom
        np.testing.assert_allclose(got[~zero], want[~zero], rtol=1e-12, atol=0.0)

    def test_log_factorials_grow_by_copy(self):
        # bit for bit the lgamma loop; growing binds a new array, so a thread
        # still reading the old one sees it unchanged
        with mock.patch.object(simulate, "_LOG_FACT", np.zeros(1)):
            small = simulate._log_factorials(5)
            big = simulate._log_factorials(300)
            assert simulate._log_factorials(7) is big
        assert small.tolist() == [math.lgamma(i + 1.0) for i in range(6)]
        assert big.tolist() == [math.lgamma(i + 1.0) for i in range(301)]

    def test_degenerate_rows(self):
        assert _binom_pmf([0], 0.3, 3).tolist() == [[1.0, 0.0, 0.0, 0.0]]
        assert _binom_pmf([2], 0.0, 3).tolist() == [[1.0, 0.0, 0.0, 0.0]]
        assert _binom_pmf([2], 1.0, 3).tolist() == [[0.0, 0.0, 1.0, 0.0]]


class TestExactOracle:
    @pytest.mark.parametrize("name", sorted(EXACT_CASES))
    def test_monte_carlo_within_4se_of_exact(self, name):
        cfg, spec = EXACT_CASES[name]
        exact = exact_success(cfg, spec)
        assert 0.0 < exact < 1.0
        assert within_4se(monte_carlo(cfg, spec, EXACT_TRIALS, 2024), exact)

    def test_noisy_beam_wider_than_kept_approaches_ideal(self):
        # no tractable form for top-b of k > b noisy scores; at a margin of
        # 50 noise never reorders correct and wrong candidates
        sharp = SelectorModel.noisy_score(margin=50.0, noise_std=1.0)
        noisy_cfg = cfg_exp(3, sharp, lam=2.0)
        spec = StrategySpec.beam(8, 3)
        assert exact_success(noisy_cfg, spec) is None
        exact = exact_success(cfg_exp(3, lam=2.0), spec)
        assert within_4se(monte_carlo(noisy_cfg, spec, EXACT_TRIALS, 2025), exact)

    def test_noisy_beam_keeping_one_is_exact(self):
        # keeping one of k noisy scores keeps the top one, so one layer is
        # orm_max Best-of-k with that score noise
        noisy = SelectorModel.noisy_score(1.0, 0.5)
        for k in (2, 4, 7):
            beam = exact_success(cfg_exp(1, noisy, lam=2.0), StrategySpec.beam(k, 1))
            bon = exact_success(cfg_exp(1, lam=2.0, noise=0.5), StrategySpec.bon(k, ORM_MAX))
            assert beam == pytest.approx(bon, rel=1e-12, abs=0)
        cfg, spec = cfg_exp(3, noisy, lam=2.0), StrategySpec.beam(4, 1)
        assert within_4se(monte_carlo(cfg, spec, EXACT_TRIALS, 2027), exact_success(cfg, spec))

    def test_noisy_vote_approaches_noiseless_vote(self):
        spec = StrategySpec.bon(5, ORM_VOTE)
        noisy_cfg = cfg_exp(2, lam=2.0, answer=5, noise=0.01)
        assert exact_success(noisy_cfg, spec) is None
        exact = exact_success(cfg_exp(2, lam=2.0, answer=5), spec)
        assert within_4se(monte_carlo(noisy_cfg, spec, EXACT_TRIALS, 2026), exact)

    def test_certain_process_is_certain(self):
        cfg = ProcessConfig(decay=DecayModel.tabulated([1.0] * 4), answer=AnswerModel(3), L=2)
        for spec in (
            StrategySpec.single_path(),
            *(StrategySpec.bon(3, rule) for rule in (ORM_MAX, ORM_VOTE, SELF_CONSISTENCY)),
            StrategySpec.beam(3, 2),
            StrategySpec.mcts_best(2),
            StrategySpec.mcts_worst(2),
            StrategySpec.lookahead(2, 2),
        ):
            assert exact_success(cfg, spec) == pytest.approx(1.0, rel=1e-12), spec.describe()

    def test_closed_forms(self):
        cfg = cfg_exp(2)
        assert exact_success(cfg, StrategySpec.single_path()) == pytest.approx(E_M3)
        assert exact_success(cfg, StrategySpec.bon(8, ORM_MAX)) == pytest.approx(
            BON8_NOISELESS
        )
        # a binary vote between two paths ties exactly when they disagree
        sc = exact_success(cfg, StrategySpec.bon(2, SELF_CONSISTENCY))
        assert sc == pytest.approx(E_M3, rel=1e-12)
        # two noisy paths: a lone correct one wins with Phi(margin / (s sqrt 2))
        s = 0.7
        noisy = exact_success(cfg_exp(2, noise=s), StrategySpec.bon(2, ORM_MAX))
        p = E_M3
        expected = p * p + 2 * p * (1 - p) * ndtr(1 / (s * math.sqrt(2)))
        assert noisy == pytest.approx(expected, rel=1e-12)

    def test_bon_bound_ignores_the_selector_the_engine_ignores(self):
        # the paper's eps_N factor put this bound at 0.0773, below exact
        cfg = cfg_exp(1, SelectorModel.constant(0.7), lam=0.3)
        spec = StrategySpec.bon(1, ORM_MAX)
        exact = exact_success(cfg, spec)
        assert exact == pytest.approx(0.3 / math.e, rel=1e-12)
        assert matching_bound(cfg, spec) == pytest.approx(exact, rel=1e-12)

    def test_noisy_pick_at_k_equal_b_is_bounded_as_ideal(self):
        # a noisy pick over two correct candidates beats eps_2, the chance
        # that one correct candidate beats one wrong one, so the paper's
        # formula, which bounds still prints, falls below exact
        cfg = cfg_exp(1, SelectorModel.noisy_score(1.0, 2.0), lam=2.0)
        paper = bounds.width_expansion_bound_exact(cfg.decay, cfg.selector, 1, 2, 2)
        assert paper == pytest.approx(0.5936, abs=1e-4)
        for spec, ideal in (
            (StrategySpec.beam(2, 2), bounds.width_expansion_bound_exact(cfg.decay, IDEAL, 1, 2, 2)),
            (StrategySpec.mcts_best(2), bounds.mcts_best_bound(cfg.decay, IDEAL, 1, 2)),
        ):
            assert exact_success(cfg, spec) == pytest.approx(0.7895, abs=1e-4)
            assert matching_bound(cfg, spec) == ideal

    def test_wide_exact_evaluation_is_refused(self):
        with pytest.raises(ResourceLimitError):
            exact_success(cfg_exp(1, noise=0.5), StrategySpec.bon(2000, ORM_MAX))

    @given(
        lam=st.floats(0.05, 2.7),
        L=st.integers(1, 4),
        b=st.integers(1, 4),
        extra=st.integers(0, 4),
        eps=st.one_of(
            st.none(), st.floats(0.0, 1.0), st.tuples(st.floats(0.05, 5), st.floats(0.05, 5))
        ),
        noise=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
        answer=st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_bound_dominates_exact(self, lam, L, b, extra, eps, noise, answer):
        # eps is None (ideal), a float (constant) or (margin, std) (noisy).
        # Under a noisy selector beam has an exact value only at k = b.
        # Best-of-N never consults the selector, so it is checked under all
        # three; orm_vote has an exact value only without score noise.
        N = b + extra
        specs = [StrategySpec.single_path(), StrategySpec.beam(b, b)]
        specs += [StrategySpec.mcts_best(b), StrategySpec.mcts_worst(b)]
        specs += [StrategySpec.bon(N, rule) for rule in (ORM_MAX, SELF_CONSISTENCY)]
        if noise == 0.0:
            specs.append(StrategySpec.bon(N, ORM_VOTE))
        if isinstance(eps, tuple):
            selector = SelectorModel.noisy_score(*eps)
        else:
            selector = IDEAL if eps is None else SelectorModel.constant(eps)
            specs.append(StrategySpec.beam(b + extra, b))
        cfg = cfg_exp(L, selector, answer=answer, noise=noise, lam=lam)
        for spec in specs:
            exact = exact_success(cfg, spec)
            bound = matching_bound(cfg, spec)
            assert exact <= bound * (1 + 1e-12), spec.describe()

    @pytest.mark.parametrize("s", [None, 0.25, 1.0])
    def test_mcts_best_equals_best_of_n(self, s):
        # mcts_best(b) keeps b independent paths and picks once, at the end,
        # as orm_max Best-of-N does at N = b; a noisy:1,s pick is a pick over
        # scores with noise s (ROADMAP item 2)
        selector = IDEAL if s is None else SelectorModel.noisy_score(1.0, s)
        for lam, L, b in itertools.product(LAMBDAS, range(1, 7), range(1, 9)):
            decay = DecayModel.exponential(lam)
            envelope = exact_success(ProcessConfig(decay, selector, L=L), StrategySpec.mcts_best(b))
            bon = exact_success(ProcessConfig(decay, L=L, score_noise_std=s or 0.0),
                                StrategySpec.bon(b, ORM_MAX))
            assert envelope == pytest.approx(bon, rel=1e-12, abs=0), (lam, L, b)

    @pytest.mark.parametrize(
        "selector", [IDEAL, SelectorModel.constant(0.7), SelectorModel.noisy_score(1.0, 0.5)]
    )
    def test_lookahead_bounded_by_ideal_width_b_form(self, selector):
        # a lookahead layer succeeds only if one of its b candidates is
        # correct, so prod_l (1 - (1 - p_l)^b) bounds it under any selector
        # (ROADMAP item 15)
        for lam, L, b, gamma in itertools.product(LAMBDAS, range(1, 7), range(1, 9), range(4)):
            decay = DecayModel.exponential(lam)
            exact = exact_success(ProcessConfig(decay, selector, L=L), StrategySpec.lookahead(b, gamma))
            bound = math.prod(1 - (1 - step_correct_prob(decay, l)) ** b for l in range(1, L + 1))
            assert exact <= bound * (1 + 1e-12), (lam, L, b, gamma)


CHUNK = models._CHUNK_CELLS
# a margin other than 1 shows a dropped or misplaced margin factor
NOISY_M15 = SelectorModel.noisy_score(margin=1.5, noise_std=0.8)


def stream_position(rng):
    state = rng.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"]


class Logged:
    """Stands in for ``rng``: makes each draw and appends ``entry(name,
    args, drawn)`` to ``calls``."""

    def __init__(self, rng, calls, entry):
        self.rng, self.calls, self.entry = rng, calls, entry

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            out = getattr(self.rng, name)(*args, **kwargs)
            self.calls.append(self.entry(name, args, out))
            return out
        return draw


class TestStreamIdentity:
    """Wide draws are made in row chunks, and each engine draws only for the
    trials and cells still open. No success count may depend on the chunk
    size, down to chunks narrower than one row."""

    @given(
        n=st.integers(1, 100),
        N=st.integers(1, 6),
        a=st.integers(1, 80),
        noise=st.sampled_from([0.0, 0.4, 2.0]),
        L=st.integers(1, 5),
        rule=st.sampled_from(simulate._RULES),
        selector=st.sampled_from([IDEAL, CONST, NOISY_M15]),
        seed=st.integers(0, 2**32),
    )
    # rows not a multiple of the chunk rows (1297 at a = 100), one trial's
    # labels wider than a chunk, and a tree layer wider than a chunk
    @example(n=2600, N=16, a=100, noise=0.5, L=3, rule=SELF_CONSISTENCY,
             selector=NOISY_M15, seed=1)
    @example(n=2600, N=16, a=100, noise=0.5, L=3, rule=ORM_VOTE, selector=IDEAL, seed=2)
    @example(n=3, N=1, a=CHUNK, noise=0.3, L=1, rule=SELF_CONSISTENCY, selector=IDEAL,
             seed=3)
    @example(n=3, N=1, a=CHUNK, noise=0.3, L=1, rule=ORM_VOTE, selector=CONST, seed=4)
    @example(n=3, N=1, a=3, noise=0.0, L=18, rule=ORM_VOTE, selector=NOISY_M15, seed=5)
    # a noisy beam (k = CHUNK + 1, b = 3) wider than a chunk, over two layers
    @example(n=3, N=CHUNK, a=3, noise=0.3, L=2, rule=ORM_MAX, selector=NOISY_M15, seed=6)
    @settings(max_examples=60, deadline=None)
    def test_engines_do_not_depend_on_chunk_size(self, n, N, a, noise, L, rule, selector,
                                                 seed):
        cfg = ProcessConfig(
            decay=DecayModel.tabulated([0.9] * (L + 1)), selector=selector,
            answer=AnswerModel(a), L=L, score_noise_std=noise,
        )
        b = 1 + N % 3
        specs = [StrategySpec.single_path(), StrategySpec.bon(N, rule),
                 StrategySpec.mcts_worst(b), StrategySpec.lookahead(N, 1)]
        if selector is NOISY_M15:
            specs.append(StrategySpec.beam(N + 1, b))
        for spec in specs:
            counts = set()
            for chunk in (1, 9, 64, CHUNK):
                with mock.patch.object(models, "_CHUNK_CELLS", chunk):
                    counts.add(monte_carlo(cfg, spec, n, seed).successes)
            assert len(counts) == 1, (spec.describe(), counts)

    @pytest.mark.parametrize("selector", [IDEAL, CONST, NOISY_M15],
                             ids=["ideal", "constant", "noisy"])
    @pytest.mark.parametrize("spec", [
        StrategySpec.single_path(),
        *(StrategySpec.bon(5, rule) for rule in simulate._RULES),
        StrategySpec.beam(5, 2),
        StrategySpec.mcts_best(3),
        StrategySpec.mcts_worst(2),
        StrategySpec.lookahead(3, 2),
    ], ids=lambda spec: spec.describe())
    def test_failed_trials_draw_nothing(self, spec, selector):
        # a first step that is never correct fails every trial at layer 1;
        # later layers and the final selection must then draw nothing
        engine = simulate._REGISTRY[spec.kind].engine
        positions = []
        for L in (1, 4):
            cfg = ProcessConfig(
                decay=DecayModel.tabulated([0.0] * (L + 2)), selector=selector,
                answer=AnswerModel(7), L=L, score_noise_std=0.5,
            )
            probs = [0.0] * (L + (spec.gamma or 0))  # depths 1..L, and the rollouts
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((9, 0))))
            assert engine(cfg, spec, probs, 50, rng) == 0
            positions.append(stream_position(rng))
        assert positions[0] == positions[1]

    @pytest.mark.parametrize("spec", [
        StrategySpec.beam(5, 2), StrategySpec.mcts_best(3), StrategySpec.mcts_worst(2),
    ], ids=lambda spec: spec.describe())
    def test_zero_noise_pick_draws_nothing(self, spec):
        # margin > 0 decides a pick without score noise, so it draws no
        # normals and leaves the stream exactly as the ideal selector does
        counts = {monte_carlo(cfg_exp(3, selector, lam=2.0), spec, 50_000, 4).successes
                  for selector in (IDEAL, SelectorModel.noisy_score(1.0, 0.0))}
        assert len(counts) == 1, counts

    @pytest.mark.parametrize("selector", [IDEAL, CONST, NOISY_M15],
                             ids=["ideal", "constant", "noisy"])
    def test_beam_draws_only_candidate_counts(self, selector):
        # open trials are grouped by alive-beam count. While they outnumber
        # the cells of the count histograms, a layer draws one multinomial
        # per occupied count and no per-trial binomial; below that, one
        # binomial with a scalar n and m trials per occupied count. A
        # constant pick draws one binomial over the kept counts per layer and
        # at the end; a noisy pick draws one chunk of normals over every open
        # trial per layer and at the end, here one block fitting in a chunk.
        L, b = 5, 4
        cfg, spec = cfg_exp(L, selector, lam=2.0), StrategySpec.beam(8, b)
        engine = simulate._REGISTRY[spec.kind].engine
        picks = {CONST: ("binomial", 1, 2), NOISY_M15: ("standard_normal", None, 0)}.get(selector)
        # 3 trials never outnumber the 2a + 1 >= 3 cells of a count a > 0
        for n, per_count in ((BLOCK_TRIALS, ("multinomial", 0, 2)), (3, ("binomial", 0, 3))):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((3, 0))))
            calls = []
            logged = Logged(rng, calls, lambda name, args, out: (
                name, np.ndim(args[0]) if args else None, len(args)))
            with mock.patch.object(models, "_CHUNK_CELLS", simulate._BLOCK_CELLS):
                won = engine(cfg, spec, simulate._step_probs(cfg, L), n, logged)
            assert won > 0 or n == 3
            expected = 0 if picks is None else L + 1
            if selector is NOISY_M15 and not won:
                # a noisy pick draws nothing once every trial has failed
                assert calls.count(picks) <= expected
            else:
                assert calls.count(picks) == expected
            assert {call for call in calls if call != picks} == {per_count}
            assert len(calls) - calls.count(picks) <= L * b
            if picks and n == BLOCK_TRIALS:
                # the picks end the layers: at most b histogram draws in each
                layers = "".join("|" if call == picks else "m" for call in calls).split("|")
                assert all(1 <= len(layer) <= b for layer in layers[:L])

    @pytest.mark.parametrize("selector", [IDEAL, CONST, NOISY_M15],
                             ids=["ideal", "constant", "noisy"])
    @pytest.mark.parametrize("spec", [
        StrategySpec.single_path(),
        *(StrategySpec.bon(5, rule) for rule in simulate._RULES),
        StrategySpec.beam(8, 4),
        StrategySpec.mcts_best(3),
        StrategySpec.mcts_worst(2),
        StrategySpec.lookahead(3, 2),
    ], ids=lambda spec: spec.describe())
    def test_layers_draw_count_histograms(self, spec, selector):
        # while a block's open trials outnumber the cells of its count
        # histograms, no layer draws a binomial or a uniform per trial: each
        # count is one multinomial per occupied count, and a constant pick or
        # a lookahead miss one binomial over the occupied counts. Only noisy
        # picks and vote tallies draw per trial
        L = 4
        cfg = cfg_exp(L, selector, answer=7, lam=2.0)
        engine = simulate._REGISTRY[spec.kind].engine
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 0))))
        calls = []
        logged = Logged(rng, calls, lambda name, args, out: (name, np.size(out)))
        probs = simulate._step_probs(cfg, L + (spec.gamma or 0))
        assert engine(cfg, spec, probs, BLOCK_TRIALS, logged) > 0
        per_trial = {"standard_normal"} if selector is NOISY_M15 else set()
        if spec.rule == SELF_CONSISTENCY:
            per_trial |= {"integers", "random"}
        names = {name for name, _ in calls}
        assert "multinomial" in names
        assert names - per_trial <= {"multinomial", "binomial"}
        assert max(size for name, size in calls if name not in per_trial) <= 64


def _cell_probs(cfg):
    return [step_correct_prob(cfg.decay, l) for l in range(1, cfg.L + 1)]


def _cell_top_hits(rng, ok, sel, top):
    # correct cells among the `top` picked: an ideal pick keeps min(top,
    # correct), a constant pick does so if one uniform per trial falls below
    # eps and keeps none otherwise, and a noisy pick takes the best scores,
    # every column scored alike
    if sel.kind != NOISY_SCORE:
        hits = np.minimum(top, ok.sum(axis=1))
        return hits if sel.kind == IDEAL.kind else hits * (rng.random(len(ok)) < sel.epsilon)
    z = sel.margin * ok + sel.noise_std * rng.standard_normal(ok.shape)
    best = np.argsort(-z, axis=1)[:, :top]
    return np.take_along_axis(ok, best, axis=1).sum(axis=1)


def _cell_beam(cfg, spec, n, rng):
    # candidates dealt round-robin over the alive beams, one uniform per
    # cell; mcts_best is beam search with k = b
    k, b, sel = spec.k or spec.b, spec.b, cfg.selector
    alive = np.full(n, b)
    for p in _cell_probs(cfg):
        ok = (np.arange(k) % b < alive[:, None]) & (rng.random((n, k)) < p)
        alive = _cell_top_hits(rng, ok, sel, b)
    return int((_cell_top_hits(rng, np.arange(b) < alive[:, None], sel, 1) > 0).sum())


def _cell_max(cfg, spec, n, rng):
    # every path's steps drawn; the top ORM score, the first of tied ones,
    # picks. A single path is Best-of-N at N = 1
    N = spec.N or 1
    ok = np.ones((n, N), dtype=bool)
    for p in _cell_probs(cfg):
        ok &= rng.random((n, N)) < p
    z = ok + cfg.score_noise_std * rng.standard_normal((n, N))
    return int(ok[np.arange(n), z.argmax(axis=1)].sum())


def _cell_vote(cfg, spec, n, rng):
    N, a = spec.N, cfg.answer.answer_space_size
    ok = np.ones((n, N), dtype=bool)
    for p in _cell_probs(cfg):
        ok &= rng.random((n, N)) < p
    labels = np.where(ok, 0, rng.integers(1, a + 1, (n, N)))
    z = cfg.score_noise_std * rng.standard_normal((n, N)) + ok
    rows = np.arange(n)[:, None]
    sums = np.zeros((n, a + 1))
    np.add.at(sums, (rows, labels), z)
    held = np.zeros((n, a + 1), dtype=bool)
    held[rows, labels] = True
    return int((np.where(held, sums, -np.inf).argmax(axis=1) == 0).sum())


def _cell_worst(cfg, spec, n, rng):
    # every node of the tree drawn; a failed pick fails the trial for good
    ok = np.ones((n, 1), dtype=bool)
    for p in _cell_probs(cfg):
        ok = np.repeat(ok, spec.b, axis=1)
        ok &= rng.random(ok.shape) < p
        ok &= (_cell_top_hits(rng, ok, cfg.selector, 1) > 0)[:, None]
    return int(ok.any(axis=1).sum())


def _cell_lookahead(cfg, spec, n, rng):
    # one uniform per candidate and per rollout step; the first of tied
    # scores wins, and the pick commits if its step is correct
    b, sel = spec.b, cfg.selector
    margin, std = ((sel.margin, sel.noise_std) if sel.kind == NOISY_SCORE
                   else (1.0, cfg.score_noise_std))
    alive = np.ones(n, dtype=bool)
    for l in range(1, cfg.L + 1):
        cand_ok = rng.random((n, b)) < step_correct_prob(cfg.decay, l)
        roll_ok = cand_ok.copy()
        for j in range(1, spec.gamma + 1):
            roll_ok &= rng.random((n, b)) < step_correct_prob(cfg.decay, l + j)
        pick = (margin * roll_ok + std * rng.standard_normal((n, b))).argmax(axis=1)
        alive &= cand_ok[np.arange(n), pick]
    return int(alive.sum())


NOISY_Q = SelectorModel.noisy_score(margin=1.0, noise_std=0.25)


def cfg_flat(L, p, selector, rollout=0):
    return ProcessConfig(decay=DecayModel.tabulated([p] * (L + rollout)),
                         selector=selector, L=L)


# name -> (config, strategy, per-cell reference engine)
CELL_CASES = {
    "beam-8-4": (cfg_flat(4, 0.5, NOISY_Q), StrategySpec.beam(8, 4), _cell_beam),
    "beam-3-2": (cfg_exp(1, SelectorModel.noisy_score(1.0, 2.0), lam=2.0),
                 StrategySpec.beam(3, 2), _cell_beam),
    "beam-ideal": (cfg_flat(4, 0.4, IDEAL), StrategySpec.beam(8, 4), _cell_beam),
    "beam-constant": (cfg_flat(3, 0.4, CONST), StrategySpec.beam(5, 2), _cell_beam),
    "mcts-best-ideal": (cfg_flat(4, 0.6, IDEAL), StrategySpec.mcts_best(3), _cell_beam),
    "mcts-best-constant": (cfg_flat(4, 0.6, CONST), StrategySpec.mcts_best(3), _cell_beam),
    "orm-vote": (cfg_exp(2, answer=100, noise=0.5, lam=2.5), StrategySpec.bon(6, ORM_VOTE),
                 _cell_vote),
    # many votes per label: a label's score sum has spread std * sqrt(votes)
    "orm-vote-wide": (cfg_exp(2, answer=3, noise=2.0, lam=1.5), StrategySpec.bon(48, ORM_VOTE),
                      _cell_vote),
    "mcts-worst": (cfg_flat(6, 0.6, NOISY_Q), StrategySpec.mcts_worst(2), _cell_worst),
    "mcts-worst-ideal": (cfg_flat(4, 0.5, IDEAL), StrategySpec.mcts_worst(2), _cell_worst),
    "mcts-worst-constant": (cfg_flat(3, 0.6, CONST), StrategySpec.mcts_worst(3), _cell_worst),
    "single": (cfg_flat(5, 0.7, IDEAL), StrategySpec.single_path(), _cell_max),
    "orm-max-ideal": (cfg_flat(3, 0.5, IDEAL), StrategySpec.bon(4, ORM_MAX), _cell_max),
    "orm-max-noisy": (cfg_exp(2, noise=0.7, lam=2.0), StrategySpec.bon(6, ORM_MAX), _cell_max),
    "lookahead-noisy": (cfg_flat(3, 0.6, NOISY_Q, 2), StrategySpec.lookahead(4, 2),
                        _cell_lookahead),
    # no score noise: only the tie rule decides a pick without an A candidate
    "lookahead-ideal": (cfg_flat(3, 0.5, IDEAL, 1), StrategySpec.lookahead(3, 1),
                        _cell_lookahead),
    "lookahead-ideal-wide": (cfg_flat(2, 0.7, IDEAL, 2), StrategySpec.lookahead(6, 2),
                             _cell_lookahead),
}
CELL_TRIALS = 20_000


class TestCellReference:
    """The engines draw per-trial correct counts and put the correct cells
    first; a reference that draws every cell and keeps the dealt layout must
    give the same law. These cases include the ones ``exact_success`` cannot
    evaluate."""

    @pytest.mark.parametrize("name", sorted(CELL_CASES))
    def test_engine_matches_per_cell_draws(self, name):
        cfg, spec, reference = CELL_CASES[name]
        engine = monte_carlo(cfg, spec, CELL_TRIALS, 31).successes
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(32)))
        cells = reference(cfg, spec, CELL_TRIALS, rng)
        pooled = (engine + cells) / (2 * CELL_TRIALS)
        assert 0.0 < pooled < 1.0
        se = math.sqrt(pooled * (1 - pooled) * 2 / CELL_TRIALS)
        assert abs(engine - cells) / CELL_TRIALS <= 4 * se, (engine, cells)


class TestBlockMemory:
    VOTE = cfg_exp(3, answer=100, noise=0.5, lam=2.5)

    @pytest.mark.parametrize("cfg, spec", [
        (VOTE, StrategySpec.bon(16, ORM_VOTE)),
        (VOTE, StrategySpec.bon(16, SELF_CONSISTENCY)),
        (cfg_exp(6, NOISY, lam=2.5), StrategySpec.mcts_worst(2)),
        (cfg_exp(2, NOISY, lam=2.5), StrategySpec.beam(2**16, 2)),
    ])
    def test_one_block_peak_stays_small(self, cfg, spec):
        # one dense float array per draw peaked at about 62, 59, 43 and 265 MiB
        assert self.block_peak(cfg, spec) < 24 * 2**20

    @pytest.mark.parametrize("cfg, spec", [
        (cfg_exp(2, noise=0.5, lam=2.5), StrategySpec.bon(2**16, ORM_MAX)),
        (cfg_exp(2, NOISY_Q, lam=2.5), StrategySpec.lookahead(2**16, 1)),
    ], ids=["orm_max", "lookahead"])
    def test_wide_pick_peak_stays_small(self, cfg, spec):
        # a pick builds its correct-cell mask one chunk at a time; a mask
        # over the whole block peaked at about 10 MiB
        assert self.block_peak(cfg, spec) < 4 * 2**20

    @pytest.mark.parametrize("rule", [ORM_VOTE, SELF_CONSISTENCY])
    def test_wide_vote_peak_stays_small(self, rule):
        # a block holds its wrong paths' int32 labels and one chunk's label
        # counts; an (n, N) path mask and int64 labels peaked at about 125 MiB
        cfg = cfg_exp(2, answer=10, noise=0.5, lam=2.5)
        assert self.block_peak(cfg, StrategySpec.bon(2**16, rule)) < 32 * 2**20

    def test_narrow_block_peak_stays_small(self):
        # an 8-trial block of 10^6 leaves holds its open trials' counts, not
        # a histogram over every leaf count, which peaked at about 16.6 MiB
        assert self.block_peak(cfg_exp(2, lam=2.5), StrategySpec.mcts_worst(1000)) < 2 * 2**20

    @staticmethod
    def block_peak(cfg, spec):
        # one block, which holds fewer than BLOCK_TRIALS trials when they are wide
        width = simulate._REGISTRY[spec.kind].width(cfg, spec)
        trials = min(BLOCK_TRIALS, simulate._BLOCK_CELLS // width)
        tracemalloc.start()
        try:
            monte_carlo(cfg, spec, trials, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pooled_blocks_peak_stays_small(self):
        # at most MAX_WORKERS blocks hold arrays at once; queued blocks hold none
        cfg, spec = cfg_exp(2, NOISY, lam=2.5), StrategySpec.beam(2**16, 2)
        tracemalloc.start()
        try:
            monte_carlo(cfg, spec, 2 * (simulate._BLOCK_CELLS // 2**16) + 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < simulate.MAX_WORKERS * 24 * 2**20

    def test_queued_blocks_are_bounded(self):
        # a long pooled run keeps at most 2 * MAX_WORKERS blocks unfinished at
        # once, not one future per block
        cfg, spec = cfg_exp(1, NOISY), StrategySpec.mcts_worst(2)
        row, futures, unfinished = simulate._REGISTRY[spec.kind], [], []

        def slow(*args):
            time.sleep(0.001)
            return row.engine(*args)

        class Pool(ThreadPoolExecutor):
            def submit(self, *args):
                futures.append(super().submit(*args))
                unfinished.append(sum(not f.done() for f in futures))
                return futures[-1]

        with Pool(2) as pool, mock.patch.object(simulate, "_pool", pool), \
                mock.patch.dict(simulate._REGISTRY, {spec.kind: row._replace(engine=slow)}):
            monte_carlo(cfg, spec, 100 * BLOCK_TRIALS, 0)
        assert len(futures) == 100
        assert max(unfinished) <= 2 * simulate.MAX_WORKERS


class TestVerifyAndMatchingBounds:
    def test_below_bound_passes(self):
        report = MonteCarloReport(
            trials=1000, successes=40, estimate=0.04, ci_low=0.038, ci_high=0.042,
            mean_steps=2.0, mean_calls=1.0,
        )
        assert verify_bounds(report, 0.0498)

    def test_interval_above_bound_fails(self):
        report = MonteCarloReport(
            trials=1000, successes=900, estimate=0.9, ci_low=0.89, ci_high=0.91,
            mean_steps=2.0, mean_calls=1.0,
        )
        assert not verify_bounds(report, 0.5)

    def test_vacuous_bound_always_passes(self):
        report = MonteCarloReport(
            trials=10, successes=10, estimate=1.0, ci_low=0.72, ci_high=1.0,
            mean_steps=1.0, mean_calls=1.0,
        )
        assert verify_bounds(report, 1.31)

    def test_matching_bound_dispatch(self):
        cfg = cfg_exp(2)
        assert matching_bound(cfg, StrategySpec.single_path()) == pytest.approx(
            E_M3, rel=1e-12
        )
        assert matching_bound(cfg, StrategySpec.bon(3, ORM_MAX)) == pytest.approx(
            bounds.bon_bound(EXP1, IDEAL, 2, 3), rel=1e-12
        )
        assert matching_bound(cfg, StrategySpec.lookahead(2, 1)) is None


class TestSpecsAndConfigs:
    def test_strategy_spec_validation(self):
        with pytest.raises(ValidationError):
            StrategySpec.bon(0, ORM_MAX)
        with pytest.raises(ValidationError):
            StrategySpec.bon(2, "plurality")
        with pytest.raises(ValidationError):
            StrategySpec(kind="dfs")
        with pytest.raises(ValidationError):
            StrategySpec.lookahead(2, -1)

    def test_process_config_validation(self):
        with pytest.raises(ValidationError):
            ProcessConfig(decay=EXP1, L=0)
        with pytest.raises(ValidationError):
            ProcessConfig(decay=DecayModel.tabulated([0.5, 0.7]), L=2)
        with pytest.raises(ValidationError):
            ProcessConfig(decay=DecayModel.tabulated([0.5]), L=2)
        for std in (-1.0, math.nan, math.inf, True):
            with pytest.raises(ValidationError, match="^score_noise_std must be"):
                ProcessConfig(decay=EXP1, score_noise_std=std)

    def test_round_trip_from_config(self):
        cfg = ProcessConfig.from_config(
            {
                "decay": {"kind": "exponential", "lambda_tau": 0.5},
                "selector": {"kind": "constant", "epsilon": 0.9},
                "answer": {"answer_space_size": 10},
                "L": 3,
                "score_noise_std": 0.2,
            }
        )
        assert cfg.decay.lambda_tau == 0.5
        assert cfg.selector.epsilon == 0.9
        assert cfg.answer.answer_space_size == 10
        spec = StrategySpec.from_config({"kind": "bon", "N": 4, "rule": "orm_vote"})
        assert spec.N == 4 and spec.rule == ORM_VOTE

