"""Closed-form bound values, dominance relations, and cost arithmetic.

Frozen expected values were computed with a 30-digit mpmath oracle; the
``TestFrozenValuesAgainstOracle`` class recomputes them so the literals can
never drift silently.
"""

import math
import time

import mpmath as mp
import pytest

from slowthink.bounds import (
    CostEntry,
    bon_bound,
    cost_table,
    is_vacuous,
    lookahead_distinguishability_bound,
    mcts_best_bound,
    mcts_worst_bound,
    n_min,
    optimal_rollout,
    single_path_bound,
    width_expansion_bound_exact,
    width_expansion_bound_simplified,
)
from slowthink.errors import (
    PreconditionError,
    ResourceLimitError,
    ValidationError,
)
from slowthink.models import DecayModel, SelectorModel, WrongModel

IDEAL = SelectorModel.ideal()
EXP1 = DecayModel.exponential(1.0)

E_M1 = 0.36787944117144233  # e^-1
E_M3 = 0.049787068367863944  # e^-3
WIDTH_L1_K2 = 0.600423599106272  # 1 - (1 - e^-1)^2
BON_L2_N3 = 0.4480836153107755  # 9 e^-3
BEST_L2_B2 = 0.19914827347145578  # 4 e^-3
WORST_L2_B2 = 0.39829654694291155  # 8 e^-3
SIMPLIFIED_HALF = 0.049787068367863944  # 0.5^2 * 4^2 * 0.5^2 * e^-3
LOOKAHEAD_L2 = 0.11701964434787851  # e^-2 - e^-4


class TestFrozenValuesAgainstOracle:
    """Recompute every frozen literal with 30-digit arithmetic."""

    def test_literals(self):
        mp.mp.dps = 30
        oracle = {
            E_M1: mp.exp(-1),
            E_M3: mp.exp(-3),
            WIDTH_L1_K2: 1 - (1 - mp.exp(-1)) ** 2,
            BON_L2_N3: 9 * mp.exp(-3),
            BEST_L2_B2: 4 * mp.exp(-3),
            WORST_L2_B2: 8 * mp.exp(-3),
            SIMPLIFIED_HALF: mp.mpf("0.25") * 16 * mp.mpf("0.25") * mp.exp(-3),
            LOOKAHEAD_L2: mp.exp(-2) - mp.exp(-4),
        }
        for frozen, exact in oracle.items():
            assert frozen == pytest.approx(float(exact), rel=1e-15)


class TestSinglePath:
    def test_one_layer(self):
        assert single_path_bound(EXP1, 1) == pytest.approx(E_M1, rel=1e-12)

    def test_two_layers(self):
        assert single_path_bound(EXP1, 2) == pytest.approx(E_M3, rel=1e-12)

    def test_tabulated_product(self):
        d = DecayModel.tabulated([0.5, 0.5, 0.5])
        assert single_path_bound(d, 3) == pytest.approx(0.125, rel=1e-12)

    def test_tabulated_domain_too_short(self):
        with pytest.raises(ValidationError):
            single_path_bound(DecayModel.tabulated([0.5]), 2)

    def test_strictly_decreasing_in_length(self):
        for lam in (0.25, 1.0, 2.0):
            d = DecayModel.exponential(lam)
            values = [single_path_bound(d, L) for L in range(1, 12)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_log_domain_survives_deep_paths(self):
        # linear value underflows near L ~ 38; the log form must not
        v = single_path_bound(EXP1, 50, log=True)
        assert v == pytest.approx(-50 * 51 / 2, rel=1e-12)
        assert single_path_bound(EXP1, 50) == 0.0  # underflow is expected here


class TestWidthExpansion:
    def test_exact_one_layer_two_samples(self):
        v = width_expansion_bound_exact(EXP1, IDEAL, 1, 2, 1)
        assert v == pytest.approx(WIDTH_L1_K2, rel=1e-12)

    def test_exact_reduces_to_single_path(self):
        for L in range(1, 9):
            lhs = width_expansion_bound_exact(EXP1, IDEAL, L, 1, 1, log=True)
            rhs = single_path_bound(EXP1, L, log=True)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_selector_annihilates(self):
        dead = SelectorModel.constant(0.0)
        assert width_expansion_bound_exact(EXP1, dead, 3, 4, 2) == 0.0
        assert width_expansion_bound_simplified(EXP1, dead, 3, 4, 2) == 0.0

    def test_simplified_one_layer_two_samples(self):
        v = width_expansion_bound_simplified(EXP1, IDEAL, 1, 2, 1)
        assert v == pytest.approx(2 * E_M1, rel=1e-12)

    def test_simplified_k1_matches_single_path(self):
        v = width_expansion_bound_simplified(EXP1, IDEAL, 2, 1, 1)
        assert v == pytest.approx(E_M3, rel=1e-12)

    def test_simplified_mixed_parameters(self):
        d = DecayModel.exponential(0.5)
        sel = SelectorModel.constant(0.5)
        v = width_expansion_bound_simplified(d, sel, 2, 4, 1)
        assert v == pytest.approx(SIMPLIFIED_HALF, rel=1e-12)

    def test_simplified_rejects_clipping_regime(self):
        hot = DecayModel.exponential(5.0)  # 5 e^-1 > 1
        with pytest.raises(PreconditionError):
            width_expansion_bound_simplified(hot, IDEAL, 2, 2, 2)
        with pytest.raises(PreconditionError):
            bon_bound(hot, IDEAL, 2, 2)

    def test_simplified_rejects_tabulated(self):
        with pytest.raises(PreconditionError):
            width_expansion_bound_simplified(
                DecayModel.tabulated([0.5, 0.4]), IDEAL, 2, 2, 2
            )

    def test_simplified_may_exceed_one_and_is_flagged(self):
        v = width_expansion_bound_simplified(EXP1, IDEAL, 1, 8, 1)
        assert v > 1.0
        assert is_vacuous(v)
        assert not is_vacuous(0.3)

    def test_exact_dominated_by_simplified_on_grid(self):
        for lam in (0.25, 0.5, 1.0):
            d = DecayModel.exponential(lam)
            for L in range(1, 7):
                for k in range(1, 9):
                    for b in range(1, 5):
                        exact = width_expansion_bound_exact(d, IDEAL, L, k, b)
                        simpl = width_expansion_bound_simplified(d, IDEAL, L, k, b)
                        assert exact <= simpl * (1 + 1e-12)


class TestBonAndEnvelopes:
    def test_bon_degenerates_to_single_path(self):
        assert bon_bound(EXP1, IDEAL, 1, 1) == pytest.approx(E_M1, rel=1e-12)

    def test_bon_two_layers_three_paths(self):
        assert bon_bound(EXP1, IDEAL, 2, 3) == pytest.approx(BON_L2_N3, rel=1e-12)

    def test_bon_zero_selector(self):
        assert bon_bound(EXP1, SelectorModel.constant(0.0), 2, 3) == 0.0

    def test_bon_strictly_increasing_in_n(self):
        values = [bon_bound(EXP1, IDEAL, 3, n) for n in range(1, 20)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_best_case_values(self):
        assert mcts_best_bound(EXP1, IDEAL, 1, 2) == pytest.approx(
            2 * E_M1, rel=1e-12
        )
        assert mcts_best_bound(EXP1, IDEAL, 2, 2) == pytest.approx(
            BEST_L2_B2, rel=1e-12
        )

    def test_best_case_is_definitionally_width_expansion(self):
        for lam in (0.5, 1.0):
            d = DecayModel.exponential(lam)
            for L in (1, 2, 4):
                for b in (1, 2, 3):
                    assert mcts_best_bound(d, IDEAL, L, b) == (
                        width_expansion_bound_simplified(d, IDEAL, L, b, b)
                    )

    def test_worst_case_values(self):
        assert mcts_worst_bound(EXP1, IDEAL, 2, 2) == pytest.approx(
            WORST_L2_B2, rel=1e-12
        )
        assert mcts_worst_bound(EXP1, IDEAL, 1, 1) == pytest.approx(E_M1, rel=1e-12)

    def test_worst_case_zero_selector(self):
        assert mcts_worst_bound(EXP1, SelectorModel.constant(0.0), 2, 2) == 0.0

    def test_worst_case_noisy_pool_limit(self):
        sel = SelectorModel.noisy_score(margin=1.0, noise_std=1.0)
        with pytest.raises(ResourceLimitError):
            mcts_worst_bound(EXP1, sel, 8, 6)  # 6^8 > 10^6 candidates
        assert mcts_worst_bound(EXP1, sel, 3, 4) > 0.0

    @pytest.mark.parametrize("selector", [IDEAL, SelectorModel.constant(0.9)])
    def test_worst_case_deep_tree_is_linear_in_depth(self, selector):
        # the pool b**l is only formed for noisy-score selectors; building it
        # as an exact integer at every depth made this take about 20 s
        start = time.perf_counter()
        assert mcts_worst_bound(EXP1, selector, 100_000, 2) == 0.0
        assert time.perf_counter() - start < 2.0
        sel = SelectorModel.noisy_score(margin=1.0, noise_std=1.0)
        with pytest.raises(ResourceLimitError, match="at depth 20"):
            mcts_worst_bound(EXP1, sel, 100_000, 2)

    def test_log_domain_worst_case_deep(self):
        v = mcts_worst_bound(EXP1, IDEAL, 40, 2, log=True)
        expected = -(40 * 41 / 2) + (40 * 41 / 2) * math.log(2)
        assert v == pytest.approx(expected, rel=1e-12)


class TestNMin:
    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    def test_best_case_is_exactly_b(self, b, L):
        assert n_min(b, L, "best") == float(b)

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
    def test_worst_case_closed_form(self, b, L):
        expected = float(b) ** ((L + 1) / 2)
        assert n_min(b, L, "worst") == pytest.approx(expected, rel=1e-14)

    def test_past_double_range_raises_range_error(self):
        # N_min = 10**500.5 here; exp() of its log overflows
        with pytest.raises(ValidationError, match="double range"):
            n_min(10, 1000, "worst")

    def test_known_small_cases(self):
        assert n_min(4, 3, "best") == 4.0
        assert n_min(2, 3, "worst") == pytest.approx(4.0, rel=1e-9)
        assert n_min(3, 1, "worst") == pytest.approx(3.0, rel=1e-9)

    def test_rejects_unknown_case(self):
        with pytest.raises(ValidationError):
            n_min(2, 2, "typical")


class TestCostTable:
    def test_best_case_costs_match(self):
        best, worst = cost_table(4, 2)
        assert (best.bon_cost, best.mcts_cost) == (8.0, 8.0)
        assert (worst.bon_cost, worst.mcts_cost) == (8.0, 16.0)

    def test_degenerate_tree(self):
        _, worst = cost_table(1, 5)
        assert (worst.bon_cost, worst.mcts_cost) == (5.0, 1.0)

    def test_cost_entry_validation(self):
        with pytest.raises(ValidationError):
            CostEntry("typical", 1.0, 1.0)
        with pytest.raises(ValidationError):
            CostEntry("best", 0.0, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: optimal_rollout(WrongModel(3.0), math.nan), "layer index must be >= 0, got nan"),
    (lambda: cost_table(math.nan, 2), "b must be >= 1, got nan"),
    (lambda: single_path_bound(EXP1, math.nan), "L must be >= 1, got nan"),
], ids=["optimal_rollout", "cost_table", "single_path_bound"])
def test_nan_argument_is_refused_by_name(call, message):
    # nan compares false both ways, so a check written as `value < least` passed it
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


class TestLookahead:
    def test_bound_vanishes_at_balance_point(self):
        v = lookahead_distinguishability_bound(math.e, WrongModel(math.e), 1.0)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_bound_with_vanishing_wrongness(self):
        v = lookahead_distinguishability_bound(1.0, WrongModel(1e-12), 1.0)
        assert v == pytest.approx(E_M1, rel=1e-9)

    def test_bound_two_layers(self):
        v = lookahead_distinguishability_bound(1.0, WrongModel(1.0), 2.0)
        assert v == pytest.approx(LOOKAHEAD_L2, rel=1e-12)

    def test_bound_requires_unclipped_depth(self):
        with pytest.raises(PreconditionError):
            lookahead_distinguishability_bound(math.e**2, WrongModel(1.0), 1.0)

    def test_rollout_forced_positive(self):
        assert optimal_rollout(WrongModel(math.e**3 / 2), 1) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_rollout_clipped_at_zero(self):
        assert optimal_rollout(WrongModel(0.5), 1) == 0.0

    def test_rollout_boundary(self):
        assert optimal_rollout(WrongModel(math.e**5 / 2), 5) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_rollout_matches_formula_exactly(self):
        for lam_delta in (math.e**3 / 2, math.e**4 / 2, 0.5, 7.25):
            for layer in (0, 1, 2, 5):
                w = WrongModel(lam_delta)
                assert optimal_rollout(w, layer) == max(
                    math.log(2.0 * lam_delta) - layer, 0.0
                )

    def test_rollout_maximizes_bound_over_integers(self):
        # whenever the optimum is interior (ln(2 lam_delta) > l + 1), the
        # real-valued optimum beats every integer rollout depth
        for lam_delta in (math.e**3 / 2, math.e**4 / 2, 30.0):
            for layer in (0, 1, 2):
                if math.log(2 * lam_delta) <= layer + 1:
                    continue
                w = WrongModel(lam_delta)
                star = optimal_rollout(w, layer)
                peak = lookahead_distinguishability_bound(1.0, w, layer + star)
                for gamma in range(0, 21):
                    v = lookahead_distinguishability_bound(1.0, w, layer + gamma)
                    assert peak >= v - 1e-12

