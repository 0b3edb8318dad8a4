"""Decay-law, selector, and answer-model contracts."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr as scipy_log_ndtr
from scipy.special import ndtr

from slowthink import models
from slowthink.calibration import TraceStats
from slowthink.errors import ValidationError
from slowthink.hsic import HsicConfig
from slowthink.models import (
    AnswerModel,
    DecayModel,
    SelectorModel,
    WrongModel,
    _GRID,
    _log_ndtr_grid,
    log_ndtr,
    selector_success_prob,
    step_correct_prob,
)
from slowthink.simulate import StrategySpec

# Selection success for one margin-lifted candidate against a single noisy
# competitor has the closed form Phi(margin / (std * sqrt(2))); frozen from a
# 4001-node Simpson quadrature at 30 digits. A 10^6-draw paired-Gaussian Monte
# Carlo oracle agrees: 0.760249 +/- 0.00043.
TWO_CANDIDATE_SUCCESS = 0.7602499389065233

# The selection integral is exact to quadrature accuracy, far below this.
EXACT_RTOL = 1e-9


class TestDecayModel:
    def test_exponential_single_factor(self):
        d = DecayModel.exponential(1.0)
        assert step_correct_prob(d, 1) == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_exponential_clips_at_one(self):
        d = DecayModel.exponential(10.0)
        assert step_correct_prob(d, 1) == 1.0

    def test_tabulated_lookup(self):
        d = DecayModel.tabulated([0.9, 0.5, 0.1])
        assert step_correct_prob(d, 2) == 0.5

    def test_tabulated_out_of_range(self):
        d = DecayModel.tabulated([0.9, 0.5])
        with pytest.raises(ValidationError):
            step_correct_prob(d, 3)

    def test_layer_index_must_be_positive(self):
        with pytest.raises(ValidationError):
            step_correct_prob(DecayModel.exponential(1.0), 0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            DecayModel.exponential(0.0)

    def test_rejects_out_of_range_table_entries(self):
        with pytest.raises(ValidationError):
            DecayModel.tabulated([0.5, 1.2])

    def test_from_config_round_trip(self):
        d = DecayModel.from_config({"kind": "exponential", "lambda_tau": 2.0})
        assert d.lambda_tau == 2.0
        t = DecayModel.from_config({"kind": "tabulated", "table": [1.0, 0.5]})
        assert t.table == (1.0, 0.5)


class TestValidateDecay:
    """A decay model may not increase; a tabulated one is checked when built."""

    def test_exponential_always_ok(self):
        # lambda past e clips layer 1 at 1 and still decays after it
        d = DecayModel.exponential(3.0)
        assert step_correct_prob(d, 1) == 1.0 > step_correct_prob(d, 2)

    def test_increasing_table_reports_index(self):
        with pytest.raises(ValidationError, match="table entry 2 is 0.7, above entry 1's 0.5"):
            DecayModel.tabulated([0.5, 0.7])
        with pytest.raises(ValidationError, match="entry 3"):
            DecayModel.from_config({"kind": "tabulated", "table": [0.9, 0.8, 0.85]})

    def test_nonincreasing_table_ok(self):
        assert DecayModel.tabulated([1.0, 1.0, 0.2]).table == (1.0, 1.0, 0.2)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_exponential_sequence_nonincreasing(self, lam):
        d = DecayModel.exponential(lam)
        probs = [step_correct_prob(d, l) for l in range(1, 30)]
        assert all(b <= a for a, b in zip(probs, probs[1:]))

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12
        )
    )
    @settings(max_examples=200)
    def test_validated_tables_are_nonincreasing(self, values):
        table = sorted(values, reverse=True)
        d = DecayModel.tabulated(table)
        probs = [step_correct_prob(d, l) for l in range(1, len(table) + 1)]
        assert all(b <= a for a, b in zip(probs, probs[1:]))


class TestSelectorModel:
    def test_ideal_is_always_certain(self):
        assert selector_success_prob(SelectorModel.ideal(), 64) == 1.0

    def test_constant_ignores_pool_size(self):
        sel = SelectorModel.constant(0.9)
        assert selector_success_prob(sel, 5) == 0.9

    def test_noisy_two_candidates_matches_oracle(self):
        sel = SelectorModel.noisy_score(margin=1.0, noise_std=1.0)
        assert TWO_CANDIDATE_SUCCESS == pytest.approx(ndtr(1 / math.sqrt(2)), rel=1e-15)
        assert selector_success_prob(sel, 2) == pytest.approx(
            TWO_CANDIDATE_SUCCESS, rel=EXACT_RTOL
        )

    @pytest.mark.parametrize(
        "b,expected",
        [(3, 0.633702045778), (4, 0.552031438443), (8, 0.385480977732), (16, 0.260605488984)],
    )
    def test_noisy_larger_pools_match_quadrature(self, b, expected):
        sel = SelectorModel.noisy_score(margin=1.0, noise_std=1.0)
        assert selector_success_prob(sel, b) == pytest.approx(expected, rel=EXACT_RTOL)

    # Values from scipy.integrate.quad, agreeing with a 30-digit mpmath
    # quadrature. A small margin-to-noise ratio or a pool of 10**6 puts the
    # integrand's mass far into the upper tail.
    @pytest.mark.parametrize(
        "margin,std,b,expected",
        [(0.5, 2.0, 256, 0.0077134187864409945), (1.0, 2.0, 10**6, 1.0119396881677336e-05)],
    )
    def test_noisy_tail_pools_match_quadrature(self, margin, std, b, expected):
        sel = SelectorModel.noisy_score(margin=margin, noise_std=std)
        assert selector_success_prob(sel, b) == pytest.approx(expected, rel=EXACT_RTOL)

    def test_noisy_nonincreasing_in_pool_size(self):
        sel = SelectorModel.noisy_score(margin=1.0, noise_std=1.0)
        values = [selector_success_prob(sel, b) for b in range(1, 17)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_vanishing_noise_is_certain(self):
        sel = SelectorModel.noisy_score(margin=1.0, noise_std=1e-6)
        for b in (2, 5, 64):
            assert selector_success_prob(sel, b) == pytest.approx(1.0, abs=1e-3)

    def test_single_candidate_is_certain(self):
        sel = SelectorModel.noisy_score(margin=0.5, noise_std=2.0)
        assert selector_success_prob(sel, 1) == 1.0

    def test_deterministic_across_calls(self):
        sel = SelectorModel.noisy_score(margin=0.7, noise_std=1.3)
        assert selector_success_prob(sel, 6) == selector_success_prob(
            SelectorModel.noisy_score(margin=0.7, noise_std=1.3), 6
        )

    def test_pool_size_must_be_positive(self):
        with pytest.raises(ValidationError):
            selector_success_prob(SelectorModel.ideal(), 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            SelectorModel.constant(1.5)
        with pytest.raises(ValidationError):
            SelectorModel.noisy_score(margin=0.0, noise_std=1.0)
        with pytest.raises(ValidationError):
            SelectorModel.noisy_score(margin=1.0, noise_std=-0.1)

    @given(
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.05, max_value=5.0),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_probabilities_stay_in_unit_interval(self, margin, std, b):
        sel = SelectorModel.noisy_score(margin=margin, noise_std=std)
        assert 0.0 <= selector_success_prob(sel, b) <= 1.0


ROW_TRIALS = 4000


@pytest.mark.parametrize("kind", sorted(models._SELECTOR_ROWS))
def test_selector_row_keep_draws_its_kernel(kind):
    """Every selector row, at every width and top its kernel covers: each
    kernel row is a pmf with no mass above min(c, top), and the engine keep
    of ROW_TRIALS trials at one correct count draws that pmf within 4 SE. At
    top None the keep must pass a trial, with all c kept, as often as the
    top-1 kernel keeps a correct candidate. Each field of the kind is 0.8."""
    row = models._SELECTOR_ROWS[kind]
    sel = SelectorModel(kind, **dict.fromkeys(row.params, 0.8))
    rng = np.random.Generator(np.random.Philox(5))
    for width in range(1, 5):
        for top in (*range(1, width + 1), None):
            kernel = row.kernel(sel, width, top or 1)
            if kernel is None:
                continue  # no exact form
            assert kernel.shape == (width + 1, (top or 1) + 1)
            np.testing.assert_allclose(kernel.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert kernel.min() >= -1e-12  # 1 - w(c, c) may round below 0
            for c in range(width + 1):
                assert not kernel[c, min(c, top or 1) + 1 :].any(), (width, top, c)
            for c in range(1, width + 1):
                kept, trials = row.keep(sel, rng, np.array([c]), np.array([ROW_TRIALS]),
                                        width, top)
                assert (np.diff(kept) > 0).all() and (kept > 0).all() and (trials > 0).all()
                counts = np.zeros(kernel.shape[1])
                if top is None:
                    assert set(kept.tolist()) <= {c}
                    counts[1] = trials.sum()
                else:
                    counts[kept] = trials
                counts[0] = ROW_TRIALS - counts.sum()
                want = ROW_TRIALS * kernel[c]
                se = np.sqrt(np.maximum(want * (1 - kernel[c]), 0.0))
                assert (np.abs(counts - want) <= 4 * se + 1e-6).all(), (width, top, c, counts)


class TestLogNdtr:
    """``log_ndtr`` against scipy's, which the runtime no longer loads."""

    # Past x = 37.5, log Phi(x) = log1p(-Phi(-x)) is subnormal, carries fewer
    # than 53 bits, and scipy rounds it to 0 where math.erfc keeps it.
    FLOOR = sys.float_info.min

    def assert_close(self, x):
        got, want = log_ndtr(x), scipy_log_ndtr(x)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=self.FLOOR)

    # the documented domain is x >= -37; the -20 shift reaches x = -32
    @pytest.mark.parametrize("shift", [-20, -5, 0, 5, 20, 100])
    def test_shifted_grid(self, shift):
        self.assert_close(_GRID + shift)

    @pytest.mark.parametrize("x", [38.0, -20.0, -20.000001, 0.0, 6.5])
    def test_scalar_points(self, x):
        self.assert_close(x)

    def test_limits(self):
        assert log_ndtr(np.inf) == 0.0
        assert np.isnan(log_ndtr(np.nan))

    def test_grid_is_cached_read_only_per_shift(self):
        grid = _log_ndtr_grid(4.0)
        assert _log_ndtr_grid(4.0) is grid and not grid.flags.writeable
        assert grid.tolist() == log_ndtr(_GRID + 4.0).tolist()
        assert _log_ndtr_grid(0.0).tolist() == log_ndtr(_GRID).tolist()


class TestWrongAndAnswerModels:
    def test_wrong_model_requires_positive_rate(self):
        with pytest.raises(ValidationError):
            WrongModel(0.0)
        assert WrongModel(math.e**3 / 2).lambda_delta > 0

    def test_answer_model_requires_at_least_one_label(self):
        with pytest.raises(ValidationError):
            AnswerModel(0)
        assert AnswerModel(100).answer_space_size == 100


def test_models_are_immutable():
    d = DecayModel.exponential(1.0)
    with pytest.raises(Exception):
        d.lambda_tau = 2.0
    s = SelectorModel.constant(0.5)
    with pytest.raises(Exception):
        s.epsilon = 0.9


def _stray(owner, name):
    return f"^{owner} takes no parameter {name}; its parameters are kind"


# Objects built in code take the checks that config sections take.
@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: SelectorModel("noisy_score", margin=1, noise_std=math.nan),
                     "^noise_std must be finite", id="noisy-nan-std"),
        pytest.param(lambda: DecayModel("exponential", lambda_tau=math.inf),
                     "^lambda_tau must be finite", id="exponential-inf"),
        pytest.param(lambda: DecayModel("exponential", lambda_tau=True),
                     "^lambda_tau must be a number", id="exponential-bool"),
        pytest.param(lambda: SelectorModel("constant", epsilon=True),
                     "^epsilon must be a number", id="constant-bool"),
        pytest.param(lambda: DecayModel("tabulated", table=5),
                     "^tabulated decay table must be a list, got 5$", id="table-not-a-list"),
        pytest.param(lambda: DecayModel.tabulated("0.9"),
                     "^tabulated decay table must be a list, got '0.9'$", id="table-string"),
        pytest.param(lambda: StrategySpec("beam", k=4, b=2, N=5),
                     _stray("beam", "N"), id="beam-stray-N"),
        pytest.param(lambda: WrongModel(math.inf), "^lambda_delta must be finite", id="wrong-inf"),
        pytest.param(lambda: WrongModel(True), "^lambda_delta must be a number", id="wrong-bool"),
        pytest.param(lambda: HsicConfig(math.inf), "^sigma must be finite", id="hsic-inf"),
        pytest.param(lambda: HsicConfig(True), "^sigma must be a number", id="hsic-bool"),
        pytest.param(lambda: TraceStats(2.0, math.inf, 3.0), "^avg_p must be finite",
                     id="trace-stats-inf"),
        pytest.param(lambda: TraceStats(True, 2.0, 3.0), "^avg_b must be a number",
                     id="trace-stats-bool"),
        pytest.param(lambda: DecayModel("exponential", lambda_tau=1.0, table=(0.5,)),
                     _stray("exponential decay", "table"), id="exponential-stray-table"),
        pytest.param(lambda: DecayModel("tabulated", lambda_tau=1.0, table=(0.5,)),
                     _stray("tabulated decay", "lambda_tau"), id="tabulated-stray-lambda"),
        pytest.param(lambda: SelectorModel("ideal", epsilon=0.5),
                     _stray("ideal selector", "epsilon"), id="ideal-stray-epsilon"),
        pytest.param(lambda: SelectorModel("constant", epsilon=0.5, margin=1.0),
                     _stray("constant selector", "margin"), id="constant-stray-margin"),
        pytest.param(lambda: SelectorModel("noisy_score", margin=1.0, noise_std=0.5, epsilon=0.9),
                     _stray("noisy_score selector", "epsilon"), id="noisy-stray-epsilon"),
    ],
)
def test_direct_construction_is_checked(build, message):
    with pytest.raises(ValidationError, match=message):
        build()
