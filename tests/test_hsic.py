"""Kernel dependence estimation and decay fitting."""

import math

import numpy as np
import pytest

from slowthink import hsic as hsic_module
from slowthink.cli import dispatch
from slowthink.errors import ResourceLimitError, ValidationError
from slowthink.hsic import (
    HsicConfig,
    _center,
    SampleSet,
    fit_decay,
    gaussian_gram,
    hsic,
    per_token_hsic,
    permutation_null,
)

# Two rows at squared distance 25 with sigma=50 and X = Y: the centered-trace
# statistic reduces to (1 - exp(-25/5000))^2; frozen from a 30-digit oracle.
TWO_ROW_VALUE = 2.4875363803426869e-05


class TestGaussianGram:
    def test_identical_rows_give_all_ones(self):
        x = np.zeros((3, 2))
        assert np.array_equal(gaussian_gram(x), np.ones((3, 3)))

    def test_distance_sigma_sqrt2_gives_e_minus_one(self):
        sigma = 50.0
        x = np.array([[0.0], [sigma * math.sqrt(2.0)]])
        k = gaussian_gram(x, HsicConfig(sigma=sigma))
        assert k[0, 1] == pytest.approx(math.exp(-1), rel=1e-12)

    def test_random_matrix_matches_elementwise_formula(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 2))
        k = gaussian_gram(x, HsicConfig(sigma=50.0))
        for i in range(3):
            for j in range(3):
                d2 = float(((x[i] - x[j]) ** 2).sum())
                assert k[i, j] == pytest.approx(math.exp(-d2 / 5000.0), rel=1e-12)

    def test_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 5))
        k = gaussian_gram(x)
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 1.0)


class TestHsic:
    def test_constant_input_is_exactly_zero(self):
        x = np.ones((10, 3))
        y = np.random.default_rng(0).normal(size=(10, 3))
        assert hsic(x, y) == 0.0
        assert hsic(y, x) == 0.0

    def test_two_row_hand_value(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert hsic(x, x) == pytest.approx(TWO_ROW_VALUE, rel=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=(40, 2))
        assert hsic(x, y) == pytest.approx(hsic(y, x), abs=1e-10)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 4))
        y = x @ rng.normal(size=(4, 2))
        base = hsic(x, y)
        perm = rng.permutation(30)
        assert hsic(x[perm], y[perm]) == pytest.approx(base, abs=1e-10)

    def test_scale_and_bandwidth_covariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=(25, 3)) + 0.5 * x
        base = hsic(x, y, HsicConfig(sigma=50.0))
        doubled = hsic(2 * x, 2 * y, HsicConfig(sigma=100.0))
        assert doubled == pytest.approx(base, abs=1e-10)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            hsic(np.zeros((4, 2)), np.zeros((5, 2)))

    def test_dependent_exceeds_independent_null(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(200, 2))
        y = x + 0.1 * rng.normal(size=(200, 2))
        cfg = HsicConfig(sigma=5.0)
        stat, null = permutation_null(x, y, cfg, count=200, seed=1)
        assert stat == hsic(x, y, cfg)
        assert stat > np.quantile(null, 0.95)

    def test_independent_stays_inside_null(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=(200, 3))
        stat, null = permutation_null(x, y, count=1000, seed=2)
        assert stat == hsic(x, y)
        assert stat < np.quantile(null, 0.95)


class TestPermutationNull:
    def test_matches_elementwise_product_over_ix_gathers(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(80, 3))
        y = x[:, :2] + rng.normal(size=(80, 2))
        cfg = HsicConfig(sigma=2.0)
        _, null = permutation_null(x, y, cfg, count=50, seed=4)
        kc = _center(gaussian_gram(x, cfg))
        lc = _center(gaussian_gram(y, cfg))
        perms = np.random.default_rng(4)
        for value in null:
            perm = perms.permutation(80)
            expected = float((kc * lc[np.ix_(perm, perm)]).sum()) / 79**2
            assert value == pytest.approx(max(expected, 0.0), rel=1e-12, abs=0.0)

    def test_identity_permutation_reproduces_the_observed_statistic(self, monkeypatch):
        class Identity:
            def __init__(self, seed):
                pass

            def permutation(self, n):
                return np.arange(n)

        monkeypatch.setattr(np.random, "default_rng", Identity)
        for seed in range(5):
            data = np.random.Generator(np.random.PCG64(seed))
            x = data.normal(size=(200, 3))
            y = x[:, :2] + data.normal(size=(200, 2))
            observed, null = permutation_null(x, y, count=1)
            assert null[0] == observed == hsic(x, y)

    def test_a_permutation_test_builds_each_kernel_once(self, tmp_path, monkeypatch):
        # the observed statistic comes from the kernels the null permutes;
        # computing it apart built both kernels twice, 4 gaussian_gram calls
        calls = []

        def counted(*args):
            calls.append(args)
            return gaussian_gram(*args)

        monkeypatch.setattr(hsic_module, "gaussian_gram", counted)
        rng = np.random.default_rng(31)
        for name in ("x", "y"):
            rows = "\n".join(f"{a},{b}" for a, b in rng.normal(size=(20, 2)))
            (tmp_path / f"{name}.csv").write_text(f"f0,f1\n{rows}\n")
        argv = ["hsic", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                "--permutation-test", "10", "--out", str(tmp_path / "out.csv")]
        assert dispatch(argv) == 0
        assert len(calls) == 2

    def test_seeded_and_nonnegative(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(40, 2))
        y = rng.normal(size=(40, 2))
        _, a = permutation_null(x, y, count=30, seed=7)
        assert np.array_equal(a, permutation_null(x, y, count=30, seed=7)[1])
        assert a.shape == (30,) and np.all(a >= 0.0)


class TestResourceLimits:
    """Sample and permutation counts past their limits are refused before
    any kernel matrix or null is allocated."""

    def test_samples_over_the_limit_are_refused(self, monkeypatch):
        monkeypatch.setattr(hsic_module, "MAX_SAMPLES", 4)
        monkeypatch.setattr(hsic_module, "gaussian_gram", None)  # never reached
        x = np.arange(10.0).reshape(5, 2)
        for call in (lambda: hsic(x, x), lambda: permutation_null(x, x, count=3),
                     lambda: hsic(SampleSet(x), SampleSet(x))):
            with pytest.raises(ResourceLimitError, match="^5 samples are over the 4 limit$"):
                call()

    def test_samples_at_the_limit_are_accepted(self, monkeypatch):
        monkeypatch.setattr(hsic_module, "MAX_SAMPLES", 5)
        x = np.arange(10.0).reshape(5, 2)
        assert hsic(x, x) > 0.0
        assert gaussian_gram(x).shape == (5, 5)

    def test_permutations_over_the_limit_are_refused(self, monkeypatch):
        monkeypatch.setattr(hsic_module, "MAX_PERMUTATIONS", 3)
        monkeypatch.setattr(hsic_module, "_centered_grams", None)  # never reached
        x = np.arange(10.0).reshape(5, 2)
        with pytest.raises(ResourceLimitError, match="^4 permutations are over the 3 limit$"):
            permutation_null(x, x, count=4)

    def test_permutations_at_the_limit_are_accepted(self, monkeypatch):
        monkeypatch.setattr(hsic_module, "MAX_PERMUTATIONS", 3)
        x = np.arange(10.0).reshape(5, 2)
        assert permutation_null(x, x, count=3)[1].shape == (3,)


class TestSampleSet:
    def test_validates_shape_and_lengths(self):
        with pytest.raises(ValidationError):
            SampleSet(np.zeros((1, 3)))
        with pytest.raises(ValidationError):
            SampleSet(np.zeros((3, 2)), lengths=(1.0, 2.0))
        with pytest.raises(ValidationError):
            SampleSet(np.zeros((2, 2)), lengths=(1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_refuses_non_finite_lengths(self, bad):
        with pytest.raises(ValidationError, match=f"^lengths must be finite, got {bad}$"):
            SampleSet(np.zeros((2, 2)), lengths=(bad, 2.0))

    def test_mean_length(self):
        s = SampleSet(np.zeros((2, 2)), lengths=(2.0, 6.0))
        assert s.mean_length() == 4.0
        assert SampleSet(np.zeros((2, 2))).mean_length() is None

    def test_accepted_by_hsic(self):
        rng = np.random.default_rng(23)
        s = SampleSet(rng.normal(size=(12, 2)))
        assert hsic(s, s) >= 0.0


class TestPerToken:
    def test_division(self):
        assert per_token_hsic(0.8, 4.0) == pytest.approx(0.2)

    def test_zero_value(self):
        assert per_token_hsic(0.0, 7.0) == 0.0

    def test_unit_length_is_identity(self):
        assert per_token_hsic(0.37, 1.0) == 0.37

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValidationError):
            per_token_hsic(1.0, 0.0)


class TestFitDecay:
    def test_noiseless_exponential_recovered_exactly(self):
        x = np.linspace(0.5, 10.0, 20)
        y = 2.0 * np.exp(-0.5 * x)
        exp_fit, lin_fit = fit_decay(np.column_stack([x, y]))
        assert exp_fit.params[0] == pytest.approx(2.0, abs=1e-9)
        assert exp_fit.params[1] == pytest.approx(0.5, abs=1e-9)
        assert exp_fit.r2 == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(exp_fit.predict(x), y, rtol=0, atol=1e-9)
        assert lin_fit.r2 < 1.0

    def test_planted_linear_prefers_linear(self):
        x = np.linspace(0.0, 8.0, 15)
        y = 1.0 - 0.1 * x  # stays positive on this range
        exp_fit, lin_fit = fit_decay(np.column_stack([x, y]))
        assert lin_fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert lin_fit.params[0] == pytest.approx(1.0, abs=1e-9)
        assert lin_fit.params[1] == pytest.approx(-0.1, abs=1e-9)
        assert exp_fit.r2 < 1.0

    def test_noisy_exponential_rate_within_ten_percent(self):
        rng = np.random.default_rng(29)
        x = np.linspace(0.2, 12.0, 50)
        y = 1.7 * np.exp(-0.4 * x) * (1.0 + 0.05 * rng.standard_normal(50))
        exp_fit, lin_fit = fit_decay(np.column_stack([x, y]))
        assert exp_fit.params[1] == pytest.approx(0.4, rel=0.10)
        assert exp_fit.r2 > lin_fit.r2

    def test_requires_three_distinct_x(self):
        with pytest.raises(ValidationError):
            fit_decay([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])
        with pytest.raises(ValidationError):
            fit_decay([(1.0, 1.0), (2.0, 0.5)])

    def test_requires_positive_values_for_exponential(self):
        with pytest.raises(ValidationError):
            fit_decay([(1.0, -1.0), (2.0, -0.5), (3.0, 0.0)])

    def test_predict_matches_models(self):
        exp_fit, lin_fit = fit_decay([(0.0, 4.0), (1.0, 2.0), (2.0, 1.0)])
        assert exp_fit.predict([0.0])[0] == pytest.approx(exp_fit.params[0], rel=1e-9)
        assert lin_fit.predict([0.0])[0] == pytest.approx(lin_fit.params[0], rel=1e-9)
