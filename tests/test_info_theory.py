"""Entropy, information-loss, decoder-error, and lower-bound checks on finite
discrete channels, verified against independent brute-force oracles."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowthink import info_theory
from slowthink.errors import ValidationError
from slowthink.info_theory import (
    ChannelSequence,
    FiniteJoint,
    InfoLossReport,
    binary_entropy,
    check_info_loss_inequality,
    conditional_entropy,
    entropy,
    fano_check,
    fano_suite,
    map_decoder_error,
    mutual_information,
    random_joint,
    random_sequence,
    snowball,
)

LN2 = 0.6931471805599453
LN3 = 1.0986122886681098
LN4 = 1.3862943611198906


def perfect_channel(size: int) -> FiniteJoint:
    return FiniteJoint(np.eye(size) / size)


def independent_uniform(t: int, r: int) -> FiniteJoint:
    return FiniteJoint(np.full((t, r), 1.0 / (t * r)))


def oracle_conditional_entropy(joint: FiniteJoint) -> float:
    """Brute-force -sum p(t,r) ln p(t|r) at 40 digits."""
    mp.mp.dps = 40
    p = joint.probs
    pr = p.sum(axis=0)
    total = mp.mpf(0)
    for t in range(p.shape[0]):
        for r in range(p.shape[1]):
            if p[t, r] > 0:
                cell = mp.mpf(p[t, r])
                total -= cell * mp.log(cell / mp.mpf(pr[r]))
    return float(total)


def oracle_mutual_information(joint: FiniteJoint) -> float:
    mp.mp.dps = 40
    p = joint.probs
    pt = p.sum(axis=1)
    pr = p.sum(axis=0)
    total = mp.mpf(0)
    for t in range(p.shape[0]):
        for r in range(p.shape[1]):
            if p[t, r] > 0:
                cell = mp.mpf(p[t, r])
                total += cell * mp.log(cell / (mp.mpf(pt[t]) * mp.mpf(pr[r])))
    return float(total)


class TestEntropy:
    def test_uniform_is_log_support(self):
        assert entropy([0.25] * 4) == pytest.approx(LN4, rel=1e-12)

    def test_point_mass_is_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_dyadic_value(self):
        assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * LN2, rel=1e-12)

    def test_rejects_invalid_distribution(self):
        with pytest.raises(ValidationError):
            entropy([0.5, 0.6])
        with pytest.raises(ValidationError):
            entropy([-0.1, 1.1])

    def test_maximum_entropy_principle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            size = int(rng.integers(2, 9))
            d = rng.dirichlet(np.ones(size))
            assert entropy(d) <= math.log(size) + 1e-12
        assert entropy(np.full(6, 1 / 6)) == pytest.approx(math.log(6), rel=1e-12)


class TestConditionalEntropyAndMi:
    def test_perfect_channel_has_no_loss(self):
        assert conditional_entropy(perfect_channel(3)) == pytest.approx(0.0, abs=1e-12)

    def test_independent_channel_keeps_full_entropy(self):
        assert conditional_entropy(independent_uniform(2, 2)) == pytest.approx(
            LN2, rel=1e-12
        )

    def test_independence_means_zero_mi(self):
        assert mutual_information(independent_uniform(3, 4)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_perfect_channel_mi_is_entropy(self):
        assert mutual_information(perfect_channel(5)) == pytest.approx(
            math.log(5), rel=1e-12
        )

    def test_random_joints_match_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            t = int(rng.integers(2, 6))
            r = int(rng.integers(2, 6))
            joint = random_joint(rng, t, r)
            assert conditional_entropy(joint) == pytest.approx(
                oracle_conditional_entropy(joint), abs=1e-12
            )
            assert mutual_information(joint) == pytest.approx(
                oracle_mutual_information(joint), abs=1e-12
            )

    def test_chain_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            joint = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            ht = entropy(joint.t_marginal())
            assert ht == pytest.approx(
                mutual_information(joint) + conditional_entropy(joint), abs=1e-10
            )

    def test_mi_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            joint = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            mi = mutual_information(joint)
            assert mi >= 0.0
            assert mi <= entropy(joint.t_marginal()) + 1e-12
            assert mi <= entropy(joint.r_marginal()) + 1e-12

    def test_data_processing_inequality_exhaustive(self):
        # every deterministic post-map g of the response, supports <= 4
        rng = np.random.default_rng(31)
        for _ in range(8):
            t = int(rng.integers(2, 5))
            r = int(rng.integers(2, 5))
            joint = random_joint(rng, t, r)
            base = mutual_information(joint)
            for g in itertools.product(range(r), repeat=r):
                mapped = np.zeros((t, r))
                for col, target in enumerate(g):
                    mapped[:, target] += joint.probs[:, col]
                keep = mapped.sum(axis=0) > 0
                reduced = mapped[:, keep]
                if reduced.shape[1] < 2:
                    continue  # constant map: zero information, trivially <=
                assert mutual_information(FiniteJoint(reduced)) <= base + 1e-12


class TestJointValidation:
    def test_mass_must_be_one(self):
        with pytest.raises(ValidationError):
            FiniteJoint(np.full((2, 2), 0.3))

    def test_rejects_negative_cells(self):
        with pytest.raises(ValidationError):
            FiniteJoint(np.array([[0.6, -0.1], [0.3, 0.2]]))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            FiniteJoint(np.array([[math.nan, 0.5], [0.25, 0.25]]))
        with pytest.raises(ValidationError):
            entropy([math.nan, 0.5, 0.5])

    def test_rejects_zero_marginal(self):
        with pytest.raises(ValidationError):
            FiniteJoint(np.array([[0.5, 0.5], [0.0, 0.0]]))

    def test_renormalizes_rounding_residue(self):
        p = np.full((2, 2), 0.25)
        p[0, 0] += 5e-13
        joint = FiniteJoint(p)
        assert joint.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_supports_must_be_at_least_two(self):
        with pytest.raises(ValidationError):
            FiniteJoint(np.array([[0.5, 0.5]]))


class TestSnowball:
    def test_perfect_layers_accumulate_nothing(self):
        seq = ChannelSequence(tuple(perfect_channel(3) for _ in range(4)))
        for l in range(2, 6):
            assert snowball(seq, l) == pytest.approx(0.0, abs=1e-12)

    def test_two_vacuous_layers(self):
        seq = ChannelSequence((independent_uniform(2, 2), independent_uniform(2, 2)))
        assert snowball(seq, 3) == pytest.approx(2 * LN2, rel=1e-12)

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(37)
        seq = random_sequence(rng, 3)
        expected = sum(oracle_conditional_entropy(seq.layers[i]) for i in range(3))
        assert snowball(seq, 4) == pytest.approx(expected, abs=1e-12)

    def test_nondecreasing_in_l(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            seq = random_sequence(rng, int(rng.integers(2, 7)))
            values = [snowball(seq, l) for l in range(2, len(seq) + 2)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_range_errors(self):
        seq = ChannelSequence((perfect_channel(2),))
        with pytest.raises(ValidationError):
            snowball(seq, 1)
        with pytest.raises(ValidationError):
            snowball(seq, 3)


class TestMapDecoder:
    def test_perfect_channel_decodes_exactly(self):
        assert map_decoder_error(perfect_channel(4)) == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_channel_error_is_not_negative(self):
        # the column maxima of this joint sum to 1 + 2**-52 in floating point
        joint = FiniteJoint(np.array([[1, 0, 2, 0, 1], [0, 1, 0, 1, 0]]) / 6)
        assert map_decoder_error(joint) == 0.0
        rep = fano_check(ChannelSequence((joint, joint)), 2)
        assert rep.lhs == 0.0 and rep.h_b == 0.0

    def test_independent_binary_is_coin_flip(self):
        assert map_decoder_error(independent_uniform(2, 3)) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_no_enumerated_decoder_beats_map(self):
        rng = np.random.default_rng(43)
        for _ in range(6):
            t = int(rng.integers(2, 5))
            r = int(rng.integers(2, 5))
            joint = random_joint(rng, t, r)
            best = min(
                1.0 - sum(joint.probs[f[col], col] for col in range(r))
                for f in itertools.product(range(t), repeat=r)
            )
            assert map_decoder_error(joint) == pytest.approx(best, abs=1e-12)


class TestInfoLossInequality:
    def test_identical_layers_hold_with_equality(self):
        layer = independent_uniform(3, 3)
        seq = ChannelSequence((layer, layer, layer))
        rep = check_info_loss_inequality(seq, 3)
        assert rep.assumptions_hold
        assert rep.holds
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

    def test_perfect_then_independent(self):
        seq = ChannelSequence((perfect_channel(3), independent_uniform(3, 3)))
        rep = check_info_loss_inequality(seq, 2)
        assert rep.mi_nonincreasing
        assert rep.entropy_condition
        assert rep.holds
        assert rep.lhs == pytest.approx(LN3, rel=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    def test_violated_assumptions_are_reported_not_claimed(self):
        # rising mutual information: independent first, perfect second
        seq = ChannelSequence((independent_uniform(3, 3), perfect_channel(3)))
        rep = check_info_loss_inequality(seq, 2)
        assert not rep.mi_nonincreasing
        assert not rep.assumptions_hold
        assert not rep.holds  # the inequality itself fails here, and may

    def test_guaranteed_when_assumptions_hold(self):
        rng = np.random.default_rng(47)
        checked = 0
        for _ in range(400):
            seq = random_sequence(rng, int(rng.integers(2, 6)))
            for l in range(2, len(seq) + 1):
                rep = check_info_loss_inequality(seq, l)
                if rep.assumptions_hold:
                    checked += 1
                    assert rep.holds
        assert checked > 50


class TestFanoCheck:
    def test_all_perfect_channels(self):
        seq = ChannelSequence(tuple(perfect_channel(3) for _ in range(3)))
        rep = fano_check(seq, 3)
        assert rep.defined
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs <= 1e-12
        assert rep.holds

    def test_independent_uniform_support_three(self):
        seq = ChannelSequence((independent_uniform(3, 3), independent_uniform(3, 3)))
        rep = fano_check(seq, 2)
        assert rep.defined and rep.assumption_holds and rep.entropy_condition
        assert rep.lhs == pytest.approx(2.0 / 3.0, rel=1e-12)
        # snowball is ln 3, and the bound lands exactly on the error rate
        assert rep.h_b == pytest.approx(0.6365141682948128, rel=1e-12)
        assert rep.rhs == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert rep.holds

    def test_binary_support_is_undefined(self):
        seq = ChannelSequence((independent_uniform(3, 3), independent_uniform(2, 3)))
        rep = fano_check(seq, 2)
        assert not rep.defined
        assert math.isnan(rep.rhs)

    def test_holds_on_random_batch_with_assumptions(self):
        result = fano_suite(instances=150, seed=123)
        assert result.violations == 0
        assert result.checks >= 150

    def test_mi_condition_alone_does_not_guarantee_the_bound(self):
        # dropping the entropy condition admits counterexamples, which is why
        # the suite gates on both conditions by default
        result = fano_suite(instances=300, seed=123, require_entropy_condition=False)
        assert result.violations > 0

    def test_attempt_budget_is_exact(self, monkeypatch):
        # binary supports leave every bound undefined, so no sequence qualifies
        # and the suite draws exactly its attempt budget of sequence lengths
        lengths = []
        default_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def integers(self, low, high):
                if (low, high) == (2, 9):
                    lengths.append(low)
                return self.rng.integers(low, high)

            def standard_exponential(self, size):
                return self.rng.standard_exponential(size)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        with pytest.raises(ValidationError, match="only 0 of 3 qualifying sequences found"):
            fano_suite(instances=3, support_range=(2, 2))
        assert len(lengths) == info_theory.MAX_ATTEMPTS_FACTOR * 3

        lengths.clear()
        result = fano_suite(instances=4, support_range=(2, 3), seed=5)
        assert len(lengths) <= info_theory.MAX_ATTEMPTS_FACTOR * 4
        assert max(idx for idx, _ in result.reports) < len(lengths)
        assert max(idx for idx, _ in result.reports) < info_theory.MAX_ATTEMPTS_FACTOR * 4


@st.composite
def joint_cells(draw) -> np.ndarray:
    """Joints on supports 2..6 from small integer or float weights, so that
    zero cells and exactly tied layers come up often."""
    t = draw(st.integers(2, 6))
    r = draw(st.integers(2, 6))
    weight = st.one_of(st.integers(0, 4), st.floats(0.0, 1.0))
    w = np.array(draw(st.lists(weight, min_size=t * r, max_size=t * r)), dtype=float)
    w = w.reshape(t, r)
    for i in range(max(t, r)):  # every row and column keeps some mass
        w[i % t, i % r] += 1.0
    return w / w.sum()


def joints():
    return joint_cells().map(FiniteJoint)


@st.composite
def sequences(draw) -> ChannelSequence:
    pool = draw(st.lists(joints(), min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))
    return ChannelSequence(tuple(picks))


def per_prefix(seq: ChannelSequence, l: int):
    """The layer-l terms recomputed from scratch over layers 1..l."""
    layers = seq.layers[:l]
    mis = [mutual_information(j) for j in layers]
    # entropy() renormalizes its argument, which moves the last bit of about
    # one marginal in ten; the checks take H(t) of the marginal as it is
    ents = [info_theory._ent(j.t_marginal()) for j in layers]
    snow = 0
    for j in layers[:-1]:  # in layer order, as sum() did before Python 3.12
        snow += conditional_entropy(j)
    mi_noninc = all(b <= a for a, b in zip(mis, mis[1:]))
    entropy_cond = ents[-1] >= float(np.mean(ents[:-1]))
    return snow, mi_noninc, entropy_cond


class TestOnePassEquivalence:
    """fano_check, check_info_loss_inequality and snowball read one pass over
    the layers; each must equal a per-prefix recomputation exactly."""

    @given(sequences())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_prefix_recomputation(self, seq):
        for l in range(2, len(seq) + 1):
            snow, mi_noninc, entropy_cond = per_prefix(seq, l)
            layer = seq.layers[l - 1]
            assert snowball(seq, l) == snow

            loss = conditional_entropy(layer)
            assert check_info_loss_inequality(seq, l) == InfoLossReport(
                l=l, lhs=loss, rhs=snow / (l - 1), mi_nonincreasing=mi_noninc,
                entropy_condition=entropy_cond, holds=loss >= snow / (l - 1) - 1e-12,
            )

            err = map_decoder_error(layer)
            h_b = binary_entropy(err)
            rep = fano_check(seq, l)
            assert (rep.l, rep.lhs, rep.h_b) == (l, err, h_b)
            assert (rep.assumption_holds, rep.entropy_condition) == (mi_noninc, entropy_cond)
            size = layer.t_support_size
            assert rep.defined == (size > 2)
            if rep.defined:
                rhs = (snow / (l - 1) - h_b) / math.log(size - 1)
                assert rep.rhs == rhs
                assert rep.holds == (err >= rhs - 1e-12)
            else:
                assert math.isnan(rep.rhs) and rep.holds
        total = 0
        for j in seq.layers:
            total += conditional_entropy(j)
        assert snowball(seq, len(seq) + 1) == total

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.just(((2, 4), 12)))
    @example(seed=11, both=True, config=((3, 6), 8))  # the benchmark's configuration
    @settings(max_examples=10, deadline=None)
    def test_suite_keeps_every_qualifying_check(self, seed, both, config):
        support, max_len = config
        result = fano_suite(
            instances=5, support_range=support, max_len=max_len, seed=seed,
            require_entropy_condition=both,
        )
        # replay the draws and select the qualifying layers through fano_check
        rng = np.random.default_rng(seed)
        expected = []
        for attempt in range(result.reports[-1][0] + 1):
            seq = random_sequence(rng, int(rng.integers(2, max_len + 1)), support)
            expected += [
                (attempt, rep)
                for rep in (fano_check(seq, l) for l in range(2, len(seq) + 1))
                if rep.defined and rep.assumption_holds
                and (rep.entropy_condition or not both)
            ]
        assert result.reports == tuple(expected)


def oracle_entropy(dist) -> float:
    mp.mp.dps = 40
    return float(-sum(mp.mpf(x) * mp.log(mp.mpf(x)) for x in dist if x > 0))


class TestBatchedEvaluator:
    """The suite evaluates its joints zero-padded in batches; every other
    function evaluates one joint alone."""

    @given(st.lists(joint_cells(), min_size=1, max_size=5), st.integers(6, 8))
    @settings(max_examples=60, deadline=None)
    def test_terms_are_the_same_alone_and_in_a_wider_batch(self, arrays, width):
        batch = [np.full((width, width), width**-2.0)] + arrays + [np.eye(width) / width]
        cells = np.zeros((width, width, len(batch)))
        for j, a in enumerate(batch):
            cells[: a.shape[0], : a.shape[1], j] = a
        shapes = [a.shape for a in batch]
        batched = info_theory._evaluate(cells, [t for t, _ in shapes], [r for _, r in shapes])[3]
        for a, terms in zip(batch, batched):
            joint = FiniteJoint(a)
            assert terms == (a.shape[0], info_theory._ent(joint.t_marginal()),
                             mutual_information(joint), conditional_entropy(joint),
                             map_decoder_error(joint))
            _, h_t, mi, loss, err = terms
            assert h_t == pytest.approx(oracle_entropy(a.sum(axis=1)), abs=1e-12)
            assert mi == pytest.approx(oracle_mutual_information(joint), abs=1e-12)
            assert loss == pytest.approx(oracle_conditional_entropy(joint), abs=1e-12)
            assert err == pytest.approx(1.0 - math.fsum(joint.probs.max(axis=0)), abs=1e-12)


class TestGenerators:
    def test_random_joint_is_valid_and_seeded(self):
        rng = np.random.default_rng(53)
        j1 = random_joint(rng, 4, 3)
        j2 = random_joint(np.random.default_rng(53), 4, 3)
        assert np.array_equal(j1.probs, j2.probs)
        assert j1.probs.shape == (4, 3)
        for joint in [j1] + [random_joint(rng, 5, 6) for _ in range(5)]:
            # the stored marginals are the sums of probs, bit for bit
            assert np.array_equal(joint.t_marginal(), joint.probs.sum(axis=1))
            assert np.array_equal(joint.r_marginal(), joint.probs.sum(axis=0))
            for arr in (joint.probs, joint.t_marginal(), joint.r_marginal()):
                assert not arr.flags.writeable

    def test_random_joint_redraws_an_empty_marginal(self):
        class Stub:
            def __init__(self, draws):
                self.draws = iter(draws)
                self.calls = 0

            def standard_exponential(self, size):
                assert size == 4
                self.calls += 1
                return next(self.draws)

        # the cells sum to 1 exactly, so normalizing keeps them bit for bit
        second = np.array([0.125, 0.25, 0.375, 0.25])
        stub = Stub([np.array([0.0, 0.0, 0.5, 0.5]), second])
        joint = random_joint(stub, 2, 2)
        assert stub.calls == 2
        assert np.array_equal(joint.probs.ravel(), second)

    def test_random_sequence_supports_in_range(self):
        rng = np.random.default_rng(59)
        seq = random_sequence(rng, 8, support_range=(3, 6))
        assert len(seq) == 8
        for layer in seq.layers:
            assert 3 <= layer.t_support_size <= 6
            assert 3 <= layer.r_support_size <= 6

    def test_binary_entropy_bounds(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(LN2, rel=1e-12)
        with pytest.raises(ValidationError):
            binary_entropy(1.5)
