import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hude import table4, two_sample_ks, uncertain_hypothesis_test


class TestUncertainHypothesisTest:
    def test_reference_residuals_accepted(self):
        report = uncertain_hypothesis_test(table4(), alpha=0.05)
        assert report.outlier_indices == (50, 55)
        assert report.threshold == 3
        assert report.count == 60
        assert not report.reject

    def test_all_interior_accepts(self):
        report = uncertain_hypothesis_test(np.full(25, 0.5), alpha=0.1)
        assert report.outlier_indices == ()
        assert not report.reject

    def test_hand_counted_rejection(self):
        report = uncertain_hypothesis_test([0.001, 0.999, 0.5], alpha=0.5)
        # tails are [0, 0.25) and (0.75, 1]; threshold ceil(1.5) = 2
        assert report.threshold == 2
        assert report.outlier_indices == (1, 2)
        assert report.reject

    def test_boundary_values_are_interior(self):
        report = uncertain_hypothesis_test([0.025, 0.975, 0.5], alpha=0.05)
        assert report.outlier_indices == ()

    def test_threshold_floor_of_one(self):
        # alpha * M < 1 must still allow rejection on a single tail residual
        report = uncertain_hypothesis_test([0.5] * 9 + [0.999], alpha=0.05)
        assert report.threshold == 1
        assert report.reject

    def test_threshold_not_inflated_by_float_noise(self):
        # 0.05 * 60 is 3.0000000000000004 in floating point
        report = uncertain_hypothesis_test(np.full(60, 0.5), alpha=0.05)
        assert report.threshold == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uncertain_hypothesis_test([], alpha=0.05)
        with pytest.raises(ValueError):
            uncertain_hypothesis_test([0.5], alpha=0.0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.3, max_value=0.7), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=29),
        st.sampled_from([0.01, 0.99]),
    )
    def test_outlier_replacement_never_unrejects(self, eps, idx, tail_value):
        alpha = 0.2
        before = uncertain_hypothesis_test(eps, alpha)
        worse = list(eps)
        worse[idx % len(eps)] = tail_value
        after = uncertain_hypothesis_test(worse, alpha)
        if before.reject:
            assert after.reject

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=2, max_size=25),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant_decision(self, eps, rng):
        shuffled = list(eps)
        rng.shuffle(shuffled)
        a = uncertain_hypothesis_test(eps, 0.1)
        b = uncertain_hypothesis_test(shuffled, 0.1)
        assert a.reject == b.reject
        assert len(a.outlier_indices) == len(b.outlier_indices)


class TestTwoSampleKs:
    def test_identical_samples(self):
        sample = [0.1, 0.4, 0.7]
        result = two_sample_ks(sample, sample)
        assert result.d == 0.0
        assert not result.reject_at_5pct

    def test_reference_split_rejects(self):
        ref = table4().epsilons
        result = two_sample_ks(ref[:21], ref[43:])
        assert result.reject_at_5pct
        assert result.p_value < 0.05

    def test_disjoint_tiny_samples(self):
        # complete separation, but two points per sample cannot be significant
        # at 5% (the exact probability of this split is 1/3)
        result = two_sample_ks([0.1, 0.2], [0.8, 0.9])
        assert result.d == 1.0
        assert not result.reject_at_5pct

    def test_disjoint_moderate_samples_reject(self):
        result = two_sample_ks(np.linspace(0.0, 0.3, 12), np.linspace(0.6, 0.9, 12))
        assert result.d == 1.0
        assert result.reject_at_5pct

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            two_sample_ks([], [0.5])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20),
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20),
    )
    def test_symmetry(self, a, b):
        ab = two_sample_ks(a, b)
        ba = two_sample_ks(b, a)
        assert ab.d == pytest.approx(ba.d, abs=1e-15)
        assert ab.reject_at_5pct == ba.reject_at_5pct


@pytest.fixture(scope="module")
def scipy_stats():
    return pytest.importorskip("scipy.stats")


sample = st.lists(
    st.one_of(st.floats(min_value=0, max_value=1),
              st.integers(min_value=0, max_value=4).map(float)),
    min_size=1, max_size=30,
)


# scipy's asymptotic p-value divides by zero on some samples; only the
# statistic is compared.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(sample, sample)
def test_ks_statistic_matches_scipy(scipy_stats, a, b):
    # Tied values (the integer draws) exercise the pooled-CDF step.  scipy's
    # exact mode rounds d to a multiple of 1/lcm(na, nb), one ulp away from
    # the computed gap at times (1 - 2/3 for a=[0], b=[0, 0, 1]); its
    # asymptotic mode reports the gap itself.
    expected = scipy_stats.ks_2samp(a, b, method="asymp").statistic
    assert two_sample_ks(a, b).d == expected
