import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
from hude import (
    AlphaPathConditionWarning,
    InitialState,
    ResidualVector,
    estimate_mle,
    estimate_moments,
    minimize_in_box,
    mle_objective,
    moment_objective,
    simulate_observations,
)


@pytest.fixture(scope="module")
def decay_model():
    # dX = -th * X dt + 0.2 dC: the drift rate moves the one-step envelope
    # centre, so the first residual moment identifies it
    return hude.HudeModel.parse(1, "-th*x0", ["0.2"], params=["th"])


@pytest.fixture(scope="module")
def decay_series(decay_model):
    times = 0.05 * np.arange(101)
    return simulate_observations(
        decay_model, {"th": 0.3}, InitialState(0.0, [2.0]), times, seed=3, h=1e-3
    )


@pytest.fixture(scope="module")
def scale_model():
    # dX = -0.4 X dt + sig dC: the tail window of the residuals pins sig
    return hude.HudeModel.parse(1, "-0.4*x0", ["sig"], params=["sig"])


@pytest.fixture(scope="module")
def scale_series(scale_model):
    times = 0.05 * np.arange(201)
    return simulate_observations(
        scale_model, {"sig": 0.3}, InitialState(0.0, [1.0]), times, seed=2, h=1e-3
    )


class TestMomentObjective:
    def test_hand_value(self):
        rv = ResidualVector([0.25, 0.5, 0.75])
        value = moment_objective(None, lambda theta: rv, p=2)
        # mean gap 0, second-moment gap -1/24
        assert value == pytest.approx(1.7361e-3, abs=1e-7)
        assert value == pytest.approx((1.0 / 24) ** 2, rel=1e-12)

    def test_zero_at_exact_moments(self):
        d = (1.0 / 12.0) ** 0.5
        rv = ResidualVector([0.5 - d, 0.5 + d])
        assert moment_objective(None, lambda theta: rv, p=2) < 1e-16

    def test_reference_residuals_small(self):
        ref = hude.table4()
        assert moment_objective(None, lambda theta: ref, p=2) <= 1e-4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            moment_objective(None, lambda theta: np.array([]), p=2)
        with pytest.raises(ValueError):
            moment_objective(None, lambda theta: ResidualVector([0.5]), p=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=20),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, eps, rng):
        shuffled = list(eps)
        rng.shuffle(shuffled)
        a = moment_objective(None, lambda theta: np.array(eps), p=3)
        b = moment_objective(None, lambda theta: np.array(shuffled), p=3)
        assert a == pytest.approx(b, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(P=st.integers(1, 100), M=st.integers(1, 500), p=st.integers(1, 4),
           infinite=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_batch_scores_each_row_as_alone(self, P, M, p, infinite, seed):
        # A fit scores a batch's (P, M) levels in one expression: each row's
        # score has the bits of the one-vector score, also where a row holds
        # an inf or is inf throughout.
        rng = np.random.default_rng(seed)
        block = rng.uniform(0.0, 1.0, (P, M))
        rows = rng.integers(0, P, infinite)
        block[rows, rng.integers(0, M, infinite)] = np.inf
        block[rows[:1]] = np.inf
        scores = hude.estimate._moment_scores(block, p)
        assert scores.shape == (P,)
        for row, score in zip(block, scores):
            alone = hude.estimate._moment_score(row, p)
            # The score as it was computed one vector at a time.
            gaps = np.array([np.mean(row**k) - 1.0 / (k + 1)
                             for k in range(1, p + 1)])
            assert (np.float64(alone).tobytes() == score.tobytes()
                    == np.float64(np.sum(gaps**2)).tobytes())


class TestMinimizeInBox:
    def test_quadratic(self):
        f = lambda x: (x[0] - 0.3) ** 2 + 10 * (x[1] - 0.7) ** 2
        x, fval, _ = minimize_in_box(f, [0.5, 0.5], [(0, 1), (0, 1)], restarts=1,
                                     presearch=False)
        assert x == pytest.approx([0.3, 0.7], abs=1e-5)
        assert fval < 1e-9

    def test_minimum_on_boundary(self):
        f = lambda x: (x[0] + 0.5) ** 2
        x, _, _ = minimize_in_box(f, [0.5], [(0, 1)], restarts=1, presearch=False)
        assert x[0] == pytest.approx(0.0, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_never_leaves_box(self, c0, c1, seed):
        f = lambda x: (x[0] - c0) ** 2 + (x[1] - c1) ** 2
        x, _, _ = minimize_in_box(f, [0.0, 0.0], [(-1, 1), (-1, 1)], restarts=2,
                                  seed=seed)
        assert np.all(x >= -1) and np.all(x <= 1)

    def test_starts_are_drawn_when_the_search_reaches_them(self):
        # The first start converges below stop_below, so none of the other
        # 999 uniform starts is drawn; without a stop, each one is.
        draws, make = [], np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = make(seed)

            def uniform(self, lo, hi):
                draws.append(lo.size)
                return self.rng.uniform(lo, hi)

        f = lambda x: (x[0] - 0.3) ** 2 + 10 * (x[1] - 0.7) ** 2
        bounds = [(0, 1), (0, 1)]
        with mock.patch.object(np.random, "default_rng", Counting):
            _, fval, _ = minimize_in_box(f, [0.5, 0.5], bounds, restarts=1000,
                                         presearch=False, stop_below=1e-6)
            assert fval <= 1e-6 and draws == []
            minimize_in_box(f, [0.5, 0.5], bounds, restarts=3, presearch=False)
        assert draws == [2, 2]

    def test_init_outside_box_rejected(self):
        with pytest.raises(ValueError):
            minimize_in_box(lambda x: 0.0, [2.0], [(0, 1)])

    @pytest.mark.parametrize("bound, shown", [
        ((np.nan, 1.0), "(nan, 1.0)"),
        ((0.0, np.inf), "(0.0, inf)"),
        ((-1e308, 1e308), "(-1e+308, 1e+308)"),  # the width overflows
    ])
    def test_non_finite_bounds_rejected(self, bound, shown):
        def f(x):
            raise AssertionError("a box with a non-finite bound was searched")

        with pytest.raises(ValueError, match=re.escape(f"[{shown}]")):
            minimize_in_box(f, [0.5], [bound], restarts=1)

    def test_presearch_finds_thin_shelf(self):
        # plateau except within a sliver near the lower edge: uniform restarts
        # essentially never land there, the geometric ladder always does
        def f(x):
            return float(x[0]) if x[0] < 1e-3 else 1.0 + 0.1 * float(x[0])

        x, fval, _ = minimize_in_box(f, [0.5], [(0, 1)], restarts=1, seed=0)
        assert fval < 1e-3

    def test_batch_attribute_scores_points_together(self):
        def f(x):
            return (x[0] - 0.3) ** 2 + 10 * (x[1] - 0.7) ** 2

        sizes = []

        def g(x):
            return f(x)

        def batch(points):
            sizes.append(len(points))
            return [f(point) for point in points]

        g.batch = batch
        bounds = [(0, 1), (0, 1)]
        x_f, f_f, it_f = minimize_in_box(f, [0.5, 0.5], bounds, restarts=2)
        x_g, f_g, it_g = minimize_in_box(g, [0.5, 0.5], bounds, restarts=2)
        assert np.array_equal(x_f, x_g)
        assert (f_f, it_f) == (f_g, it_g)
        assert sizes[:2] == [100, 3]  # the 10x10 ladder, then a simplex


class TestEstimateMoments:
    def test_synthetic_drift_rate(self, decay_model, decay_series):
        result = estimate_moments(
            decay_model, decay_series, p=1, bounds=[(0.0, 1.0)], delta=1e-4,
            h=1e-3, restarts=1, maxiter=150, seed=0, threshold=1e-12,
            presearch=False,
        )
        assert abs(result.theta["th"] - 0.3) < 0.05
        assert result.objective < 1e-8
        assert len(result.moment_gaps) == 1

    def test_matches_scalar_bisection_oracle(self, decay_model, decay_series):
        # with p=1 the minimiser must agree with a root of the mean gap
        def mean_gap(th):
            rv = hude.compute_residuals(
                decay_model, {"th": th}, decay_series, delta=1e-4, h=1e-3
            )
            return float(rv.epsilons.mean()) - 0.5

        lo, hi = 0.1, 0.6
        g_lo, g_hi = mean_gap(lo), mean_gap(hi)
        assert g_lo * g_hi < 0
        for _ in range(22):
            mid = 0.5 * (lo + hi)
            if mean_gap(mid) * g_lo <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        result = estimate_moments(
            decay_model, decay_series, p=1, bounds=[(0.0, 1.0)], delta=1e-4,
            h=1e-3, restarts=1, maxiter=150, seed=0, threshold=1e-12,
            presearch=False,
        )
        assert abs(result.theta["th"] - root) < 1e-3

    def test_unidentifiable_flags_not_converged(self):
        rv = ResidualVector(np.linspace(0.2, 0.4, 9))

        def objective(x):
            return moment_objective(x, lambda theta: rv, p=2)

        x, fval, _ = minimize_in_box(objective, [0.5], [(0, 1)], restarts=2, seed=0)
        assert fval > 1e-3  # mismatched moments cannot be repaired

    def test_init_outside_bounds(self, decay_model, decay_series):
        with pytest.raises(ValueError):
            estimate_moments(
                decay_model, decay_series, p=1, theta_init=[2.0],
                bounds=[(0.0, 1.0)],
            )

    def test_result_within_bounds(self, decay_model, decay_series):
        result = estimate_moments(
            decay_model, decay_series, p=1, bounds=[(0.25, 0.28)], delta=1e-3,
            h=1e-2, restarts=1, maxiter=40, seed=0, presearch=False,
        )
        assert 0.25 <= result.theta["th"] <= 0.28

    def test_condition_warning_only_at_the_estimate(self):
        # With noise |s*x0| the field is non-decreasing in x0 at level 0.25
        # only while a >= 0.61*s, so the box holds probes on both sides.  The
        # fit warns once, for the estimate, as residuals there do, and both
        # name the line here that called them.
        model = hude.HudeModel.parse(2, "a*x0 - x1", ["s*x0"],
                                     params=["a", "s"])
        series = simulate_observations(
            model, {"a": 0.05, "s": 0.8}, InitialState(0.0, [1.0, 0.0]),
            0.1 * np.arange(21), seed=1, h=1e-2,
        )
        settings = dict(h=1e-2, delta=1e-3, scheme="given")

        def condition_warnings(fit):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fit()
            return result, [(str(w.message), w.filename) for w in caught
                            if w.category is AlphaPathConditionWarning]

        result, fitted = condition_warnings(lambda: estimate_moments(
            model, series, bounds=[(0.0, 1.0), (0.1, 1.0)], restarts=1,
            maxiter=40, **settings))
        _, direct = condition_warnings(lambda: hude.compute_residuals(
            model, result.theta, series, **settings))
        assert len(direct) == 1
        assert fitted == direct
        assert direct[0][1] == __file__

    def test_no_parameters_rejected(self, decay_series):
        model = hude.HudeModel.parse(1, "-0.3*x0", ["0.2"])
        with pytest.raises(ValueError):
            estimate_moments(model, decay_series, bounds=[])


@pytest.mark.parametrize("fit", ["moments", "mle"])
def test_result_keeps_the_residuals_at_the_estimate(fit, scale_model,
                                                    scale_series):
    # The vector the estimate scored equals a fresh bisection at its theta,
    # bit for bit, and stays out of the written result.
    estimator = estimate_moments if fit == "moments" else estimate_mle
    result = estimator(scale_model, scale_series, bounds=[(0.02, 1.0)],
                       delta=1e-4, h=1e-3, restarts=1, maxiter=40, seed=0,
                       presearch=False)
    fresh = hude.compute_residuals(scale_model.bind(result.theta), None,
                                   scale_series, delta=1e-4, h=1e-3)
    kept = result.residuals
    assert kept.epsilons.tobytes() == fresh.epsilons.tobytes()
    assert kept.saturated.tobytes() == fresh.saturated.tobytes()
    assert kept.indices.tobytes() == fresh.indices.tobytes()
    assert "residuals" not in result.to_dict()


class TestMleObjective:
    def test_exact_fixed_point(self):
        # 40 residuals, alpha = 0.05: window of 38 order statistics; place its
        # ends exactly at 0.025 and 0.975 and everything else strictly inside
        alpha = 0.05
        eps = np.concatenate(
            [[0.025, 0.03, 0.04], np.linspace(0.05, 0.9, 34), [0.975, 0.9995, 0.9999]]
        )
        value, i_star, window = mle_objective(eps, alpha)
        assert window == 38
        assert i_star == 1
        assert value == 0.0

    def test_degenerate_sample(self):
        with pytest.raises(ValueError):
            mle_objective([0.5], 0.05)

    def test_window_size_float_guard(self):
        # ceil(60 * 0.95) must be 57 even though 60*0.95 = 57.00000000000001
        _, _, window = mle_objective(np.linspace(0.01, 0.99, 60), 0.05)
        assert window == 57

    def test_tie_breaks_to_smallest_index(self):
        eps = np.linspace(0.1, 0.9, 10)  # all windows equally wide
        _, i_star, _ = mle_objective(eps, 0.2)
        assert i_star == 1


class TestEstimateMle:
    def test_synthetic_noise_scale(self, scale_model, scale_series):
        result = estimate_mle(
            scale_model, scale_series, alpha=0.05, bounds=[(0.02, 1.0)],
            delta=1e-4, h=1e-3, restarts=1, maxiter=120, seed=0,
            threshold=1e-12, presearch=False,
        )
        assert abs(result.theta["sig"] - 0.3) < 0.1

    def test_beats_coarse_grid_oracle(self, scale_model, scale_series):
        def objective(sig):
            rv = hude.compute_residuals(
                scale_model, {"sig": sig}, scale_series, delta=1e-4, h=1e-3
            )
            return mle_objective(rv.epsilons, 0.05)[0]

        grid = np.linspace(0.05, 0.95, 19)
        grid_best = min(objective(s) for s in grid)
        result = estimate_mle(
            scale_model, scale_series, alpha=0.05, bounds=[(0.02, 1.0)],
            delta=1e-4, h=1e-3, restarts=1, maxiter=120, seed=0,
            threshold=1e-12, presearch=False,
        )
        assert result.objective <= grid_best + 1e-12

    def test_detection_level_validated(self, scale_model, scale_series):
        with pytest.raises(ValueError):
            estimate_mle(scale_model, scale_series, alpha=1.2, bounds=[(0.02, 1.0)])

    def test_overflowing_start_does_not_abort(self, decay_model):
        # The default start, the middle of (-4e6, 1), overflows on every step;
        # like estimate_moments, the fit must search on from other points.
        series = simulate_observations(
            decay_model, {"th": 0.3}, InitialState(0.0, [2.0]),
            0.1 * np.arange(41), seed=3, h=1e-3,
        )
        result = estimate_mle(decay_model, series, alpha=0.05,
                              bounds=[(-4e6, 1.0)], h=1e-3, restarts=1,
                              maxiter=100, seed=0)
        assert abs(result.theta["th"] - 0.3) < 0.1

    def test_window_checked_without_integrating(self, monkeypatch, scale_model,
                                                scale_series):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before the window check")

        # Every integration plans first, the compiled bisection too.
        monkeypatch.setattr(hude.residuals, "_terminal_state_batch",
                            no_integration)
        monkeypatch.setattr(hude.odeint, "_plan", no_integration)
        with pytest.raises(ValueError, match="needs a window of 1 from 200"):
            estimate_mle(scale_model, scale_series, alpha=0.999,
                         bounds=[(0.02, 1.0)])
