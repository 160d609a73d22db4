import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hude
from hude import (
    InitialState,
    ObservationSeries,
    ResidualVector,
    compute_residual,
    compute_residuals,
    estimate_derivatives,
    simulate_observations,
)
from hude import odeint, reactor
from hude.odeint import IntegrationError
from hude.residuals import DataFormatError, ResidualSaturationWarning, _restart_rows

from test_residuals_batch import _stable_linear


@pytest.fixture(scope="module")
def damped_slope_model():
    # x'' = -0.5 x' + sig * noise: weakly non-decreasing in the state, so the
    # monotonicity condition holds everywhere and residual levels invert exactly
    return hude.HudeModel.parse(2, "-0.5*x1", ["sig"], params=["sig"])


class TestEstimateDerivatives:
    def test_reactor_head_forward(self):
        series = ObservationSeries([0.0, 0.1], [1.2157, 1.2165])
        filled = estimate_derivatives(series, 2, "forward")
        assert filled.derivs[0, 0] == pytest.approx(0.008, abs=1e-12)
        assert np.isnan(filled.derivs[0, 1])

    def test_constant_series_zero(self):
        series = ObservationSeries(np.arange(6.0), np.full(6, 3.5))
        filled = estimate_derivatives(series, 3, "forward")
        assert np.all(filled.derivs[0][:-1] == 0.0)
        assert np.all(filled.derivs[1][:-2] == 0.0)

    def test_central_exact_for_quadratic(self):
        t = np.array([0.0, 0.1, 0.2])
        series = ObservationSeries(t, t**2)
        filled = estimate_derivatives(series, 2, "central")
        assert filled.derivs[0, 1] == pytest.approx(0.2, abs=1e-15)
        assert np.isnan(filled.derivs[0, 0]) and np.isnan(filled.derivs[0, 2])

    def test_staircase_layout(self):
        series = ObservationSeries(np.arange(5.0), np.arange(5.0) ** 3)
        filled = estimate_derivatives(series, 3, "forward")
        assert np.isnan(filled.derivs[0]).sum() == 1
        assert np.isnan(filled.derivs[1]).sum() == 2
        # The restart rows are the per-index full states of the steps, bit
        # for bit; a state with a NaN from the staircase is not scored.
        model = hude.HudeModel.parse(3, "-x0")
        flipped = series.with_derivatives(filled.derivs[:, ::-1])
        cases = [("forward", series, filled),
                 ("central", series, estimate_derivatives(series, 3, "central")),
                 ("given", flipped, flipped)]
        for scheme, scored, source in cases:
            admissible, t0s, y0s, t1s, x_next = _restart_rows(model, scored,
                                                              scheme)
            states = np.stack([source.state_at(j, 3)
                               for j in range(len(series) - 1)])
            finite = np.isfinite(states).all(axis=1)
            assert 0 < finite.sum() < len(states)
            assert admissible.tolist() == np.flatnonzero(finite).tolist()
            assert y0s.tobytes() == states[finite].tobytes()
            assert t0s.tolist() == series.t[admissible].tolist()
            assert t1s.tolist() == series.t[admissible + 1].tolist()
            assert x_next.tolist() == series.x[admissible + 1].tolist()

    def test_too_short(self):
        series = ObservationSeries([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            estimate_derivatives(series, 3, "forward")

    def test_central_needs_interior(self):
        series = ObservationSeries([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            estimate_derivatives(series, 3, "central")


class TestComputeResidual:
    def test_median_manufactured(self, damped_slope_model):
        theta = {"sig": 0.4}
        init = InitialState(0.0, [1.0, 0.2])
        median = hude.solve_alpha_path(
            damped_slope_model, theta, 0.5, init, 0.1, h=1e-3
        ).trajectory.final_state[0]
        eps = compute_residual(
            damped_slope_model, theta, init, 0.1, median, delta=1e-4, h=1e-3
        )
        assert eps == pytest.approx(0.5, abs=1e-4)

    def test_example2_restart_manufactured(self, example2):
        init = InitialState(0.5, [0.2, 0.5])
        target = hude.solve_alpha_path(
            example2, None, 0.7, init, 0.6, h=1e-3
        ).trajectory.final_state[0]
        eps = compute_residual(example2, None, init, 0.6, target, delta=1e-4, h=1e-3)
        assert eps == pytest.approx(0.7, abs=2e-4)

    def test_reactor_first_step(self, reactor_fitted):
        eps = compute_residual(
            reactor_fitted, None, reactor.CASE_STUDY_INIT, 0.1, 1.2165,
            delta=1e-4, h=1e-4,
        )
        assert eps == pytest.approx(0.4373, abs=0.02)

    def test_unreachable_observation_saturates(self, damped_slope_model):
        init = InitialState(0.0, [1.0, 0.0])
        with pytest.warns(ResidualSaturationWarning):
            eps = compute_residual(
                damped_slope_model, {"sig": 0.01}, init, 0.1, 50.0, h=1e-3
            )
        assert eps > 1.0 - 1e-4

    def test_reachable_level_below_1e6_is_not_saturated(self):
        # A probe's level clamps at 1e-12 like every quantile level, so a
        # target at level 1e-7 is resolved, not pinned to the wall.
        model = hude.HudeModel.parse(1, "0", ["1"])
        target = 1.0 + 0.5 * hude.phi_inv(1e-7)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResidualSaturationWarning)
            eps = compute_residual(model, None, InitialState(0.0, [1.0]), 0.5,
                                   target, delta=1e-8, h=0.1)
        assert abs(eps - 1e-7) <= 1e-8

    def test_preconditions(self, damped_slope_model):
        init = InitialState(0.0, [1.0, 0.0])
        with pytest.raises(ValueError):
            compute_residual(damped_slope_model, {"sig": 0.1}, init, -1.0, 1.0)
        with pytest.raises(ValueError):
            compute_residual(damped_slope_model, {"sig": 0.1}, init, 0.1, np.nan)
        with pytest.raises(ValueError):
            compute_residual(damped_slope_model, {"sig": 0.1}, init, 0.1, 1.0, delta=0.0)

    def test_integration_failure_names_step_and_level(self):
        model = hude.HudeModel.parse(1, "x0^2", ["1"])
        with pytest.raises(
            IntegrationError,
            match=r"t=0\.6 on the step from t=0\.5 to t=0\.6 at level 0\.5$",
        ) as raised:
            compute_residual(model, None, InitialState(0.5, [50.0]), 0.6, 60.0,
                             h=1e-3)
        assert raised.value.t == 0.6


@pytest.mark.filterwarnings("ignore::hude.AlphaPathConditionWarning")
class TestComputeResiduals:
    def test_reactor_count_and_range(self, reactor_fitted):
        rv = compute_residuals(reactor_fitted, None, reactor.table3(), h=1e-3)
        assert len(rv) == 60
        assert rv.indices[0] == 1 and rv.indices[-1] == 60
        assert np.all((rv.epsilons > 0) & (rv.epsilons < 1))
        assert not rv.saturated.any()

    def test_reactor_close_to_reference(self, reactor_fitted):
        rv = compute_residuals(reactor_fitted, None, reactor.table3(), h=1e-3)
        ref = reactor.table4()
        # the reference was produced with an undisclosed step, so only loose
        # agreement is meaningful
        assert np.max(np.abs(rv.epsilons - ref.epsilons)) < 0.05
        assert np.mean(np.abs(rv.epsilons - ref.epsilons)) < 0.01

    def test_degenerate_length_rejected(self, example2):
        series = ObservationSeries([0.0, 0.1], [0.0, 0.1])
        with pytest.raises(ValueError):
            compute_residuals(example2, None, series)

    def test_time_shift_invariance_autonomous(self, damped_slope_model):
        theta = {"sig": 0.3}
        rng = np.random.default_rng(3)
        times = 0.1 * np.arange(21)
        series = simulate_observations(
            damped_slope_model, theta, InitialState(0.0, [1.0, 0.0]), times,
            eps=rng.uniform(0.05, 0.95, 20), h=1e-3,
        )
        shifted = ObservationSeries(series.t + 5.0, series.x, series.derivs)
        a = compute_residuals(damped_slope_model, theta, series, h=1e-3, scheme="given")
        b = compute_residuals(damped_slope_model, theta, shifted, h=1e-3, scheme="given")
        assert np.max(np.abs(a.epsilons - b.epsilons)) <= 1e-4

    def test_integration_failure_names_observation(self):
        # x' = x^2 + noise blows up within 0.02 from x = 50 at the median, the
        # first level probed, so the step restarting there (j = 4, ending at
        # t = 0.4) is the first to fail.
        model = hude.HudeModel.parse(1, "x0^2", ["1"])
        series = ObservationSeries(0.1 * np.arange(6),
                                   [0.1, 0.1, 0.1, 50.0, 50.0, 50.0])
        with pytest.raises(
            IntegrationError,
            match=r"t=0\.4 on observation j=4 at level 0\.5$",
        ) as raised:
            compute_residuals(model, None, series, h=1e-3)
        assert raised.value.t == series.t[4]

    @settings(max_examples=20, deadline=None)
    @given(
        roots=st.lists(st.floats(min_value=0.5, max_value=3.0), min_size=1,
                       max_size=3),
        # Levels near 0 and 1, and a coarse delta, saturate their steps.
        levels=st.lists(st.floats(min_value=1e-8, max_value=1.0 - 1e-8),
                        min_size=3, max_size=8),
        method=st.sampled_from(["euler", "rk4"]),
        delta=st.sampled_from([0.3, 1e-4, 1e-9]),
        compiled=st.booleans(),
    )
    def test_each_step_alone_equals_its_entry(self, roots, levels, method,
                                              delta, compiled):
        # compute_residual of a step restarted from its given state is that
        # step's entry of compute_residuals, bit for bit, and warns exactly
        # where the entry is saturated: compiled and on the numpy kernels.
        model = _stable_linear(roots)
        theta = {"m": 0.3, "s": 0.4}
        n = model.order
        series = simulate_observations(
            model, theta, InitialState(0.0, np.linspace(1.0, 0.5, n)),
            0.1 * np.arange(len(levels) + 1), eps=levels, h=1e-2,
            method=method)
        with pytest.MonkeyPatch.context() as mp, \
                warnings.catch_warnings(record=True) as caught:
            mp.setattr(odeint, "COMPILED", compiled)
            warnings.simplefilter("always", ResidualSaturationWarning)
            vector = compute_residuals(model, theta, series, delta, h=1e-2,
                                       scheme="given", method=method,
                                       condition_check=False)
            assert len(vector) == len(levels)
            for j, (eps, saturated) in enumerate(zip(vector.epsilons,
                                                     vector.saturated)):
                caught.clear()
                alone = compute_residual(
                    model, theta, InitialState(series.t[j],
                                               series.state_at(j, n)),
                    series.t[j + 1], series.x[j + 1], delta, h=1e-2,
                    method=method)
                assert np.float64(alone).tobytes() == eps.tobytes()
                assert len(caught) == saturated

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           compiled=st.booleans())
    def test_row_parameters_bisect_each_step_at_its_own_values(self, seed,
                                                               compiled):
        # A parameter may hold one value per scored step, an (M,) array:
        # each step is bisected at its own values, as compute_residual
        # bisects it at them alone.
        model = _stable_linear([1.5])
        rng = np.random.default_rng(seed)
        series = simulate_observations(
            model, {"m": 0.3, "s": 0.4}, InitialState(0.0, [1.0]),
            0.1 * np.arange(13), seed=seed, h=1e-2)
        theta = {"m": rng.uniform(-1.0, 1.0, 12), "s": rng.uniform(0.05, 1.0)}
        with pytest.MonkeyPatch.context() as mp, \
                warnings.catch_warnings(record=True) as caught:
            mp.setattr(odeint, "COMPILED", compiled)
            warnings.simplefilter("always", ResidualSaturationWarning)
            vector = compute_residuals(model, theta, series, h=1e-2)
            assert vector.theta["m"].tobytes() == theta["m"].tobytes()
            for j, (eps, saturated) in enumerate(zip(vector.epsilons,
                                                     vector.saturated)):
                caught.clear()
                alone = compute_residual(
                    model, {"m": theta["m"][j], "s": theta["s"]},
                    InitialState(series.t[j], [series.x[j]]),
                    series.t[j + 1], series.x[j + 1], h=1e-2)
                assert np.float64(alone).tobytes() == eps.tobytes()
                assert len(caught) == saturated

    def test_bisection_iteration_budget(self, damped_slope_model):
        # |l - r| <= delta after ceil(log2(1/delta)) halvings: residuals are
        # quantized to the dyadic grid of that depth
        init = InitialState(0.0, [1.0, 0.0])
        theta = {"sig": 0.4}
        target = hude.solve_alpha_path(
            damped_slope_model, theta, 0.37, init, 0.1, h=1e-3
        ).trajectory.final_state[0]
        eps = compute_residual(damped_slope_model, theta, init, 0.1, target, h=1e-3)
        assert round(eps * 2**15) == pytest.approx(eps * 2**15, abs=1e-9)

    @pytest.mark.parametrize("h", [np.nan, 0.0, -1.0])
    def test_coarse_delta_checks_the_step(self, damped_slope_model, h):
        # A delta of 1 or more takes no halving, but its rows are still
        # checked as a finer delta's are.
        series = ObservationSeries([0.0, 0.1, 0.2, 0.3], [1.0, 1.1, 1.2, 1.3])
        with pytest.raises(ValueError) as fine:
            compute_residuals(damped_slope_model, {"sig": 0.4}, series,
                              delta=0.5, h=h)
        with pytest.raises(ValueError) as coarse:
            compute_residuals(damped_slope_model, {"sig": 0.4}, series,
                              delta=1.0, h=h)
        assert str(coarse.value) == str(fine.value)

    def test_scheme_given_requires_columns(self, example2):
        series = ObservationSeries(np.arange(5.0), np.arange(5.0))
        with pytest.raises(ValueError):
            compute_residuals(example2, None, series, scheme="given")

    def test_unknown_scheme(self, example2):
        series = ObservationSeries(np.arange(5.0), np.arange(5.0))
        with pytest.raises(ValueError):
            compute_residuals(example2, None, series, scheme="spline")


class TestSimulate:
    def test_forced_median_equals_drift_path(self, damped_slope_model):
        theta = {"sig": 0.4}
        times = 0.25 * np.arange(9)
        init = InitialState(0.0, [1.0, -0.1])
        series = simulate_observations(
            damped_slope_model, theta, init, times, eps=np.full(8, 0.5), h=1e-3
        )
        drift_path = hude.solve_alpha_path(
            damped_slope_model, theta, 0.5, init, times[-1], h=1e-3
        )
        grid_values = np.interp(times, drift_path.trajectory.t,
                                drift_path.trajectory.component(0))
        assert series.x == pytest.approx(grid_values, abs=1e-12)

    def test_seeded_determinism(self, damped_slope_model):
        times = 0.1 * np.arange(11)
        init = InitialState(0.0, [1.0, 0.0])
        a = simulate_observations(damped_slope_model, {"sig": 0.3}, init, times,
                                  seed=42, h=1e-3)
        b = simulate_observations(damped_slope_model, {"sig": 0.3}, init, times,
                                  seed=42, h=1e-3)
        assert np.array_equal(a.x, b.x)

    def test_round_trip_recovers_levels(self, damped_slope_model):
        rng = np.random.default_rng(9)
        times = 0.1 * np.arange(21)
        eps = rng.uniform(0.02, 0.98, 20)
        init = InitialState(0.0, [1.0, 0.0])
        series = simulate_observations(
            damped_slope_model, {"sig": 0.3}, init, times, eps=eps, h=1e-4
        )
        rv = compute_residuals(
            damped_slope_model, {"sig": 0.3}, series, delta=1e-4, h=1e-4,
            scheme="given",
        )
        assert np.max(np.abs(rv.epsilons - eps)) <= 0.005

    @pytest.mark.filterwarnings("ignore::hude.AlphaPathConditionWarning")
    @settings(max_examples=20, deadline=None)
    @given(
        roots=st.lists(st.floats(min_value=0.5, max_value=3.0), min_size=1,
                       max_size=3),
        m=st.floats(min_value=-1.0, max_value=1.0),
        s=st.floats(min_value=0.05, max_value=1.0),
        levels=st.lists(st.floats(min_value=1e-8, max_value=1.0 - 1e-8),
                        min_size=3, max_size=12),
        method=st.sampled_from(["euler", "rk4"]),
        delta=st.sampled_from([1e-4, 1e-9]),
    )
    # Levels below 1e-6 from a wall are reachable: probes clamp at 1e-12,
    # as the simulated levels do.
    @example(roots=[0.5, 2.0], m=0.0, s=0.2, levels=[0.3, 1e-7, 1.0 - 1e-7],
             method="euler", delta=1e-9)
    def test_round_trip_on_stable_linear_models(self, roots, m, s, levels,
                                                method, delta):
        # Real negative characteristic roots keep the terminal value
        # increasing in the level, so bisection brackets the drawn level.
        model = _stable_linear(roots)
        theta = {"m": m, "s": s}
        init = InitialState(0.0, np.linspace(1.0, 0.5, len(roots)))
        times = 0.1 * np.arange(len(levels) + 1)
        series = simulate_observations(model, theta, init, times, eps=levels,
                                       h=1e-2, method=method)
        rv = compute_residuals(model, theta, series, delta=delta, h=1e-2,
                               scheme="given", method=method)
        assert np.max(np.abs(rv.epsilons - levels)) <= delta

    def test_uniform_levels_give_uniform_residual_mean(self):
        # order-1 model: no derivative reconstruction involved at all
        model = hude.HudeModel.parse(1, "-0.4*x0", ["0.25"])
        times = 0.05 * np.arange(201)
        series = simulate_observations(
            model, None, InitialState(0.0, [1.0]), times, seed=17, h=1e-3
        )
        rv = compute_residuals(model, None, series, delta=1e-4, h=1e-3)
        assert len(rv) == 200
        assert abs(float(rv.epsilons.mean()) - 0.5) < 0.05

    def test_nan_delta_rejected(self):
        # NaN is no precision; an infinite delta takes no halving.
        model = hude.HudeModel.parse(1, "-0.4*x0", ["0.25"])
        series = hude.ObservationSeries([0.0, 0.1, 0.2], [1.0, 0.97, 0.95])
        with pytest.raises(ValueError, match="precision delta must be positive"):
            compute_residuals(model, None, series, delta=np.nan, h=1e-2)
        rv = compute_residuals(model, None, series, delta=np.inf, h=1e-2)
        assert rv.epsilons.tolist() == [0.5, 0.5]

    def test_times_validated(self, damped_slope_model):
        init = InitialState(0.0, [1.0, 0.0])
        with pytest.raises(ValueError):
            simulate_observations(damped_slope_model, {"sig": 0.3}, init, [0.0])
        with pytest.raises(ValueError):
            simulate_observations(damped_slope_model, {"sig": 0.3}, init, [0.5, 1.0])
        with pytest.raises(ValueError):
            simulate_observations(
                damped_slope_model, {"sig": 0.3}, init, [0.0, 0.1], eps=[1.5]
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_times_must_be_finite(self, monkeypatch, damped_slope_model, bad):
        # NaN passes the increasing-times check (every comparison is false),
        # so it is rejected by name before any step is integrated.
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before the time check")

        monkeypatch.setattr(hude.residuals, "_terminal_state_batch",
                            no_integration)
        with pytest.raises(ValueError, match="observation times must be finite"):
            simulate_observations(damped_slope_model, {"sig": 0.3},
                                  InitialState(0.0, [1.0, 0.0]),
                                  [0.0, bad, 0.2])

    def test_integration_failure_names_step_and_level(self):
        # x' = x^2 + phi(eps) from 0 stays at 0 for the median level and blows
        # up near t = 1.4 after a restart at level 0.9
        model = hude.HudeModel.parse(1, "x0^2", ["1"])
        with pytest.raises(
            IntegrationError,
            match=r"t=3\.0 on the step from t=1\.0 to t=3\.0 at level 0\.9$",
        ) as raised:
            simulate_observations(model, None, InitialState(0.0, [0.0]),
                                  [0.0, 1.0, 3.0], eps=[0.5, 0.9], h=1e-3)
        assert raised.value.t == 3.0

    @pytest.mark.parametrize("compiled", [True, False])
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_median_steps_leave_out_infinite_noise(self, monkeypatch,
                                                   compiled, method):
        # At level 0.5 the noise 1/(x0 - x0) is left out, not added as
        # |inf|*0; any other level adds it and the step fails.
        monkeypatch.setattr(hude.odeint, "COMPILED", compiled)
        model = hude.HudeModel.parse(1, "-x0", ["1/(x0 - x0)"])
        init = InitialState(0.0, [1.0])
        series = simulate_observations(model, None, init, [0.0, 0.1, 0.2],
                                       eps=[0.5, 0.5], h=0.01, method=method)
        assert np.isfinite(series.x).all()
        with pytest.raises(
            IntegrationError,
            match=r"t=0\.2 on the step from t=0\.1 to t=0\.2 at level 0\.7$",
        ):
            simulate_observations(model, None, init, [0.0, 0.1, 0.2, 0.3],
                                  eps=[0.5, 0.7, 0.5], h=0.01, method=method)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("drift", ["x0*x0", "x0^2"])  # C, then numpy
    def test_middle_step_failure_named(self, drift, method):
        # The third step's level drives x' = x^2 + phi past the floats; the
        # steps after it run on from the non-finite state and raise nothing.
        model = hude.HudeModel.parse(1, drift, ["1"])
        with pytest.raises(
            IntegrationError,
            match=r"t=4\.0 on the step from t=2\.0 to t=4\.0 at level 0\.9$",
        ) as raised:
            simulate_observations(model, None, InitialState(0.0, [0.0]),
                                  [0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0],
                                  eps=[0.5, 0.6, 0.9, 0.5, 0.7, 0.5], h=1e-2,
                                  method=method)
        assert raised.value.t == 4.0


class TestDataIO:
    def test_observation_csv_round_trip(self, tmp_path):
        series = ObservationSeries([0.0, 0.5, 1.25], [1.0, 2.0, -0.5])
        path = tmp_path / "obs.csv"
        series.to_csv(path)
        back = hude.read_observations(path)
        assert np.array_equal(back.t, series.t)
        assert np.array_equal(back.x, series.x)

    def test_residual_csv_round_trip(self, tmp_path):
        rv = ResidualVector([0.25, 0.5, 0.75], indices=[3, 4, 5])
        path = tmp_path / "res.csv"
        rv.to_csv(path)
        back = ResidualVector.from_csv(path)
        assert np.array_equal(back.epsilons, rv.epsilons)
        assert np.array_equal(back.indices, rv.indices)

    def test_bad_headers(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n0,1\n")
        with pytest.raises(DataFormatError):
            hude.read_observations(bad)
        with pytest.raises(DataFormatError):
            ResidualVector.from_csv(bad)

    def test_residual_vector_validation(self):
        with pytest.raises(ValueError):
            ResidualVector([])
        with pytest.raises(ValueError):
            ResidualVector([0.0, 0.5])
        with pytest.raises(ValueError):
            ResidualVector([0.5], indices=[1, 2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_series_times_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="observation times must be finite"):
            ObservationSeries([0.0, bad, 2.0], [1.0, 2.0, 3.0])

    def test_series_validation(self):
        with pytest.raises(ValueError):
            ObservationSeries([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ObservationSeries([0.0, 1.0], [np.inf, 2.0])
