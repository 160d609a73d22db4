import math
import warnings

import numpy as np
import pytest

import hude
from hude import (
    AlphaPath,
    AlphaPathConditionWarning,
    InitialState,
    compare_paths,
    inverse_distribution,
    solve_alpha_path,
)
from hude import alphapath, reactor
from hude.alphapath import _spot_check
from hude.model import compile_model

from conftest import example1_closed_form, example2_closed_form


class TestSolveAlphaPath:
    def test_initial_value_exact(self, example2, zero_init2):
        path = solve_alpha_path(example2, None, 0.37, zero_init2, 0.5, h=1e-3)
        assert path.trajectory.y[0, 0] == 0.0
        assert path.alpha == 0.37

    def test_example2_closed_form(self, example2, zero_init2):
        path = solve_alpha_path(example2, None, 0.9, zero_init2, 1.0, h=1e-4)
        assert path.trajectory.final_state[0] == pytest.approx(
            example2_closed_form(1.0, 0.9), abs=2e-3
        )

    def test_example1_paths_cross(self, example1, zero_init2):
        # the 0.4-level path ends ABOVE the 0.6-level path: these cannot be
        # quantile paths of any distribution
        t_end = 3 * math.pi / 2
        lo = solve_alpha_path(example1, None, 0.4, zero_init2, t_end, h=1e-3, method="rk4")
        hi = solve_alpha_path(example1, None, 0.6, zero_init2, t_end, h=1e-3, method="rk4")
        x_lo = lo.trajectory.final_state[0]
        x_hi = hi.trajectory.final_state[0]
        assert x_lo > x_hi
        assert x_lo == pytest.approx(example1_closed_form(t_end, 0.4), abs=1e-6)
        assert x_hi == pytest.approx(example1_closed_form(t_end, 0.6), abs=1e-6)

    def test_alpha_validated(self, example2, zero_init2):
        with pytest.raises(ValueError):
            solve_alpha_path(example2, None, 1.0, zero_init2, 1.0)
        with pytest.raises(ValueError):
            AlphaPath(0.0, None)


class TestSpotCheck:
    def _check(self, model):
        _spot_check(compile_model(model), (0.0, 1.0),
                    np.array([-1.0, 0.0]), np.array([1.0, 1.0]), (0.25, 0.75))

    def test_skipped_check_warns_naming_alpha(self):
        # ln(x0) is not finite on a box reaching x0 <= 0: no check can run
        model = hude.HudeModel.parse(2, "ln(x0) - x1", ["1"])
        with pytest.warns(AlphaPathConditionWarning) as record:
            self._check(model)
        messages = [str(w.message) for w in record]
        assert any("alpha=0.25 skipped" in m for m in messages)
        assert any("alpha=0.75 skipped" in m for m in messages)
        # Each warning names the caller's line, outside the package.
        assert all(w.filename == __file__ for w in record)

    def test_unexpected_error_propagates(self, monkeypatch, example2):
        def broken(*args, **kwargs):
            raise RuntimeError("not an advisory failure")

        monkeypatch.setattr(alphapath, "_condition_reports", broken)
        with pytest.raises(RuntimeError):
            self._check(example2)


class TestInverseDistribution:
    def test_example2_proportional_to_quantile(self, example2, zero_init2):
        alphas = np.arange(0.1, 0.95, 0.1)
        curve = inverse_distribution(example2, None, zero_init2, 1.0, alphas, h=1e-4)
        factor = math.sqrt(3) / (16 * math.pi) * (
            math.exp(3) - math.exp(-1) - 4 * math.exp(-1)
        )
        assert factor == pytest.approx(0.62873, abs=1e-4)
        for alpha, value in zip(curve.alphas, curve.values):
            if abs(alpha - 0.5) < 1e-12:
                continue
            ratio = value / math.log(alpha / (1.0 - alpha))
            assert ratio == pytest.approx(0.62873, abs=1e-3)

    def test_median_of_example2_is_zero(self, example2, zero_init2):
        curve = inverse_distribution(example2, None, zero_init2, 1.0, [0.5], h=1e-3)
        assert curve.values[0] == 0.0

    def test_zero_diffusion_independent_of_alpha(self):
        model = hude.HudeModel.parse(1, "-0.5*x0")
        init = InitialState(0.0, [2.0])
        curve = inverse_distribution(model, None, init, 1.0, [0.1, 0.5, 0.9], h=1e-3)
        assert curve.values[0] == curve.values[1] == curve.values[2]

    def test_reactor_median_matches_closed_form(self, reactor_fitted):
        curve = inverse_distribution(
            reactor_fitted, None, reactor.CASE_STUDY_INIT, 6.0, [0.5], h=1e-3
        )
        assert curve.values[0] == pytest.approx(1.3239, abs=5e-3)

    def test_reactor_low_alpha_emits_advisory(self, reactor_fitted):
        with pytest.warns(AlphaPathConditionWarning) as record:
            inverse_distribution(
                reactor_fitted, None, reactor.CASE_STUDY_INIT, 1.0,
                [0.2, 0.5, 0.8], h=1e-3,
            )
        assert record[0].filename == __file__

    def test_reactor_valid_band_is_silent(self, reactor_fitted):
        with warnings.catch_warnings():
            warnings.simplefilter("error", AlphaPathConditionWarning)
            inverse_distribution(
                reactor_fitted, None, reactor.CASE_STUDY_INIT, 1.0,
                [0.45, 0.6, 0.9], h=1e-3,
            )

    # Levels on both sides of the row-by-row crossover.
    @pytest.mark.parametrize("levels", [3, 40])
    def test_extremes_only_for_the_spot_check(self, monkeypatch, reactor_fitted,
                                              levels):
        # Only the spot check reads the extremes: without it, or for an
        # order-1 model, the fan integrates without them, to the same curve.
        tracked = []

        def spy(*args, **kwargs):
            tracked.append(kwargs["mode"])
            return batch(*args, **kwargs)

        batch = alphapath._terminal_state_batch
        monkeypatch.setattr(alphapath, "_terminal_state_batch", spy)
        order1 = hude.HudeModel.parse(1, "-0.5*x0", ["0.3*x0"])
        alphas = np.linspace(0.45, 0.9, levels)
        for model, init in [(reactor_fitted, reactor.CASE_STUDY_INIT),
                            (order1, InitialState(0.0, [2.0]))]:
            curves = [inverse_distribution(model, None, init, 1.0, alphas,
                                           h=1e-3, condition_check=check)
                      for check in (True, False)]
            assert curves[0].values.tobytes() == curves[1].values.tobytes()
        assert tracked == ["extremes", "terminal", "terminal", "terminal"]

    def test_csv_export(self, tmp_path, example2, zero_init2):
        curve = inverse_distribution(example2, None, zero_init2, 0.5, [0.3, 0.7], h=1e-3)
        out = tmp_path / "curve.csv"
        curve.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,psi_inv"
        assert len(lines) == 3

    def test_alpha_grid_validated(self, example2, zero_init2):
        with pytest.raises(ValueError):
            inverse_distribution(example2, None, zero_init2, 1.0, [])
        with pytest.raises(ValueError):
            inverse_distribution(example2, None, zero_init2, 1.0, [0.0, 0.5])

    def test_integration_failure_names_level(self):
        # x' = x^2 + phi(alpha) from 0 stays finite for alpha <= 0.5 and blows
        # up near t = 1.4 for alpha = 0.9, so only that level fails.
        model = hude.HudeModel.parse(1, "x0^2", ["1"])
        with pytest.raises(
            hude.IntegrationError,
            match=r"t=3\.0 on the alpha-path from t=0\.0 to t=3\.0 at level 0\.9$",
        ) as raised:
            inverse_distribution(model, None, InitialState(0.0, [0.0]), 3.0,
                                 [0.1, 0.5, 0.9], h=1e-3)
        assert raised.value.t == 3.0


class TestComparePaths:
    def test_identical_trajectories_hold(self, example2, zero_init2):
        path = solve_alpha_path(example2, None, 0.6, zero_init2, 1.0, h=1e-2)
        report = compare_paths(path, path)
        assert report.holds

    def test_example2_ordering_strict(self, example2, zero_init2):
        lo = solve_alpha_path(example2, None, 0.3, zero_init2, 1.0, h=1e-3)
        hi = solve_alpha_path(example2, None, 0.7, zero_init2, 1.0, h=1e-3)
        report = compare_paths(lo, hi)
        assert report.holds
        # strictly below once the forcing has propagated into the state slot
        # (the first step only moves the derivative)
        assert np.all(lo.trajectory.component(0)[2:] < hi.trajectory.component(0)[2:])

    def test_example1_crossing_detected(self, example1, zero_init2):
        t_end = 2 * math.pi
        lo = solve_alpha_path(example1, None, 0.4, zero_init2, t_end, h=1e-3, method="rk4")
        hi = solve_alpha_path(example1, None, 0.6, zero_init2, t_end, h=1e-3, method="rk4")
        report = compare_paths(lo, hi)
        assert not report.holds
        # the difference changes sign where sqrt(2) sin(t - pi/4) + e^{-t}
        # turns negative, slightly past 5pi/4
        assert 5 * math.pi / 4 < report.first_violation_t < 4.1

    def test_grid_mismatch_rejected(self, example2, zero_init2):
        a = solve_alpha_path(example2, None, 0.4, zero_init2, 1.0, h=1e-2)
        b = solve_alpha_path(example2, None, 0.6, zero_init2, 1.0, h=2e-2)
        with pytest.raises(ValueError):
            compare_paths(a, b)

    def test_alpha_ordering_for_random_monotone_models(self):
        # whenever the monotonicity condition holds, a lower level path stays
        # below a higher level path at every grid point
        rng = np.random.default_rng(77)
        for trial in range(20):
            order = 2 if trial % 2 == 0 else 3
            drift_terms = [
                f"{rng.uniform(0.0, 1.0)!r}*x{k}" for k in range(order - 1)
            ]
            drift_terms.append(f"({rng.uniform(-1.0, 1.0)!r})*x{order - 1}")
            model = hude.HudeModel.parse(
                order, " + ".join(drift_terms), [repr(rng.uniform(0.1, 1.0))]
            )
            init = InitialState(0.0, rng.uniform(-0.5, 0.5, size=order))
            a1, a2 = sorted(rng.uniform(0.05, 0.95, size=2))
            if a2 - a1 < 1e-3:
                continue
            lo = solve_alpha_path(model, None, a1, init, 1.0, h=2e-3)
            hi = solve_alpha_path(model, None, a2, init, 1.0, h=2e-3)
            assert compare_paths(lo, hi).holds, f"trial {trial}"
