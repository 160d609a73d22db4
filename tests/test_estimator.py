import numpy as np
import pytest

import hude
from hude import (HudeEstimator, InitialState, ObservationSeries,
                  simulate_observations)
from hude.validation import NotFittedError


@pytest.fixture(scope="module")
def fitted():
    model = hude.HudeModel.parse(1, "-th*x0", ["0.2"], params=["th"])
    times = 0.05 * np.arange(101)
    series = simulate_observations(
        model, {"th": 0.3}, InitialState(0.0, [2.0]), times, seed=3, h=1e-3
    )
    est = HudeEstimator(
        model, method="moments", p=1, bounds=[(0.0, 1.0)], step=1e-3,
        restarts=1, maxiter=150, threshold=1e-8,
    )
    est.fit(series.t, series.x)
    return est, series


class TestProtocol:
    def test_get_set_params_round_trip(self):
        model = hude.HudeModel.parse(1, "-th*x0", ["0.2"], params=["th"])
        est = HudeEstimator(model, p=3, delta=5e-4)
        params = est.get_params()
        assert params["p"] == 3 and params["delta"] == 5e-4
        clone = HudeEstimator(**params)
        assert clone.get_params() == params
        clone.set_params(p=1, seed=7)
        assert clone.p == 1 and clone.seed == 7
        with pytest.raises(ValueError):
            clone.set_params(gamma=2.0)

    def test_unfitted_raises(self):
        model = hude.HudeModel.parse(1, "-th*x0", ["0.2"], params=["th"])
        est = HudeEstimator(model, bounds=[(0.0, 1.0)])
        with pytest.raises(NotFittedError):
            est.predict([0.0, 1.0])
        with pytest.raises(NotFittedError):
            est.score()

    def test_validation_helpers(self):
        with pytest.raises(ValueError):
            ObservationSeries([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ObservationSeries([0.0, 1.0], [np.nan, 2.0])
        model = hude.HudeModel.parse(1, "-th*x0", ["0.2"], params=["th"])
        est = HudeEstimator(model, bounds=[(0.0, 1.0)])
        for t, x in (([0.0, 0.0], [1.0, 2.0]), ([0.0, 1.0], [np.nan, 2.0]),
                     ([0.0], [1.0])):
            with pytest.raises(ValueError):
                est.fit(t, x)


class TestFitPredictScore:
    def test_fit_recovers_parameter(self, fitted):
        est, _ = fitted
        assert abs(est.theta_["th"] - 0.3) < 0.05
        assert est.result_.objective < 1e-6

    def test_predict_median_tracks_drift_path(self, fitted):
        est, series = fitted
        t = np.array([0.0, 1.0, 2.5, 5.0])
        median = est.predict(t, alpha=0.5)
        drift = hude.solve_alpha_path(
            est.model_, None, 0.5, InitialState(0.0, [series.x[0]]), 5.0, h=1e-3
        )
        expected = np.interp(t, drift.trajectory.t, drift.trajectory.component(0))
        assert median == pytest.approx(expected, rel=1e-9)
        assert median[0] == series.x[0]

    def test_predict_quantiles_ordered(self, fitted):
        est, _ = fitted
        t = np.linspace(0.0, 5.0, 11)
        lo = est.predict(t, alpha=0.2)
        hi = est.predict(t, alpha=0.8)
        assert np.all(lo[1:] <= hi[1:])

    def test_predict_before_start_rejected(self, fitted):
        est, _ = fitted
        with pytest.raises(ValueError):
            est.predict([-1.0])

    def test_score_is_negative_objective(self, fitted):
        est, series = fitted
        s = est.score()
        assert s <= 0.0
        assert s == pytest.approx(-est.result_.objective, abs=1e-9)
        assert est.score(series.t, series.x) == pytest.approx(s, abs=1e-12)

    def test_hypothesis_report_accepts_own_fit(self, fitted):
        est, _ = fitted
        report = est.hypothesis_report()
        assert not report.reject

    def test_unknown_method_rejected(self):
        model = hude.HudeModel.parse(1, "-th*x0", ["0.2"], params=["th"])
        est = HudeEstimator(model, method="bayes", bounds=[(0.0, 1.0)])
        with pytest.raises(ValueError):
            est.fit([0.0, 0.1, 0.2], [1.0, 1.1, 1.2])
