"""Scikit-learn style front end: fit a model to a series, predict quantile
paths, score the fit.

The class follows the usual estimator conventions (constructor stores
hyper-parameters untouched, ``get_params``/``set_params`` expose them, fitted
state lands in trailing-underscore attributes), so it composes with pipeline
and model-selection tooling that only relies on that protocol.
"""

from __future__ import annotations

import inspect

import numpy as np

from .estimate import FIT_THRESHOLD, _moment_score, estimate_mle, estimate_moments
from .hypotest import TestReport, uncertain_hypothesis_test
from .model import HudeModel, InitialState
from .odeint import DEFAULT_STEP
from .residuals import ObservationSeries, compute_residuals, estimate_derivatives
from .alphapath import solve_alpha_path
from .validation import check_is_fitted, check_unit_interval

__all__ = ["HudeEstimator"]


class HudeEstimator:
    """Fits the free parameters of an uncertain differential equation model to
    an observed time series and predicts its quantile paths.

    Parameters
    ----------
    model : HudeModel
        Model whose named parameters are to be estimated.
    method : "moments" or "mle"
    p : moment count for the moment method.
    alpha : detection/significance level for the mle method and the fit test.
    bounds : one (lo, hi) pair per model parameter.
    delta, step : residual bisection precision and integrator step.
    scheme : derivative reconstruction, "forward" or "central".
    integrator : "euler" or "rk4".
    restarts, maxiter, threshold, seed : search controls.
    """

    def __init__(
        self,
        model: HudeModel,
        method: str = "moments",
        p: int = 2,
        alpha: float = 0.05,
        bounds=None,
        delta: float = 1e-4,
        step: float = DEFAULT_STEP,
        scheme: str = "forward",
        integrator: str = "euler",
        restarts: int = 3,
        maxiter: int = 400,
        threshold: float = FIT_THRESHOLD,
        seed: int = 0,
    ):
        self.model = model
        self.method = method
        self.p = p
        self.alpha = alpha
        self.bounds = bounds
        self.delta = delta
        self.step = step
        self.scheme = scheme
        self.integrator = integrator
        self.restarts = restarts
        self.maxiter = maxiter
        self.threshold = threshold
        self.seed = seed

    @classmethod
    def _param_names(cls) -> list[str]:
        """The constructor's parameter names, the hyper-parameters."""
        return list(inspect.signature(cls.__init__).parameters)[1:]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "HudeEstimator":
        names = self._param_names()
        for name, value in params.items():
            if name not in names:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def fit(self, t, x) -> "HudeEstimator":
        """Estimate the model parameters from observations ``x`` at times ``t``."""
        check_unit_interval("alpha", self.alpha)
        series = ObservationSeries(t, x)
        kwargs = dict(
            theta_init=None,
            bounds=self.bounds,
            delta=self.delta,
            h=self.step,
            scheme=self.scheme,
            method=self.integrator,
            restarts=self.restarts,
            maxiter=self.maxiter,
            threshold=self.threshold,
            seed=self.seed,
        )
        if self.method == "moments":
            result = estimate_moments(self.model, series, p=self.p, **kwargs)
        elif self.method == "mle":
            result = estimate_mle(self.model, series, alpha=self.alpha, **kwargs)
        else:
            raise ValueError(f"unknown method {self.method!r}")
        self.result_ = result
        self.theta_ = dict(result.theta)
        self.model_ = self.model.bind(result.theta)
        self.series_ = series
        self.residuals_ = result.residuals
        return self

    def _initial_state(self, series: ObservationSeries) -> InitialState:
        n = self.model.order
        state = estimate_derivatives(series, n, self.scheme).state_at(0, n)
        if not np.all(np.isfinite(state)):
            raise ValueError("first observation has no complete state")
        return InitialState(series.t[0], state)

    def predict(self, t, alpha: float = 0.5) -> np.ndarray:
        """Quantile-path values at times ``t`` (level ``alpha``), integrated
        from the first fitted observation's reconstructed state."""
        check_is_fitted(self)
        check_unit_interval("quantile level", alpha)
        t = np.asarray(t, dtype=float).reshape(-1)
        init = self._initial_state(self.series_)
        if t.size == 0:
            return np.empty(0)
        if np.any(t < init.t0):
            raise ValueError("cannot predict before the fitted initial time")
        t_end = float(t.max())
        if t_end == init.t0:
            return np.full(t.size, init.values[0])
        path = solve_alpha_path(
            self.model_, None, alpha, init, t_end, h=self.step,
            method=self.integrator,
        )
        return np.interp(t, path.trajectory.t, path.trajectory.component(0))

    def score(self, t=None, x=None) -> float:
        """Negative moment objective (higher is better) on the given series,
        or on the fitted one when omitted."""
        check_is_fitted(self)
        return -_moment_score(self._residuals_for(t, x).epsilons, self.p)

    def hypothesis_report(self, t=None, x=None, alpha: float | None = None) -> TestReport:
        """Tail-count goodness-of-fit report for the fitted parameters."""
        check_is_fitted(self)
        level = self.alpha if alpha is None else alpha
        return uncertain_hypothesis_test(self._residuals_for(t, x), level)

    def _residuals_for(self, t, x):
        """Residuals of the series ``(t, x)`` under the fitted model, or those
        of the fitted series, kept from the fit, when both are omitted."""
        if t is None and x is None:
            return self.residuals_
        return compute_residuals(self.model_, None, ObservationSeries(t, x),
                                 delta=self.delta, h=self.step,
                                 scheme=self.scheme, method=self.integrator)
