"""Quantile paths, inverse uncertainty distributions and path comparison.

For a quantile level ``alpha`` the model reduces to a deterministic system
(see :mod:`hude.model`); its solution is the alpha-path.  When the reduced
right-hand side is non-decreasing in the state and all derivatives but the
highest, the alpha-path at time ``t`` is the value of the inverse uncertainty
distribution of the solution at ``t``, so sweeping ``alpha`` over a grid
traces that distribution.  The monotonicity condition is checked numerically
and surfaced as an advisory warning, never as a hard failure: the machinery
is routinely applied on regions where the condition holds only for part of
the quantile range.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .expr import DomainError
from .model import (
    ConditionDomain,
    HudeModel,
    InitialState,
    ReducedField,
    _clamped_phi,
    _condition_reports,
    alpha_path_field,
    check_alpha_path_condition,  # noqa: F401  (perfbench/layers.py wraps it here)
    compile_model,
    phi_inv,
)
from .odeint import (DEFAULT_STEP, Trajectory, _step_failure,
                     _terminal_state_batch, _write_csv, integrate)
from .validation import check_unit_interval

__all__ = [
    "AlphaPath",
    "AlphaPathConditionWarning",
    "InverseDistributionCurve",
    "ComparisonReport",
    "phi_inv",
    "solve_alpha_path",
    "inverse_distribution",
    "compare_paths",
]


# Grid points per axis of a spot check's box (:func:`_spot_check`).
SPOT_CHECK_RESOLUTION = 3


class AlphaPathConditionWarning(UserWarning):
    """The monotonicity condition failed a spot check; results for the
    affected quantile levels may not be true quantiles."""


@dataclass(frozen=True)
class AlphaPath:
    """A trajectory tagged with the quantile level it was integrated at."""

    alpha: float
    trajectory: Trajectory

    def __post_init__(self):
        check_unit_interval("alpha", self.alpha)


def solve_alpha_path(
    model: HudeModel,
    theta,
    alpha: float,
    init: InitialState,
    t_end: float,
    h: float = DEFAULT_STEP,
    method: str = "euler",
) -> AlphaPath:
    """Integrate the reduced system at level ``alpha`` from ``init``."""
    field = alpha_path_field(model, theta, alpha)
    return AlphaPath(alpha, integrate(field, init, t_end, h, method))


@dataclass(frozen=True)
class InverseDistributionCurve:
    """Pairs ``(alpha, value)`` of the inverse uncertainty distribution at a
    fixed time."""

    t: float
    alphas: np.ndarray
    values: np.ndarray

    def to_csv(self, path) -> None:
        _write_csv(path, ["alpha", "psi_inv"],
                   np.column_stack((self.alphas, self.values)))


def inverse_distribution(
    model: HudeModel,
    theta,
    init: InitialState,
    t: float,
    alphas,
    h: float = DEFAULT_STEP,
    method: str = "euler",
    condition_check: bool = True,
) -> InverseDistributionCurve:
    """Alpha-path values at time ``t`` for every level in ``alphas``.

    All levels are integrated simultaneously.  When ``condition_check`` is on,
    a coarse grid check over the visited region runs at the extreme levels and
    a failure emits :class:`AlphaPathConditionWarning`.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    if alphas.size == 0:
        raise ValueError("need at least one quantile level")
    check_unit_interval("quantile levels", alphas)
    init.check_order(model.order)
    resolved = model.resolved_theta(theta)
    lowered = compile_model(model, resolved)
    field = ReducedField(*lowered, _clamped_phi(alphas))
    B = alphas.size
    t0s = np.full(B, init.t0)
    y0s = np.tile(init.values, (B, 1))
    t1s = np.full(B, float(t))
    # The spot check reads the extremes; an order-1 model has none to check.
    check = condition_check and model.order >= 2
    terminal = _terminal_state_batch(
        field, t0s, y0s, t1s, h, method,
        mode="extremes" if check else "terminal")
    if check:
        terminal, mins, maxs = terminal
    finite = np.isfinite(terminal).all(axis=1)
    if not finite.all():
        raise _step_failure(
            float(t), f"the alpha-path from t={init.t0} to t={float(t)}",
            float(alphas[np.argmin(finite)]),
        )
    if check:
        _spot_check(lowered, (float(init.t0), float(t)), mins, maxs,
                    (float(alphas.min()), float(alphas.max())))
    return InverseDistributionCurve(t=float(t), alphas=alphas, values=terminal[:, 0])


def _user_stacklevel() -> int:
    """The ``stacklevel`` that attributes a warning issued by the caller of
    this function to the first stack frame outside the ``hude`` package."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _spot_check(lowered, t_range, mins, maxs, alphas):
    """The advisory check of the monotonicity condition at the levels
    ``alphas`` over the box around the visited region ``mins .. maxs`` of an
    order-2-or-more model lowered with its values by
    :func:`~hude.model.compile_model` (the caller's own lowering): every
    level in one evaluation (:func:`~hude.model._condition_reports`).  A
    level where the field is not finite on the box warns that its check was
    skipped; the levels that fail warn once, together."""
    pad = np.maximum(1e-9, 1e-9 * np.abs(maxs))
    width = np.maximum(maxs - mins, np.maximum(1e-6, 1e-6 * np.abs(maxs)))
    ranges = tuple(
        (float(lo - p), float(lo + w + p))
        for lo, w, p in zip(mins, width, pad)
    )
    domain = ConditionDomain(t_range, ranges, SPOT_CHECK_RESOLUTION)
    levels = sorted(set(alphas))
    failed = []
    for a, report in zip(levels, _condition_reports(lowered, levels, domain)):
        if isinstance(report, DomainError):
            # Advisory only: a check that cannot be evaluated never blocks
            # the computation, but it is not silently counted as passed.
            warnings.warn(
                f"monotonicity spot check at alpha={a} skipped: {report}",
                AlphaPathConditionWarning,
                stacklevel=_user_stacklevel(),
            )
            continue
        if not report.passed:
            failed.append(a)
    if failed:
        warnings.warn(
            "monotonicity condition failed a spot check at alpha="
            f"{failed}; values may not be true quantiles there",
            AlphaPathConditionWarning,
            stacklevel=_user_stacklevel(),
        )


@dataclass(frozen=True)
class ComparisonReport:
    """Whether one trajectory stays below another, within a relative band."""

    holds: bool
    tolerance: float
    max_excess: float
    first_violation_index: int | None = None
    first_violation_t: float | None = None


def compare_paths(path_lo, path_hi, rel_tol: float = 1e-9) -> ComparisonReport:
    """Check ``x0`` of ``path_lo`` <= ``x0`` of ``path_hi`` at every grid point.

    The tolerance is relative to the trajectory magnitude; exact floating
    equality is meaningless after thousands of steps.  Trajectories must share
    the grid exactly.
    """
    lo = path_lo.trajectory if isinstance(path_lo, AlphaPath) else path_lo
    hi = path_hi.trajectory if isinstance(path_hi, AlphaPath) else path_hi
    if not np.array_equal(lo.t, hi.t):
        raise ValueError("trajectories are on different grids")
    a = lo.component(0)
    b = hi.component(0)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    tol = rel_tol * scale
    excess = a - b
    violations = excess > tol
    if not violations.any():
        return ComparisonReport(
            holds=True, tolerance=tol, max_excess=float(excess.max())
        )
    first = int(np.argmax(violations))
    return ComparisonReport(
        holds=False,
        tolerance=tol,
        max_excess=float(excess.max()),
        first_violation_index=first,
        first_violation_t=float(lo.t[first]),
    )
