"""Fixed-step initial-value integrators for first-order vector fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import InitialState

__all__ = [
    "DEFAULT_STEP",
    "Trajectory",
    "IntegrationError",
    "integrate_euler",
    "integrate_rk4",
    "integrate",
]

# Small enough for the stiffest bundled dynamics (drift eigenvalue ~ -55);
# overridable everywhere.
DEFAULT_STEP = 1e-4


class IntegrationError(Exception):
    """The state left the finite floats; ``t`` locates the failing step."""

    def __init__(self, t: float, message: str | None = None):
        super().__init__(message or f"integration produced a non-finite state at t={t}")
        self.t = t


def _step_failure(exc: IntegrationError, step: str, level: float) -> IntegrationError:
    """``exc`` (same ``t``) naming the failing ``step`` and quantile ``level``."""
    return IntegrationError(exc.t, f"integration produced a non-finite state "
                                   f"at t={exc.t} on {step} at level {level!r}")


@dataclass(frozen=True)
class Trajectory:
    """Uniform-step time grid plus the full state at every grid point.

    The last step is shortened when the span is not an exact multiple of the
    step, so the final grid point always equals the requested end time.
    """

    t: np.ndarray
    y: np.ndarray
    step: float

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.ndim != 1 or y.ndim != 2 or y.shape[0] != t.size:
            raise ValueError("trajectory needs matching 1-D grid and 2-D states")
        if t.size < 1:
            raise ValueError("trajectory cannot be empty")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if not self.step > 0:
            raise ValueError("step must be positive")
        t.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "step", float(self.step))

    def __len__(self) -> int:
        return self.t.size

    @property
    def order(self) -> int:
        return self.y.shape[1]

    def component(self, k: int = 0) -> np.ndarray:
        return self.y[:, k]

    @property
    def final_state(self) -> np.ndarray:
        return self.y[-1]

    def to_csv(self, path) -> None:
        header = "t," + ",".join(f"x{k}" for k in range(self.order))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for ti, row in zip(self.t, self.y):
                fields = [f"{ti:.17g}"] + [f"{v:.17g}" for v in row]
                fh.write(",".join(fields) + "\n")


def _euler_step(raw, t, y, s, sc):
    return y + sc * raw(t, y)


def _rk4_step(raw, t, y, s, sc):
    half, hc = 0.5 * s, 0.5 * sc
    k1 = raw(t, y)
    k2 = raw(t + half, y + hc * k1)
    k3 = raw(t + half, y + hc * k2)
    k4 = raw(t + s, y + sc * k3)
    return y + (sc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_STEPPERS = {"euler": _euler_step, "rk4": _rk4_step}


def integrate(field, init: InitialState, t_end: float, h: float = DEFAULT_STEP,
              method: str = "euler") -> Trajectory:
    """Integrate ``field`` from ``init`` to ``t_end`` with fixed step ``h``."""
    t, y = _terminal_state_batch(getattr(field, "raw", field), init.t0,
                                 init.values, t_end, h, method, record=True)
    return Trajectory(t, y, h)


def integrate_euler(field, init: InitialState, t_end: float,
                    h: float = DEFAULT_STEP) -> Trajectory:
    """Explicit Euler: ``y_{k+1} = y_k + h F(t_k, y_k)``."""
    return integrate(field, init, t_end, h, method="euler")


def integrate_rk4(field, init: InitialState, t_end: float,
                  h: float = DEFAULT_STEP) -> Trajectory:
    """Classical fourth-order Runge-Kutta."""
    return integrate(field, init, t_end, h, method="rk4")


def _terminal_state_batch(raw, t0, y0, t_end, h, method="euler",
                          track_extremes=False, check_finite=True,
                          record=False):
    """The one fixed-step loop: terminal states of independent initial-value
    problems, ``y0`` of shape ``(n,)`` with scalar ``t0``/``t_end`` or
    ``(B, n)`` with ``(B,)`` times (``raw`` must broadcast over rows).

    Step ``k`` of every row starts at ``t0 + k*h``; a row's last step is
    shortened to its ``t_end`` and rows that finish early freeze with
    zero-length steps.  ``track_extremes`` also returns the componentwise
    extremes over all rows and steps.  A non-finite terminal row raises
    :class:`IntegrationError` at its ``t_end`` with ``row`` attached, unless
    ``check_finite`` is off.  ``record`` (scalar ``t0``) returns the grid and
    every state instead and raises at the first non-finite grid point: no
    step ``y + s*F`` turns a non-finite state finite again, so that is where
    the state left the floats.
    """
    try:
        step = _STEPPERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    if h <= 0:
        raise ValueError("step h must be positive")
    t0 = np.asarray(t0, dtype=float)[()]
    y = np.array(y0, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    span = t_end - t0
    if np.any(span <= 0):
        raise ValueError("t_end must exceed the initial time")
    nsteps = np.maximum(np.ceil(span / h - 1e-9).astype(int), 1)
    last = span - (nsteps - 1) * h
    total = int(nsteps.max())
    # Every row takes the full step h before the shortest row's last step, so
    # those steps use the scalar h and skip building per-row step arrays.
    shared = int(nsteps.min()) - 1
    if record:
        Y = np.empty((total + 1,) + y.shape)
        Y[0] = y
    mins = y.min(axis=0) if track_extremes else None
    maxs = y.max(axis=0) if track_extremes else None
    s = sc = h
    with np.errstate(all="ignore"):
        for k in range(total):
            t = t0 + k * h
            if k >= shared:
                s = np.where(k < nsteps - 1, h,
                             np.where(k == nsteps - 1, last, 0.0))
                sc = s[:, None] if y.ndim == 2 else s
                # A frozen row evaluates the field at its own end time, never
                # past it; a running row's t0 + k*h is below t_end already.
                t = np.minimum(t, t_end)
            y = step(raw, t, y, s, sc)
            if record:
                Y[k + 1] = y
            if track_extremes:
                mins = np.minimum(mins, y.min(axis=0))
                maxs = np.maximum(maxs, y.max(axis=0))
    if record:
        T = t0 + np.arange(total + 1) * h
        T[-1] = t_end
        finite = np.isfinite(Y).all(axis=1)
        if not finite.all():
            raise IntegrationError(float(T[np.argmin(finite)]))
        return T, Y
    if check_finite:
        finite = np.isfinite(y).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            exc = IntegrationError(float(t_end[row]))
            exc.row = row
            raise exc
    if track_extremes:
        return y, mins, maxs
    return y
