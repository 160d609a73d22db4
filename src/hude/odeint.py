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


def _euler_step(f, t, x, s):
    return tuple(xk + s * kk for xk, kk in zip(x, f(t, *x)))


def _rk4_step(f, t, x, s):
    half = 0.5 * s
    k1 = f(t, *x)
    k2 = f(t + half, *[xk + half * kk for xk, kk in zip(x, k1)])
    k3 = f(t + half, *[xk + half * kk for xk, kk in zip(x, k2)])
    k4 = f(t + s, *[xk + s * kk for xk, kk in zip(x, k3)])
    sixth = s / 6.0
    return tuple(xk + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for xk, a, b, c, d in zip(x, k1, k2, k3, k4))


def _columns(raw, n):
    """``raw`` in the form the step loop drives: ``f(t, x0, ..., x_{n-1})``
    returning the ``n`` derivative columns.  A reduced model field generates
    that form itself (:meth:`hude.model.ReducedField.columns`); a hand-written
    array field ``raw(t, y)``, state on the last axis, is adapted here."""
    if hasattr(raw, "columns"):
        return raw.columns(n)

    def f(t, *x):
        F = raw(t, np.stack(x, axis=-1))
        return tuple(F[..., k] for k in range(n))

    return f


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

    The loop advances a tuple of state columns ``(x0, ..., x_{n-1})``: floats
    for one row, so a one-row problem steps on scalar arithmetic, and ``(B,)``
    arrays for a batch.  Step ``k`` of every row starts at ``t0 + k*h``; a
    row's last step is shortened to its ``t_end`` and rows that finish early
    keep their terminal state, so a row's result does not depend on the
    other rows.  ``track_extremes`` also returns the
    componentwise extremes over all rows and steps.  A non-finite terminal
    row raises :class:`IntegrationError` at its ``t_end`` with ``row``
    attached, unless ``check_finite`` is off.  ``record`` (scalar ``t0``)
    returns the grid and every state instead and raises at the first
    non-finite grid point: no step ``y + s*F`` turns a non-finite state
    finite again, so that is where the state left the floats.
    """
    try:
        step = _STEPPERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    if h <= 0:
        raise ValueError("step h must be positive")
    y = np.array(y0, dtype=float)
    n = y.shape[-1]
    f = _columns(raw, n)
    t0 = np.asarray(t0, dtype=float)
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
    if y.ndim == 1:
        t0, x = float(t0), tuple(y.tolist())
    else:
        x = tuple(y.T.copy())
    if record:
        Y = np.empty((total + 1,) + y.shape)
        Y[0] = y
        recorded = [Y[..., k] for k in range(n)]
    if track_extremes:
        lows, highs = x, x
    s = h
    with np.errstate(all="ignore"):
        for k in range(total):
            t = t0 + k * h
            if k >= shared:
                s = np.where(k < nsteps - 1, h, last)
                # A finished row evaluates the field at its own end time,
                # never past it; a running row's t0 + k*h is below t_end
                # already.
                t = np.minimum(t, t_end)
            stepped = step(f, t, x, s)
            if k > shared:
                # A finished row keeps its state.  Stepping it by zero would
                # not: y + 0*F is NaN wherever F is not finite.
                done = k >= nsteps
                stepped = tuple(np.where(done, xk, yk)
                                for xk, yk in zip(x, stepped))
            x = stepped
            if record:
                for column, xk in zip(recorded, x):
                    column[k + 1] = xk
            if track_extremes:
                lows = tuple(map(np.minimum, lows, x))
                highs = tuple(map(np.maximum, highs, x))
    if record:
        T = t0 + np.arange(total + 1) * h
        T[-1] = t_end
        finite = np.isfinite(Y).all(axis=1)
        if not finite.all():
            raise IntegrationError(float(T[np.argmin(finite)]))
        return T, Y
    y = np.array(x) if y.ndim == 1 else np.stack(x, axis=1)
    if check_finite:
        finite = np.isfinite(y.reshape(-1, n)).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            exc = IntegrationError(
                float(np.broadcast_to(t_end, finite.shape)[row]))
            exc.row = row
            raise exc
    if track_extremes:
        return (y, np.array([np.min(c) for c in lows]),
                np.array([np.max(c) for c in highs]))
    return y
