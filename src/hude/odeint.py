"""Fixed-step initial-value integrators for first-order vector fields.

One entry point, :func:`_terminal_state_batch`, runs every integration: a
recorded path (:func:`integrate`) or the terminal states of a batch of rows.
A reduced model field runs through a whole-loop kernel generated once per
field source, with the level and parameters passed in as values
(:meth:`hude.model.ReducedField.kernel`): with at most :data:`SCALAR_ROWS`
rows (an alpha-path, a simulated step, a small fan or bisection pass) row
by row on floats, else (a large bisection pass) on ``(B,)`` state columns
stepped in place.  Hand-written array fields step a tuple of ``(B,)`` state
columns.  All give the same bits, except the sign of a NaN: where two NaNs
of opposite sign meet, float and array arithmetic keep different ones.
"""

from __future__ import annotations

from array import array
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

# Rows up to which a reduced field's batch runs row by row through its
# generated row kernel instead of its column kernel.  On 100-step windows of
# the reactor model (x86-64 Intel Xeon, 2 vCPU, numpy 2.4, h=1e-4, best of 15
# runs, measured twice on a noisy shared machine) the row kernel
# costs ~0.1 ms plus 35-43 us per row (RK4 ~0.15 ms plus 0.14-0.18 ms), the
# column kernel a near-flat 0.7-1.3 ms (RK4 3.0-5.9 ms); the two meet between
# 16 and 26 rows (RK4 between 22 and 31).  On the 19-level, 60,000-step Euler
# fan with extremes the row kernel takes 0.50-0.66 s and the column kernel
# 0.86-1.03 s, ~0.5 us per row-step against ~16 us per step, which meet near
# 30 rows.  Neither resolves a crossover away from 32.
SCALAR_ROWS = 32


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
        _write_csv(path, ["t", *(f"x{k}" for k in range(self.order))],
                   np.column_stack((self.t, self.y)))


def _write_csv(path, header, table) -> None:
    """Write the float ``table`` under ``header``, every value ``%.17g``:
    each row through one line template, the file in one write."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n"
                 + "".join([line % tuple(row) for row in table.tolist()]))


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
    """The hand-written array field ``raw(t, y)``, state on the last axis, in
    the form the step loop drives: ``f(t, x0, ..., x_{n-1})`` returning the
    ``n`` derivative columns."""
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

    Step ``k`` of every row starts at ``t0 + k*h``; a row's last step is
    shortened to its ``t_end`` and rows that finish early keep their terminal
    state, so a row's result does not depend on the other rows.  A reduced
    field (:class:`hude.model.ReducedField`) runs through a generated
    whole-loop kernel: with at most :data:`SCALAR_ROWS` rows row by row on
    floats, each row binding its own level and parameter values
    (:func:`_row_loop`), else on ``(B,)`` state columns stepped in place
    (:func:`_column_kernel`).  Hand-written array fields step a tuple of
    ``(B,)`` state columns (:func:`_column_loop`).  All give the same bits
    (up to the sign of a NaN, see the module docstring).  ``track_extremes``
    also returns the componentwise extremes over all rows and steps.  A
    non-finite terminal row raises :class:`IntegrationError` at its ``t_end``
    with ``row`` attached, unless ``check_finite`` is off.  ``record``
    (scalar ``t0``) returns the grid and every state instead and raises at
    the first non-finite grid point: no step ``y + s*F`` turns a non-finite
    state finite again, so that is where the state left the floats.
    """
    if method not in _STEPPERS:
        raise ValueError(f"unknown method {method!r}")
    if h <= 0:
        raise ValueError("step h must be positive")
    y = np.array(y0, dtype=float)
    n = y.shape[-1]
    t0 = np.asarray(t0, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    span = t_end - t0
    if np.any(span <= 0):
        raise ValueError("t_end must exceed the initial time")
    nsteps = np.maximum(np.ceil(span / h - 1e-9).astype(int), 1)
    last = span - (nsteps - 1) * h
    if y.ndim == 1:
        t0 = float(t0)
    mode = "record" if record else "extremes" if track_extremes else "terminal"
    plan = (raw, method, y, t0, t_end, nsteps, last, h, mode)
    with np.errstate(all="ignore"):
        if hasattr(raw, "kernel"):
            y, lows, highs = _row_loop(*plan) or _column_kernel(*plan)
        else:
            y, lows, highs = _column_loop(*plan)
    if record:
        # ``y`` holds every state, one grid point per row.
        T = t0 + np.arange(len(y)) * h
        T[-1] = t_end
        finite = np.isfinite(y).all(axis=1)
        if not finite.all():
            raise IntegrationError(float(T[np.argmin(finite)]))
        return T, y
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


def _row_loop(raw, method, y, t0, t_end, nsteps, last, h, mode):
    """Run each row of ``y`` through ``raw``'s whole-loop kernel with that
    row's plan and bound values, all floats.  Returns the terminal states
    with the per-column extremes, or every state (``mode`` ``"record"``) in
    float64 storage; None leaves the problem to :func:`_column_kernel`: when
    ``y`` has more than :data:`SCALAR_ROWS` rows, a recorded problem more
    than one, or a bound value does not hold one value per row."""
    shape, n = y.shape[:-1], y.shape[-1]
    if y.size > SCALAR_ROWS * n or (mode == "record" and shape):
        return None
    kernel, bound = raw.kernel(n, method, mode)
    if any(np.shape(v) not in ((), shape) for v in bound):
        return None
    per_row = (np.broadcast_to(v, shape).ravel().tolist()
               for v in (t0, t_end, nsteps, last, *bound))
    out = array("d", y.tolist()) if mode == "record" else None
    ran = [kernel(a, b, c, d, h, out, *x, *p) for (a, b, c, d, *p), x in
           zip(zip(*per_row), y.reshape(-1, n).tolist())]
    if out is not None:
        return np.frombuffer(out).reshape(-1, n), None, None
    if mode == "extremes":
        ran, lows, highs = zip(*ran)
        return (np.array(ran).reshape(y.shape),
                *([np.array(c) for c in zip(*e)] for e in (lows, highs)))
    return np.array(ran).reshape(y.shape), None, None


def _column_kernel(raw, method, y, t0, t_end, nsteps, last, h, mode):
    """Run the rows of ``y`` through ``raw``'s generated column kernel, which
    steps the ``(B,)`` state columns in place (one row as a ``(1,)`` batch).
    Returns what :func:`_row_loop` does, with the extremes per column."""
    n = y.shape[-1]
    kernel, bound = raw.kernel(n, method, mode, columns=True)
    x = y.reshape(-1, n).T.copy()
    if mode == "record":
        Y = np.empty((int(nsteps.max()) + 1,) + y.shape)
        Y[0] = y
        kernel(t0, t_end, nsteps, last, h, Y.reshape(len(Y), -1, n), *x,
               *bound)
        return Y, None, None
    ran = kernel(t0, t_end, nsteps, last, h, None, *x, *bound)
    lows, highs = ran[1:] if mode == "extremes" else (None, None)
    return x.T.reshape(y.shape).copy(), lows, highs


def _column_loop(raw, method, y, t0, t_end, nsteps, last, h, mode):
    """Step the rows of ``y`` through the hand-written array field ``raw`` as
    a tuple of state columns ``(x0, ..., x_{n-1})``: floats for one row,
    ``(B,)`` arrays for a batch.  Returns what :func:`_row_loop` does, with
    the extremes per column."""
    step = _STEPPERS[method]
    n = y.shape[-1]
    f = _columns(raw, n)
    total = int(nsteps.max())
    # Every row takes the full step h before the shortest row's last step, so
    # those steps use the scalar h and skip building per-row step arrays.
    shared = int(nsteps.min()) - 1
    x = tuple(y.tolist()) if y.ndim == 1 else tuple(y.T.copy())
    if mode == "record":
        Y = np.empty((total + 1,) + y.shape)
        Y[0] = y
        recorded = [Y[..., k] for k in range(n)]
    lows = highs = x
    s = h
    for k in range(total):
        t = t0 + k * h
        if k >= shared:
            s = np.where(k < nsteps - 1, h, last)
            # A finished row evaluates the field at its own end time, never
            # past it; a running row's t0 + k*h is at least h below t_end.
            t = np.minimum(t, t_end)
        stepped = step(f, t, x, s)
        if k > shared:
            # A finished row keeps its state.  Stepping it by zero would
            # not: y + 0*F is NaN wherever F is not finite.
            done = k >= nsteps
            stepped = tuple(np.where(done, xk, yk)
                            for xk, yk in zip(x, stepped))
        x = stepped
        if mode == "record":
            for column, xk in zip(recorded, x):
                column[k + 1] = xk
        elif mode == "extremes":
            lows = tuple(map(np.minimum, lows, x))
            highs = tuple(map(np.maximum, highs, x))
    if mode == "record":
        return Y, None, None
    return (np.array(x) if y.ndim == 1 else np.stack(x, axis=1)), lows, highs
