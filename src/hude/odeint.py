"""Fixed-step initial-value integrators for first-order vector fields."""

from __future__ import annotations

import math
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


def _plan_steps(t0: float, t_end: float, h: float) -> tuple[int, float]:
    if h <= 0:
        raise ValueError("step h must be positive")
    span = t_end - t0
    if span <= 0:
        raise ValueError("t_end must exceed the initial time")
    nsteps = max(int(math.ceil(span / h - 1e-9)), 1)
    return nsteps, span - (nsteps - 1) * h


def _euler_step(raw, t, y, s):
    return y + s * raw(t, y)


def _rk4_step(raw, t, y, s):
    half = 0.5 * s
    k1 = raw(t, y)
    k2 = raw(t + half, y + half * k1)
    k3 = raw(t + half, y + half * k2)
    k4 = raw(t + s, y + s * k3)
    return y + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_STEPPERS = {"euler": _euler_step, "rk4": _rk4_step}


def integrate(field, init: InitialState, t_end: float, h: float = DEFAULT_STEP,
              method: str = "euler") -> Trajectory:
    """Integrate ``field`` from ``init`` to ``t_end`` with fixed step ``h``."""
    try:
        stepper = _STEPPERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    raw = getattr(field, "raw", field)
    nsteps, last = _plan_steps(init.t0, t_end, h)
    n = init.values.size
    T = np.empty(nsteps + 1)
    Y = np.empty((nsteps + 1, n))
    T[0] = init.t0
    Y[0] = init.values
    y = init.values.astype(float)
    with np.errstate(all="ignore"):
        for k in range(nsteps):
            s = h if k < nsteps - 1 else last
            t_next = init.t0 + (k + 1) * h if k < nsteps - 1 else t_end
            y = stepper(raw, T[k], y, s)
            if not np.all(np.isfinite(y)):
                raise IntegrationError(float(t_next))
            T[k + 1] = t_next
            Y[k + 1] = y
    return Trajectory(T, Y, h)


def integrate_euler(field, init: InitialState, t_end: float,
                    h: float = DEFAULT_STEP) -> Trajectory:
    """Explicit Euler: ``y_{k+1} = y_k + h F(t_k, y_k)``."""
    return integrate(field, init, t_end, h, method="euler")


def integrate_rk4(field, init: InitialState, t_end: float,
                  h: float = DEFAULT_STEP) -> Trajectory:
    """Classical fourth-order Runge-Kutta."""
    return integrate(field, init, t_end, h, method="rk4")


def _terminal_state_batch(raw, t0, y0, t_end, h, method="euler",
                          track_extremes=False, check_finite=True):
    """Integrate a batch of independent initial-value problems and return only
    the terminal states.

    ``t0``, ``t_end`` are ``(B,)`` arrays, ``y0`` is ``(B, n)``; each row keeps
    its own step count (step ``h``, last step shortened), rows that finish
    early are frozen with zero-length steps.  Used by the residual bisection
    and the inverse-distribution fan, where only endpoints matter.
    ``raw`` must broadcast over the leading batch axis.  A non-finite terminal
    row raises :class:`IntegrationError` unless ``check_finite`` is off, in
    which case it is returned as is for the caller to isolate.
    """
    if method == "euler":

        def stepper(t, y, s):
            return y + s[:, None] * raw(t, y)

    elif method == "rk4":

        def stepper(t, y, s):
            half = 0.5 * s
            sc = s[:, None]
            hc = half[:, None]
            k1 = raw(t, y)
            k2 = raw(t + half, y + hc * k1)
            k3 = raw(t + half, y + hc * k2)
            k4 = raw(t + s, y + sc * k3)
            return y + (sc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    else:
        raise ValueError(f"unknown method {method!r}")
    if h <= 0:
        raise ValueError("step h must be positive")
    t = np.array(t0, dtype=float)
    y = np.array(y0, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    span = t_end - t
    if np.any(span <= 0):
        raise ValueError("t_end must exceed the initial time")
    nsteps = np.maximum(np.ceil(span / h - 1e-9).astype(int), 1)
    last = span - (nsteps - 1) * h
    mins = y.min(axis=0) if track_extremes else None
    maxs = y.max(axis=0) if track_extremes else None
    with np.errstate(all="ignore"):
        for k in range(int(nsteps.max())):
            s = np.where(k < nsteps - 1, h, np.where(k == nsteps - 1, last, 0.0))
            y = stepper(t, y, s)
            t = t + s
            if track_extremes:
                mins = np.minimum(mins, y.min(axis=0))
                maxs = np.maximum(maxs, y.max(axis=0))
    if check_finite:
        finite = np.isfinite(y).all(axis=1)
        if not finite.all():
            raise IntegrationError(float(t_end[int(np.argmin(finite))]))
    if track_extremes:
        return y, mins, maxs
    return y
