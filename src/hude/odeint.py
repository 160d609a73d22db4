"""Fixed-step initial-value integrators for first-order vector fields.

One entry point, :func:`_terminal_state_batch`, runs every integration in
one of four modes: a recorded path (:func:`integrate`), the terminal states
of a batch of rows, those with their extremes (the spot check of a fan), or
a chain of rows, each started from the end state of the row before it (a
simulated series, one row per step).  It picks the kernel in one place.
A reduced model field runs through a whole-loop kernel generated once per
field source, with the level and parameters passed in as values
(:meth:`hude.model.ReducedField.kernel`): each kernel is its own loop
around one step, which :func:`hude.model._step_source` prints as C
statements, ufunc calls or float assignments.  A field whose ops are all
``+ - * /``, negation and ``abs``, which C rounds as numpy does, runs every
path and batch in a kernel compiled from C (:func:`_compiled_loop`), where
a C compiler builds it.  Any other field
(``exp``, ``ln``, ``sin``, ``cos``, ``^``), and every field where no kernel
builds, runs on the numpy kernels: a recorded path (an alpha-path), a chain
and a batch of at most :data:`SCALAR_ROWS` rows (a small fan or bisection
pass) row by row on floats, a larger batch (a large bisection pass) on
``(B,)`` state columns stepped in place.  A hand-written array field
(:func:`hude.reactor.build_point_kinetics` or a user's
:class:`~hude.model.VectorField`) integrates one row, recorded
(:func:`integrate`).  All give the same bits, except the sign of a NaN:
where two NaNs of opposite sign meet, float, array and C arithmetic keep
different ones.

The loop only integrates: it returns the states it computed, finite or not.
Each caller names its own failure: :func:`integrate` raises
:class:`IntegrationError` at the first non-finite grid point, a fan level
or the first non-finite simulated step raises :func:`_step_failure` at its
end time, and the bisection flags its failed rows.
"""

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

# Rows up to which a reduced field's batch on the numpy kernels runs row by
# row through its generated row kernel instead of its column kernel.  On
# 100-step windows of the reactor model (x86-64 Intel Xeon, 2 vCPU, numpy 2.4,
# h=1e-4, best of 15 runs, measured twice on a noisy shared machine) the row
# kernel costs ~0.1 ms plus 20-45 us per row (RK4 ~0.2 ms plus 0.10-0.15 ms),
# the column kernel a near-flat 0.6-1.4 ms (RK4 2.5-5.8 ms); the two meet
# between 24 and 32 rows (RK4 between 16 and 32).  On the 19-level,
# 60,000-step Euler fan with extremes the row kernel takes 0.35-0.50 s and
# the column kernel 0.54-0.57 s.  A field with exp and sin costs ~0.1 ms per
# row on floats (RK4 ~0.45 ms) and meets the column kernel below 8 rows, but
# the value is set for the reactor model, the case study's field.
SCALAR_ROWS = 32

# Whether a reduced field whose ops all round in C as in numpy runs through
# its compiled kernel (:func:`_compiled_loop`) when one builds.
COMPILED = True

# Step counts must stay below this: the kernels count steps in an int64.
_INT64_MAX = np.iinfo(np.int64).max


class IntegrationError(Exception):
    """The state left the finite floats; ``t`` locates the failing step."""

    def __init__(self, t: float, message: str | None = None):
        super().__init__(message or f"integration produced a non-finite state at t={t}")
        self.t = t


def _step_failure(t: float, step: str, level: float) -> IntegrationError:
    """The failure at time ``t`` of the ``step`` integrated at quantile
    ``level``."""
    return IntegrationError(t, f"integration produced a non-finite state "
                               f"at t={t} on {step} at level {level!r}")


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


def integrate(field, init: InitialState, t_end: float, h: float = DEFAULT_STEP,
              method: str = "euler") -> Trajectory:
    """Integrate ``field`` from ``init`` to ``t_end`` with fixed step ``h``.

    Raises :class:`IntegrationError` at the first non-finite grid point: no
    step ``y + s*F`` turns a non-finite state finite again, so that is where
    the state left the floats."""
    y = _terminal_state_batch(getattr(field, "raw", field), init.t0,
                              init.values, t_end, h, method, mode="record")
    t = init.t0 + np.arange(len(y)) * h
    t[-1] = t_end
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        raise IntegrationError(float(t[np.argmin(finite)]))
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
                          mode="terminal"):
    """The one fixed-step loop: terminal states of independent initial-value
    problems, ``y0`` of shape ``(n,)`` with scalar ``t0``/``t_end`` or
    ``(B, n)`` with ``(B,)`` times (``raw`` must broadcast over rows).

    Step ``k`` of every row starts at ``t0 + k*h``; a row's last step is
    shortened to its ``t_end`` and rows that finish early keep their terminal
    state, so a row's result does not depend on the other rows.  A reduced
    field (:class:`hude.model.ReducedField`) runs through a generated
    whole-loop kernel: compiled from C when its ops allow and one builds
    (:func:`_compiled_loop`), else recorded, chained or with at most
    :data:`SCALAR_ROWS` rows row by row on floats (:func:`_row_loop`), else
    on ``(B,)`` state columns stepped in place (:func:`_column_kernel`).
    Each of its levels and parameters binds one value or one per row, else
    ValueError.  A hand-written array field steps one row as an ``(n,)``
    array (:func:`_column_loop`), and raises ValueError on a batch or in
    mode ``"extremes"`` or ``"chain"``.  All give the same bits (up to the
    sign of a NaN, see the module docstring).

    ``mode`` says what is returned: ``"terminal"`` the terminal states,
    ``"extremes"`` those with the componentwise extremes over all rows and
    steps, ``"record"`` (one row, ``y0`` of shape ``(n,)``) every state, one
    grid point per row, allocated before the first step; any other value
    but ``"chain"`` raises ValueError.  ``"chain"`` takes ``y0`` of shape
    ``(n,)`` and one segment per row of the ``(B,)`` times, and returns the
    ``(B, n)`` terminal states: row 0 starts from ``y0`` and each later row
    from the terminal state of the row before it, and every row plans and
    steps as a one-row ``"terminal"`` call over its own segment with its
    bound values as a batch of one.  States are returned as computed,
    finite or not: the caller names a failure.  A non-finite ``h``, ``t0``
    or ``t_end``, or a span whose step count does not fit an int64, raises
    ValueError.
    """
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    if mode not in ("terminal", "extremes", "record", "chain"):
        raise ValueError(f"unknown mode {mode!r}")
    t0 = np.asarray(t0, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    if not (math.isfinite(h) and np.isfinite(t0).all()
            and np.isfinite(t_end).all()):
        for name, value in (("step h", h), ("initial time", t0),
                            ("end time", t_end)):
            bad = np.asarray(value)[~np.isfinite(value)]
            if bad.size:
                raise ValueError(f"{name} must be finite, got "
                                 f"{float(bad[0])!r}")
    if h <= 0:
        raise ValueError("step h must be positive")
    y = np.array(y0, dtype=float)
    n = y.shape[-1]
    span = t_end - t0
    if (span <= 0).any():
        raise ValueError("t_end must exceed the initial time")
    nsteps = np.ceil(span / h - 1e-9)
    if not (nsteps < _INT64_MAX).all():
        raise ValueError(f"the span takes {float(np.max(nsteps))!r} steps of "
                         f"h={h!r}, more than an int64 counts")
    nsteps = np.maximum(nsteps.astype(np.int64), 1)
    last = span - (nsteps - 1) * h
    if mode == "chain":
        if y.ndim > 1:
            raise ValueError("a chain starts from one state")
        # One row per segment; a row's start state is the row before's end.
        y = np.broadcast_to(y, (nsteps.size, n))
    elif y.ndim == 1:
        t0 = float(t0)
    out = None
    if mode == "record":
        # Sized before the first step: a path too long to hold fails here.
        out = np.empty((int(nsteps) + 1, n))
        out[0] = y
    plan = (y, t0, t_end, nsteps, last, h, mode, out)
    if not hasattr(raw, "kernel"):
        if y.ndim > 1 or mode in ("extremes", "chain"):
            raise ValueError("a hand-written field integrates one row, without "
                             "extremes or a chain")
        loop, plan = _column_loop, (raw, method, *plan)
    else:
        rows = y.size // n
        kernel, bound = (raw.kernel(n, method, mode, "compiled") if COMPILED
                         else (None, ()))
        loop = _compiled_loop
        if kernel is None:
            # A recorded path and a chain run row by row, a chain through
            # the terminal row kernel.
            by_row = mode in ("record", "chain") or rows <= SCALAR_ROWS
            kernel, bound = raw.kernel(
                n, method, "terminal" if mode == "chain" else mode,
                "row" if by_row else "columns")
            loop = _row_loop if by_row else _column_kernel
        for v in bound:
            if np.shape(v) not in ((), (1,), (rows,)):
                raise ValueError(f"a level or parameter holds {np.size(v)} "
                                 f"values for {rows} row(s); it must bind one "
                                 "value or one per row")
        plan = (kernel, bound, *plan)
    with np.errstate(all="ignore"):
        y, lows, highs = loop(*plan)
    if mode == "extremes":
        return (y, np.array([np.min(c) for c in lows]),
                np.array([np.max(c) for c in highs]))
    return y


def _compiled_loop(kernel, bound, y, t0, t_end, nsteps, last, h, mode, out):
    """Run the rows of ``y`` through the compiled ``kernel`` (the C loop of
    :func:`hude.native._c_source` around the step that
    :func:`hude.model._step_source` prints) with the plan and the ``bound``
    values spread to one row each of a ``(3 + n + len(bound), B)`` array,
    whose state columns the kernel steps in place.  Returns what
    :func:`_row_loop` does."""
    n = y.shape[-1]
    rows = y.size // n
    plan = np.empty((3 + n + len(bound), rows))
    for row, v in zip(plan, (t0, t_end, last, *y.reshape(-1, n).T, *bound)):
        row[...] = v
    x = plan[3:3 + n]
    if mode == "extremes":
        out = np.concatenate((x, x))
    nsteps = np.full(rows, nsteps, dtype=np.int64)
    base, stride = plan.ctypes.data, plan.strides[0]
    kernel(rows, h, nsteps.ctypes.data,
           None if out is None else out.ctypes.data,
           *(base + r * stride for r in range(len(plan))))
    if mode == "record":
        return out, None, None
    y = np.ascontiguousarray(x.T).reshape(y.shape)
    return (y, out[:n], out[n:]) if mode == "extremes" else (y, None, None)


def _row_loop(kernel, bound, y, t0, t_end, nsteps, last, h, mode, out):
    """Run each row of ``y`` through the generated row ``kernel`` with that
    row's plan and ``bound`` values (each one value or one per row), all
    floats; in ``mode`` ``"chain"`` each row after the first starts from the
    terminal state of the row before it.  Returns the terminal states with
    the per-column extremes, or ``out`` holding every state of the one row
    ``y`` (``mode`` ``"record"``)."""
    n = y.shape[-1]
    per_row = (np.broadcast_to(v, (y.size // n,)).tolist()
               for v in (t0, t_end, nsteps, last, *bound))
    if mode == "chain":
        x, ran = y[0].tolist(), []
        for a, b, c, d, *p in zip(*per_row):
            x = kernel(a, b, c, d, h, None, *x, *p)
            ran.append(x)
        return np.array(ran), None, None
    record = None if out is None else memoryview(out.reshape(-1))
    ran = [kernel(a, b, c, d, h, record, *x, *p) for (a, b, c, d, *p), x in
           zip(zip(*per_row), y.reshape(-1, n).tolist())]
    if out is not None:
        return out, None, None
    if mode == "extremes":
        ran, lows, highs = zip(*ran)
        return (np.array(ran).reshape(y.shape),
                *([np.array(c) for c in zip(*e)] for e in (lows, highs)))
    return np.array(ran).reshape(y.shape), None, None


def _column_kernel(kernel, bound, y, t0, t_end, nsteps, last, h, mode, out):
    """Run the rows of ``y`` through the generated column ``kernel``, which
    steps the ``(B,)`` state columns in place (one row as a ``(1,)`` batch)
    with the ``bound`` values.  Returns the terminal states, with the
    extremes per column; it never records (``out`` is unused)."""
    n = y.shape[-1]
    x = y.reshape(-1, n).T.copy()
    ran = kernel(t0, t_end, nsteps, last, h, out, *x, *bound)
    lows, highs = ran[1:] if mode == "extremes" else (None, None)
    return x.T.reshape(y.shape).copy(), lows, highs


def _column_loop(raw, method, y, t0, t_end, nsteps, last, h, mode, out):
    """Step the one row ``y`` through the hand-written array field ``raw``
    (state on the last axis), every state recorded in ``out`` when
    ``mode`` is ``"record"``.  Returns what :func:`_row_loop` does.  It
    serves only :func:`hude.reactor.build_point_kinetics` and a user's
    :class:`~hude.model.VectorField`: every model field runs on the
    generated kernels."""
    s = h
    for k in range(int(nsteps)):
        t = t0 + k * h
        if k == nsteps - 1:
            # The last step is shortened to end exactly at t_end.
            s, t = last, np.minimum(t, t_end)
        if method == "euler":
            y = y + s * raw(t, y)
        else:
            half = 0.5 * s
            k1 = raw(t, y)
            k2 = raw(t + half, y + half * k1)
            k3 = raw(t + half, y + half * k2)
            k4 = raw(t + s, y + s * k3)
            y = y + s / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if out is not None:
            out[k + 1] = y
    return (y, None, None) if out is None else (out, None, None)
