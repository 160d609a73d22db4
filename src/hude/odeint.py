"""Fixed-step initial-value integrators for first-order vector fields, and
the integrator kernels they run.

One entry point, :func:`_terminal_state_batch`, runs every integration in
one of four modes: a recorded path (:func:`integrate`), the terminal states
of a batch of rows, those with their extremes (the spot check of a fan), or
a chain of rows, each started from the end state of the row before it (a
simulated series, one row per step).  The one exception is a residual
bisection (:func:`_bisect`), which runs all its passes on one plan made by
the same planner (:func:`_plan`).  One helper (:func:`_kernel`) picks the
kernel for both.

Every kernel is called as ``kernel(rows, h, nsteps, out, plan)``, from that
one call site or :func:`_bisect`, and takes exactly these arguments, down
to the C entry points (:func:`_compiled_loop` passes the three arrays'
addresses).
``plan`` is a ``(3 + n + len(bound), rows)`` float array
with one column per row: its rows are ``t0``, ``t_end``, ``last`` (the
width of the row's shortened last step), the ``n`` states, then the bound
level and parameters in the order of ``ReducedField._bound``.  ``nsteps``
holds each row's int64 step count.  The kernel steps the state rows in
place, so they hold the terminal states when it returns.  ``out`` is
``None`` for terminal states and chains; for extremes a ``(2n, rows)``
array, the running minima of the states then their maxima, which start
at the start states; for a recorded path (one row) the
``(nsteps + 1, n)`` path, whose row 0 holds the start state.

A residual bisection halves each row's level interval, from [0, 1], ``H``
times.  Each pass restores the start states, writes
:func:`hude.model._clamped_phi` of each row's midpoint ``0.5*(lo + hi)``
into the plan's level row, steps every row, flags the rows whose state is
not finite and keeps the upper half where ``x0`` ends below the
observation.  The start states are restored after the last pass, so the
plan runs again at other parameter values.  Up to :data:`_TABLE_DEPTH`
halvings of a field that compiles, this is one call of ``bisect``, the
terminal kernel's third C entry point (``chain``, a simulated series, is
its second).  Its ``out`` is one float array, blocks of ``rows`` values in
this order: ``H`` (one value), the observations ``x_next``, then what it
returns, ``lo`` and ``hi``, each row's first pass with a non-finite state
(``-1`` for none) and the level it probed there, then its copy of the
``n`` start state rows, then the table of the ``2**H - 1`` noise levels,
:func:`hude.model._clamped_phi` of ``m / 2**H`` at ``m - 1``, computed by
numpy because C's ``log`` rounds some of them differently
(:func:`_phi_table`).  Every probe is a multiple of ``2**-H``, so ``mid *
2**H - 1`` indexes the table exactly.  Otherwise each pass is one call of
the kernel :func:`_kernel` picks, with the same bits.

A reduced model field (:class:`hude.model.ReducedField`) runs through a
whole-loop kernel that :func:`_generated` makes once per field source,
with the level and parameters passed in as values: each kernel is its own
loop around one step, which :func:`_step_source` prints as C statements,
ufunc calls or float assignments.  A field whose ops are all ``+ - * /``,
negation and ``abs``, which C rounds as numpy does, runs every path and
batch in C where :mod:`hude.native`, imported by the first field that
compiles, builds it.  Any other field (``exp``, ``ln``, ``sin``, ``cos``,
``^``), and every field where no kernel builds, runs on the numpy kernels
(:func:`_loop_source`), chosen by the shape of the call: the row kernel
walks the plan's columns one at a time on floats (a recorded path, a chain
or a one-row batch), the column kernel steps a batch of two or more rows on
the plan's state rows in place.  A hand-written array field
(:func:`hude.reactor.build_point_kinetics` or a user's
:class:`~hude.model.VectorField`) integrates one row, recorded
(:func:`integrate`), in :func:`_column_loop`.  All give the same bits,
except the sign of a NaN: where two NaNs of opposite sign meet, float,
array and C arithmetic keep different ones.

The loop only integrates: it returns the states it computed, finite or not.
Each caller names its own failure: :func:`integrate` raises
:class:`IntegrationError` at the first non-finite grid point, a fan level
or the first non-finite simulated step raises :func:`_step_failure` at its
end time, and the bisection flags its failed rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expr import _C_OPS, _INFIX, _STATE_RE, _binder, _infix
from .model import InitialState, ReducedField, _clamped_phi
from .validation import check_times

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

# Whether a reduced field whose ops all round in C as in numpy runs through
# its compiled kernel (:func:`_compiled_loop`) when one builds.
COMPILED = True

# Step counts must stay below this: the kernels count steps in an int64.
_INT64_MAX = np.iinfo(np.int64).max

# The most halvings a compiled bisection takes: its table of noise levels
# holds 2**depth - 1 doubles (8 MB here).  A finer delta runs the pass loop.
_TABLE_DEPTH = 20


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
        check_times("time grid", t)
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
    the state left the floats.  Raises ValueError when ``field`` has a
    ``dim`` that ``init`` does not match."""
    if hasattr(field, "dim"):
        init.check_order(field.dim)
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
    state, so a row's result does not depend on the other rows.  The call
    checks and packs the plan once (:func:`_plan`, which raises its
    ValueErrors) and runs one kernel on it, as the module docstring sets
    out: a reduced field's compiled kernel where one builds, else its row
    kernel one row at a time (a recorded path, a chain, a one-row batch) or
    its column kernel (a batch of two or more rows).  A hand-written array
    field steps one row as an ``(n,)`` array (:func:`_column_loop`), and
    raises ValueError on a batch or in mode ``"extremes"`` or ``"chain"``.

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
    finite or not: the caller names a failure.
    """
    if mode not in ("terminal", "extremes", "record", "chain"):
        raise ValueError(f"unknown mode {mode!r}")
    plan, nsteps, lowered = _plan(raw, t0, y0, t_end, h, method,
                                  mode == "chain")
    shape, rows = np.shape(y0), plan.shape[1]
    n = shape[-1]
    if lowered is not None:
        kernel = _kernel(lowered, n, method, mode, rows)
    elif len(shape) > 1 or mode in ("extremes", "chain"):
        raise ValueError("a hand-written field integrates one row, without "
                         "extremes or a chain")
    else:
        kernel = functools.partial(_column_loop, raw, method)
    x = plan[3:3 + n]
    out = None
    if mode == "record":
        # Sized before the first step: a path too long to hold fails here.
        out = np.empty((int(nsteps[0]) + 1, n))
        out[0] = x[:, 0]
    elif mode == "extremes":
        out = np.concatenate((x, x))
    with np.errstate(all="ignore"):
        kernel(rows, h, nsteps, out, plan)
    if mode == "record":
        return out
    y = x.T.copy().reshape((rows, n) if mode == "chain" else shape)
    if mode == "extremes":
        return (y, np.array([np.min(c) for c in out[:n]]),
                np.array([np.max(c) for c in out[n:]]))
    return y


def _kernel(lowered, n, method, mode, rows):
    """The kernel that steps ``rows`` rows of a reduced field lowered to
    ``lowered`` in ``mode``: its compiled kernel where ``COMPILED`` is on
    and one loads, else the row kernel for one row at a time (a recorded
    path, a chain through the terminal row kernel, a one-row batch) or the
    column kernel for a batch of two or more rows."""
    kernel = (_generated(*lowered, n, method, mode, "compiled")
              if COMPILED else None)
    if kernel is None:
        by_row = mode in ("record", "chain") or rows == 1
        kernel = _generated(*lowered, n, method,
                            "terminal" if mode == "chain" else mode,
                            "row" if by_row else "columns")
    return kernel


def _plan(raw, t0, y0, t_end, h, method, chain=False):
    """The checks and the plan of a call of :func:`_terminal_state_batch`
    (its arguments, ``chain`` for mode ``"chain"``), which :func:`_bisect`
    shares:
    ``(plan, nsteps, lowered)``, the plan and the ``(rows,)`` int64 step
    counts of the module docstring, and ``lowered`` the field and the bound
    names (``"phi, p0, .."``) a reduced field runs, else ``None``.

    A method other than ``"euler"`` and ``"rk4"``, a non-finite ``h``,
    ``t0`` or ``t_end``, a span that is not positive or whose step count
    does not fit an int64, a chain from more than one state, or a reduced
    field's level or parameter that binds neither one value nor one per row
    raises ValueError."""
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
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
    y = np.asarray(y0, dtype=float)
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
    if chain and y.ndim > 1:
        raise ValueError("a chain starts from one state")
    # A chain has one row per segment, every other call one per state.
    rows = nsteps.size if chain else y.size // n
    lowered, bound = None, ()
    if isinstance(raw, ReducedField):
        field, bound = raw._bound()
        lowered, bound = (field, ", ".join(bound)), tuple(bound.values())
        for v in bound:
            if np.shape(v) not in ((), (1,), (rows,)):
                raise ValueError(f"a level or parameter holds {np.size(v)} "
                                 f"values for {rows} row(s); it must bind one "
                                 "value or one per row")
    plan = np.empty((3 + n + len(bound), rows))
    for row, v in zip(plan, (t0, t_end, last, *y.reshape(-1, n).T, *bound)):
        row[...] = v
    return plan, np.full(rows, nsteps, dtype=np.int64), lowered


def _bisect(raw, t0, y0, t_end, h, method, x_next, halvings):
    """Prepare a residual bisection of ``halvings`` passes of the batch (the
    arguments of :func:`_terminal_state_batch`, ``raw`` a reduced field with
    an array level) towards the observations ``x_next``, as the module
    docstring sets out: the batch is checked and planned (:func:`_plan`)
    once, also where it takes no pass.

    Returns ``run(values)``, which writes the parameter values ``values``
    (a mapping as :func:`hude.model.compile_model` returns, each a float or
    one per row) into the plan's parameter rows and runs the passes, in one
    C call where ``bisect`` loads.  It returns ``(lo, hi, failed,
    failure)``: each row's final interval, whether any probe of the row
    left the finite floats, and ``None`` or the lowest failed row of the
    earliest failing pass with the level it probed there."""
    plan, nsteps, lowered = _plan(raw, t0, y0, t_end, h, method)
    rows, n = plan.shape[1], np.shape(y0)[-1]
    bisect = (_generated(*lowered, n, method, "bisect", "compiled")
              if COMPILED and 0 < halvings <= _TABLE_DEPTH else None)
    if bisect is not None:
        table = _phi_table(halvings)
        out = np.empty(1 + (5 + n) * rows + table.size)
        out[0] = halvings
        out[1:1 + rows] = x_next
        out[1 + (5 + n) * rows:] = table
    else:
        kernel = _kernel(lowered, n, method, "terminal", rows)
        x, level = plan[3:3 + n], plan[3 + n]
        start = x.copy()

        def passes():
            # What bisect computes, pass by pass.
            lo, hi = np.zeros(rows), np.ones(rows)
            first, probe = np.full(rows, -1.0), np.empty(rows)
            for p in range(halvings):
                x[...] = start
                mid = 0.5 * (lo + hi)
                level[...] = _clamped_phi(mid)
                with np.errstate(all="ignore"):
                    kernel(rows, h, nsteps, None, plan)
                new = (first < 0.0) & ~np.isfinite(x).all(axis=0)
                first[new], probe[new] = p, mid[new]
                below = x[0] < x_next
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            x[...] = start
            return lo, hi, first, probe

    def run(values):
        # The parameter rows follow the level row, as in ReducedField._bound.
        _, *bound = ReducedField(raw.code, values, 0.0)._bound()[1].values()
        for row, v in zip(plan[4 + n:], bound):
            row[...] = v
        if bisect is None:
            lo, hi, first, probe = passes()
        else:
            bisect(rows, h, nsteps, out, plan)
            lo, hi, first, probe = out[1 + rows:1 + 5 * rows].reshape(4, rows)
            lo, hi = lo.copy(), hi.copy()  # out is the next run's too
        failed = first >= 0.0
        failure = None
        if failed.any():
            # The lowest row of the earliest pass with a failure.
            row = int(np.argmin(np.where(failed, first, np.inf)))
            failure = (row, float(probe[row]))
        return lo, hi, failed, failure
    return run


@functools.lru_cache(maxsize=4)
def _phi_table(depth):
    """The noise levels of every probe of a ``depth``-halving bisection,
    :func:`~hude.model._clamped_phi` of ``m / 2**depth`` at ``m - 1`` for
    ``m`` in ``1 .. 2**depth - 1``: numpy's bits, which C's ``log`` does not
    always give."""
    table = _clamped_phi(np.arange(1, 2 ** depth) / 2 ** depth)
    table.flags.writeable = False
    return table


def _compiled_loop(fn, rows, h, nsteps, out, plan):
    """The compiled kernel: the C entry point ``fn``
    (:func:`hude.native.load` of :func:`hude.native._c_source`) called on
    the addresses of ``nsteps``, ``out`` and ``plan``."""
    fn(rows, h, nsteps.ctypes.data, None if out is None else out.ctypes.data,
       plan.ctypes.data)


def _column_loop(raw, method, rows, h, nsteps, out, plan):
    """The hand-written loop: the one row of ``plan`` stepped as an ``(n,)``
    array through the array field ``raw`` (state on the last axis), every
    state recorded in ``out`` when it is given.  It serves only
    :func:`hude.reactor.build_point_kinetics` and a user's
    :class:`~hude.model.VectorField`: every model field runs on the
    generated kernels."""
    (t0, t_end, last), y = plan[:3, 0].tolist(), plan[3:, 0].copy()
    nsteps, s = int(nsteps[0]), h
    for k in range(nsteps):
        t = t0 + k * h
        if k == nsteps - 1:
            # The last step is shortened to end exactly at t_end.
            s, t = last, min(t, t_end)
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
    plan[3:, 0] = y


@functools.lru_cache(maxsize=256)
def _generated(field, params: str, n: int, method: str, mode: str, backend):
    """The kernel ``kernel(rows, h, nsteps, out, plan)`` (see the module
    docstring) of a reduced field lowered to ``field``
    (:func:`hude.model.compile_model`) over the bound names ``params`` (the
    ops keep ``0.0`` and ``-0.0`` apart): for ``backend`` ``"columns"`` or
    ``"row"`` the kernel of :func:`_loop_source`, for ``"compiled"`` the
    entry point of :func:`hude.native._c_source` run by
    :func:`_compiled_loop` (a ``"chain"`` and a ``"bisect"`` are the
    terminal object's second and third entry points), or ``None`` after one
    debug line on the ``hude`` logger where C may round an op unlike numpy
    or the build fails."""
    if backend != "compiled":
        return _binder(_loop_source(field, params, n, method, mode, backend))
    inexact = sorted({func for func, *_ in field[0]} - _C_OPS.keys())
    if inexact:
        reason = f"{', '.join(inexact)} may round unlike numpy in C"
    else:
        from . import native
        entry = mode if mode in ("chain", "bisect") else "kernel"
        try:
            return functools.partial(_compiled_loop, native.load(
                native._c_source(field, params, n, method,
                                 mode if entry == "kernel" else "terminal"),
                entry))
        except OSError as exc:
            reason = f"the C kernel did not build: {exc}"
    import logging
    logging.getLogger("hude").debug("numpy kernels run a %s %s field: %s",
                                    method, mode, reason)
    return None


def _step_source(field, n: int, method: str, backend: str):
    """The one printer of a step: the statements of one Euler or RK4 step of
    the reduced field whose last derivative is lowered to ``field``
    (:func:`hude.model.compile_model`), the same operations in the same
    order for every ``backend``, so that every kernel computes the same bits.

    A step reads the state ``x0 ..``, the width ``s`` (RK4 also ``half`` and
    ``sixth``) and, where the field reads ``t``, the start time ``t``, and
    steps the state in place: Euler to ``x_j + s*k_j``, RK4 through stage
    states ``z_j = x_j + frac*k_j`` at ``t + half`` and ``t + s`` to ``x_j +
    sixth*(((k1_j + 2.0*k2_j) + 2.0*k3_j) + k4_j)``, where ``k_j`` is
    ``x_{j+1}`` and ``k_{n-1}`` the field, scaled by ``s`` before any state
    it may read is stepped.  Each op is a three-address statement into a
    scratch name ``w0 ..``: for ``"columns"`` a ufunc call into a ``(B,)``
    buffer (``power`` is :func:`~hude.expr._power`), for ``"row"`` a float
    assignment (:data:`~hude.expr._INFIX`, ``np.power``), for ``"compiled"``
    a C assignment for row ``i`` (:data:`~hude.expr._C_OPS`), bound values
    read as ``b_<name>[i]`` and literals as ``float.hex()``.  In Python an op
    that reads no state is its infix source instead, evaluated at every stage
    if it reads ``t``, else once before the loop; for ``"columns"`` spread to
    a ``(B,)`` array (a ufunc converts a float operand on every call) except
    as an exponent, where a float takes numpy's fast path.

    Returns ``(setup, main, tail, timed)``: the lines run once before the
    loop (C: the declarations), a step's lines, those with each state update
    under ``where=run`` (a column kernel's last steps), and whether the field
    reads ``t``.
    """
    ops, value = field
    compiled, columns = backend == "compiled", backend == "columns"

    def kind(a):
        # 2 if operand ``a`` reads the state, 1 if ``t`` but no state, else 0.
        if isinstance(a, int):
            return max(map(kind, ops[a][1:]))
        return 2 if _STATE_RE.match(a) else int(a == "t")

    # (source, spread) of each operand evaluated before the loop, spread to a
    # (B,) array or not -> its name (c0 the step h, c1 RK4's 2.0).
    hoisted = {("h", columns): "c0", ("2.0", columns): "c1"}
    buffers: list[str] = []  # the scratch names
    free: list[str] = []
    used: set[str] = set()  # the ufuncs a column kernel calls

    def alloc():
        if not free:
            buffers.append(f"w{len(buffers)}")
            free.append(buffers[-1])
        return free.pop()

    def release(*operands):
        free.extend(o for o in operands if o in buffers)

    def call(func, *operands, where=""):
        # ``func`` of the operands but the last, into the last.
        *args, out = operands
        if compiled:
            return f"{out} = {_C_OPS[func].format(*args)};"
        if not columns:
            template = "np.power({}, {})" if func == "power" else _INFIX[func]
            return f"{out} = {template.format(*args)}"
        used.add(func)
        return f"{func}({', '.join(operands)}{where})"

    def evaluate(a, states, lines, spread=columns):
        # The name holding operand ``a`` at the states once ``lines`` ran.
        if kind(a) < 2 and not compiled:
            text = _infix(ops, a)
            if kind(a):
                name = f"e{len(lines)}"  # unique in the step
                lines.append(f"{name} = {text}")
                return name
            return hoisted.setdefault((text, spread), f"c{len(hoisted)}")
        if not isinstance(a, int):
            if kind(a) == 2:
                return states[int(a[1:])]
            # In C: the time, a bound value of row i or a literal.
            return (a if a == "t" else f"b_{a}[i]" if a[0].isalpha()
                    else f"({float(a).hex()})")
        func, *args = ops[a]
        operands = [evaluate(arg, states, lines, columns and func != "power")
                    for arg in args]
        release(*operands)
        out = alloc()
        lines.append(call(func, *operands, out))
        return out

    def advance(frac, k, into, lines, where="", keep=False):
        # into[j] = x[j] + frac * k[j], ascending: k[j] may be into[j + 1],
        # and the last derivative may be any state, so it is scaled first.
        d = k[-1] if k[-1] in buffers and not keep else alloc()
        lines.append(call("multiply", frac, k[-1], d))
        if n > 1:
            w = alloc()
            for j in range(n - 1):
                lines += [call("multiply", frac, k[j], w),
                          call("add", f"x{j}", w, into[j], where=where)]
            release(w)
        lines.append(call("add", f"x{n - 1}", d, into[-1], where=where))
        release(d)

    xs = [f"x{j}" for j in range(n)]
    zs = [f"z{j}" for j in range(n)]
    two = "2.0" if compiled else "c1"
    timed = value == "t" or any("t" in op[1:] for op in ops)

    def clock(line):
        # A line of the stage times, where the field reads t.
        return [f"{line};" if compiled else line] if timed else []

    def step(where):
        lines = []
        if method == "euler":
            advance("s", xs[1:] + [evaluate(value, xs, lines)], xs, lines, where)
            return lines
        lines += clock("tk = t")
        k1 = xs[1:] + [evaluate(value, xs, lines)]
        advance("half", k1, zs, lines, keep=True)
        lines += clock("t = tk + half")
        k2 = zs[1:] + [evaluate(value, zs, lines)]
        for j in range(n):
            lines += [call("multiply", two, k2[j], f"a{j}"),
                      call("add", k1[j], f"a{j}", f"a{j}")]
        release(k1[-1])
        advance("half", k2, zs, lines)
        k3 = zs[1:] + [evaluate(value, zs, lines)]
        w = alloc()
        for j in range(n):
            lines += [call("multiply", two, k3[j], w),
                      call("add", f"a{j}", w, f"a{j}")]
        release(w)
        advance("s", k3, zs, lines)
        lines += clock("t = tk + s")
        k4 = zs[1:] + [evaluate(value, zs, lines)]
        lines += [call("add", f"a{j}", k4[j], f"a{j}") for j in range(n)]
        release(k4[-1])
        for j in range(n):
            lines += [call("multiply", "sixth", f"a{j}", f"a{j}"),
                      call("add", f"x{j}", f"a{j}", f"x{j}", where=where)]
        return lines

    main, tail = step(""), step(", where=run")
    stages = [f"{b}{j}" for b in "za" for j in range(n)] if method == "rk4" else []
    if compiled:
        return ([f"double {', '.join(buffers + stages + ['tk'] * timed)};"],
                main, tail, timed)
    setup = [*("power = _power" if func == "power" else f"{func} = np.{func}"
               for func in sorted(used)),
             *(f"{name} = np.full_like(x0, {text})" if spread else
               f"{name} = {text}" for (text, spread), name in hoisted.items()),
             *(f"{b} = np.empty_like(x0)" for b in buffers + stages if columns)]
    return setup, main, tail, timed


def _loop_source(field, params: str, n: int, method: str, mode: str,
                 backend: str) -> str:
    """Source of a Python kernel of the contract in the module docstring:
    the whole fixed-step loop around the step that :func:`_step_source`
    prints for ``backend``.  Step ``k`` starts at ``t0 + k*h``, and a row's
    last step of ``last`` at ``min(t0 + k*h, t_end)``.  ``"columns"`` steps
    the plan's state rows, every row by ``h`` up to the shortest row's last
    step and by its own ``s`` from there, where a finished row keeps its
    state (``where=run``), and never records.  ``"row"`` runs the plan's
    columns one at a time on floats, each after the first from the terminal
    state of the one before it: a chain, of which a one-row call is a chain
    of one row.  Its last step runs after the loop, and ``mode``
    ``"record"`` writes state ``k`` to ``out[k*n ..]`` through a flat view.
    ``"extremes"`` keeps each state's running minimum and maximum (on floats
    ``a if a < b or a != a else b``, which is ``np.minimum(a, b)``, NaN and
    signed zeros included) in ``out``: the columns' in place, the row's
    after its last column.
    """
    columns = backend == "columns"
    if columns and mode == "record":
        raise ValueError("a recorded path runs in the row kernel")
    setup, main, tail, timed = _step_source(field, n, method, backend)
    xs = ", ".join(f"x{j}" for j in range(n))
    ends = [f"{e}{j}" for e in "lu" for j in range(n)]
    start, after, finish = [], [], []
    if mode == "extremes" and columns:
        # minimum and maximum take their output only by keyword.
        start = ["maximum = np.maximum", "minimum = np.minimum",
                 f"{', '.join(ends)} = out"]
        after = [f"{f}({e}{j}, x{j}, out={e}{j})" for j in range(n)
                 for f, e in (("minimum", "l"), ("maximum", "u"))]
    elif mode == "extremes":
        start = [f"l{j} = u{j} = x{j}" for j in range(n)]
        after = [f"if not {e}{j} {op} x{j} and {e}{j} == {e}{j}: {e}{j} = x{j}"
                 for j in range(n) for e, op in (("l", "<"), ("u", ">"))]
        finish = [f"out[{i}] = {e}" for i, e in enumerate(ends)]
    elif mode == "record":
        start = ["out = memoryview(out.reshape(-1))", f"i = {n}"]
        after = [*(f"out[i + {j}] = x{j}" for j in range(n)), f"i += {n}"]
    widths = ["half = 0.5 * s", "sixth = s / 6.0"] if method == "rk4" else []
    clock = ["t = t0 + k * h"] if timed else []
    if columns:
        head = [f"t0, t_end, last, {xs}, {params} = plan",
                "shared = int(nsteps.min()) - 1", "total = int(nsteps.max())",
                *start]
        loop, indent, foot = "for k in range(shared):", "", []
        last = ["for k in range(shared, total):", *(f"    {line}" for line in [
            "s = np.where(k < nsteps - 1, h, last)", *widths, "run = k < nsteps",
            *(["t = np.minimum(t0 + k * h, t_end)"] if timed else []),
            *tail, *after])]
    else:
        head = [f"{xs}, = plan[3:{3 + n}, 0].tolist()", *start, "ran = []",
                f"for steps, (t0, t_end, last, *_, {params}) in "
                "zip(nsteps.tolist(), plan.T.tolist()):"]
        loop, indent = "for k in range(steps - 1):", "    "
        last = [*(["k = steps - 1", *clock,
                   "t = t if t < t_end or t != t else t_end"] if timed else []),
                "s = last", *widths, *main, *after, f"ran.append(({xs},))"]
        foot = [*finish, f"plan[3:{3 + n}] = np.array(ran).T"]
    lines = [*head, *(indent + line for line in [
        *setup, "s = c0", *widths, loop,
        *(f"    {line}" for line in clock + main + after), *last]), *foot]
    return ("def kernel(rows, h, nsteps, out, plan):\n"
            + "".join(f"    {line}\n" for line in lines))
