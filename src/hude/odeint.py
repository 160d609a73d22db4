"""Fixed-step initial-value integrators for first-order vector fields, and
the integrator kernels they run.

One entry point, :func:`_terminal_state_batch`, runs every integration in
one of four modes: a recorded path (:func:`integrate`), the terminal states
of a batch of rows, those with their extremes (the spot check of a fan), or
a chain of rows, each started from the end state of the row before it (a
simulated series, one row per step).  It picks the kernel in one place.

A reduced model field (:class:`hude.model.ReducedField`) runs through a
whole-loop kernel that :func:`_generated` makes once per field source,
with the level and parameters passed in as values: each kernel is its own
loop around one step, which :func:`_step_source` prints as C statements,
ufunc calls or float assignments.  A field whose ops are all ``+ - * /``,
negation and ``abs``, which C rounds as numpy does, runs every path and
batch in C (:func:`_compiled_loop`) where :mod:`hude.native`, imported by
the first field that compiles, builds it.  Any other field (``exp``,
``ln``, ``sin``, ``cos``, ``^``), and every field where no kernel builds,
runs on the numpy kernels (:func:`_loop_source`), chosen by the shape of
the call: one row at a time (a recorded path, a chain or a one-row batch)
on floats, a batch of two or more rows on ``(B,)`` state columns stepped
in place.  A hand-written array field
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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expr import _C_OPS, _INFIX, _STATE_RE, _binder, _infix
from .model import InitialState, ReducedField

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
    field runs through its compiled kernel where one builds, else through
    its generated row kernel one row at a time (a recorded path, a chain, a
    one-row batch) or its column kernel (a batch of two or more rows), each
    of its levels and parameters bound to one value or one per row, else
    ValueError.  A hand-written array field steps one row as an ``(n,)``
    array (:func:`_column_loop`), and raises ValueError on a batch or in
    mode ``"extremes"`` or ``"chain"``.

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
    if not isinstance(raw, ReducedField):
        if y.ndim > 1 or mode in ("extremes", "chain"):
            raise ValueError("a hand-written field integrates one row, without "
                             "extremes or a chain")
        loop, plan = _column_loop, (raw, method, *plan)
    else:
        rows = y.size // n
        field, bound = raw._bound()
        params, bound = ", ".join(bound), tuple(bound.values())
        kernel = (_generated(field, params, n, method, mode, "compiled")
                  if COMPILED else None)
        loop = _compiled_loop
        if kernel is None:
            # One row at a time runs on floats, a chain through the terminal
            # row kernel; a batch of two or more rows on state columns.
            by_row = mode in ("record", "chain") or rows == 1
            kernel = _generated(field, params, n, method,
                                "terminal" if mode == "chain" else mode,
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
    :func:`hude.native._c_source` around the step that :func:`_step_source`
    prints) with the plan and the ``bound`` values spread to one row each of
    a ``(3 + n + len(bound), B)`` array, whose state columns the kernel steps
    in place.  Returns what :func:`_row_loop` does."""
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
    """Run the rows of ``y`` one at a time through the generated row
    ``kernel`` with that row's plan and ``bound`` values (each one value or
    one per row), all floats, each row after the first from the terminal
    state of the row before it: a chain, of which a one-row call is a chain
    of one row.  Returns the terminal states, with the one row's extremes
    (``mode`` ``"extremes"``), or ``out`` holding every state of the one row
    (``mode`` ``"record"``)."""
    n = y.shape[-1]
    per_row = (np.broadcast_to(v, (y.size // n,)).tolist()
               for v in (t0, t_end, nsteps, last, *bound))
    record = None if out is None else memoryview(out.reshape(-1))
    x, ran = y.reshape(-1, n)[0].tolist(), []
    for a, b, c, d, *p in zip(*per_row):
        x = kernel(a, b, c, d, h, record, *x, *p)
        ran.append(x)
    if out is not None:
        return out, None, None
    if mode == "extremes":
        ((x, lows, highs),) = ran
        return np.array(x).reshape(y.shape), lows, highs
    return np.array(ran).reshape(y.shape), None, None


def _column_kernel(kernel, bound, y, t0, t_end, nsteps, last, h, mode, out):
    """Run the rows of ``y`` through the generated column ``kernel``, which
    steps the ``(B,)`` state columns in place with the ``bound`` values.
    Returns the terminal states, with the extremes per column; it never
    records (``out`` is unused)."""
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


@functools.lru_cache(maxsize=256)
def _generated(field, params: str, n: int, method: str, mode: str, backend):
    """The generated integrator kernel of a reduced field lowered to
    ``field`` (:func:`hude.model.compile_model`) over the bound names
    ``params`` (the ops keep ``0.0`` and ``-0.0`` apart): for ``backend``
    ``"row"`` or ``"columns"`` the loop of :func:`_loop_source`, for
    ``"compiled"`` that of :func:`hude.native._c_source` (a ``"chain"`` is
    the terminal object's second entry point), or ``None`` after one debug
    line on the ``hude`` logger where C may round an op unlike numpy or the
    build fails."""
    if backend != "compiled":
        return _binder(_loop_source(field, params, n, method, mode, backend))
    inexact = sorted({func for func, *_ in field[0]} - _C_OPS.keys())
    if inexact:
        reason = f"{', '.join(inexact)} may round unlike numpy in C"
    else:
        from . import native
        chain = mode == "chain"
        try:
            # nsteps, out, t0, t_end and last, the states and bound values.
            return native.load(native._c_source(
                field, params, n, method, "terminal" if chain else mode),
                "chain" if chain else "kernel", 5 + n + len(params.split(", ")))
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
    """Source of the Python kernel ``kernel(t0, t_end, nsteps, last, h, out,
    x0, ..., <params>)``: the whole fixed-step loop around the step that
    :func:`_step_source` prints for ``backend``.  Step ``k`` starts at ``t0 +
    k*h``, and a row's last step of ``last`` at ``min(t0 + k*h, t_end)``.
    ``"row"`` runs one row on floats, its last step after the loop; ``mode``
    ``"record"`` writes state ``k`` of every step ``k`` to ``out[k*n ..]``,
    a flat view of float64 storage.  ``"columns"`` steps a batch's ``(B,)``
    state columns in place, every row by ``h`` up to the shortest row's last
    step and by its own ``s`` from there, where a finished row keeps its
    state (``where=run``); it never records (``out`` is unused).
    ``mode`` ``"extremes"`` also returns each column's running minimum and
    maximum (on floats ``a if a < b or a != a else b``, which is
    ``np.minimum(a, b)``, NaN and signed zeros included).
    """
    columns = backend == "columns"
    if columns and mode == "record":
        raise ValueError("a recorded path runs in the row kernel")
    setup, main, tail, timed = _step_source(field, n, method, backend)
    xs = ", ".join(f"x{j}" for j in range(n))
    start, after, result = [], [], f"({xs},)"
    if mode == "extremes" and columns:
        # minimum and maximum take their output only by keyword.
        start = ["maximum = np.maximum", "minimum = np.minimum",
                 *(f"{e}{j} = x{j}.copy()" for e in "lu" for j in range(n))]
        after = [f"{f}({e}{j}, x{j}, out={e}{j})" for j in range(n)
                 for f, e in (("minimum", "l"), ("maximum", "u"))]
    elif mode == "extremes":
        start = [f"l{j} = u{j} = x{j}" for j in range(n)]
        after = [f"if not {e}{j} {op} x{j} and {e}{j} == {e}{j}: {e}{j} = x{j}"
                 for j in range(n) for e, op in (("l", "<"), ("u", ">"))]
    elif mode == "record":
        start = [f"i = {n}"]
        after = [*(f"out[i + {j}] = x{j}" for j in range(n)), f"i += {n}"]
    if mode == "extremes":
        result += f", ({xs.replace('x', 'l')},), ({xs.replace('x', 'u')},)"
    widths = ["half = 0.5 * s", "sixth = s / 6.0"] if method == "rk4" else []
    clock = ["t = t0 + k * h"] if timed else []
    if columns:
        head = ["shared = int(nsteps.min()) - 1", "total = int(nsteps.max())"]
        loop = "for k in range(shared):"
        last = ["for k in range(shared, total):", *(f"    {line}" for line in [
            "s = np.where(k < nsteps - 1, h, last)", *widths, "run = k < nsteps",
            *(["t = np.minimum(t0 + k * h, t_end)"] if timed else []),
            *tail, *after])]
    else:
        head, loop = [], "for k in range(nsteps - 1):"
        last = [*(["k = nsteps - 1", *clock,
                   "t = t if t < t_end or t != t else t_end"] if timed else []),
                "s = last", *widths, *main, *after]
    lines = [*head, *setup, *start, "s = c0", *widths, loop,
             *(f"    {line}" for line in clock + main + after), *last,
             f"return {result}"]
    return (f"def kernel(t0, t_end, nsteps, last, h, out, {xs}, {params}):\n"
            + "".join(f"    {line}\n" for line in lines))
