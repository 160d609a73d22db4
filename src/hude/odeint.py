"""Fixed-step initial-value integrators for first-order vector fields, and
the integrator kernels they run.

One entry point, :func:`_terminal_state_batch`, runs every integration in
one of four modes: a recorded path (:func:`integrate`), the terminal states
of a batch of rows, those with their extremes (the spot check of a fan), or
a chain of rows, each started from the end state of the row before it (a
simulated series, one row per step).  A residual bisection
(:func:`_bisect`) runs all its passes on one plan made by the same planner
(:func:`_plan`), through one more kernel of the same contract, ``bisect``,
which runs the terminal kernel once per pass.  One helper (:func:`_kernel`)
picks the terminal kernel for both.

Every kernel is called as ``kernel(rows, h, nsteps, out, plan)``, from that
one call site or a bisection's run, and takes exactly these arguments, down
to the C entry points (:func:`_compiled_loop` passes the three arrays'
addresses; a bisection's run takes them once and calls ``bisect`` on them).
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
A compiled batch (terminal states or extremes) and a run of a compiled
bisection whose work is large split one way (:func:`_compiled_loop`): into
a few contiguous row pieces (:func:`_piece_edges`), run at the same time on
the CPUs of the process's affinity mask (:func:`_run_pieces`).  Each split
call copies each piece's plan columns, step counts and columns of ``out``
into memory the piece owns, which starts on a 64-byte line and shares no
line with any other array (:func:`_owned`), calls the same C entry point on
the copies and copies the results back; no row reads another, so every
result is one call's, bit for bit.  A small call, and every call in a
process that may use one CPU, is one C call on the calling thread.

A residual bisection halves each row's level interval, from [0, 1], ``H``
times.  Each pass restores the start states, writes
:func:`hude.model._clamped_phi` of each row's midpoint ``0.5*(lo + hi)``
into the plan's level row, steps every row, flags the rows whose state is
not finite and keeps the upper half where ``x0`` ends below the
observation.  The start states are restored after the last pass, so the
plan runs again at other parameter values, written over its parameter rows
in one assignment.  A run takes a range of the passes: pass 0 starts every
row at [0, 1] with no failure, and a later pass resumes from the cells the
caller left in the run's state, so pass ``p`` of any run is pass ``p`` of
the whole bisection, bit for bit.  A run is one call of ``bisect``.  Its
``out`` is one float array, zeroed when the run is prepared: ``H``, the
first pass and the end of the range, then blocks of ``rows`` values, the
observations ``x_next``, the state it reads and writes, ``lo`` and ``hi``,
each row's first pass with a non-finite state (``-1`` for none) and the
level it probed there (``0`` for none), then its copy of the ``n`` start
state rows, taken from the plan at each call.  Up to :data:`_TABLE_DEPTH`
halvings of a field that compiles, ``bisect`` is the terminal kernel's
third C entry point (``chain``, a simulated series, is its second).  Its
``nsteps`` carries one more int64 after the rows' step counts: the address
of the table of the ``2**H - 1`` noise levels,
:func:`hude.model._clamped_phi` of ``m / 2**H`` at ``m - 1``, computed once
per depth by numpy because C's ``log`` rounds some of them differently
(:func:`_phi_table`), and shared by every run of that depth.  Every probe
is a multiple of ``2**-H``, so ``mid * 2**H - 1`` indexes the table
exactly.  A large run splits as a batch does, each piece's copy a
bisection of its own: ``out``'s three leading values (``H`` and the pass
range), then the piece's columns of each block, and its step counts
followed by the shared table's address.  Where that entry point does not
load (no compiler, an op C rounds unlike numpy, or more halvings),
``bisect`` is :func:`_pass_loop`: the same entry point in Python, on the
same ``out``, with the same bits, which calls the terminal kernel
:func:`_kernel` picks once per pass and computes each level itself, so its
``nsteps`` are the rows' alone.  Its run is never split; a pass's kernel
call may be.

A reduced model field (:class:`hude.model.ReducedField`) runs through a
whole-loop kernel that :func:`_generated` makes once per field source,
with the level and parameters passed in as values.  This module prints
every kernel: each is its own loop around one step, which
:func:`_step_source` prints as C statements, ufunc calls or float
assignments, each op spelled as :data:`_SPELLING` says.  A field whose ops
are all ``+ - * /``, negation and ``abs``, which C rounds as numpy does,
runs every path and batch in C (:func:`_c_source`) where
:mod:`hude.native`, the C build cache imported by the first field that
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

import ctypes
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .expr import _STATE_RE, _power
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

# The CPUs this process may run on (its affinity mask, where the platform has
# one): a compiled call runs in at most this many row pieces at once.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else 1)

# The least work, in row-steps, that each row piece of a compiled call takes:
# a call of less than twice this runs whole, in one C call on its own thread.
_PIECE_WORK = 500_000

# The least work, in row-steps, that each row of a split call takes.  Each
# split call copies its rows into memory its pieces own and back, once per
# call (:func:`_compiled_loop`); on a 2-vCPU x86-64 VM a second CPU gained
# too little on a run of 300 row-steps a row (3 passes of 100 steps, the
# reactor fit's presearch) to repay that copy and its memory.
_ROW_WORK = 1_000

# The threads that run a split call's pieces after the first, made on first
# use (:func:`_run_pieces`) and forgotten in a forked child, which has none.
_POOL = None


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
    if not np.isfinite(y).all():
        raise IntegrationError(float(t[np.argmin(np.isfinite(y).all(axis=1))]))
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
    out: a reduced field's compiled kernel where one builds (a large batch
    in row pieces, :func:`_compiled_loop`), else its row kernel one row at a
    time (a recorded path, a chain, a one-row batch) or its column kernel (a
    batch of two or more rows).  A hand-written array
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
    ``lowered`` in ``mode``: where ``COMPILED`` is on and the C entry point
    loads, that entry point bound to :func:`_compiled_call` for a chain and
    to :func:`_compiled_loop`, which splits a large call, for a batch; else
    the row kernel for one row at a time (a recorded path, a chain through
    the terminal row kernel, a one-row batch) or the column kernel for a
    batch of two or more rows."""
    entry = (_generated(*lowered, n, method, mode, "compiled")
             if COMPILED else None)
    if entry is not None:
        return functools.partial(
            _compiled_call if mode == "chain" else _compiled_loop, entry)
    by_row = mode in ("record", "chain") or rows == 1
    return _generated(*lowered, n, method,
                      "terminal" if mode == "chain" else mode,
                      "row" if by_row else "columns")


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
            _check_binding(v, rows)
    plan = np.empty((3 + n + len(bound), rows))
    for row, v in zip(plan, (t0, t_end, last, *y.reshape(-1, n).T, *bound)):
        row[...] = v
    return plan, np.full(rows, nsteps, dtype=np.int64), lowered


def _check_binding(value, rows):
    """Raise ValueError unless ``value``, a level or parameter value, binds
    one value or one per row of ``rows``."""
    if np.shape(value) not in ((), (1,), (rows,)):
        raise ValueError(f"a level or parameter holds {np.size(value)} "
                         f"values for {rows} row(s); it must bind one value "
                         "or one per row")


def _bisect(code, t0, y0, t_end, h, method, x_next, halvings):
    """Prepare a residual bisection of ``halvings`` passes of the model
    code ``code`` (:func:`hude.model.compile_model`), restarted from the
    rows ``t0``, ``y0`` and ``t_end`` (as a batch of
    :func:`_terminal_state_batch` takes them) towards the observations
    ``x_next``, as the module docstring sets out: the noisy field is checked
    and planned (:func:`_plan`) once, also where it takes no pass, with a
    zeroed ``out``.

    Returns ``(run, state)``.  ``state`` is the ``(4, rows)`` view of
    ``out`` that holds each row's ``lo``, ``hi``, first failing pass (``-1``
    for none) and the level it probed there (``0.0`` for none).
    ``run(params, start, stop)`` writes ``params``, a ``(slots, P)`` matrix,
    over the plan's parameter rows, each column over one of ``P`` equal
    blocks of consecutive rows (a ``(slots, P, rows // P)`` block holds one
    value per row), runs passes ``start`` to ``stop - 1`` (by default all
    of them) on ``state`` and returns it: one call of ``bisect`` where it
    loads, on addresses taken once, a large run in row pieces
    (:func:`_compiled_loop`), else one call of :func:`_pass_loop`.  Pass 0
    starts every row afresh; a later ``start`` resumes from the ``lo`` and
    ``hi`` the caller wrote into ``state``, with the failures it kept."""
    rows = len(x_next)
    # A level per row picks the noisy field, as every probe's levels do.
    # Named, so its level lives until the run is made: freed before ``out``
    # is, it left a hole that raised a long fit's peak RSS by ~0.3 MB.
    # Every run writes its points over the parameter rows planned at 0.0.
    noisy = ReducedField(code, dict.fromkeys(code[2], 0.0), np.zeros(rows))
    plan, nsteps, field = _plan(noisy, t0, y0, t_end, h, method)
    n = np.shape(y0)[-1]
    entry = (_generated(*field, n, method, "bisect", "compiled")
             if COMPILED and 0 < halvings <= _TABLE_DEPTH else None)
    out = np.zeros(3 + (5 + n) * rows)
    out[0], out[3:3 + rows] = halvings, x_next
    state = out[3 + rows:3 + 5 * rows].reshape(4, rows)
    # The parameter rows follow the level row, as in ReducedField._bound.
    params_rows = plan[4 + n:]
    if entry is None:
        # Looked up only where a pass runs, so no pass builds no kernel.
        kernel = (_kernel(field, n, method, "terminal", rows) if halvings
                  else None)
        call = functools.partial(_pass_loop, kernel, rows, h, nsteps, out,
                                 plan)
        # A run of the pass loop is never split: each pass's kernel call is.
        table, longest = None, 0
    else:
        table, longest = _phi_table(halvings), int(nsteps.max())
        nsteps = np.append(nsteps, np.int64(table.ctypes.data))
        # Each pointer keeps its array alive.
        call = functools.partial(entry, rows, h, *(
            v.ctypes.data_as(ctypes.c_void_p) for v in (nsteps, out, plan)))

    def run(params, start=0, stop=halvings):
        points = params.shape[1]
        params_rows.reshape(len(params_rows), points,
                            rows // points)[...] = np.atleast_3d(params)
        out[1], out[2] = start, stop
        edges = _piece_edges(rows, (stop - start) * longest)
        if len(edges) > 2:
            _compiled_loop(entry, rows, h, nsteps, out, plan, edges, 3)
        else:
            call()
        return state
    run.table = table  # read through its address after the step counts
    return run, state


def _pass_loop(kernel, rows, h, nsteps, out, plan):
    """``bisect`` in Python: passes ``out[1]`` to ``out[2] - 1`` of the
    residual bisection that ``out`` and ``plan`` lay out (see the module
    docstring), each pass one call of the terminal ``kernel`` on every row,
    with ``bisect``'s bits.  ``nsteps`` holds only the rows' step counts:
    each level is :func:`hude.model._clamped_phi` of the pass's midpoint,
    not a table's entry."""
    start, stop = int(out[1]), int(out[2])
    x_next, lo, hi, first, probe = out[3:3 + 5 * rows].reshape(5, rows)
    starts = out[3 + 5 * rows:].reshape(-1, rows)
    x, level = plan[3:3 + len(starts)], plan[3 + len(starts)]
    starts[...] = x
    if start == 0:
        lo[...], hi[...], first[...] = 0.0, 1.0, -1.0
    for p in range(start, stop):
        x[...] = starts
        mid = 0.5 * (lo + hi)
        level[...] = _clamped_phi(mid)
        with np.errstate(all="ignore"):
            kernel(rows, h, nsteps, None, plan)
        new = (first < 0.0) & ~np.isfinite(x).all(axis=0)
        first[new], probe[new] = p, mid[new]
        below = x[0] < x_next
        np.copyto(lo, mid, where=below)
        np.copyto(hi, mid, where=~below)
    # Restored, so a prepared plan runs again from its start states.
    x[...] = starts


@functools.lru_cache(maxsize=4)
def _phi_table(depth):
    """The noise levels of every probe of a ``depth``-halving bisection,
    :func:`~hude.model._clamped_phi` of ``m / 2**depth`` at ``m - 1`` for
    ``m`` in ``1 .. 2**depth - 1``: numpy's bits, which C's ``log`` does not
    always give."""
    table = _clamped_phi(np.arange(1, 2 ** depth) / 2 ** depth)
    table.flags.writeable = False
    return table


def _compiled_call(fn, rows, h, nsteps, out, plan):
    """The compiled kernel of a chain, and of a batch run whole: the C entry
    point ``fn`` (:func:`hude.native.load` of :func:`_c_source`) called on
    the addresses of ``nsteps``, ``out`` and ``plan``."""
    fn(rows, h, nsteps.ctypes.data, None if out is None else out.ctypes.data,
       plan.ctypes.data)


def _compiled_loop(fn, rows, h, nsteps, out, plan, edges=None, head=0):
    """The compiled kernel of a batch (terminal states, extremes, a recorded
    row), the C entry point ``fn`` bound to it by :func:`_kernel`, and the
    one way a compiled call splits: :func:`_compiled_call` once on the whole
    plan or, where ``edges`` (by default :func:`_piece_edges` of the rows'
    steps) cut it, once per row piece, all at once (:func:`_run_pieces`).
    A large run of ``bisect`` (:func:`_bisect`) splits here too, with its
    own ``edges`` and a ``head`` of 3.  Each piece runs on copies in memory
    of its own (:func:`_owned`): of its plan columns, of its step counts
    with the values after the rows' (a bisection's table address), and of
    ``out``'s first ``head`` values (a bisection's depth and pass range)
    followed by the piece's columns of each block of ``rows`` values after
    them (a batch's extremes, a bisection's cells).  Each piece's columns
    are copied back, so the plan and ``out`` end as one call leaves them: no
    row reads another."""
    if edges is None:
        edges = _piece_edges(rows, int(nsteps.max()))
    if len(edges) == 2:
        _compiled_call(fn, rows, h, nsteps, out, plan)
        return
    flat = None if out is None else out.reshape(-1)
    blocks = None if out is None else flat[head:].reshape(-1, rows)
    pieces = [(a, b, _owned(plan[:, a:b]), _owned(nsteps[a:b], nsteps[rows:]),
               None if out is None else _owned(flat[:head], blocks[:, a:b]))
              for a, b in zip(edges, edges[1:])]
    _run_pieces([functools.partial(
        fn, b - a, h, steps.ctypes.data,
        None if ends is None else ends.ctypes.data, own.ctypes.data)
        for a, b, own, steps, ends in pieces])
    for a, b, own, _, ends in pieces:
        plan[:, a:b] = own.reshape(-1, b - a)
        if ends is not None:
            blocks[:, a:b] = ends[head:].reshape(-1, b - a)


def _owned(*parts):
    """``parts``, arrays of one dtype, copied end to end into a new flat
    array that starts on a 64-byte line (a cache line) and whose last line
    holds nothing else: no other array shares a line with it, so a piece
    that writes it on its own CPU does not slow another's."""
    dtype = parts[0].dtype
    size = sum(p.size for p in parts) * dtype.itemsize
    raw = np.empty(-(-size // 64) * 64 + 63, np.uint8)
    start = -raw.ctypes.data % 64
    own = raw[start:start + size].view(dtype)
    i = 0
    for p in parts:
        own[i:i + p.size].reshape(p.shape)[...] = p
        i += p.size
    return own


def _piece_edges(rows, work):
    """The row edges ``[0, .., rows]`` of the contiguous pieces a compiled
    call of ``rows`` rows runs in, where ``work`` is what one row costs it
    (the passes it runs times the longest row's steps): as many pieces of
    about equal rows as :data:`_CPUS` allows with each at least
    :data:`_PIECE_WORK` row-steps, and ``[0, rows]``, one piece, below two or
    where a row's work is below :data:`_ROW_WORK`."""
    count = min(_CPUS, rows, rows * work // _PIECE_WORK)
    if count < 2 or work < _ROW_WORK:
        return [0, rows]
    return [rows * k // count for k in range(count + 1)]


def _run_pieces(calls):
    """Make each call of ``calls``, a C entry point bound to the addresses
    of one piece's copies (:func:`_compiled_loop`): the first on this thread
    and the others at the same time on the pool's threads (ctypes lets go of
    the GIL for each call, and a worker calls nothing else).  Returns once
    every call has returned: an exception (a KeyboardInterrupt, say) that
    reaches this thread first waits for the pieces already running, so none
    writes into its copies after the caller has gone on."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor
        _POOL = ThreadPoolExecutor(max(1, _CPUS - 1), "hude-piece")
    futures = []
    try:
        for call in calls[1:]:
            futures.append(_POOL.submit(call))
        calls[0]()
    finally:
        interrupt = None
        for future in futures:
            while not future.done():
                try:
                    future.exception()  # waits for the call to return
                except BaseException as exc:  # raised below, once all are done
                    interrupt = interrupt or exc
        if interrupt is not None:
            raise interrupt
    for future in futures:
        future.result()


def _forget_pool():
    """A forked child has none of its parent's threads: its first split call
    makes a pool of its own."""
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    ``"row"`` the kernel of :func:`_loop_source`, for ``"compiled"`` the C
    entry point itself of :func:`_c_source` that :func:`hude.native.load`
    builds (a ``"chain"`` and a ``"bisect"`` are the terminal object's
    second and third entry points), which :func:`_kernel` and
    :func:`_bisect` call on addresses, or ``None`` after one debug line on
    the ``hude`` logger where C may round an op unlike numpy or the build
    fails."""
    if backend != "compiled":
        namespace = {"np": np, "_power": _power}
        exec(compile(_loop_source(field, params, n, method, mode, backend),
                     "<hude-kernel>", "exec"), namespace)
        return namespace["kernel"]
    inexact = sorted({func for func, *_ in field[0]
                      if _SPELLING[func][1] is None})
    if inexact:
        reason = f"{', '.join(inexact)} may round unlike numpy in C"
    else:
        from . import native
        entry = mode if mode in ("chain", "bisect") else "kernel"
        try:
            return native.load(_c_source(field, params, n, method, mode if
                                         entry == "kernel" else "terminal"),
                               entry)
        except OSError as exc:
            reason = f"the C kernel did not build: {exc}"
    import logging
    logging.getLogger("hude").debug("numpy kernels run a %s %s field: %s",
                                    method, mode, reason)
    return None


# Each op's spellings (:func:`~hude.expr._lower` names the op by its
# ufunc): its Python source on floats or arrays, where ``abs`` keeps a float
# a float, ``np.divide`` divides a float by zero to ``inf``/``nan`` like an
# array instead of raising, and ``_power`` is :func:`~hude.expr._power`; then
# its C source where C rounds it exactly as numpy's ufunc does, else
# ``None``.  A field with an op that has no C source (``np.exp`` differs from
# libm's ``exp`` in the last bit) runs on the numpy kernels.
_SPELLING = {
    "add": ("({} + {})", "{} + {}"), "subtract": ("({} - {})", "{} - {}"),
    "multiply": ("({} * {})", "{} * {}"), "negative": ("(-{})", "-{}"),
    "divide": ("np.divide({}, {})", "{} / {}"),
    "absolute": ("abs({})", "fabs({})"), "exp": ("np.exp({})", None),
    "log": ("np.log({})", None), "sin": ("np.sin({})", None),
    "cos": ("np.cos({})", None), "power": ("_power({}, {})", None)}


def _infix(ops, operand) -> str:
    """Python source of ``operand`` of ``ops`` (:func:`~hude.expr._lower`)
    on floats or arrays, each op written inline into its consumer."""
    if isinstance(operand, int):
        func, *args = ops[operand]
        return _SPELLING[func][0].format(*(_infix(ops, arg) for arg in args))
    return f"({operand})" if operand.startswith("-") else operand


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
    scratch name ``w0 ..``, spelled as :data:`_SPELLING` says: for
    ``"columns"`` a ufunc call into a ``(B,)`` buffer (``power`` is
    :func:`~hude.expr._power`), for ``"row"`` a float assignment (``power``
    is ``np.power``), for ``"compiled"`` a C assignment for row ``i``, bound
    values read as ``b_<name>[i]`` and literals as ``float.hex()``.  An
    operand comes in one of two tiers.  One that reads the state or ``t`` is
    printed at every stage, as above; one that reads neither is, in Python,
    its infix source (:func:`_infix`) computed once before the loop, for
    ``"columns"`` spread to a ``(B,)`` array (a ufunc converts a float
    operand on every call) except as an exponent, where a float takes
    numpy's fast path.  C computes every operand at every stage.

    Returns ``(setup, main, tail, timed)``: the lines run once before the
    loop (C: the declarations), a step's lines, those with each state update
    under ``where=run`` (a column kernel's last steps), and whether the field
    reads ``t``.
    """
    ops, value = field
    compiled, columns = backend == "compiled", backend == "columns"

    def reads(a):
        # Whether operand ``a`` reads the state or ``t``.
        if isinstance(a, int):
            return any(map(reads, ops[a][1:]))
        return a == "t" or _STATE_RE.match(a) is not None

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
            return f"{out} = {_SPELLING[func][1].format(*args)};"
        if not columns:
            template = ("np.power({}, {})" if func == "power"
                        else _SPELLING[func][0])
            return f"{out} = {template.format(*args)}"
        used.add(func)
        return f"{func}({', '.join(operands)}{where})"

    def evaluate(a, states, lines, spread=columns):
        # The name holding operand ``a`` at the states once ``lines`` ran.
        if not (compiled or reads(a)):
            return hoisted.setdefault((_infix(ops, a), spread),
                                      f"c{len(hoisted)}")
        if not isinstance(a, int):
            if _STATE_RE.match(a):
                return states[int(a[1:])]
            # The time or, in C, a bound value of row i or a literal.
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


# The row loop's attribute: gcc (or a clang that has the attribute) builds an
# AVX-512, an AVX2 and a baseline clone of ``loop`` into one object, and an
# ifunc resolved when the object loads picks the widest clone the CPU runs.
# Up to eight, four or two rows per instruction, each lane rounding + - * /
# and fabs as SSE2 does: no clone targets FMA, and -ffp-contract=off forbids
# contraction anyway.  Printed only inside the guard of :func:`_c_source`:
# aarch64 and macOS toolchains reject an x86 clone or have no ifunc, and
# musl's loader resolves no ifunc.
CLONES = '__attribute__((target_clones("avx512f", "avx2", "default")))'


def _c_source(field, params: str, n: int, method: str, mode: str) -> str:
    """C source of ``kernel(rows, h, nsteps, out, plan)``, the kernel
    contract of the module docstring, row ``r`` of the plan read at ``plan +
    r*rows``.  Each entry point hands the plan's rows, as ``restrict``
    pointers, to one ``static`` function ``loop``: the loop of
    :func:`_loop_source`, steps outer and rows inner, each step of a row the
    C statements of :func:`_step_source` between the load and the store of
    the row's state.  On x86-64 glibc, where the compiler has the attribute,
    ``loop`` is an ifunc with three clones (:data:`CLONES`), AVX-512, AVX2
    and baseline, which is never inlined: each object holds the loop exactly
    three times, and every entry point calls the clone picked at load.  A
    ``"record"`` source runs one row, so no vector body would ever run: it
    prints no attribute, and its object holds the loop once, inlined into
    ``kernel``.  Elsewhere the preprocessor drops the attribute, and the
    object holds the one baseline loop.  The ``"terminal"`` source also
    defines ``chain`` and ``bisect``, with the same arguments.  ``chain``
    runs that loop on one row at a time (the rows' pointers offset by
    ``i``), each from the terminal state of the row before it, which it
    copies forward in the plan.  ``bisect`` runs a range of the passes of a
    residual bisection, laid out in the module docstring with what ``out``
    and the slot after the step counts carry: it calls the exported
    ``kernel`` once per pass, which gcc does not inline under ``-fPIC``, so
    no clone of the loop is compiled twice.  As in :func:`_pass_loop`, a
    row fails where any state is not finite, and the upper half is kept only
    where ``x0 < x_next`` (false for NaN).  It leaves the plan's start
    states as it found them, so a plan runs again unchanged.
    """
    setup, step, _, _ = _step_source(field, n, method, "compiled")
    if method == "rk4":
        step = ["const double half = 0.5 * s, sixth = s / 6.0;", *step]
    xs = [f"x{j}" for j in range(n)]
    names = params.split(", ")
    step += [f"c_x{j}[i] = x{j};" for j in range(n)]
    if mode == "extremes":
        for j in range(n):
            for at, keep in ((f"{j} * rows + i", "<"),
                             (f"{n + j} * rows + i", ">")):
                step.append(f"{{ const double e = out[{at}]; out[{at}] = "
                            f"e {keep} x{j} || e != e ? e : x{j}; }}")
    elif mode == "record":
        step += [f"out[(k + 1) * {n} + {j}] = x{j};" for j in range(n)]
    pointers = ", ".join([*(f"double *restrict c_{x}" for x in xs), *(
        f"const double *restrict b_{name}" for name in names)])
    entry = ("(int64_t rows, double h, const int64_t *nsteps, double *out, "
             "double *plan) {")
    per_row = [f"plan + {r} * rows" for r in range(3 + n + len(names))]
    lines = [
        "#include <math.h>", "#include <stdint.h>",
        *(() if mode == "record" else (
            "#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__)"
            " && defined(__has_attribute)",
            "#if __has_attribute(target_clones)", CLONES, "#endif", "#endif")),
        "static void loop(int64_t rows, double h, const int64_t *restrict "
        "nsteps, double *restrict out, const double *restrict t0, const "
        "double *restrict t_end, const double *restrict last, "
        f"{pointers}) {{",
        "    int64_t shared = INT64_MAX, total = 0;",
        "    for (int64_t i = 0; i < rows; i++) {",
        "        if (nsteps[i] < shared) shared = nsteps[i];",
        "        if (nsteps[i] > total) total = nsteps[i];", "    }",
        "    for (int64_t k = 0; k < total; k++) {",
        "        const double kh = (double)k * h;",
        "        for (int64_t i = 0; i < rows; i++) {",
        "            double t = t0[i] + kh, s = h;",
        # Before the shortest row's last step every row steps by h: gcc
        # unswitches this test and vectorises the loop over the rows.
        "            if (k >= shared - 1) {",
        "                if (k >= nsteps[i]) continue;",
        "                if (k == nsteps[i] - 1) {",
        "                    t = t < t_end[i] || t != t ? t : t_end[i];",
        "                    s = last[i];",
        "                }", "            }",
        f"            double {', '.join(f'{x} = c_{x}[i]' for x in xs)};",
        *(f"            {line}" for line in setup + step), "        }", "    }",
        "}", f"void kernel{entry}",
        f"    loop(rows, h, nsteps, out, {', '.join(per_row)});", "}"]
    if mode == "terminal":
        lines += [
            f"void chain{entry}",
            "    for (int64_t i = 0; i < rows; i++) {",
            *(f"        if (i) plan[{3 + j} * rows + i] = "
              f"plan[{3 + j} * rows + i - 1];" for j in range(n)),
            "        loop(1, h, nsteps + i, out, "
            f"{', '.join(f'{r} + i' for r in per_row)});", "    }", "}",
            f"void bisect{entry}",
            "    const int64_t passes = (int64_t)out[0];",
            "    const int64_t from = (int64_t)out[1], to = (int64_t)out[2];",
            # Each probe is a multiple of 1/grid: mid * grid is exact.
            "    const double grid = ldexp(1.0, (int)passes);",
            "    const double *phi = (const double *)(intptr_t)nsteps[rows];",
            "    const double *x_next = out + 3;",
            "    double *lo = out + 3 + rows, *hi = lo + rows, *first = hi + "
            "rows, *probe = first + rows, *start = probe + rows;",
            f"    double *x = plan + 3 * rows, *level = plan + {3 + n} * rows;",
            f"    for (int64_t i = 0; i < {n} * rows; i++) start[i] = x[i];",
            "    if (from == 0) {",
            "        for (int64_t i = 0; i < rows; i++) {",
            "            lo[i] = 0.0;", "            hi[i] = 1.0;",
            "            first[i] = -1.0;", "        }", "    }",
            "    for (int64_t p = from; p < to; p++) {",
            f"        for (int64_t i = 0; i < {n} * rows; i++) x[i] = start[i];",
            "        for (int64_t i = 0; i < rows; i++)",
            "            level[i] = "
            "phi[(int64_t)(0.5 * (lo[i] + hi[i]) * grid) - 1];",
            "        kernel(rows, h, nsteps, 0, plan);",
            "        for (int64_t i = 0; i < rows; i++) {",
            "            const double mid = 0.5 * (lo[i] + hi[i]);",
            "            if (first[i] < 0.0 && !("
            + " && ".join(f"isfinite(x[{j} * rows + i])" for j in range(n))
            + ")) {",
            "                first[i] = (double)p;", "                probe[i] = mid;",
            "            }",
            "            if (x[i] < x_next[i]) lo[i] = mid; else hi[i] = mid;",
            "        }", "    }",
            # Restored, so a prepared plan runs again from its start states.
            f"    for (int64_t i = 0; i < {n} * rows; i++) x[i] = start[i];",
            "}"]
    return "".join(f"{line}\n" for line in lines)
