"""Residuals of a fitted model against an observed series.

Each admissible observation index ``j`` restarts the model from the observed
full state at ``t_j`` and asks: at which quantile level does the restarted
path hit the next observation ``x_{t_{j+1}}``?  That level is the residual
``eps_j``; for a well-fitted model the residuals behave like a sample of the
linear (uniform) uncertainty distribution on [0, 1].  The level is found by
bisection on the terminal value of the restarted path; each pass halves every
row once, integrating all rows together on a plan made once.  One front end,
:class:`_Bisection`, serves every residual: one step
(:func:`compute_residual`), a series (:func:`compute_residuals`) and each
fit's batches of parameter points.  It lowers the model once, plans its
restart rows once per batch size and runs each batch with one write of the
point matrix into the plan.  A run is one call of the bisection kernel on
one state (:func:`~hude.odeint._bisect`): in C where the field compiles,
else the same passes in Python, one integration call each.  A run may take
only a range of the passes and resume from the cells earlier passes left,
so a fit bisects a point only as deep as its decisions read.  A point's
levels, saturation flags and failure are read one way
(:meth:`_Bisection.point`).

Derivative observations are rarely measured directly; they are reconstructed
from the raw series with forward (default) or central differences, producing
a staircase of derivative columns that lose one tail entry per order.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .alphapath import _spot_check
from .model import (
    HudeModel,
    InitialState,
    ReducedField,
    _clamped_phi,
    compile_model,
)
from . import odeint
from .odeint import (DEFAULT_STEP, _step_failure, _terminal_state_batch,
                     _write_csv)
from .validation import check_times, check_unit_interval

__all__ = [
    "ObservationSeries",
    "ResidualVector",
    "ResidualSaturationWarning",
    "DataFormatError",
    "estimate_derivatives",
    "compute_residual",
    "compute_residuals",
    "simulate_observations",
    "read_observations",
]

# Row budget of one bisection run in :meth:`_Bisection.cells`, which splits a
# larger batch of points into runs of as many points as fit; bounds the
# memory of batched scoring on long series.
BATCH_ROWS = 8192


class DataFormatError(Exception):
    """A data file does not have the expected layout."""


class ResidualSaturationWarning(UserWarning):
    """An observation sat at or beyond the reachable envelope; the residual
    was pinned near 0 or 1 and flagged."""


@dataclass(frozen=True)
class ObservationSeries:
    """Timestamped scalar observations with optional derivative columns.

    ``derivs[v-1]`` holds the order-``v`` derivative estimates aligned with
    ``t``; entries that cannot be formed are NaN (the staircase of a forward
    scheme leaves ``v`` trailing gaps in column ``v``).
    """

    t: np.ndarray
    x: np.ndarray
    derivs: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(-1)
        x = np.asarray(self.x, dtype=float).reshape(-1)
        if t.size != x.size:
            raise ValueError("times and values must have equal length")
        if t.size < 1:
            raise ValueError("series cannot be empty")
        check_times("observation times", t)
        if not np.all(np.isfinite(x)):
            raise ValueError("observations must be finite")
        t.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        if self.derivs is not None:
            d = np.asarray(self.derivs, dtype=float)
            if d.ndim != 2 or d.shape[1] != t.size:
                raise ValueError("derivative columns must be shaped (orders, len(t))")
            d.flags.writeable = False
            object.__setattr__(self, "derivs", d)

    def __len__(self) -> int:
        return self.t.size

    def state_at(self, j: int, n: int) -> np.ndarray:
        """Full state ``(x, x', ..., x^(n-1))`` at index ``j`` (NaN where unknown)."""
        if n == 1:
            return np.array([self.x[j]])
        if self.derivs is None or self.derivs.shape[0] < n - 1:
            raise ValueError(
                f"series lacks derivative columns up to order {n - 1}; "
                "run estimate_derivatives first"
            )
        return np.concatenate(([self.x[j]], self.derivs[: n - 1, j]))

    def with_derivatives(self, derivs: np.ndarray) -> "ObservationSeries":
        return ObservationSeries(self.t, self.x, derivs)

    def to_csv(self, path) -> None:
        _write_csv(path, ["t", "x"], np.column_stack((self.t, self.x)))


def _read_columns(path, header, converters, noun) -> list[np.ndarray]:
    """The columns of the CSV ``path`` under ``header``, each value read by
    its column's converter; blank lines are skipped, and a bad header, value
    or row, or no row at all (no ``noun``), is a :class:`DataFormatError`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0][:len(header)]] != header:
        raise DataFormatError(f"{path}: expected header '{','.join(header)}'")
    try:
        data = [[convert(r[k]) for k, convert in enumerate(converters)]
                for r in rows[1:] if r]
    except (ValueError, IndexError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if not data:
        raise DataFormatError(f"{path}: no {noun}")
    return [np.array(column) for column in zip(*data)]


def read_observations(path) -> ObservationSeries:
    """Read a ``t,x`` CSV into a series."""
    t, x = _read_columns(path, ["t", "x"], (float, float), "observations")
    return ObservationSeries(t, x)


def estimate_derivatives(
    series: ObservationSeries, n: int, scheme: str = "forward"
) -> ObservationSeries:
    """Fill derivative columns ``x', ..., x^(n-1)`` by iterated differences.

    Forward: ``x^(v)(t_j) = (x^(v-1)(t_{j+1}) - x^(v-1)(t_j)) / (t_{j+1} - t_j)``.
    Central uses the two neighbours and is exact for quadratics but loses both
    ends of each column.
    """
    L = len(series)
    if L < n:
        raise ValueError(f"need at least {n} observations for order {n}")
    if scheme not in ("forward", "central"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "central" and L < 2 * n - 1:
        raise ValueError("central differences need interior points at every order")
    if n == 1:
        return series
    t = series.t
    derivs = np.full((n - 1, L), np.nan)
    prev = series.x
    for v in range(1, n):
        col = np.full(L, np.nan)
        if scheme == "forward":
            col[:-1] = (prev[1:] - prev[:-1]) / (t[1:] - t[:-1])
        else:
            col[1:-1] = (prev[2:] - prev[:-2]) / (t[2:] - t[:-2])
        derivs[v - 1] = col
        prev = col
    return series.with_derivatives(derivs)


@dataclass(frozen=True)
class ResidualVector:
    """Ordered residuals in (0, 1) with their originating indices.

    ``indices[k]`` is the 1-based observation index ``j`` whose step
    ``t_j -> t_{j+1}`` produced ``epsilons[k]``; ``saturated`` flags residuals
    whose observation sat at or beyond the reachable envelope.
    """

    epsilons: np.ndarray
    indices: np.ndarray | None = None
    theta: Mapping[str, float] | None = None
    saturated: np.ndarray | None = None

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float).reshape(-1)
        if eps.size == 0:
            raise ValueError("residual vector cannot be empty")
        check_unit_interval("residuals", eps)
        eps.flags.writeable = False
        object.__setattr__(self, "epsilons", eps)
        if self.indices is None:
            object.__setattr__(self, "indices", np.arange(1, eps.size + 1))
        else:
            idx = np.asarray(self.indices, dtype=int).reshape(-1)
            if idx.size != eps.size:
                raise ValueError("indices must match residuals in length")
            object.__setattr__(self, "indices", idx)
        if self.saturated is None:
            object.__setattr__(self, "saturated", np.zeros(eps.size, dtype=bool))
        else:
            sat = np.asarray(self.saturated, dtype=bool).reshape(-1)
            if sat.size != eps.size:
                raise ValueError("saturation flags must match residuals in length")
            object.__setattr__(self, "saturated", sat)

    def __len__(self) -> int:
        return self.epsilons.size

    def to_csv(self, path) -> None:
        _write_csv(path, ["j", "epsilon"],
                   np.column_stack((self.indices, self.epsilons)))

    @classmethod
    def from_csv(cls, path) -> "ResidualVector":
        j, eps = _read_columns(path, ["j", "epsilon"], (int, float),
                               "residuals")
        return cls(eps, indices=j)


def _halvings(delta):
    """The halvings of [0, 1] to a width of at most ``delta`` (positive)."""
    if not delta > 0:
        raise ValueError("precision delta must be positive")
    halvings = 0
    while 0.5 ** halvings > delta:
        halvings += 1
    return halvings


class _Bisection:
    """The residual bisection of the restart ``rows`` (:func:`_restart_rows`)
    of ``model``, run at many parameter points: the one front end of
    :func:`~hude.odeint._bisect`, which :func:`compute_residual`,
    :func:`compute_residuals` and every fit share.

    It checks ``delta`` and lowers the model
    (:func:`~hude.model.compile_model`) when it is made; the code does not
    depend on the parameters, and every run writes its own points.  The
    first run of each number of points tiles the rows and prepares their
    bisection, which checks and plans them and shares one table of noise
    levels with every other run; it is kept until :meth:`drop_runs` lets it
    go.  Each run writes its points into the plan in one block and runs a
    range of the passes, from the start or resumed from the cells that
    earlier passes left, so a point bisected in steps ends where one run of
    every pass ends.  :meth:`cells` gives a batch's cells, :meth:`point` one
    point's levels and failure, :meth:`vector` its residual vector.
    """

    def __init__(self, model, rows, delta, h, method):
        self.model, self.rows, self.h, self.method = model, rows, h, method
        self.halvings = _halvings(delta)
        names = model.params
        self.code = compile_model(model, dict.fromkeys(names, 0.0))[0]
        # The matrix columns of the plan's parameter slots.
        self.slots = [names.index(name) for name in self.code[2]]
        self.runs = {}  # points -> (run, state), tiled rows

    def cells(self, thetas, start=0, stop=None, resume=None):
        """The ``(P, M)`` cells ``lo`` and ``hi`` of the rows at each row of
        the ``(P, p)`` matrix ``thetas`` (columns in ``model.params`` order;
        a ``(P, p, M)`` block holds one value per row) after passes ``start``
        to ``stop - 1`` (at most, and by default, to the last pass), and
        whether each point failed to integrate there, from bisections of as
        many points as fit in :data:`BATCH_ROWS` rows.  A later ``start``
        resumes from the cells ``resume``, ``(lo, hi)`` of a point that had
        not failed.  The cells of a run of one batch are views of its state,
        read before the next run of as many points."""
        M = len(self.rows[4])
        stop = self.halvings if stop is None else min(stop, self.halvings)
        P, per_chunk = len(thetas), max(1, BATCH_ROWS // M)
        if P > per_chunk:
            (lo, hi), failed = np.empty((2, P, M)), np.empty(P, dtype=bool)
            for k in range(0, P, per_chunk):
                chunk = slice(k, k + per_chunk)
                lo[chunk], hi[chunk], failed[chunk] = self.cells(
                    thetas[chunk], start, stop,
                    resume and tuple(c[chunk] for c in resume))
            return lo, hi, failed
        if P not in self.runs:
            _, t0s, y0s, t1s, x_next = self.rows
            self.runs[P] = odeint._bisect(
                self.code, np.tile(t0s, P), np.tile(y0s, (P, 1)),
                np.tile(t1s, P), self.h, self.method, np.tile(x_next, P),
                self.halvings)
        run, state = self.runs[P]
        if start:
            state[0], state[1] = (c.reshape(-1) for c in resume)
            state[2] = -1.0
        lo, hi, first, _ = run(thetas[:, self.slots].swapaxes(0, 1), start,
                               stop)
        # A point failed where any row's first failing pass is not -1.
        return (lo.reshape(P, M), hi.reshape(P, M),
                np.maximum.reduce(first.reshape(P, M), axis=1) >= 0.0)

    def drop_runs(self, most):
        """Let go of the prepared runs of more than ``most`` points."""
        for size in [size for size in self.runs if size > most]:
            del self.runs[size]

    def point(self, theta):
        """``(levels, saturated, failure, resolved)`` of the rows at
        ``theta`` over the model's own values, ``resolved``
        (:meth:`~hude.model.HudeModel.resolved_theta`; a value may hold one
        per row): every pass of :meth:`cells` as a batch of one.  A row whose
        final interval still touches 0 or 1 is saturated.  ``failure`` is
        ``None`` where no row failed to integrate, else ``(row, level)``: the
        lowest failed row of the earliest pass with a failure and the
        quantile level it probed there."""
        resolved, names, M = (self.model.resolved_theta(theta),
                              self.model.params, len(self.rows[4]))
        thetas = np.zeros((1, len(names), M))
        # Only the parameters the field reads are checked and bound.
        for k in self.slots:
            odeint._check_binding(resolved[names[k]], M)
            thetas[0, k] = resolved[names[k]]
        (lo,), (hi,), (failed,) = self.cells(thetas)
        failure = None
        if failed:
            first, probe = self.runs[1][1][2:]
            row = int(np.argmin(np.where(first < 0.0, np.inf, first)))
            failure = (row, float(probe[row]))
        return 0.5 * (lo + hi), (lo <= 0.0) | (hi >= 1.0), failure, resolved

    def vector(self, theta, condition_check=True):
        """The :class:`ResidualVector` at ``theta`` (:meth:`point`).  A row
        that failed to integrate raises :class:`IntegrationError` naming its
        observation.  With ``condition_check``, an order-2-or-more model runs
        the advisory spot check of the monotonicity condition over the region
        the steps visit."""
        eps, saturated, failure, resolved = self.point(theta)
        admissible, t0s, y0s, t1s, x_next = self.rows
        if failure is not None:
            row, level = failure
            raise _step_failure(float(t1s[row]),
                                f"observation j={int(admissible[row]) + 1}",
                                level)
        if condition_check and self.model.order >= 2:
            # One state column at a time: a column's min() is far cheaper
            # than min(axis=0) on the (M, n) block.
            mins = np.array([col.min() for col in y0s.T])
            maxs = np.array([col.max() for col in y0s.T])
            mins[0] = min(mins[0], float(x_next.min()))
            maxs[0] = max(maxs[0], float(x_next.max()))
            _spot_check((self.code, resolved),
                        (float(t0s.min()), float(t1s.max())), mins, maxs,
                        (0.25, 0.75))
        return ResidualVector(eps, indices=admissible + 1, theta=resolved,
                              saturated=saturated)


def compute_residual(
    model: HudeModel,
    theta,
    init_j: InitialState,
    t_next: float,
    x_next: float,
    delta: float = 1e-4,
    h: float = DEFAULT_STEP,
    method: str = "euler",
) -> float:
    """Residual of a single step: restart at ``init_j``, bisect the level at
    which the path reaches ``x_next`` at ``t_next``."""
    if not math.isfinite(x_next):
        raise ValueError("observation must be finite")
    if not t_next > init_j.t0:
        raise ValueError("t_next must exceed the restart time")
    init_j.check_order(model.order)
    row = (np.arange(1), np.array([init_j.t0]), init_j.values[None, :],
           np.array([float(t_next)]), np.array([float(x_next)]))
    (eps,), (saturated,), failure, _ = _Bisection(
        model, row, delta, h, method).point(theta)
    if failure is not None:
        raise _step_failure(float(t_next), f"the step from t={init_j.t0} to "
                            f"t={float(t_next)}", failure[1])
    if saturated:
        warnings.warn(
            "observation lies at or beyond the reachable envelope; "
            "residual saturated",
            ResidualSaturationWarning,
            stacklevel=2,
        )
    return float(eps)


def _restart_rows(model: HudeModel, series: ObservationSeries, scheme: str):
    """The scored steps of ``series``: ``(admissible, t0s, y0s, t1s, x_next)``,
    one row per step whose full restart state is known."""
    n = model.order
    L = len(series)
    if L < n + 1:
        raise ValueError(
            f"need at least {n + 1} observations to score an order-{n} model"
        )
    if scheme == "given":
        if n > 1 and (series.derivs is None or series.derivs.shape[0] < n - 1):
            raise ValueError("scheme 'given' requires existing derivative columns")
        filled = series
    else:
        filled = estimate_derivatives(series, n, scheme)

    derivs = filled.derivs[:n - 1, :L - 1] if n > 1 else ()
    states = np.stack((filled.x[:L - 1], *derivs), axis=1)
    finite = np.isfinite(states)
    admissible = (np.arange(L - 1) if finite.all()
                  else np.flatnonzero(finite.all(axis=1)))
    if admissible.size == 0:
        raise ValueError("no step has a complete restart state")
    return (admissible, filled.t[admissible], states[admissible],
            filled.t[admissible + 1], filled.x[admissible + 1])


def compute_residuals(
    model: HudeModel,
    theta,
    series: ObservationSeries,
    delta: float = 1e-4,
    h: float = DEFAULT_STEP,
    scheme: str = "forward",
    method: str = "euler",
    condition_check: bool = True,
) -> ResidualVector:
    """All residuals of ``series`` under ``model``/``theta``.

    ``scheme`` selects how derivative observations are reconstructed
    ("forward" or "central"); "given" trusts the columns already present,
    e.g. the exactly propagated states of :func:`simulate_observations`.
    A step is scored whenever its full restart state is known and the next
    observation exists, so 61 observations of an order-2 model yield 60
    residuals under the forward scheme.  A step whose integration fails
    raises :class:`IntegrationError` once the whole series is bisected.
    """
    return _Bisection(model, _restart_rows(model, series, scheme), delta, h,
                      method).vector(theta, condition_check)


def simulate_observations(
    model: HudeModel,
    theta,
    init: InitialState,
    times: Sequence[float],
    seed: int | None = None,
    eps: Sequence[float] | None = None,
    h: float = DEFAULT_STEP,
    method: str = "euler",
) -> ObservationSeries:
    """Generate a synthetic series by per-step quantile inversion.

    For each step a level ``eps_j`` is drawn uniformly (or taken from
    ``eps``), the path restarted from the current full state is integrated at
    that level, and its terminal state becomes the next observation.  The
    returned series carries the exactly propagated derivative columns, so
    residuals recomputed with ``scheme="given"`` and the same ``theta``
    recover the drawn levels up to the bisection precision.  The steps run
    as one chained integration (``mode="chain"`` of
    :func:`~hude.odeint._terminal_state_batch`), split only where the level
    turns to or from the median; the first step that leaves the finite
    floats raises :class:`~hude.odeint.IntegrationError` naming its end time
    and level.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size < 2:
        raise ValueError("need at least two observation times")
    check_times("observation times", times)
    if times[0] != init.t0:
        raise ValueError("first observation time must equal the initial time")
    n = model.order
    init.check_order(n)
    steps = times.size - 1
    if eps is None:
        rng = np.random.default_rng(seed)
        eps = rng.uniform(size=steps)
    else:
        eps = np.asarray(eps, dtype=float).reshape(-1)
        if eps.size != steps:
            raise ValueError(f"need {steps} levels, got {eps.size}")
        check_unit_interval("levels", eps)
    code, values = compile_model(model, theta)
    phi = _clamped_phi(eps)
    states = np.empty((times.size, n))
    states[0] = init.values
    # One chain per run of steps at phi == 0 or not: a zero level binds the
    # plain field, where a (B,) level would add |g|*0.
    cuts = [0, *np.flatnonzero(np.diff(phi == 0.0)) + 1, steps]
    for a, b in zip(cuts, cuts[1:]):
        field = ReducedField(code, values, phi[a:b] if phi[a] else 0.0)
        states[a + 1:b + 1] = _terminal_state_batch(
            field, times[a:b], states[a], times[a + 1:b + 1], h, method,
            mode="chain")
    if not np.isfinite(states[1:]).all():
        j = int(np.argmin(np.isfinite(states[1:]).all(axis=1)))
        raise _step_failure(
            float(times[j + 1]),
            f"the step from t={float(times[j])} to t={float(times[j + 1])}",
            float(eps[j]),
        )
    derivs = states[:, 1:].T.copy() if n > 1 else None
    return ObservationSeries(times, states[:, 0], derivs)
