"""Residuals of a fitted model against an observed series.

Each admissible observation index ``j`` restarts the model from the observed
full state at ``t_j`` and asks: at which quantile level does the restarted
path hit the next observation ``x_{t_{j+1}}``?  That level is the residual
``eps_j``; for a well-fitted model the residuals behave like a sample of the
linear (uniform) uncertainty distribution on [0, 1].  The level is found by
bisection on the terminal value of the restarted path; each pass halves every
row once, integrating all rows together on a plan made once, and a field that
compiles runs every pass in one C call.  A fit plans its rows once per batch
size and runs each batch of parameter points with one write of the point
matrix into the plan.

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

# Row budget of one bisection in :meth:`_Bisection.points`; bounds the memory
# of batched scoring on long series.
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
    """The residuals of ``series`` under ``model`` as :func:`compute_residuals`
    bisects them, run at many parameter points (:meth:`points`,
    :meth:`vector`).  It keeps the restart rows, read at construction
    (:func:`_restart_rows`), and its prepared runs, but no point's levels.

    Nothing else is checked or built before the first call, so each
    ValueError comes where a one-shot bisection raises it.  The first call
    checks ``delta`` and lowers the model (:func:`~hude.model.compile_model`),
    whose code does not depend on the parameters.  The first chunk of each
    number of points tiles the rows and prepares their bisection
    (:func:`~hude.odeint._bisect`), which checks and plans them; each chunk
    then writes its points into the plan in one block and runs it.
    """

    def __init__(self, model, series, scheme, delta, h, method):
        self.model, self.delta, self.h, self.method = model, delta, h, method
        self.rows = _restart_rows(model, series, scheme)
        self.code, self.runs = None, {}  # points -> run of the tiled rows

    def points(self, thetas):
        """The ``(P, M)`` levels and saturation flags of the rows at each row
        of the ``(P, p)`` matrix ``thetas`` (columns in ``model.params``
        order), and whether each point failed to integrate, from bisections
        of as many points as fit in :data:`BATCH_ROWS` rows."""
        _, t0s, y0s, t1s, x_next = self.rows
        M = len(x_next)
        if self.code is None:
            self.halvings = _halvings(self.delta)
            names = self.model.params
            self.code, self.values = compile_model(
                self.model, dict(zip(names, thetas[0])))
            # The matrix columns of the plan's parameter slots.
            self.slots = [names.index(name) for name in self.code[2]]
        per_chunk = max(1, BATCH_ROWS // M)
        out = []
        for start in range(0, len(thetas), per_chunk):
            chunk = thetas[start:start + per_chunk]
            P = len(chunk)
            if P not in self.runs:  # an array level picks the noisy field
                self.runs[P] = odeint._bisect(
                    ReducedField(self.code, self.values, np.zeros(M * P)),
                    np.tile(t0s, P), np.tile(y0s, (P, 1)), np.tile(t1s, P),
                    self.h, self.method, np.tile(x_next, P), self.halvings)
            levels, saturated, failed, _ = self.runs[P](
                np.repeat(chunk[:, self.slots].T, M, axis=1))
            out.append((levels.reshape(P, M), saturated.reshape(P, M),
                        failed.reshape(P, M).any(axis=1)))
        return tuple(np.concatenate(part) for part in zip(*out))

    def vector(self, x):
        """The :class:`ResidualVector` at ``x`` (in ``model.params`` order):
        its bisection as a batch of one, spot-checked."""
        (eps,), (saturated,), _ = self.points(np.asarray([x], dtype=float))
        resolved = self.model.resolved_theta(dict(zip(self.model.params, x)))
        return _residual_vector(self.model, resolved, self.rows, eps,
                                saturated, True)


def _bisect_levels(model, theta, t0s, y0s, t1s, x_next, delta, h, method):
    """Vectorised bisection: for each row find the level whose restarted path
    ends at the observed next value.  Returns ``(levels, saturated, failed,
    failure)``.

    ``theta`` values may be ``(B,)`` arrays, one parameter point per row.
    Each pass halves every row once: it integrates all rows in one call at
    their midpoints ``0.5 * (lo + hi)``, each run at the noise level
    :func:`~hude.model._clamped_phi` gives it (the clamp every quantile level
    takes), and keeps the half whose end holds the observed value.  Every row
    is halved the same number of times, so a row's level does not depend on
    the other rows.  A row whose final interval still touches 0 or 1 is
    flagged in ``saturated``.

    A row whose terminal state at a midpoint is not finite is flagged in
    ``failed``; the other rows are unaffected.  ``failure`` is ``None`` when
    no row failed, else ``(row, level)``: the lowest failed row of the first
    pass with a failure and the quantile level it probed there.

    The rows are prepared (:func:`~hude.odeint._bisect`) with ``theta`` in
    their plan and run once: one C call where the field's compiled
    bisection loads, else one kernel call per pass, with the same bits.
    """
    halvings = _halvings(delta)
    code, values = compile_model(model, theta)
    # An array level picks the noisy field, as each probe's levels do.
    return odeint._bisect(ReducedField(code, values, np.zeros(len(x_next))),
                          t0s, y0s, t1s, h, method, x_next, halvings)()


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
    resolved = model.resolved_theta(theta)
    eps, saturated, _, failure = _bisect_levels(
        model,
        resolved,
        np.array([init_j.t0]),
        init_j.values[None, :],
        np.array([float(t_next)]),
        np.array([float(x_next)]),
        delta,
        h,
        method,
    )
    if failure is not None:
        raise _step_failure(float(t_next), f"the step from t={init_j.t0} to "
                            f"t={float(t_next)}", failure[1])
    if saturated[0]:
        warnings.warn(
            "observation lies at or beyond the reachable envelope; "
            "residual saturated",
            ResidualSaturationWarning,
            stacklevel=2,
        )
    return float(eps[0])


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


def _residual_vector(model, resolved, rows, eps, saturated, condition_check):
    """Wrap one parameter point's levels, after the advisory spot check of the
    monotonicity condition over the region the steps visit."""
    admissible, t0s, y0s, t1s, x_next = rows
    if condition_check and model.order >= 2:
        mins = y0s.min(axis=0)
        maxs = y0s.max(axis=0)
        mins[0] = min(mins[0], float(x_next.min()))
        maxs[0] = max(maxs[0], float(x_next.max()))
        _spot_check(
            model,
            resolved,
            (float(t0s.min()), float(t1s.max())),
            mins,
            maxs,
            (0.25, 0.75),
        )
    return ResidualVector(
        eps, indices=admissible + 1, theta=resolved, saturated=saturated
    )


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
    rows = _restart_rows(model, series, scheme)
    admissible, t0s, y0s, t1s, x_next = rows
    resolved = model.resolved_theta(theta)
    eps, saturated, _, failure = _bisect_levels(
        model, resolved, t0s, y0s, t1s, x_next, delta, h, method
    )
    if failure is not None:
        row, level = failure
        raise _step_failure(float(t1s[row]),
                            f"observation j={int(admissible[row]) + 1}", level)
    return _residual_vector(model, resolved, rows, eps, saturated,
                            condition_check)


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
