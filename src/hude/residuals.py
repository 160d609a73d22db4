"""Residuals of a fitted model against an observed series.

Each admissible observation index ``j`` restarts the model from the observed
full state at ``t_j`` and asks: at which quantile level does the restarted
path hit the next observation ``x_{t_{j+1}}``?  That level is the residual
``eps_j``; for a well-fitted model the residuals behave like a sample of the
linear (uniform) uncertainty distribution on [0, 1].  The level is found by
bisection on the terminal value of the restarted path.

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
from .odeint import (DEFAULT_STEP, _step_failure, _terminal_state_batch,
                     _write_csv)

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

# Row budget of one bisection in :func:`_batch_levels`; bounds the memory of
# batched scoring on long series.
BATCH_ROWS = 8192

# Probe rows one bisection pass may integrate.  A batched Euler step of the
# reactor model (column kernel) costs a fixed ~6.5 us of numpy overhead plus
# ~8 ns per row (x86-64 Intel Xeon, numpy 2.4, 100 steps of h=1e-3, best of
# 9 runs: 6.5 us at 2 rows, 6.9 us at 60, 12.0 us at 900, 12.9-13.7 us at
# 1,024, 21.2-21.8 us at 2,000, 55-59 us at 6,000), so per-row work reaches
# the fixed cost near 800 rows.  Smaller bisections resolve several levels
# per pass up to this size; larger ones keep one level per pass.
PROBE_ROWS = 1024


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
        if not np.all(np.isfinite(t)):
            raise ValueError("observation times must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("observation times must be strictly increasing")
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
        if not np.all((eps > 0.0) & (eps < 1.0)):
            raise ValueError("residuals must lie strictly inside (0, 1)")
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


def _tile(a: np.ndarray, m: int) -> np.ndarray:
    """``m`` copies of ``a`` stacked along its first axis; ``a`` itself when
    ``m`` is 1, so one-level passes over large batches copy nothing."""
    return a if m == 1 else np.concatenate([a] * m)


def _bisect_levels(model, theta, t0s, y0s, t1s, x_next, delta, h, method,
                   guess=None):
    """Vectorised bisection: for each row find the level whose restarted path
    ends at the observed next value.  Returns ``(levels, saturated, failed,
    failure)``.  A probe at level ``a`` runs at the noise level
    :func:`~hude.model._clamped_phi` gives ``a``, the clamp every quantile
    level takes, and a row whose final interval still touches 0 or 1 is
    flagged in ``saturated``.

    ``theta`` values may be ``(B,)`` arrays, one parameter point per row.
    Every row is halved the same number of times, so a row's level does not
    depend on the other rows.  Each pass of one loop integrates the probes
    of up to ``b`` levels for every row still bisecting, then walks them in
    one depth loop: at each depth a row reads the probe at its current
    midpoint while that midpoint is one of its probes and it has levels
    left, and the decisions it read narrow its interval.  The two kinds of
    pass differ only in their probes and ``b``:

    * the probe tree: the ``2^b - 1`` dyadic points of each row's interval,
      ``b`` the most levels (at least one, at most the levels left) whose
      probes fit in :data:`PROBE_ROWS` rows; each row reads its levels left,
      ``b`` at most;
    * the guessed first pass: with ``guess`` (one level in [0, 1] per row,
      e.g. a level this bisection returned at the same ``delta``), each row's
      guessed ancestors, the midpoints halving would probe if the final
      interval were the one holding the guess (as many levels as fit in
      :data:`PROBE_ROWS` rows).  A row reads them up to its first decision
      that leaves the guessed interval, that level included: its next
      midpoint is no guessed ancestor.

    The probes are the midpoints of sequential halving bit for bit and each
    row reads only those halving would visit, so a guess, right or wrong,
    changes the work and never the result.  Beyond 52 halvings the levels
    are no longer exact floats and a guess is ignored.

    A row whose terminal state at a visited probe is not finite is flagged
    in ``failed``; the other rows are unaffected.  ``failure`` is ``None``
    when no row failed, else ``(row, level)``: the row that failed at the
    shallowest depth (the lowest row among ties) and the quantile level it
    probed there.
    """
    if not delta > 0:
        raise ValueError("precision delta must be positive")
    halvings = 0
    while 0.5 ** halvings > delta:
        halvings += 1
    # One compile: each pass binds the values of the rows it probes.
    code, params = compile_model(model, theta)
    B = len(x_next)
    lo = np.zeros(B)
    hi = np.ones(B)
    failed = np.zeros(B, dtype=bool)
    # Each failed row's first failing probe: row -> (its level, counted from
    # 1, and its quantile level).
    fails = {}
    active = np.arange(B if halvings else 0)  # the rows still bisecting
    left = np.full(active.size, halvings)  # levels each has still to read
    # Per-row data of the rows still bisecting; it shrinks as rows finish.
    t0a, y0a, t1a, xa, loa, hia = t0s, y0s, t1s, x_next, lo, hi
    # Levels from a guess are exact dyadics only while they fit the mantissa.
    guessed = guess is not None and halvings <= np.finfo(float).nmant
    while active.size:
        A = active.size
        # Probe j of a row is lo + (hi - lo) * j / 2^b.  That is exact, so
        # j = 0 gives lo, j = 2^b gives hi and each midpoint 0.5 * (lo' + hi')
        # the sequential halvings would take is one of the probes, bit for bit.
        if guessed:
            b = min(halvings, max(1, PROBE_ROWS // A))
            depth = np.arange(b)[:, None]
            cell = np.clip(np.floor(np.ldexp(guess, b)), 0,
                           2.0 ** b - 1).astype(np.int64)
            # The midpoint of the guessed cell's ancestor at each depth.
            j = (2 * (cell >> (b - depth)) + 1) << (b - 1 - depth)
            guessed = False
        else:
            # The most levels whose 2^b - 1 probes per row fit in PROBE_ROWS.
            b = min(int(left.max()),
                    max(1, (PROBE_ROWS // A + 1).bit_length() - 1))
            j = np.arange(1, 2 ** b)[:, None]
        m = len(j)  # probes per row, probe-major: row i of probe k is k*A + i
        width = hia - loa
        levels = (loa + width * (j / 2 ** b)).ravel()
        values = {k: _tile(v, m) if np.ndim(v) else v
                  for k, v in params.items()}
        terminal = _terminal_state_batch(
            ReducedField(code, values, _clamped_phi(levels)), _tile(t0a, m),
            _tile(y0a, m), _tile(t1a, m), h, method)
        finite = np.isfinite(terminal).all(axis=1)
        # Bit b-1-d of jlo is the row's decision at depth d (1: the target
        # lies above the probe), read at the row's midpoint jlo + 2^(b-1-d)
        # when that is one of its numerators j: ``at[d]`` marks it among
        # them.  A row reads the levels up to its first miss, at most its
        # levels left; the decisions after them are dropped.
        below = terminal[:, 0].reshape(m, A) < xa
        at = np.empty((b, m, A), dtype=bool)
        jlo = np.zeros(A, dtype=np.int64)
        for d in range(b):
            np.equal(j, jlo + (1 << (b - 1 - d)), out=at[d])
            jlo += (at[d] & below).any(axis=0) << (b - 1 - d)
        read = np.minimum(np.logical_and.accumulate(at.any(axis=1)).sum(axis=0),
                          left)
        unread = b - read
        jlo = (jlo >> unread) << unread
        if not finite.all():
            # Note each row's first failure at a probe it read.
            probes = at.argmax(axis=1) * A + np.arange(A)
            bad = (np.arange(b)[:, None] < read) & ~finite[probes]
            hit = bad.any(axis=0)
            first = bad.argmax(axis=0)
            for i in np.flatnonzero(hit & ~failed[active]):
                fails[int(active[i])] = (int(halvings - left[i] + first[i]) + 1,
                                         float(levels[probes[first[i], i]]))
            failed[active] |= hit
        loa, hia = (loa + width * (jlo / 2 ** b),
                    loa + width * ((jlo + (1 << unread)) / 2 ** b))
        left = left - read
        done = left == 0
        if done.any():
            lo[active[done]], hi[active[done]] = loa[done], hia[done]
            keep = ~done
            active, t0a, y0a, t1a, xa, loa, hia, left = (
                a[keep] for a in (active, t0a, y0a, t1a, xa, loa, hia, left))
            params = {k: v[keep] if np.ndim(v) else v
                      for k, v in params.items()}
    eps = 0.5 * (lo + hi)
    saturated = (lo <= 0.0) | (hi >= 1.0)
    failure = min(((depth, row, level) for row, (depth, level) in fails.items()),
                  default=None)
    return eps, saturated, failed, None if failure is None else failure[1:]


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
    admissible = np.where(np.isfinite(states).all(axis=1))[0]
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


def _batch_levels(model, thetas, rows, delta, h, method, guesses=None):
    """``(levels, saturated)`` of the restart ``rows`` at each row of the
    ``(P, p)`` matrix ``thetas``, or ``None`` where a row fails to integrate,
    from bisections of as many points as fit in :data:`BATCH_ROWS` rows.
    ``guesses`` (optional, ``(P, rows)``) are :func:`_bisect_levels` guesses
    per point."""
    _, t0s, y0s, t1s, x_next = rows
    M = x_next.size
    per_chunk = max(1, BATCH_ROWS // M)
    out = []
    for start in range(0, thetas.shape[0], per_chunk):
        chunk = thetas[start:start + per_chunk]
        P = chunk.shape[0]
        columns = {name: np.repeat(chunk[:, i], M)
                   for i, name in enumerate(model.params)}
        eps, saturated, failed, _ = _bisect_levels(
            model, columns, np.tile(t0s, P),
            np.tile(y0s, (P, 1)), np.tile(t1s, P), np.tile(x_next, P),
            delta, h, method,
            guess=None if guesses is None else
            np.ravel(guesses[start:start + per_chunk]),
        )
        for k in range(P):
            part = slice(k * M, (k + 1) * M)
            out.append(None if failed[part].any() else
                       (eps[part], saturated[part]))
    return out


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
    recover the drawn levels up to the bisection precision.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size < 2:
        raise ValueError("need at least two observation times")
    if not np.all(np.isfinite(times)):
        raise ValueError("observation times must be finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("observation times must be strictly increasing")
    if times[0] != init.t0:
        raise ValueError("first observation time must equal the initial time")
    n = model.order
    if init.values.size != n:
        raise ValueError(f"initial state must have {n} components")
    steps = times.size - 1
    if eps is None:
        rng = np.random.default_rng(seed)
        eps = rng.uniform(size=steps)
    else:
        eps = np.asarray(eps, dtype=float).reshape(-1)
        if eps.size != steps:
            raise ValueError(f"need {steps} levels, got {eps.size}")
        if not np.all((eps > 0.0) & (eps < 1.0)):
            raise ValueError("levels must lie strictly inside (0, 1)")
    code, values = compile_model(model, theta)
    states = np.empty((times.size, n))
    states[0] = init.values
    for j in range(steps):
        field = ReducedField(code, values, _clamped_phi(eps[j]))
        states[j + 1] = _terminal_state_batch(
            field, times[j], states[j], times[j + 1], h, method)
        if not np.isfinite(states[j + 1]).all():
            raise _step_failure(
                float(times[j + 1]),
                f"the step from t={float(times[j])} to t={float(times[j + 1])}",
                float(eps[j]),
            )
    derivs = states[:, 1:].T.copy() if n > 1 else None
    return ObservationSeries(times, states[:, 0], derivs)
