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
    phi_inv,
)
from .odeint import (DEFAULT_STEP, IntegrationError, _step_failure,
                     _terminal_state_batch, _write_csv)

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

# Bisection probes stay this far inside (0, 1); observations beyond the
# reachable envelope saturate against these walls instead of erroring.
PROBE_CLAMP = 1e-6

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


def read_observations(path) -> ObservationSeries:
    """Read a ``t,x`` CSV into a series."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0][:2]] != ["t", "x"]:
        raise DataFormatError(f"{path}: expected header 't,x'")
    try:
        data = [(float(r[0]), float(r[1])) for r in rows[1:] if r]
    except (ValueError, IndexError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if not data:
        raise DataFormatError(f"{path}: no observations")
    t, x = zip(*data)
    return ObservationSeries(np.array(t), np.array(x))


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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("j,epsilon\n")
            for j, e in zip(self.indices, self.epsilons):
                fh.write(f"{j},{e:.17g}\n")

    @classmethod
    def from_csv(cls, path) -> "ResidualVector":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or [c.strip() for c in rows[0][:2]] != ["j", "epsilon"]:
            raise DataFormatError(f"{path}: expected header 'j,epsilon'")
        try:
            pairs = [(int(r[0]), float(r[1])) for r in rows[1:] if r]
        except (ValueError, IndexError) as exc:
            raise DataFormatError(f"{path}: {exc}") from None
        if not pairs:
            raise DataFormatError(f"{path}: no residuals")
        j, eps = zip(*pairs)
        return cls(np.array(eps), indices=np.array(j))


def _tile(a: np.ndarray, m: int) -> np.ndarray:
    """``m`` copies of ``a`` stacked along its first axis; ``a`` itself when
    ``m`` is 1, so one-level passes over large batches copy nothing."""
    return a if m == 1 else np.concatenate([a] * m)


def _levels_per_pass(rows: int, halvings: int) -> int:
    """Bisection levels one integration pass resolves: the most (at least one,
    at most ``halvings``) whose ``2^b - 1`` probes per row fit in
    :data:`PROBE_ROWS` rows."""
    b = 1
    while b < halvings and rows * (2 ** (b + 1) - 1) <= PROBE_ROWS:
        b += 1
    return b


def _bisect_levels(model, theta, t0s, y0s, t1s, x_next, delta, h, method,
                   check_finite=True, guess=None):
    """Vectorised bisection: for each row find the level whose restarted path
    ends at the observed next value.  Returns (levels, saturated, failed).

    ``theta`` values may be ``(B,)`` arrays, one parameter point per row.
    Every row is halved the same number of times, so a row's level does not
    depend on the other rows.  Each pass of one loop integrates the probes
    of up to ``b`` levels for every row still bisecting, reads each row's
    decisions and narrows its interval.  A pass lays out one of two probe
    sets:

    * the probe tree: the ``2^b - 1`` dyadic points of each row's interval
      (``b`` from :func:`_levels_per_pass`), walked the way halving one level
      at a time would, each row reading its levels left, ``b`` at most;
    * the guessed first pass: with ``guess`` (one level in [0, 1] per row,
      e.g. a level this bisection returned at the same ``delta``), each row's
      guessed ancestors, the midpoints halving would probe if the final
      interval were the one holding the guess (as many levels as fit in
      :data:`PROBE_ROWS` rows).  A row reads them up to its first decision
      that leaves the guessed interval, that level included.

    The probes are the midpoints of sequential halving bit for bit and each
    row reads only those halving would visit, so a guess, right or wrong,
    changes the work and never the result.  Beyond 52 halvings the levels
    are no longer exact floats and a guess is ignored.

    A non-finite terminal state at a visited probe raises
    :class:`IntegrationError` (with the ``row`` and probed ``level``
    attached) unless ``check_finite`` is off; then the row is flagged in
    ``failed`` instead and the other rows are unaffected.  The error is that
    of the shallowest failing level, the lowest row among ties.
    """
    if delta <= 0:
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
    while True:
        if check_finite and fails:
            row = min(fails, key=lambda r: (fails[r][0], r))
            # Raise once every row has read the shallowest failing level, so
            # that no row can still fail above it.
            if fails[row][0] <= halvings - left.max(initial=0):
                exc = IntegrationError(float(t1s[row]))
                exc.row, exc.level = row, fails[row][1]
                raise exc
        if not active.size:
            break
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
        else:
            b = _levels_per_pass(A, int(left.max()))
            j = np.arange(1, 2 ** b)[:, None]
        m = len(j)  # probes per row, probe-major: row i of probe k is k*A + i
        width = hia - loa
        levels = (loa + width * (j / 2 ** b)).ravel()
        values = {k: _tile(v, m) if np.ndim(v) else v
                  for k, v in params.items()}
        phi = phi_inv(np.clip(levels, PROBE_CLAMP, 1.0 - PROBE_CLAMP))
        terminal = _terminal_state_batch(
            ReducedField(code, values, phi), _tile(t0a, m), _tile(y0a, m),
            _tile(t1a, m), h, method, check_finite=False,
        )
        reached = terminal[:, 0]
        finite = np.isfinite(terminal).all(axis=1)
        # Bit b-1-d of jlo is the row's decision at depth d (1: the target
        # lies above the probe); ``probes`` holds the probe read at each depth.
        if guessed:
            below = reached.reshape(b, A) < xa
            agree = below == ((cell >> (b - 1 - depth)) & 1).astype(bool)
            read = np.where(agree.all(axis=0), b, agree.argmin(axis=0) + 1)
            jlo = (below << (b - 1 - depth)).sum(axis=0)
            probes = np.arange(b * A).reshape(b, A)
            guessed = False
        else:
            sub = np.arange(A)
            jlo = np.zeros(A, dtype=int)
            probes = []
            for d in range(b):
                bit = 1 << (b - 1 - d)
                probes.append((jlo + (bit - 1)) * A + sub)
                jlo += (reached[probes[-1]] < xa) * bit
            read = np.minimum(left, b)
        # A row that read fewer than b levels keeps the interval its first
        # ``read`` decisions give.
        unread = b - read
        jlo = (jlo >> unread) << unread
        if not finite.all():
            # Note each row's first failure at a probe it read.
            probes = np.asarray(probes)
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
    return eps, saturated, failed


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
    try:
        eps, saturated, _ = _bisect_levels(
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
    except IntegrationError as exc:
        raise _step_failure(
            exc, f"the step from t={init_j.t0} to t={float(t_next)}", exc.level
        ) from None
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
    residuals under the forward scheme.
    """
    rows = _restart_rows(model, series, scheme)
    admissible, t0s, y0s, t1s, x_next = rows
    resolved = model.resolved_theta(theta)
    try:
        eps, saturated, _ = _bisect_levels(
            model, resolved, t0s, y0s, t1s, x_next, delta, h, method
        )
    except IntegrationError as exc:
        raise _step_failure(
            exc, f"observation j={int(admissible[exc.row]) + 1}", exc.level
        ) from None
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
        eps, saturated, failed = _bisect_levels(
            model, columns, np.tile(t0s, P),
            np.tile(y0s, (P, 1)), np.tile(t1s, P), np.tile(x_next, P),
            delta, h, method, check_finite=False,
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
        try:
            states[j + 1] = _terminal_state_batch(
                field, times[j], states[j], times[j + 1], h, method)
        except IntegrationError as exc:
            raise _step_failure(
                exc, f"the step from t={float(times[j])} to t={float(times[j + 1])}",
                float(eps[j]),
            ) from None
    derivs = states[:, 1:].T.copy() if n > 1 else None
    return ObservationSeries(times, states[:, 0], derivs)
