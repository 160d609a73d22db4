"""Parameter estimation from residuals: generalized moments and maximum
likelihood.

A well-fitted model turns its observations into residuals that sample the
linear uncertainty distribution on [0, 1], whose k-th moment is 1/(k+1).  The
moment estimator therefore minimizes

    sum_{k=1..p} ( mean(eps_j(theta)^k) - 1/(k+1) )^2

over the parameter box, and the maximum-likelihood estimator instead pins the
tightest window of sorted residuals that should span [alpha/2, 1-alpha/2].
Both objectives are step functions of theta (the residual bisection quantizes
at its precision delta), so the search is a derivative-free simplex with
random restarts; box constraints are enforced by reflecting candidate points
back inside.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .model import HudeModel
from .odeint import DEFAULT_STEP
from .residuals import (
    ObservationSeries,
    ResidualVector,
    _Bisection,
    _restart_rows,
    compute_residuals,  # noqa: F401  (perfbench/layers.py wraps it here)
)
from .validation import check_unit_interval

__all__ = [
    "EstimationResult",
    "EstimationError",
    "moment_objective",
    "mle_objective",
    "minimize_in_box",
    "estimate_moments",
    "estimate_mle",
]

# An exactly matching model drives the objective essentially to zero; a fit is
# declared converged below this (the reactor workflow relaxes it explicitly).
FIT_THRESHOLD = 1e-10

# Points the presearch ladder aims for (:func:`_ladder_points`).
LADDER_BUDGET = 120

# A simplex has converged once its vertices lie within XATOL of the best one
# and their values within FATOL (:func:`_nelder_mead_box`).
XATOL, FATOL = 1e-10, 1e-14


class EstimationError(Exception):
    """The search could not produce a usable estimate."""


@dataclass(frozen=True)
class EstimationResult:
    """The estimate ``theta`` with its objective value, Nelder-Mead
    iterations, convergence flag and moment gaps, all written by
    :meth:`to_dict`.  ``residuals`` is the :class:`ResidualVector` at the
    estimate, the one its moment gaps and spot check read; it is left out of
    equality, ``repr`` and :meth:`to_dict`."""

    theta: dict[str, float]
    objective: float
    iterations: int
    converged: bool
    moment_gaps: tuple[float, ...] = field(default_factory=tuple)
    residuals: ResidualVector | None = field(default=None, compare=False,
                                             repr=False)

    def to_dict(self) -> dict:
        return {
            "theta": dict(self.theta),
            "objective": self.objective,
            "converged": self.converged,
            "iterations": self.iterations,
            "moment_gaps": list(self.moment_gaps),
        }


def _as_epsilons(residuals) -> np.ndarray:
    if isinstance(residuals, ResidualVector):
        return residuals.epsilons
    eps = np.asarray(residuals, dtype=float).reshape(-1)
    if eps.size == 0:
        raise ValueError("residual vector cannot be empty")
    return eps


def _moment_gaps(eps: np.ndarray, p: int) -> np.ndarray:
    """The gaps between the first ``p`` sample moments of each residual
    vector, along the last axis of ``eps``, and the uniform moments
    ``1/(k+1)``: one gap per moment, on the last axis."""
    sums = np.empty(eps.shape[:-1] + (p,))
    for k in range(1, p + 1):
        sums[..., k - 1] = np.add.reduce(eps**k, axis=-1)
    # np.mean's division, without its Python wrapper, then each gap.
    return sums / eps.shape[-1] - 1.0 / np.arange(2.0, p + 2.0)


def _moment_scores(eps: np.ndarray, p: int) -> np.ndarray:
    """Sum of squared moment gaps (:func:`_moment_gaps`) of each residual
    vector along the last axis of ``eps``: a batch's ``(P, M)`` levels score
    in one expression, each row to the bits of its own score."""
    return np.add.reduce(_moment_gaps(eps, p) ** 2, axis=-1)


def _moment_bounds(lo: np.ndarray, hi: np.ndarray, p: int) -> np.ndarray:
    """A lower bound of the moment score (:func:`_moment_scores`) of every
    residual vector whose levels lie in the cells ``[lo, hi]``, along the
    last axis, bit for bit: every float op of :func:`_moment_gaps` is
    monotone in the levels, so each gap lies between its values at the two
    cell ends, and the gap nearest 0 on that range is squared and summed in
    the score's own order."""
    return np.add.reduce(
        np.clip(0.0, _moment_gaps(lo, p), _moment_gaps(hi, p)) ** 2, axis=-1)


def _moment_score(eps: np.ndarray, p: int) -> float:
    """Sum of squared gaps between the first ``p`` sample moments of ``eps``
    and the uniform moments ``1/(k+1)``; ``p`` must be at least 1."""
    if p < 1:
        raise ValueError("moment count p must be >= 1")
    return float(_moment_scores(eps, p))


def moment_objective(theta, residual_fn: Callable, p: int) -> float:
    """The moment score (:func:`_moment_score`) of the residuals at
    ``theta``."""
    return _moment_score(_as_epsilons(residual_fn(theta)), p)


def _mle_window(M: int, alpha: float) -> int:
    """Order statistics in the maximum-likelihood window of ``M`` residuals at
    detection level ``alpha``; raises when the level leaves no usable window."""
    check_unit_interval("detection level", alpha)
    w = int(np.ceil(M * (1.0 - alpha) - 1e-9))
    if w < 2 or w > M:
        raise ValueError(
            f"detection level {alpha} needs a window of {w} from {M} residuals"
        )
    return w


def mle_objective(epsilons, alpha: float) -> tuple[float, int, int]:
    """Least-squares defect of the maximum-likelihood window equations.

    Sorts the residuals, finds the narrowest window of ``ceil(M(1-alpha))``
    consecutive order statistics (ties broken toward the smallest start), and
    scores how far its ends sit from ``alpha/2`` and ``1 - alpha/2``.
    Returns ``(value, i_star, window)`` with ``i_star`` 1-based.
    """
    eps = np.sort(_as_epsilons(epsilons))
    M = eps.size
    w = _mle_window(M, alpha)
    widths = eps[w - 1 :] - eps[: M - w + 1]
    i = int(np.argmin(widths))
    low_gap = eps[i] - alpha / 2.0
    high_gap = eps[i + w - 1] - (1.0 - alpha / 2.0)
    return float(low_gap**2 + high_gap**2), i + 1, w


def _box(bounds) -> tuple[np.ndarray, np.ndarray]:
    """The ``(lo, hi)`` arrays of ``bounds``, one ``(lo, hi)`` pair per
    parameter.  Each bound and each width ``hi - lo`` must be finite and
    ``lo < hi``, else a ``ValueError`` says so."""
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    # A NaN or infinite bound makes its width NaN or infinite, and so do
    # finite bounds too far apart.
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(hi - lo).all()
    if not finite:
        raise ValueError("each bound and its width must be finite, got "
                         f"{[(float(a), float(b)) for a, b in zip(lo, hi)]}")
    if np.any(hi <= lo):
        raise ValueError("each bound must satisfy lo < hi")
    return lo, hi


def _evaluate(objective: Callable, points: np.ndarray) -> list[float]:
    """Objective values at the rows of ``points``: one call of
    ``objective.batch`` when the objective has that batched form (see
    :func:`_residual_objective`), else one call per point."""
    batch = getattr(objective, "batch", None)
    if batch is None:
        return [float(objective(point)) for point in points]
    return [float(v) for v in batch(points)]


def _nelder_mead_box(f, x0, lo, hi, maxiter=400):
    """Classical Nelder-Mead restricted to a box by reflection.

    Returns ``(x_best, f_best, iterations, nfev)``.  Infinite objective values
    (failed probes) are handled by the usual ordering.  The initial simplex
    and each shrink are scored as one batch of points, and every probe is an
    array.

    The bookkeeping runs on Python floats, with the IEEE operations of the
    array form in the same order: a vertex is folded into the box by
    reflection, ``y = (x - lo) % (2*width)`` (Python's ``%`` is numpy's
    ``remainder``) and ``lo + (2*width - y if y > width else y)``; the
    centroid is the sum of the vertices, row by row from ``0.0``, over their
    count; the vertices are ordered stably with NaN values last, as
    ``argsort`` orders them; and a spread that holds a NaN is not within
    tolerance, as a NaN maximum is not.
    """
    n = len(x0)
    lo, hi = [float(v) for v in lo], [float(v) for v in hi]
    box = [(a, b - a, 2.0 * (b - a)) for a, b in zip(lo, hi)]

    def fold(x):
        # In a box near the largest float a vertex can leave the floats; it
        # is inf or NaN, and its probe fails like any other.
        out = []
        for v, (a, width, twice) in zip(x, box):
            y = (v - a) % twice
            out.append(a + (twice - y if y > width else y))
        return out

    def toward(a, b, t):
        # a + t*(b - a) folded into the box.
        return fold([u + t * (v - u) for u, v in zip(a, b)])

    def probe(x):
        return float(f(np.array(x)))

    x0 = [float(v) for v in x0]
    simplex = [x0]
    for i in range(n):
        vertex = list(x0)
        vertex[i] += 0.05 * (hi[i] - lo[i]) or 1e-4
        simplex.append(fold(vertex))
    values = _evaluate(f, np.array(simplex))
    nfev = n + 1
    iterations = 0

    def rank(i):
        return values[i] != values[i], values[i]

    for iterations in range(1, maxiter + 1):
        order = sorted(range(n + 1), key=rank)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best = simplex[0]
        # A simplex of failed vertices holds inf - inf: NaN, which the rule
        # reads as not finite, like inf.
        fspread = values[-1] - values[0]
        if (all(abs(v - b) <= XATOL for x in simplex[1:]
                for v, b in zip(x, best))
                and (not math.isfinite(fspread) or fspread <= FATOL)):
            break
        centroid = [0.0] * n
        for x in simplex[:-1]:
            centroid = [c + v for c, v in zip(centroid, x)]
        centroid = [c / n for c in centroid]

        reflected = toward(centroid, simplex[-1], -1.0)
        f_r = probe(reflected)
        nfev += 1
        if f_r < values[0]:
            expanded = toward(centroid, simplex[-1], -2.0)
            f_e = probe(expanded)
            nfev += 1
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
            continue
        if f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
            continue
        contracted = toward(centroid, reflected if f_r < values[-1]
                            else simplex[-1], 0.5)
        f_c = probe(contracted)
        nfev += 1
        if f_c < min(f_r, values[-1]):
            simplex[-1], values[-1] = contracted, f_c
            continue
        # shrink toward the best vertex
        for i in range(1, n + 1):
            simplex[i] = toward(simplex[0], simplex[i], 0.5)
        values[1:] = _evaluate(f, np.array(simplex[1:]))
        nfev += n

    # np.argmin: the first NaN, else the first least value.
    best = next((i for i, v in enumerate(values) if v != v),
                min(range(n + 1), key=values.__getitem__))
    return np.array(simplex[best]), values[best], iterations, nfev


def _ladder_points(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Deterministic scan points: per axis a geometric ladder from the upper
    bound down toward the lower one (ratio 1/4), cross-producted.

    Scale-like parameters (noise levels, rates) flatten residual objectives
    everywhere except within a thin slab near their lower bound, where random
    uniform restarts essentially never land; the ladder guarantees coverage of
    every order of magnitude the box spans.
    """
    p = lo.size
    per_axis = min(10, max(3, int(round(LADDER_BUDGET ** (1.0 / p)))))
    ratios = np.concatenate([4.0 ** -np.arange(per_axis - 1), [0.0]])
    axes = [lo[i] + (hi[i] - lo[i]) * ratios for i in range(p)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def minimize_in_box(
    objective: Callable,
    theta_init: np.ndarray,
    bounds: Sequence[tuple[float, float]],
    restarts: int = 3,
    maxiter: int = 400,
    seed: int | None = 0,
    stop_below: float | None = None,
    presearch: bool = True,
):
    """Simplex search with random restarts inside a box.

    The first start is ``theta_init``; with ``presearch`` the best point of a
    deterministic geometric scan of the box is prepended, and the remaining
    starts are drawn uniformly.  Restarting stops early once the objective
    drops below ``stop_below``.  Returns ``(x_best, f_best, total_iterations)``.
    An objective with a ``batch`` attribute, mapping a ``(P, p)`` matrix of
    points to their ``P`` values, scores the scan in one call.  One with an
    ``argmin`` attribute, mapping the scan's points to ``(index, finite)``,
    ``np.argmin`` of their values and whether that value is finite, is asked
    only that: it need not score every point exactly (see
    :func:`_residual_objective`).  ``bounds`` must make a box (:func:`_box`).
    """
    lo, hi = _box(bounds)
    theta_init = np.asarray(theta_init, dtype=float).reshape(-1)
    if theta_init.size != lo.size:
        raise ValueError("theta_init dimension does not match bounds")
    if np.any(theta_init < lo) or np.any(theta_init > hi):
        raise ValueError("theta_init must lie inside the bounds")
    if restarts < 1:
        raise ValueError("need at least one start")
    rng = np.random.default_rng(seed)
    starts = [theta_init]
    if presearch:
        points = _ladder_points(lo, hi)
        argmin = getattr(objective, "argmin", None)
        if argmin is None:
            values = _evaluate(objective, points)
            best = int(np.argmin(values))
            finite = math.isfinite(values[best])
        else:
            best, finite = argmin(points)
        if finite:
            starts.insert(0, points[best])
    # Each uniform start is drawn when the search reaches it.
    drawn = (rng.uniform(lo, hi) for _ in range(restarts - 1))
    best_x, best_f, total = None, np.inf, 0
    for start in itertools.chain(starts, drawn):
        x, fval, iterations, _ = _nelder_mead_box(
            objective, start, lo, hi, maxiter=maxiter
        )
        total += iterations
        if fval < best_f:
            best_x, best_f = x, fval
        if stop_below is not None and best_f <= stop_below:
            break
    return best_x, best_f, total


def _residual_objective(model, rows, score, delta, h, method, bound=None):
    """``x -> score(epsilons of the residuals at x)`` and the function that
    returns the :class:`ResidualVector` at a point, of the restart ``rows``
    of a series (:func:`~hude.residuals._restart_rows`); ``x`` lists the
    parameters in ``model.params`` order.  ``score`` maps a ``(P, M)`` block
    of levels, one row per point, to the points' ``P`` values.

    The objective's ``batch`` attribute scores a ``(P, p)`` matrix of probes
    in shared bisections, each writing its points into its plan in one
    block (:meth:`~hude.residuals._Bisection.cells`); the objective scores
    one probe as a batch of one.  One bisection of the restart rows serves
    the whole fit: it lowers the model once and prepares each batch size
    once.  A probe that fails to integrate scores ``inf``, and its levels
    are not kept: a point's vector is bisected again, as a batch of one
    (:meth:`~hude.residuals._Bisection.vector`), and runs the advisory
    monotonicity check the probes skip.

    Where ``bound`` maps the ``(P, M)`` cells ``lo`` and ``hi`` of the
    points' levels to a lower bound of each point's score, bit for bit, the
    objective also has an ``argmin`` attribute (:func:`_argmin_by_depth`),
    which bisects each point of a scan only as deep as its argmin needs,
    then lets go of the runs larger than Nelder-Mead's batches.
    """
    bisection = _Bisection(model, rows, delta, h, method)

    def batch(points):
        lo, hi, failed = bisection.cells(np.asarray(points, dtype=float))
        return np.where(failed, np.inf, score(0.5 * (lo + hi))).tolist()

    def objective(x):
        return batch([x])[0]

    def argmin(points):
        found = _argmin_by_depth(bisection, np.asarray(points, dtype=float),
                                 score, bound)
        # Nelder-Mead scores at most p + 1 points a batch: the scan's larger
        # runs would hold their plans for the rest of the fit.
        bisection.drop_runs(len(model.params) + 1)
        return found

    objective.batch = batch
    if bound is not None:
        objective.argmin = argmin
    return objective, lambda x: bisection.vector(dict(zip(model.params, x)))


def _argmin_by_depth(bisection, points, score, bound):
    """``(index, finite)``: ``np.argmin`` of the ``score`` of the rows of
    ``points`` (:func:`_residual_objective`) and whether its value is
    finite, each point bisected only as deep as that needs.

    Every point runs three passes (:meth:`~hude.residuals._Bisection.cells`).
    A point that fails in them fails at full depth too, which runs the same
    probes first, and scores ``inf``.  Any other point's final levels lie in
    its cells, so ``bound`` of the cells bounds its score from below.  The
    point with the least bound (of equal bounds, the least score at its
    cells' midpoints) resumes to full depth and is scored exactly, until one
    scores a finite value; which point goes first changes only the work,
    never the argmin.  Then every point whose bound is at
    most the best exact score so far, ties included so that the first index
    of equal scores wins as in ``np.argmin``, resumes by one pass in one run
    of their number, and is bounded again; a point whose bound exceeds the
    best cannot be the argmin and stops there.  The points left at full
    depth are scored exactly."""
    lo, hi, failed = bisection.cells(points, 0, 3)
    lo, hi = lo.copy(), hi.copy()  # a run's own state is overwritten
    halvings = bisection.halvings
    depth = min(3, halvings)
    values = np.full(len(points), np.inf)
    live = ~failed
    best = np.inf
    while live.any():
        rows = np.flatnonzero(live)
        if depth == halvings:
            values[rows] = score(0.5 * (lo[rows] + hi[rows]))
            break
        bounds = bound(lo[rows], hi[rows])
        if best == np.inf:
            # The least bound, of equal bounds the least score at the cells'
            # midpoints: the likeliest argmin.
            guess = score(0.5 * (lo[rows] + hi[rows]))
            i = rows[np.lexsort((guess, bounds))[0]]
            end_lo, end_hi, end_failed = bisection.cells(
                points[i:i + 1], depth, halvings, (lo[i:i + 1], hi[i:i + 1]))
            if not end_failed[0]:
                values[i] = best = score(0.5 * (end_lo + end_hi))[0]
            live[i] = False
            continue
        live[rows[bounds > best]] = False
        rows = rows[bounds <= best]
        if rows.size:
            lo[rows], hi[rows], deeper_failed = bisection.cells(
                points[rows], depth, depth + 1, (lo[rows], hi[rows]))
            live[rows[deeper_failed]] = False
            depth += 1
    index = int(np.argmin(values))
    return index, bool(np.isfinite(values[index]))


def _estimate(model, rows, score, moments, theta_init, bounds, delta, h,
              method, restarts, maxiter, threshold, seed, presearch,
              bound=None):
    """Minimise ``score`` of the residual levels of the restart ``rows``
    (:func:`_residual_objective`) over the box ``bounds``; the result keeps
    the residual vector at the estimate, bisected once more on the fit's
    one-point plan and spot-checked, and reports its first ``moments``
    moment gaps."""
    names = model.params
    if not names:
        raise ValueError("model has no free parameters to estimate")
    if bounds is None or len(bounds) != len(names):
        raise ValueError(f"bounds must provide one (lo, hi) pair per parameter "
                         f"({len(names)} expected)")
    lo, hi = _box(bounds)
    if theta_init is None:
        theta_init = 0.5 * lo + 0.5 * hi
    elif isinstance(theta_init, Mapping):
        theta_init = np.array([theta_init[name] for name in names], dtype=float)
    objective, vector = _residual_objective(
        model, rows, score, delta, h, method, bound)
    best_x, best_f, iterations = minimize_in_box(
        objective, theta_init, bounds, restarts, maxiter, seed,
        stop_below=threshold, presearch=presearch,
    )
    if not np.isfinite(best_f):
        raise EstimationError("every parameter probe failed to integrate")
    # The estimate's vector runs the monotonicity check the probes skipped.
    residuals = vector(best_x)
    gaps = _moment_gaps(residuals.epsilons, moments)
    return EstimationResult(
        theta=dict(zip(names, (float(v) for v in best_x))),
        objective=best_f,
        iterations=iterations,
        converged=best_f <= threshold,
        moment_gaps=tuple(float(g) for g in gaps),
        residuals=residuals,
    )


def estimate_moments(
    model: HudeModel,
    series: ObservationSeries,
    p: int = 2,
    theta_init=None,
    bounds: Sequence[tuple[float, float]] | None = None,
    delta: float = 1e-4,
    h: float = DEFAULT_STEP,
    scheme: str = "forward",
    method: str = "euler",
    restarts: int = 3,
    maxiter: int = 400,
    threshold: float = FIT_THRESHOLD,
    seed: int | None = 0,
    presearch: bool = True,
) -> EstimationResult:
    """Generalized moment estimate of the model parameters on ``series``."""
    if p < 1:
        raise ValueError("moment count p must be >= 1")
    return _estimate(model, _restart_rows(model, series, scheme),
                     lambda eps: _moment_scores(eps, p), p,
                     theta_init, bounds, delta, h, method, restarts,
                     maxiter, threshold, seed, presearch,
                     lambda lo, hi: _moment_bounds(lo, hi, p))


def estimate_mle(
    model: HudeModel,
    series: ObservationSeries,
    alpha: float = 0.05,
    theta_init=None,
    bounds: Sequence[tuple[float, float]] | None = None,
    delta: float = 1e-4,
    h: float = DEFAULT_STEP,
    scheme: str = "forward",
    method: str = "euler",
    restarts: int = 3,
    maxiter: int = 400,
    threshold: float = FIT_THRESHOLD,
    seed: int | None = 0,
    presearch: bool = True,
) -> EstimationResult:
    """Maximum-likelihood estimate at detection level ``alpha``.

    The window size depends only on the number of scored steps, so an
    unusable ``alpha`` is rejected before any integration.  The result's
    ``moment_gaps`` are the first two moment gaps of the residuals at the
    estimate, a fit diagnostic independent of ``alpha``.
    """
    rows = _restart_rows(model, series, scheme)
    _mle_window(rows[0].size, alpha)
    return _estimate(model, rows,
                     lambda block: [mle_objective(eps, alpha)[0]
                                    for eps in block], 2,
                     theta_init, bounds, delta, h, method, restarts,
                     maxiter, threshold, seed, presearch)
