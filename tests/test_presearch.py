"""A fit reads only the bisection work its decisions need: the presearch's
depth-driven argmin equals the full scan, each moment bound lies below its
exact score, and Nelder-Mead on floats equals its array form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
from hude import estimate, odeint, reactor, residuals
from hude.estimate import (XATOL, FATOL, _moment_bounds, _moment_scores,
                           _nelder_mead_box, _residual_objective)

pytestmark = pytest.mark.filterwarnings(
    "ignore::hude.AlphaPathConditionWarning")

# x' = a*x0 + s*phi: probes at a = 1e308 overflow, and a point whose noise
# level s is 0 puts every residual at one cell's end.
DRIFT = hude.HudeModel.parse(1, "a*x0", ["s"], params=["a", "s"])
DRIFT_SERIES = hude.simulate_observations(
    DRIFT, {"a": -0.5, "s": 0.3}, hude.InitialState(0.0, [2.0]),
    0.1 * np.arange(13), seed=11, h=1e-2,
)


def _moment_objective(delta, p, bound, steps):
    # ``steps`` rounds the score down to a grid, monotone as the bound
    # needs: different points then tie, first scored in any order.
    def stepped(values):
        return np.floor(values * steps) / steps if steps else values

    bounds = {"moments": lambda lo, hi: stepped(_moment_bounds(lo, hi, p)),
              "none": lambda lo, hi: np.zeros(len(lo)), "absent": None}
    return _residual_objective(
        DRIFT, residuals._restart_rows(DRIFT, DRIFT_SERIES, "forward"),
        lambda eps: stepped(_moment_scores(eps, p)), delta, 1e-2, "euler",
        bounds[bound])[0]


@settings(max_examples=40, deadline=None)
@given(
    points=st.lists(st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                              st.floats(min_value=0.0, max_value=1.0)),
                    min_size=1, max_size=12),
    copies=st.lists(st.integers(min_value=0, max_value=11), max_size=4),
    overflow=st.lists(st.integers(min_value=0, max_value=11), max_size=3),
    delta=st.sampled_from([0.3, 1e-2, 1e-4, 1e-7]),
    p=st.integers(min_value=1, max_value=3),
    # A bound of the moment score, one that bounds nothing, and none.
    bound=st.sampled_from(["moments", "none", "absent"]),
    steps=st.sampled_from([0, 16, 256]),
    batch_rows=st.sampled_from([residuals.BATCH_ROWS, 12, 30]),
    compiled=st.booleans(),
)
def test_depth_driven_argmin_equals_the_full_scan(points, copies, overflow,
                                                  delta, p, bound, steps,
                                                  batch_rows, compiled):
    # Tied scores come from repeated points and from a score rounded down
    # to a grid, failing probes from a = 1e308, and a budget of 12 or 30
    # rows (12 per point) splits every run into chunks.  The argmin is the
    # full scan's: index and finiteness.
    points = np.array(points)
    points = np.concatenate([points, points[[c % len(points) for c in copies]]])
    points[[k % len(points) for k in overflow], 0] = 1e308
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odeint, "COMPILED", compiled)
        mp.setattr(residuals, "BATCH_ROWS", batch_rows)
        objective = _moment_objective(delta, p, bound, steps)
        if bound == "absent":
            assert not hasattr(objective, "argmin")
            return
        index, finite = objective.argmin(points)
        values = _moment_objective(delta, p, bound, steps).batch(points)
    best = int(np.argmin(values))
    assert (index, finite) == (best, bool(np.isfinite(values[best])))


class _Drawn:
    """A bisection whose points' final levels and failing passes are drawn:
    the cells of :meth:`~hude.residuals._Bisection.cells` after any pass,
    from the levels' binary digits, and each run's failures."""

    def __init__(self, levels, fails, halvings):
        self.levels, self.fails, self.halvings = levels, fails, halvings

    def cells(self, points, start=0, stop=None, resume=None):
        index = points[:, 0].astype(int)
        stop = self.halvings if stop is None else min(stop, self.halvings)
        lo = np.floor(self.levels[index] * 2 ** stop) / 2 ** stop
        fail = self.fails[index]
        return lo, lo + 0.5 ** stop, (start <= fail) & (fail < stop)


@settings(max_examples=300, deadline=None)
@given(
    P=st.integers(min_value=1, max_value=12),
    M=st.integers(min_value=1, max_value=6),
    halvings=st.integers(min_value=0, max_value=10),
    p=st.integers(min_value=1, max_value=3),
    steps=st.sampled_from([0, 4, 16, 256]),
    data=st.data(),
)
def test_argmin_by_depth_equals_the_full_scan_on_drawn_levels(P, M, halvings,
                                                              p, steps, data):
    # Any final levels, with scores rounded down to a coarse grid so that
    # points of different levels tie, and any failing pass: the argmin of
    # the scores at full depth, index and finiteness, whichever point the
    # search scores first.
    grid = 2 ** halvings
    m = data.draw(st.lists(st.integers(min_value=0, max_value=grid - 1),
                           min_size=P * M, max_size=P * M))
    levels = ((np.array(m) + 0.5) / grid).reshape(P, M)
    fails = np.array(data.draw(st.lists(
        st.integers(min_value=-1, max_value=halvings + 2), min_size=P,
        max_size=P)))
    fails[fails >= halvings] = -1  # -1 or beyond the last pass: no failure

    def stepped(values):
        return np.floor(values * steps) / steps if steps else values

    bisection = _Drawn(levels, np.where(fails < 0, halvings + 1, fails),
                       halvings)
    points = np.arange(P, dtype=float)[:, None]
    got = estimate._argmin_by_depth(
        bisection, points, lambda eps: stepped(_moment_scores(eps, p)),
        lambda lo, hi: stepped(_moment_bounds(lo, hi, p)))
    values = np.where(fails >= 0, np.inf,
                      stepped(_moment_scores(levels, p)))
    best = int(np.argmin(values))
    assert got == (best, bool(np.isfinite(values[best])))


@settings(max_examples=100, deadline=None)
@given(
    M=st.integers(min_value=1, max_value=80),
    P=st.integers(min_value=1, max_value=4),
    p=st.integers(min_value=1, max_value=4),
    halvings=st.integers(min_value=1, max_value=24),
    data=st.data(),
)
def test_moment_bound_lies_below_the_exact_score(M, P, p, halvings, data):
    # The final levels are midpoints of cells of the last pass; after any
    # earlier pass each lies in that pass's cell.  Saturated rows are drawn
    # often: their cells end at 0 or 1.
    grid = 2 ** halvings
    cell = st.one_of(st.integers(min_value=0, max_value=grid - 1),
                     st.sampled_from([0, grid - 1]))
    m = np.array(data.draw(st.lists(cell, min_size=P * M, max_size=P * M)))
    eps = ((m + 0.5) / grid).reshape(P, M)
    depth = data.draw(st.integers(min_value=0, max_value=halvings))
    lo = np.floor(eps * 2 ** depth) / 2 ** depth
    hi = lo + 0.5 ** depth
    bounds = _moment_bounds(lo, hi, p)
    exact = _moment_scores(eps, p)
    assert bounds.shape == exact.shape
    assert (bounds <= exact).all()


def test_presearch_of_the_reactor_demo_reads_a_quarter_of_the_work(
        monkeypatch):
    # The demo's ladder of 100 points took 8.40 M row-steps at full depth:
    # 100 x 60 rows x 14 passes x 100 steps.  Bisected only as deep as its
    # argmin needs it takes 2.10 M, and the fit is the same: 52 Nelder-Mead
    # iterations and 140 objective evaluations.
    model, series = reactor.build_reactor_hude(reactor.THERMAL_U235), \
        reactor.table3()
    work, nelder_mead, presearch = [], [], []
    cells, argmin = residuals._Bisection.cells, estimate._argmin_by_depth
    search = estimate._nelder_mead_box

    def bisecting(self, thetas, start=0, stop=None, resume=None):
        out = cells(self, thetas, start, stop, resume)
        if presearch:
            _, t0s, _, t1s, _ = self.rows
            steps = np.ceil((t1s - t0s) / self.h - 1e-9).sum()
            passes = min(self.halvings if stop is None else stop,
                         self.halvings) - start
            work.append(int(len(thetas) * steps * passes))
        return out

    def scanning(*args):
        presearch.append(True)
        try:
            return argmin(*args)
        finally:
            presearch.clear()

    def searching(*args, **kwargs):
        result = search(*args, **kwargs)
        nelder_mead.append(result[2:])
        return result

    monkeypatch.setattr(residuals._Bisection, "cells", bisecting)
    monkeypatch.setattr(estimate, "_argmin_by_depth", scanning)
    monkeypatch.setattr(estimate, "_nelder_mead_box", searching)
    result = hude.estimate_moments(
        model, series, bounds=[(0.0, 1.0), (0.0, 1.0)], h=1e-3, restarts=2,
        maxiter=200, threshold=1e-6, seed=0)
    assert result.iterations == 52
    assert sum(work) <= 3_800_000
    assert sum(work) == 2_100_000
    assert tuple(map(sum, zip(*nelder_mead))) == (52, 140)


def _reflect_into_box(x, lo, hi):
    width = hi - lo
    y = (np.asarray(x, dtype=float) - lo) % (2.0 * width)
    return lo + np.where(y > width, 2.0 * width - y, y)


def _evaluate(objective, points):
    batch = getattr(objective, "batch", None)
    if batch is None:
        return np.array([objective(point) for point in points])
    return np.asarray(batch(points), dtype=float)


def _array_nelder_mead_box(f, x0, lo, hi, maxiter=400):
    """The array form of :func:`~hude.estimate._nelder_mead_box`, kept as
    its oracle: the same steps on numpy arrays."""
    n = len(x0)
    simplex = [np.array(x0, dtype=float)]
    for i in range(n):
        step = 0.05 * (hi[i] - lo[i]) or 1e-4
        vertex = np.array(x0, dtype=float)
        vertex[i] += step
        simplex.append(_reflect_into_box(vertex, lo, hi))
    simplex = np.array(simplex)
    values = _evaluate(f, simplex)
    nfev = n + 1
    iterations = 0

    def toward(a, b, t):
        with np.errstate(over="ignore", invalid="ignore"):
            return _reflect_into_box(a + t * (b - a), lo, hi)

    for iterations in range(1, maxiter + 1):
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        with np.errstate(over="ignore", invalid="ignore"):
            spread = np.max(np.abs(simplex[1:] - simplex[0]))
            fspread = values[-1] - values[0]
        if spread <= XATOL and (not np.isfinite(fspread) or fspread <= FATOL):
            break
        with np.errstate(over="ignore"):
            centroid = simplex[:-1].mean(axis=0)
        reflected = toward(centroid, simplex[-1], -1.0)
        f_r = f(reflected)
        nfev += 1
        if f_r < values[0]:
            expanded = toward(centroid, simplex[-1], -2.0)
            f_e = f(expanded)
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
        f_c = f(contracted)
        nfev += 1
        if f_c < min(f_r, values[-1]):
            simplex[-1], values[-1] = contracted, f_c
            continue
        for i in range(1, n + 1):
            simplex[i] = toward(simplex[0], simplex[i], 0.5)
        values[1:] = _evaluate(f, simplex[1:])
        nfev += n
    best = int(np.argmin(values))
    return simplex[best], float(values[best]), iterations, nfev


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@st.composite
def _boxes(draw):
    # A box of each kind: a unit box, a wide one, and one so wide that its
    # width doubled overflows, near the largest float.
    p = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["unit", "wide", "huge"]))
    lo, hi = [], []
    for _ in range(p):
        if kind == "unit":
            a = draw(st.floats(min_value=-2.0, max_value=1.0))
            b = a + draw(st.floats(min_value=1e-3, max_value=3.0))
        elif kind == "wide":
            a = draw(st.floats(min_value=-1e10, max_value=1e10))
            b = a + draw(st.floats(min_value=1.0, max_value=1e12))
        else:
            a = draw(st.floats(min_value=-1.7e308, max_value=0.0))
            b = a + draw(st.floats(min_value=9e307, max_value=1.7e308))
            if not math.isfinite(b):
                b = 1.7e308
        lo.append(a)
        hi.append(b)
    lo, hi = np.array(lo), np.array(hi)
    t = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=p,
                      max_size=p))
    x0 = np.minimum(np.maximum(lo + np.array(t) * (hi - lo), lo), hi)
    return x0, lo, hi


@settings(max_examples=150, deadline=None)
@given(
    box=_boxes(),
    centre=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3,
                    max_size=3),
    # Where the objective is inf (a failed probe) or NaN.
    inf_above=st.one_of(st.none(), st.floats(min_value=-1.0, max_value=2.0)),
    nan_below=st.one_of(st.none(), st.floats(min_value=-2.0, max_value=0.0)),
    plateau=st.booleans(),
    batched=st.booleans(),
    maxiter=st.integers(min_value=1, max_value=80),
)
def test_float_nelder_mead_equals_the_array_form(box, centre, inf_above,
                                                 nan_below, plateau, batched,
                                                 maxiter):
    x0, lo, hi = box
    c = np.array(centre[:len(x0)])

    def f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            scaled = (x - lo) / (hi - lo)
            value = float(np.sum((scaled - c) ** 2))
        if plateau and math.isfinite(value):
            # Ties: a step function of the point, as residual scores are.
            value = math.floor(value * 8.0) / 8.0
        if inf_above is not None and scaled[0] > inf_above:
            return math.inf
        if nan_below is not None and scaled[-1] < nan_below:
            return math.nan
        return value

    if batched:
        f.batch = lambda points: [f(x) for x in points]
    got = _nelder_mead_box(f, x0, lo, hi, maxiter)
    with np.errstate(all="ignore"):
        # The array form warns where a width doubled overflows.
        expected = _array_nelder_mead_box(f, x0, lo, hi, maxiter)
    assert _bits(got[0]) == _bits(expected[0])
    assert _bits(got[1]) == _bits(expected[1])
    assert got[2:] == expected[2:]
