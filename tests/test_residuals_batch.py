"""Residuals of many parameter points from one bisection equal the per-point
residuals bit for bit, and a point that fails to integrate fails alone."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
from hude import compute_residuals, odeint, reactor
from hude import estimate, residuals
from hude.residuals import _Bisection, _restart_rows
from hude.estimate import _residual_objective, moment_objective
from hude.odeint import IntegrationError

pytestmark = pytest.mark.filterwarnings(
    "ignore::hude.AlphaPathConditionWarning")


def _batch(model, thetas, series, h, scheme="forward"):
    bisection = _Bisection(model, _restart_rows(model, series, scheme), 1e-4,
                           h, "euler")
    lo, hi, failed = bisection.cells(thetas)
    return 0.5 * (lo + hi), (lo <= 0.0) | (hi >= 1.0), failed


def _assert_matches_serial(model, thetas, series, h, scheme="forward"):
    levels, saturated, failed = _batch(model, thetas, series, h, scheme)
    assert len(levels) == len(saturated) == len(failed) == len(thetas)
    assert not failed.any()
    for point, eps, flags in zip(thetas, levels, saturated):
        serial = compute_residuals(model, dict(zip(model.params, point)), series,
                                   h=h, scheme=scheme)
        assert eps.tobytes() == serial.epsilons.tobytes()
        assert flags.tobytes() == serial.saturated.tobytes()


@pytest.fixture(scope="module")
def reactor_case():
    return reactor.build_reactor_hude(reactor.THERMAL_U235), reactor.table3()


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=4))
def test_reactor_batch_equals_serial(reactor_case, points):
    model, series = reactor_case
    _assert_matches_serial(model, np.array(points), series, h=1e-3)


def _stable_linear(roots, params=("m", "s")):
    """``x^(n) = m - sum_k c_k x^(k)`` whose characteristic roots are
    ``-roots``, with forcing ``m`` and noise level ``s`` as parameters,
    declared in the order ``params``, which may add ones the field never
    reads."""
    coeffs = np.poly(-np.asarray(roots))[1:][::-1]  # c_0 .. c_{n-1}
    drift = "m" + "".join(f" - {float(c)!r}*x{k}" for k, c in enumerate(coeffs))
    return hude.HudeModel.parse(len(roots), drift, ["s"], params=list(params))


@settings(max_examples=20, deadline=None)
@given(
    roots=st.lists(st.floats(min_value=0.5, max_value=3.0), min_size=1,
                   max_size=3),
    points=st.lists(
        st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                  st.floats(min_value=0.05, max_value=1.0),
                  st.floats(min_value=-1.0, max_value=1.0)),
        min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
    # The point matrix's columns follow the declared order, the plan's
    # parameter slots the order the field reads them in (m, then s).
    params=st.sampled_from([("m", "s"), ("s", "m"), ("s", "u", "m")]),
)
def test_linear_batch_equals_serial(roots, points, seed, params):
    model = _stable_linear(roots, params)
    init = hude.InitialState(0.0, np.linspace(1.0, 0.5, len(roots)))
    series = hude.simulate_observations(
        model, {"m": 0.3, "s": 0.4, "u": 0.0}, init, 0.1 * np.arange(16),
        seed=seed, h=1e-2,
    )
    thetas = np.array([[dict(zip("msu", point))[name] for name in params]
                       for point in points])
    _assert_matches_serial(model, thetas, series, h=1e-2, scheme="given")


# x' = a*x0 + 0.1*phi, whose probes at a = 1e308 overflow.
GROWTH = hude.HudeModel.parse(1, "a*x0", ["0.1"], params=["a"])
GROWTH_SERIES = hude.simulate_observations(
    GROWTH, {"a": -0.5}, hude.InitialState(0.0, [2.0]), 0.1 * np.arange(11),
    seed=5, h=1e-2,
)


@pytest.mark.parametrize("batch_rows", [residuals.BATCH_ROWS, 1, 25, 30])
def test_overflowing_point_fails_alone(monkeypatch, batch_rows):
    # A budget of 1, 25 or 30 rows (10 steps per point) splits the points
    # over several bisections, of 3 and 1 points at 30; the results must not
    # depend on the split.
    monkeypatch.setattr(residuals, "BATCH_ROWS", batch_rows)
    model, series = GROWTH, GROWTH_SERIES
    thetas = np.array([[-0.5], [1e308], [0.2], [-0.1]])
    with pytest.raises(IntegrationError):
        compute_residuals(model, {"a": 1e308}, series, h=1e-2)

    _, _, failed = _batch(model, thetas, series, h=1e-2)
    assert failed.tolist() == [False, True, False, False]
    _assert_matches_serial(model, thetas[[0, 2, 3]], series, h=1e-2)

    objective, _ = _residual_objective(
        model, _restart_rows(model, series, "forward"), _moment_scores, 1e-4,
        1e-2, "euler",
    )
    batched = objective.batch(thetas)
    assert batched[1] == np.inf
    assert objective(thetas[1]) == np.inf
    for k in (0, 2, 3):
        assert batched[k] == objective(thetas[k])


def test_batch_of_a_field_that_reads_no_parameter():
    # The plan has no parameter row to write each point's values into.
    model = hude.HudeModel.parse(1, "-0.5*x0", ["0.1"], params=["u"])
    _assert_matches_serial(model, np.array([[0.0], [1.0], [-2.0]]),
                           GROWTH_SERIES, h=1e-2)


def _moment_score(eps):
    return moment_objective(None, lambda _: eps, 2)


def _moment_scores(block):
    # The objective scores a batch's levels, one row per point.
    return [_moment_score(eps) for eps in block]


@settings(max_examples=8, deadline=None)
@given(
    sizes=st.permutations([100, 3, 1, 2, 100, 3, 1, 2, 1]),
    compiled=st.booleans(),
    # The compiled bisection's depth, and a delta beyond its cap.
    delta=st.sampled_from([1e-4, 0.5 ** (odeint._TABLE_DEPTH + 1)]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_reused_bisection_equals_a_fresh_one(sizes, compiled, delta, seed):
    # One objective runs one prepared bisection per batch size again and
    # again, also after overflowing points: a batch of three or more holds
    # one between two good ones, and a batch of one or two now and then
    # overflows.  Every point scores as a fresh bisection of it alone.
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odeint, "COMPILED", compiled)
        objective, residuals_at = _residual_objective(
            GROWTH, _restart_rows(GROWTH, GROWTH_SERIES, "forward"),
            _moment_scores, delta, 1e-2, "euler")
        for size in sizes:
            points = rng.uniform(-1.0, 0.5, (size, 1))
            if size >= 3 or rng.uniform() < 0.3:
                points[min(1, size - 1)] = 1e308
            values = (objective.batch(points) if size > 1 else
                      [objective(points[0])])
            for point, value in zip(points, values):
                try:
                    fresh = compute_residuals(GROWTH, {"a": point[0]},
                                              GROWTH_SERIES, delta, h=1e-2)
                except IntegrationError:
                    assert value == np.inf
                    continue
                assert value == _moment_score(fresh.epsilons)
                got = residuals_at(point)
                assert got.epsilons.tobytes() == fresh.epsilons.tobytes()
                assert got.saturated.tobytes() == fresh.saturated.tobytes()


@pytest.mark.parametrize("compiled", [True, False])
def test_fit_lowers_once_and_plans_once_per_batch_size(monkeypatch,
                                                       reactor_case,
                                                       compiled):
    # The reactor fit of hude reactor-demo bisects the ladder's 100 points
    # three passes deep, resumes 1 of them to full depth, then 31, 6 and 2
    # by one pass each, and scores batches of 3 (an initial simplex), 1 (a
    # Nelder-Mead probe) and 2 (a shrink).  It lowers the model once, and
    # checks and plans each batch size once, at its first run, compiled or
    # on the numpy kernels.
    model, series = reactor_case
    compiles, plans, calls = [], [], []
    compile_model, plan = residuals.compile_model, odeint._plan
    cells = residuals._Bisection.cells

    def compiling(*args, **kwargs):
        compiles.append(args)
        return compile_model(*args, **kwargs)

    def planning(raw, t0, *args, **kwargs):
        plans.append(np.size(t0))
        return plan(raw, t0, *args, **kwargs)

    def bisecting(self, thetas, *args):
        calls.append(len(thetas))
        return cells(self, thetas, *args)

    monkeypatch.setattr(odeint, "COMPILED", compiled)
    monkeypatch.setattr(residuals, "compile_model", compiling)
    monkeypatch.setattr(odeint, "_plan", planning)
    monkeypatch.setattr(residuals._Bisection, "cells", bisecting)
    result = hude.estimate_moments(
        model, series, bounds=[(0.0, 1.0), (0.0, 1.0)], h=1e-3, restarts=2,
        maxiter=200, threshold=1e-6, seed=0)
    assert result.iterations == 52
    M = len(_restart_rows(model, series, "forward")[0])
    assert len(compiles) == 1
    assert set(calls) == {100, 31, 6, 3, 2, 1}
    assert sorted(plans) == sorted(M * c for c in set(calls))


def _owner(array):
    # The array that owns the memory of a view.
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_fit_keeps_no_earlier_batch(monkeypatch, reactor_case):
    # The reactor fit holds one batch's levels at a time: every block of
    # levels it scored, and of cells it bounded, is gone when it starts the
    # next run of the bisection.  The cells a batch read, and the copies the
    # presearch keeps of its points' cells, are gone when the next batch of
    # every pass starts; past the presearch it keeps no run larger than a
    # simplex's batch.
    model, series = reactor_case
    scored, read, batches = [], [], []
    cells, scan = residuals._Bisection.cells, estimate._argmin_by_depth
    scores, bounds = estimate._moment_scores, estimate._moment_bounds

    def scoring(eps, p):
        scored.append(weakref.ref(eps))
        return scores(eps, p)

    def bounding(lo, hi, p):
        scored.extend(map(weakref.ref, (lo, hi)))
        return bounds(lo, hi, p)

    def bisecting(self, thetas, start=0, stop=None, resume=None):
        assert all(block() is None for block in scored)
        if stop is None:
            assert all(block() is None for block in read)
            assert max(self.runs, default=0) <= len(model.params) + 1
            batches.append(len(thetas))
        if resume is not None:
            read.extend(weakref.ref(_owner(c)) for c in resume)
        lo, hi, failed = cells(self, thetas, start, stop, resume)
        read.extend(map(weakref.ref, (lo, hi)))
        return lo, hi, failed

    def scanning(*args):
        batches.append("presearch")
        return scan(*args)

    monkeypatch.setattr(estimate, "_moment_scores", scoring)
    monkeypatch.setattr(estimate, "_moment_bounds", bounding)
    monkeypatch.setattr(estimate, "_argmin_by_depth", scanning)
    monkeypatch.setattr(residuals._Bisection, "cells", bisecting)
    result = hude.estimate_moments(
        model, series, bounds=[(0.0, 1.0), (0.0, 1.0)], h=1e-3, restarts=2,
        maxiter=200, threshold=1e-6, seed=0)
    assert result.iterations == 52
    # The presearch, 119 batches of Nelder-Mead probes, then the estimate's
    # vector.
    assert batches[0] == "presearch" and "presearch" not in batches[1:]
    assert len(batches) == 121
    assert batches[1:4] == [3, 1, 1]


@pytest.mark.parametrize("source", [
    "-(2.5)*c*x1 + c*(0.3*x0 - x1)",
    "x0^c",
    "exp(c*x0)",
    "abs(c)*x1",
    "exp(-c)*x0 + ln(abs(c) + 1)*x1",
    "sin(c)*x0 + cos(c)*x1",
    "x1^c - (abs(c) + 1)^x0",
])
def test_parameter_rows_evaluate_like_floats(source):
    # Row i of the row-array binding must equal row i of the float binding at
    # c[i], both evaluated over the whole batch (as the serial residual path
    # does) and on that row alone.  numpy squares, roots or inverts for a
    # float exponent of 2.0, 0.5 or -1.0 and calls pow for an array of them,
    # which rounds about one element in twenty differently: each is repeated.
    ast = hude.parse_expr(source, 2, ["c"])
    rng = np.random.default_rng(7)
    c = np.concatenate([[0.0, 1e-3, 0.7, 12.0, -1.5],
                        np.repeat([2.0, 0.5, -1.0], 40),
                        rng.uniform(-3, 3, 40)])
    x = rng.uniform(0.01, 4.0, (c.size, 2))
    rows = hude.compile_expr(ast, {"c": c})(0.0, x)
    for i in range(c.size):
        scalar = hude.compile_expr(ast, {"c": float(c[i])})
        assert rows[i] == scalar(0.0, x)[i]
        assert rows[i] == scalar(0.0, x[i])
