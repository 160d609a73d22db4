"""Residuals of many parameter points from one bisection equal the per-point
residuals bit for bit, and a point that fails to integrate fails alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
from hude import compute_residuals, reactor
from hude import residuals
from hude.residuals import _batch_levels, _restart_rows
from hude.estimate import _residual_objective, moment_objective
from hude.odeint import IntegrationError

pytestmark = pytest.mark.filterwarnings(
    "ignore::hude.AlphaPathConditionWarning",
    "ignore::hude.ResidualSaturationWarning",
)


def _batch(model, thetas, series, h, scheme="forward"):
    return _batch_levels(model, thetas, _restart_rows(model, series, scheme),
                         1e-4, h, "euler")


def _assert_matches_serial(model, thetas, series, h, scheme="forward"):
    batch = _batch(model, thetas, series, h, scheme)
    assert len(batch) == len(thetas)
    for point, levels in zip(thetas, batch):
        serial = compute_residuals(model, dict(zip(model.params, point)), series,
                                   h=h, scheme=scheme)
        assert levels is not None
        eps, saturated = levels
        assert eps.tobytes() == serial.epsilons.tobytes()
        assert saturated.tobytes() == serial.saturated.tobytes()


@pytest.fixture(scope="module")
def reactor_case():
    return reactor.build_reactor_hude(reactor.THERMAL_U235), reactor.table3()


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=4))
def test_reactor_batch_equals_serial(reactor_case, points):
    model, series = reactor_case
    _assert_matches_serial(model, np.array(points), series, h=1e-3)


def _stable_linear(roots):
    """``x^(n) = m - sum_k c_k x^(k)`` whose characteristic roots are
    ``-roots``, with forcing ``m`` and noise level ``s`` as parameters."""
    coeffs = np.poly(-np.asarray(roots))[1:][::-1]  # c_0 .. c_{n-1}
    drift = "m" + "".join(f" - {float(c)!r}*x{k}" for k, c in enumerate(coeffs))
    return hude.HudeModel.parse(len(roots), drift, ["s"], params=["m", "s"])


@settings(max_examples=20, deadline=None)
@given(
    roots=st.lists(st.floats(min_value=0.5, max_value=3.0), min_size=1,
                   max_size=3),
    points=st.lists(
        st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                  st.floats(min_value=0.05, max_value=1.0)),
        min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_linear_batch_equals_serial(roots, points, seed):
    model = _stable_linear(roots)
    init = hude.InitialState(0.0, np.linspace(1.0, 0.5, len(roots)))
    series = hude.simulate_observations(
        model, {"m": 0.3, "s": 0.4}, init, 0.1 * np.arange(16), seed=seed,
        h=1e-2,
    )
    _assert_matches_serial(model, np.array(points), series, h=1e-2,
                           scheme="given")


@pytest.mark.parametrize("batch_rows", [residuals.BATCH_ROWS, 1, 25])
def test_overflowing_point_fails_alone(monkeypatch, batch_rows):
    # A budget of 1 or 25 rows (10 steps per point) splits the points over
    # several bisections; the results must not depend on the split.
    monkeypatch.setattr(residuals, "BATCH_ROWS", batch_rows)
    model = hude.HudeModel.parse(1, "a*x0", ["0.1"], params=["a"])
    series = hude.simulate_observations(
        model, {"a": -0.5}, hude.InitialState(0.0, [2.0]),
        0.1 * np.arange(11), seed=5, h=1e-2,
    )
    thetas = np.array([[-0.5], [1e308], [0.2], [-0.1]])
    with pytest.raises(IntegrationError):
        compute_residuals(model, {"a": 1e308}, series, h=1e-2)

    batch = _batch(model, thetas, series, h=1e-2)
    assert len(batch) == len(thetas)
    assert batch[1] is None
    _assert_matches_serial(model, thetas[[0, 2, 3]], series, h=1e-2)

    objective, _ = _residual_objective(
        model, series, lambda eps: moment_objective(None, lambda _: eps, 2),
        [(-1.0, 1.0)], 1e-4, 1e-2, "forward", "euler",
    )
    batched = objective.batch(thetas)
    assert batched[1] == np.inf
    assert objective(thetas[1]) == np.inf
    for k in (0, 2, 3):
        assert batched[k] == objective(thetas[k])


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
