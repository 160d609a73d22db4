"""The bisection halves every row once per integration pass: it equals the
sequential reference bit for bit, a batch equals each row bisected alone, and
each pass integrates every row once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
from hude import odeint, residuals
from hude.model import ReducedField, _clamped_phi, compile_model
from hude.odeint import _terminal_state_batch
from hude.residuals import _bisect_levels


def _sequential_levels(model, theta, t0s, y0s, t1s, x_next, delta, h, method):
    """One level per integration pass while the interval is wider than
    ``delta``, kept as the reference.  Its failure is the lowest non-finite
    row of the first failing pass, with the level that row probed there."""
    code, values = compile_model(model, theta)
    B = len(x_next)
    lo = np.zeros(B)
    hi = np.ones(B)
    failed = np.zeros(B, dtype=bool)
    failure = None
    while float(np.max(hi - lo)) > delta:
        mid = 0.5 * (lo + hi)
        raw = ReducedField(code, values, _clamped_phi(mid))
        terminal = _terminal_state_batch(raw, t0s, y0s, t1s, h, method)
        finite = np.isfinite(terminal).all(axis=1)
        if failure is None and not finite.all():
            row = int(np.argmin(finite))
            failure = (row, float(mid[row]))
        failed |= ~finite
        below = terminal[:, 0] < x_next
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    eps = 0.5 * (lo + hi)
    saturated = (lo <= 0.0) | (hi >= 1.0)
    return eps, saturated, failed, failure


# name -> (order, drift, diffusion, parameter ranges, state range, target range)
CASES = {
    "linear": (1, "m - 1.5*x0", "s", {"m": (-1.0, 1.0), "s": (0.05, 1.0)},
               (-1.0, 2.0), (-1.0, 2.0)),
    # Not monotone in the state: the terminal value is not monotone in the
    # level either, so each row must take exactly the halves halving takes.
    "non_monotone": (2, "-x0^3 + sin(x1)", "s*(1 + x0^2)",
                     {"s": (0.1, 2.0)}, (-1.5, 1.5), (-1.5, 1.5)),
    # Riccati blow-up: rows overflow at high levels only, some rows at every
    # probe, some at none.
    "overflow": (1, "x0^2", "c", {"c": (0.5, 5.0)}, (0.0, 6.0), (-2.0, 8.0)),
    # Targets mostly beyond every finite value: rows climb towards the top
    # and fail at a level that differs from row to row, seldom the first.
    "overflow_far": (1, "x0^2", "c", {"c": (0.5, 5.0)}, (0.0, 1.5),
                     (0.0, 1e308)),
    # The same blow-up in ops that compile to C.
    "overflow_far_c": (1, "x0*x0", "c", {"c": (0.5, 5.0)}, (0.0, 1.5),
                       (0.0, 1e308)),
}


def _case(name, rows, seed, row_theta):
    order, drift, diffusion, ranges, state, target = CASES[name]
    model = hude.HudeModel.parse(order, drift, [diffusion], params=list(ranges))
    rng = np.random.default_rng(seed)
    theta = {k: (rng.uniform(lo, hi, rows) if row_theta else
                 float(rng.uniform(lo, hi)))
             for k, (lo, hi) in ranges.items()}
    t0s = rng.uniform(0.0, 1.0, rows)
    t1s = t0s + rng.uniform(0.05, 1.5, rows)
    y0s = rng.uniform(*state, (rows, order))
    x_next = rng.uniform(*target, rows)
    return model, theta, t0s, y0s, t1s, x_next


def _bits(a):
    return np.asarray(a).view(np.uint8)


def _assert_same(got, expected):
    """Levels, saturation and failure flags equal bit for bit, and the same
    failure."""
    *arrays, failure = got
    assert failure == expected[-1]
    for a, b in zip(arrays, expected[:-1], strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(_bits(a), _bits(b))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CASES)),
    rows=st.integers(min_value=1, max_value=300),
    delta=st.sampled_from([0.3, 1e-2, 1e-4, 1e-7]),
    method=st.sampled_from(["euler", "rk4"]),
    row_theta=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bisection_equals_sequential_halving(name, rows, delta, method,
                                            row_theta, seed):
    model, theta, *arrays = _case(name, rows, seed, row_theta)
    args = (model, theta, *arrays, delta, 0.1, method)
    _assert_same(_bisect_levels(*args), _sequential_levels(*args))


def _row(theta, i):
    return {k: v[i:i + 1] if np.ndim(v) else v for k, v in theta.items()}


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(CASES)),
    rows=st.integers(min_value=1, max_value=40),
    delta=st.sampled_from([0.3, 1e-2, 1e-4]),
    method=st.sampled_from(["euler", "rk4"]),
    row_theta=st.booleans(),
    compiled=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_equals_rows_bisected_alone(name, rows, delta, method,
                                          row_theta, compiled, seed):
    # Up to 40 rows: a batch of two or more runs the numpy column kernel, a
    # row alone the row kernel, and both the C kernel where the field
    # compiles.
    model, theta, t0s, y0s, t1s, x_next = _case(name, rows, seed, row_theta)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(odeint, "COMPILED", compiled)
        batch = _bisect_levels(model, theta, t0s, y0s, t1s, x_next, delta,
                               0.1, method)
        alone = [_bisect_levels(model, _row(theta, i), t0s[i:i + 1],
                                y0s[i:i + 1], t1s[i:i + 1], x_next[i:i + 1],
                                delta, 0.1, method) for i in range(rows)]
    for got, expected in zip(batch[:3], zip(*(a[:3] for a in alone))):
        assert np.array_equal(_bits(got), _bits(np.concatenate(expected)))
    if batch[3] is None:
        assert not batch[2].any()
    else:
        # The failed row probed the same level on its own.
        row, level = batch[3]
        assert alone[row][3] == (0, level)


def _pass_sizes(monkeypatch, rows, delta=1e-4):
    sizes = []

    def counting(raw, t0, *args, **kwargs):
        sizes.append(len(t0))
        return _terminal_state_batch(raw, t0, *args, **kwargs)

    monkeypatch.setattr(residuals, "_terminal_state_batch", counting)
    model, theta, *arrays = _case("linear", rows, 0, True)
    _bisect_levels(model, theta, *arrays, delta, 0.1, "euler")
    return sizes


@pytest.mark.parametrize("rows, passes", [
    (60, [60] * 14),
    (1, [1] * 14),
    (300, [300] * 14),
    (2000, [2000] * 14),
])
def test_levels_per_pass(monkeypatch, rows, passes):
    # One level per pass: every pass integrates each row once.
    assert _pass_sizes(monkeypatch, rows) == passes


def test_coarse_delta_takes_no_pass(monkeypatch):
    assert _pass_sizes(monkeypatch, 5, delta=1.0) == []


def test_row_parameters_compile_once(monkeypatch):
    # Each pass binds the parameter values of every row to the code of
    # one compile.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_model(*args, **kwargs)

    monkeypatch.setattr(residuals, "compile_model", counting)
    assert len(_pass_sizes(monkeypatch, 60)) == 14
    assert len(calls) == 1


def test_overflow_at_unvisited_probes_is_ignored(monkeypatch):
    # x' = x^2 + 3*phi from 1.2 over 1.5 overflows above level ~0.98 with this
    # step; the target 0 lies near level 0.3, so halving never probes there.
    model = hude.HudeModel.parse(1, "x0^2", ["c"], params=["c"])
    args = (model, {"c": 3.0}, np.zeros(1), np.array([[1.2]]), np.array([1.5]),
            np.zeros(1), 1e-4, 0.1, "euler")
    finite = []

    def recording(*a, **k):
        terminal = _terminal_state_batch(*a, **k)
        finite.append(bool(np.isfinite(terminal).all()))
        return terminal

    monkeypatch.setattr(residuals, "_terminal_state_batch", recording)
    with np.errstate(all="ignore"):
        got = _bisect_levels(*args)
        expected = _sequential_levels(*args)
    # No pass integrates an overflowing probe.
    assert finite == [True] * 14
    assert not got[2].any()
    _assert_same(got, expected)
