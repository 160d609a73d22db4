import ctypes
import logging
import math
import os
import platform
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
import hude.native
from hude import InitialState, IntegrationError, Trajectory, integrate_euler, integrate_rk4
from hude import odeint
from hude.model import (ReducedField, VectorField, alpha_path_field,
                        compile_model, phi_inv)
from hude.odeint import _generated, _terminal_state_batch, integrate
from hude.reactor import (CASE_STUDY_INIT, FITTED_THETA, THERMAL_U235, ReactorParams,
                          build_point_kinetics, build_reactor_hude, table3)
from hude.residuals import _bisect_levels

from conftest import ast_strategy, example1_closed_form
from test_bisect import _case


def _kernel(field, *args):
    # The generated kernel that _terminal_state_batch runs for ``field``.
    lowered, bound = field._bound()
    return _generated(lowered, ", ".join(bound), *args)


def _compiler_found():
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return bool(cc) and shutil.which(cc[0]) is not None


# The compiled kernels are built with the interpreter's C compiler; without
# one every field runs on the numpy kernels.
COMPILER_FOUND = _compiler_found()

# COMPILED of the numpy kernels, and of the compiled kernel where the field
# has one.
BACKENDS = [False, True]


def exp_field():
    return VectorField(lambda t, y: y.copy(), 1)


def zero_field(n):
    return VectorField(lambda t, y: np.zeros_like(y), n)


class TestEuler:
    def test_zero_field_constant(self):
        init = InitialState(0.0, [1.2157, 0.008])
        path = integrate_euler(zero_field(2), init, 2.0, h=0.01)
        assert np.all(path.y == [1.2157, 0.008])

    def test_exponential_growth(self):
        path = integrate_euler(exp_field(), InitialState(0.0, [1.0]), 1.0, h=1e-4)
        assert path.final_state[0] == pytest.approx(2.71814, abs=2e-4)

    def test_first_order_convergence(self):
        init = InitialState(0.0, [1.0])

        def global_error(h):
            return abs(integrate_euler(exp_field(), init, 1.0, h=h).final_state[0] - math.e)

        ratio = global_error(2e-3) / global_error(1e-3)
        assert 1.6 <= ratio <= 2.4

    def test_example2_alpha_path(self, example2, zero_init2):
        field = alpha_path_field(example2, None, 0.9)
        path = integrate_euler(field, zero_init2, 1.0, h=1e-4)
        oracle = math.sqrt(3) / (16 * math.pi) * (
            math.exp(3) - math.exp(-1) - 4 * math.exp(-1)
        ) * math.log(9)
        assert path.final_state[0] == pytest.approx(oracle, abs=2e-3)
        assert path.final_state[0] == pytest.approx(1.3815, abs=2e-3)


class TestRk4:
    def test_exponential_growth(self):
        path = integrate_rk4(exp_field(), InitialState(0.0, [1.0]), 1.0, h=1e-2)
        assert path.final_state[0] == pytest.approx(2.718282, abs=1e-6)

    def test_zero_field_constant(self):
        init = InitialState(0.0, [3.0, -1.0, 0.5])
        path = integrate_rk4(zero_field(3), init, 1.0, h=0.05)
        assert np.all(path.y == init.values)

    def test_example1_with_quantile_forcing(self, example1, zero_init2):
        # at the median-crossing level the closed form is
        # (p/2)(-cos t + sin t + e^{-t}) with p the 0.4-quantile of the noise
        field = alpha_path_field(example1, None, 0.4)
        t_end = 3 * math.pi / 2
        path = integrate_rk4(field, zero_init2, t_end, h=1e-3)
        assert path.final_state[0] == pytest.approx(0.11078, abs=1e-4)
        assert path.final_state[0] == pytest.approx(
            example1_closed_form(t_end, 0.4), abs=1e-9
        )

    def test_fourth_order_scaling(self):
        init = InitialState(0.0, [1.0])

        def global_error(h):
            return abs(integrate_rk4(exp_field(), init, 1.0, h=h).final_state[0] - math.e)

        ratio = global_error(2e-2) / global_error(1e-2)
        assert 10.0 <= ratio <= 22.0


class TestContract:
    def test_first_row_is_initial_state(self, example2, zero_init2):
        field = alpha_path_field(example2, None, 0.7)
        path = integrate_euler(field, zero_init2, 0.5, h=1e-3)
        assert np.array_equal(path.y[0], zero_init2.values)
        assert path.t[0] == zero_init2.t0

    def test_final_point_is_t_end(self):
        path = integrate_euler(exp_field(), InitialState(0.0, [1.0]), 0.95, h=0.1)
        assert path.t[-1] == 0.95
        assert len(path) == 11  # nine full steps plus a shortened one

    def test_non_finite_state_raises_with_time(self):
        blow_up = VectorField(lambda t, y: 1e160 * y * y, 1)
        with pytest.raises(IntegrationError) as exc:
            integrate_euler(blow_up, InitialState(0.0, [10.0]), 1.0, h=0.01)
        assert 0.0 < exc.value.t <= 1.0
        # x' = x^2 from 1 blows up at t = 1; the failing grid times are pinned
        square = VectorField(lambda t, y: y * y, 1)
        for integrator, t in [(integrate_euler, 1.0170000000000001),
                              (integrate_rk4, 1.0030000000000001)]:
            with pytest.raises(IntegrationError) as exc:
                integrator(square, InitialState(0.0, [1.0]), 2.0, h=1e-3)
            assert exc.value.t == t

    def test_backward_integration_rejected(self):
        with pytest.raises(ValueError):
            integrate_euler(exp_field(), InitialState(1.0, [1.0]), 0.5, h=0.01)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            integrate_euler(exp_field(), InitialState(0.0, [1.0]), 1.0, h=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [exp_field(), "reduced"])
    def test_non_finite_end_time_or_step_rejected(self, bad, field):
        if field == "reduced":
            field = alpha_path_field(hude.HudeModel.parse(1, "-x0", ["0.1"]),
                                     None, 0.5)
        init = InitialState(0.0, [1.0])
        for t_end, h, name in [(bad, 0.1, "end time"), (1.0, bad, "step h")]:
            with pytest.raises(ValueError) as exc:
                integrate(field, init, t_end, h)
            assert str(exc.value) == f"{name} must be finite, got {bad!r}"
        with pytest.raises(ValueError, match="initial time must be finite"):
            integrate(field, InitialState(bad, [1.0]), 1.0, 0.1)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            hude.integrate(exp_field(), InitialState(0.0, [1.0]), 1.0, 0.1, "heun")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'both'"):
            _terminal_state_batch(exp_field().raw, 0.0, np.ones(1), 1.0, 0.1,
                                  mode="both")

    def test_chain_starts_from_one_state(self):
        field = ReducedField(*compile_model(hude.HudeModel.parse(1, "-x0"),
                                            None), 0.0)
        with pytest.raises(ValueError, match="a chain starts from one state"):
            _terminal_state_batch(field, np.zeros(2), np.ones((2, 1)),
                                  np.ones(2), 0.1, mode="chain")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field", [exp_field(), "reduced"])
    def test_step_count_beyond_int64_rejected(self, field):
        # 1e300 steps once wrapped to -2^63 in the int cast, and the whole
        # span became one step.
        if field == "reduced":
            field = alpha_path_field(hude.HudeModel.parse(1, "-x0"), None, 0.5)
        with pytest.raises(ValueError, match="more than an int64 counts"):
            _terminal_state_batch(field.raw, 0.0, [1.0], 1.0, 1e-300)
        with pytest.raises(ValueError, match="1e\\+300 steps of h=1.0"):
            integrate(field, InitialState(0.0, [1.0]), 1e300, 1.0)

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), 0.1)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_every_time_check_runs_the_one_time_rule(self, bad):
        # Times are finite and strictly increasing, wherever they come from,
        # and each caller names them in its own message.  NaN fails every
        # comparison, so an increasing-times check alone let it through.
        model = hude.HudeModel.parse(1, "-x0", ["0.1"])
        rule = "finite" if bad else "strictly increasing"
        calls = {
            "observation times": [
                lambda: hude.ObservationSeries([0.0, bad, 2.0], [1.0] * 3),
                lambda: hude.simulate_observations(
                    model, None, InitialState(0.0, [1.0]), [0.0, bad, 2.0],
                    h=0.05)],
            "time grid": [lambda: Trajectory([0.0, bad], [[1.0], [2.0]], 0.1)],
        }
        for noun, fns in calls.items():
            for fn in fns:
                with pytest.raises(ValueError) as exc:
                    fn()
                assert str(exc.value) == f"{noun} must be {rule}"


class TestCsv:
    def test_export_format_and_idempotency(self, tmp_path, example2, zero_init2):
        field = alpha_path_field(example2, None, 0.9)
        path = integrate_euler(field, zero_init2, 0.1, h=0.01)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        path.to_csv(out1)
        path.to_csv(out2)
        text = out1.read_text()
        assert text.splitlines()[0] == "t,x0,x1"
        assert len(text.splitlines()) == len(path) + 1
        assert out1.read_bytes() == out2.read_bytes()

    def test_full_precision(self, tmp_path):
        traj = Trajectory(np.array([0.0, 0.1]), np.array([[1 / 3], [2 / 3]]), 0.1)
        out = tmp_path / "c.csv"
        traj.to_csv(out)
        line = out.read_text().splitlines()[1]
        assert line.split(",")[1] == f"{1 / 3:.17g}"


@settings(max_examples=40, deadline=None)
@given(
    roots=st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=1,
                   max_size=3),
    forcing=st.sampled_from(["exp(-t)", "sin(t)"]),
    method=st.sampled_from(["euler", "rk4"]),
    h=st.sampled_from([1e-2, 3e-3]),
    rows=st.lists(
        st.tuples(st.floats(min_value=-1.0, max_value=1.0),
                  st.integers(min_value=0, max_value=40),
                  st.floats(min_value=0.05, max_value=0.95),
                  st.floats(min_value=0.05, max_value=0.95)),
        min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batched_endpoint_equals_recorded_endpoint(roots, forcing, method, h,
                                                   rows, seed):
    # A stable linear model with a time-dependent forcing term; every row has
    # its own start, level and a span that is not a multiple of h, so rows
    # finish after different step counts.
    n = len(roots)
    coeffs = np.poly(-np.asarray(roots))[1:][::-1]
    drift = f"0.5*{forcing}" + "".join(
        f" - {float(c)!r}*x{k}" for k, c in enumerate(coeffs))
    model = hude.HudeModel.parse(n, drift, ["0.2 + 0.1*cos(t)"])
    code, values = compile_model(model, None)
    t0s = np.array([r[0] for r in rows])
    t1s = t0s + np.array([(r[1] + r[2]) * h for r in rows])
    phis = phi_inv(np.array([r[3] for r in rows]))
    y0s = np.random.default_rng(seed).normal(size=(len(rows), n))
    batch = _terminal_state_batch(ReducedField(code, values, phis),
                                  t0s, y0s, t1s, h, method)
    for i in range(len(rows)):
        field = VectorField(ReducedField(code, values, phis[i]), n)
        path = integrate(field, InitialState(t0s[i], y0s[i]), t1s[i], h, method)
        assert batch[i].tobytes() == path.final_state.tobytes()


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_frozen_row_never_evaluated_past_its_end(method):
    # ln(1.05 - t) is finite only before t = 1.05.  The second row ends at 1.0
    # after 10 steps and stays frozen while the first takes 90; it must not
    # be evaluated at t0 + k*h beyond its own end.
    model = hude.HudeModel.parse(1, "ln(1.05 - t)")
    raw = ReducedField(*compile_model(model, None), 0.0)
    t0s, t1s = np.array([0.0, 0.9]), np.array([0.9, 1.0])
    batch = _terminal_state_batch(raw, t0s, np.zeros((2, 1)), t1s, 0.01, method)
    for i in range(2):
        path = integrate(VectorField(raw, 1), InitialState(t0s[i], [0.0]),
                         t1s[i], 0.01, method)
        assert batch[i].tobytes() == path.final_state.tobytes()


def test_finished_row_keeps_a_state_where_the_field_overflows():
    # x' = x^2: one Euler step of 1e-154 takes the first row from 1e154 to
    # 2e154, where x^2 overflows.  That row is done while the second row takes
    # a second step; it keeps its state, as when integrated alone, instead of
    # stepping by 0 * inf = NaN.
    raw = ReducedField(*compile_model(hude.HudeModel.parse(1, "x0^2"), None), 0.0)
    y0s = np.array([[1e154], [0.0]])
    batch = _terminal_state_batch(raw, np.zeros(2), y0s,
                                  np.array([1e-154, 2e-154]), 1e-154)
    alone = _terminal_state_batch(raw, 0.0, y0s[0], 1e-154, 1e-154)
    assert batch[0].tobytes() == alone.tobytes() == np.array([2e154]).tobytes()


# The array core the column core replaced, kept as the bitwise reference: one
# (B, n) state array per step, the reduced field written into a fresh array
# from each expression compiled on its own.
def _array_rhs(model, theta, phi):
    drift = hude.compile_expr(model.drift, theta)
    diffusions = [hude.compile_expr(g, theta) for g in model.diffusions]
    skip_noise = not diffusions or (np.ndim(phi) == 0 and phi == 0.0)

    def raw(t, y):
        F = np.empty_like(y)
        F[..., :-1] = y[..., 1:]
        val = drift(t, y)
        if not skip_noise:
            for g in diffusions:
                val = val + np.abs(g(t, y)) * phi
        F[..., -1] = val
        return F

    return raw


def _array_euler(raw, t, y, s, sc):
    return y + sc * raw(t, y)


def _array_rk4(raw, t, y, s, sc):
    half, hc = 0.5 * s, 0.5 * sc
    k1 = raw(t, y)
    k2 = raw(t + half, y + hc * k1)
    k3 = raw(t + half, y + hc * k2)
    k4 = raw(t + s, y + sc * k3)
    return y + (sc / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _array_core(raw, t0, y0, t_end, h, method, track_extremes=False,
                record=False):
    step = {"euler": _array_euler, "rk4": _array_rk4}[method]
    t0 = np.asarray(t0, dtype=float)[()]
    y = np.array(y0, dtype=float)
    t_end = np.asarray(t_end, dtype=float)
    span = t_end - t0
    nsteps = np.maximum(np.ceil(span / h - 1e-9).astype(int), 1)
    last = span - (nsteps - 1) * h
    total = int(nsteps.max())
    shared = int(nsteps.min()) - 1
    if record:
        Y = np.empty((total + 1,) + y.shape)
        Y[0] = y
    mins = y.min(axis=0) if track_extremes else None
    maxs = y.max(axis=0) if track_extremes else None
    s = sc = h
    with np.errstate(all="ignore"):
        for k in range(total):
            t = t0 + k * h
            if k >= shared:
                s = np.where(k < nsteps - 1, h,
                             np.where(k == nsteps - 1, last, 0.0))
                sc = s[:, None] if y.ndim == 2 else s
                t = np.minimum(t, t_end)
            stepped = step(raw, t, y, s, sc)
            # A finished row (step 0) keeps its state, also where 0*F is NaN.
            y = np.where(sc == 0.0, y, stepped) if k > shared else stepped
            if record:
                Y[k + 1] = y
            if track_extremes:
                mins = np.minimum(mins, y.min(axis=0))
                maxs = np.maximum(maxs, y.max(axis=0))
    if record:
        return Y
    return (y, mins, maxs) if track_extremes else y


# Right-hand-side terms with every operator and function of the language;
# {k} is a state index below the order.  A bare state, a parameter-only and
# a time-only term make the column kernel copy, hoist and re-evaluate; a
# parameter exponent is kept unspread, and a time-only power is re-evaluated
# at each stage.
TERMS = ["-0.7*x{k}", "0.3*t*x{k}", "exp(-x{k}^2)", "ln(1.5 + sin(a*t))",
         "x{k}/(2 + t)", "abs(x{k} - b)", "a*x{k}^2", "1/(x{k} + 0.25)",
         "-b*cos(x{k})", "x{k}", "a*b", "cos(t)", "abs(x{k})^a", "2^(b*t)"]


@st.composite
def _column_case(draw):
    n = draw(st.integers(min_value=1, max_value=3))

    def expr():
        picks = draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=3))
        return " + ".join(p.format(k=draw(st.integers(0, n - 1))) for p in picks)

    drift = expr()
    diffusions = [expr() for _ in range(draw(st.integers(0, 2)))]
    one_row = draw(st.booleans())
    # Small batches, and large ones whose rows finish at many different steps.
    rows = 1 if one_row else draw(st.one_of(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=40),
        st.just(80)))
    h = draw(st.sampled_from([0.05, 0.02]))
    spans = [(draw(st.integers(0, 30)) + draw(st.floats(0.05, 1.0))) * h
             for _ in range(rows)]
    level = st.one_of(st.just(0.5), st.floats(0.05, 0.95))
    levels = [draw(level) for _ in range(rows)]
    row_theta = not one_row and draw(st.booleans())
    return dict(n=n, drift=drift, diffusions=diffusions, one_row=one_row,
                rows=rows, h=h, spans=spans, levels=levels,
                row_theta=row_theta,
                method=draw(st.sampled_from(["euler", "rk4"])),
                seed=draw(st.integers(0, 2**16)))


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _same_but_nan_sign(a, b):
    return _same(*(np.where(np.isnan(v), np.nan, v) for v in (a, b)))


def _modes(got):
    return got if isinstance(got, tuple) else (got,)


def _outcome(fn):
    try:
        return fn()
    except IntegrationError as exc:
        return ("failed", exc.t)


@settings(max_examples=80, deadline=None)
@given(case=_column_case())
def test_column_core_equals_array_core(case):
    n, rows, h, method = case["n"], case["rows"], case["h"], case["method"]
    rng = np.random.default_rng(case["seed"])
    model = hude.HudeModel.parse(n, case["drift"], case["diffusions"],
                                 params=["a", "b"])
    if case["row_theta"]:
        theta = {"a": rng.uniform(-2, 2, rows), "b": rng.uniform(-1, 1, rows)}
    else:
        theta = {"a": float(rng.uniform(-2, 2)), "b": float(rng.uniform(-1, 1))}
    t0s = rng.uniform(-1.0, 1.0, rows)
    t1s = t0s + np.array(case["spans"])
    y0s = rng.uniform(-1.0, 1.0, (rows, n))
    phis = phi_inv(np.array(case["levels"]))
    if case["one_row"]:
        # A float level and a (n,) state: the columns are scalars.
        args = (t0s[0], y0s[0], t1s[0], h, method)
        phi = float(phis[0])
    else:
        args = (t0s, y0s, t1s, h, method)
        phi = phis
    column = ReducedField(*compile_model(model, theta), phi)
    array = _array_rhs(model, theta, phi)
    # The array core took one row as a (1, n) batch.
    expected = _array_core(array, t0s, y0s, t1s, h, method,
                           track_extremes=True)
    finite = np.isfinite(expected[0]).all(axis=1)
    recorded = _array_core(array, *args, record=True) if case["one_row"] else None

    # The numpy kernels run a batch of two or more rows through the generated
    # column kernel, and one row at a time through the generated row kernel,
    # which also runs every recorded path.  Every bit agrees except the sign
    # of a NaN: where two NaNs of opposite sign meet, float and array
    # arithmetic propagate different ones, and numpy's vectorised min/max of
    # 9 or more values returns NaN positive.  The integrator returns
    # non-finite states as they are; a recorded path fails at its first
    # non-finite grid point.
    same = _same if finite.all() else _same_but_nan_sign
    with mock.patch.object(odeint, "COMPILED", False):
        got = _terminal_state_batch(column, *args, mode="extremes")
        assert all(_same_but_nan_sign(a, b) for a, b in zip(got, expected))
        got = _terminal_state_batch(column, *args)
        assert same(got, expected[0].reshape(np.shape(got)))
        if recorded is None:
            # The batch's rows run alone.
            got = _rows_alone(column, *args, mode="extremes")
            assert all(_same_but_nan_sign(a, b) for a, b in zip(got, expected))
            assert same(_rows_alone(column, *args), expected[0])
            return
        on_grid = np.isfinite(recorded).all(axis=1)
        got = _terminal_state_batch(column, *args, mode="record")
        assert (_same if on_grid.all() else _same_but_nan_sign)(got, recorded)
        got = _outcome(lambda: integrate(column, InitialState(t0s[0], y0s[0]),
                                         t1s[0], h, method))
    if on_grid.all():
        assert _same(got.y, recorded)
    else:
        first = int(np.argmin(on_grid))
        assert got == ("failed", t0s[0] + first * h
                       if first < len(on_grid) - 1 else t1s[0])


def _row_field(field, i):
    # Row ``i`` of the batch ``field``: each value bound one per row is bound
    # as a batch of one.
    def row(v):
        return v if np.size(v) == 1 else v[i:i + 1]
    return ReducedField(field.code, {k: row(v) for k, v in field.values.items()},
                        row(field.phi))


def _rows_alone(field, t0s, y0s, t1s, h, method, mode="terminal"):
    """``field``'s batch with each row run alone, which the numpy kernels
    run on floats: the terminal states, and in ``mode`` ``"extremes"`` the
    rows' extremes reduced as a batch reduces its own."""
    runs = [_modes(_terminal_state_batch(
        _row_field(field, i), t0s[i:i + 1], y0s[i:i + 1], t1s[i:i + 1], h,
        method, mode)) for i in range(len(t0s))]
    y = np.concatenate([run[0] for run in runs])
    if mode != "extremes":
        return y
    lows, highs = (np.array([run[k] for run in runs]).T.copy() for k in (1, 2))
    return (y, np.array([np.min(c) for c in lows]),
            np.array([np.max(c) for c in highs]))


@mock.patch.object(odeint, "COMPILED", False)
def test_column_kernel_keeps_a_float_exponent():
    # For the float exponent 2.0 numpy squares, for an array of 2.0s it calls
    # its vectorised pow, which rounds some squares differently.
    raw = ReducedField(*compile_model(hude.HudeModel.parse(1, "x0^2"), None),
                       0.0)
    y0 = np.random.default_rng(0).uniform(-2.0, 2.0, (1000, 1))
    args = (np.zeros(1000), y0, np.ones(1000), 1.0)
    assert _same(_terminal_state_batch(raw, *args),
                 _array_core(raw, *args, "euler"))


@mock.patch.object(odeint, "COMPILED", False)
def test_parameter_exponents_bound_per_row_step_like_floats():
    # A per-row exponent of 2.0, 0.5 or -1.0 rounds in the column kernel as
    # the float does in the row kernel, so a row of a batch equals the row
    # run alone.
    rows = 400
    rng = np.random.default_rng(1)
    p = rng.choice([2.0, 0.5, -1.0], rows)
    code, values = compile_model(
        hude.HudeModel.parse(1, "-x0^p + x0", ["0.1*x0"], params=["p"]),
        {"p": p})
    raw = ReducedField(code, values, rng.uniform(-1.0, 1.0, rows))
    args = (np.zeros(rows), rng.uniform(0.5, 3.0, (rows, 1)),
            np.full(rows, 0.5), 1e-2)
    batch = []
    assert _loops_taken(lambda: batch.append(
        _terminal_state_batch(raw, *args))) == ["column"]
    assert np.isfinite(batch[0]).all()
    assert _same(batch[0], _rows_alone(raw, *args, "euler"))


def _loops_taken(solve):
    """The loops that ran in ``solve()``, one per kernel call: ``"row"`` for
    the row kernel, ``"column"`` for the column kernel, ``"compiled"`` for
    the compiled kernel, the field for the column loop."""
    taken = []
    generate, column_loop = odeint._generated, odeint._column_loop

    def generated(*args):
        # The backend of the kernel that _generated returns, its last
        # argument; a None sends the call on to the numpy kernels.
        kernel = generate(*args)
        if kernel is None:
            return kernel

        def run(*call):
            taken.append({"columns": "column"}.get(args[-1], args[-1]))
            return kernel(*call)
        return run

    def hand_written(raw, *args):
        taken.append(raw)
        return column_loop(raw, *args)

    with mock.patch.multiple(odeint, _generated=generated,
                             _column_loop=hand_written):
        solve()
    return taken


# The traffic of the numpy kernels: the reactor field, which compiles, with
# COMPILED off, and a field with exp and sin, which never compiles, with
# COMPILED on.
RULE_FIELDS = {
    "reactor": (False, build_reactor_hude(THERMAL_U235), FITTED_THETA),
    "exp-sin": (True, hude.HudeModel.parse(2, "-0.5*x1 - sin(x0)",
                                           ["0.2*exp(-x0*x0)"]), None),
}


@pytest.mark.parametrize("kind", sorted(RULE_FIELDS))
@pytest.mark.parametrize("mode, rows", [
    *((mode, rows) for mode in ("terminal", "extremes", "chain")
      for rows in (1, 2, 33, 300)), ("record", 1)])
@settings(max_examples=3, deadline=None)
@given(method=st.sampled_from(["euler", "rk4"]), per_row=st.booleans(),
       flat=st.booleans(), seed=st.integers(0, 2**16))
def test_numpy_kernels_follow_the_shape_of_the_call(kind, mode, rows, method,
                                                     per_row, flat, seed):
    # One row at a time (a recorded path, a chain, a one-row batch) runs
    # through the row kernel, every batch of two or more rows through the
    # column kernel, however the level binds and the rows' spans differ.
    compiled, model, theta = RULE_FIELDS[kind]
    rng = np.random.default_rng(seed)
    phi = (phi_inv(rng.uniform(0.05, 0.95, rows)) if per_row
           else float(phi_inv(rng.uniform(0.05, 0.95))))
    field = ReducedField(*compile_model(model, theta), phi)
    t0s = 0.1 * np.arange(rows)
    t1s = t0s + rng.uniform(0.02, 0.1, rows)
    y0s = rng.uniform(-1.0, 1.0, (rows, 2))
    if mode == "record" or (rows == 1 and flat):
        args = (t0s[0], y0s[0], t1s[0])
    else:
        args = (t0s, y0s[0] if mode == "chain" else y0s, t1s)
    with mock.patch.object(odeint, "COMPILED", compiled):
        taken = _loops_taken(lambda: _terminal_state_batch(
            field, *args, 0.01, method, mode))
    assert taken == ["row" if mode in ("record", "chain") or rows == 1
                     else "column"]


def _frozen(value):
    # A read-only float array of ``value``.
    value = np.array(value, dtype=float)
    value.flags.writeable = False
    return value


# The reactor field, which compiles, and a field with exp and sin, which
# never does, each bound to parameters.
FROZEN_FIELDS = {
    "reactor": (build_reactor_hude(THERMAL_U235), FITTED_THETA),
    "exp-sin": (hude.HudeModel.parse(2, "-a*x1 - sin(x0)",
                                     ["0.2*exp(-a*x0*x0)"], params=["a"]),
                {"a": 0.5}),
}


@pytest.mark.parametrize("compiled", BACKENDS)
@pytest.mark.parametrize("kind, mode, rows", [
    *((kind, mode, rows) for kind in sorted(FROZEN_FIELDS)
      for mode in ("terminal", "extremes", "chain") for rows in (1, 40)),
    *((kind, "record", 1) for kind in sorted(FROZEN_FIELDS)),
    ("hand-written", "terminal", 1), ("hand-written", "record", 1)])
@settings(max_examples=3, deadline=None)
@given(method=st.sampled_from(["euler", "rk4"]), seed=st.integers(0, 2**16))
def test_batch_never_writes_its_inputs(compiled, kind, mode, rows, method,
                                       seed):
    # Every kernel steps a plan packed from the inputs: read-only times,
    # states, levels and parameters come back bit for bit, also from the C
    # kernel, which writes through pointers past the writeable flag.
    rng = np.random.default_rng(seed)
    if kind == "hand-written":
        raw, n, bound = VectorField(lambda t, y: np.stack(
            [y[..., 1], 0.1 * t - np.sin(y[..., 0])], axis=-1), 2).raw, 2, []
    else:
        model, theta = FROZEN_FIELDS[kind]
        n = model.order
        bound = [_frozen(phi_inv(rng.uniform(0.05, 0.95, rows))),
                 *(_frozen(v * rng.uniform(0.9, 1.1, rows))
                   for v in theta.values())]
        raw = ReducedField(*compile_model(model, dict(zip(theta, bound[1:]))),
                           bound[0])
    t0s = 0.1 * np.arange(rows)
    t1s = t0s + rng.uniform(0.02, 0.1, rows)
    y0s = rng.uniform(0.5, 1.0, (rows, n))
    if rows == 1 and mode != "chain":
        args = (t0s[0], y0s[0], t1s[0])
    else:
        args = (t0s, y0s[0] if mode == "chain" else y0s, t1s)
    inputs = [*map(_frozen, args), *bound]
    before = [v.copy() for v in inputs]
    with mock.patch.object(odeint, "COMPILED", compiled):
        loads = (compiled and kind != "hand-written"
                 and _kernel(raw, n, method, mode, "compiled") is not None)
        taken = _loops_taken(lambda: _terminal_state_batch(
            raw, *inputs[:3], 1e-2, method, mode))
    assert taken == [raw if kind == "hand-written" else "compiled" if loads
                     else "row" if rows == 1 or mode in ("record", "chain")
                     else "column"]
    assert all(_same(a, b) for a, b in zip(inputs, before))


@mock.patch.object(odeint, "COMPILED", False)
def test_recorded_paths_run_in_the_row_kernel():
    # The column kernel never records.  A level bound as a one-row batch
    # records the path of the float level.
    code = compile_model(hude.HudeModel.parse(1, "-x0", ["t"]), None)
    paths = []
    for phi in (0.7, np.array([0.7])):
        taken = _loops_taken(lambda: paths.append(integrate(
            ReducedField(*code, phi), InitialState(0.0, [1.0]), 1.0, 0.1)))
        assert taken == ["row"]
    assert _same(paths[0].y, paths[1].y)
    # Levels that bind more than one row make no path, and no column kernel
    # records.
    with pytest.raises(ValueError, match="one value or one per row"):
        integrate(ReducedField(*code, np.array([0.7, 0.8])),
                  InitialState(0.0, [1.0]), 1.0, 0.1)
    with pytest.raises(ValueError, match="row kernel"):
        _kernel(ReducedField(*code, 0.7), 1, "euler", "record", "columns")


@pytest.mark.parametrize("rows", [1, 2, 33])
@pytest.mark.parametrize("start", [0, 32])
@mock.patch.object(odeint, "COMPILED", False)
def test_levels_bind_one_value_or_one_per_row(rows, start):
    # Three levels fit no batch here, one row (the row kernel) or more (the
    # column kernel); one level, a one-element array and one per row do,
    # wherever the rows' spans start (the field reads t).
    code = compile_model(hude.HudeModel.parse(1, "-x0", ["t"]), None)
    args = (np.full(rows, float(start)), np.ones((rows, 1)),
            np.full(rows, start + 1.0), 0.1)
    with pytest.raises(ValueError, match=f"holds 3 values for {rows} row"):
        _terminal_state_batch(ReducedField(*code, np.full(3, 0.5)), *args)
    runs = [_terminal_state_batch(ReducedField(*code, phi), *args)
            for phi in (0.5, np.array([0.5]), np.full(rows, 0.5))]
    assert all(_same(run, runs[0]) for run in runs)


@pytest.mark.parametrize("method", ["euler", "rk4"])
@mock.patch.object(odeint, "COMPILED", False)
def test_hand_written_fields_take_the_column_loop(method):
    groups = ReactorParams(
        decay_constant=THERMAL_U235.decay_constant,
        delayed_fraction=THERMAL_U235.delayed_fraction,
        multiplication=THERMAL_U235.multiplication,
        neutron_lifetime=THERMAL_U235.neutron_lifetime,
        group_fractions=tuple(THERMAL_U235.delayed_fraction * np.array(
            [0.033, 0.219, 0.196, 0.395, 0.115, 0.042])),
        group_decay_constants=(0.0124, 0.0305, 0.111, 0.301, 1.14, 3.01),
        source_rate=1.5,
    )
    kinetics = build_point_kinetics(groups)
    pendulum = VectorField(lambda t, y: np.stack(
        [y[..., 1], 0.1 * t - np.sin(y[..., 0])], axis=-1), 2)
    for field, init in [(kinetics, InitialState(0.0, [1.0] + [0.5] * 6)),
                        (pendulum, InitialState(0.25, [1.0, -0.5]))]:
        paths = []
        taken = _loops_taken(lambda: paths.append(
            integrate(field, init, 0.3, 1e-3, method)))
        assert taken == [field.raw]
        expected = _array_core(field.raw, init.t0, init.values, 0.3, 1e-3,
                               method, record=True)
        assert _same(paths[0].y, expected)


def test_hand_written_fields_integrate_one_row():
    raw = exp_field().raw
    with pytest.raises(ValueError):
        _terminal_state_batch(raw, np.zeros(2), np.ones((2, 1)), np.ones(2), 0.1)
    with pytest.raises(ValueError):
        _terminal_state_batch(raw, 0.0, np.ones(1), 1.0, 0.1, mode="extremes")
    with pytest.raises(ValueError, match="without extremes or a chain"):
        _terminal_state_batch(raw, np.zeros(2), np.ones(1), np.ones(2), 0.1,
                              mode="chain")
    alone = _terminal_state_batch(raw, 0.0, np.ones(1), 1.0, 0.1)
    path = integrate(exp_field(), InitialState(0.0, [1.0]), 1.0, 0.1)
    assert _same(alone, path.final_state)


@pytest.mark.parametrize("method", ["euler", "rk4"])
@mock.patch.object(odeint, "COMPILED", False)
def test_parameter_names_never_reach_generated_code(method):
    # Parameters named after the names generated code uses give the bits of
    # the same model with neutral names: code reads them as slots p0, p1, ...
    clashing = ["phi", "np", "h", "s", "c0", "w0", "e0", "r0", "run", "half"]
    neutral = [f"q{k}" for k in range(len(clashing))]
    drift = "-{0}*x0 - {1}*x1 + {2}*sin(t) + abs(x0)^{3}"
    diffusions = ["{4}*x1 + {5}", "{6}*cos({7}*t) + {8}*x0/(2 + {9})"]
    values = [0.7, 0.4, 0.3, 1.5, 0.2, 0.1, 0.25, 2.0, -0.3, 0.5]
    rows = 40
    rng = np.random.default_rng(3)
    t0s, y0s = rng.uniform(0, 1, rows), rng.uniform(-1, 1, (rows, 2))
    t1s = t0s + rng.uniform(0.1, 0.3, rows)
    phis = phi_inv(rng.uniform(0.05, 0.95, rows))

    def forms(names):
        model = hude.HudeModel.parse(
            2, drift.format(*names), [g.format(*names) for g in diffusions],
            names)
        theta = dict(zip(names, values))
        field = ReducedField(*compile_model(model, theta), phis)
        # The column kernel, then the row kernel.
        out = [_terminal_state_batch(field, t0s, y0s, t1s, 0.01, method),
               _rows_alone(field, t0s, y0s, t1s, 0.01, method)]
        out += field.columns(2)(t1s, *y0s.T)
        out += [hude.compile_expr(e, theta)(t1s, y0s)
                for e in (model.drift, *model.diffusions)]
        return out

    assert all(_same(a, b) for a, b in zip(forms(clashing), forms(neutral)))


def test_repeated_solves_reuse_generated_kernels():
    def solve(model):
        path = hude.solve_alpha_path(model, FITTED_THETA, 0.7, CASE_STUDY_INIT,
                                     0.05, h=1e-3, method="rk4")
        fan = hude.inverse_distribution(model, FITTED_THETA, CASE_STUDY_INIT,
                                        0.05, [0.5, 0.7, 0.9], h=1e-3)
        series = hude.simulate_observations(
            model, FITTED_THETA, CASE_STUDY_INIT, 0.01 * np.arange(21),
            eps=np.full(20, 0.3), h=1e-3)
        return path.trajectory.y, fan.values, series.x, series.derivs

    def bisect(model, theta):
        # Seven bisection passes of 60 rows: seven calls of the column
        # kernel, or one of the compiled bisection.
        return hude.compute_residuals(model, theta, observed, delta=1e-2,
                                      h=1e-3, condition_check=False)

    def spy(generate):
        def run(*args):
            sources.append(args)
            return generate(*args)
        return run

    model = build_reactor_hude(THERMAL_U235)
    observed = table3()
    # The bisection's compiled kernel, where it builds or is cached.
    loads = _kernel(alpha_path_field(model, FITTED_THETA, 0.7).raw, 2,
                    "euler", "terminal", "compiled") is not None
    backends = [(False, "column")] + [(True, "compiled")] * loads
    for compiled, loop in backends:
        with mock.patch.object(odeint, "COMPILED", compiled):
            first = solve(model)
            assert _loops_taken(lambda: bisect(model, FITTED_THETA)) == (
                [loop] * (7 if loop == "column" else 1))
            sources = []
            # After one warm-up, neither the same model nor an equal one
            # prints, compiles or builds a source again, also for a bisection
            # at another parameter point, which probes other levels.
            misses = _generated.cache_info().misses
            with mock.patch.multiple(
                    odeint, _infix=spy(odeint._infix),
                    _step_source=spy(odeint._step_source)), \
                    mock.patch.multiple(
                        hude.native, load=spy(hude.native.load),
                        _step_source=spy(hude.native._step_source)):
                for again in (model, build_reactor_hude(THERMAL_U235)):
                    assert all(_same(a, b) for a, b in zip(first, solve(again)))
                    assert len(bisect(again, {"sig1": 2e-4, "sig2": 0.25})) == 60
            assert sources == []
            assert _generated.cache_info().misses == misses


@pytest.mark.parametrize("method, drift, y0, h, t", [
    # 1/x0 at x0 = 0: a float column would raise ZeroDivisionError.
    ("euler", "1/x0", [0.0], 0.01, 0.01),
    ("rk4", "1/x0", [0.0], 0.01, 0.01),
    # x0 falls to exactly 0 at t = 1, where 0*(1/x0) is NaN.
    ("euler", "0*(1/x0)", [1.0, -1.0], 0.25, 1.25),
    ("rk4", "0*(1/x0)", [1.0, -1.0], 0.25, 1.0),
    # x' = x^2 from 1 blows up at t = 1: float overflow must not raise.
    ("euler", "x0^2", [1.0], 1e-3, 1.0170000000000001),
    ("rk4", "x0^2", [1.0], 1e-3, 1.0030000000000001),
])
def test_one_row_compiled_failure_times(method, drift, y0, h, t):
    model = hude.HudeModel.parse(len(y0), drift, ["1.0"])
    init = InitialState(0.0, y0)
    with pytest.raises(IntegrationError) as raised:
        hude.solve_alpha_path(model, None, 0.5, init, 3.0, h=h, method=method)
    assert raised.value.t == t
    # The same failure inside one simulated step names that step's end.
    with pytest.raises(IntegrationError) as raised:
        hude.simulate_observations(model, None, init, [0.0, 3.0], eps=[0.5],
                                   h=h, method=method)
    assert raised.value.t == 3.0


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_median_level_leaves_out_infinite_noise(method):
    # At alpha = 0.5 (phi = 0) the noise is left out, not added as |g|*0: that
    # would turn the infinite diffusion 1/(x0 - x0) into NaN.
    noisy = hude.HudeModel.parse(1, "-x0", ["1/(x0 - x0)"])
    bare = hude.HudeModel.parse(1, "-x0")
    init = InitialState(0.0, [1.0])
    paths = [hude.solve_alpha_path(model, None, 0.5, init, 1.0, h=0.1,
                                   method=method).trajectory.y
             for model in (noisy, bare)]
    assert np.isfinite(paths[0]).all()
    assert _same(*paths)
    # A batch row at phi = 0 keeps |g|*phi, in every loop: NaN here.
    field = ReducedField(*compile_model(noisy, None), phi_inv([0.5, 0.7]))
    args = (np.zeros(2), np.ones((2, 1)), np.ones(2), 0.1, method)
    for compiled in BACKENDS:
        with mock.patch.object(odeint, "COMPILED", compiled):
            for batch in (_terminal_state_batch(field, *args),
                          _rows_alone(field, *args)):
                assert np.isnan(batch).all()


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("drift, y0", [
    # -0.0 + s*(0*x0 + 0*t) is +0.0: np.minimum(-0.0, 0.0) and
    # np.maximum(-0.0, 0.0) are both +0.0.
    ("0*x0 + 0*t", [[-0.0], [-0.0]]),
    ("0*x0 + 0*t", [[0.0], [-0.0]]),
    # ln of the negative state the first step reaches is NaN; the NaN row's
    # extremes are NaN from there on, and so are the batch's.
    ("ln(x0)", [[0.05], [1.0]]),
])
def test_kernel_extremes_follow_numpy(method, drift, y0):
    raw = ReducedField(*compile_model(hude.HudeModel.parse(1, drift), None), 0.0)
    y0 = np.array(y0)
    t0s, t1s = np.full(2, 0.5), np.array([0.75, 0.8])
    expected = _array_core(raw, t0s, y0, t1s, 0.1, method, track_extremes=True)
    args = (t0s, y0, t1s, 0.1, method)
    for compiled in BACKENDS:
        with mock.patch.object(odeint, "COMPILED", compiled):
            for got in (_terminal_state_batch(raw, *args, mode="extremes"),
                        _rows_alone(raw, *args, mode="extremes")):
                assert all(_same(a, b) for a, b in zip(got, expected))


needs_compiler = pytest.mark.skipif(
    not COMPILER_FOUND, reason="no C compiler (sysconfig CC) found")

# Fields of the ops the compiled kernels take: + - * /, negation and abs.
EXACT_FIELDS = ast_strategy(binary="+-*/", functions=("abs",))
# Any finite float: states, levels and parameters that overflow included.
FREE = st.floats(allow_nan=False, allow_infinity=False)


@needs_compiler
@pytest.mark.parametrize("method", ["euler", "rk4"])
@settings(max_examples=3, deadline=None)
@given(drift=EXACT_FIELDS, diffusion=EXACT_FIELDS, data=st.data())
def test_compiled_kernel_equals_numpy_kernels(method, drift, diffusion, data):
    # Three fields per method: a cold cache builds at most three modes of
    # each (six where the level is a scalar zero and the noise is left out),
    # while the values each run binds are drawn freely.
    rows = data.draw(st.integers(1, 40))
    h = data.draw(st.sampled_from([0.1, 0.03]))

    def per_row(values):
        # One value, or one per row.
        if data.draw(st.booleans()):
            return data.draw(values)
        return np.array(data.draw(st.lists(values, min_size=rows,
                                           max_size=rows)))

    theta = {"a": per_row(FREE), "b": per_row(FREE)}
    phi = per_row(FREE)
    code, values = compile_model(
        hude.HudeModel(3, drift, (diffusion,), params=("a", "b")), theta)
    field = ReducedField(code, values, phi)
    t0s = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=rows,
                                      max_size=rows)))
    # Spans that are not a multiple of h shorten each row's last step.
    steps = st.tuples(st.integers(0, 20), st.floats(0.05, 1.0))
    t1s = t0s + h * np.array([k + f for k, f in data.draw(
        st.lists(steps, min_size=rows, max_size=rows))])
    y0s = np.array(data.draw(st.lists(st.lists(FREE, min_size=3, max_size=3),
                                      min_size=rows, max_size=rows)))

    def run(compiled, field, *args, mode):
        with mock.patch.object(odeint, "COMPILED", compiled):
            return _modes(_terminal_state_batch(field, *args, h, method,
                                                mode=mode))

    one = ReducedField(code, {k: np.ravel(v)[0] for k, v in values.items()},
                       np.ravel(phi)[0])
    for field, args, mode in [(field, (t0s, y0s, t1s), "terminal"),
                              (field, (t0s, y0s, t1s), "extremes"),
                              (one, (t0s[0], y0s[0], t1s[0]), "record")]:
        ran = []
        taken = _loops_taken(lambda: ran.append(
            run(True, field, *args, mode=mode)))
        assert taken == ["compiled"]
        (got,) = ran
        # The numpy kernels, and for a batch its rows run alone.
        runs = [run(False, field, *args, mode=mode)]
        if mode != "record":
            with mock.patch.object(odeint, "COMPILED", False):
                runs.append(_modes(_rows_alone(field, *args, h, method, mode)))
        for expected in runs:
            assert all(_same_but_nan_sign(a, b) for a, b in zip(got, expected))


@pytest.mark.parametrize("method", ["euler", "rk4"])
@settings(max_examples=3, deadline=None)
@given(drift=EXACT_FIELDS, diffusion=EXACT_FIELDS, data=st.data())
def test_chain_equals_successive_one_row_calls(method, drift, diffusion,
                                               data):
    # Row i of a chain starts from row i - 1's terminal state and binds its
    # own segment and values, as a one-row terminal call does with each bound
    # as a batch of one.  Three fields per method: one build each (two where
    # the level is a scalar zero).
    rows = data.draw(st.integers(1, 12))
    h = data.draw(st.sampled_from([0.1, 0.03]))

    def per_row(values):
        if data.draw(st.booleans()):
            return data.draw(values)
        return np.array(data.draw(st.lists(values, min_size=rows,
                                           max_size=rows)))

    def row(v, i):
        return v if np.ndim(v) == 0 else v[i:i + 1]

    theta = {"a": per_row(FREE), "b": per_row(FREE)}
    phi = per_row(FREE)
    code, values = compile_model(
        hude.HudeModel(3, drift, (diffusion,), params=("a", "b")), theta)
    t0s = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=rows,
                                      max_size=rows)))
    # Spans that are not a multiple of h shorten each row's last step.
    steps = st.tuples(st.integers(0, 20), st.floats(0.05, 1.0))
    t1s = t0s + h * np.array([k + f for k, f in data.draw(
        st.lists(steps, min_size=rows, max_size=rows))])
    y0 = np.array(data.draw(st.lists(FREE, min_size=3, max_size=3)))
    # The chain's compiled kernel, where it builds or is cached.
    loads = _kernel(ReducedField(code, values, phi), 3, method, "chain",
                    "compiled") is not None
    chained = []
    for compiled in (True, False):
        with mock.patch.object(odeint, "COMPILED", compiled):
            x, expected = y0, []
            for i in range(rows):
                one = ReducedField(code, {k: row(v, i) for k, v in
                                          values.items()}, row(phi, i))
                x = _terminal_state_batch(one, t0s[i], x, t1s[i], h, method)
                expected.append(x)
            # The column kernel never runs a chain.
            taken = _loops_taken(lambda: chained.append(
                _terminal_state_batch(ReducedField(code, values, phi),
                                      t0s, y0, t1s, h, method, "chain")))
        assert taken == ["compiled" if compiled and loads else "row"]
        # Float arithmetic may keep either NaN's sign, even between two runs
        # of one row kernel.
        assert chained[-1].shape == (rows, 3)
        assert _same_but_nan_sign(chained[-1], np.array(expected))
    assert _same_but_nan_sign(*chained)


# Bisection cases whose fields compile to C, of order 2 and 1: rows that
# overflow, and rows that reach NaN through inf - inf.  Each case and method
# builds six objects cold, so the cases are these two.
C_CASES = ["overflow_mixed_c", "overflow_nan_c"]


def _entry_points(name, rows, seed, row_theta, method):
    """What each compiled entry point returns on a bisection case: ``kernel``
    in modes terminal, extremes and record, ``chain`` and ``bisect``, as
    arrays, then the bisection's failure."""
    model, theta, t0s, y0s, t1s, x_next = _case(name, rows, seed, row_theta)
    code, values = compile_model(model, theta)
    phi = phi_inv(np.random.default_rng(seed).uniform(0.05, 0.95, rows))
    field = ReducedField(code, values, phi)
    one = ReducedField(code, {k: np.ravel(v)[0] for k, v in values.items()},
                       phi[0])
    args = (t0s, y0s, t1s, 0.1, method)
    with np.errstate(all="ignore"):
        *levels, failure = _bisect_levels(model, theta, t0s, y0s, t1s, x_next,
                                          1e-4, 0.1, method)
        return [_terminal_state_batch(field, *args),
                *_terminal_state_batch(field, *args, mode="extremes"),
                _terminal_state_batch(one, t0s[0], y0s[0], t1s[0], 0.1,
                                      method, "record"),
                _terminal_state_batch(field, t0s, y0s[0], t1s, 0.1, method,
                                      "chain"), *levels], failure


@needs_compiler
@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(C_CASES), rows=st.integers(1, 300),
       method=st.sampled_from(["euler", "rk4"]), row_theta=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_avx2_clone_equals_the_baseline_loop(name, rows, method, row_theta,
                                             seed):
    # Where its guard holds, the source builds an AVX2 clone of the row loop
    # beside the baseline one, and an AVX2 CPU runs only that clone.  With
    # the attribute removed from the text, only the baseline loop is built.
    # Every entry point gives the same bits from both, over rows that
    # overflow or reach NaN, through the vector body and the scalar tail.
    c_source, load, loads = hude.native._c_source, hude.native.load, []

    def baseline(*args):
        source = c_source(*args)
        assert hude.native.CLONES in source
        return source.replace(hude.native.CLONES + "\n", "")

    def loading(source, symbol):
        loads.append((hude.native.CLONES in source, symbol))
        return load(source, symbol)

    runs = []
    for source in (c_source, baseline):
        _generated.cache_clear()
        with mock.patch.multiple(hude.native, _c_source=source, load=loading):
            runs.append(_entry_points(name, rows, seed, row_theta, method))
    _generated.cache_clear()
    # Each side built or loaded all five entry points, and ran nothing on
    # the numpy kernels.
    assert sorted(loads) == sorted(
        (clones, symbol) for clones in (False, True)
        for symbol in ("bisect", "chain", "kernel", "kernel", "kernel"))
    (clone, clone_failure), (base, base_failure) = runs
    assert clone_failure == base_failure
    assert len(clone) == len(base) == 9
    assert all(_same(a, b) for a, b in zip(clone, base))


@needs_compiler
def test_row_loop_has_an_avx2_clone_where_the_guard_holds(tmp_path):
    # A reactor object holds the AVX2 clone exactly where the preprocessor
    # keeps the attribute, which it does on x86-64 glibc with gcc.
    model = build_reactor_hude(THERMAL_U235)
    lowered, bound = ReducedField(*compile_model(model, FITTED_THETA),
                                  0.3)._bound()
    source = hude.native._c_source(lowered, ", ".join(bound), model.order,
                                   "euler", "terminal")
    cc = shlex.split(sysconfig.get_config_var("CC"))
    kept = "target_clones" in subprocess.run(
        [*cc, "-E", "-P", "-x", "c", "-"], input=source, capture_output=True,
        text=True, check=True).stdout
    with mock.patch("tempfile.tempdir", str(tmp_path)):
        hude.native.load(source, "kernel")
    (cache,) = tmp_path.iterdir()
    (built,) = cache.iterdir()
    assert (b"loop.avx2" in built.read_bytes()) == kept
    if (sys.platform == "linux" and platform.machine() == "x86_64"
            and platform.libc_ver()[0] == "glibc"
            and "gcc" in os.path.basename(cc[0])):
        assert kept


@needs_compiler
@pytest.mark.parametrize("mode", ["terminal", "extremes", "record"])
def test_exact_fields_take_the_compiled_kernel(mode):
    code = compile_model(hude.HudeModel.parse(
        2, "-x1/(1 + abs(x0)) - x0", ["0.5*x1 - t"]), None)
    kernel = _kernel(ReducedField(*code, 0.7), 2, "rk4", mode, "compiled")
    assert kernel is not None
    rows = 1 if mode == "record" else 50
    field = ReducedField(*code, phi_inv(np.full(rows, 0.7)))
    args = ((0.0, np.ones(2), 1.0) if mode == "record"
            else (np.zeros(rows), np.ones((rows, 2)), np.ones(rows)))
    assert _loops_taken(lambda: _terminal_state_batch(
        field, *args, 0.1, "rk4", mode)) == ["compiled"]


@pytest.mark.parametrize("drift, loop", [("-exp(x0)", "row"), ("-x0^3", "row"),
                                         ("-exp(x0)", "column")])
def test_inexact_fields_take_the_numpy_kernels(drift, loop, caplog):
    # np.exp and np.power may round unlike C's, so these fields stay on the
    # numpy kernels, and the hude logger says why.
    rows = 1 if loop == "row" else 2
    field = ReducedField(*compile_model(hude.HudeModel.parse(1, drift), None),
                         0.0)
    _generated.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="hude"):
        taken = _loops_taken(lambda: _terminal_state_batch(
            field, np.zeros(rows), np.ones((rows, 1)), np.ones(rows), 0.1))
    assert taken == [loop]
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "unlike numpy" in caplog.records[0].getMessage()


def _broken_source(*args):
    return "this is not C\n"


@pytest.mark.parametrize("breakage", [
    mock.patch("sysconfig.get_config_var", return_value="no-such-hude-cc"),
    mock.patch("sysconfig.get_config_var", return_value=""),
    mock.patch("hude.native._c_source", _broken_source),
], ids=["missing-compiler", "no-compiler", "broken-build"])
def test_failed_builds_fall_back_to_numpy(breakage, caplog, recwarn):
    # Without a compiler, or where the build fails, the numpy kernels run
    # with the same bits, after exactly one debug line and no warning.
    code = compile_model(hude.HudeModel.parse(1, "-x0", ["t"]), None)
    args = (np.zeros(3), np.ones((3, 1)), np.ones(3), 0.1)
    with mock.patch.object(odeint, "COMPILED", False):
        expected = _terminal_state_batch(ReducedField(*code, 0.3), *args)
    _generated.cache_clear()
    ran = []
    with breakage, caplog.at_level(logging.DEBUG, logger="hude"):
        # The second solve finds the failure memoised: no second build.
        taken = _loops_taken(lambda: ran.extend(
            _terminal_state_batch(ReducedField(*code, 0.3), *args)
            for _ in range(2)))
    _generated.cache_clear()
    assert taken == ["column"] * 2
    assert all(_same(got, expected) for got in ran)
    assert [(r.name, r.levelno) for r in caplog.records] == [
        ("hude", logging.DEBUG)]
    assert "did not build" in caplog.records[0].getMessage()
    assert len(recwarn) == 0


@needs_compiler
def test_compiled_backend_loads_where_a_compiler_is_found(tmp_path):
    # A fresh, private cache directory: the kernel is built, not found.
    with mock.patch("tempfile.tempdir", str(tmp_path)):
        _generated.cache_clear()
        field = ReducedField(*compile_model(hude.HudeModel.parse(
            1, "-0.25*x0"), None), 0.0)
        kernel = _kernel(field, 1, "euler", "terminal", "compiled")
    _generated.cache_clear()
    assert kernel is not None
    (cache,) = tmp_path.iterdir()
    assert cache.stat().st_mode & 0o777 == 0o700
    assert [f.suffix for f in cache.iterdir()] == [".so"]


@needs_compiler
def test_simulation_and_bisection_share_one_build(tmp_path):
    # A fresh cache: the simulator's chain and the bisection's batches of
    # one field load their entry points from one shared object.
    builds, run = [], hude.native.subprocess.run

    def build(*args, **kwargs):
        builds.append(args)
        return run(*args, **kwargs)

    model = hude.HudeModel.parse(2, "-0.5*x1 - 0.25*x0", ["0.1*x1 + 0.2"])
    init = InitialState(0.0, [1.0, 0.0])
    with mock.patch("tempfile.tempdir", str(tmp_path)), \
            mock.patch.object(hude.native.subprocess, "run", build):
        _generated.cache_clear()
        taken = _loops_taken(lambda: hude.compute_residuals(
            model, None, hude.simulate_observations(
                model, None, init, 0.1 * np.arange(11), seed=5, h=1e-2),
            delta=1e-2, h=1e-2, scheme="given", condition_check=False))
    _generated.cache_clear()
    assert set(taken) == {"compiled"}
    assert len(builds) == 1


# A C source whose one function is an entry point of the kernel contract
# that reads none of its arguments.
_EMPTY_KERNEL = ("#include <stdint.h>\n"
                 "void kernel(int64_t rows, double h, const int64_t *nsteps, "
                 "double *out, double *plan) {\n"
                 "    (void)rows; (void)h; (void)nsteps; (void)out; (void)plan;\n"
                 "}\n")


def _counting_builds(builds):
    run = hude.native.subprocess.run

    def build(*args, **kwargs):
        builds.append(args)
        return run(*args, **kwargs)
    return mock.patch.object(hude.native.subprocess, "run", build)


@needs_compiler
def test_a_build_prunes_objects_untouched_for_the_cache_age(tmp_path):
    # A fresh cache with back-dated dummy objects, a leftover temporary file
    # and a file that is no object: one build removes the objects untouched
    # for longer than CACHE_AGE, and a load touches the object it loads.
    with mock.patch("tempfile.tempdir", str(tmp_path)):
        cache = hude.native._cache_dir()
        now, age = time.time(), hude.native.CACHE_AGE
        ages = {"old.so": 2 * age, "tmpk2v9q1.so": 2 * age,
                "recent.so": age / 2, "notes.txt": 2 * age}
        for name, back in ages.items():
            open(os.path.join(cache, name), "w").close()
            os.utime(os.path.join(cache, name), (now - back, now - back))
        builds = []
        with _counting_builds(builds):
            hude.native.load(_EMPTY_KERNEL, "kernel")
            (built,) = set(os.listdir(cache)) - set(ages)
            built = os.path.join(cache, built)
            os.utime(built, (now - 2 * age, now - 2 * age))
            hude.native.load(_EMPTY_KERNEL, "kernel")
    assert len(builds) == 1
    assert sorted(os.listdir(cache)) == sorted(
        [os.path.basename(built), "recent.so", "notes.txt"])
    assert os.stat(built).st_mtime > now - age


@needs_compiler
def test_an_object_removed_before_it_loads_is_built_again(tmp_path):
    # Another process's build may remove an object between the check that
    # it exists and its load: it is built again, not reported as failed.
    cdll, vanished = ctypes.CDLL, []

    def vanish(path, *args, **kwargs):
        if not vanished:
            vanished.append(path)
            os.unlink(path)
            raise OSError(f"{path}: cannot open shared object file")
        return cdll(path, *args, **kwargs)

    builds = []
    with mock.patch("tempfile.tempdir", str(tmp_path)), \
            _counting_builds(builds):
        hude.native.load(_EMPTY_KERNEL, "kernel")
        with mock.patch.object(hude.native.ctypes, "CDLL", vanish):
            fn = hude.native.load(_EMPTY_KERNEL, "kernel")
    fn(1, 0.5, None, None, None)
    assert len(vanished) == 1 and len(builds) == 2
    assert os.path.exists(vanished[0])


def _loaded_after(code):
    # Which of hude.native, subprocess and logging a fresh interpreter holds
    # after running ``code``.
    src = os.path.dirname(os.path.dirname(hude.__file__))
    probe = (f"{code}\nimport sys\nprint(*sorted({{'hude.native', "
             "'subprocess', 'logging'} & sys.modules.keys()))")
    return subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True).stdout.split()


def test_import_builds_nothing():
    assert _loaded_after("import hude") == []


@needs_compiler
def test_a_compiled_path_loads_the_c_backend_without_logging():
    # The C backend is imported by the first field that compiles, and the
    # logging module only where a kernel falls back to numpy.
    assert _loaded_after(
        "import hude\nhude.solve_alpha_path(hude.HudeModel.parse(1, '-x0', "
        "['0.1']), None, 0.7, hude.InitialState(0.0, [1.0]), 1.0, h=0.1)"
    ) == ["hude.native", "subprocess"]
