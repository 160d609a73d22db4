import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
from hude import InitialState, IntegrationError, Trajectory, integrate_euler, integrate_rk4
from hude import odeint
from hude.expr import _binder
from hude.model import ReducedField, VectorField, alpha_path_field, compile_model, phi_inv
from hude.odeint import SCALAR_ROWS, _terminal_state_batch, integrate
from hude.reactor import (CASE_STUDY_INIT, FITTED_THETA, THERMAL_U235, ReactorParams,
                          build_point_kinetics, build_reactor_hude, table3)

from conftest import example1_closed_form


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

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            hude.integrate(exp_field(), InitialState(0.0, [1.0]), 1.0, 0.1, "heun")

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), 0.1)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), 0.1)


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
# a time-only term make the column kernel copy, hoist and re-evaluate.
TERMS = ["-0.7*x{k}", "0.3*t*x{k}", "exp(-x{k}^2)", "ln(1.5 + sin(a*t))",
         "x{k}/(2 + t)", "abs(x{k} - b)", "a*x{k}^2", "1/(x{k} + 0.25)",
         "-b*cos(x{k})", "x{k}", "a*b", "cos(t)"]


@st.composite
def _column_case(draw):
    n = draw(st.integers(min_value=1, max_value=3))

    def expr():
        picks = draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=3))
        return " + ".join(p.format(k=draw(st.integers(0, n - 1))) for p in picks)

    drift = expr()
    diffusions = [expr() for _ in range(draw(st.integers(0, 2)))]
    one_row = draw(st.booleans())
    # Batches on both sides of the row-by-row crossover, and one well above
    # it whose rows finish at many different steps.
    rows = 1 if one_row else draw(st.one_of(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=SCALAR_ROWS),
        st.sampled_from([SCALAR_ROWS, SCALAR_ROWS + 1, 80])))
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


def _outcome(fn):
    try:
        return fn()
    except IntegrationError as exc:
        return ("failed", exc.t, getattr(exc, "row", None))


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

    # No row limit sends every problem through the generated column kernel;
    # the row count as the limit sends it row by row through the generated
    # row kernel.  Every bit agrees except the sign of a NaN: where two NaNs
    # of opposite sign meet, float and array arithmetic propagate different
    # ones, and numpy's vectorised min/max of 9 or more values returns NaN
    # positive.
    loops = []
    for limit in (0, rows):
        with mock.patch.object(odeint, "SCALAR_ROWS", limit):
            got = _terminal_state_batch(column, *args, check_finite=False,
                                        track_extremes=True)
            loops.append(got)
            assert all(_same_but_nan_sign(a, b) for a, b in zip(got, expected))
            got = _outcome(lambda: _terminal_state_batch(column, *args))
            if finite.all():
                assert _same(got, expected[0].reshape(np.shape(got)))
            else:
                row = int(np.argmin(finite))
                assert got == ("failed", t1s[row], row)
            if recorded is None:
                continue
            got = _outcome(lambda: _terminal_state_batch(column, *args,
                                                         record=True))
            on_grid = np.isfinite(recorded).all(axis=1)
            if on_grid.all():
                assert _same(got[1], recorded)
            else:
                first = int(np.argmin(on_grid))
                assert got[0] == "failed"
                assert got[1] == (t0s[0] + first * h if first < len(on_grid) - 1
                                  else t1s[0])
    assert all(_same_but_nan_sign(a, b) for a, b in zip(*loops))


def _loops_taken(solve):
    """The loops that ran in ``solve()``: ``"row"`` for the row kernel,
    ``"column"`` for the column kernel, the field for the column loop."""
    taken = []

    def spy(name, loop):
        def run(*args):
            ran = loop(*args)
            if ran is not None:
                taken.append(name(args[0]))
            return ran
        return run

    with mock.patch.multiple(
            odeint, _row_loop=spy(lambda raw: "row", odeint._row_loop),
            _column_kernel=spy(lambda raw: "column", odeint._column_kernel),
            _column_loop=spy(lambda raw: raw, odeint._column_loop)):
        solve()
    return taken


@pytest.mark.parametrize("rows", [1, SCALAR_ROWS, SCALAR_ROWS + 1, 300])
def test_small_batches_run_row_by_row(rows):
    # Reduced fields never reach the column loop: small batches run through
    # the row kernel, larger ones through the column kernel.
    raw = ReducedField(*compile_model(hude.HudeModel.parse(1, "-x0", ["t"]),
                                      None), phi_inv(np.full(rows, 0.7)))
    taken = _loops_taken(lambda: _terminal_state_batch(
        raw, np.zeros(rows), np.ones((rows, 1)), np.ones(rows), 0.1))
    assert taken == ["column" if rows > SCALAR_ROWS else "row"]


@pytest.mark.parametrize("method", ["euler", "rk4"])
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
        # Bisection passes of 900 and 420 rows: the column kernel.
        return hude.compute_residuals(model, theta, observed, delta=1e-2,
                                      h=1e-3, condition_check=False)

    model = build_reactor_hude(THERMAL_U235)
    observed = table3()
    first = solve(model)
    assert _loops_taken(lambda: bisect(model, FITTED_THETA)) == ["column"] * 2
    sources = []

    def spy(generate):
        def run(*args):
            sources.append(args)
            return generate(*args)
        return run

    # After one warm-up, neither the same model nor an equal one generates
    # or compiles a source again, also for a bisection at another parameter
    # point, which probes other levels.
    misses = _binder.cache_info().misses
    with mock.patch.multiple(
            hude.model, _kernel_source=spy(hude.model._kernel_source),
            _column_source=spy(hude.model._column_source)):
        for again in (model, build_reactor_hude(THERMAL_U235)):
            assert all(_same(a, b) for a, b in zip(first, solve(again)))
            assert len(bisect(again, {"sig1": 2e-4, "sig2": 0.25})) == 60
    assert sources == []
    assert _binder.cache_info().misses == misses


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
    # A batch row at phi = 0 keeps |g|*phi, in both loops: NaN here.
    field = ReducedField(*compile_model(noisy, None), phi_inv([0.5, 0.7]))
    for limit in (0, 2):
        with mock.patch.object(odeint, "SCALAR_ROWS", limit):
            batch = _terminal_state_batch(field, np.zeros(2), np.ones((2, 1)),
                                          np.ones(2), 0.1, method,
                                          check_finite=False)
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
    for limit in (0, 2):
        with mock.patch.object(odeint, "SCALAR_ROWS", limit):
            got = _terminal_state_batch(raw, t0s, y0, t1s, 0.1, method,
                                        track_extremes=True, check_finite=False)
        assert all(_same(a, b) for a, b in zip(got, expected))
