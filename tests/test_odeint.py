import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
from hude import InitialState, IntegrationError, Trajectory, integrate_euler, integrate_rk4
from hude.model import VectorField, _make_rhs, alpha_path_field, compile_model, phi_inv
from hude.odeint import _terminal_state_batch, integrate

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
    drift_fn, diffusions = compile_model(model, None)
    t0s = np.array([r[0] for r in rows])
    t1s = t0s + np.array([(r[1] + r[2]) * h for r in rows])
    phis = phi_inv(np.array([r[3] for r in rows]))
    y0s = np.random.default_rng(seed).normal(size=(len(rows), n))
    batch = _terminal_state_batch(_make_rhs(drift_fn, diffusions, phis), t0s,
                                  y0s, t1s, h, method)
    for i in range(len(rows)):
        field = VectorField(_make_rhs(drift_fn, diffusions, phis[i]), n)
        path = integrate(field, InitialState(t0s[i], y0s[i]), t1s[i], h, method)
        assert batch[i].tobytes() == path.final_state.tobytes()


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_frozen_row_never_evaluated_past_its_end(method):
    # ln(1.05 - t) is finite only before t = 1.05.  The second row ends at 1.0
    # after 10 steps and stays frozen while the first takes 90; it must not
    # be evaluated at t0 + k*h beyond its own end.
    model = hude.HudeModel.parse(1, "ln(1.05 - t)")
    raw = _make_rhs(*compile_model(model, None), 0.0)
    t0s, t1s = np.array([0.0, 0.9]), np.array([0.9, 1.0])
    batch = _terminal_state_batch(raw, t0s, np.zeros((2, 1)), t1s, 0.01, method)
    for i in range(2):
        path = integrate(VectorField(raw, 1), InitialState(t0s[i], [0.0]),
                         t1s[i], 0.01, method)
        assert batch[i].tobytes() == path.final_state.tobytes()
