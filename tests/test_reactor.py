import math

import numpy as np
import pytest

import hude
from hude import (
    ReactorParams,
    build_point_kinetics,
    build_reactor_hude,
    closed_form_psi_inv,
    integrate_rk4,
    simplified_alpha_coefficients,
    simplified_alpha_field,
    table3,
    table4,
)
from hude import odeint
from hude.model import VectorField
from hude.odeint import integrate
from hude.reactor import CASE_STUDY_INIT, FITTED_THETA, THERMAL_U235


def six_groups(params: ReactorParams, fractions, decays) -> ReactorParams:
    return ReactorParams(
        decay_constant=params.decay_constant,
        delayed_fraction=params.delayed_fraction,
        multiplication=params.multiplication,
        neutron_lifetime=params.neutron_lifetime,
        group_fractions=fractions,
        group_decay_constants=decays,
        source_rate=params.source_rate,
    )


class TestBuildReactorHude:
    def test_printed_coefficients_to_six_digits(self):
        model = build_reactor_hude(THERMAL_U235)
        damping = hude.eval_expr(model.drift, {"t": 0, "x0": 0, "x1": 1})
        restoring = hude.eval_expr(model.drift, {"t": 0, "x0": 1, "x1": 0})
        g1_unit = hude.eval_expr(
            model.diffusions[0], {"t": 0, "x0": 0, "x1": 1, "sig1": 1, "sig2": 0}
        )
        g2_unit = hude.eval_expr(
            model.diffusions[1], {"t": 0, "x0": 1, "x1": 0, "sig1": 0, "sig2": 1}
        )
        assert f"{damping:.6g}" == "-55.1435"
        assert f"{restoring:.6g}" == "0.785"
        assert f"{abs(g1_unit):.6g}" == "10010"
        assert f"{g2_unit:.6g}" == "10"

    def test_fitted_noise_coefficients(self):
        model = build_reactor_hude(THERMAL_U235).bind(FITTED_THETA)
        theta = model.resolved_theta()
        g1 = hude.eval_expr(model.diffusions[0], {"t": 0, "x0": 0, "x1": 1, **theta})
        g2 = hude.eval_expr(model.diffusions[1], {"t": 0, "x0": 1, "x1": 0, **theta})
        g2b = hude.eval_expr(model.diffusions[1], {"t": 0, "x0": 0, "x1": 1, **theta})
        assert f"{abs(g1):.6g}" == "1.43143"
        assert f"{g2:.6g}" == "2.96798"
        assert f"{abs(g2b):.6g}" == "0.296798"

    def test_zero_noise_is_deterministic(self):
        model = build_reactor_hude(THERMAL_U235)  # sigma1 = sigma2 = 0
        field = hude.alpha_path_field(model, None, 0.9)
        median = hude.alpha_path_field(model, None, 0.5)
        y = np.array([1.2, 0.01])
        assert np.array_equal(field(0.0, y), median(0.0, y))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ReactorParams(0.08, 0.0065, 1.0, 0.0)
        with pytest.raises(ValueError):
            ReactorParams(0.08, 1.5, 1.0, 1e-4)
        with pytest.raises(ValueError):
            ReactorParams(0.08, 0.0065, 1.0, 1e-4, sigma1=-0.1)
        with pytest.raises(ValueError):
            six_groups(THERMAL_U235, (0.1,) * 6, (0.1,) * 6)


class TestPointKinetics:
    def test_single_group_collapse_matches_two_equation_form(self):
        params = six_groups(
            THERMAL_U235,
            (THERMAL_U235.delayed_fraction, 0, 0, 0, 0, 0),
            (THERMAL_U235.decay_constant, 0, 0, 0, 0, 0),
        )
        field = build_point_kinetics(params)
        n, q = 1.3, 0.8
        out = field(0.0, np.array([n, q, 0, 0, 0, 0, 0]))
        lam = THERMAL_U235.decay_constant
        beta = THERMAL_U235.delayed_fraction
        k = THERMAL_U235.multiplication
        l_n = THERMAL_U235.neutron_lifetime
        assert out[0] == pytest.approx(lam * q + (k * (1 - beta) - 1) / l_n * n)
        assert out[1] == pytest.approx(-lam * q + k * beta / l_n * n)

    def test_trivial_equilibrium(self):
        params = six_groups(THERMAL_U235, (0.0065 / 6,) * 6, (0.08,) * 6)
        field = build_point_kinetics(params)
        assert np.all(field(0.0, np.zeros(7)) == 0.0)

    def test_critical_low_beta_limit(self):
        params = ReactorParams(
            decay_constant=0.0785,
            delayed_fraction=1e-12,
            multiplication=1.0,
            neutron_lifetime=1e-4,
            group_fractions=(1e-12, 0, 0, 0, 0, 0),
            group_decay_constants=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
            source_rate=2.5,
        )
        field = build_point_kinetics(params)
        y = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        expected = 2.5 + 0.5 * (0.1 + 0.2 + 0.3 + 0.4 + 0.5 + 0.6)
        assert field(0.0, y)[0] == pytest.approx(expected, abs=1e-6)

    def test_groups_required(self):
        with pytest.raises(ValueError):
            build_point_kinetics(THERMAL_U235)


class TestClosedForm:
    def test_median_coefficients(self):
        p, r, t_disc = simplified_alpha_coefficients(0.5)
        assert p == -55.1435
        assert r == 0.785
        assert t_disc == pytest.approx(3043.9456, abs=1e-4)
        root = math.sqrt(t_disc)
        assert (p - root) / 2 == pytest.approx(-55.1577, abs=1e-4)
        assert (p + root) / 2 == pytest.approx(0.014232, abs=1e-6)

    def test_initial_value_exact(self):
        for alpha in (0.45, 0.5, 0.7, 0.95):
            assert closed_form_psi_inv(0.0, alpha) == pytest.approx(1.2157, abs=1e-12)

    def test_median_at_six_seconds(self):
        assert closed_form_psi_inv(6.0, 0.5) == pytest.approx(1.3239, abs=1e-3)

    def test_validity_band(self):
        for bad in (0.4, 0.2, 1.0, 1.1):
            with pytest.raises(ValueError):
                closed_form_psi_inv(1.0, bad)

    def test_nondecreasing_in_alpha(self):
        alphas = np.linspace(0.41, 0.98, 30)
        for t in np.linspace(0.0, 6.0, 13):
            values = [closed_form_psi_inv(t, a) for a in alphas]
            assert np.all(np.diff(values) >= -1e-12)

    def test_matches_simplified_field_integration(self):
        for alpha in (0.45, 0.7):
            field = simplified_alpha_field(alpha)
            path = integrate_rk4(field, CASE_STUDY_INIT, 6.0, h=1e-3)
            exact = closed_form_psi_inv(path.t, alpha)
            rel = np.abs(path.component(0) - exact) / np.abs(exact)
            assert float(rel.max()) < 1e-4

    # The field runs through the generated kernels: compiled, or row by row
    # on floats.  Its paths keep the bits of the former hand-written field.
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_paths_equal_the_hand_written_field(self, monkeypatch, method):
        for alpha in (0.41, 0.7, 0.99):
            p, r, _ = simplified_alpha_coefficients(alpha)

            def raw(t, y):
                F = np.empty_like(y)
                F[..., 0] = y[..., 1]
                F[..., 1] = p * y[..., 1] + r * y[..., 0]
                return F

            for t_end, h in ((6.0, 1e-3), (1.0, 0.3)):
                expected = integrate(VectorField(raw, 2), CASE_STUDY_INIT,
                                     t_end, h, method).y
                for compiled in (True, False):
                    monkeypatch.setattr(odeint, "COMPILED", compiled)
                    got = integrate(simplified_alpha_field(alpha),
                                    CASE_STUDY_INIT, t_end, h, method).y
                    assert got.tobytes() == expected.tobytes()

    def test_array_evaluation(self):
        t = np.array([0.0, 1.0, 2.0])
        values = closed_form_psi_inv(t, 0.6)
        assert values.shape == (3,)
        assert values[0] == pytest.approx(1.2157)


class TestBundledData:
    def test_observation_table(self):
        series = table3()
        assert len(series) == 61
        assert series.t[0] == 0.0 and series.t[-1] == 6.0
        assert series.x[0] == 1.2157
        assert series.x[-1] == 1.3285

    def test_residual_table(self):
        rv = table4()
        assert len(rv) == 60
        assert rv.epsilons[24] == 0.9065  # j = 25
        assert rv.epsilons[49] == 0.9875  # j = 50
        assert rv.epsilons[54] == 0.9952  # j = 55

    def test_forward_slope_matches_reported_initial_derivative(self):
        series = table3()
        slope = (series.x[1] - series.x[0]) / (series.t[1] - series.t[0])
        assert slope == pytest.approx(0.008, abs=1e-12)

    def test_csv_round_trip_identical(self, tmp_path):
        out = tmp_path / "residuals.csv"
        table4().to_csv(out)
        again = hude.ResidualVector.from_csv(out)
        assert np.array_equal(again.epsilons, table4().epsilons)
