import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
from hude import (
    ConditionDomain,
    HudeModel,
    InitialState,
    ModelFormatError,
    alpha_path_field,
    check_alpha_path_condition,
    load_model,
    model_from_dict,
    phi_inv,
)
from hude.estimate import _mle_window
from hude.expr import Binary, Const, DomainError
from hude.model import ALPHA_CLAMP, _clamped_phi, _init_from_dict
from hude.validation import check_unit_interval

from conftest import logistic_quantile


class TestPhiInv:
    def test_symmetry_point(self):
        assert phi_inv(0.5) == 0.0

    def test_high_precision_value(self):
        assert phi_inv(0.9) == pytest.approx(1.2114, abs=1e-4)

    def test_antisymmetry(self):
        assert phi_inv(0.3) + phi_inv(0.7) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                phi_inv(bad)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1 - 1e-6),
        st.floats(min_value=1e-6, max_value=1 - 1e-6),
    )
    def test_strictly_increasing(self, a, b):
        # Adjacent levels near 1e-6 differ by ~1e-22, which moves the ~-7.6
        # result by less than one of its ulps, so strict increase is only
        # attainable where the levels are resolvably apart.
        lo, hi = sorted((a, b))
        assert phi_inv(lo) <= phi_inv(hi)
        if hi - lo > 1e-12:
            assert phi_inv(lo) < phi_inv(hi)

    def test_vectorised(self):
        values = phi_inv(np.array([0.2, 0.5, 0.8]))
        assert values.shape == (3,)
        assert values[1] == 0.0


def test_clamped_phi_equals_clipped_phi_inv():
    # 100,000 levels: uniform on [0, 1], the walls 0, 1 and -0.0, the clamp
    # edges with their neighbouring floats, and levels beyond the walls.
    edges = [ALPHA_CLAMP, 1.0 - ALPHA_CLAMP]
    special = np.array([0.0, -0.0, 1.0, 0.5, -0.1, 1.5, -np.inf, np.inf,
                        *edges,
                        *(np.nextafter(e, d) for e in edges
                          for d in (-np.inf, np.inf))])
    rng = np.random.default_rng(11)
    alpha = np.concatenate([special, rng.uniform(size=100_000 - special.size)])
    rng.shuffle(alpha)
    expected = phi_inv(np.clip(alpha, ALPHA_CLAMP, 1.0 - ALPHA_CLAMP))
    assert _clamped_phi(alpha).tobytes() == expected.tobytes()
    for a in special:
        got = _clamped_phi(float(a))
        assert type(got) is float
        assert got == phi_inv(float(np.clip(a, ALPHA_CLAMP, 1 - ALPHA_CLAMP)))
    for bad in (np.nan, np.array([0.5, np.nan])):
        with pytest.raises(ValueError):
            _clamped_phi(bad)


class TestAlphaPathField:
    def test_median_field_equals_drift_exactly(self, example2):
        field = alpha_path_field(example2, None, 0.5)
        drift_only = HudeModel.parse(2, "2*x1 + 3*x0")
        bare = alpha_path_field(drift_only, None, 0.5)
        for t, y in [(0.0, [0.3, -1.2]), (2.0, [1.0, 1.0]), (0.7, [-5.0, 0.2])]:
            assert np.array_equal(field(t, np.array(y)), bare(t, np.array(y)))

    def test_field_structure(self, example2):
        field = alpha_path_field(example2, None, 0.9)
        out = field(0.0, np.array([0.0, 0.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.2114, abs=1e-4)

    def test_reactor_median_coefficients(self, reactor_fitted):
        field = alpha_path_field(reactor_fitted, None, 0.5)
        slope = field(0.0, np.array([0.0, 1.0]))[1]
        level = field(0.0, np.array([1.0, 0.0]))[1]
        assert slope == pytest.approx(-55.1435, abs=1e-9)
        assert level == pytest.approx(0.785, abs=1e-9)

    def test_unbound_parameter(self):
        model = HudeModel.parse(1, "-a*x0", params=["a"])
        with pytest.raises(ValueError):
            alpha_path_field(model, None, 0.5)

    def test_alpha_domain(self, example2):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                alpha_path_field(example2, None, bad)

    def test_domain_error_propagates(self):
        model = HudeModel.parse(1, "ln(x0)")
        field = alpha_path_field(model, None, 0.5)
        with pytest.raises(DomainError):
            field(0.0, np.array([-1.0]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_highest_component_nondecreasing_in_alpha(self, a1, a2, y0, y1):
        model = HudeModel.parse(2, "x1 - 0.5*x0", ["0.4*x0 - x1", "2.0"])
        lo, hi = sorted((a1, a2))
        y = np.array([y0, y1])
        f_lo = alpha_path_field(model, None, lo)(0.3, y)[1]
        f_hi = alpha_path_field(model, None, hi)(0.3, y)[1]
        assert f_lo <= f_hi + 1e-12

    def test_signed_zero_constants_generate_their_own_fields(self):
        # 0.0 == -0.0, so the two drifts compare equal as ASTs; each field
        # still divides by its own zero.
        drifts = [Binary("/", Const(1.0), Const(zero)) for zero in (0.0, -0.0)]
        assert drifts[0] == drifts[1]
        with np.errstate(divide="ignore"):
            values = [alpha_path_field(HudeModel(1, d), None, 0.5).raw(
                0.0, np.array([1.0]))[0] for d in drifts]
        assert values == [math.inf, -math.inf]

    def test_batch_shape(self, example2):
        field = alpha_path_field(example2, None, 0.7)
        batch = field(0.0, np.zeros((5, 2)))
        assert batch.shape == (5, 2)


class TestConditionCheck:
    def test_example2_passes_any_alpha(self, example2):
        domain = ConditionDomain((0.0, 1.0), ((-1.0, 1.0), (-1.0, 1.0)), 5)
        for alpha in (0.1, 0.5, 0.9):
            assert check_alpha_path_condition(example2, None, alpha, domain).passed

    def test_reactor_passes_at_median(self, reactor_fitted):
        domain = ConditionDomain((0.0, 6.0), ((1.0, 2.0), (0.0, 0.4)), 5)
        assert check_alpha_path_condition(reactor_fitted, None, 0.5, domain).passed

    def test_reactor_fails_low_alpha(self, reactor_fitted):
        domain = ConditionDomain((0.0, 6.0), ((1.0, 2.0), (0.0, 0.4)), 5)
        report = check_alpha_path_condition(reactor_fitted, None, 0.2, domain)
        assert not report.passed
        (axis,) = report.axes
        assert axis.axis == 0 and not axis.passed
        # slope per unit state on the default grid: 0.785 + 2.96798 * quantile
        expected = 0.785 + 2.96798 * logistic_quantile(0.2)
        step = 1.0 / 4  # box width 1, resolution 5
        assert axis.min_slack == pytest.approx(expected * step, rel=1e-3)

    def test_median_checks_the_drift_where_the_noise_is_infinite(self):
        # The grid holds x0 = 0, where 1/x0 is infinite.  The median field
        # leaves the noise out, as the integrated field does, so the check
        # reports on the drift; at any other level the field is not finite.
        model = HudeModel.parse(2, "2*x0 - x1", ["1/x0"])
        domain = ConditionDomain((0.0, 1.0), ((-1.0, 1.0), (0.0, 1.0)), 3)
        report = check_alpha_path_condition(model, None, 0.5, domain)
        assert report.passed
        assert report.axes[0].min_slack == 2.0
        with pytest.raises(DomainError):
            check_alpha_path_condition(model, None, 0.4, domain)

    def test_order_one_vacuous(self):
        model = HudeModel.parse(1, "-x0")
        domain = ConditionDomain((0.0, 1.0), ((-1.0, 1.0),), 3)
        report = check_alpha_path_condition(model, None, 0.5, domain)
        assert report.passed and report.axes == ()

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            ConditionDomain((0.0, 1.0), ((-1.0, 1.0),), 1)


class TestModelJson:
    def test_round_trip(self, tmp_path, example2):
        doc = example2.to_dict()
        rebuilt = model_from_dict(doc)
        assert rebuilt == example2

    def test_load_with_theta_and_init(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "order": 2,
                    "drift": "a*x1",
                    "diffusions": ["0.5"],
                    "params": ["a"],
                    "theta": {"a": -0.25},
                    "init": {"t0": 1.0, "state": [2.0, 0.0]},
                }
            )
        )
        model, init = load_model(path)
        assert model.params == ("a",)
        assert model.theta == {"a": -0.25}
        assert init.t0 == 1.0
        assert np.array_equal(init.values, [2.0, 0.0])

    def test_bad_documents(self):
        with pytest.raises(ModelFormatError):
            model_from_dict({"drift": "x0"})
        with pytest.raises(ModelFormatError):
            model_from_dict({"order": 1.5, "drift": "x0"})
        with pytest.raises(ModelFormatError):
            model_from_dict({"order": 1, "drift": "x0", "diffusions": "nope"})
        # A theta value or an initial state that is not a number.
        for value in (None, [1.0], {"b": 1.0}, "x"):
            with pytest.raises(ModelFormatError):
                model_from_dict({"order": 1, "drift": "a*x0", "params": ["a"],
                                 "theta": {"a": value}})
        with pytest.raises(ModelFormatError):
            _init_from_dict({"t0": 0.0, "state": {"x0": 1.0}}, 1)
        # Values float() reads still load.
        for value, read in (("0.5", 0.5), (True, 1.0)):
            model = model_from_dict({"order": 1, "drift": "a*x0",
                                     "params": ["a"], "theta": {"a": value}})
            assert model.theta == {"a": read}

    def test_init_dimension_checked(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {"order": 2, "drift": "x1", "init": {"t0": 0.0, "state": [1.0]}}
            )
        )
        with pytest.raises(ModelFormatError):
            load_model(path)


class TestTypes:
    def test_initial_state_validation(self):
        with pytest.raises(ValueError):
            InitialState(0.0, [])
        with pytest.raises(ValueError):
            InitialState(0.0, [math.nan])
        state = InitialState(0.0, [1, 2])
        assert state.values.dtype == float
        with pytest.raises(ValueError):
            state.values[0] = 3.0

    def test_model_rejects_stray_identifiers(self):
        drift = hude.parse_expr("a*x0", 1, ["a"])
        with pytest.raises(ValueError):
            HudeModel(order=1, drift=drift)

    def test_bind_merges(self):
        model = HudeModel.parse(1, "a*x0 + b", params=["a", "b"], theta={"a": 1.0})
        bound = model.bind({"b": 2.0})
        assert bound.resolved_theta() == {"a": 1.0, "b": 2.0}
        with pytest.raises(ValueError):
            model.resolved_theta()


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_every_level_check_runs_the_one_level_rule(bad):
    # A level lies strictly inside (0, 1), NaN outside, whether it comes
    # alone or in an array, and each caller names it in its own message.
    model = HudeModel.parse(1, "-x0", ["0.1"])
    init = InitialState(0.0, [1.0])
    path = hude.solve_alpha_path(model, None, 0.5, init, 0.1, h=0.05)
    domain = ConditionDomain((0.0, 1.0), ((-1.0, 1.0),))
    calls = {
        "alpha": [lambda: phi_inv(bad), lambda: phi_inv([0.5, bad]),
                  lambda: alpha_path_field(model, None, bad),
                  lambda: check_alpha_path_condition(model, None, bad, domain),
                  lambda: hude.AlphaPath(bad, path.trajectory)],
        "quantile levels": [lambda: hude.inverse_distribution(
            model, None, init, 0.1, [0.5, bad], h=0.05)],
        "residuals": [lambda: hude.ResidualVector([0.5, bad]),
                      lambda: hude.uncertain_hypothesis_test([0.5, bad])],
        "levels": [lambda: hude.simulate_observations(
            model, None, init, [0.0, 0.1, 0.2], eps=[0.5, bad], h=0.05)],
        "detection level": [lambda: _mle_window(10, bad)],
        "significance level": [
            lambda: hude.uncertain_hypothesis_test([0.5], bad)],
        "value": [lambda: check_unit_interval("value", bad),
                  lambda: check_unit_interval("value", np.array([[0.5, bad]]))],
    }
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(ValueError) as exc:
                fn()
            assert str(exc.value) == f"{name} must lie strictly inside (0, 1)"
    check_unit_interval("value", np.array([[0.5, 1e-300], [0.25, 1 - 1e-16]]))


@pytest.mark.parametrize("size", [1, 3])
def test_every_solve_checks_the_initial_state_against_the_order(size):
    # An order-2 model from a state of 1 or 3 components: too short, it
    # would fail in code generation; too long, it would integrate another
    # system.  Every entry point rejects it with one message.
    model = HudeModel.parse(2, "-x0", ["0.1"])
    init = InitialState(0.0, np.arange(1.0, size + 1))
    calls = [
        lambda: hude.solve_alpha_path(model, None, 0.5, init, 1.0, h=0.1),
        lambda: hude.integrate(alpha_path_field(model, None, 0.5), init, 1.0,
                               h=0.1),
        lambda: hude.inverse_distribution(model, None, init, 1.0,
                                          [0.25, 0.75], h=0.1),
        lambda: hude.compute_residual(model, None, init, 1.0, 0.5, h=0.1),
        lambda: hude.simulate_observations(model, None, init,
                                           [0.0, 0.5, 1.0], h=0.1),
    ]
    for fn in calls:
        with pytest.raises(ValueError) as exc:
            fn()
        assert str(exc.value) == "initial state must have 2 components"
