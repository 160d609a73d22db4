import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hude.expr import (
    ArityError,
    Binary,
    Call,
    Const,
    DomainError,
    EvalError,
    ExprSyntaxError,
    Unary,
    UndeclaredIdentifierError,
    Var,
    compile_expr,
    eval_expr,
    parse_expr,
    to_source,
    variables,
)
from hude.model import HudeModel, ReducedField, compile_model

from conftest import ast_strategy


class TestParse:
    def test_example2_drift_is_three_term_sum(self):
        ast = parse_expr("2*x1 + 3*x0 + exp(-t)", 2)
        assert isinstance(ast, Binary) and ast.op == "+"
        assert isinstance(ast.left, Binary) and ast.left.op == "+"
        assert isinstance(ast.left.left, Binary) and ast.left.left.op == "*"
        assert isinstance(ast.left.right, Binary) and ast.left.right.op == "*"
        assert isinstance(ast.right, Call) and ast.right.func == "exp"
        assert isinstance(ast.right.arg, Unary)

    def test_single_variable(self):
        assert parse_expr("x0", 1) == Var("x0")

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("x0 + sig1*", 1, ["sig1"])
        assert exc.value.position == 10

    def test_undeclared_identifier(self):
        with pytest.raises(UndeclaredIdentifierError) as exc:
            parse_expr("x0 + y", 1)
        assert exc.value.position == 5

    def test_state_variable_out_of_order(self):
        with pytest.raises(UndeclaredIdentifierError):
            parse_expr("x2", 2)

    def test_unknown_function(self):
        with pytest.raises(UndeclaredIdentifierError):
            parse_expr("tan(x0)", 1)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse_expr("exp(x0, 1)", 1)

    def test_empty_source(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("   ", 1)

    def test_trailing_tokens(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x0 x0", 1)

    def test_reserved_parameter_names_rejected(self):
        for bad in ("t", "x0", "exp"):
            with pytest.raises(ValueError):
                parse_expr("x0", 1, [bad])

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            parse_expr("x0", 0)

    def test_power_is_right_associative(self):
        assert eval_expr(parse_expr("2^3^2", 1), {}) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert eval_expr(parse_expr("-2^2", 1), {}) == -4.0

    def test_subtraction_left_associative(self):
        assert eval_expr(parse_expr("2 - 3 - 4", 1), {}) == -5.0

    def test_scientific_literals(self):
        assert parse_expr("1.5e-3", 1) == Const(0.0015)

    def test_overflowing_literal_rejected_at_its_position(self):
        # A literal float() turns into inf would print as the name ``inf``.
        for src, position in [("1e999*x0 - x0", 0), ("x0 + 2e308", 5)]:
            with pytest.raises(ExprSyntaxError) as exc:
                parse_expr(src, 1)
            assert exc.value.position == position
        assert parse_expr("1.7e308", 1) == Const(1.7e308)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constant_rejected(self, value):
        # Built as an AST, past the parser: its repr would reach generated
        # code and ``to_source`` as the name ``inf`` or ``nan``.
        with pytest.raises(ValueError, match="constant must be finite"):
            Binary("-", Binary("*", Const(value), Var("x0")), Var("x0"))


class TestEval:
    def test_exp_zero(self):
        ast = parse_expr("2*x1+3*x0+exp(-t)", 2)
        assert eval_expr(ast, {"t": 0.0, "x0": 0.0, "x1": 0.0}) == 1.0

    def test_abs_hand_value(self):
        ast = parse_expr("abs(-1.43143*x1)", 2)
        assert eval_expr(ast, {"x1": 2.0}) == pytest.approx(2.86286, abs=1e-12)

    def test_ln_domain_error(self):
        ast = parse_expr("ln(x0)", 1)
        with pytest.raises(DomainError):
            eval_expr(ast, {"x0": 0.0})
        with pytest.raises(DomainError):
            eval_expr(ast, {"x0": -1.0})

    def test_division_by_zero(self):
        for src in ("1/x0", "0/x0", "x0^-1"):
            with pytest.raises(DomainError):
                eval_expr(parse_expr(src, 1), {"x0": 0.0})

    @pytest.mark.parametrize("src, x0", [
        ("(-8)^(1/3)", 0.0), ("exp(1000)", 0.0), ("x0*x0", 1e200),
        ("sin(x0)", math.inf)])
    def test_overflow_or_invalid_is_a_domain_error(self, src, x0):
        # The kernels' arithmetic turns these into inf or NaN.
        with pytest.raises(DomainError):
            eval_expr(parse_expr(src, 1), {"x0": x0})

    def test_missing_binding(self):
        with pytest.raises(EvalError, match="missing binding for 'c'"):
            eval_expr(parse_expr("x0 + c", 1, ["c"]), {"x0": 1.0})

    def test_unread_keys_are_ignored(self):
        # Parameters are read through their slots p0, p1, ...: a key of the
        # same name, or one named after a generated name, changes nothing.
        ast = parse_expr("c*x0 - d^t", 1, ["c", "d"])
        env = {"t": 0.5, "x0": 1.5, "c": 2.0, "d": 3.0}
        stray = {"p0": 7.0, "p1": -1.0, "phi": 9.0, "np": 0.0}
        assert eval_expr(ast, {**env, **stray}) == eval_expr(ast, env)

    def test_deterministic(self):
        ast = parse_expr("sin(x0)*cos(t) + x0^3/7", 1)
        env = {"t": 0.37, "x0": 1.91}
        assert eval_expr(ast, env) == eval_expr(ast, env)

    def test_compiled_matches_tree_walk(self):
        ast = parse_expr("sin(x0)*cos(t) + c*x1^2 - abs(x0 - 2)", 2, ["c"])
        fn = compile_expr(ast, {"c": 0.7})
        env = {"t": 0.3, "x0": 1.2, "x1": -0.4, "c": 0.7}
        expected = eval_expr(ast, env)
        got = fn(0.3, np.array([1.2, -0.4]))
        assert float(got) == expected

    def test_compile_requires_bound_parameters(self):
        ast = parse_expr("c*x0", 1, ["c"])
        with pytest.raises(ValueError):
            compile_expr(ast)


class TestOneEvaluator:
    # Per row: t, x0, x1, x2 and parameters a, b (bound per row in the
    # array forms); 0.5, 2.0 and -1.0 reach numpy's special exponents.
    ROWS = np.array([[0.0, 1.0, -1.0, 0.5, 2.0, -1.0],
                     [0.3, -2.5, 0.5, 3.0, 0.5, 2.0],
                     [1.7, 0.0, 4.0, -0.25, -1.0, 0.5],
                     [-0.8, 9.0, -3.0, 1e-3, 3.7, -2.2],
                     [2.5, 0.75, 1e5, -7.0, 0.0, 1.0]])

    @settings(max_examples=200, deadline=None)
    @given(ast_strategy())
    def test_every_evaluator_gives_the_same_bits(self, ast):
        # Wherever the tree's value is defined, compile_expr and a reduced
        # field whose drift is the tree compute its bits.  That value is never
        # NaN here: from finite inputs only an invalid op makes one, and
        # eval_expr raises there.
        t, x0, x1, x2, a, b = self.ROWS.T
        theta = {"a": a, "b": b}
        with np.errstate(all="ignore"):
            rows = compile_expr(ast, theta)(t, self.ROWS[:, 1:4])
            field = ReducedField(*compile_model(
                HudeModel(3, ast, params=("a", "b")), theta), 0.0)
            last = field.columns(3)(t, x0, x1, x2)[-1]
        for i, row in enumerate(self.ROWS):
            try:
                value = eval_expr(ast, dict(zip(["t", "x0", "x1", "x2", "a",
                                                 "b"], row)))
            except DomainError:
                continue
            for got in (rows, last):
                got = np.float64(np.broadcast_to(got, t.shape)[i])
                assert got.tobytes() == np.float64(value).tobytes()


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(ast_strategy())
    def test_print_parse_round_trip(self, ast):
        printed = to_source(ast)
        assert parse_expr(printed, 3, ["a", "b"]) == ast

    def test_round_trip_fixed_cases(self):
        for src in [
            "2*x1 + 3*x0 + exp(-t)",
            "-x0^2",
            "(x0 + 1)/(x1 - 2)",
            "a - (b - x0)",
            "2^-3",
            "abs(-1.43143*x1)",
            "-(x0*x1)",
            "x0 - x1 - t",
        ]:
            first = parse_expr(src, 2, ["a", "b"])
            assert parse_expr(to_source(first), 2, ["a", "b"]) == first


def test_variables():
    ast = parse_expr("a*x1 + exp(-t) - x0", 2, ["a"])
    assert variables(ast) == {"a", "x1", "t", "x0"}
