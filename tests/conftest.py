import math

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

import hude
from hude import reactor
from hude.expr import Binary, Call, Const, Unary, Var

# ``--hypothesis-profile=ci``: a failing property reports its first failing
# example without shrinking it, which on an empty example database can take
# minutes; the examples run are the same.
settings.register_profile(
    "ci", phases=[phase for phase in Phase if phase is not Phase.shrink])


@pytest.fixture(scope="session")
def example2():
    # x'' = 2x' + 3x + e^{-t} * noise, x(0) = x'(0) = 0
    return hude.HudeModel.parse(2, "2*x1 + 3*x0", ["exp(-t)"])


@pytest.fixture(scope="session")
def example1():
    # x'' = -x + e^{-t} * noise; its quantile paths cross, so they are not
    # quantiles of anything
    return hude.HudeModel.parse(2, "-x0", ["exp(-t)"])


@pytest.fixture(scope="session")
def zero_init2():
    return hude.InitialState(0.0, [0.0, 0.0])


@pytest.fixture(scope="session")
def reactor_fitted():
    return reactor.build_reactor_hude(reactor.THERMAL_U235).bind(reactor.FITTED_THETA)


def logistic_quantile(alpha: float) -> float:
    """Independent re-derivation of the standard normal inverse uncertainty
    distribution used by closed-form oracles."""
    return math.sqrt(3.0) / math.pi * math.log(alpha / (1.0 - alpha))


def example2_closed_form(t: float, alpha: float) -> float:
    """Exact quantile path of the example2 dynamics."""
    factor = math.sqrt(3.0) / (16.0 * math.pi) * (
        math.exp(3.0 * t) - math.exp(-t) - 4.0 * t * math.exp(-t)
    )
    return factor * math.log(alpha / (1.0 - alpha))


def example1_closed_form(t: float, alpha: float, a: float = 0.0, b: float = 0.0) -> float:
    """Exact quantile path of the example1 dynamics."""
    p = logistic_quantile(alpha)
    return (a - p / 2.0) * math.cos(t) + (b + p / 2.0) * math.sin(t) + (
        p / 2.0
    ) * math.exp(-t)


def ast_strategy(binary="+-*/^", functions=("exp", "ln", "sin", "cos", "abs")):
    """Expression trees over ``t``, ``x0 .. x2`` and the parameters ``a`` and
    ``b``, of the ``binary`` operators and the ``functions`` given."""
    names = st.sampled_from(["t", "x0", "x1", "x2", "a", "b"])
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Const),
        names.map(Var),
    )

    def extend(children):
        return st.one_of(
            children.map(lambda c: Unary("-", c)),
            st.tuples(st.sampled_from(binary), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(functions), children).map(
                lambda t: Call(t[0], t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=16)
