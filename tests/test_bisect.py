"""The probe-tree bisection equals halving one level per integration pass, bit
for bit, and resolves several levels per pass only while the probes fit in
``PROBE_ROWS`` rows.  A guessed start changes the passes and nothing else."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hude
from hude import residuals
from hude.model import ReducedField, compile_model, phi_inv
from hude.odeint import IntegrationError, _terminal_state_batch
from hude.residuals import PROBE_CLAMP, _bisect_levels


def _sequential_levels(model, theta, t0s, y0s, t1s, x_next, delta, h, method,
                       check_finite=True):
    """One level per integration pass: the bisection as it was before probe
    trees, kept as the reference."""
    drift, diffusions = compile_model(model, theta)
    B = len(x_next)
    lo = np.zeros(B)
    hi = np.ones(B)
    failed = np.zeros(B, dtype=bool)
    while float(np.max(hi - lo)) > delta:
        mid = 0.5 * (lo + hi)
        phi = phi_inv(np.clip(mid, PROBE_CLAMP, 1.0 - PROBE_CLAMP))
        raw = ReducedField(drift, diffusions, phi)
        terminal = _terminal_state_batch(raw, t0s, y0s, t1s, h, method,
                                         check_finite=check_finite)
        failed |= ~np.isfinite(terminal).all(axis=1)
        below = terminal[:, 0] < x_next
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    eps = 0.5 * (lo + hi)
    saturated = (lo <= 0.0) | (hi >= 1.0)
    return eps, saturated, failed


# name -> (order, drift, diffusion, parameter ranges, state range, target range)
CASES = {
    "linear": (1, "m - 1.5*x0", "s", {"m": (-1.0, 1.0), "s": (0.05, 1.0)},
               (-1.0, 2.0), (-1.0, 2.0)),
    # Not monotone in the state: the terminal value is not monotone in the
    # level either, so the walk must read exactly the probes halving reads.
    "non_monotone": (2, "-x0^3 + sin(x1)", "s*(1 + x0^2)",
                     {"s": (0.1, 2.0)}, (-1.5, 1.5), (-1.5, 1.5)),
    # Riccati blow-up: rows overflow at high levels only, some rows at every
    # probe, some at none.
    "overflow": (1, "x0^2", "c", {"c": (0.5, 5.0)}, (0.0, 6.0), (-2.0, 8.0)),
    # Targets mostly beyond every finite value: rows climb towards the top
    # and fail at a level that differs from row to row, seldom the first.
    "overflow_far": (1, "x0^2", "c", {"c": (0.5, 5.0)}, (0.0, 1.5),
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


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CASES)),
    rows=st.integers(min_value=1, max_value=300),
    delta=st.sampled_from([0.3, 1e-2, 1e-4, 1e-7]),
    method=st.sampled_from(["euler", "rk4"]),
    row_theta=st.booleans(),
    check_finite=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_tree_walk_equals_sequential_halving(name, rows, delta, method,
                                             row_theta, check_finite, seed):
    model, theta, *arrays = _case(name, rows, seed, row_theta)
    args = (model, theta, *arrays, delta, 0.1, method, check_finite)
    try:
        expected = _sequential_levels(*args)
    except IntegrationError as exc:
        with pytest.raises(IntegrationError) as raised:
            _bisect_levels(*args)
        assert raised.value.t == exc.t
        return
    got = _bisect_levels(*args)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert np.array_equal(_bits(a), _bits(b))


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
    (60, [4, 4, 4, 2]),
    (1, [10, 4]),
    (300, [2] * 7),
    (2000, [1] * 14),
])
def test_levels_per_pass(monkeypatch, rows, passes):
    sizes = _pass_sizes(monkeypatch, rows)
    assert sizes == [rows * (2**b - 1) for b in passes]
    assert max(sizes) <= max(rows, residuals.PROBE_ROWS)


def test_coarse_delta_takes_no_pass(monkeypatch):
    assert _pass_sizes(monkeypatch, 5, delta=1.0) == []


def test_overflow_at_unvisited_probes_is_ignored(monkeypatch, guess=None):
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
        got = _bisect_levels(*args, guess=guess)
        expected = _sequential_levels(*args)
    assert finite[0] is False  # the first pass integrated overflowing probes
    assert not got[2].any()
    for a, b in zip(got, expected):
        assert np.array_equal(_bits(a), _bits(b))


def _guess(kind, cold, delta, rng):
    """Guesses for the rows of a bisection whose cold levels are ``cold``."""
    halvings = 0
    while 0.5 ** halvings > delta:
        halvings += 1
    cell = np.floor(np.ldexp(cold, halvings)).astype(np.int64)
    if kind == "right":
        return cold
    if kind == "one bit off":
        # Right down to a random level, then the other half: the row leaves
        # the guessed cell part way down.
        level = rng.integers(1, halvings + 1, cold.size)
        wrong = cell ^ (np.int64(1) << (halvings - level))
        return np.ldexp(wrong + 0.5, -halvings)
    if kind == "walls":
        return rng.choice([0.0, 1.0], cold.size)
    if kind == "mixed":
        return np.where(rng.uniform(size=cold.size) < 0.5, cold,
                        rng.uniform(size=cold.size))
    return rng.uniform(size=cold.size)


def _outcome(args, **kwargs):
    try:
        return _bisect_levels(*args, **kwargs)
    except IntegrationError as exc:
        return exc


@settings(max_examples=80, deadline=None)
# Rows with right guesses fail deep in the first pass while a row with a
# wrong guess fails shallower later: the error must wait for it.
@example(name="overflow_far", rows=60, delta=1e-4, method="euler",
         row_theta=False, check_finite=True, kind="mixed", seed=4)
# Later passes integrate fewer rows: a row that ends where its field
# overflows must not depend on longer rows in the pass.
@example(name="overflow_far", rows=26, delta=1e-2, method="euler",
         row_theta=False, check_finite=False, kind="walls", seed=0)
@given(
    name=st.sampled_from(sorted(CASES)),
    rows=st.integers(min_value=1, max_value=300),
    delta=st.sampled_from([0.3, 1e-2, 1e-4, 1e-7]),
    method=st.sampled_from(["euler", "rk4"]),
    row_theta=st.booleans(),
    check_finite=st.booleans(),
    kind=st.sampled_from(["right", "one bit off", "walls", "mixed", "random"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_guessed_start_equals_cold_bisection(name, rows, delta, method,
                                             row_theta, check_finite, kind,
                                             seed):
    model, theta, *arrays = _case(name, rows, seed, row_theta)
    args = (model, theta, *arrays, delta, 0.1, method, check_finite)
    with np.errstate(all="ignore"):
        levels = _bisect_levels(*args[:-1], check_finite=False)[0]
        guess = _guess(kind, levels, delta, np.random.default_rng(seed))
        cold = _outcome(args)
        warm = _outcome(args, guess=guess)
    if isinstance(cold, IntegrationError):
        assert isinstance(warm, IntegrationError)
        assert (warm.t, warm.row, warm.level) == (cold.t, cold.row, cold.level)
        assert str(warm) == str(cold)
        return
    assert not isinstance(warm, IntegrationError)
    for a, b in zip(warm, cold):
        assert a.dtype == b.dtype
        assert np.array_equal(_bits(a), _bits(b))


def test_overflow_at_unvisited_guessed_probes_is_ignored(monkeypatch):
    # The guess names the top interval: its ancestors run up to level ~1 and
    # overflow, and the row leaves the guess at the first level.
    test_overflow_at_unvisited_probes_is_ignored(monkeypatch, np.array([0.99999]))


@pytest.mark.parametrize("flips, passes", [
    ({}, [840]),
    # Row 0 leaves the guess at the first level: its 13 levels left take a
    # 10-level and a 3-level pass on that row alone.
    ({0: 1}, [840, 1023, 7]),
    ({0: 1, 1: 8}, [840, 1022, 15]),
    # A flip at the last level is read in the first pass.
    ({5: 14}, [840]),
    ({0: 1, 1: 8, 2: 12}, [840, 765, 31]),
], ids=["right", "row0-at1", "rows01", "row5-at14", "rows012"])
def test_right_guess_takes_one_pass(monkeypatch, flips, passes):
    # Each guess is the cold level, except that row r of ``flips`` names the
    # other half at level flips[r].
    sizes = []

    def counting(raw, t0, *args, **kwargs):
        sizes.append(len(t0))
        return _terminal_state_batch(raw, t0, *args, **kwargs)

    model, theta, *arrays = _case("linear", 60, 0, True)
    eps = _bisect_levels(model, theta, *arrays, 1e-4, 0.1, "euler")[0]
    cell = np.floor(np.ldexp(eps, 14)).astype(np.int64)
    for row, level in flips.items():
        cell[row] ^= 1 << (14 - level)
    guess = np.ldexp(cell + 0.5, -14)
    monkeypatch.setattr(residuals, "_terminal_state_batch", counting)
    warm = _bisect_levels(model, theta, *arrays, 1e-4, 0.1, "euler",
                          guess=guess)[0]
    assert sizes == passes
    assert np.array_equal(_bits(warm), _bits(eps))
