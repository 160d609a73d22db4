"""The bisection halves every row once per integration pass: it equals the
sequential reference bit for bit, a batch equals each row bisected alone, and
each pass integrates every row once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
import hude.native
from hude import odeint, residuals
from hude.model import ReducedField, _clamped_phi, compile_model
from hude.odeint import _terminal_state_batch

from conftest import spied_bisect


def _row_params(code, theta, rows):
    """The ``(slots, rows)`` point matrix of ``theta`` (floats, or one value
    per row) in the plan's slot order of ``code``: one point per row."""
    params = np.empty((len(code[2]), rows))
    for row, name in zip(params, code[2]):
        row[...] = theta[name]
    return params


def _bisected(model, theta, t0s, y0s, t1s, x_next, delta, h, method):
    """The whole state (``lo``, ``hi``, first failing pass, probe) of a
    residual bisection (:func:`hude.odeint._bisect`) of ``model``, lowered
    as :func:`hude.compute_residuals` lowers it (through
    ``residuals.compile_model``, which the tests below count), every row at
    its own values of ``theta``."""
    code = residuals.compile_model(model, theta)[0]
    run, _ = odeint._bisect(code, t0s, y0s, t1s, h, method, x_next,
                            residuals._halvings(delta))
    return run(_row_params(code, theta, len(x_next))).copy()


def _levels(state):
    """The levels, saturation flags, failure flags and failure of a
    bisection's ``state``: the failure is ``None``, else the lowest failed
    row of the first pass with a failure and the level it probed there."""
    lo, hi, first, probe = state
    failed = first >= 0.0
    failure = None
    if failed.any():
        row = int(np.argmin(np.where(failed, first, np.inf)))
        failure = (row, float(probe[row]))
    return 0.5 * (lo + hi), (lo <= 0.0) | (hi >= 1.0), failed, failure


def _bisect_levels(*args):
    """:func:`_levels` of :func:`_bisected`."""
    return _levels(_bisected(*args))


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
    # + - * / in C, order 2: about one row in eight fails, first at any
    # pass, and x1 often overflows where x0 is still finite.
    "overflow_mixed_c": (2, "x1*x1 + (x0 - 1)/c", "c", {"c": (0.5, 5.0)},
                         (0.0, 3.0), (-1.0, 1e300)),
    # x0*x0 overflows while x0 is finite, and the field takes inf - inf:
    # rows that blow up before their last step end at a NaN x0, which is not
    # below its target, so such a row keeps the lower half.
    "overflow_nan_c": (1, "c*(x0*x0) - x0*x0", "c", {"c": (1.5, 5.0)},
                       (0.0, 1.5), (0.0, 1e308)),
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
        state = _bisected(model, theta, t0s, y0s, t1s, x_next, delta, 0.1,
                          method)
        states = [_bisected(model, _row(theta, i), t0s[i:i + 1],
                            y0s[i:i + 1], t1s[i:i + 1], x_next[i:i + 1],
                            delta, 0.1, method) for i in range(rows)]
    # The whole state, then what a residual reads of it.
    assert np.array_equal(_bits(state), _bits(np.concatenate(states, axis=1)))
    batch, alone = _levels(state), [_levels(s) for s in states]
    for got, expected in zip(batch[:3], zip(*(a[:3] for a in alone))):
        assert np.array_equal(_bits(got), _bits(np.concatenate(expected)))
    if batch[3] is None:
        assert not batch[2].any()
    else:
        # The failed row probed the same level on its own.
        row, level = batch[3]
        assert alone[row][3] == (0, level)


def _bisect_loads(model, theta):
    # Whether the compiled bisection of ``model``'s field loads: built, or
    # found in the kernel cache.
    code = compile_model(model, theta)
    lowered, bound = ReducedField(*code, 0.5)._bound()
    return odeint._generated(lowered, ", ".join(bound), model.order, "euler",
                             "bisect", "compiled") is not None


def _spy(monkeypatch, compiled, record=lambda rows, plan: rows):
    """Set ``odeint.COMPILED`` to ``compiled`` and return two lists that
    bisections run from here fill: ``record(rows, plan)`` after each
    integration pass of the pass loop, by default its row count, and
    ``(rows, passes)`` of each compiled bisection."""
    sizes, bisections = [], []
    generate = odeint._generated

    def generated(*args):
        kernel = generate(*args)
        if kernel is None:
            return kernel
        if args[4] != "bisect":
            def step(rows, h, nsteps, out, plan):
                kernel(rows, h, nsteps, out, plan)
                sizes.append(record(rows, plan))
            return step

        return spied_bisect(kernel, lambda rows, head: bisections.append(
            (rows, int(head[0]))))

    monkeypatch.setattr(odeint, "COMPILED", compiled)
    monkeypatch.setattr(odeint, "_generated", generated)
    return sizes, bisections


def _calls(monkeypatch, rows, delta=1e-4, compiled=False):
    """The calls of :func:`_spy` that one bisection of ``rows`` rows of the
    linear case makes."""
    sizes, bisections = _spy(monkeypatch, compiled)
    model, theta, *arrays = _case("linear", rows, 0, True)
    _bisect_levels(model, theta, *arrays, delta, 0.1, "euler")
    return sizes, bisections


def _pass_sizes(monkeypatch, rows, delta=1e-4):
    # The passes of the numpy kernels, one call each.
    sizes, bisections = _calls(monkeypatch, rows, delta)
    assert bisections == []
    return sizes


# Whether the linear case's compiled bisection loads.
LINEAR_LOADS = _bisect_loads(*_case("linear", 1, 0, False)[:2])


@pytest.mark.parametrize("rows, passes", [
    (60, [60] * 14),
    (1, [1] * 14),
    (300, [300] * 14),
    (2000, [2000] * 14),
])
def test_levels_per_pass(monkeypatch, rows, passes):
    # One level per pass: every pass integrates each row once.
    assert _pass_sizes(monkeypatch, rows) == passes


@pytest.mark.parametrize("rows", [60, 1, 300, 2000])
def test_one_compiled_call_per_bisection(monkeypatch, rows):
    # Compiled, the 14 passes run inside one call over every row; where the
    # kernel does not load, they run one call each as above.
    expected = ([], [(rows, 14)]) if LINEAR_LOADS else ([rows] * 14, [])
    assert _calls(monkeypatch, rows, compiled=True) == expected


def test_coarse_delta_takes_no_pass(monkeypatch):
    assert _pass_sizes(monkeypatch, 5, delta=1.0) == []
    assert _calls(monkeypatch, 5, delta=1.0, compiled=True) == ([], [])


def test_coarse_delta_loads_no_kernel(monkeypatch):
    # A bisection that takes no pass looks up no kernel, so on a cold cache
    # it builds none; one pass loads the bisect entry point, and where that
    # does not load, the terminal kernel that runs the pass instead.
    load, loads = hude.native.load, []

    def spy(source, symbol):
        try:
            fn = load(source, symbol)
        except OSError:
            loads.append((symbol, False))
            raise
        loads.append((symbol, True))
        return fn

    monkeypatch.setattr(hude.native, "load", spy)
    model = hude.HudeModel.parse(1, "-0.3*x0", ["0.2"])
    series = hude.ObservationSeries([0.0, 0.1, 0.2], [1.0, 0.98, 0.95])
    for delta, expected in ((1.0, [[]]),
                            (0.5, [[("bisect", True)],
                                   [("bisect", False), ("kernel", False)]])):
        odeint._generated.cache_clear()
        loads.clear()
        hude.compute_residuals(model, None, series, delta=delta, h=0.01)
        assert loads in expected


def _counting_compiles(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return compile_model(*args, **kwargs)

    monkeypatch.setattr(residuals, "compile_model", counting)
    return calls


def test_row_parameters_compile_once(monkeypatch):
    # Each pass binds the parameter values of every row to the code of
    # one compile.
    calls = _counting_compiles(monkeypatch)
    assert len(_pass_sizes(monkeypatch, 60)) == 14
    assert len(calls) == 1


def test_compiled_bisection_compiles_once(monkeypatch):
    # The compiled bisection binds every row's values to the code of one
    # compile, and runs its 14 passes on them.
    calls = _counting_compiles(monkeypatch)
    sizes, bisections = _calls(monkeypatch, 60, compiled=True)
    assert len(sizes) + sum(passes for _, passes in bisections) == 14
    assert len(calls) == 1


def _unvisited_overflow(drift):
    # x' = x^2 + 3*phi from 1.2 over 1.5 overflows above level ~0.98 with this
    # step; the target 0 lies near level 0.3, so halving never probes there.
    model = hude.HudeModel.parse(1, drift, ["c"], params=["c"])
    return (model, {"c": 3.0}, np.zeros(1), np.array([[1.2]]),
            np.array([1.5]), np.zeros(1), 1e-4, 0.1, "euler")


def test_overflow_at_unvisited_probes_is_ignored(monkeypatch):
    args = _unvisited_overflow("x0^2")
    with np.errstate(all="ignore"):
        expected = _sequential_levels(*args)
        # Whether the one state row is finite after each pass.
        finite, _ = _spy(monkeypatch, False,
                         lambda rows, plan: bool(np.isfinite(plan[3]).all()))
        got = _bisect_levels(*args)
    # No pass integrates an overflowing probe.
    assert finite == [True] * 14
    assert not got[2].any()
    _assert_same(got, expected)


def test_compiled_bisection_ignores_overflow_at_unvisited_probes(monkeypatch):
    # The same field in ops that compile: the one compiled call flags no
    # row, and takes no pass of the pass loop where it loads.
    args = _unvisited_overflow("x0*x0")
    loads = _bisect_loads(*args[:2])
    with np.errstate(all="ignore"):
        expected = _sequential_levels(*args)
        passes, _ = _spy(monkeypatch, True)
        got = _bisect_levels(*args)
    assert len(passes) == (0 if loads else 14)
    assert not got[2].any()
    _assert_same(got, expected)


@pytest.mark.skipif(not LINEAR_LOADS, reason="no compiled bisection loads")
@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["linear", "overflow_far_c", "overflow_mixed_c",
                          "overflow_nan_c"]),
    rows=st.integers(min_value=1, max_value=300),
    # Up to the depth cap, and a delta beyond it.
    delta=st.sampled_from([0.3, 1e-2, 1e-4, 0.5 ** odeint._TABLE_DEPTH,
                           1e-7]),
    method=st.sampled_from(["euler", "rk4"]),
    row_theta=st.booleans(),
    cut=st.integers(min_value=0, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_compiled_bisection_equals_the_pass_loop(name, rows, delta, method,
                                                 row_theta, cut, seed):
    # Both backends give the same levels, and leave the same bytes in the
    # whole state (cells, first failing passes, and the probes of rows that
    # never failed): after a fresh run, after its first ``cut`` passes and
    # the rest resumed on the same run, and after a fresh run whose calls
    # are forced into row pieces.
    model, theta, *arrays = _case(name, rows, seed, row_theta)
    args = (model, theta, *arrays, delta, 0.1, method)
    t0s, y0s, t1s, x_next = arrays
    halvings = residuals._halvings(delta)
    cut = min(cut, halvings)

    code = compile_model(model, theta)[0]
    params = _row_params(code, theta, rows)

    def states():
        def prepared():
            return odeint._bisect(code, t0s, y0s, t1s, 0.1, method, x_next,
                                  halvings)[0]

        run = prepared()
        got = [run(params).copy(), run(params, 0, cut).copy(),
               run(params, cut, halvings).copy()]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(odeint, "_CPUS", 2)
            mp.setattr(odeint, "_PIECE_WORK", 1)
            mp.setattr(odeint, "_ROW_WORK", 1)
            got.append(prepared()(params).copy())
        return got

    with np.errstate(all="ignore"):
        with pytest.MonkeyPatch.context() as mp:
            # Every bisection deeper than the cap: the pass loop.
            mp.setattr(odeint, "_TABLE_DEPTH", 0)
            expected = _bisect_levels(*args)
            loop_states = states()
        compiled_states = states()
        with pytest.MonkeyPatch.context() as mp:
            sizes, bisections = _spy(mp, True)
            got = _bisect_levels(*args)
    _assert_same(got, expected)
    for a, b in zip(compiled_states, loop_states, strict=True):
        assert np.array_equal(_bits(a), _bits(b))
    halvings = len(sizes) + sum(passes for _, passes in bisections)
    assert 0.5 ** halvings <= delta < 0.5 ** (halvings - 1)
    if halvings > odeint._TABLE_DEPTH:
        assert bisections == []
    else:
        assert (sizes, bisections) == ([], [(rows, halvings)])


def _pass_mids(depth, p, k):
    # Mids ``k`` (odd numbers) of pass ``p`` of a ``depth``-halving
    # bisection, as indices on the grid of 2**-depth.
    return k << (depth - p - 1)


@pytest.mark.parametrize("depth", [14, odeint._TABLE_DEPTH])
def test_table_holds_every_pass_of_a_bisection(depth):
    # Each pass's mids as one array, as the pass loop computes them.
    table = odeint._phi_table(depth)
    for p in range(depth):
        index = _pass_mids(depth, p, 2 * np.arange(2 ** p) + 1)
        assert np.array_equal(_bits(table[index - 1]),
                              _bits(_clamped_phi(index / 2 ** depth)))


@settings(max_examples=80, deadline=None)
@given(
    depth=st.sampled_from([14, odeint._TABLE_DEPTH]),
    size=st.integers(min_value=1, max_value=6000),
    # Bytes from an aligned start: 0 mod 8 an offset view, else misaligned.
    offset=st.integers(min_value=0, max_value=71),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_table_equals_the_levels_of_any_batch(depth, size, offset, seed):
    # The compiled bisection reads its noise levels from the table, so the
    # table must hold what _clamped_phi gives the mids of any pass, whatever
    # the length and alignment of the array numpy's log runs over.
    rng = np.random.default_rng(seed)
    p = rng.integers(0, depth, size)
    index = _pass_mids(depth, p, 2 * rng.integers(0, 2 ** p) + 1)
    buffer = np.zeros(8 * size + 136, dtype=np.uint8)
    start = 64 - buffer.ctypes.data % 64 + offset
    mids = buffer[start:start + 8 * size].view(np.float64)
    mids[...] = index / 2 ** depth
    assert mids.ctypes.data % 64 == offset % 64
    assert np.array_equal(_bits(odeint._phi_table(depth)[index - 1]),
                          _bits(_clamped_phi(mids)))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CASES)),
    rows=st.integers(min_value=1, max_value=60),
    # Up to the depth cap, and a delta beyond it.
    delta=st.sampled_from([0.3, 1e-2, 1e-4, 1e-7]),
    cuts=st.lists(st.integers(min_value=0, max_value=24), max_size=4),
    compiled=st.booleans(),
    row_theta=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_resumed_bisection_equals_a_fresh_one(name, rows, delta, cuts,
                                              compiled, row_theta, seed):
    # A bisection run as ranges of its passes, each range on one of two
    # prepared runs that takes over the state the range before it left,
    # ends where one run of every pass ends: the same cells, first failing
    # passes and probed levels, compiled and on the pass loop.
    model, theta, t0s, y0s, t1s, x_next = _case(name, rows, seed, row_theta)
    code = compile_model(model, theta)[0]
    params = _row_params(code, theta, rows)
    halvings = residuals._halvings(delta)

    def prepared():
        return odeint._bisect(code, t0s, y0s, t1s, 0.1, "euler", x_next,
                              halvings)

    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(odeint, "COMPILED", compiled)
        run, _ = prepared()
        expected = run(params).copy()
        runs = [prepared(), prepared()]
        start, state = 0, None
        ends = sorted({min(c, halvings) for c in cuts} | {halvings})
        for k, end in enumerate(ends):
            run, own = runs[k % 2]
            if state is not None:
                own[...] = state
            state = run(params, start, end).copy()
            start = end
    lo, hi, first, probe = state
    failed = first >= 0.0
    assert np.array_equal(_bits(state[:3]), _bits(expected[:3]))
    assert np.array_equal(_bits(probe[failed]), _bits(expected[3][failed]))
