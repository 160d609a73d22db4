"""A large compiled call runs in row pieces, one C call each, at the same time
on the CPUs the process may use, each piece on copies in cache lines of its
own: every result equals the one-call result byte for byte, a small call or
a one-CPU process makes one call and no thread, and the pool survives an
interrupt and a fork."""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hude
from hude import odeint
from hude.model import ReducedField, compile_model
from hude.odeint import _terminal_state_batch

from conftest import spied_compiled
from test_bisect import _levels

# name -> (order, drift, diffusion, parameter ranges, state range, target
# range), fields whose ops compile to C.
CASES = {
    "linear": (1, "m - 1.5*x0", "s", {"m": (-1.0, 1.0), "s": (0.05, 1.0)},
               (-1.0, 2.0), (-1.0, 2.0)),
    # Rows overflow at high levels: first failing passes and their probes.
    "overflow": (1, "x0*x0", "c", {"c": (0.5, 5.0)}, (0.0, 1.5),
                 (0.0, 1e308)),
    # Order 2: x1 often overflows where x0 is still finite.
    "overflow_mixed": (2, "x1*x1 + (x0 - 1)/c", "c", {"c": (0.5, 5.0)},
                       (0.0, 3.0), (-1.0, 1e300)),
}


def _case(name, points, block, seed):
    """The model, its lowering, ``points * block`` rows of ragged step counts
    (``h = 0.1``) and a ``(slots, points)`` point matrix in the lowering's
    slot order, each point over ``block`` consecutive rows."""
    order, drift, diffusion, ranges, state, target = CASES[name]
    model = hude.HudeModel.parse(order, drift, [diffusion], params=list(ranges))
    rng = np.random.default_rng(seed)
    rows = points * block
    lowered = compile_model(model, {k: lo for k, (lo, _) in ranges.items()})
    params = np.array([rng.uniform(*ranges[k], points)
                       for k in lowered[0][2]]).reshape(-1, points)
    t0s = rng.uniform(0.0, 1.0, rows)
    t1s = t0s + rng.uniform(0.05, 1.5, rows)
    y0s = rng.uniform(*state, (rows, order))
    x_next = rng.uniform(*target, rows)
    return model, lowered, params, t0s, y0s, t1s, x_next


def _bisect_loads():
    # Whether a compiled bisection loads: built, or found in the cache.
    model, (code, values), *_ = _case("linear", 1, 1, 0)
    lowered, bound = ReducedField(code, values, 0.5)._bound()
    return odeint._generated(lowered, ", ".join(bound), 1, "euler", "bisect",
                             "compiled") is not None


BISECT_LOADS = _bisect_loads()
needs_bisect = pytest.mark.skipif(not BISECT_LOADS,
                                  reason="no compiled bisection loads")


def _bits(arrays):
    return [np.ascontiguousarray(a).view(np.uint8) for a in arrays]


def _c_calls(mp):
    """The compiled calls made from here, one ``(rows, nsteps, out, plan)``
    per entry point call, the last three the addresses of its arrays."""
    calls = []
    generate = odeint._generated

    def generated(*args):
        kernel = generate(*args)
        if kernel is None or args[-1] != "compiled":
            return kernel
        return spied_compiled(kernel, lambda *call: calls.append(call))

    mp.setattr(odeint, "_generated", generated)
    return calls


def _forced(mp, cpus):
    """Up to ``cpus`` pieces for any call of two or more rows, and the
    compiled calls made from here (:func:`_c_calls`)."""
    mp.setattr(odeint, "_CPUS", cpus)
    mp.setattr(odeint, "_PIECE_WORK", 1)
    mp.setattr(odeint, "_ROW_WORK", 1)
    return _c_calls(mp)


def _everything(name, points, block, halvings, cut, seed, cpus):
    """Every output of a compiled call on the case, with up to ``cpus``
    pieces: a bisection's state after all its passes, after the first
    ``cut``, after the rest resumed on the same plan run whole, and after
    the rest resumed on a fresh plan from cells the caller wrote; the
    levels, saturation flags and failure (:func:`test_bisect._levels`) of a
    fresh plan run with one point per row; a batch's terminal states and its
    extremes.  Also the row counts of the C calls of each of those seven
    steps, sorted."""
    model, (code, _), params, t0s, y0s, t1s, x_next = _case(
        name, points, block, seed)
    rows = points * block
    row_params = params[:, np.arange(rows) // block]
    per_row = dict(zip(code[2], row_params))

    def prepared():
        return odeint._bisect(code, t0s, y0s, t1s, 0.1, "euler", x_next,
                              halvings)

    field = ReducedField(code, per_row, odeint._clamped_phi(
        np.random.default_rng(seed).uniform(0.05, 0.95, rows)))
    args = (t0s, y0s, t1s, 0.1, "euler")
    steps = []
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        calls = _forced(mp, cpus)

        def step(result):
            # The result of a step, whose calls are recorded.
            steps.append(sorted(rows for rows, *_ in calls))
            calls.clear()
            return result

        run, _ = prepared()
        whole = step(run(params).copy())
        part = step(run(params, 0, cut).copy())
        mp.setattr(odeint, "_ROW_WORK", 10**9)  # no run splits
        rest = step(run(params, cut, halvings).copy())
        mp.setattr(odeint, "_ROW_WORK", 1)
        resume, cells = prepared()
        cells[...] = part
        resumed = step(resume(params, cut, halvings).copy())
        *levels, failure = step(_levels(prepared()[0](row_params).copy()))
        outputs = [whole, part, rest, resumed, *levels,
                   step(_terminal_state_batch(field, *args)),
                   *step(_terminal_state_batch(field, *args, mode="extremes"))]
    return outputs, failure, steps


@needs_bisect
@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CASES)),
    points=st.integers(1, 12),
    block=st.integers(1, 25),
    pieces=st.integers(1, 5),
    halvings=st.sampled_from([2, 7, 14]),
    cut=st.integers(0, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_pieces_equal_one_call(name, points, block, pieces, halvings, cut,
                               seed):
    # 1 to 300 rows in up to five pieces, whose edges cut point blocks.
    cut = min(cut, halvings)
    rows, count = points * block, min(pieces, points * block)
    expected, failure, steps = _everything(name, points, block, halvings, cut,
                                           seed, 1)
    assert steps == [[rows]] * 7  # every call whole
    got, got_failure, steps = _everything(name, points, block, halvings, cut,
                                          seed, pieces)
    assert got_failure == failure
    for a, b in zip(_bits(got), _bits(expected), strict=True):
        assert np.array_equal(a, b)
    # A run that takes no pass, and the run kept whole, make one call; every
    # other step makes one call per piece, of sizes at most one row apart.
    whole = {2} | ({1} if cut == 0 else set()) | (
        {3} if cut == halvings else set())
    for i, sizes in enumerate(steps):
        if count < 2 or i in whole:
            assert sizes == [rows]
        else:
            assert len(sizes) == count and sum(sizes) == rows
            assert sizes[-1] - sizes[0] <= 1


def test_piece_edges():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(odeint, "_CPUS", 4)
        # A residual scan's 2,000 rows of 14 passes of 100 steps: 2.8 M
        # row-steps, five pieces' worth, in as many as there are CPUs.
        assert odeint._piece_edges(2000, 1400) == [0, 500, 1000, 1500, 2000]
        # A 19-level fan of 60,000 steps: two pieces of 0.57 M row-steps.
        assert odeint._piece_edges(19, 60_000) == [0, 9, 19]
        # 3 passes of 100 steps a row do not repay copying the rows.
        assert odeint._piece_edges(60_000, 300) == [0, 60_000]
        # Below two pieces' worth, and one row: one piece.
        assert odeint._piece_edges(700, 1400) == [0, 700]
        assert odeint._piece_edges(1, 10**9) == [0, 1]
        mp.setattr(odeint, "_CPUS", 1)
        assert odeint._piece_edges(2000, 1400) == [0, 2000]


@needs_bisect
@pytest.mark.parametrize("cpus, piece_work, row_work",
                         [(4, 500_000, 1), (4, 1, 1_000), (1, 1, 1)])
def test_small_or_one_cpu_calls_take_one_call_and_no_thread(cpus, piece_work,
                                                            row_work):
    # A call below the floor of a piece (60 rows, 14 passes of up to 15
    # steps, 12,600 row-steps) or of a row (up to 210 row-steps), or any call
    # in a one-CPU process, is one C call on the calling thread, on the whole
    # plan: nothing is copied.
    _, (code, values), params, t0s, y0s, t1s, x_next = _case("linear", 6, 10, 1)
    field = ReducedField(code, values, np.full(60, 0.2))
    with pytest.MonkeyPatch.context() as mp:
        calls = _forced(mp, cpus)
        mp.setattr(odeint, "_PIECE_WORK", piece_work)
        mp.setattr(odeint, "_ROW_WORK", row_work)
        mp.setattr(odeint, "_POOL", None)
        run, _ = odeint._bisect(code, t0s, y0s, t1s, 0.1,
                                "euler", x_next, 14)
        run(params)
        for mode in ("terminal", "extremes"):
            _terminal_state_batch(field, t0s, y0s, t1s, 0.1, "euler", mode=mode)
        assert odeint._POOL is None
    assert [rows for rows, *_ in calls] == [60, 60, 60]


@needs_bisect
def test_split_calls_take_one_call_per_piece():
    _, (code, values), params, t0s, y0s, t1s, x_next = _case("linear", 6, 10, 1)
    field = ReducedField(code, values, np.full(60, 0.2))
    with pytest.MonkeyPatch.context() as mp:
        calls = _forced(mp, 3)
        run, _ = odeint._bisect(code, t0s, y0s, t1s, 0.1,
                                "euler", x_next, 14)
        run(params)
        _terminal_state_batch(field, t0s, y0s, t1s, 0.1, "euler")
        assert odeint._POOL is not None
    assert sorted(rows for rows, *_ in calls) == [20] * 6


@needs_bisect
def test_each_piece_owns_its_cache_lines():
    # Every split call runs each piece on copies that start on a 64-byte
    # line, and no two pieces' plans or outs share a line, so no CPU's
    # writes slow another's, whatever order the copies were made in: a
    # terminal batch, an extremes batch, a fresh bisection run and one
    # resumed on the same plan.
    _, (code, values), params, t0s, y0s, t1s, x_next = _case("linear", 6, 10, 1)
    field = ReducedField(code, values, np.full(60, 0.2))
    args = (t0s, y0s, t1s, 0.1, "euler")
    slots = odeint._plan(field, *args)[0].shape[0]
    with pytest.MonkeyPatch.context() as mp:
        calls = _forced(mp, 3)
        run, _ = odeint._bisect(code, *args, x_next, 14)
        # Each step, and the doubles of a piece's out: extremes are two
        # blocks of its rows, an order-1 bisection a head of three and six.
        for step, out_size in (
                (lambda: _terminal_state_batch(field, *args), None),
                (lambda: _terminal_state_batch(field, *args, mode="extremes"),
                 lambda rows: 2 * rows),
                (lambda: run(params, 0, 5), lambda rows: 3 + 6 * rows),
                (lambda: run(params, 5, 14), lambda rows: 3 + 6 * rows)):
            calls.clear()
            step()
            assert sorted(rows for rows, *_ in calls) == [20] * 3
            lines = []
            for rows, _, out, plan in calls:
                spans = [(plan, slots * rows)]
                if out_size is None:
                    assert out is None
                else:
                    spans.append((out, out_size(rows)))
                for address, doubles in spans:
                    assert address % 64 == 0
                    lines += range(address // 64,
                                   (address + 8 * doubles - 1) // 64 + 1)
            assert len(lines) == len(set(lines))


def test_a_failing_piece_waits_for_the_others():
    # An exception that ends the calling thread's piece reaches the caller
    # only once every other piece has returned.
    done = threading.Event()

    def slow():
        time.sleep(0.2)
        done.set()

    def interrupted():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        odeint._run_pieces([interrupted, slow, slow])
    assert done.is_set()


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"),
                    reason="no pthread_kill")
def test_an_interrupt_while_waiting_waits_for_the_pieces():
    # A SIGINT that reaches the caller while it waits is raised once the
    # pieces have returned.
    done = threading.Event()
    main = threading.main_thread().ident

    def interrupting():
        signal.pthread_kill(main, signal.SIGINT)
        time.sleep(0.2)
        done.set()

    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            odeint._run_pieces([lambda: None, interrupting])
        assert done.is_set()
    finally:
        signal.signal(signal.SIGINT, previous)


@needs_bisect
@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_runs_split_bisections():
    # A child forked after the pool ran has none of its threads; its split
    # bisections still finish, on a pool of its own, with the parent's bits.
    _, (code, _), params, t0s, y0s, t1s, x_next = _case("linear", 6, 10, 1)

    def bisected():
        run, _ = odeint._bisect(code, t0s, y0s, t1s, 0.1,
                                "euler", x_next, 14)
        return run(params).copy()

    with pytest.MonkeyPatch.context() as mp:
        _forced(mp, 2)
        expected = bisected()
        assert odeint._POOL is not None
        with warnings.catch_warnings():
            # Python 3.12 warns that a process with threads forks.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            exit_code = 1
            try:
                exit_code = 0 if np.array_equal(bisected(), expected) else 2
            finally:
                os._exit(exit_code)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.02)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's split bisection did not finish")
    assert os.waitstatus_to_exitcode(status) == 0
