"""Tests of the benchmark itself: span and self-time arithmetic, and a
reduced-size run of every workload.

Run from the root of the repository with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from spans import Span, Tracer, ancestors, self_times, union_length
from speed import REFERENCE_S, SpeedProbe, Window

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reactor_fit", "residual_scan", "path_solve")


def ticking_clock():
    """A clock that advances by exactly 1.0 per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


@pytest.mark.parametrize("intervals, expected", [
    ([], 0.0),
    ([(0.0, 1.0), (2.0, 4.0)], 3.0),
    ([(0.0, 3.0), (1.0, 2.0)], 3.0),
    ([(2.0, 5.0), (0.0, 3.0)], 5.0),
    ([(0.0, 1.0), (1.0, 2.0)], 2.0),
])
def test_union_length(intervals, expected):
    assert union_length(intervals) == expected


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("c1", 1.0, 5.0, 0, 0),
        Span("c2", 3.0, 6.0, 0, 0),
        Span("late", 9.0, 12.0, 0, 0),
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_tracer_nests_records_attrs_and_restores():
    module = types.SimpleNamespace()
    module.leaf = lambda x: x + 1
    module.outer = lambda x: module.leaf(x) * 2
    original_leaf, original_outer = module.leaf, module.outer

    tracer = Tracer(clock=ticking_clock())
    tracer.op = 7
    tracer.patch(module, "leaf", "layer.leaf",
                 before=lambda a, k: (a, k, {"arg": a[0]}),
                 after=lambda r: {"result": r})
    tracer.patch(module, "outer", "layer.outer")
    root = tracer.begin("bench.op")
    assert module.outer(3) == 8
    tracer.end(root)
    tracer.restore()

    assert module.leaf is original_leaf and module.outer is original_outer
    names = [s.name for s in tracer.spans]
    assert names == ["bench.op", "layer.outer", "layer.leaf"]
    leaf = tracer.spans[2]
    assert leaf.parent == 1 and tracer.spans[1].parent == 0
    assert leaf.attrs == {"arg": 3, "result": 4}
    assert all(s.op == 7 for s in tracer.spans)
    assert list(ancestors(tracer.spans, 2)) == ["layer.outer", "bench.op"]
    # Readings: root 0..5, outer 1..4, leaf 2..3.
    assert self_times(tracer.spans) == [2.0, 2.0, 1.0]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].duration


def test_tracer_closes_span_when_call_raises():
    def boom():
        raise ValueError("no")

    tracer = Tracer(clock=ticking_clock())
    traced = tracer.wrap(boom, "layer.boom")
    with pytest.raises(ValueError):
        traced()
    assert tracer.spans[0].attrs == {"raised": True}
    assert tracer.spans[0].end > tracer.spans[0].start
    assert tracer._open == []


def test_tracer_rejects_out_of_order_close():
    tracer = Tracer(clock=ticking_clock())
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_window_scales_to_the_nominal_machine():
    window = Window()
    window.samples = [2 * REFERENCE_S, 2 * REFERENCE_S]
    window.spent = 0.5
    assert window.factor == 0.5
    # In-process: the kernel's own 0.5 s comes out before scaling.
    assert window.normalise(4.5) == 2.0
    assert window.normalise(4.5, in_process=False) == 2.25


def test_probe_samples_during_the_window_and_restores_the_handler():
    probe = SpeedProbe(interval=0.005)
    before = signal.getsignal(signal.SIGALRM)
    with probe.window() as window:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    # One sample before, one after and at least one from the timer.
    assert len(window.samples) >= 3
    assert 0.0 < window.spent < 0.1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with probe.window():
        with pytest.raises(RuntimeError):
            with probe.window():
                pass


def test_benchmark_json_matches_reported_metrics():
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def run_bench(cwd, out, workload, trace, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        done = run_bench(ROOT, tmp_path, workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, done.stdout
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[section]}
    # The second traced run was checked against the counters of the first.
    store = json.loads((tmp_path / "counters.json").read_text())
    assert any(f"|{workload}|smoke|seed=5" in key for key in store)
    record = json.loads(
        (tmp_path / f"{workload}-smoke-seed5-trace1.json").read_text())
    traced = [op for op in record["ops"] if op["traced"]]
    assert traced and all(
        abs(op["self_sum_s"] - op["wall_s"]) <= 1e-9 for op in traced)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, tmp_path / "out", "residual_scan", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
