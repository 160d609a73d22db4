"""Benchmark of the ``hude`` toolkit built from ``src/`` of this checkout.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload reactor_fit --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``reactor_fit``   -- ``hude reactor-demo`` end to end, in process;
* ``residual_scan`` -- ``compute_residuals`` on 2000-step windows of one long
  simulated reactor series;
* ``path_solve``    -- an RK4 alpha-path, a 19-level inverse-distribution fan
  and a 201-point simulated series.

With ``--trace 0`` a run sets up several times, then runs ops for
``--seconds`` and reports the end-to-end metrics.  Their times are scaled to
a machine of fixed speed by a reference kernel timed throughout each set-up
and op (``speed.py``); the raw times are printed (``raw.*``) and recorded
beside them.  With ``--trace 1`` every other op runs with the ``hude`` layer
boundaries of ``layers.py`` wrapped; the traced ops give the per-layer
metrics, their deterministic work counters are compared with every earlier
traced run of the same code and input, and the untraced ops between them
give the tracing overhead.  Every op's output
is checked; a failed check or a raised exception counts the op as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it,
starting with ``#``, give the environment and a readable table.  The full
record of a run (every op, the per-layer table and, traced, every span) is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Single-threaded before numpy is imported anywhere in this process.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

from spans import Tracer, self_times
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("reactor_fit", "residual_scan", "path_solve")
# Set-up repeats at least SETUP_MIN_REPS times and, while it has taken less
# than SETUP_MIN_SECONDS in all, up to SETUP_MAX_REPS times: a cheap set-up
# gets enough samples for a steady median, a costly one stays affordable.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 3, 15, 3.0
# p90 is reported only with at least ten samples beyond it.
P90_MIN_OPS = 100

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "estimate.objective_evals": "count",
    "estimate.presearch_evals": "count",
    "estimate.nm_iterations": "count",
    "estimate.nm_nfev": "count",
    "estimate.presearch_share": "ratio",
    "residuals.vectors": "count",
    "residuals.estimate_vectors": "count",
    "residuals.bisect_passes": "count",
    "residuals.row_steps": "count",
    "residuals.saturated": "count",
    "residuals.self_s": "s",
    "odeint.batch_calls": "count",
    "odeint.batch_row_steps": "count",
    "odeint.active_row_step_ratio": "ratio",
    "odeint.batch_s": "s",
    "odeint.batch_ns_per_row_step": "ns",
    "odeint.integrate_steps": "count",
    "model.compile_calls": "count",
    "model.compile_s": "s",
    "expr.compile_calls": "count",
    "expr.compile_s": "s",
    "model.condition_checks": "count",
    "model.condition_check_s": "s",
    "hypotest.calls": "count",
    "trace.op_p50_s": "s",
    "trace.untraced_op_p50_s": "s",
    "trace.overhead_share": "ratio",
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import hude; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke shrinks every input for a quick self-test")
    p.add_argument("--out", type=Path, default=HERE / "out",
                   help="directory for run records and the counter store")
    return p.parse_args(argv)


def import_seconds() -> float:
    """Time to import ``hude`` (and numpy) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def code_hash() -> str:
    """Identity of the code under test: ``src/`` plus the benchmark itself."""
    digest = hashlib.sha256()
    files = [f for f in SRC.rglob("*") if f.is_file() and "__pycache__" not in f.parts]
    files += [f for f in HERE.glob("*.py") if not f.name.startswith("test_")]
    for f in sorted(files):
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "code_hash": code_hash(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class CounterStore:
    """Work counters of traced ops, keyed by code, workload and op input.
    A traced op whose counters differ from an earlier record is a failure."""

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        self.records = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, counters: dict) -> list[str]:
        full_key = f"{self.prefix}|{key}"
        seen = self.records.setdefault(full_key, counters)
        return [f"counter {name}: {counters.get(name)} here, {seen.get(name)} before"
                for name in sorted(set(seen) | set(counters))
                if seen.get(name) != counters.get(name)]

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.records, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def run_ops(workload, seconds, tracer, layers, probe):
    """Run ops until ``seconds`` have passed (at least one).  With a tracer,
    even-numbered ops are traced; the others are timed under the speed probe
    and get a ``nominal_s``, their time on the nominal machine."""
    clock = time.perf_counter
    ops = []
    deadline = clock() + seconds
    while not ops or clock() < deadline:
        i = len(ops)
        key, op_input = workload.prepare(i)
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.op = i
            layers.install(tracer)
            root = tracer.begin("bench.op")
        errors, nominal = [], None
        with contextlib.nullcontext() if traced else probe.window() as window:
            start = clock()
            try:
                output = workload.run(op_input)
            except Exception as exc:  # the op boundary: record, count, keep running
                traceback.print_exc(file=sys.stderr)
                errors.append(f"{type(exc).__name__}: {exc}")
            wall = clock() - start
        if traced:
            tracer.end(root)
            tracer.restore()
            wall = tracer.spans[root].duration
        else:
            nominal = window.normalise(wall)
            wall -= window.spent
        if not errors:
            errors = workload.check(op_input, output)
        ops.append({"i": i, "key": key, "traced": traced, "wall_s": wall,
                    "nominal_s": nominal, "errors": errors})
    return ops


def trace_metrics(ops, tracer, layers, store):
    """Per-layer metrics of the traced ops; appends counter mismatches to the
    ops' errors."""
    selfs = self_times(tracer.spans)
    members: dict[int, list[int]] = {}
    for index, span in enumerate(tracer.spans):
        members.setdefault(span.op, []).append(index)
    per_op, tables = [], {}
    for op in ops:
        if not op["traced"]:
            continue
        indices = members[op["i"]]
        m = layers.op_metrics(tracer.spans, selfs, indices)
        op["counters"] = {name: m[name] for name in layers.COUNTERS}
        op["self_sum_s"] = sum(selfs[i] for i in indices)
        if abs(op["self_sum_s"] - op["wall_s"]) > 1e-9 * max(1.0, op["wall_s"]):
            op["errors"].append(f"self times sum to {op['self_sum_s']}, "
                                f"op took {op['wall_s']}")
        op["errors"] += store.check(op["key"], op["counters"])
        tables[op["i"]] = layers.layer_self_table(tracer.spans, selfs, indices)
        per_op.append(m)
    metrics = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        exact = all(isinstance(v, int) for v in values)
        metrics[name] = (statistics.median_low if exact else statistics.median)(values)
    traced = [op["wall_s"] for op in ops if op["traced"]]
    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    metrics["trace.op_p50_s"] = statistics.median(traced)
    metrics["trace.untraced_op_p50_s"] = statistics.median(untraced) if untraced else 0.0
    metrics["trace.overhead_share"] = (
        metrics["trace.op_p50_s"] / metrics["trace.untraced_op_p50_s"] - 1.0
        if untraced else 0.0)
    return metrics, tables


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hude" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no hude package under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    import hude
    import layers
    import workloads

    if Path(hude.__file__).resolve().parent != (SRC / "hude").resolve():
        sys.stderr.write(f"perfbench: imported hude from {hude.__file__}\n")
        return 2
    warnings.simplefilter("ignore", hude.AlphaPathConditionWarning)
    args.out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=args.out))
    try:
        workload = workloads.WORKLOADS[args.workload](args.size, args.seed, scratch)
        env = environment()
        print("# env " + json.dumps(env, sort_keys=True), flush=True)

        probe = SpeedProbe()
        setup_samples, setup_nominal, fingerprints = [], [], []
        while len(setup_samples) < SETUP_MIN_REPS or (
                len(setup_samples) < SETUP_MAX_REPS
                and sum(setup_samples) < SETUP_MIN_SECONDS):
            # The import runs in a child that times itself; the kernel runs
            # here meanwhile, so only the set-up proper is in-process.
            with probe.window() as window:
                imported = import_seconds()
            nominal = window.normalise(imported, in_process=False)
            with probe.window() as window:
                start = time.perf_counter()
                fingerprints.append(workload.setup())
                built = time.perf_counter() - start
            setup_samples.append(imported + built - window.spent)
            setup_nominal.append(nominal + window.normalise(built))
        setup_errors = [] if all(
            (f == fingerprints[0]).all() for f in fingerprints) else [
            "set-up repetitions built different inputs"]

        tracer = Tracer() if args.trace else None
        ops = run_ops(workload, args.seconds, tracer, layers, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary, tables = {}, {}
    if args.trace:
        store = CounterStore(args.out / "counters.json",
                             f"{env['code_hash']}|{args.workload}|{args.size}")
        summary, tables = trace_metrics(ops, tracer, layers, store)
        store.save()
    walls = [op["wall_s"] for op in ops]
    failed = sum(1 for op in ops if op["errors"])
    summary.update({
        "setup_s": statistics.median(setup_nominal),
        "raw.setup_s": statistics.median(setup_samples),
        "raw.op_p50_s": statistics.median(walls),
        "raw.ops_per_s": (len(ops) - failed) / sum(walls),
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / len(ops),
        "ops": len(ops),
    })
    # Times on the nominal machine: every op with --trace 0, the untraced
    # ones with --trace 1.
    probed = [op for op in ops if op["nominal_s"] is not None]
    if probed:
        nominal = [op["nominal_s"] for op in probed]
        summary["op_p50_s"] = statistics.median(nominal)
        summary["ops_per_s"] = sum(1 for op in probed if not op["errors"]) / sum(nominal)
        summary["speed.factor_p50"] = statistics.median(
            op["nominal_s"] / op["wall_s"] for op in probed)
        if len(probed) >= P90_MIN_OPS:
            summary["op_p90_s"] = statistics.quantiles(nominal, n=10)[-1]

    print(f"# {args.workload} size={args.size} seed={args.seed} "
          f"trace={args.trace} ops={len(ops)} failed={failed}")
    for message in setup_errors + sorted({e for op in ops for e in op["errors"]}):
        print(f"# FAILED: {message}")
    for name in sorted(summary):
        label = " (computed)" if name in layers.COMPUTED else ""
        print(f"#   {name:34s} {summary[name]:.6g}{label}")
    for op_index, table in list(tables.items())[:1]:
        print(f"# layers of op {op_index}: spans, inclusive s, self s")
        for layer, row in sorted(table.items()):
            print(f"#   {layer:12s} {row['spans']:8d} {row['inclusive_s']:10.4f} "
                  f"{row['self_s']:10.4f}")

    record = {"env": env, "args": {k: str(v) for k, v in vars(args).items()},
              "setup_samples_s": setup_samples,
              "setup_nominal_s": setup_nominal, "ops": ops, "metrics": summary,
              "layers": tables}
    if args.trace:
        record["spans"] = [span.to_dict() for span in tracer.spans]
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (args.out / name).write_text(json.dumps(record))

    wanted = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0 and not setup_errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": summary[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
