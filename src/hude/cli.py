"""Command-line front end.

Subcommands: alpha-path, residuals, estimate, test, simulate, reactor-demo.
CSV is the observation interchange format, JSON the structured-result format,
both with fixed float formatting so identical inputs reproduce identical
bytes.  Errors map to distinct exit codes: 2 usage, 3 missing file, 4 parse
error, 5 computation error, each with a single machine-readable JSON line on
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .alphapath import inverse_distribution, solve_alpha_path
from .estimate import EstimationError, estimate_mle, estimate_moments
from .expr import EvalError, ExprSyntaxError
from .hypotest import two_sample_ks, uncertain_hypothesis_test
from .model import InitialState, ModelFormatError, load_model
from .odeint import DEFAULT_STEP, IntegrationError
from .reactor import THERMAL_U235, build_reactor_hude, table3, table4
from .residuals import (
    DataFormatError,
    ResidualVector,
    compute_residuals,
    estimate_derivatives,
    read_observations,
    simulate_observations,
)
from .validation import NotFittedError

__all__ = ["main"]

EXIT_FILE_NOT_FOUND = 3
EXIT_PARSE_ERROR = 4
EXIT_COMPUTE_ERROR = 5

STEP_ENV_VAR = "HUDE_DEFAULT_STEP"


def _default_step(fallback: float = DEFAULT_STEP) -> float:
    value = os.environ.get(STEP_ENV_VAR)
    if value is None:
        return fallback
    try:
        step = float(value)
    except ValueError:
        raise ValueError(f"{STEP_ENV_VAR} must be a float, got {value!r}") from None
    if not np.isfinite(step):
        raise ValueError(f"{STEP_ENV_VAR} must be finite, got {value!r}")
    if step <= 0:
        raise ValueError(f"{STEP_ENV_VAR} must be positive")
    return step


def _parse_bounds(text: str):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse bounds {text!r}") from None
    if len(values) < 2 or len(values) % 2:
        raise ValueError("bounds need pairs: lo1,hi1[,lo2,hi2...]")
    return [(values[i], values[i + 1]) for i in range(0, len(values), 2)]


def _parse_times(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("times must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop <= start:
        raise ValueError("times must satisfy start < stop with positive step")
    count = (stop - start) / step
    if not np.isfinite([start, stop, step, count]).all():
        raise ValueError(f"times {text} do not make a finite grid")
    return start + step * np.arange(int(np.floor(count + 1e-9)) + 1)


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _load_model_with_init(path, need_init: bool):
    model, init = load_model(path)
    if need_init and init is None:
        raise ModelFormatError(
            f"{path}: an 'init' section with 't0' and 'state' is required here"
        )
    return model, init


def cmd_alpha_path(args) -> int:
    model, init = _load_model_with_init(args.model, need_init=True)
    path = solve_alpha_path(
        model, None, args.alpha, init, args.t_end, h=args.step,
        method=args.integrator,
    )
    path.trajectory.to_csv(args.out)
    return 0


def cmd_residuals(args) -> int:
    model, _ = _load_model_with_init(args.model, need_init=False)
    series = read_observations(args.data)
    residuals = compute_residuals(
        model, None, series, delta=args.delta, h=args.step,
        scheme=args.scheme, method=args.integrator,
    )
    residuals.to_csv(args.out)
    return 0


def cmd_estimate(args) -> int:
    model, _ = _load_model_with_init(args.model, need_init=False)
    series = read_observations(args.data)
    bounds = _parse_bounds(args.bounds)
    kwargs = dict(
        bounds=bounds, delta=args.delta, h=args.step, scheme=args.scheme,
        method=args.integrator, seed=args.seed, restarts=args.restarts,
        threshold=args.threshold,
    )
    if args.method == "moments":
        result = estimate_moments(model, series, p=args.p, **kwargs)
    else:
        result = estimate_mle(model, series, alpha=args.alpha, **kwargs)
    _write_json(args.out, result.to_dict())
    return 0


def cmd_test(args) -> int:
    residuals = ResidualVector.from_csv(args.data)
    report = uncertain_hypothesis_test(residuals, args.alpha)
    _write_json(args.out, report.to_dict())
    return 0


def cmd_simulate(args) -> int:
    model, init = _load_model_with_init(args.model, need_init=True)
    if args.times:
        times = _parse_times(args.times)
    elif args.data:
        times = read_observations(args.data).t
    else:
        raise ValueError("provide either --times or --data for the time grid")
    series = simulate_observations(
        model, None, init, times, seed=args.seed, h=args.step,
        method=args.integrator,
    )
    series.to_csv(args.out)
    return 0


def cmd_reactor_demo(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model = build_reactor_hude(THERMAL_U235)
    series = table3()
    bounds = _parse_bounds(args.bounds)

    result = estimate_moments(
        model, series, p=args.p, bounds=bounds, delta=args.delta,
        h=args.step, scheme=args.scheme, method=args.integrator,
        restarts=args.restarts, maxiter=200, threshold=args.threshold,
        seed=args.seed,
    )
    _write_json(outdir / "estimate.json", result.to_dict())

    # The vector the estimate scored and spot-checked, not a second bisection.
    result.residuals.to_csv(outdir / "residuals.csv")

    report = uncertain_hypothesis_test(result.residuals, args.alpha)
    _write_json(outdir / "test.json", report.to_dict())

    reference = table4()
    reference_report = uncertain_hypothesis_test(reference, args.alpha)
    _write_json(outdir / "reference_test.json", reference_report.to_dict())

    split = two_sample_ks(reference.epsilons[:21], reference.epsilons[43:])
    _write_json(
        outdir / "reference_ks.json",
        {"d": split.d, "p_value": split.p_value,
         "reject_at_5pct": split.reject_at_5pct},
    )

    init = InitialState(series.t[0],
                        estimate_derivatives(series, 2).state_at(0, 2))
    curve = inverse_distribution(
        model.bind(result.theta), None, init, series.t[-1],
        np.linspace(0.45, 0.95, 11), h=args.step, method=args.integrator,
    )
    curve.to_csv(outdir / "psi_inverse.csv")

    summary = {
        "theta": result.to_dict()["theta"],
        "objective": result.objective,
        "converged": result.converged,
        "fit_rejected": report.reject,
        "fit_outliers": list(report.outlier_indices),
        "reference_outliers": list(reference_report.outlier_indices),
        "reference_threshold": reference_report.threshold,
    }
    _write_json(outdir / "summary.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _add_common(parser, *names):
    if "model" in names:
        parser.add_argument("--model", required=True, help="model JSON file")
    if "data" in names:
        parser.add_argument("--data", help="observation or residual CSV")
    if "alpha" in names:
        parser.add_argument("--alpha", type=float, default=0.05,
                            help="significance / detection level")
    if "p" in names:
        parser.add_argument("--p", type=int, default=2, help="moment count")
    if "delta" in names:
        parser.add_argument("--delta", type=float, default=1e-4,
                            help="residual bisection precision")
    if "step" in names:
        parser.add_argument("--step", type=float, default=None,
                            help="integrator step h")
        parser.set_defaults(step_fallback=DEFAULT_STEP)
    if "method" in names:
        parser.add_argument("--method", choices=("moments", "mle"),
                            default="moments")
    if "scheme" in names:
        parser.add_argument("--scheme", choices=("forward", "central"),
                            default="forward",
                            help="derivative reconstruction scheme")
    if "integrator" in names:
        parser.add_argument("--integrator", choices=("euler", "rk4"),
                            default="euler")
    if "bounds" in names:
        parser.add_argument("--bounds", default="0,1,0,1",
                            help="parameter box: lo1,hi1[,lo2,hi2...]")
    if "seed" in names:
        parser.add_argument("--seed", type=int, default=0)
    if "out" in names:
        parser.add_argument("--out", required=True, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hude",
        description="Solve, estimate and test high-order uncertain "
                    "differential equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha-path", help="integrate a quantile path to CSV")
    _add_common(p, "model", "step", "integrator", "out")
    p.add_argument("--alpha", type=float, required=True, help="quantile level")
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.set_defaults(func=cmd_alpha_path)

    p = sub.add_parser("residuals", help="residuals of a model on observations")
    _add_common(p, "model", "delta", "step", "scheme", "integrator", "out")
    p.add_argument("--data", required=True, help="observation CSV (t,x)")
    p.set_defaults(func=cmd_residuals)

    p = sub.add_parser("estimate", help="estimate model parameters")
    _add_common(p, "model", "alpha", "p", "delta", "step", "method", "scheme",
                "integrator", "bounds", "seed", "out")
    p.add_argument("--data", required=True, help="observation CSV (t,x)")
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--threshold", type=float, default=1e-10,
                   help="objective value below which the fit is converged")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="goodness-of-fit test on residuals")
    _add_common(p, "alpha", "out")
    p.add_argument("--data", required=True, help="residual CSV (j,epsilon)")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("simulate", help="generate synthetic observations")
    _add_common(p, "model", "step", "integrator", "seed", "out")
    p.add_argument("--times", help="observation grid start:stop:step")
    p.add_argument("--data", help="observation CSV whose times are reused")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "reactor-demo",
        help="run the bundled reactor case study end to end",
        description="Estimates the reactor noise levels on the bundled "
                    "observations, writes the residuals at the estimate, "
                    "tests the fit and exports the inverse-distribution "
                    "curve.  The default step is 1e-3 here (estimation "
                    "re-integrates the model thousands of times); pass "
                    "--step to override.",
    )
    _add_common(p, "alpha", "p", "delta", "method", "scheme", "integrator",
                "bounds", "seed")
    p.add_argument("--step", type=float, default=None,
                   help="integrator step h (default 1e-3 for this command)")
    p.set_defaults(step_fallback=1e-3)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="relaxed convergence threshold for the case study")
    p.add_argument("--out", default="reactor-report", help="report directory")
    p.set_defaults(func=cmd_reactor_demo)

    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The step default is read from the environment only by commands that
        # take a step, so a bad value fails those commands like any bad input.
        if getattr(args, "step", 0.0) is None:
            args.step = _default_step(args.step_fallback)
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(EXIT_FILE_NOT_FOUND, "file-not-found", exc)
    except (ExprSyntaxError, ModelFormatError, DataFormatError,
            json.JSONDecodeError) as exc:
        return _fail(EXIT_PARSE_ERROR, "parse-error", exc)
    except (EvalError, IntegrationError, EstimationError, NotFittedError,
            ValueError, MemoryError) as exc:
        return _fail(EXIT_COMPUTE_ERROR, "compute-error", exc)


if __name__ == "__main__":
    sys.exit(main())
