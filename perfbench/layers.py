"""The layer boundaries of ``hude`` that the traced run wraps, and the
per-layer metrics computed from the spans recorded there.

Each boundary is a name that one ``hude`` module imports from another (or a
module attribute the benchmark itself calls), so wrapping it from here needs
no change under ``src/``.  ``<layer>.<x>_s`` metrics are inclusive time spent
inside that boundary; ``<layer>.self_s`` is the layer's self time, which
excludes time in the spans it encloses.
"""

from __future__ import annotations

import statistics

import numpy as np

import hude.alphapath
import hude.cli
import hude.estimate
import hude.model
import hude.residuals

from spans import Span, ancestors


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _batch_work(args, kwargs):
    """Row-steps of one ``_terminal_state_batch`` call, computed from its
    arguments the way the integrator plans its steps: every row runs until the
    longest row is done, so the work executed is rows x the longest row's
    step count, of which only each row's own steps are active."""
    t0 = np.asarray(_arg(args, kwargs, 1, "t0"), dtype=float)
    t_end = np.asarray(_arg(args, kwargs, 3, "t_end"), dtype=float)
    h = _arg(args, kwargs, 4, "h")
    nsteps = np.maximum(np.ceil((t_end - t0) / h - 1e-9).astype(int), 1)
    attrs = {"rows": int(nsteps.size),
             "row_steps": int(nsteps.size * nsteps.max()),
             "active_row_steps": int(nsteps.sum())}
    return args, kwargs, attrs


def _residual_attrs(vector):
    return {"rows": len(vector), "saturated": int(np.count_nonzero(vector.saturated))}


def install(tracer) -> None:
    """Wrap every boundary; ``tracer.restore()`` undoes it."""

    def wrap_objective(args, kwargs):
        objective = tracer.wrap(args[0], "estimate.objective")
        return (objective,) + tuple(args[1:]), kwargs, {}

    residuals = dict(after=_residual_attrs)
    fan = dict(after=lambda curve: {"rows": int(curve.alphas.size)})
    steps = dict(after=lambda result: {"steps": len(result) - 1})
    batch = dict(before=_batch_work)
    for module, attr, name, hooks in [
        (hude.cli, "main", "cli.main", {}),
        (hude.cli, "estimate_moments", "estimate.estimate_moments", {}),
        (hude.estimate, "minimize_in_box", "estimate.minimize_in_box",
         dict(before=wrap_objective)),
        (hude.estimate, "_nelder_mead_box", "estimate.nelder_mead",
         dict(after=lambda r: {"iterations": int(r[2]), "nfev": int(r[3])})),
        (hude.estimate, "compute_residuals", "residuals.compute", residuals),
        (hude.cli, "compute_residuals", "residuals.compute", residuals),
        (hude.residuals, "compute_residuals", "residuals.compute", residuals),
        (hude.residuals, "simulate_observations", "residuals.simulate", steps),
        (hude.residuals, "_terminal_state_batch", "odeint.batch", batch),
        (hude.alphapath, "_terminal_state_batch", "odeint.batch", batch),
        (hude.alphapath, "integrate", "odeint.integrate", steps),
        (hude.residuals, "compile_model", "model.compile", {}),
        (hude.model, "compile_expr", "expr.compile", {}),
        (hude.alphapath, "check_alpha_path_condition", "model.condition_check", {}),
        (hude.alphapath, "solve_alpha_path", "alphapath.path", {}),
        (hude.alphapath, "inverse_distribution", "alphapath.fan", fan),
        (hude.cli, "inverse_distribution", "alphapath.fan", fan),
        (hude.cli, "uncertain_hypothesis_test", "hypotest.tail_test", {}),
        (hude.cli, "two_sample_ks", "hypotest.ks", {}),
    ]:
        tracer.patch(module, attr, name, **hooks)


# Deterministic work counters: a function of the code and the op's input only.
COUNTERS = (
    "estimate.objective_evals", "estimate.presearch_evals",
    "estimate.nm_iterations", "estimate.nm_nfev",
    "residuals.vectors", "residuals.estimate_vectors", "residuals.rows",
    "residuals.bisect_calls", "residuals.row_steps", "residuals.saturated",
    "residuals.simulate_steps",
    "odeint.batch_calls", "odeint.batch_row_steps", "odeint.active_row_steps",
    "odeint.integrate_steps",
    "model.compile_calls", "expr.compile_calls", "model.condition_checks",
    "alphapath.fan_rows", "hypotest.calls",
)


# Row-step counts derived from the integrator's arguments (``_batch_work``),
# not counted inside it.
COMPUTED = ("residuals.row_steps", "odeint.batch_row_steps",
            "odeint.active_row_steps", "odeint.active_row_step_ratio",
            "odeint.batch_ns_per_row_step")


def _ratio(num, den):
    return num / den if den else 0.0


def op_metrics(spans: list[Span], selfs: list[float], indices: list[int]) -> dict:
    """Counters and per-layer times of one op, from the indices of its spans."""
    by_name: dict[str, list[int]] = {}
    for i in indices:
        by_name.setdefault(spans[i].name, []).append(i)

    def named(name):
        return by_name.get(name, [])

    def total(name, key=None):
        if key is None:
            return sum(spans[i].duration for i in named(name))
        return sum(spans[i].attrs.get(key, 0) for i in named(name))

    def layer_self(layer):
        return sum(selfs[i] for i in indices if spans[i].layer == layer)

    objective = named("estimate.objective")
    presearch = [i for i in objective
                 if "estimate.nelder_mead" not in ancestors(spans, i)]
    vectors = named("residuals.compute")
    bisect = [i for i in named("odeint.batch")
              if spans[spans[i].parent].name == "residuals.compute"]
    batch_s = total("odeint.batch")
    integrate_s = total("odeint.integrate")
    m = {
        "estimate.objective_evals": len(objective),
        "estimate.presearch_evals": len(presearch),
        "estimate.nm_iterations": total("estimate.nelder_mead", "iterations"),
        "estimate.nm_nfev": total("estimate.nelder_mead", "nfev"),
        "estimate.presearch_share": _ratio(len(presearch), len(objective)),
        "estimate.presearch_s": sum(spans[i].duration for i in presearch),
        "estimate.nm_s": total("estimate.nelder_mead"),
        "estimate.self_s": layer_self("estimate"),
        "residuals.vectors": len(vectors),
        "residuals.estimate_vectors": sum(
            1 for i in vectors
            if "estimate.estimate_moments" in ancestors(spans, i)),
        "residuals.vector_p50_s": (statistics.median(
            spans[i].duration for i in vectors) if vectors else 0.0),
        "residuals.rows": total("residuals.compute", "rows"),
        "residuals.bisect_calls": len(bisect),
        "residuals.bisect_passes": _ratio(len(bisect), len(vectors)),
        "residuals.row_steps": sum(spans[i].attrs["row_steps"] for i in bisect),
        "residuals.saturated": total("residuals.compute", "saturated"),
        "residuals.self_s": layer_self("residuals"),
        "residuals.simulate_s": total("residuals.simulate"),
        "residuals.simulate_steps": total("residuals.simulate", "steps"),
        "odeint.batch_calls": len(named("odeint.batch")),
        "odeint.batch_row_steps": total("odeint.batch", "row_steps"),
        "odeint.active_row_steps": total("odeint.batch", "active_row_steps"),
        "odeint.batch_s": batch_s,
        "odeint.integrate_steps": total("odeint.integrate", "steps"),
        "odeint.integrate_s": integrate_s,
        "model.compile_calls": len(named("model.compile")),
        "model.compile_s": total("model.compile"),
        "expr.compile_calls": len(named("expr.compile")),
        "expr.compile_s": total("expr.compile"),
        "model.condition_checks": len(named("model.condition_check")),
        "model.condition_check_s": total("model.condition_check"),
        "alphapath.path_s": total("alphapath.path"),
        "alphapath.fan_s": total("alphapath.fan"),
        "alphapath.fan_rows": total("alphapath.fan", "rows"),
        "hypotest.calls": len(named("hypotest.tail_test")) + len(named("hypotest.ks")),
        "hypotest.s": total("hypotest.tail_test") + total("hypotest.ks"),
        "cli.self_s": layer_self("cli"),
    }
    m["odeint.batch_ns_per_row_step"] = 1e9 * _ratio(batch_s, m["odeint.batch_row_steps"])
    m["odeint.active_row_step_ratio"] = _ratio(m["odeint.active_row_steps"],
                                               m["odeint.batch_row_steps"])
    m["odeint.integrate_us_per_step"] = 1e6 * _ratio(integrate_s,
                                                     m["odeint.integrate_steps"])
    return m


def layer_self_table(spans: list[Span], selfs: list[float], indices: list[int]) -> dict:
    """Per layer of one op: spans, inclusive seconds of its outermost spans
    and self seconds."""
    table: dict[str, dict] = {}
    for i in indices:
        span = spans[i]
        row = table.setdefault(span.layer, {"spans": 0, "inclusive_s": 0.0, "self_s": 0.0})
        row["spans"] += 1
        row["self_s"] += selfs[i]
        parent = span.parent
        if parent is None or spans[parent].layer != span.layer:
            row["inclusive_s"] += span.duration
    return table
