"""The three workloads: how each sets up, what one op calls and how its output
is checked.

Every call into ``hude`` goes through a module attribute looked up at call
time (``hude.cli.main``, ``hude.residuals.compute_residuals``, ...), so the
traced run's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import hude.alphapath
import hude.cli
import hude.reactor
import hude.residuals

FITTED = hude.reactor.FITTED_THETA
INIT = hude.reactor.CASE_STUDY_INIT
DELTA = 1e-4

# Levels stay this far inside (0, 1): a level within PROBE_CLAMP of a wall
# saturates by design, and the scan's check requires that none does.
LEVEL_MARGIN = 0.005

# reference_ks.json of reactor-demo depends only on the bundled Table 4 data.
REFERENCE_KS = (
    '{\n  "d": 0.42296918767506997,\n  "p_value": 0.048850977519652485,\n'
    '  "reject_at_5pct": true\n}\n'
)
REFERENCE_OUTLIERS = [50, 55]


def _levels(rng, size):
    return rng.uniform(LEVEL_MARGIN, 1.0 - LEVEL_MARGIN, size=size)


class ReactorFit:
    """The paper's case study end to end, as ``hude reactor-demo`` runs it."""

    name = "reactor_fit"
    sizes = {"full": {"extra_args": []},
             # A coarse step keeps the smoke run short; the same checks apply.
             "smoke": {"extra_args": ["--step", "1e-2"]}}

    def __init__(self, size, seed, scratch: Path):
        self.cfg = self.sizes[size]
        self.seed = seed
        self.scratch = scratch

    def setup(self):
        # The op builds its model and reads its data itself, as the command
        # does; set-up reads the bundled observations once to fingerprint them.
        return hude.reactor.table3().x.copy()

    def prepare(self, i):
        outdir = Path(tempfile.mkdtemp(prefix="reactor-", dir=self.scratch))
        argv = ["reactor-demo", "--out", str(outdir), "--seed", str(self.seed),
                *self.cfg["extra_args"]]
        return f"seed={self.seed}", (outdir, argv)

    def run(self, op_input):
        _, argv = op_input
        with contextlib.redirect_stdout(io.StringIO()):
            return hude.cli.main(argv)

    def check(self, op_input, rc):
        outdir, _ = op_input
        try:
            if rc != 0:
                return [f"reactor-demo exited with {rc}"]
            summary = json.loads((outdir / "summary.json").read_text())
            errors = []
            if summary["converged"] is not True:
                errors.append("fit did not converge")
            if not summary["objective"] <= 1e-6:
                errors.append(f"objective {summary['objective']} > 1e-6")
            if summary["fit_rejected"] is not False:
                errors.append("fitted residuals rejected")
            if summary["reference_outliers"] != REFERENCE_OUTLIERS:
                errors.append(f"reference outliers {summary['reference_outliers']}")
            if (outdir / "reference_ks.json").read_text() != REFERENCE_KS:
                errors.append("reference_ks.json differs")
            return errors
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


class ResidualScan:
    """Residuals of 2000-step windows of one long simulated reactor series."""

    name = "residual_scan"
    sizes = {"full": {"window": 2000, "steps": 2500},
             "smoke": {"window": 50, "steps": 60}}
    spacing = 0.01
    h = 1e-4

    def __init__(self, size, seed, scratch: Path):
        self.cfg = self.sizes[size]
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(self.seed)
        steps, window = self.cfg["steps"], self.cfg["window"]
        self.model = hude.reactor.build_reactor_hude(hude.reactor.THERMAL_U235)
        self.levels = _levels(rng, steps)
        times = self.spacing * np.arange(steps + 1)
        self.series = hude.residuals.simulate_observations(
            self.model, FITTED, INIT, times, eps=self.levels, h=self.h)
        # Windows are visited in a seeded order, so no two ops share an input
        # until every window has been used once.
        self.order = rng.permutation(steps - window + 1)
        return self.series.x.copy()

    def prepare(self, i):
        a = int(self.order[i % self.order.size])
        stop = a + self.cfg["window"] + 1
        s = self.series
        window = hude.residuals.ObservationSeries(s.t[a:stop], s.x[a:stop],
                                                  s.derivs[:, a:stop])
        return f"seed={self.seed},offset={a}", (window, self.levels[a:stop - 1])

    def run(self, op_input):
        window, _ = op_input
        return hude.residuals.compute_residuals(
            self.model, FITTED, window, delta=DELTA, h=self.h, scheme="given")

    def check(self, op_input, vector):
        _, levels = op_input
        errors = []
        if len(vector) != levels.size:
            return [f"{len(vector)} residuals for {levels.size} steps"]
        gap = float(np.max(np.abs(vector.epsilons - levels)))
        if not gap <= DELTA:
            errors.append(f"residual {gap:.3g} away from its level")
        if vector.saturated.any():
            errors.append(f"{int(vector.saturated.sum())} residuals saturated")
        return errors


class PathSolve:
    """The forward direction: one RK4 alpha-path, a 19-level fan and a short
    simulated series."""

    name = "path_solve"
    sizes = {"full": {"t_end": 6.0, "sim_points": 201},
             "smoke": {"t_end": 0.3, "sim_points": 11}}
    h = 1e-4
    spacing = 0.01
    fan_alphas = np.linspace(0.45, 0.95, 19)

    def __init__(self, size, seed, scratch: Path):
        self.cfg = self.sizes[size]
        self.seed = seed

    def setup(self):
        self.model = hude.reactor.build_reactor_hude(hude.reactor.THERMAL_U235)
        self.times = self.spacing * np.arange(self.cfg["sim_points"])
        return self.times.copy()

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, i])
        alpha = float(rng.uniform(0.45, 0.95))
        levels = _levels(rng, self.times.size - 1)
        return f"seed={self.seed},op={i}", (alpha, levels)

    def run(self, op_input):
        alpha, levels = op_input
        t_end = self.cfg["t_end"]
        path = hude.alphapath.solve_alpha_path(
            self.model, FITTED, alpha, INIT, t_end, h=self.h, method="rk4")
        fan = hude.alphapath.inverse_distribution(
            self.model, FITTED, INIT, t_end, self.fan_alphas, h=self.h)
        series = hude.residuals.simulate_observations(
            self.model, FITTED, INIT, self.times, eps=levels, h=self.h)
        return path, fan, series

    def check(self, op_input, output):
        alpha, _ = op_input
        path, fan, series = output
        errors = []
        traj = path.trajectory
        exact = hude.reactor.closed_form_psi_inv(traj.t, alpha)
        rel = float(np.max(np.abs(traj.component(0) - exact) / np.abs(exact)))
        if not rel <= 1e-9:
            errors.append(f"alpha-path {rel:.3g} from the closed form")
        if not np.all(np.diff(fan.values) >= 0.0):
            errors.append("inverse distribution decreases in alpha")
        if not (np.all(np.isfinite(series.x)) and np.all(np.isfinite(series.derivs))):
            errors.append("simulated series is not finite")
        if len(series) != self.times.size:
            errors.append(f"simulated {len(series)} points")
        return errors


WORKLOADS = {w.name: w for w in (ReactorFit, ResidualScan, PathSolve)}
