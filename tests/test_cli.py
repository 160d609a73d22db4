import hashlib
import json
import time
from unittest import mock

import numpy as np
import pytest

import hude
from hude import odeint, table4
from hude.cli import main

from conftest import spied_bisect


@pytest.fixture()
def example2_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "order": 2,
                "drift": "2*x1 + 3*x0",
                "diffusions": ["exp(-t)"],
                "params": [],
                "init": {"t0": 0.0, "state": [0.0, 0.0]},
            }
        )
    )
    return path


@pytest.fixture()
def decay_model_file(tmp_path):
    path = tmp_path / "decay.json"
    path.write_text(
        json.dumps(
            {
                "order": 1,
                "drift": "-th*x0",
                "diffusions": ["0.2"],
                "params": ["th"],
                "theta": {"th": 0.3},
                "init": {"t0": 0.0, "state": [2.0]},
            }
        )
    )
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestHelp:
    @pytest.mark.parametrize(
        "command",
        ["alpha-path", "residuals", "estimate", "test", "simulate", "reactor-demo"],
    )
    def test_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        assert command in capsys.readouterr().out


class TestAlphaPath:
    def test_writes_trajectory(self, tmp_path, example2_model_file):
        out = tmp_path / "path.csv"
        assert run("alpha-path", "--model", example2_model_file, "--alpha", 0.9,
                   "--t-end", 1.0, "--step", 1e-3, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x0,x1"
        assert len(lines) == 1002

    def test_idempotent_bytes(self, tmp_path, example2_model_file):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run("alpha-path", "--model", example2_model_file, "--alpha", 0.7,
                "--t-end", 0.5, "--step", 1e-3, "--out", out)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_diffusion_alpha_independent(self, tmp_path):
        model = tmp_path / "zd.json"
        model.write_text(
            json.dumps(
                {
                    "order": 1,
                    "drift": "-0.5*x0",
                    "diffusions": [],
                    "init": {"t0": 0.0, "state": [1.0]},
                }
            )
        )
        lo = tmp_path / "lo.csv"
        hi = tmp_path / "hi.csv"
        run("alpha-path", "--model", model, "--alpha", 0.1, "--t-end", 1.0,
            "--step", 1e-2, "--out", lo)
        run("alpha-path", "--model", model, "--alpha", 0.9, "--t-end", 1.0,
            "--step", 1e-2, "--out", hi)
        assert lo.read_bytes() == hi.read_bytes()

    def test_env_var_overrides_default_step(self, tmp_path, example2_model_file,
                                            monkeypatch):
        monkeypatch.setenv("HUDE_DEFAULT_STEP", "0.05")
        out = tmp_path / "env.csv"
        run("alpha-path", "--model", example2_model_file, "--alpha", 0.6,
            "--t-end", 1.0, "--out", out)
        assert len(out.read_text().splitlines()) == 22  # header + 20 steps + end


class TestResidualsAndTest:
    def test_residual_csv(self, tmp_path, decay_model_file):
        data = tmp_path / "obs.csv"
        model = hude.HudeModel.parse(1, "-th*x0", ["0.2"], params=["th"])
        series = hude.simulate_observations(
            model, {"th": 0.3}, hude.InitialState(0.0, [2.0]),
            0.1 * np.arange(31), seed=4, h=1e-3,
        )
        series.to_csv(data)
        out = tmp_path / "res.csv"
        assert run("residuals", "--model", decay_model_file, "--data", data,
                   "--step", 1e-3, "--out", out) == 0
        rv = hude.ResidualVector.from_csv(out)
        assert len(rv) == 30

    def test_reference_residuals_accepted(self, tmp_path):
        data = tmp_path / "t4.csv"
        table4().to_csv(data)
        out = tmp_path / "report.json"
        assert run("test", "--data", data, "--alpha", 0.05, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["reject"] is False
        assert report["threshold"] == 3
        assert report["outliers"] == [50, 55]


class TestSimulate:
    def test_seeded_determinism(self, tmp_path, decay_model_file):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--model", decay_model_file, "--times",
                       "0:2:0.1", "--seed", 9, "--step", 1e-2, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 22

    @pytest.mark.parametrize("times, grid", [("0:1:0.6", [0.0, 0.6]),
                                             ("0:1:0.4", [0.0, 0.4, 0.8])])
    def test_times_stop_at_stop(self, tmp_path, decay_model_file, times,
                                grid):
        # The grid takes every start + k*step up to stop, and none past it.
        out = tmp_path / "o.csv"
        assert run("simulate", "--model", decay_model_file, "--times", times,
                   "--seed", 9, "--step", 1e-2, "--out", out) == 0
        rows = out.read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == grid

    def test_needs_time_source(self, tmp_path, decay_model_file, capsys):
        code = run("simulate", "--model", decay_model_file, "--out",
                   tmp_path / "x.csv")
        assert code == 5

    # Both backends write the same bytes; the cubic field (^) runs on numpy.
    @pytest.mark.parametrize("compiled", [True, False],
                             ids=["compiled", "numpy"])
    @pytest.mark.parametrize("name, integrator", [
        ("reactor", "euler"), ("reactor", "rk4"), ("cubic", "euler")])
    def test_golden_series(self, tmp_path, monkeypatch, compiled, name,
                           integrator):
        monkeypatch.setattr(odeint, "COMPILED", compiled)
        path = _golden_model_file(tmp_path, name)
        out = tmp_path / "series.csv"
        assert run("simulate", "--model", path, "--times", "0:2:0.01",
                   "--seed", 7, "--step", 1e-3, "--integrator", integrator,
                   "--out", out) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN_SIMULATE[name, integrator]


# SHA-256 of `hude simulate --times 0:2:0.01 --seed 7 --step 1e-3` outputs,
# recorded with Python 3.11 and numpy 2.4 on x86-64.
GOLDEN_SIMULATE = {
    ("reactor", "euler"):
        "002470ac846ab61aea530845a8a05d463ac38edbfca2a259a4194fd2989d36ff",
    ("reactor", "rk4"):
        "4ab5817198431dc9aab289e93ac06307f385a60995554111b31332ab9d93198c",
    ("cubic", "euler"):
        "2fcc67527cd92191d8747f3e2752a2e179427e7730d5fb679d50e72c0620aed7",
}


def _golden_model_file(tmp_path, name):
    """The model file of a golden test: the reactor model at the fitted
    noise levels, or a cubic model whose ``^`` and ``exp`` run on numpy."""
    if name == "reactor":
        model = hude.build_reactor_hude(hude.THERMAL_U235).to_dict()
        model["theta"] = dict(hude.FITTED_THETA)
        init = hude.CASE_STUDY_INIT
    else:
        model = hude.HudeModel.parse(
            2, "-0.5*x1 - x0^3", ["0.3*exp(-t)"]).to_dict()
        init = hude.InitialState(0.0, [1.0, 0.0])
    model["init"] = {"t0": init.t0, "state": init.values.tolist()}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(model))
    return path


# A recorded path runs in the record kernel: compiled for the reactor model,
# row by row on floats for the cubic one and for either on numpy.
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("name", ["reactor", "cubic"])
def test_golden_alpha_path(tmp_path, monkeypatch, compiled, name, integrator):
    monkeypatch.setattr(odeint, "COMPILED", compiled)
    out = tmp_path / "path.csv"
    assert run("alpha-path", "--model", _golden_model_file(tmp_path, name),
               "--alpha", 0.7, "--t-end", 2, "--step", 1e-3,
               "--integrator", integrator, "--out", out) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_ALPHA_PATH[name, integrator]


# SHA-256 of `hude alpha-path --alpha 0.7 --t-end 2 --step 1e-3` outputs,
# recorded with Python 3.11 and numpy 2.4 on x86-64.
GOLDEN_ALPHA_PATH = {
    ("reactor", "euler"):
        "5969489cf27547857c1d9e8a4ef3bc7fdce28296bd76a7e811e5a2090f9c19b9",
    ("reactor", "rk4"):
        "0a82ae2faa6b475fc87fb8b86987663bd5df42b4b3de7b6a9e34ee8854a6e6f8",
    ("cubic", "euler"):
        "ff42e5ae60b380b965e0ac890537ac569c1fcd1e7b6a6dd79f06f395960cc649",
    ("cubic", "rk4"):
        "510b73d8a82da90056958825e136bfb75166e625c62b95c9a65e422b7b111df4",
}


# The 200 rows of each bisection pass run in the column kernel (the cubic
# field's ^ keeps it off the compiled kernels).  -x0^3 decreases in x0, so
# the spot check warns.
@pytest.mark.filterwarnings("ignore::hude.AlphaPathConditionWarning")
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_golden_residuals(tmp_path, monkeypatch, compiled, integrator):
    monkeypatch.setattr(odeint, "COMPILED", compiled)
    model = _golden_model_file(tmp_path, "cubic")
    data, out = tmp_path / "series.csv", tmp_path / "residuals.csv"
    assert run("simulate", "--model", model, "--times", "0:2:0.01",
               "--seed", 7, "--step", 1e-3, "--out", data) == 0
    assert len(data.read_text().splitlines()) == 202
    assert run("residuals", "--model", model, "--data", data, "--step", 1e-3,
               "--integrator", integrator, "--out", out) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_RESIDUALS[integrator]


# SHA-256 of `hude residuals --step 1e-3` outputs on the cubic series of
# GOLDEN_SIMULATE, recorded with Python 3.11 and numpy 2.4 on x86-64.
GOLDEN_RESIDUALS = {
    "euler": "ecd034c09c4fc61233b2f9f3a4aac25cc265cae03e119f1db66389b83a0e980a",
    "rk4": "e320dc5ab211f7f3191d3e1057466e8ab1f98df576927771592e948756eb74fd",
}


# The 600 restart rows of the simulated reactor series take bisections of
# up to 13 parameter points (BATCH_ROWS), so the presearch runs in chunks,
# the last of 9 points; each method's outputs are the same bytes on both
# backends.
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
@pytest.mark.parametrize("method", ["moments", "mle"])
def test_golden_estimate(tmp_path, monkeypatch, compiled, method):
    monkeypatch.setattr(odeint, "COMPILED", compiled)
    model = _golden_model_file(tmp_path, "reactor")
    data, out = tmp_path / "series.csv", tmp_path / "estimate.json"
    assert run("simulate", "--model", model, "--times", "0:6:0.01",
               "--seed", 0, "--step", 1e-3, "--out", data) == 0
    assert len(data.read_text().splitlines()) == 602
    assert run("estimate", "--model", model, "--data", data, "--method",
               method, "--bounds", "0,1,0,1", "--step", 1e-3,
               "--out", out) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_ESTIMATE[method]


# SHA-256 of `hude estimate --bounds 0,1,0,1 --step 1e-3` outputs on the
# reactor series `hude simulate --times 0:6:0.01 --seed 0 --step 1e-3`
# writes, recorded with Python 3.11 and numpy 2.4 on x86-64.
GOLDEN_ESTIMATE = {
    "moments":
        "fdff08439b09eb67b10f22f889936512c0f7d2dc8cd99acde0a1d4c2697fe715",
    "mle": "5e6b2e409e61c53aa04522217c41349c6b4333c1f988e191a8a6d2f2eb4df3b0",
}


class TestEstimate:
    def test_estimate_json(self, tmp_path, decay_model_file):
        data = tmp_path / "obs.csv"
        model = hude.HudeModel.parse(1, "-th*x0", ["0.2"], params=["th"])
        series = hude.simulate_observations(
            model, {"th": 0.3}, hude.InitialState(0.0, [2.0]),
            0.05 * np.arange(101), seed=3, h=1e-3,
        )
        series.to_csv(data)
        out = tmp_path / "est.json"
        assert run("estimate", "--model", decay_model_file, "--data", data,
                   "--method", "moments", "--p", 1, "--bounds", "0,1",
                   "--step", 1e-3, "--seed", 0, "--restarts", 1,
                   "--threshold", 1e-8, "--out", out) == 0
        result = json.loads(out.read_text())
        assert set(result) == {"theta", "objective", "converged", "iterations",
                               "moment_gaps"}
        assert abs(result["theta"]["th"] - 0.3) < 0.05
        assert result["converged"] is True


class TestErrorCodes:
    def test_missing_file(self, tmp_path, capsys):
        code = run("test", "--data", tmp_path / "missing.csv", "--out",
                   tmp_path / "o.json")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "file-not-found"

    def test_bad_expression(self, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_text(json.dumps({"order": 1, "drift": "x0 +"}))
        code = run("alpha-path", "--model", model, "--alpha", 0.5, "--t-end", 1,
                   "--out", tmp_path / "o.csv")
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "parse-error"

    def test_overflowing_literal(self, tmp_path, capsys):
        model = tmp_path / "inf.json"
        model.write_text(json.dumps({"order": 1, "drift": "1e999*x0 - x0",
                                     "init": {"t0": 0.0, "state": [1.0]}}))
        code = run("alpha-path", "--model", model, "--alpha", 0.5, "--t-end", 1,
                   "--out", tmp_path / "o.csv")
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "parse-error"
        assert "position 0" in err["message"]

    def test_bad_json(self, tmp_path, capsys):
        model = tmp_path / "broken.json"
        model.write_text("{not json")
        code = run("alpha-path", "--model", model, "--alpha", 0.5, "--t-end", 1,
                   "--out", tmp_path / "o.csv")
        assert code == 4

    @pytest.mark.parametrize("theta, state", [
        ({"a": None}, [1.0]), ({"a": 0.5}, {"x0": 1.0}),
    ], ids=["theta-null", "state-object"])
    def test_malformed_model_values(self, tmp_path, capsys, theta, state):
        model = tmp_path / "values.json"
        model.write_text(json.dumps({"order": 1, "drift": "a*x0",
                                     "params": ["a"], "theta": theta,
                                     "init": {"t0": 0.0, "state": state}}))
        out = tmp_path / "o.csv"
        code = run("alpha-path", "--model", model, "--alpha", 0.5, "--t-end", 1,
                   "--out", out)
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "parse-error"
        assert not out.exists()

    @pytest.mark.parametrize("document", [
        {"order": 1, "drift": "a*x0", "params": ["a", "a"],
         "theta": {"a": 0.5}, "init": {"t0": 0.0, "state": [1.0]}},
        {"order": 0, "drift": "1", "init": {"t0": 0.0, "state": [1.0]}},
        {"order": 1, "drift": "a*x0", "params": ["a"],
         "theta": {"a": 0.5, "zz": 1.0}, "init": {"t0": 0.0, "state": [1.0]}},
        {"order": 2, "drift": "-x0", "init": {"t0": 0.0,
                                              "state": [[1.0, 2.0]]}},
    ], ids=["duplicate-params", "order-0", "stray-theta", "nested-state"])
    def test_malformed_model_documents(self, tmp_path, capsys, document):
        model = tmp_path / "document.json"
        model.write_text(json.dumps(document))
        out = tmp_path / "o.csv"
        code = run("alpha-path", "--model", model, "--alpha", 0.5, "--t-end", 1,
                   "--out", out)
        assert code == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "parse-error"
        assert not out.exists()

    def test_missing_init_section(self, tmp_path, capsys):
        model = tmp_path / "noinit.json"
        model.write_text(json.dumps({"order": 1, "drift": "-x0"}))
        code = run("alpha-path", "--model", model, "--alpha", 0.5, "--t-end", 1,
                   "--out", tmp_path / "o.csv")
        assert code == 4

    def test_compute_error(self, tmp_path, capsys):
        model = tmp_path / "loggy.json"
        model.write_text(
            json.dumps(
                {"order": 1, "drift": "ln(x0)",
                 "init": {"t0": 0.0, "state": [-2.0]}}
            )
        )
        code = run("alpha-path", "--model", model, "--alpha", 0.5, "--t-end",
                   1.0, "--step", 0.1, "--out", tmp_path / "o.csv")
        assert code == 5
        assert json.loads(capsys.readouterr().err)["error"] == "compute-error"

    def test_bad_step_env_var(self, tmp_path, example2_model_file, capsys,
                              monkeypatch):
        monkeypatch.setenv("HUDE_DEFAULT_STEP", "abc")
        code = run("alpha-path", "--model", example2_model_file, "--alpha", 0.5,
                   "--t-end", 1.0, "--out", tmp_path / "o.csv")
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "compute-error"
        assert "HUDE_DEFAULT_STEP" in err["message"]
        # commands without a step never read the variable
        data = tmp_path / "t4.csv"
        table4().to_csv(data)
        assert run("test", "--data", data, "--out", tmp_path / "r.json") == 0
        # an explicit step wins over the variable
        assert run("alpha-path", "--model", example2_model_file, "--alpha", 0.5,
                   "--t-end", 0.1, "--step", 0.01, "--out",
                   tmp_path / "p.csv") == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("option, env", [
        (("--t-end", "nan"), None),
        (("--t-end", "inf"), None),
        (("--t-end", 1.0), "nan"),
        (("--t-end", 1.0), "inf"),
    ])
    def test_non_finite_end_time_or_step(self, tmp_path, example2_model_file,
                                         capsys, monkeypatch, option, env):
        if env is not None:
            monkeypatch.setenv("HUDE_DEFAULT_STEP", env)
        code = run("alpha-path", "--model", example2_model_file, "--alpha", 0.5,
                   *option, "--out", tmp_path / "o.csv")
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "compute-error"
        assert err["message"] == (
            f"end time must be finite, got {option[1]}" if env is None else
            f"HUDE_DEFAULT_STEP must be finite, got {env!r}")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_observation_time(self, tmp_path, decay_model_file,
                                         capsys, bad):
        data = tmp_path / "obs.csv"
        data.write_text(f"t,x\n0.0,2.0\n{bad},1.9\n0.2,1.8\n")
        code = run("residuals", "--model", decay_model_file, "--data", data,
                   "--step", 1e-2, "--out", tmp_path / "res.csv")
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "compute-error"
        assert err["message"] == "observation times must be finite"

    @pytest.mark.parametrize("step, message", [
        ("nan", "step h must be finite, got nan"),
        (0, "step h must be positive"), (-1, "step h must be positive")])
    @pytest.mark.parametrize("delta", [1, 0.5])
    def test_bad_step_at_any_delta(self, tmp_path, decay_model_file, capsys,
                                   step, message, delta):
        # A delta of 1 takes no halving, but its step is checked all the same.
        data = tmp_path / "obs.csv"
        data.write_text("t,x\n0.0,2.0\n0.1,1.9\n0.2,1.8\n")
        code = run("residuals", "--model", decay_model_file, "--data", data,
                   "--delta", delta, "--step", step, "--out",
                   tmp_path / "res.csv")
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "compute-error",
                                        "message": message}
        assert not (tmp_path / "res.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("times", ["0:inf:0.1", "0:1e308:1e-308",
                                       "0:nan:0.1"])
    def test_non_finite_time_grid(self, tmp_path, decay_model_file, capsys,
                                  times):
        code = run("simulate", "--model", decay_model_file, "--times", times,
                   "--out", tmp_path / "o.csv")
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "compute-error"
        assert err["message"] == f"times {times} do not make a finite grid"
        assert not (tmp_path / "o.csv").exists()

    def test_grid_too_large_to_allocate(self, tmp_path, decay_model_file,
                                        capsys):
        # numpy refuses the 6.94 EiB grid outright, so nothing is allocated.
        code = run("simulate", "--model", decay_model_file, "--times",
                   "0:1e18:1", "--out", tmp_path / "o.csv")
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "compute-error"
        assert "allocate" in err["message"]
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("compiled", [False, True])
    def test_path_too_long_to_hold(self, tmp_path, decay_model_file, capsys,
                                   compiled):
        # 1e18 recorded steps: the path is sized before the first step, so
        # the allocation fails at once on either backend instead of growing
        # the path until memory runs out.
        start = time.perf_counter()
        with mock.patch.object(odeint, "COMPILED", compiled):
            code = run("alpha-path", "--model", decay_model_file, "--alpha",
                       0.5, "--t-end", 1, "--step", 1e-18,
                       "--out", tmp_path / "o.csv")
        assert time.perf_counter() - start < 1.0
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "compute-error"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_box_near_the_largest_float(self, tmp_path, capsys):
        # The default start 0.5*(lo + hi) and the search's vertices overflowed
        # here; each probe's noise level overflows the integration, so the
        # estimate fails with one JSON line and no RuntimeWarning.
        code = run("reactor-demo", "--bounds=1e308,1.7e308,0,1",
                   "--out", tmp_path / "report")
        assert 2 <= code <= 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "compute-error"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, option, steps, h", [
        ("residuals", ("--step", "1e-300"), "1e+299", "1e-300"),
        ("alpha-path", ("--t-end", "1e300", "--alpha", 0.5),
         "1.0000000000000001e+304", "0.0001"),
    ])
    def test_step_count_beyond_int64(self, tmp_path, decay_model_file, capsys,
                                     command, option, steps, h):
        # These once ran the whole span as one step and exited 0.
        data = tmp_path / "obs.csv"
        hude.ObservationSeries([0.0, 0.1, 0.2], [2.0, 1.9, 1.8]).to_csv(data)
        source = ("--data", data) if command == "residuals" else ()
        code = run(command, "--model", decay_model_file, *source, *option,
                   "--out", tmp_path / "o.csv")
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "compute-error",
            "message": f"the span takes {steps} steps of h={h}, more than an "
                       "int64 counts"}
        assert not (tmp_path / "o.csv").exists()

    def test_nan_delta(self, tmp_path, decay_model_file, capsys):
        data = tmp_path / "obs.csv"
        hude.ObservationSeries([0.0, 0.1, 0.2], [2.0, 1.9, 1.8]).to_csv(data)
        code = run("residuals", "--model", decay_model_file, "--data", data,
                   "--delta", "nan", "--step", 1e-2, "--out", tmp_path / "r.csv")
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "compute-error",
            "message": "precision delta must be positive"}
        assert not (tmp_path / "r.csv").exists()

    def test_bad_bounds(self, tmp_path, decay_model_file, capsys):
        data = tmp_path / "obs.csv"
        hude.ObservationSeries([0.0, 0.1, 0.2], [1.0, 1.1, 1.2]).to_csv(data)
        code = run("estimate", "--model", decay_model_file, "--data", data,
                   "--bounds", "0,1,0", "--out", tmp_path / "o.json")
        assert code == 5

    @pytest.mark.parametrize("bounds, shown", [
        ("nan,1", "(nan, 1.0)"), ("0,inf", "(0.0, inf)"),
        ("-inf,1", "(-inf, 1.0)")])
    def test_non_finite_bounds(self, tmp_path, decay_model_file, capsys,
                               bounds, shown):
        data = tmp_path / "obs.csv"
        hude.ObservationSeries([0.0, 0.1, 0.2], [1.0, 1.1, 1.2]).to_csv(data)
        code = run("estimate", "--model", decay_model_file, "--data", data,
                   f"--bounds={bounds}", "--step", 1e-2,
                   "--out", tmp_path / "o.json")
        assert code == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "compute-error",
            "message": f"each bound and its width must be finite, got [{shown}]"}
        assert not (tmp_path / "o.json").exists()


@pytest.mark.filterwarnings("ignore::hude.AlphaPathConditionWarning")
class TestReactorDemo:
    # The reactor field compiles: both backends give the same bits and work.
    @pytest.mark.parametrize("compiled", [True, False],
                             ids=["compiled", "numpy"])
    def test_full_pipeline(self, tmp_path, capsys, monkeypatch, compiled):
        monkeypatch.setattr(odeint, "COMPILED", compiled)
        calls = {"kernel": 0, "_spot_check": 0}

        def counting(fn, name):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for module in (hude.residuals, hude.alphapath):
            monkeypatch.setattr(module, "_spot_check",
                                counting(module._spot_check, "_spot_check"))
        generate, passes = odeint._generated, []

        def generated(*args):
            # A compiled bisection records the range of passes it runs, the
            # second and third slots of out after the depth; every other
            # kernel counts its calls.
            kernel = generate(*args)
            if kernel is None:
                return kernel
            if args[4] != "bisect":
                return counting(kernel, "kernel")

            def bisect(rows, head):
                assert head[0] == 14
                passes.append((int(head[1]), int(head[2])))
            return spied_bisect(kernel, bisect)

        monkeypatch.setattr(odeint, "_generated", generated)
        model = hude.build_reactor_hude(hude.THERMAL_U235)
        code = hude.model.compile_model(model, hude.FITTED_THETA)
        lowered, bound = hude.model.ReducedField(*code, 0.5)._bound()
        loads = generate(lowered, ", ".join(bound), 2, "euler", "bisect",
                         "compiled") is not None
        out = tmp_path / "report"
        assert run("reactor-demo", "--out", out, "--seed", 0) == 0
        # Integrator kernel calls and monotonicity spot checks of the whole
        # command.  The presearch bisects the 100 ladder points only as deep
        # as its argmin needs: 3 passes of every point, 11 more of the one
        # it scores exactly first, then one pass of each of three rounds of
        # the points that may still win.  Each of the 119 batches of
        # Nelder-Mead probes halves every row 14 times at delta 1e-4, and so
        # does the estimate's vector, bisected again as the fit keeps no
        # levels; the residuals written are that vector.  The fan takes one
        # more call.  On the numpy kernels each pass is one kernel call;
        # compiled, each run is one call of its own entry point that runs
        # its range of passes.  Probes skip the check; the estimate and the
        # fan check once each.
        runs = [(0, 3), (3, 14), (3, 4), (4, 5), (5, 6)] + [(0, 14)] * 120
        bisections = runs if compiled and loads else []
        assert calls == {"kernel": 1698 - sum(b - a for a, b in bisections),
                         "_spot_check": 2}
        # The presearch's first run (6,000 rows, 3 passes of 100 steps) is
        # one call per row piece where its work splits; every other run is
        # one call.
        pieces = len(odeint._piece_edges(6000, 3 * 100)) - 1
        assert passes == bisections[:1] * pieces + bisections[1:]
        estimate = json.loads((out / "estimate.json").read_text())
        assert estimate["iterations"] == 52
        for name in ("estimate.json", "residuals.csv", "test.json",
                     "reference_test.json", "reference_ks.json",
                     "psi_inverse.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["fit_rejected"] is False
        assert summary["reference_outliers"] == [50, 55]
        assert summary["reference_threshold"] == 3
        assert 0.15 <= summary["theta"]["sig2"] <= 0.45
        ks = json.loads((out / "reference_ks.json").read_text())
        assert ks["reject_at_5pct"] is True
        curve = (out / "psi_inverse.csv").read_text().splitlines()
        assert curve[0] == "alpha,psi_inv"
        assert len(curve) == 12
        # byte reproducibility: a refactor must leave these outputs unchanged
        for name, digest in GOLDEN_REACTOR_DEMO.items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == digest, name


# SHA-256 of the reactor-demo outputs (seed 0, default settings), recorded
# with Python 3.11 and numpy 2.4 on x86-64.
GOLDEN_REACTOR_DEMO = {
    "estimate.json":
        "bea0fe757e98da8504b33d417c19d9b5be9d83f2a2267ce286a7289c1fbd14c8",
    "summary.json":
        "94f0ca8398701595e0830d254811cb8e6f9f7ee0757418c4e54de25eda778920",
    "residuals.csv":
        "3ad0e33152a98d222989d2fdfa7a25fe4155df491473211fc7f29667d0a6c610",
    "psi_inverse.csv":
        "3dad328eba330f53aaed09db1a043fd5595cf83b16106b2cdb1854aad6a13d8f",
    "test.json":
        "61575fb8748e0028bcc111b9d853b375cd1a9a20de04bd4badf75cfb6aaad98f",
}
