import json
import os

import numpy as np
import pytest

from convexhmc import PhasePoint, flow_trajectory, hamiltonian, make_gaussian
from convexhmc.cli import main, run_experiment
from convexhmc.config import (CSV_BLOCK, ConfigError, build_potential, format_number,
                              validate_config, write_csv)


@pytest.fixture
def gaussian_target(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"kind": "gaussian", "eigenvalues": [1.0, 1.0]}))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSampleCommand:
    def test_writes_csv_and_summary(self, gaussian_target, tmp_path):
        out = tmp_path / "run1"
        code = main(["sample", "--target-config", gaussian_target, "--kernel", "metropolis",
                     "--scheme", "leapfrog", "--theta", "0.01", "--steps", "50",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        rows = (out / "sample.csv").read_text().strip().split("\n")
        assert rows[0] == "step,q0,q1,H,accepted"
        assert len(rows) == 52
        summary = json.loads((out / "sample_summary.json").read_text())
        assert summary["gradient_evals"] > 0

    def test_byte_identical_reruns(self, gaussian_target, tmp_path):
        args = ["sample", "--target-config", gaussian_target, "--kernel", "unadjusted",
                "--scheme", "euler", "--theta", "0.05", "--steps", "40", "--seed", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert read(out_a / "sample.csv") == read(out_b / "sample.csv")
        assert read(out_a / "sample_summary.json") == read(out_b / "sample_summary.json")


    def test_diverged_run_fails(self, tmp_path):
        # one Euler step of length 50 on eigenvalue 4 sends H past 1000 at once
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "gaussian", "eigenvalues": [1.0, 4.0]}))
        out = tmp_path / "run"
        code = main(["sample", "--target-config", str(target), "--kernel", "unadjusted",
                     "--scheme", "euler", "--theta", "50", "--steps", "400", "--seed", "1",
                     "--out", str(out)])
        summary = json.loads((out / "sample_summary.json").read_text())
        assert code == 1
        assert summary["pass"] is False and summary["diverged_at"] == 0


class TestCertifyCommand:
    def test_known_pass(self, gaussian_target, tmp_path):
        out = tmp_path / "cert"
        code = main(["certify", "--target-config", gaussian_target, "--trials", "50",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "certify_summary.json").read_text())
        assert summary["pass"] is True
        assert summary["worst_ratio"] <= summary["bound"] + 1e-6


class TestConfigValidation:
    def test_malformed_json_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["sample", "--target-config", str(bad), "--seed", "0",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_schema_errors_carry_field_paths(self):
        with pytest.raises(ConfigError, match=r"\$\.target"):
            validate_config({"task": "sample",
                             "target": {"kind": "gaussian", "eigenvalues": []},
                             "run": {"seed": 0}})

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"task": "frobnicate"})

    def test_bad_target_kind_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad_target.json"
        bad.write_text(json.dumps({"kind": "mystery"}))
        code = main(["certify", "--target-config", str(bad), "--trials", "5",
                     "--seed", "0", "--out", str(tmp_path)])
        assert code == 2

    def test_domain_error_exits_2_without_traceback(self, tmp_path, capsys):
        # exit 1 means a failed certificate; an out-of-range T is a usage error
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "gaussian", "eigenvalues": [1.0, 4.0]}))
        code = main(["certify", "--target-config", str(target), "--T", "10",
                     "--seed", "0", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("CouplingError: T must lie in")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("integrator, couple, error", [
        # a start of the wrong length for the 2-d target
        ({"scheme": "leapfrog"}, {"x0": [1, 2, 3]},
         "CouplingError: x0 and y0 must have shape (2,), got (3,) and (2,)\n"),
        # the order comes from the scheme, and guarded is no scheme
        ({"scheme": "leapfrog", "k": 2}, {}, "ConfigError: invalid experiment config"),
        ({"scheme": "guarded"}, {}, "ConfigError: invalid experiment config"),
    ], ids=["x0-length", "k-field", "guarded-scheme"])
    def test_bad_run_config_exits_2(self, tmp_path, capsys, integrator, couple, error):
        conf = {"task": "couple", "target": {"kind": "gaussian", "eigenvalues": [1.0, 4.0]},
                "kernel": {"kind": "metropolis", "integrator": integrator},
                "run": {"steps": 5, "seed": 0}, "couple": couple}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(conf))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(error) and "Traceback" not in err

    def test_ideal_kernel_runs_the_scheme_it_is_given(self, tmp_path, capsys):
        # exact_gaussian has no closed form on a perturbed target
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "perturbed", "dim": 2, "amplitude": 0.1,
                                      "seed": 1}))
        code = main(["couple", "--target-config", str(target), "--kernel", "ideal",
                     "--scheme", "exact_gaussian", "--steps", "3", "--seed", "0",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "IntegratorError: exact_gaussian scheme requires a Gaussian potential\n"

    @pytest.mark.parametrize("conf, error", [
        ({"task": "sample", "target": {"kind": "gaussian", "eigenvalues": [1.0]},
          "kernel": {"kind": "metropolis", "integrator": {"scheme": "leapfrog"}}},
         "$: 'run' is a required property"),
        ({"task": "verify_rounding", "target": {"kind": "gaussian", "eigenvalues": [1.0]}},
         "$: 'precondition' is a required property"),
        ({"task": "verify_rounding", "target": {"kind": "gaussian", "eigenvalues": [1.0]},
          "precondition": {"anchor": [0.0]}},
         "$.precondition: 'points_csv' is a required property"),
    ], ids=["sample-run", "verify-precondition", "verify-points"])
    def test_missing_block_exits_2(self, tmp_path, capsys, conf, error):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(conf))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"ConfigError: invalid experiment config: {error}\n"

    @pytest.mark.parametrize("command", ["sample", "couple"])
    def test_overshooting_step_is_reported(self, tmp_path, capsys, command):
        # a leapfrog step sqrt(0.01) = 0.1 integrates past T = 0.088
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "gaussian", "eigenvalues": [1.0, 4.0]}))
        argv = [command, "--target-config", str(target), "--kernel", "metropolis",
                "--scheme", "leapfrog", "--T", "0.088", "--steps", "20", "--seed", "1"]
        for theta, out in (("0.01", "long"), ("0.001", "short")):
            assert main(argv + ["--theta", theta, "--out", str(tmp_path / out)]) == 0
            captured = capsys.readouterr()
            assert captured.out == (tmp_path / out / f"{command}_summary.json").read_text()
            if theta == "0.01":
                assert captured.err == ("convexhmc: warning: the oracle step theta^(1/2) = 0.1 "
                                        "exceeds T = 0.088; each flow integrates for that step\n")
            else:
                assert captured.err == ""

    @pytest.mark.parametrize("command", ["target", "distance", "points", "data_csv"])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, gaussian_target, command):
        missing = str(tmp_path / "nope.csv")
        logistic = tmp_path / "logistic.json"
        logistic.write_text(json.dumps({"kind": "logistic", "data_csv": missing, "ridge": 1.0}))
        argv = {
            "target": ["sample", "--target-config", str(tmp_path / "nope.json"), "--seed", "0"],
            "distance": ["distance", missing, missing],
            "points": ["verify-rounding", "--target-config", gaussian_target,
                       "--points", missing],
            "data_csv": ["certify", "--target-config", str(logistic), "--seed", "0"],
        }[command]
        code = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ConfigError: ") and "nope." in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestDistanceCommand:
    def test_prints_w1_and_prokhorov(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(str(a), ["x0", "x1"], rng.standard_normal((32, 2)).T)
        write_csv(str(b), ["x0", "x1"], rng.standard_normal((32, 2)).T)
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        code = main(["distance", str(a), str(b)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "assignment"
        assert out["prokhorov_upper"] == pytest.approx(out["w1"] ** 0.5)
        assert list(workdir.iterdir()) == []  # print-only without --out


class TestPreconditionCommands:
    def test_matrix_roundtrip(self, tmp_path):
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"kind": "gaussian", "eigenvalues": [1.0, 4.0]}))
        out = tmp_path / "pre"
        code = main(["precondition", "--target-config", str(target), "--out", str(out)])
        assert code == 0
        mat = np.loadtxt(out / "rounding_matrix.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(mat, np.diag([1.0, 2.0]), atol=1e-5)

    def test_verify_rounding(self, tmp_path):
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"kind": "perturbed", "dim": 2, "amplitude": 0.1,
                                      "seed": 5}))
        pts = tmp_path / "pts.csv"
        rng = np.random.default_rng(1)
        write_csv(str(pts), ["x0", "x1"], rng.standard_normal((20, 2)).T)
        out = tmp_path / "ver"
        code = main(["verify-rounding", "--target-config", str(target),
                     "--points", str(pts), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "verify_rounding_summary.json").read_text())
        assert summary["pass"] is True


class TestRunSubcommand:
    def test_full_config_dispatch(self, tmp_path):
        conf = {
            "task": "couple",
            "target": {"kind": "gaussian", "eigenvalues": [1.0, 1.0]},
            "kernel": {"kind": "ideal", "integrator": {"scheme": "exact_gaussian"}},
            "run": {"steps": 50, "seed": 11},
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(conf))
        out = tmp_path / "res"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "couple_summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["pass"] is True

    def test_goodset_task(self, tmp_path):
        conf = {
            "task": "goodset",
            "target": {"kind": "separable",
                       "block": {"kind": "gaussian", "eigenvalues": [1.0]}, "copies": 8},
            "kernel": {"kind": "unadjusted",
                       "integrator": {"scheme": "leapfrog", "theta": 0.01}},
            "goodset": {"block_dim": 1},
            "run": {"seed": 2, "steps": 20, "replicas": 30},
        }
        summary = run_experiment(conf, out_dir=str(tmp_path))
        assert 0.0 <= summary["exit_frequency"] <= 1.0

    def test_drift_task(self, tmp_path):
        conf = {
            "task": "drift",
            "target": {"kind": "gaussian", "eigenvalues": [1.0, 1.0]},
            "kernel": {"kind": "ideal", "integrator": {"scheme": "exact_gaussian"}},
            "drift": {"radii": [2.0, 8.0]},
            "run": {"seed": 4, "replicas": 400},
        }
        summary = run_experiment(conf, out_dir=str(tmp_path))
        assert summary["feasible"] is True
        assert os.path.exists(tmp_path / "drift.csv")


class TestFileFormats:
    def test_logistic_target_from_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = np.column_stack([np.where(rng.random(12) < 0.5, -1.0, 1.0),
                                rng.standard_normal((12, 2))])
        data = tmp_path / "data.csv"
        write_csv(str(data), ["label", "f0", "f1"], rows.T)
        pot = build_potential({"kind": "logistic", "data_csv": "data.csv", "ridge": 0.5},
                              base_dir=str(tmp_path))
        assert pot.dim == 2
        assert pot.m2 == 0.5
        assert np.linalg.norm(pot.gradient(np.zeros(2))) <= 1e-8

    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
    def test_column_writer_matches_per_value_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 0.1])
        floats = rng.standard_normal(rows)
        floats[: min(rows, special.size)] = special[: min(rows, special.size)]
        columns = [np.arange(rows), floats, rng.standard_normal(rows) * 1e-7,
                   rng.random(rows) < 0.5, rng.integers(-(2**62), 2**62, rows)]
        header = ["i", "a", "b", "ok", "big"]
        write_csv(str(tmp_path / "new.csv"), header, columns)
        with open(tmp_path / "old.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*columns):
                fh.write(",".join(format_number(v) for v in row) + "\n")
        assert read(tmp_path / "new.csv") == read(tmp_path / "old.csv")

    def test_trajectory_dump_format(self, tmp_path):
        pot = make_gaussian([1.0, 4.0])
        start = PhasePoint(np.array([1.0, 0.5]), np.array([0.0, -0.2]))
        times, qs, ps = flow_trajectory(pot, start, T=0.3, snapshots=5, tol=1e-8)
        path = tmp_path / "traj.csv"
        energies = hamiltonian(pot, PhasePoint(qs, ps))
        write_csv(str(path), ["t", "q0", "q1", "p0", "p1", "H"],
                  np.column_stack([times, qs, ps, energies]).T)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "t,q0,q1,p0,p1,H"
        assert len(rows) == 7
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        # exact flow conserves H, so the recorded energies barely move
        assert np.ptp(table[:, -1]) <= 1e-8


class TestScalingSmoke:
    def test_single_dimension_has_no_slope(self, tmp_path):
        out = tmp_path / "scale"
        code = main(["scaling", "--scheme", "leapfrog",
                     "--dims", "4", "--epsilon", "0.5", "--replicas", "64",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "scaling_summary.json").read_text())
        assert summary["slope"] is None
        assert len(summary["dims"]) == 1

    def test_ledger_conservation(self, tmp_path):
        out = tmp_path / "scale2"
        main(["scaling", "--scheme", "euler",
              "--dims", "2,4", "--epsilon", "0.5", "--replicas", "64",
              "--seed", "6", "--out", str(out)])
        rows = np.loadtxt(out / "scaling.csv", delimiter=",", skiprows=1)
        for dim, theta, oracle_steps, chain_steps, replicas, evals, per_chain, *_ in rows:
            assert evals == chain_steps * oracle_steps * replicas  # euler: 1 eval/oracle
            assert per_chain == chain_steps * oracle_steps
