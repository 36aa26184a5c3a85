import json
import os

import numpy as np
import pytest

from convexhmc import PhasePoint, flow_trajectory, hamiltonian, make_gaussian
from convexhmc.cli import _config_from_args, build_parser, main, run_experiment
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


GAUSS = {"kind": "gaussian", "eigenvalues": [1.0, 4.0]}


def one_line_error(capsys, argv, prefix):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestArgvToConfig:
    """Each subcommand, with and without each optional flag, builds the config
    its flags name.  These are the parent design's configs, save where a field
    went (``scaling.family``) or an unset value became an absent one (the
    distance task's ``"out": None`` and precondition's empty block)."""

    T = {"target": GAUSS, "out": "."}
    CASES = {
        "sample": (["sample", "--seed", "1"], {
            **T, "task": "sample", "run": {"steps": 1000, "seed": 1},
            "kernel": {"kind": "metropolis", "integrator": {"scheme": "leapfrog",
                                                            "theta": 0.001}}}),
        "sample-all": (["sample", "--seed", "1", "--kernel", "unadjusted", "--scheme", "euler",
                        "--theta", "0.05", "--T", "0.5", "--steps", "40", "--out", "o"], {
            "target": GAUSS, "out": "o", "task": "sample", "run": {"steps": 40, "seed": 1},
            "kernel": {"kind": "unadjusted",
                       "integrator": {"scheme": "euler", "theta": 0.05, "T": 0.5}}}),
        "couple": (["couple", "--seed", "2"], {
            **T, "task": "couple", "run": {"steps": 200, "seed": 2},
            "kernel": {"kind": "ideal", "integrator": {"scheme": "exact_gaussian",
                                                       "theta": 1e-10}}}),
        "couple-all": (["couple", "--seed", "2", "--kernel", "metropolis", "--scheme",
                        "leapfrog", "--theta", "0.001", "--T", "0.3", "--steps", "30"], {
            **T, "task": "couple", "run": {"steps": 30, "seed": 2},
            "kernel": {"kind": "metropolis",
                       "integrator": {"scheme": "leapfrog", "theta": 0.001, "T": 0.3}}}),
        "certify": (["certify", "--seed", "3"], {
            **T, "task": "certify", "certify": {"trials": 200}, "run": {"seed": 3}}),
        "certify-all": (["certify", "--seed", "3", "--T", "0.3", "--trials", "20"], {
            **T, "task": "certify", "certify": {"trials": 20, "T": 0.3}, "run": {"seed": 3}}),
        "drift": (["drift", "--seed", "4", "--radii", "2,8"], {
            **T, "task": "drift", "drift": {"radii": [2.0, 8.0]},
            "kernel": {"kind": "ideal", "integrator": {"scheme": "reference", "theta": 1e-10}},
            "run": {"seed": 4, "replicas": 1000}}),
        "drift-all": (["drift", "--seed", "4", "--radii", "3", "--replicas", "50"], {
            **T, "task": "drift", "drift": {"radii": [3.0]},
            "kernel": {"kind": "ideal", "integrator": {"scheme": "reference", "theta": 1e-10}},
            "run": {"seed": 4, "replicas": 50}}),
        "goodset": (["goodset", "--seed", "5"], {
            **T, "task": "goodset", "goodset": {"block_dim": 1},
            "kernel": {"kind": "unadjusted", "integrator": {"scheme": "leapfrog", "theta": 0.01}},
            "run": {"seed": 5, "steps": 100, "replicas": 200}}),
        "goodset-all": (["goodset", "--seed", "5", "--block-dim", "2", "--g-inf", "3",
                         "--g-2", "2", "--theta", "0.02", "--steps", "10", "--replicas", "20"], {
            **T, "task": "goodset", "goodset": {"block_dim": 2, "g_inf": 3.0, "g_2": 2.0},
            "kernel": {"kind": "unadjusted", "integrator": {"scheme": "leapfrog", "theta": 0.02}},
            "run": {"seed": 5, "steps": 10, "replicas": 20}}),
        "precondition": (["precondition"], {**T, "task": "precondition"}),
        "precondition-all": (["precondition", "--anchor", "0.1,0.2", "--out", "o"], {
            "target": GAUSS, "out": "o", "task": "precondition",
            "precondition": {"anchor": [0.1, 0.2]}}),
        "verify-rounding": (["verify-rounding", "--points", "POINTS"], {
            **T, "task": "verify_rounding", "precondition": {"points_csv": "POINTS"}}),
        "verify-rounding-all": (["verify-rounding", "--points", "POINTS", "--anchor", "0,0.5"], {
            **T, "task": "verify_rounding",
            "precondition": {"points_csv": "POINTS", "anchor": [0.0, 0.5]}}),
    }
    NO_TARGET = {
        "distance": (["distance", "a.csv", "b.csv"], {
            "task": "distance", "distance": {"a_csv": "a.csv", "b_csv": "b.csv",
                                             "method": "assignment", "directions": 64,
                                             "seed": 0}}),
        "distance-all": (["distance", "a.csv", "b.csv", "--method", "sliced", "--directions",
                          "16", "--seed", "3", "--out", "o"], {
            "task": "distance", "out": "o", "distance": {
                "a_csv": "a.csv", "b_csv": "b.csv", "method": "sliced", "directions": 16,
                "seed": 3}}),
        "scaling": (["scaling", "--seed", "6", "--scheme", "euler", "--dims", "2,4"], {
            "task": "scaling", "out": ".", "run": {"seed": 6},
            "scaling": {"kernel": "unadjusted", "scheme": "euler", "dims": [2, 4],
                        "epsilon": 0.05, "replicas": 1024}}),
        "scaling-all": (["scaling", "--seed", "6", "--scheme", "leapfrog", "--dims", "4",
                         "--kernel", "metropolis", "--epsilon", "0.5", "--replicas", "64",
                         "--out", "o"], {
            "task": "scaling", "out": "o", "run": {"seed": 6},
            "scaling": {"kernel": "metropolis", "scheme": "leapfrog", "dims": [4],
                        "epsilon": 0.5, "replicas": 64}}),
    }

    @staticmethod
    def config(argv):
        return _config_from_args(build_parser().parse_args(argv))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_target_tasks(self, tmp_path, case):
        target = tmp_path / "cfgs" / "t.json"
        target.parent.mkdir()
        target.write_text(json.dumps(GAUSS))
        points = str(tmp_path / "bulk.csv")
        argv, expected = json.loads(json.dumps(self.CASES[case]).replace("POINTS", points))
        conf, base = self.config([argv[0], "--target-config", str(target), *argv[1:]])
        assert conf == expected
        assert base == str(tmp_path / "cfgs")

    @pytest.mark.parametrize("case", sorted(NO_TARGET))
    def test_tasks_without_target(self, case):
        argv, expected = self.NO_TARGET[case]
        assert self.config(argv) == (expected, ".")

    @pytest.mark.parametrize("out", [None, "elsewhere"])
    def test_run_config(self, tmp_path, out):
        conf = {"task": "certify", "target": GAUSS, "certify": {"trials": 5},
                "run": {"seed": 1}, "out": "res"}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(conf))
        argv = ["run", "--config", str(path)] + (["--out", out] if out else [])
        assert self.config(argv) == ({**conf, "out": out or "res"}, str(tmp_path))

    @pytest.mark.parametrize("argv", [
        ["scaling", "--seed", "1", "--scheme", "euler", "--dims", "2",
         "--family", "standard_gaussian"],
        ["precondition", "--target-config", "t.json", "--seed", "1"],
        ["verify-rounding", "--target-config", "t.json", "--points", "p.csv", "--seed", "1"],
    ], ids=["scaling-family", "precondition-seed", "verify-rounding-seed"])
    def test_removed_options_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_scaling_family_field_is_gone(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"task": "scaling", "run": {"seed": 1}, "scaling": {
            "family": "standard_gaussian", "scheme": "euler", "dims": [2]}}))
        one_line_error(capsys, ["run", "--config", str(path)],
                       "ConfigError: invalid experiment config: $.scaling: Additional "
                       "properties are not allowed ('family' was unexpected)")

    @pytest.mark.parametrize("command", ["drift", "goodset"])
    def test_argv_runs_as_its_config(self, tmp_path, capsys, command):
        target = tmp_path / "t.json"
        block = {"kind": "gaussian", "eigenvalues": [1.0]}
        target.write_text(json.dumps({"kind": "separable", "block": block, "copies": 3}))
        argv = {"drift": ["drift", "--radii", "2,8", "--replicas", "100"],
                "goodset": ["goodset", "--steps", "10", "--replicas", "20"]}[command]
        argv += ["--target-config", str(target), "--seed", "4", "--out", str(tmp_path / "a")]
        code = main(argv)
        printed = capsys.readouterr().out
        conf, _ = self.config(argv)
        summary = run_experiment({**conf, "out": str(tmp_path / "b")})
        assert printed == (tmp_path / "a" / f"{command}_summary.json").read_text()
        assert json.loads(printed) == json.loads(json.dumps(summary))
        assert code == (0 if summary["pass"] else 1)
        assert read(tmp_path / "a" / f"{command}.csv") == read(tmp_path / "b" / f"{command}.csv")

    def test_help_names_each_field(self, capsys):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        for name, sub in subparsers.items():
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, "--help"])
            assert exc.value.code == 0
            text = " ".join(capsys.readouterr().out.split())
            for action in sub._actions:
                if name != "run" and action.dest not in ("help", "target"):
                    assert action.dest in text, (name, action.dest)


class TestInputErrors:
    @pytest.mark.parametrize("rows", ["label,f0,f1\n1,0.2,0.1\n-1,0.1,0.3x\n", "1,0.2\n1,0.2,0.3\n",
                                      "label,f0\n", ""], ids=["cell", "ragged", "header", "empty"])
    def test_malformed_data_csv_exits_2(self, tmp_path, capsys, rows):
        data = tmp_path / "data.csv"
        data.write_text(rows)
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"kind": "logistic", "data_csv": "data.csv", "ridge": 1.0}))
        err = one_line_error(capsys, ["sample", "--target-config", str(target), "--seed", "0",
                                      "--out", str(tmp_path / "out")], "ConfigError: ")
        assert str(data) in err

    @pytest.mark.parametrize("rows", ["abc\n", "1,2\nabc,3\n"], ids=["header-only", "cell"])
    def test_malformed_points_csv_exits_2(self, tmp_path, capsys, monkeypatch, rows):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_text(rows)
        err = one_line_error(capsys, ["distance", "a.csv", "a.csv"], "ConfigError: ./a.csv: ")
        assert not (tmp_path / "distance_summary.json").exists()

    @pytest.mark.parametrize("flags, field", [
        (["--theta", "nan"], "$.kernel.integrator.theta: nan"),
        (["--theta", "inf"], "$.kernel.integrator.theta: inf"),
        (["--T", "nan"], "$.kernel.integrator.T: nan"),
        (["--T=-inf"], "$.kernel.integrator.T: -inf"),
    ])
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, gaussian_target, flags, field):
        err = one_line_error(capsys, ["sample", "--target-config", gaussian_target, "--seed",
                                      "0", *flags, "--out", str(tmp_path / "out")],
                             "ConfigError: invalid experiment config: ")
        assert f"{field} is not a finite number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, field", [
        ('{"task": "scaling", "run": {"seed": 1}, '
         '"scaling": {"scheme": "euler", "dims": [2], "epsilon": NaN}}',
         "invalid experiment config: $.scaling.epsilon: nan"),
        ('{"task": "certify", "run": {"seed": 1}, "certify": {"trials": 5}, '
         '"target": {"kind": "gaussian", "eigenvalues": [1.0, Infinity]}}',
         "invalid experiment config: $.target.eigenvalues[1]: inf"),
    ], ids=["scaling-epsilon", "target-eigenvalue"])
    def test_non_finite_config_exits_2(self, tmp_path, capsys, text, field):
        path = tmp_path / "exp.json"
        path.write_text(text)
        err = one_line_error(capsys, ["run", "--config", str(path), "--out", str(tmp_path)],
                             "ConfigError: ")
        assert f"{field} is not a finite number" in err

    def test_non_finite_target_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        target.write_text('{"kind": "gaussian", "eigenvalues": [NaN]}')
        one_line_error(capsys, ["precondition", "--target-config", str(target),
                                "--out", str(tmp_path)],
                       "ConfigError: invalid experiment config: $.target.eigenvalues[0]: nan "
                       "is not a finite number")

    @pytest.mark.parametrize("text", ["[1]", "3", '"sample"', "null"])
    def test_non_object_run_config_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "exp.json"
        path.write_text(text)
        one_line_error(capsys, ["run", "--config", str(path)],
                       f"ConfigError: {path}: a run config must be a JSON object")


class TestPointsPath:
    def test_cli_points_resolve_from_working_directory(self, tmp_path, monkeypatch):
        (tmp_path / "cfgs").mkdir()
        (tmp_path / "data").mkdir()
        (tmp_path / "cfgs" / "t.json").write_text(json.dumps(GAUSS))
        rng = np.random.default_rng(2)
        write_csv(str(tmp_path / "data" / "bulk.csv"), ["x0", "x1"],
                  rng.standard_normal((10, 2)).T)
        monkeypatch.chdir(tmp_path)
        assert main(["verify-rounding", "--target-config", "cfgs/t.json",
                     "--points", "data/bulk.csv", "--out", "a"]) == 0
        # a run config's points_csv stays relative to the config file
        (tmp_path / "cfgs" / "exp.json").write_text(json.dumps({
            "task": "verify_rounding", "target": GAUSS,
            "precondition": {"points_csv": "../data/bulk.csv"}}))
        assert main(["run", "--config", "cfgs/exp.json", "--out", "b"]) == 0
        assert read(tmp_path / "a" / "verify_rounding_summary.json") == read(
            tmp_path / "b" / "verify_rounding_summary.json")
