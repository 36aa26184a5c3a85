import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from convexhmc import PhasePoint, flow_trajectory, make_gaussian
import convexhmc
from convexhmc import IntegratorSpec, KernelSpec, default_integration_time
from convexhmc import cli
from convexhmc import config as cfg
from convexhmc.cli import _COMMANDS, _config_from_args, build_parser, main, run_experiment
from convexhmc.config import (CSV_BLOCK, ConfigError, build_kernel_spec, build_potential,
                              validate_config, write_csv)
from convexhmc.metrics import w1_exact_1d, w1_sliced

GAUSS = {"kind": "gaussian", "eigenvalues": [1.0, 4.0]}


@pytest.fixture
def gaussian_target(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({"kind": "gaussian", "eigenvalues": [1.0, 1.0]}))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def hamiltonian(pot, x):
    """H(q, p) = U(q) + |p|^2 / 2."""
    return pot.value(x.q) + 0.5 * np.sum(np.asarray(x.p) ** 2, axis=-1)


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

    def test_diverged_step_loop_run_fails(self, tmp_path, capsys):
        # a perturbed target runs its chain one step at a time; a leapfrog step of
        # 8, far past stability, diverges at step 4 (tests/test_kernels.py)
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "perturbed", "dim": 2, "amplitude": 0.2,
                                      "seed": 1}))
        out = tmp_path / "run"
        code = main(["sample", "--target-config", str(target), "--kernel", "metropolis",
                     "--scheme", "leapfrog", "--theta", "64", "--T", "0.8", "--steps", "20",
                     "--seed", "4", "--out", str(out)])
        summary = json.loads((out / "sample_summary.json").read_text())
        assert code == 1
        assert capsys.readouterr().out == (out / "sample_summary.json").read_text()
        assert summary["pass"] is False and summary["diverged_at"] == 4


class TestCoupleCommand:
    def test_diverged_run_names_its_step(self, tmp_path):
        # one Euler step of length 0.5 on eigenvalue 400 sends H past 1000 at once
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "gaussian", "eigenvalues": [1.0, 400.0]}))
        out = tmp_path / "run"
        with warnings.catch_warnings():  # the overflow after the divergence warns of nothing
            warnings.simplefilter("error")
            code = main(["couple", "--target-config", str(target), "--kernel", "unadjusted",
                         "--scheme", "euler", "--theta", "0.5", "--T", "5", "--steps", "60",
                         "--seed", "16", "--out", str(out)])

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        # strict JSON: the NaN rate of the diverged distances is written as null
        summary = json.loads((out / "couple_summary.json").read_text(), parse_constant=reject)
        assert code == 1
        assert summary["pass"] is False and summary["diverged_at"] == 0
        assert summary["fitted_rate"] is None

    def test_bound_is_the_runs_T(self, tmp_path):
        # below T_max the ideal chain contracts by the flow's 1 - m2 T^2/8 per step, less
        # than at T_max; at T_max the bound is the kernel's 1 - (m2/M2)^2/64
        target = tmp_path / "target.json"
        target.write_text(json.dumps(
            {"kind": "perturbed", "dim": 8, "amplitude": 0.1, "seed": 33}))
        argv = ["couple", "--target-config", str(target), "--steps", "20", "--seed", "8"]
        assert main(argv + ["--T", "0.1", "--out", str(tmp_path / "short")]) == 0
        summary = json.loads((tmp_path / "short" / "couple_summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["bound"] == 1.0 - 0.125 * 0.9 * 0.1 * 0.1 == 0.998875
        assert summary["fitted_rate"] <= summary["bound"]
        pot = build_potential(json.loads(target.read_text()))
        T_max = default_integration_time(pot)
        assert main(argv + ["--T", repr(T_max), "--out", str(tmp_path / "long")]) == 0
        summary = json.loads((tmp_path / "long" / "couple_summary.json").read_text())
        assert summary["bound"] == convexhmc.kernel_contraction_bound(pot)
        assert summary["violations"] == 0

    def test_ideal_chain_under_either_name(self, tmp_path):
        # the unadjusted chain on the reference flow is the ideal chain: the same
        # distances, and the same per-step check against the bound
        target = tmp_path / "target.json"
        target.write_text(json.dumps(
            {"kind": "perturbed", "dim": 8, "amplitude": 0.1, "seed": 33}))
        for kind in ("ideal", "unadjusted"):
            assert main(["couple", "--target-config", str(target), "--kernel", kind,
                         "--scheme", "reference", "--steps", "5", "--seed", "3",
                         "--out", str(tmp_path / kind)]) == 0
        for name in ("couple.csv", "couple_summary.json"):
            assert read(tmp_path / "ideal" / name) == read(tmp_path / "unadjusted" / name)
        summary = json.loads((tmp_path / "ideal" / "couple_summary.json").read_text())
        assert summary["violations"] == 0


class TestCertifyCommand:
    def test_known_pass(self, gaussian_target, tmp_path):
        out = tmp_path / "cert"
        code = main(["certify", "--target-config", gaussian_target, "--trials", "50",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "certify_summary.json").read_text())
        assert summary["pass"] is True
        assert summary["worst_ratio"] <= summary["bound"] + 1e-6

    def test_default_trials_on_both_paths(self, gaussian_target, tmp_path):
        # an unset --trials and a certify block without trials both run 200
        assert main(["certify", "--target-config", gaussian_target, "--seed", "1",
                     "--out", str(tmp_path / "argv")]) == 0
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"task": "certify", "run": {"seed": 1},
                                    "target": json.loads(read(gaussian_target))}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "conf")]) == 0
        for name in ("certify.csv", "certify_summary.json"):
            assert read(tmp_path / "argv" / name) == read(tmp_path / "conf" / name)


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

    def test_invalid_nested_block_is_one_line(self, tmp_path, capsys):
        # a separable target's block is checked as a target of its own kind
        target = {"kind": "separable", "block": {"kind": "gaussian", "eigenvalues": [-1.0]},
                  "copies": 2}
        path = tmp_path / "target.json"
        path.write_text(json.dumps(target))
        shown = "$.target.block.eigenvalues[0]: -1.0 is less than or equal to the minimum of 0"
        err = one_line_error(capsys, ["certify", "--target-config", str(path), "--seed", "0",
                                      "--out", str(tmp_path / "out")], "ConfigError: ")
        assert err == f"ConfigError: invalid experiment config: {shown}\n"

    @pytest.mark.parametrize("target, shown", [
        ({"kind": "gaussian", "eigenvalue": [1.0]},
         "$.target: 'eigenvalues' is a required property; "
         "$.target: Additional properties are not allowed ('eigenvalue' was unexpected)"),
        ({"kind": "perturbed", "dim": 2, "amplitude": 0.3, "seed": 1},
         "$.target.amplitude: 0.3 is greater than or equal to the maximum of 0.25"),
        ({"kind": "foo"},
         "$.target.kind: 'foo' is not one of ['gaussian', 'perturbed', 'logistic', "
         "'separable']"),
    ], ids=["misspelt-field", "amplitude-range", "unknown-kind"])
    def test_target_error_names_its_field(self, tmp_path, capsys, target, shown):
        # the target's kind picks the rules that check its other fields
        path = tmp_path / "target.json"
        path.write_text(json.dumps(target))
        err = one_line_error(capsys, ["certify", "--target-config", str(path), "--seed", "0",
                                      "--out", str(tmp_path / "out")], "ConfigError: ")
        assert err == f"ConfigError: invalid experiment config: {shown}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("conf, shown", [
        ({"task": "sample", "target": GAUSS, "run": {"steps": 20.0, "seed": 1}},
         "$.run.steps: 20.0 is not of type 'integer'"),
        ({"task": "sample", "target": GAUSS, "run": {"seed": 1.0}},
         "$.run.seed: 1.0 is not of type 'integer'"),
        ({"task": "scaling", "run": {"seed": 1}, "scaling": {"scheme": "euler", "dims": [2.0, 4]}},
         "$.scaling.dims[0]: 2.0 is not of type 'integer'"),
        ({"task": "scaling", "run": {"seed": 1},
          "scaling": {"scheme": "euler", "dims": [2], "replicas": 64.0}},
         "$.scaling.replicas: 64.0 is not of type 'integer'"),
        ({"task": "certify", "run": {"seed": 1},
          "target": {"kind": "perturbed", "dim": 2.0, "amplitude": 0.1, "seed": 3.0}},
         "$.target.dim: 2.0 is not of type 'integer'; $.target.seed: 3.0 is not of type "
         "'integer'"),
    ], ids=["sample-steps", "sample-seed", "scaling-dims", "scaling-replicas", "perturbed"])
    def test_integral_float_in_an_integer_field_exits_2(self, tmp_path, capsys, conf, shown):
        # JSON's 20.0 is a float, which a step count, seed or dimension cannot
        # take: the check refuses it, and nothing is written
        (tmp_path / "exp.json").write_text(json.dumps(conf))
        err = one_line_error(capsys, ["run", "--config", str(tmp_path / "exp.json"), "--out",
                                      str(tmp_path / "out")], "ConfigError: ")
        assert err == f"ConfigError: invalid experiment config: {shown}\n"
        assert sorted(os.listdir(tmp_path)) == ["exp.json"]

    def test_a_run_validates_its_target_once(self, tmp_path, monkeypatch):
        # validate_config checks the whole config, nested target included, in one
        # walk of the task's rules; building the target checks nothing
        checks, targets = [], []

        def validate(config, inner=cfg.validate_config):
            checks.append(config["task"])
            inner(config)

        def problems(value, rules, path, inner=cfg._problems):
            if rules.get("target"):
                targets.append(path)
            return inner(value, rules, path)

        monkeypatch.setattr(cfg, "validate_config", validate)
        monkeypatch.setattr(cfg, "_problems", problems)
        block = {"kind": "separable", "block": {"kind": "gaussian", "eigenvalues": [1.0]},
                 "copies": 1}
        summary = run_experiment({"task": "certify", "run": {"seed": 0},
                                  "certify": {"trials": 5}, "out": str(tmp_path),
                                  "target": {"kind": "separable", "block": block,
                                             "copies": 2}})
        assert summary["pass"]
        assert checks == ["certify"]
        assert targets == ["$.target", "$.target.block", "$.target.block.block"]

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

    def test_ideal_kernel_runs_the_scheme_it_is_given(self, tmp_path):
        # couple's default kernel, ideal reference, runs on a target that is not
        # Gaussian: no kernel flags write what the flags naming it write
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "perturbed", "dim": 2, "amplitude": 0.1,
                                      "seed": 1}))
        argv = ["couple", "--target-config", str(target), "--steps", "3", "--seed", "0"]
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        assert main(argv + ["--kernel", "ideal", "--scheme", "reference",
                            "--out", str(tmp_path / "named")]) == 0
        for name in ("couple.csv", "couple_summary.json"):
            assert read(tmp_path / "default" / name) == read(tmp_path / "named" / name)

    @pytest.mark.parametrize("path", ["flag", "config"])
    def test_exact_gaussian_is_no_scheme(self, tmp_path, capsys, gaussian_target, path):
        # the closed form is reference's flow on a Gaussian target; its old name
        # exits 2 with one error line, and nothing is written
        out = str(tmp_path / "out")
        if path == "config":
            conf = tmp_path / "exp.json"
            conf.write_text(json.dumps({
                "task": "couple", "target": {"kind": "gaussian", "eigenvalues": [1.0]},
                "kernel": {"integrator": {"scheme": "exact_gaussian"}}, "run": {"seed": 1}}))
            err = one_line_error(capsys, ["run", "--config", str(conf), "--out", out],
                                 "ConfigError: ")
            assert err == ("ConfigError: invalid experiment config: $.kernel.integrator.scheme: "
                           "'exact_gaussian' is not one of ['euler', 'leapfrog', 'reference']\n")
        else:
            with pytest.raises(SystemExit) as exc:
                main(["couple", "--target-config", gaussian_target, "--scheme", "exact_gaussian",
                      "--seed", "1", "--out", out])
            assert exc.value.code == 2
            errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
            assert len(errors) == 1
            assert "argument --scheme: invalid choice: 'exact_gaussian'" in errors[0]
        assert not os.path.exists(out)

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

    @pytest.mark.parametrize("command", ["sample", "couple", "drift"])
    def test_overshooting_step_is_reported(self, tmp_path, capsys, command):
        # a leapfrog step sqrt(0.01) = 0.1 integrates past T = 0.088; drift's
        # check fails at so short a T (slope near 1), so it exits 1 either way
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "gaussian", "eigenvalues": [1.0, 4.0]}))
        length = (["--radii", "1,2", "--replicas", "100"] if command == "drift"
                  else ["--steps", "20"])
        argv = [command, "--target-config", str(target), "--kernel", "metropolis",
                "--scheme", "leapfrog", "--T", "0.088", *length, "--seed", "1"]
        for theta, out in (("0.01", "long"), ("0.001", "short")):
            code = main(argv + ["--theta", theta, "--out", str(tmp_path / out)])
            assert code == (1 if command == "drift" else 0)
            captured = capsys.readouterr()
            assert captured.out == (tmp_path / out / f"{command}_summary.json").read_text()
            if theta == "0.01":
                assert captured.err == ("convexhmc: warning: the oracle step theta^(1/2) = 0.1 "
                                        "exceeds T = 0.088; each flow integrates for that step\n")
            else:
                assert captured.err == ""

    def test_goodset_overshooting_steps_are_reported(self, tmp_path, capsys):
        # T = 1/sqrt(8) = 0.354 on eight copies of a 1-d Gaussian: theta = 1 takes both
        # flows past T, theta = 0.2 only the leapfrog one (sqrt(0.2) = 0.447)
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "separable", "copies": 8,
                                      "block": {"kind": "gaussian", "eigenvalues": [1.0]}}))
        warning = ("convexhmc: warning: the oracle step theta^(1/{k}) = {step} exceeds "
                   "T = 0.35355339059327373; each flow integrates for that step\n")
        for theta, err in (
                ("1.0", warning.format(k=2, step=1.0) + warning.format(k=1, step=1.0)),
                ("0.2", warning.format(k=2, step=0.2 ** 0.5)),
                ("0.01", "")):
            out = tmp_path / theta
            code = main(["goodset", "--target-config", str(target), "--theta", theta,
                         "--steps", "5", "--replicas", "20", "--seed", "1", "--out", str(out)])
            assert code == 0
            captured = capsys.readouterr()
            assert captured.out == (out / "goodset_summary.json").read_text()
            assert captured.err == err

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

    @pytest.mark.parametrize("shift, bound", [(0.0, 0.0), (0.01, 0.1), (1.0, 1.0), (4.0, 2.0)],
                             ids=["identical", "sqrt-0.01", "sqrt-1", "sqrt-4"])
    def test_prokhorov_bound_is_sqrt_w1(self, tmp_path, capsys, shift, bound):
        # four points moved by one shift: W1 is the shift, and the bound its root
        a = np.random.default_rng(8).standard_normal((4, 1))
        write_csv(str(tmp_path / "a.csv"), ["x0"], a.T)
        write_csv(str(tmp_path / "b.csv"), ["x0"], (a + shift).T)
        assert main(["distance", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["w1"] == pytest.approx(shift, abs=1e-12)
        assert out["prokhorov_upper"] == pytest.approx(bound, abs=1e-6)

    @pytest.mark.parametrize("method", ["exact_1d", "sliced"])
    def test_other_methods_write_no_prokhorov_bound(self, tmp_path, capsys, method):
        # the sqrt(W1) Prokhorov bound holds for the assignment's exact W1 alone
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 24, 1 if method == "exact_1d" else 3))
        write_csv(str(tmp_path / "a.csv"), [f"x{j}" for j in range(a.shape[1])], a.T)
        write_csv(str(tmp_path / "b.csv"), [f"x{j}" for j in range(b.shape[1])], b.T)
        flags = ["--directions", "16", "--seed", "3"] if method == "sliced" else []
        code = main(["distance", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                     "--method", method, *flags, "--out", str(tmp_path / "out")])
        printed = capsys.readouterr().out
        assert code == 0
        assert printed == (tmp_path / "out" / "distance_summary.json").read_text()
        w1 = w1_exact_1d(a, b) if method == "exact_1d" else w1_sliced(a, b, 16, 3)
        assert json.loads(printed) == {"w1": w1, "method": method, "pass": True,
                                       "task": "distance"}


    @pytest.mark.parametrize("a, b, shapes", [
        ("0,1\n0,1\n", "1,0\n1,0\n", "(2, 2) and (2, 2)"),
        ("0\n1\n0\n1\n", "0,1\n0,1\n", "(4, 1) and (2, 2)"),
    ], ids=["two-columns", "one-against-two"])
    def test_exact_1d_refuses_points_off_the_line(self, tmp_path, capsys, monkeypatch, a, b,
                                                  shapes):
        # both pairs pool to the same coordinates, so pooling read W1 = 0; the
        # first pair's assignment W1 is sqrt(2)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_text(a)
        (tmp_path / "b.csv").write_text(b)
        one_line_error(capsys, ["distance", "a.csv", "b.csv", "--method", "exact_1d",
                                "--out", "out"],
                       f"MetricError: exact_1d needs points with one coordinate, got shapes "
                       f"{shapes}\n")
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]


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
            "kernel": {"kind": "ideal", "integrator": {"scheme": "reference"}},
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
            "kernel": {"integrator": {"theta": 0.01}},
            "run": {"seed": 2, "steps": 20, "replicas": 30},
        }
        summary = run_experiment({**conf, "out": str(tmp_path)})
        assert 0.0 <= summary["exit_frequency"] <= 1.0

    @pytest.mark.parametrize("kind, scheme", [
        ("metropolis", "euler"), ("metropolis", "leapfrog"), ("unadjusted", "euler"),
        ("ideal", "reference"), ("unadjusted", None), (None, "leapfrog")])
    def test_goodset_rejects_other_kernels(self, tmp_path, capsys, kind, scheme):
        # the guarded integrator is the unadjusted leapfrog kernel's, so a goodset
        # kernel block holds only theta and T: the check refuses a kind or a scheme,
        # even the one goodset runs, before the target is built (its data file is
        # absent), and nothing is written
        kernel = {"integrator": {"theta": 0.01}}
        problems = []
        if kind:
            kernel["kind"] = kind
            problems.append("$.kernel: Additional properties are not allowed "
                            "('kind' was unexpected)")
        if scheme:
            kernel["integrator"]["scheme"] = scheme
            problems.append("$.kernel.integrator: Additional properties are not allowed "
                            "('scheme' was unexpected)")
        (tmp_path / "exp.json").write_text(json.dumps({
            "task": "goodset", "kernel": kernel, "run": {"seed": 2},
            "target": {"kind": "logistic", "data_csv": "absent.csv", "ridge": 1.0}}))
        err = one_line_error(capsys, ["run", "--config", str(tmp_path / "exp.json"), "--out",
                                      str(tmp_path / "out")], "ConfigError: ")
        assert err == "ConfigError: invalid experiment config: " + "; ".join(problems) + "\n"
        assert sorted(os.listdir(tmp_path)) == ["exp.json"]

    def test_goodset_blocks_are_the_targets(self, tmp_path):
        # three copies of a 2-d Gaussian: the good set's blocks are 2-d, and so
        # g_inf = 10 sqrt(2)
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"kind": "separable", "copies": 3, "block": GAUSS}))
        assert main(["goodset", "--target-config", str(target), "--seed", "5", "--out",
                     str(tmp_path / "out")]) == 0
        row = read(tmp_path / "out" / "goodset.csv").decode().splitlines()[1].split(",")
        assert row[0] == repr(10.0 * 2.0**0.5) and row[2] == "2"

    @pytest.mark.parametrize("target, error", [
        (GAUSS, "ConfigError: goodset task needs a separable target"),
    ], ids=["not-separable"])
    def test_goodset_refusals_write_nothing(self, tmp_path, capsys, target, error):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(target))
        err = one_line_error(capsys, ["goodset", "--target-config", str(path), "--seed", "1",
                                      "--out", str(tmp_path / "out")], error)
        assert err == error + "\n"
        assert sorted(os.listdir(tmp_path)) == ["t.json"]

    def test_drift_task(self, tmp_path):
        conf = {
            "task": "drift",
            "target": {"kind": "gaussian", "eigenvalues": [1.0, 1.0]},
            "kernel": {"kind": "ideal", "integrator": {"scheme": "reference"}},
            "drift": {"radii": [2.0, 8.0]},
            "run": {"seed": 4, "replicas": 400},
        }
        summary = run_experiment({**conf, "out": str(tmp_path)})
        assert sorted(summary) == ["log_a_hat", "pass", "slope", "task"]
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

    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
                                      2 * CSV_BLOCK + 3])
    def test_column_writer_matches_per_value_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 0.1])
        floats = rng.standard_normal(rows)
        floats[: min(rows, special.size)] = special[: min(rows, special.size)]
        states = rng.standard_normal((rows, 2))  # its transpose's rows are strided views
        # each column shape a task passes: sample's range, states.T rows and accept
        # flags, certify's lists and scaling's tuples
        columns = [np.arange(rows), range(rows), floats, rng.standard_normal(rows) * 1e-7,
                   *states.T, rng.random(rows) < 0.5, rng.integers(-(2**62), 2**62, rows),
                   rng.standard_normal(rows).tolist(), tuple(rng.integers(0, 99, rows).tolist()),
                   tuple(rng.random(rows).tolist())]
        header = ["i", "step", "a", "b", "q0", "q1", "ok", "big", "list", "n", "x"]
        write_csv(str(tmp_path / "new.csv"), header, columns)
        def per_value(v):  # repr of a float, an integer's digits, 1 and 0 for booleans
            if isinstance(v, (bool, np.bool_)):
                return "1" if v else "0"
            return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))

        with open(tmp_path / "old.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*columns):
                fh.write(",".join(per_value(v) for v in row) + "\n")
        assert read(tmp_path / "new.csv") == read(tmp_path / "old.csv")

    SMALL_RUNS = {
        "sample": {"target": GAUSS, "run": {"seed": 1, "steps": 20}},
        "couple": {"target": GAUSS, "run": {"seed": 2, "steps": 5}},
        "certify": {"target": GAUSS, "run": {"seed": 3}, "certify": {"trials": 5}},
        "drift": {"target": GAUSS, "run": {"seed": 4, "replicas": 100},
                  "drift": {"radii": [1.0, 2.0]}},
        "goodset": {"target": {"kind": "separable", "block": {"kind": "gaussian",
                                                              "eigenvalues": [1.0]},
                               "copies": 4}, "run": {"seed": 5, "steps": 5, "replicas": 10}},
        "distance": {"distance": {"a_csv": "p.csv", "b_csv": "p.csv"}},
        "precondition": {"target": GAUSS, "precondition": {"anchor": [0.5, -1.0]}},
        "verify_rounding": {"target": GAUSS, "precondition": {"points_csv": "p.csv"}},
        "scaling": {"run": {"seed": 6}, "scaling": {"scheme": "leapfrog", "dims": [4],
                                                    "epsilon": 0.5, "replicas": 64}},
    }

    @pytest.mark.parametrize("task", sorted(SMALL_RUNS))
    def test_summaries_hold_only_json_types(self, tmp_path, task):
        # so the summary writer converts no numpy array, integer or bool
        assert sorted(self.SMALL_RUNS) == sorted(cfg.TASK_FIELDS)
        (tmp_path / "p.csv").write_text("0.0,0.0\n1.0,0.5\n")
        summary = run_experiment({"task": task, "out": str(tmp_path / "out"),
                                  **self.SMALL_RUNS[task]}, base_dir=str(tmp_path))

        def values(obj):
            yield obj
            for item in obj.values() if isinstance(obj, dict) else (
                    obj if isinstance(obj, list) else ()):
                yield from values(item)

        kinds = {type(v) for v in values(summary)}
        assert kinds <= {dict, list, str, int, float, bool, type(None)}, kinds

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


def one_line_error(capsys, argv, prefix):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(prefix), err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestArgvToConfig:
    """Each subcommand, with and without each optional flag, builds the config
    its flags name.  An unset flag is an absent field: the task's ``.get`` or
    ``config.build_kernel_spec`` supplies its default, so the argv path and
    the ``run --config`` path share one.  The configs below hold the task and
    what the flags set, and nothing else."""

    T = {"target": GAUSS}
    CASES = {
        "sample": (["sample", "--seed", "1"], {**T, "task": "sample", "run": {"seed": 1}}),
        "sample-all": (["sample", "--seed", "1", "--kernel", "unadjusted", "--scheme", "euler",
                        "--theta", "0.05", "--T", "0.5", "--steps", "40", "--out", "o"], {
            "target": GAUSS, "out": "o", "task": "sample", "run": {"steps": 40, "seed": 1},
            "kernel": {"kind": "unadjusted",
                       "integrator": {"scheme": "euler", "theta": 0.05, "T": 0.5}}}),
        "couple": (["couple", "--seed", "2"], {**T, "task": "couple", "run": {"seed": 2}}),
        "couple-all": (["couple", "--seed", "2", "--kernel", "metropolis", "--scheme",
                        "leapfrog", "--theta", "0.001", "--T", "0.3", "--steps", "30"], {
            **T, "task": "couple", "run": {"steps": 30, "seed": 2},
            "kernel": {"kind": "metropolis",
                       "integrator": {"scheme": "leapfrog", "theta": 0.001, "T": 0.3}}}),
        "certify": (["certify", "--seed", "3"], {
            **T, "task": "certify", "run": {"seed": 3}}),
        "certify-all": (["certify", "--seed", "3", "--T", "0.3", "--trials", "20"], {
            **T, "task": "certify", "certify": {"trials": 20, "T": 0.3}, "run": {"seed": 3}}),
        "drift": (["drift", "--seed", "4", "--radii", "2,8"], {
            **T, "task": "drift", "drift": {"radii": [2.0, 8.0]}, "run": {"seed": 4}}),
        "drift-all": (["drift", "--seed", "4", "--radii", "3", "--replicas", "50", "--kernel",
                       "metropolis", "--scheme", "leapfrog", "--theta", "0.001", "--T", "0.4"], {
            **T, "task": "drift", "drift": {"radii": [3.0]}, "run": {"seed": 4, "replicas": 50},
            "kernel": {"kind": "metropolis",
                       "integrator": {"scheme": "leapfrog", "theta": 0.001, "T": 0.4}}}),
        "goodset": (["goodset", "--seed", "5"], {**T, "task": "goodset", "run": {"seed": 5}}),
        "goodset-all": (["goodset", "--seed", "5", "--g-inf", "3", "--g-2", "2", "--theta",
                         "0.02", "--T", "0.6", "--steps", "10", "--replicas", "20"], {
            **T, "task": "goodset", "goodset": {"g_inf": 3.0, "g_2": 2.0},
            "kernel": {"integrator": {"theta": 0.02, "T": 0.6}},
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
            "task": "distance", "distance": {"a_csv": "a.csv", "b_csv": "b.csv"}}),
        "distance-all": (["distance", "a.csv", "b.csv", "--method", "sliced", "--directions",
                          "16", "--seed", "3", "--out", "o"], {
            "task": "distance", "out": "o", "distance": {
                "a_csv": "a.csv", "b_csv": "b.csv", "method": "sliced", "directions": 16,
                "seed": 3}}),
        "scaling": (["scaling", "--seed", "6", "--scheme", "euler", "--dims", "2,4"], {
            "task": "scaling", "run": {"seed": 6},
            "scaling": {"scheme": "euler", "dims": [2, 4]}}),
        "scaling-all": (["scaling", "--seed", "6", "--scheme", "leapfrog", "--dims", "4",
                         "--epsilon", "0.5", "--replicas", "64", "--out", "o"], {
            "task": "scaling", "out": "o", "run": {"seed": 6},
            "scaling": {"scheme": "leapfrog", "dims": [4], "epsilon": 0.5, "replicas": 64}}),
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
        ["goodset", "--target-config", "t.json", "--seed", "5", "--block-dim", "1"],
    ], ids=["scaling-family", "precondition-seed", "verify-rounding-seed", "goodset-block-dim"])
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

    @staticmethod
    def goodset_flows(tmp_path, monkeypatch, kernels):
        """The (theta, T) that goodset hands its guarded integrator from the flags
        run that sets no --theta, then from its config with each of ``kernels``
        as the kernel block; and the target's integration time."""
        class Built(Exception):
            pass

        flows = []

        def record(pot, good, theta, T, steps, replicas, seed):
            flows.append((theta, T))
            raise Built  # before the task returns

        target = tmp_path / "separable.json"
        target.write_text(json.dumps({"kind": "separable", "block": GAUSS, "copies": 2}))
        flags, _ = TestArgvToConfig.config(["goodset", "--target-config", str(target),
                                            "--seed", "1"])
        assert "kernel" not in flags
        monkeypatch.setattr(cli, "good_set_statistics", record)
        for conf in [flags] + [{**flags, "kernel": kernel} for kernel in kernels]:
            with pytest.raises(Built):
                run_experiment(conf)
        return flows, default_integration_time(build_potential(flags["target"]))

    @pytest.mark.parametrize("command, scheme", [
        pytest.param(c, s, id=f"{s}-{c}")
        for s in ["euler", "leapfrog", "reference"] for c in ["sample", "couple"]
    ] + [pytest.param("goodset", "leapfrog", id="leapfrog-goodset")])
    def test_theta_defaults_by_scheme_on_both_paths(self, tmp_path, monkeypatch, command,
                                                    scheme):
        # an unset --theta is the config file's default: 1e-2 for goodset, else by
        # scheme, 1e-10 for the reference flow and 1e-3 for the Euler and leapfrog
        # oracles
        if command == "goodset":  # its kernel is always unadjusted leapfrog
            flows, T = self.goodset_flows(tmp_path, monkeypatch, [{"integrator": {}}])
            assert flows == [(1e-2, T)] * 2
            return
        target = tmp_path / "t.json"
        target.write_text(json.dumps(GAUSS))
        kind = "ideal" if scheme == "reference" else "unadjusted"
        conf, _ = self.config([command, "--target-config", str(target), "--seed", "1",
                               "--kernel", kind, "--scheme", scheme])
        pot = build_potential(GAUSS)
        from_file = {"kind": kind, "integrator": {"scheme": scheme}}
        assert build_kernel_spec(conf["kernel"], pot, command) == build_kernel_spec(
            from_file, pot, command)

    KERNEL_DEFAULTS = {"sample": ("metropolis", "leapfrog", 1e-3),
                       "couple": ("ideal", "reference", 1e-10),
                       "drift": ("ideal", "reference", 1e-10)}

    @pytest.mark.parametrize("command", sorted([*KERNEL_DEFAULTS, "goodset"]))
    def test_kernel_defaults_on_both_paths(self, tmp_path, monkeypatch, command):
        # a run config without a kernel block, or with any of kind, scheme and
        # theta left out, builds the spec of the flags run that sets no kernel
        # flag; goodset's block holds theta and T alone
        if command == "goodset":
            blocks = [{}, {"integrator": {}}, {"integrator": {"theta": 1e-2}}]
            flows, T = self.goodset_flows(tmp_path, monkeypatch, blocks)
            assert flows == [(1e-2, T)] * (len(blocks) + 1)
            return

        class Built(Exception):
            pass

        specs = []

        def record(kernel, pot, task):
            specs.append(build_kernel_spec(kernel, pot, task))
            raise Built  # before the task runs

        target = tmp_path / "t.json"
        target.write_text(json.dumps(GAUSS))
        argv = [command, "--target-config", str(target), "--seed", "1"]
        flags, _ = self.config(argv + (["--radii", "1"] if command == "drift" else []))
        assert "kernel" not in flags
        kind, scheme, theta = self.KERNEL_DEFAULTS[command]
        blocks = [{}, {"kind": kind}, {"integrator": {"scheme": scheme}},
                  {"integrator": {"theta": theta}}, {"kind": kind, "integrator": {}},
                  {"kind": kind, "integrator": {"scheme": scheme, "theta": theta}}]
        monkeypatch.setattr(cfg, "build_kernel_spec", record)
        for conf in [flags] + [{**flags, "kernel": block} for block in blocks]:
            with pytest.raises(Built):
                run_experiment(conf)
        T = default_integration_time(build_potential(GAUSS))
        assert specs == [KernelSpec(kind, IntegratorSpec(scheme, theta, T))] * (len(blocks) + 1)

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


def admitted(task):
    """The dotted fields that ``task``'s rules admit, besides the task."""
    def leaves(rules, prefix):
        for key, sub in rules["properties"].items():
            if "properties" in sub:  # a block
                yield from leaves(sub, f"{prefix}{key}.")
            else:
                yield prefix + key

    return set(leaves(cfg._TASK_RULES[task], "")) - {"task"}


class TestTaskFields:
    """A config admits only the fields its task reads, as ``config.TASK_FIELDS``
    lists them; any other field exits 2, naming its JSON path."""

    def test_each_task_admits_its_table_row(self):
        # out, which every task reads, and target count as one field each
        for task, fields in cfg.TASK_FIELDS.items():
            assert admitted(task) == {"out", *(f.rstrip("!") for f in fields.split())}, task
        assert sum(len(admitted(task)) for task in cfg.TASK_FIELDS) == 61

    @pytest.mark.parametrize("name", [c for c in _COMMANDS if c != "run"])
    def test_each_flag_sets_a_field_its_task_reads(self, name):
        sub = next(a for a in build_parser(name)._actions if a.dest == "command").choices[name]
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        fields = admitted(name.replace("-", "_"))
        assert dests <= fields, dests - fields

    @pytest.mark.parametrize("name", [c for c in _COMMANDS if c != "run"])
    def test_each_parser_is_derived_from_its_fields(self, name):
        # an argument for each field with a flag, and none other: a "!" makes it
        # required, an enum gives its choices and its rule's type parses its value
        task = name.replace("-", "_")
        row = {f.rstrip("!"): f.endswith("!") for f in ["out", *cfg.TASK_FIELDS[task].split()]}
        sub = next(a for a in build_parser(name)._actions if a.dest == "command").choices[name]
        actions = {a.dest: a for a in sub._actions if a.dest != "help"}
        flagged = [field for field in row if cfg._FIELDS[field][0] is not None]
        assert sorted(actions) == sorted(flagged)
        flags = [cfg._FIELDS[field][0] for field in flagged]
        assert len(set(flags)) == len(flags), flags  # no two of the task's fields share one
        types = {"integer": int, "number": float}
        for field, action in actions.items():
            flag, rules = cfg._FIELDS[field]
            assert (action.option_strings or [action.dest]) == [flag]
            assert action.required == row[field], field
            if "enum" in rules:
                assert (list(action.choices), action.help) == (rules["enum"], field)
                continue
            assert action.metavar == ("PATH" if field == "target" else field)
            kind = rules.get("items", rules).get("type")
            if "items" in rules:
                parsed = action.type("4,,8, 16,")
                assert parsed == [4, 8, 16] and {type(v) for v in parsed} == {types[kind]}
            elif kind in types:
                assert type(action.type("2")) is types[kind]
            else:  # a file path, or out's directory
                assert action.type in (None, os.path.abspath), field

    def test_list_flags_skip_empty_tokens(self):
        dims = vars(build_parser("scaling").parse_args(
            ["scaling", "--seed", "1", "--scheme", "euler", "--dims", "4,,8"]))["scaling.dims"]
        radii = vars(build_parser("drift").parse_args(
            ["drift", "--target-config", "t.json", "--seed", "1", "--radii", "5,,10"]))
        assert (dims, radii["drift.radii"]) == ([4, 8], [5.0, 10.0])

    CASES = {
        # the study's replicas are scaling.replicas
        "scaling-run-replicas": ({"task": "scaling", "run": {"seed": 1, "replicas": 64},
                                  "scaling": {"scheme": "euler", "dims": [2]}},
                                 "$.run: Additional properties are not allowed ('replicas' was "
                                 "unexpected)"),
        "certify-blocks": ({"task": "certify", "target": GAUSS, "kernel": {"kind": "ideal"},
                            "scaling": {"scheme": "euler", "dims": [2]},
                            "drift": {"radii": [1.0]}, "run": {"seed": 1, "steps": 5}},
                           "$: Additional properties are not allowed ('drift', 'kernel', "
                           "'scaling' were unexpected); $.run: Additional properties are not "
                           "allowed ('steps' was unexpected)"),
        "precondition-points-run": ({"task": "precondition", "target": GAUSS,
                                     "precondition": {"points_csv": "p.csv"},
                                     "run": {"seed": 1}},
                                    "$: Additional properties are not allowed ('run' was "
                                    "unexpected); $.precondition: Additional properties are "
                                    "not allowed ('points_csv' was unexpected)"),
        "drift-steps-couple": ({"task": "drift", "target": GAUSS, "drift": {"radii": [1.0]},
                                "run": {"seed": 1, "steps": 5}, "couple": {"x0": [0.0, 0.0]}},
                               "$: Additional properties are not allowed ('couple' was "
                               "unexpected); $.run: Additional properties are not allowed "
                               "('steps' was unexpected)"),
        "sample-run-replicas": ({"task": "sample", "target": GAUSS,
                                 "run": {"seed": 1, "replicas": 10}},
                                "$.run: Additional properties are not allowed ('replicas' was "
                                "unexpected)"),
        "couple-certify": ({"task": "couple", "target": GAUSS, "run": {"seed": 1},
                            "certify": {"trials": 5}},
                           "$: Additional properties are not allowed ('certify' was "
                           "unexpected)"),
        "goodset-drift": ({"task": "goodset", "target": GAUSS, "run": {"seed": 1},
                           "drift": {"radii": [1.0]}},
                          "$: Additional properties are not allowed ('drift' was unexpected)"),
        # the sliced estimate's seed is distance.seed
        "distance-run": ({"task": "distance", "run": {"seed": 3},
                          "distance": {"a_csv": "a.csv", "b_csv": "b.csv"}},
                         "$: Additional properties are not allowed ('run' was unexpected)"),
        "verify-rounding-kernel": ({"task": "verify_rounding", "target": GAUSS,
                                    "precondition": {"points_csv": "p.csv"},
                                    "kernel": {"integrator": {"theta": 0.01}}},
                                   "$: Additional properties are not allowed ('kernel' was "
                                   "unexpected)"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_unread_field_exits_2(self, tmp_path, capsys, case):
        # refused before any input file is read, and nothing is written
        conf, shown = self.CASES[case]
        (tmp_path / "exp.json").write_text(json.dumps(conf))
        err = one_line_error(capsys, ["run", "--config", str(tmp_path / "exp.json"), "--out",
                                      str(tmp_path / "out")], "ConfigError: ")
        assert err == f"ConfigError: invalid experiment config: {shown}\n"
        assert sorted(os.listdir(tmp_path)) == ["exp.json"]

    def test_scaling_defaults_have_one_home(self, tmp_path):
        # a scaling block without epsilon and replicas runs the study's defaults,
        # 0.05 and 1024, and its summary names that epsilon
        block = {"scheme": "euler", "dims": [1]}
        named = {**block, "epsilon": 0.05, "replicas": 1024}
        for out, scaling in (("unset", block), ("named", named)):
            summary = run_experiment({"task": "scaling", "run": {"seed": 1}, "scaling": scaling,
                                      "out": str(tmp_path / out)})
            assert summary["epsilon"] == 0.05 and "kernel" not in summary
        rows = np.loadtxt(tmp_path / "unset" / "scaling.csv", delimiter=",", skiprows=1)
        assert rows[4] == 1024  # the replicas column
        for name in ("scaling.csv", "scaling_summary.json"):
            assert read(tmp_path / "unset" / name) == read(tmp_path / "named" / name)


class TestInputErrors:
    @pytest.mark.parametrize("rows", ["label,f0,f1\n1,0.2,0.1\n-1,0.1,0.3x\n", "1,0.2\n1,0.2,0.3\n",
                                      "label,f0\n", "", "label\n1\n-1\n"],
                             ids=["cell", "ragged", "header", "empty", "no-features"])
    def test_malformed_data_csv_exits_2(self, tmp_path, capsys, rows):
        data = tmp_path / "data.csv"
        data.write_text(rows)
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"kind": "logistic", "data_csv": "data.csv", "ridge": 1.0}))
        err = one_line_error(capsys, ["sample", "--target-config", str(target), "--seed", "0",
                                      "--out", str(tmp_path / "out")], "ConfigError: ")
        assert str(data) in err

    @pytest.mark.parametrize("case, path", [
        ("sample", "$.run.seed"), ("couple", "$.run.seed"), ("certify", "$.run.seed"),
        ("drift", "$.run.seed"), ("goodset", "$.run.seed"), ("scaling", "$.run.seed"),
        ("distance", "$.distance.seed"), ("perturbed", "$.target.seed")])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, case, path):
        # numpy's generators take no negative seed; the config check refuses it first
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.json").write_text(json.dumps(GAUSS))
        (tmp_path / "p.json").write_text(json.dumps(
            {"kind": "perturbed", "dim": 2, "amplitude": 0.1, "seed": -1}))
        (tmp_path / "a.csv").write_text("0.0\n1.0\n")
        target = ["--target-config", "t.json", "--seed", "-1"]
        argv = {"drift": ["drift", *target, "--radii", "1"],
                "scaling": ["scaling", "--scheme", "euler", "--dims", "2", "--seed", "-1"],
                "distance": ["distance", "a.csv", "a.csv", "--method", "sliced", "--seed", "-1"],
                "perturbed": ["certify", "--target-config", "p.json", "--seed", "1"],
                }.get(case, [case, *target])
        one_line_error(capsys, [*argv, "--out", "out"], "ConfigError: invalid experiment "
                       f"config: {path}: -1 is less than the minimum of 0\n")
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "p.json", "t.json"]

    @pytest.mark.parametrize("rows", ["abc\n", "1,2\nabc,3\n"], ids=["header-only", "cell"])
    def test_malformed_points_csv_exits_2(self, tmp_path, capsys, monkeypatch, rows):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_text(rows)
        err = one_line_error(capsys, ["distance", "a.csv", "a.csv"], "ConfigError: ./a.csv: ")
        assert not (tmp_path / "distance_summary.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("method", ["assignment", "sliced", "exact_1d"])
    def test_non_finite_points_csv_exits_2(self, tmp_path, capsys, monkeypatch, method, value):
        # every method would misread a NaN or infinite point, so the loader refuses it
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_text(f"x0\n0.5\n{value}\n")
        (tmp_path / "b.csv").write_text("0.0\n1.0\n")
        one_line_error(capsys, ["distance", "a.csv", "b.csv", "--method", method, "--out", "out"],
                       "ConfigError: ./a.csv: values must be finite, not NaN or Infinity\n")
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]

    def test_non_finite_rounding_points_exit_2(self, tmp_path, capsys, gaussian_target):
        points = tmp_path / "points.csv"
        points.write_text("x0,x1\n0.1,0.2\n0.3,nan\n")
        one_line_error(capsys, ["verify-rounding", "--target-config", gaussian_target,
                                "--points", str(points), "--out", str(tmp_path / "out")],
                       f"ConfigError: {points}: values must be finite, not NaN or Infinity\n")
        assert not (tmp_path / "out").exists()

    def test_theta_past_the_oracle_step_cap_exits_2(self, tmp_path, capsys):
        # the flow would take about 1e299 Euler steps per kernel step
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"kind": "gaussian", "eigenvalues": [1.0, 4.0]}))
        err = one_line_error(capsys, ["sample", "--target-config", str(target), "--kernel",
                                      "unadjusted", "--scheme", "euler", "--theta", "1e-300",
                                      "--seed", "0", "--out", str(tmp_path / "out")],
                             "IntegratorError: theta=1e-300 takes more than 2097152 euler")
        assert "oracle steps" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sample", "couple", "run"])
    def test_metropolis_euler_exits_2(self, tmp_path, capsys, gaussian_target, command):
        # the accept rule corrects only a reversible, volume-preserving flow
        out = ["--out", str(tmp_path / "out")]
        kernel = ["--kernel", "metropolis", "--scheme", "euler", "--seed", "1"]
        argv = [command, "--target-config", gaussian_target, *kernel, *out]
        prefix = "KernelError: metropolis kernel needs a reversible, volume-preserving flow"
        if command == "run":
            path = tmp_path / "exp.json"
            path.write_text(json.dumps({
                "task": "sample", "target": {"kind": "gaussian", "eigenvalues": [1.0]},
                "kernel": {"kind": "metropolis", "integrator": {"scheme": "euler"}},
                "run": {"seed": 1}}))
            argv = ["run", "--config", str(path), *out]
        one_line_error(capsys, argv, prefix)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", ["flag", "config"])
    def test_scaling_kernel_is_refused(self, tmp_path, capsys, path):
        # the study runs the unadjusted chain only: neither --kernel nor scaling.kernel
        # is read, so a run that names one exits 2 with one error line and writes nothing
        out = str(tmp_path / "out")
        study = ["--scheme", "leapfrog", "--dims", "2", "--epsilon", "0.5", "--replicas", "16",
                 "--seed", "1", "--out", out]
        if path == "flag":
            with pytest.raises(SystemExit) as exc:
                main(["scaling", *study, "--kernel", "metropolis"])
            assert exc.value.code == 2
            errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
            assert errors == ["convexhmc: error: unrecognized arguments: --kernel metropolis"]
        else:
            config = tmp_path / "exp.json"
            config.write_text(json.dumps({"task": "scaling", "run": {"seed": 1}, "out": out,
                                          "scaling": {"kernel": "unadjusted", "scheme": "euler",
                                                      "dims": [2], "epsilon": 0.5,
                                                      "replicas": 16}}))
            one_line_error(capsys, ["run", "--config", str(config)],
                           "ConfigError: invalid experiment config: $.scaling: Additional "
                           "properties are not allowed ('kernel' was unexpected)\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [["--radii", "1e300"],
                                       ["--kernel", "metropolis", "--scheme", "leapfrog",
                                        "--radii", "1e150,1e200"]],
                             ids=["ideal", "metropolis"])
    def test_drift_overflow_fails_quietly(self, tmp_path, capsys, flags):
        # |X_1| overflows at these radii: the check fails, exit 1, with no numpy warning
        target = tmp_path / "target.json"
        target.write_text(json.dumps(GAUSS))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["drift", "--target-config", str(target), *flags, "--seed", "4",
                         "--out", str(tmp_path / "out")])
        assert code == 1 and caught == []
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, prefix", [
        (["scaling", "--scheme", "euler", "--dims", "8,4", "--seed", "1"],
         "ScalingError: dims must be strictly increasing"),
        # no step count up to the cap brings W1 within the budget
        (["scaling", "--scheme", "euler", "--dims", "2", "--epsilon", "0.001",
          "--replicas", "16", "--seed", "2"],
         "ScalingError: step search reached the cap of 2097152 oracle steps at d=2 without "
         "reaching the W1 budget 0.001\n"),
        # fails in the task, after the target and kernel are built: the reference
        # flow refines on a target that is not Gaussian
        (["drift", "--radii", "1e6", "--replicas", "100", "--seed", "1"],
         "IntegratorError: flow did not converge"),
    ], ids=["scaling-dims", "scaling-bisection", "drift-radius"])
    def test_refused_run_writes_nothing(self, tmp_path, capsys, argv, prefix):
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"kind": "perturbed", "dim": 1, "amplitude": 0.1,
                                      "seed": 1}))
        if argv[0] == "drift":
            argv = [*argv, "--target-config", str(target)]
        one_line_error(capsys, argv + ["--out", str(tmp_path / "out")], prefix)
        assert not (tmp_path / "out").exists()

    def test_diverged_flow_is_named_in_words(self, tmp_path, capsys, monkeypatch):
        # at T = 1e6 every level of the reference flow overflows q to inf and nan; a
        # small top step count reaches the last level in milliseconds
        monkeypatch.setattr(convexhmc.integrators, "_MAX_STEPS", 12)
        target = tmp_path / "t.json"
        target.write_text(json.dumps({"kind": "perturbed", "dim": 2, "amplitude": 0.1,
                                      "seed": 1}))
        err = one_line_error(capsys, ["couple", "--target-config", str(target), "--kernel",
                                      "ideal", "--scheme", "reference", "--T", "1e6",
                                      "--steps", "1", "--seed", "1", "--out",
                                      str(tmp_path / "out")],
                             "IntegratorError: flow did not converge to tol=1e-10 within 5 "
                             "levels, the last of 12 steps: the flow diverged, q is not "
                             "finite in 2 of 2 open rows\n")
        assert "nan" not in err.lower()
        assert not (tmp_path / "out").exists()

    def test_out_must_be_a_string(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.json").write_text(json.dumps({"task": "precondition",
                                                       "target": GAUSS, "out": 5}))
        one_line_error(capsys, ["run", "--config", "exp.json"],
                       "ConfigError: invalid experiment config: $.out: 5 is not of type "
                       "'string'")
        assert sorted(os.listdir(tmp_path)) == ["exp.json"]

    @pytest.mark.parametrize("argv, out, prefix", [
        (["precondition", "--target-config", "t.json"], "t.json",
         "ConfigError: out 't.json' is not a directory"),
        # scaling refuses these dims in its task: the out check comes first
        (["scaling", "--scheme", "euler", "--dims", "8,4", "--seed", "1"], "",
         "ConfigError: out '' is not a directory"),
        (["run", "--config", "exp.json"], "t.json", "ConfigError: out 't.json' is not a directory"),
        # makedirs fails only after the task has run
        (["precondition", "--target-config", "t.json"], "t.json/run",
         "ConfigError: cannot write the results into out 't.json/run'"),
    ], ids=["file", "empty", "run-config", "under-a-file"])
    def test_out_that_cannot_be_made_exits_2(self, tmp_path, capsys, monkeypatch, argv, out,
                                             prefix):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.json").write_text(json.dumps(GAUSS))
        if argv[0] == "run":
            (tmp_path / "exp.json").write_text(json.dumps({"task": "precondition",
                                                           "target": GAUSS, "out": out}))
        else:
            argv = [*argv, "--out", out]
        one_line_error(capsys, argv, prefix)
        assert sorted(os.listdir(tmp_path)) == (["exp.json", "t.json"] if argv[0] == "run"
                                                else ["t.json"])
        assert json.loads((tmp_path / "t.json").read_text()) == GAUSS

    def test_goodset_theta_past_the_euler_cap_names_the_euler_flow(self, tmp_path, capsys):
        # 1e4 leapfrog steps, but 1e8 for the Euler flow of rows outside the good set
        conf = {"task": "goodset",
                "target": {"kind": "separable",
                           "block": {"kind": "gaussian", "eigenvalues": [1.0]}, "copies": 8},
                "kernel": {"integrator": {"theta": 1e-8}},
                "run": {"seed": 2, "steps": 20, "replicas": 30}}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(conf))
        one_line_error(capsys, ["run", "--config", str(path), "--out", str(tmp_path / "out")],
                       "IntegratorError: rows outside the good set take the Euler flow: "
                       "theta=1e-08 takes more than 2097152 euler oracle steps")

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

    def test_non_finite_and_rule_errors_sort_by_path(self, tmp_path, capsys):
        # a NaN is reported in the walk that checks the rules, so its error takes its
        # place by JSON path among theirs
        path = tmp_path / "exp.json"
        path.write_text('{"task": "certify", "target": {"kind": "gaussian", "eigenvalues": '
                        '[1.0]}, "certify": {"T": NaN}, "run": {"seed": -1}}')
        one_line_error(capsys, ["run", "--config", str(path), "--out", str(tmp_path / "out")],
                       "ConfigError: invalid experiment config: $.certify.T: nan is not a "
                       "finite number; $.run.seed: -1 is less than the minimum of 0\n")

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


class TestCallCost:
    """A call builds only its own subcommand's parser, and importing the CLI
    loads neither scipy's optimize, spatial and special modules nor jsonschema,
    which no task loads."""

    # the required arguments of each subcommand; a new one without an entry fails below
    REQUIRED = {
        "sample": ["--target-config", "t.json", "--seed", "1"],
        "couple": ["--target-config", "t.json", "--seed", "1"],
        "certify": ["--target-config", "t.json", "--seed", "1"],
        "drift": ["--target-config", "t.json", "--seed", "1", "--radii", "1"],
        "goodset": ["--target-config", "t.json", "--seed", "1"],
        "distance": ["a.csv", "b.csv"],
        "precondition": ["--target-config", "t.json"],
        "verify-rounding": ["--target-config", "t.json", "--points", "p.csv"],
        "scaling": ["--seed", "1", "--scheme", "euler", "--dims", "2"],
        "run": ["--config", "c.json"],
    }

    @staticmethod
    def outcome(capsys, parse, argv):
        """(exit status, stdout, stderr) of ``parse(argv)``, which must exit."""
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("name", _COMMANDS)
    def test_one_subcommand_parser_prints_as_all(self, capsys, name):
        cases = {"help": [name, "--help"], "unknown": [name, *self.REQUIRED[name], "--bogus"],
                 "missing": [name]}
        for case, argv in cases.items():
            everything = self.outcome(capsys, build_parser().parse_args, argv)
            assert self.outcome(capsys, build_parser(name).parse_args, argv) == everything
            assert self.outcome(capsys, main, argv) == everything
            status, out, err = everything
            if case == "help":
                assert status == 0 and out.startswith(f"usage: convexhmc {name} ")
            else:
                assert status == 2 and out == ""
                assert ("unrecognized arguments: --bogus" if case == "unknown"
                        else "the following arguments are required") in err

    def test_top_level_help_and_unknown_command(self, capsys):
        for argv in (["--help"], ["frob"], []):
            assert (self.outcome(capsys, main, argv)
                    == self.outcome(capsys, build_parser().parse_args, argv))
        status, out, _ = self.outcome(capsys, main, ["--help"])
        assert status == 0
        assert all(f"\n    {name} " in out for name in _COMMANDS)
        # one subcommand's parser names every command in its usage line too
        usage = out[:out.index("\n\n") + 1]
        _, _, err = self.outcome(capsys, main, ["sample", *self.REQUIRED["sample"], "--bogus"])
        assert err == usage + "convexhmc: error: unrecognized arguments: --bogus\n"
        status, _, err = self.outcome(capsys, main, ["frob"])
        assert status == 2 and "argument command: invalid choice: 'frob'" in err

    def test_importing_the_cli_leaves_scipy_and_jsonschema_unloaded(self, tmp_path):
        # importing the CLI loads none of ``heavy``; the README's Gaussian sample,
        # couple and certify runs and a run config then run without jsonschema
        src = os.path.dirname(os.path.dirname(os.path.abspath(convexhmc.__file__)))
        # and the scaling study's process pool
        heavy = ["scipy.optimize", "scipy.spatial", "scipy.special", "jsonschema",
                 "multiprocessing", "concurrent.futures.process"]
        (tmp_path / "target.json").write_text(json.dumps(GAUSS))
        (tmp_path / "exp.json").write_text(json.dumps({
            "task": "sample", "target": GAUSS, "run": {"steps": 100, "seed": 1}}))
        target = ["--target-config", "target.json"]
        runs = [["sample", *target, "--kernel", "metropolis", "--scheme", "leapfrog",
                 "--theta", "0.001", "--steps", "10000", "--seed", "1", "--out", "run"],
                ["couple", *target, "--steps", "200", "--seed", "2", "--out", "run"],
                ["certify", *target, "--trials", "1000", "--seed", "3", "--out", "run"],
                ["run", "--config", "exp.json", "--out", "conf"]]
        code = (f"import contextlib, io, sys, convexhmc.cli as cli\n"
                f"print([m for m in {heavy!r} if m in sys.modules])\n"
                f"with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
                f"print(codes, [m for m in sys.modules if m.partition('.')[0] == 'jsonschema'])\n")
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, cwd=tmp_path,
                                env={**os.environ, "PYTHONPATH": path}).stdout
        assert loaded == "[]\n[0, 0, 0, 0] []\n"
