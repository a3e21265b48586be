import csv
import gc
import json
import math
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

import crffw
from conftest import write_grid_uai
from crffw import cli, model, solvers, verification
from crffw.cli import main


def run_cli(*argv):
    return main(list(argv))


def run_cli_process(*argv):
    """`crffw` in a subprocess where a numpy warning is an error."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crffw.__file__)))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "crffw.cli",
                           *argv], capture_output=True, text=True, env=env, check=False)


def exit_code(*argv):
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


@pytest.fixture
def instance_file(tmp_path):
    out = tmp_path / "inst.json"
    assert run_cli("generate", "--kind", "dense", "--nodes", "30", "--labels", "4",
                   "--seed", "7", "--out", str(out)) == 0
    return out


class TestGenerate:
    def test_writes_reloadable_file(self, tmp_path):
        out = tmp_path / "a.json"
        code = run_cli("generate", "--kind", "dense", "--nodes", "50",
                       "--labels", "21", "--seed", "7", "--out", str(out))
        assert code == 0
        from crffw import read_json
        inst = read_json(out)
        assert (inst.n_nodes, inst.n_labels) == (50, 21)

    def test_identical_hash_for_same_flags(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("generate", "--kind", "edges", "--nodes", "12", "--labels", "3",
                "--seed", "5", "--out", str(a))
        run_cli("generate", "--kind", "edges", "--nodes", "12", "--labels", "3",
                "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_nodes_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("generate", "--nodes", "0", "--out", str(tmp_path / "x.json"))
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("flags", [
        ("--seed", "-1"),
        ("--kind", "edges", "--edge-prob", "1.5"),
        ("--compat", "random", "--potts-w", "nan"),
        ("--image-size", "-1"),
        ("--image-size", "inf"),
        ("--w1", "nan"),
        ("--kernel-alpha", "nan"),
        ("--kind", "grid"),
    ], ids="_".join)
    def test_bad_values_are_usage_errors(self, tmp_path, capsys, flags):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc_info:
            run_cli("generate", "--nodes", "5", *flags, "--out", str(out))
        assert exc_info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--nodes", "0"), "--nodes and --labels must be positive"),
        (("--kind", "edges", "--labels", "0"), "--nodes and --labels must be positive"),
        (("--image-size", "-1"), "--image-size must be finite and >= 0"),
        (("--kind", "grid", "--rows", "0"), "--rows, --cols and --labels must be positive"),
        (("--kind", "edges", "--edge-prob", "1.5"), "--edge-prob must lie in [0, 1]"),
        (("--kernel-alpha", "1e200"), "--kernel-alpha, --kernel-beta and --kernel-gamma "
                                      "must be strictly positive, with 2 v^2 finite"),
        (("--kind", "grid", "--nodes", "50"), "--kind grid does not read --nodes"),
        (("--rows", "3", "--edge-prob", "0.9"), "--kind dense does not read --rows, --edge-prob"),
        (("--kind", "edges", "--kernel-alpha", "5"), "--kind edges does not read --kernel-alpha"),
    ], ids=lambda v: "_".join(v) if isinstance(v, tuple) else None)
    def test_usage_error_names_the_flag(self, tmp_path, capsys, flags, message):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("generate", *flags, "--out", str(tmp_path / "x.json"))
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("kind, flags", [
        ("dense", ("--nodes", "100", "--labels", "5", "--seed", "0")),
        ("grid", ("--rows", "5", "--cols", "5", "--labels", "5", "--seed", "0")),
        ("edges", ("--nodes", "100", "--labels", "5", "--seed", "0")),
    ])
    def test_spec_defaults_match_the_flags(self, tmp_path, kind, flags):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("generate", "--kind", kind, "--out", str(a)) == 0
        assert run_cli("generate", "--kind", kind, *flags, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_edge_pair_budget_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        assert run_cli("generate", "--kind", "edges", "--nodes", "5000", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == "error: a random edge list over 5000 nodes is too large\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, message", [
        ("grid", "a 1000000 x 1000000 Potts matrix"),
        ("dense", "a 1000000 x 1000000 compatibility matrix")], ids=["grid", "dense"])
    def test_entry_budget_is_runtime_error(self, tmp_path, capsys, kind, message):
        out = tmp_path / "x.json"
        assert run_cli("generate", "--kind", kind, "--labels", "1000000", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message} is too large\n"
        assert not out.exists()

    def test_edges_file_keeps_its_hash(self, tmp_path):
        import hashlib
        out = tmp_path / "e.json"
        assert run_cli("generate", "--kind", "edges", "--seed", "7", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "175c4f2cabce20e6e34c9e90d47e36d8dc14386d60cdf27a18776a1724f2e86c")


class TestSolve:
    def test_trace_has_requested_rows(self, instance_file, tmp_path):
        trace = tmp_path / "t.csv"
        code = run_cli("solve", "--instance", str(instance_file), "--method", "efw",
                       "--lambda", "0.25", "--steps", "20", "--trace", str(trace))
        assert code == 0
        rows = read_trace(trace)
        assert len(rows) == 20
        assert [int(r["k"]) for r in rows] == list(range(20))

    def test_line_search_monotone_regularized_energy(self, instance_file, tmp_path):
        trace = tmp_path / "t.csv"
        run_cli("solve", "--instance", str(instance_file), "--method", "efw",
                "--lambda", "0.25", "--stepsize", "linesearch", "--steps", "20",
                "--trace", str(trace))
        e_reg = [float(r["e_reg"]) for r in read_trace(trace)]
        assert all(b <= a + 1e-9 for a, b in zip(e_reg, e_reg[1:]))

    def test_mean_field_equals_unit_entropic(self, instance_file, tmp_path):
        t_mf, t_efw = tmp_path / "mf.csv", tmp_path / "efw.csv"
        run_cli("solve", "--instance", str(instance_file), "--method", "mf",
                "--steps", "5", "--trace", str(t_mf))
        run_cli("solve", "--instance", str(instance_file), "--method", "efw",
                "--lambda", "1", "--stepsize", "constant:1", "--steps", "5",
                "--trace", str(t_efw))
        rows_mf, rows_efw = read_trace(t_mf), read_trace(t_efw)
        for a, b in zip(rows_mf, rows_efw):
            for col in ("alpha", "e_cont", "e_reg", "e_disc", "s_k", "step_norm"):
                assert abs(float(a[col]) - float(b[col])) <= 1e-12

    def test_negative_lambda_is_usage_error(self, instance_file):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("solve", "--instance", str(instance_file), "--method", "efw",
                    "--lambda", "-1")
        assert exc_info.value.code == 2

    def test_steps_error_names_the_flag(self, instance_file, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("solve", "--instance", str(instance_file), "--method", "mf",
                    "--steps", "0")
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.endswith("error: --steps must be >= 1\n")

    def test_unknown_method_is_usage_error(self, instance_file):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("solve", "--instance", str(instance_file), "--method", "nope")
        assert exc_info.value.code == 2

    def test_byte_deterministic_reruns(self, instance_file, tmp_path):
        t1, t2 = tmp_path / "1.csv", tmp_path / "2.csv"
        for t in (t1, t2):
            run_cli("solve", "--instance", str(instance_file), "--method", "l2fw",
                    "--lambda", "1", "--steps", "10", "--trace", str(t))
        assert t1.read_bytes() == t2.read_bytes()

    def test_labels_output(self, instance_file, tmp_path):
        labels = tmp_path / "labels.json"
        run_cli("solve", "--instance", str(instance_file), "--method", "mf",
                "--steps", "5", "--labels-out", str(labels), "--round", "bcd")
        doc = json.loads(labels.read_text())
        assert len(doc["labels"]) == 30
        assert np.isfinite(doc["energy"])

    @pytest.mark.parametrize("rounding", ["nearest", "bcd"])
    def test_labels_are_the_rounded_final_point(self, instance_file, tmp_path, rounding):
        labels = tmp_path / "labels.json"
        assert run_cli("solve", "--instance", str(instance_file), "--method", "efw",
                       "--lambda", "0.25", "--steps", "1", "--labels-out", str(labels),
                       "--round", rounding) == 0
        inst = crffw.read_json(instance_file)
        config = solvers.SolverConfig(solvers.EntropicFW(), lam=0.25, max_iters=1)
        x, _ = solvers.run_generalized_fw(inst, config)
        nearest, bcd = crffw.round_nearest(x), crffw.round_bcd(inst, x)
        assert not np.array_equal(nearest, bcd)  # so the two flags are told apart
        expect = bcd if rounding == "bcd" else nearest
        doc = json.loads(labels.read_text())
        assert doc["labels"] == expect.tolist()
        assert doc["energy"] == inst.energy_discrete(expect)

    def test_check_bounds_flag(self, instance_file, tmp_path):
        code = run_cli("solve", "--instance", str(instance_file), "--method", "efw",
                       "--lambda", "0.5", "--stepsize", "adaptive", "--steps", "15",
                       "--check-bounds", "--trace", str(tmp_path / "t.csv"))
        assert code == 0

    def test_failed_bound_check_is_one_line(self, instance_file, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(crffw.schedules, "decrease_bound", lambda *args: math.inf)
        code = run_cli("solve", "--instance", str(instance_file), "--method", "efw",
                       "--lambda", "0.5", "--stepsize", "adaptive", "--steps", "3",
                       "--check-bounds")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("check failed: decrease bound violated at iteration 0: ")
        assert err.count("\n") == 1

    def test_missing_instance_file_is_runtime_error(self, tmp_path):
        code = run_cli("solve", "--instance", str(tmp_path / "missing.json"),
                       "--method", "mf")
        assert code == 1

    def test_oversized_uai_header_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "big.uai"
        path.write_text("MARKOV\n1\n1000000000000\n0\n")
        assert run_cli("solve", "--instance", str(path), "--method", "mf") == 1
        assert capsys.readouterr().err == (
            "error: a 1 x 1000000000000 unary table is too large\n")

    def test_divergence_exit_code_and_partial_trace(self, tmp_path):
        from crffw import CrfInstance, EdgeList, write_json
        inst = CrfInstance(np.full((2, 2), 1e308),
                           EdgeList(2, 2, np.zeros((0, 2), int), np.zeros((0, 2, 2))))
        path = tmp_path / "huge.json"
        write_json(inst, path)
        trace = tmp_path / "t.csv"
        with np.errstate(over="ignore"):
            code = run_cli("solve", "--instance", str(path), "--method", "mf",
                           "--steps", "3", "--trace", str(trace))
        assert code == 1
        assert trace.exists()  # partial trace still written

    def test_divergence_message_names_iteration(self, tmp_path, capsys):
        from crffw import CrfInstance, EdgeList, write_json
        # attractive same-label couplings: the second half step towards a
        # vertex overflows the energy
        thetas = np.stack([-5e307 * np.eye(4)] * 3)
        inst = CrfInstance(np.zeros((3, 4)),
                           EdgeList(3, 4, np.array([[0, 1], [0, 2], [1, 2]]), thetas))
        path = tmp_path / "attractive.json"
        write_json(inst, path)
        trace = tmp_path / "t.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("solve", "--instance", str(path), "--method", "fw",
                           "--stepsize", "constant:0.5", "--steps", "3",
                           "--trace", str(trace))
        assert code == 1
        assert capsys.readouterr().err == "diverged: non-finite e_cont at iteration 1\n"
        assert len(read_trace(trace)) == 1


@pytest.mark.parametrize("method", ["efw", "l2fw"])
@pytest.mark.parametrize("command", ["solve", "compare"])
def test_overflowing_direction_is_divergence(instance_file, tmp_path, command, method):
    # -grad / lam overflows; no numpy warning may reach stderr before the message
    if command == "solve":
        args = ["solve", "--instance", str(instance_file), "--method", method,
                "--lambda", "1e-310", "--steps", "3"]
    else:
        args = ["compare", "--instances", str(instance_file), "--methods",
                f"{method}:1e-310", "--steps", "3", "--sweep-methods", "",
                "--out", str(tmp_path / "cmp")]
    proc = run_cli_process(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("diverged: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_pair_energy_past_the_float_range_is_divergence(tmp_path, command):
    # e_disc's block sums are finite, their total is not: -inf, not an
    # OverflowError from math.fsum
    from crffw import CrfInstance, GaussianKernel, write_json
    path = tmp_path / "pairs.json"
    backend = GaussianKernel(np.zeros((512, 2)), np.zeros((512, 3)),
                             [[1e303, 0.0], [0.0, -1e303]])
    write_json(CrfInstance(np.zeros((512, 2)), backend), path)
    if command == "solve":
        args = ["solve", "--instance", str(path), "--method", "fw", "--steps", "3",
                "--trace", str(tmp_path / "t.csv")]
    else:
        args = ["compare", "--instances", str(path), "--methods", "fw", "--steps", "3",
                "--sweep-methods", "", "--out", str(tmp_path / "cmp")]
    proc = run_cli_process(*args)
    assert proc.returncode == 1
    assert proc.stderr == "diverged: non-finite e_cont at iteration 0\n"


class TestFloatPowerOverflow:
    """A float ** raises OverflowError past about 1.34e154, where numpy
    gives inf; each run here finishes, or ends in one error line."""

    def test_constant_length_step(self, tmp_path):
        path, trace = tmp_path / "a.json", tmp_path / "t.csv"
        assert run_cli("generate", "--kind", "dense", "--nodes", "4", "--labels", "3",
                       "--seed", "1", "--out", str(path)) == 0
        assert run_cli("solve", "--instance", str(path), "--method", "fw",
                       "--stepsize", "constlength:1e200", "--trace", str(trace)) == 0
        assert {r["bound_delta"] for r in read_trace(trace)} == {"-inf"}

    @pytest.mark.parametrize("stepsize", ["adaptive", "linesearch"])
    @pytest.mark.parametrize("method", ["fw", "cfw"])
    def test_gap_past_the_square_range(self, tmp_path, method, stepsize):
        from crffw import CrfInstance, EdgeList, write_json
        inst = CrfInstance([[0.0, 1e160], [1e160, 0.0]],
                           EdgeList(2, 2, [[0, 1]], [[[0.0, 3e160], [3e160, 0.0]]]))
        path, trace = tmp_path / "big.json", tmp_path / "t.csv"
        write_json(inst, path)
        assert run_cli("solve", "--instance", str(path), "--method", method,
                       "--stepsize", stepsize, "--steps", "3", "--trace", str(trace)) == 0
        assert float(read_trace(trace)[0]["s_k"]) > 1.4e154
        assert run_cli("compare", "--instances", str(path), "--methods",
                       f"{method}::{stepsize}", "--steps", "3", "--sweep-methods", "",
                       "--out", str(tmp_path / "cmp")) == 0

    def test_kernel_bandwidth_in_a_file(self, tmp_path, capsys):
        # `generate` refuses it as a usage error (TestGenerate)
        path = tmp_path / "k.json"
        assert run_cli("generate", "--kind", "dense", "--nodes", "4", "--labels", "3",
                       "--out", str(path)) == 0
        doc = json.loads(path.read_text())
        doc["pairwise"]["alpha"] = 1e200
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("solve", "--instance", str(path), "--method", "mf") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kernel bandwidths") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_overflowing_convexify_shift_is_divergence(tmp_path, capsys, command):
    # P 1 overflows, so cfw's diagonal shift does
    from crffw import CrfInstance, EdgeList, write_json
    inst = CrfInstance(np.zeros((3, 2)),
                       EdgeList(3, 2, [[0, 1], [1, 2]], np.full((2, 2, 2), 1e308)))
    path = tmp_path / "chain.json"
    write_json(inst, path)
    args = {"solve": ("solve", "--instance", str(path), "--method", "cfw"),
            "compare": ("compare", "--instances", str(path), "--methods", "cfw",
                        "--sweep-methods", "", "--out", str(tmp_path / "cmp"))}[command]
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == (
        "diverged: non-finite diagonal shift 0.5 * P 1 of the convexified energy\n")


# entries of 1e308: the gradient at iteration 1 overflows to inf
NON_FINITE_GRADIENT = {
    "version": 1, "n": 2, "d": 2, "unary": [[0.0, 1e308], [0.0, 1.0]],
    "pairwise": {"type": "edges", "edges": [
        {"i": 0, "j": 1, "theta": [[0.0, 0.0], [1e308, 0.0]]}]}}


@pytest.mark.parametrize("method", ["fw", "pgd", "pgm", "emd", "admm", "compare"])
def test_non_finite_gradient_is_divergence(tmp_path, capsys, method):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(NON_FINITE_GRADIENT))
    if method == "compare":  # its default methods
        args = ("compare", "--instances", str(path), "--out", str(tmp_path / "cmp"))
    else:
        args = ("solve", "--instance", str(path), "--method", method)
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == "diverged: non-finite gradient at iteration 1\n"


class TestCapacity:
    """A kernel over the build guard ends in `error: ...` and exit 1,
    with no output written."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(model, "MAX_ENTRIES", 29 * 29)

    def test_solve(self, instance_file, tmp_path, capsys):
        trace, labels = tmp_path / "t.csv", tmp_path / "labels.json"
        code = run_cli("solve", "--instance", str(instance_file), "--method", "mf",
                       "--trace", str(trace), "--labels-out", str(labels))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: a Gaussian kernel over 30 nodes")
        assert not trace.exists() and not labels.exists()

    def test_compare(self, instance_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli("compare", "--instances", str(instance_file), "--methods", "mf",
                       "--steps", "3", "--sweep-methods", "", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(out.iterdir()) == []


class TestMethodRegistry:
    def test_solve_choices_are_the_registry(self):
        from crffw.cli import build_parser
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        method = next(a for a in sub.choices["solve"]._actions if a.dest == "method")
        assert method.choices == tuple(solvers.METHODS)

    @pytest.mark.parametrize("name", list(solvers.METHODS))
    def test_every_method_solves(self, instance_file, tmp_path, name):
        trace = tmp_path / "t.csv"
        assert run_cli("solve", "--instance", str(instance_file), "--method", name,
                       "--steps", "2", "--trace", str(trace)) == 0
        assert len(read_trace(trace)) == 2


class TestCompare:
    def test_steps_error_names_the_flag(self, instance_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        with pytest.raises(SystemExit) as exc_info:
            run_cli("compare", "--instances", str(instance_file), "--steps", "0",
                    "--out", str(out))
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.endswith("error: --steps must be >= 1\n")
        assert not out.exists()

    def test_outputs_exist(self, instance_file, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli("compare", "--instances", str(instance_file),
                       "--methods", "mf,fw,efw:0.25", "--steps", "6",
                       "--sweep-methods", "efw", "--lambda-grid", "0.5", "1.0", "0.5",
                       "--out", str(out))
        assert code == 0
        assert (out / "energy_vs_iteration.csv").exists()
        assert (out / "mean_energy_vs_iteration.csv").exists()
        assert (out / "lambda_sweep.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["methods"]) == {"mf", "fw", "efw:0.25"}
        assert len(summary["methods"]["mf"][0]) == 6

    def test_outputs_match_goldens(self, tmp_path, monkeypatch):
        # relative paths, so that summary.json names the instances as given;
        # the CSVs end their lines with \r\n, summary.json with \n
        monkeypatch.chdir(tmp_path)
        for seed in ("0", "1"):
            assert run_cli("generate", "--kind", "dense", "--nodes", "12", "--labels", "3",
                           "--seed", seed, "--out", f"d{seed}.json") == 0
        assert run_cli("compare", "--instances", "d0.json", "d1.json", "--steps", "4",
                       "--sweep-at", "2", "--lambda-grid", "0.5", "1", "0.5",
                       "--out", "cmp") == 0
        golden = os.path.join(os.path.dirname(__file__), "data", "golden_compare")
        for name in ("energy_vs_iteration.csv", "mean_energy_vs_iteration.csv",
                     "lambda_sweep.csv", "summary.json"):
            with open(os.path.join(golden, name), "rb") as fh:
                assert (tmp_path / "cmp" / name).read_bytes() == fh.read(), name

    def test_single_method_degenerate(self, instance_file, tmp_path):
        out = tmp_path / "cmp1"
        code = run_cli("compare", "--instances", str(instance_file),
                       "--methods", "mf", "--steps", "3",
                       "--sweep-methods", "", "--out", str(out))
        assert code == 0

    def test_deterministic_outputs(self, instance_file, tmp_path):
        outs = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            run_cli("compare", "--instances", str(instance_file),
                    "--methods", "mf,efw:0.5", "--steps", "4",
                    "--sweep-methods", "", "--out", str(out))
            outs.append((out / "mean_energy_vs_iteration.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_divergence_is_runtime_error(self, tmp_path, capsys):
        from crffw import CrfInstance, EdgeList, write_json
        inst = CrfInstance(np.full((2, 2), 1e308),
                           EdgeList(2, 2, np.zeros((0, 2), int), np.zeros((0, 2, 2))))
        path = tmp_path / "huge.json"
        write_json(inst, path)
        out = tmp_path / "cmp"
        code = run_cli("compare", "--instances", str(path), "--methods", "mf",
                       "--steps", "3", "--sweep-methods", "", "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("diverged: ")
        assert "Traceback" not in err
        assert not (out / "summary.json").exists()

    def test_ten_instance_suite_within_budget(self, tmp_path):
        import time
        paths = []
        for seed in range(10):
            p = tmp_path / f"p{seed}.json"
            run_cli("generate", "--kind", "dense", "--nodes", "500",
                    "--labels", "21", "--unary-scale", "4.0", "--seed",
                    str(seed), "--out", str(p))
            paths.append(str(p))
        start = time.perf_counter()
        code = run_cli("compare", "--instances", *paths,
                       "--methods", "mf,fw,cfw,l2fw:1,efw:0.25,pgd,pgm,admm",
                       "--steps", "20", "--sweep-methods", "",
                       "--out", str(tmp_path / "suite"))
        assert code == 0
        assert time.perf_counter() - start < 300.0

    def test_lambda_sweep_low_weight_advantage(self, tmp_path):
        # entropic directions with a sub-unit weight beat the unit-weight
        # (mean-field) setting at iteration 5 on most dense instances
        paths = []
        for seed in range(3):
            p = tmp_path / f"d{seed}.json"
            run_cli("generate", "--kind", "dense", "--nodes", "500",
                    "--labels", "21", "--unary-scale", "4.0", "--seed",
                    str(seed), "--out", str(p))
            paths.append(str(p))
        out = tmp_path / "sweep"
        code = run_cli("compare", "--instances", *paths, "--methods", "mf",
                       "--steps", "5", "--sweep-methods", "efw",
                       "--lambda-grid", "0.1", "2.5", "0.1", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        rows = summary["lambda_sweep"]["efw"]["rows"]
        assert len(rows) == 25
        wins = 0
        for inst_idx in range(3):
            per = [r["per_instance"][inst_idx] for r in rows]
            lams = [r["lambda"] for r in rows]
            if lams[int(np.argmin(per))] < 1.0:
                wins += 1
        assert wins >= 2


class TestCompareSpecs:
    def test_schedule_specs_match_solve_traces(self, instance_file, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli("compare", "--instances", str(instance_file),
                       "--methods", "efw:0.5:constant:0.3,dmf::constant:0.3", "--steps", "4",
                       "--sweep-methods", "", "--out", str(out)) == 0
        curves = json.loads((out / "summary.json").read_text())["methods"]
        assert set(curves) == {"efw:0.5:constant:0.3", "dmf::constant:0.3"}
        for label, flags in (("efw:0.5:constant:0.3", ("efw", "--lambda", "0.5")),
                             ("dmf::constant:0.3", ("dmf",))):
            trace = tmp_path / "t.csv"
            assert run_cli("solve", "--instance", str(instance_file), "--method", *flags,
                           "--stepsize", "constant:0.3", "--steps", "4",
                           "--trace", str(trace)) == 0
            assert [repr(e) for e in curves[label][0]] == [
                r["e_disc"] for r in read_trace(trace)]

    def test_schedules_keep_their_own_curves(self, instance_file, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli("compare", "--instances", str(instance_file),
                       "--methods", "efw:0.5,efw:0.5:linesearch,efw:0.5:harmonic",
                       "--steps", "4", "--sweep-methods", "", "--out", str(out)) == 0
        curves = json.loads((out / "summary.json").read_text())["methods"]
        assert list(curves) == ["efw:0.5", "efw:0.5:linesearch", "efw:0.5:harmonic"]
        assert curves["efw:0.5"] != curves["efw:0.5:harmonic"]


@pytest.mark.parametrize("argv, message", [
    (("solve", "--method", "fw", "--stepsize", "constant:abc"),
     "--stepsize 'constant:abc': 'abc' is not a number"),
    (("compare", "--methods", "efw:abc"), "--methods 'efw:abc': 'abc' is not a number"),
    (("compare", "--methods", "mf,efw:0.5:constant:x1"),
     "--methods 'efw:0.5:constant:x1': 'x1' is not a number"),
    (("solve", "--method", "fw", "--stepsize", "foo"), "unknown stepsize schedule 'foo'"),
    (("compare", "--methods", ","), "at least one method is required"),
], ids=["stepsize", "lambda", "method_schedule", "unknown_stepsize", "no_methods"])
def test_unparsable_number_names_the_flag(instance_file, tmp_path, capsys, argv, message):
    where = "--instance" if argv[0] == "solve" else "--instances"
    extra = () if argv[0] == "solve" else ("--out", str(tmp_path / "cmp"))
    with pytest.raises(SystemExit) as exc_info:
        run_cli(*argv, where, str(instance_file), *extra)
    assert exc_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not (tmp_path / "cmp").exists()


@pytest.mark.parametrize("argv", [
    ("solve", "--method", "l2fw", "--stepsize", "constlength:inf"),
    ("compare", "--methods", "fw::constlength:inf"),
], ids=["solve", "compare"])
def test_infinite_step_length_is_usage_error(instance_file, tmp_path, capsys, argv):
    outputs = [tmp_path / "t.csv", tmp_path / "labels.json", tmp_path / "cmp"]
    if argv[0] == "solve":
        extra = ("--instance", str(instance_file), "--trace", str(outputs[0]),
                 "--labels-out", str(outputs[1]))
    else:
        extra = ("--instances", str(instance_file), "--out", str(outputs[2]))
    with pytest.raises(SystemExit) as exc_info:
        run_cli(*argv, *extra)
    assert exc_info.value.code == 2
    assert capsys.readouterr().err.endswith("error: step length must be finite and > 0\n")
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("case", ["solve_instance_dir", "solve_labels_out_dir",
                                  "compare_out_file"])
def test_os_error_is_one_error_line(instance_file, tmp_path, capsys, case):
    a_file = tmp_path / "file"
    a_file.write_text("")
    argv = {
        "solve_instance_dir": ("solve", "--instance", str(tmp_path), "--method", "mf"),
        "solve_labels_out_dir": ("solve", "--instance", str(instance_file), "--method",
                                 "mf", "--steps", "2", "--labels-out", str(tmp_path)),
        "compare_out_file": ("compare", "--instances", str(instance_file), "--steps", "2",
                             "--out", str(a_file)),
    }[case]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1


class TestCompareValidation:
    @pytest.mark.parametrize("flags", [
        ("--sweep-at", "0"),
        ("--sweep-at", "-3"),
        ("--methods", "mf,bogus"),
        ("--methods", "mf,efw:-1"),
        ("--methods", "efw:0.5,efw:0.5"),
        ("--methods", "mf,efw:0.5:constant:0.3,efw:0.5:constant:0.3"),
        ("--sweep-methods", "efw,bogus"),
        ("--lambda-grid", "-0.5", "0.5", "0.5"),
        ("--lambda-grid", "0.5", "1.0", "0"),
        ("--lambda-grid", "1.0", "0.5", "0.5"),
    ], ids="_".join)
    def test_usage_error_before_any_output(self, instance_file, tmp_path, flags):
        out = tmp_path / "cmp"
        with pytest.raises(SystemExit) as exc_info:
            run_cli("compare", "--instances", str(instance_file), "--steps", "4",
                    *flags, "--out", str(out))
        assert exc_info.value.code == 2
        assert not out.exists()

    def test_lambda_grid_is_capped_before_it_is_built(self, instance_file, tmp_path,
                                                       capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("the lambda grid was built")

        monkeypatch.setattr(np, "arange", no_grid)
        out = tmp_path / "cmp"
        with pytest.raises(SystemExit) as exc_info:
            run_cli("compare", "--instances", str(instance_file),
                    "--lambda-grid", "0.1", "2.5", "1e-9", "--out", str(out))
        assert exc_info.value.code == 2
        assert "--lambda-grid has more than" in capsys.readouterr().err
        assert not out.exists()

    def test_lambda_grid_cap_counts_points(self):
        cap = cli.MAX_LAMBDA_GRID
        assert len(cli._lambda_grid(1.0, float(cap), 1.0)) == cap
        with pytest.raises(ValueError, match="--lambda-grid"):
            cli._lambda_grid(1.0, cap + 1.0, 1.0)

    def test_instances_need_a_value(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("compare", "--instances", "--out", str(tmp_path / "cmp"))
        assert exc_info.value.code == 2
        assert "expected at least one argument" in capsys.readouterr().err


IGNORES_LAMBDA = ("fw", "cfw", "pgd", "pgm", "emd", "admm", "mf", "dmf")


class TestIgnoredFlags:
    """A flag the chosen method would ignore is a usage error, raised
    before the instance is read or any output is written."""

    @pytest.mark.parametrize("flags", [("--method", m, "--lambda", "0.3") for m in IGNORES_LAMBDA]
                             + [("--method", "mf", "--stepsize", "linesearch"),
                                ("--method", "dmf", "--stepsize", "harmonic"),
                                ("--method", "dmf", "--stepsize", "linesearch")], ids="_".join)
    def test_solve(self, tmp_path, flags):
        trace, labels = tmp_path / "t.csv", tmp_path / "l.json"
        with pytest.raises(SystemExit) as exc_info:
            run_cli("solve", "--instance", str(tmp_path / "missing.json"), *flags,
                    "--trace", str(trace), "--labels-out", str(labels))
        assert exc_info.value.code == 2
        assert not trace.exists() and not labels.exists()

    @pytest.mark.parametrize("flags", [("--methods", f"efw:0.25,{m}:0.3") for m in IGNORES_LAMBDA]
                             + [("--methods", "mf::linesearch"), ("--methods", "dmf::harmonic"),
                                ("--sweep-methods", "efw,mf")],
                             ids="_".join)
    def test_compare(self, tmp_path, flags):
        out = tmp_path / "cmp"
        with pytest.raises(SystemExit) as exc_info:
            run_cli("compare", "--instances", str(tmp_path / "missing.json"), *flags,
                    "--out", str(out))
        assert exc_info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [("efw", "--lambda", "0.25"),
                                       ("fw", "--stepsize", "linesearch"),
                                       ("dmf", "--stepsize", "constant:0.3")], ids="_".join)
    def test_flags_a_method_reads_stay_valid(self, instance_file, tmp_path, flags):
        assert run_cli("solve", "--instance", str(instance_file), "--method", *flags,
                       "--steps", "2", "--trace", str(tmp_path / "t.csv")) == 0


SCHEDULE_SPECS = (None, "constant:0.5", "constlength:0.5", "harmonic", "ramp",
                  "invsqrt", "adaptive", "linesearch")
ACCEPTED_SCHEDULES = {"mf": (None,), "admm": (None,), "dmf": (None, "constant:0.5"),
                      "pgm": SCHEDULE_SPECS[:-1], "emd": SCHEDULE_SPECS[:-1]}
UNBOUNDED = ("pgd", "pgm", "emd", "admm")


class TestMethodScheduleMatrix:
    """Every method with every schedule: a schedule the method reads runs
    (exit 0), any other is a usage error (exit 2) that writes nothing."""

    @pytest.mark.parametrize("method", list(solvers.METHODS))
    def test_solve_and_compare_agree(self, instance_file, tmp_path, capsys, method):
        alphas = {}
        for i, sched in enumerate(SCHEDULE_SPECS):
            expect = 0 if sched in ACCEPTED_SCHEDULES.get(method, SCHEDULE_SPECS) else 2
            trace, labels = tmp_path / f"t{i}.csv", tmp_path / f"l{i}.json"
            flags = () if sched is None else ("--stepsize", sched)
            code = exit_code("solve", "--instance", str(instance_file), "--method", method,
                             *flags, "--steps", "2", "--trace", str(trace),
                             "--labels-out", str(labels))
            assert code == expect, (method, sched)
            assert trace.exists() == labels.exists() == (code == 0)
            if code == 0:
                alphas[sched] = [r["alpha"] for r in read_trace(trace)]

            out = tmp_path / f"cmp{i}"
            spec = method if sched is None else f"{method}::{sched}"
            code = exit_code("compare", "--instances", str(instance_file), "--methods", spec,
                             "--steps", "2", "--sweep-methods", "", "--out", str(out))
            assert code == expect, (method, sched)
            assert out.exists() == (code == 0)
        assert "Traceback" not in capsys.readouterr().err
        if "harmonic" in alphas and "constant:0.5" in alphas:
            assert alphas["harmonic"] != alphas["constant:0.5"]

    @pytest.mark.parametrize("method", list(solvers.METHODS))
    def test_check_bounds(self, instance_file, tmp_path, method):
        trace = tmp_path / "t.csv"
        code = exit_code("solve", "--instance", str(instance_file), "--method", method,
                         "--steps", "2", "--check-bounds", "--trace", str(trace))
        assert code == (2 if method in UNBOUNDED else 0)
        assert trace.exists() == (code == 0)


def force_workers(monkeypatch, cpus, blas_threads=None, blas="scipy-openblas"):
    """Let `compare` see `cpus` usable cores and numpy built with `blas`,
    an OpenBLAS by default, at `blas_threads` (None: no thread variable
    set)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cli, "_BLAS", blas)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
                "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(blas_threads))


def record_runs(monkeypatch, entry):
    """Record `entry(instance, config, trace)` for every solver run, per
    instance and in the order each instance's runs happen."""
    runs = {}
    original = solvers.run_generalized_fw

    def recording(instance, config):
        x, trace = original(instance, config)
        runs.setdefault(id(instance), []).append(entry(instance, config, trace))
        return x, trace

    monkeypatch.setattr(solvers, "run_generalized_fw", recording)
    return runs


class TestLambdaSweep:
    def test_sweep_solves_stop_at_sweep_iteration(self, instance_file, tmp_path,
                                                  monkeypatch):
        force_workers(monkeypatch, 2, 1)
        runs = record_runs(monkeypatch, lambda inst, config, trace: (
            config.method.name, config.lam, len(trace)))
        for sweep_at, expect in (("3", 3), ("12", 8)):
            runs.clear()
            out = tmp_path / f"cmp{sweep_at}"
            code = run_cli("compare", "--instances", str(instance_file), str(instance_file),
                           "--methods", "mf,fw", "--steps", "8", "--sweep-at", sweep_at,
                           "--sweep-methods", "efw,l2fw",
                           "--lambda-grid", "0.5", "1.0", "0.5", "--out", str(out))
            assert code == 0
            # each instance runs each group once, in group order; efw at
            # lambda 1 is mf's run: its sweep energy is read from it
            assert list(runs.values()) == [
                [("mf", None, 8), ("fw", None, 8), ("efw", 0.5, expect),
                 ("l2fw", 0.5, expect), ("l2fw", 1.0, expect)]] * 2
            summary = json.loads((out / "summary.json").read_text())
            assert summary["lambda_sweep"]["efw"]["at_iteration"] == expect

    def test_coinciding_solves_run_once(self, instance_file, tmp_path, monkeypatch):
        # sweep efw at 1 is mf, l2fw at 1 is l2fw:1, efw at 0.25 is efw:0.25
        second = tmp_path / "second.json"
        assert run_cli("generate", "--kind", "dense", "--nodes", "25", "--labels", "3",
                       "--seed", "2", "--out", str(second)) == 0
        files = [str(instance_file), str(second)]
        force_workers(monkeypatch, 2, 1)
        runs = record_runs(monkeypatch, lambda inst, config, trace: (
            config.method.name, config.lam, config.max_iters))
        out = tmp_path / "cmp"
        assert run_cli("compare", "--instances", *files, "--methods", "mf,l2fw:1,efw:0.25",
                       "--steps", "6", "--sweep-at", "4", "--sweep-methods", "efw,l2fw",
                       "--lambda-grid", "0.25", "1.0", "0.75", "--out", str(out)) == 0
        # one run per group and instance, in group order on each instance;
        # only l2fw at 0.25 is sweep-only
        assert list(runs.values()) == [[("mf", None, 6), ("l2fw", 1.0, 6), ("efw", 0.25, 6),
                                        ("l2fw", 0.25, 4)]] * 2
        monkeypatch.undo()

        def solve_curve(path, *flags):
            trace = tmp_path / "t.csv"
            assert run_cli("solve", "--instance", path, *flags, "--steps", "6",
                           "--trace", str(trace)) == 0
            return [float(r["e_disc"]) for r in read_trace(trace)]

        summary = json.loads((out / "summary.json").read_text())
        for label, flags in (("mf", ("--method", "mf")),
                             ("l2fw:1", ("--method", "l2fw", "--lambda", "1")),
                             ("efw:0.25", ("--method", "efw", "--lambda", "0.25"))):
            for idx, path in enumerate(files):
                assert summary["methods"][label][idx] == solve_curve(path, *flags)
        for name, sweep in summary["lambda_sweep"].items():
            for row in sweep["rows"]:
                expect = [solve_curve(path, "--method", name, "--lambda", repr(row["lambda"]))[3]
                          for path in files]
                assert row["per_instance"] == expect

    def test_matches_full_length_solve(self, instance_file, tmp_path):
        out = tmp_path / "cmp"
        code = run_cli("compare", "--instances", str(instance_file), "--methods", "mf",
                       "--steps", "8", "--sweep-at", "3", "--sweep-methods", "efw,l2fw",
                       "--lambda-grid", "0.5", "1.0", "0.5", "--out", str(out))
        assert code == 0
        rows = read_trace(out / "lambda_sweep.csv")
        assert len(rows) == 4
        for row in rows:
            trace = tmp_path / f"{row['method']}-{row['lambda']}.csv"
            assert run_cli("solve", "--instance", str(instance_file),
                           "--method", row["method"], "--lambda", row["lambda"],
                           "--steps", "8", "--trace", str(trace)) == 0
            assert read_trace(trace)[2]["e_disc"] == row["mean_e_disc"]


def write_diverging(tmp_path):
    """Two instances that diverge under `fw::constant:0.5` with different
    messages: one at its starting point, one at iteration 1."""
    from crffw import CrfInstance, EdgeList, write_json
    at_start = CrfInstance(np.full((2, 2), 1e308),
                           EdgeList(2, 2, np.zeros((0, 2), int), np.zeros((0, 2, 2))))
    thetas = np.stack([-5e307 * np.eye(4)] * 3)
    at_one = CrfInstance(np.zeros((3, 4)),
                         EdgeList(3, 4, np.array([[0, 1], [0, 2], [1, 2]]), thetas))
    paths = tmp_path / "huge.json", tmp_path / "attractive.json"
    for inst, path in zip((at_start, at_one), paths):
        write_json(inst, path)
    return [str(p) for p in paths]


class TestComparePool:
    """`compare` solves its instances on as many threads as BLAS leaves
    cores free; outputs and errors are those of the serial order."""

    @pytest.mark.parametrize("cpus, env, n_tasks, expect", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 10, 2),
        (2, {}, 10, 1),
        (2, {"OPENBLAS_NUM_THREADS": "0"}, 10, 1),
        (2, {"OPENBLAS_NUM_THREADS": "abc"}, 10, 1),
        (8, {"OPENBLAS_NUM_THREADS": "2"}, 10, 4),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
        (2, {"OPENBLAS_NUM_THREADS": "3"}, 10, 1),
        (8, {"OMP_NUM_THREADS": "4"}, 10, 2),
        # OpenBLAS reads OPENBLAS, GOTO, then OMP, and never MKL
        (8, {"OPENBLAS_NUM_THREADS": "abc", "MKL_NUM_THREADS": "2",
             "OMP_NUM_THREADS": "1"}, 10, 8),
        (2, {"GOTO_NUM_THREADS": "1"}, 10, 2),
        (8, {"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 10, 2),
        (2, {"MKL_NUM_THREADS": "1"}, 10, 1),
        # each value read as C's atoi reads it, as OpenBLAS does
        (2, {"OPENBLAS_NUM_THREADS": "1abc"}, 10, 2),
        (8, {"OPENBLAS_NUM_THREADS": " 2"}, 10, 4),
        (8, {"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "4"}, 10, 2),
        (8, {"OPENBLAS_NUM_THREADS": "-1", "OMP_NUM_THREADS": "4"}, 10, 2),
        (8, {"OPENBLAS_NUM_THREADS": "+4"}, 10, 2),
        (8, {"OPENBLAS_NUM_THREADS": "2_0"}, 10, 4),
        (8, {"OPENBLAS_NUM_THREADS": "\u0662"}, 10, 1),  # a non-ASCII digit is no digit
    ])
    def test_worker_count(self, monkeypatch, cpus, env, n_tasks, expect):
        force_workers(monkeypatch, cpus)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert cli._worker_threads(n_tasks) == expect

    @pytest.mark.parametrize("blas, expect", [
        ("mkl-sdl", 4),  # MKL reads MKL, then OMP
        ("", 4),  # numpy names no BLAS: OPENBLAS, MKL, then OMP
        ("accelerate", 4),
        ("scipy-openblas", 8),
    ])
    def test_worker_count_follows_numpys_blas(self, monkeypatch, blas, expect):
        force_workers(monkeypatch, 8, blas=blas)
        for var, value in (("OPENBLAS_NUM_THREADS", "abc"), ("GOTO_NUM_THREADS", "1"),
                           ("MKL_NUM_THREADS", "2"), ("OMP_NUM_THREADS", "1")):
            monkeypatch.setenv(var, value)
        assert cli._worker_threads(10) == expect

    def test_worker_count_without_affinity_call(self, monkeypatch):
        force_workers(monkeypatch, 1, 1)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert cli._worker_threads(10) == 4

    def test_outputs_do_not_depend_on_worker_count(self, tmp_path, monkeypatch):
        paths = []
        for seed, kind in enumerate(("dense", "dense", "grid", "edges", "dense")):
            path = tmp_path / f"i{seed}.json"
            nodes = () if kind == "grid" else ("--nodes", "20")  # the grid is 5x5
            assert run_cli("generate", "--kind", kind, *nodes, "--labels", "4",
                           "--seed", str(seed), "--out", str(path)) == 0
            paths.append(str(path))
        workers = []
        original = cli._worker_threads

        def spy(n_tasks):
            workers.append(original(n_tasks))
            return workers[-1]

        monkeypatch.setattr(cli, "_worker_threads", spy)
        outputs = []
        interval = sys.getswitchinterval()
        for cpus, blas_threads in ((2, None), (8, 2)):
            force_workers(monkeypatch, cpus, blas_threads)
            out = tmp_path / f"cmp{cpus}"
            sys.setswitchinterval(1e-5)  # interleave the threads often
            try:
                assert run_cli("compare", "--instances", *paths, "--methods",
                               "mf,dmf,efw:1:constant:0.5,cfw,fw,efw:0.5:linesearch,"
                               "l2fw:0.5:harmonic,pgd", "--steps", "6", "--sweep-at", "4",
                               "--lambda-grid", "0.5", "1.5", "0.5", "--out", str(out)) == 0
            finally:
                sys.setswitchinterval(interval)
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert workers == [1, 4]
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]

    def test_each_instance_is_freed_when_its_task_ends(self, tmp_path, monkeypatch):
        paths = []
        for seed in range(4):
            paths.append(str(tmp_path / f"i{seed}.json"))
            assert run_cli("generate", "--kind", "dense", "--nodes", "20", "--labels", "3",
                           "--seed", str(seed), "--out", paths[-1]) == 0

        def compare(out):
            assert run_cli("compare", "--instances", *paths, "--methods", "mf,cfw,efw:0.5",
                           "--steps", "3", "--sweep-at", "2", "--lambda-grid", "0.5", "1", "0.5",
                           "--out", str(out)) == 0
            return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        expected = compare(tmp_path / "plain")
        monkeypatch.setattr(cli, "_worker_threads", lambda n_tasks: 1)
        seen, alive = [], []
        original = cli._solve_groups

        def watching(instance, configs):
            gc.collect()
            alive.append([ref() is not None for ref in seen])
            seen.append(weakref.ref(instance))
            return original(instance, configs)

        monkeypatch.setattr(cli, "_solve_groups", watching)
        assert compare(tmp_path / "watched") == expected
        assert alive == [[], [False], [False, False], [False, False, False]]

    def test_load_error_comes_first(self, tmp_path, monkeypatch, capsys):
        force_workers(monkeypatch, 8, 2)
        at_start, at_one = write_diverging(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        out = tmp_path / "cmp"
        assert run_cli("compare", "--instances", at_start, str(bad), at_one,
                       "--methods", "fw::constant:0.5", "--steps", "3",
                       "--sweep-methods", "", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("order, methods, message", [
        ("sa", "fw::constant:0.5", "non-finite e_cont at the starting point"),
        ("as", "fw::constant:0.5", "non-finite e_cont at iteration 1"),
        # the good instance diverges in the second group only, after the
        # huge one has in the first
        ("gs", "mf,efw:1e-310", "non-finite e_cont at the starting point"),
    ])
    def test_first_divergence_in_serial_order(self, instance_file, tmp_path, monkeypatch,
                                              capsys, order, methods, message):
        force_workers(monkeypatch, 8, 2)
        at_start, at_one = write_diverging(tmp_path)
        files = {"s": at_start, "a": at_one, "g": str(instance_file)}
        out = tmp_path / "cmp"
        assert run_cli("compare", "--instances", *(files[c] for c in order),
                       "--methods", methods, "--steps", "3",
                       "--sweep-methods", "", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"diverged: {message}\n"
        assert not (out / "summary.json").exists()

    def test_cfw_convexifies_each_instance_once(self, instance_file, tmp_path, monkeypatch):
        # the objects, not their ids: `compare` frees an instance when its
        # task ends, so a later object can take a freed one's id
        shifts, starts, bounds = [], [], []
        kernel, inst_cls = model.GaussianKernel, model.CrfInstance
        matvec, start = kernel.matvec, inst_cls.start
        bound = kernel.spectral_norm_bound

        def counting_matvec(self, x):
            if np.all(x == 1.0):
                shifts.append(self)
            return matvec(self, x)

        def counting_start(self):
            if self._start is None:
                starts.append(self)
            return start(self)

        def counting_bound(self):
            bounds.append(self)
            return bound(self)

        monkeypatch.setattr(kernel, "matvec", counting_matvec)
        monkeypatch.setattr(inst_cls, "start", counting_start)
        monkeypatch.setattr(kernel, "spectral_norm_bound", counting_bound)
        assert run_cli("compare", "--instances", str(instance_file), str(instance_file),
                       "--methods", "cfw,cfw::linesearch,cfw::harmonic", "--steps", "3",
                       "--sweep-methods", "", "--out", str(tmp_path / "cmp")) == 0
        for calls in (shifts, starts, bounds):
            assert len(calls) == len(set(calls)) == 2


class TestVerify:
    @pytest.mark.parametrize("suite", list(verification.SUITES))
    def test_suite_passes(self, capsys, suite):
        assert run_cli("verify", "--suite", suite, "--seed", "0") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("verify", "--suite", "nosuch")
        assert exc_info.value.code == 2

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("verify", "--suite", "oracle", "--seed", "-1")
        assert exc_info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err


def spy_helpers(monkeypatch):
    """Record, for every solver run, whether it ran with its e_disc helper."""
    helpers, run = [], solvers.run_generalized_fw

    def spy(instance, config, helper=False):
        helpers.append(helper)
        return run(instance, config, helper)

    monkeypatch.setattr(solvers, "run_generalized_fw", spy)
    return helpers


class TestSolveHelper:
    """`solve` computes e_disc on a second thread when two cores are free;
    its outputs do not change."""

    @pytest.mark.parametrize("cpus, blas_threads, helper", [
        (2, 1, True), (8, 2, True), (2, None, False), (1, 1, False), (2, 2, False),
    ])
    def test_helper_only_on_two_free_cores(self, instance_file, monkeypatch, cpus,
                                           blas_threads, helper):
        force_workers(monkeypatch, cpus, blas_threads)
        helpers = spy_helpers(monkeypatch)
        assert run_cli("solve", "--instance", str(instance_file), "--method", "mf",
                       "--steps", "2") == 0
        assert helpers == [helper]

    @pytest.fixture
    def files(self, tmp_path):
        dense, grid = tmp_path / "dense.json", tmp_path / "grid.json"
        assert run_cli("generate", "--kind", "dense", "--nodes", "40", "--labels", "4",
                       "--seed", "3", "--out", str(dense)) == 0
        assert run_cli("generate", "--kind", "grid", "--rows", "6", "--cols", "7",
                       "--labels", "3", "--seed", "4", "--out", str(grid)) == 0
        return dense, grid, write_grid_uai(tmp_path / "grid.uai", 5, 6, 3, seed=5)

    @pytest.mark.parametrize("method", list(solvers.METHODS))
    def test_outputs_match_at_one_and_two_threads(self, files, tmp_path, monkeypatch,
                                                  method):
        helpers = spy_helpers(monkeypatch)
        interval = sys.getswitchinterval()
        for path in files:
            outputs = []
            for cpus in (1, 2):
                force_workers(monkeypatch, cpus, 1)
                trace, labels = tmp_path / f"t{cpus}.csv", tmp_path / f"l{cpus}.json"
                sys.setswitchinterval(1e-5)  # interleave the threads often
                try:
                    assert run_cli("solve", "--instance", str(path), "--method", method,
                                   "--steps", "8", "--trace", str(trace),
                                   "--labels-out", str(labels)) == 0
                finally:
                    sys.setswitchinterval(interval)
                outputs.append((trace.read_bytes(), labels.read_bytes()))
            assert outputs[0] == outputs[1], path.name
        assert helpers == [False, True] * len(files)

    @pytest.mark.parametrize("case", ["returns", "diverges", "fails"])
    def test_no_helper_thread_outlives_solve(self, instance_file, tmp_path, monkeypatch,
                                             case):
        force_workers(monkeypatch, 2, 1)
        helpers = spy_helpers(monkeypatch)
        path, flags = instance_file, ("--method", "fw")
        if case == "diverges":
            path, flags = write_diverging(tmp_path)[1], ("--method", "fw", "--stepsize",
                                                         "constant:0.5")
        elif case == "fails":
            def failing(self, labels):
                raise RuntimeError("e_disc failed")

            monkeypatch.setattr(model.CrfInstance, "energy_discrete", failing)
        before = threading.enumerate()
        argv = ("solve", "--instance", str(path), *flags, "--steps", "3")
        if case == "fails":
            with pytest.raises(RuntimeError, match="e_disc failed"):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == (1 if case == "diverges" else 0)
        assert helpers == [True]
        assert threading.enumerate() == before
