import csv
import json

import numpy as np
import pytest

from crffw import solvers
from crffw.cli import main


def run_cli(*argv):
    return main(list(argv))


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

    def test_check_bounds_flag(self, instance_file, tmp_path):
        code = run_cli("solve", "--instance", str(instance_file), "--method", "efw",
                       "--lambda", "0.5", "--stepsize", "adaptive", "--steps", "15",
                       "--check-bounds", "--trace", str(tmp_path / "t.csv"))
        assert code == 0

    def test_missing_instance_file_is_runtime_error(self, tmp_path):
        code = run_cli("solve", "--instance", str(tmp_path / "missing.json"),
                       "--method", "mf")
        assert code == 1

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


class TestCompare:
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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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


class TestCompareValidation:
    @pytest.mark.parametrize("flags", [
        ("--sweep-at", "0"),
        ("--sweep-at", "-3"),
        ("--methods", "mf,bogus"),
        ("--methods", "mf,efw:-1"),
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


class TestLambdaSweep:
    def test_sweep_solves_stop_at_sweep_iteration(self, instance_file, tmp_path,
                                                  monkeypatch):
        runs = []
        original = solvers.run_generalized_fw

        def recording(instance, config):
            x, trace = original(instance, config)
            runs.append((config.method.name, len(trace)))
            return x, trace

        monkeypatch.setattr(solvers, "run_generalized_fw", recording)
        for sweep_at, expect in (("3", 3), ("12", 8)):
            runs.clear()
            out = tmp_path / f"cmp{sweep_at}"
            code = run_cli("compare", "--instances", str(instance_file), str(instance_file),
                           "--methods", "mf,fw", "--steps", "8", "--sweep-at", sweep_at,
                           "--sweep-methods", "efw,l2fw",
                           "--lambda-grid", "0.5", "1.0", "0.5", "--out", str(out))
            assert code == 0
            assert runs == ([("mf", 8)] * 2 + [("fw", 8)] * 2
                            + [("efw", expect)] * 4 + [("l2fw", expect)] * 4)
            summary = json.loads((out / "summary.json").read_text())
            assert summary["lambda_sweep"]["efw"]["at_iteration"] == expect

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


class TestVerify:
    def test_oracle_suite_passes(self, capsys):
        assert run_cli("verify", "--suite", "oracle", "--seed", "0") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("verify", "--suite", "nosuch")
        assert exc_info.value.code == 2
