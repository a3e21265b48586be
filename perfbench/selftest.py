"""Self-tests of the benchmark's span wrappers.

Run from the root of a crffw checkout, either directly or with pytest:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the library's own test collection.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from crffw import cli, model  # noqa: E402
from crffw.instances import RandomDense, RandomGrid, generate, read_json, write_json  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

STEPS = 6


@contextlib.contextmanager
def scratch_dir(name):
    path = os.path.join(os.getcwd(), ".perfbench", f"selftest-{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@contextlib.contextmanager
def traced():
    tracer = spans.Tracer().install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def solve(path, out, *method):
    argv = ["solve", "--instance", path, "--method", *method, "--steps", str(STEPS),
            "--trace", os.path.join(out, "trace.csv"),
            "--labels-out", os.path.join(out, "labels.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    outputs = []
    for name in ("trace.csv", "labels.json"):
        with open(os.path.join(out, name), "rb") as fh:
            outputs.append(fh.read())
    return outputs


class CountingBackend:
    """Delegates to a backend and counts its matvecs, independently of
    the span wrappers."""

    def __init__(self, base):
        self.base = base
        self.calls = 0
        self.n_nodes, self.n_labels = base.n_nodes, base.n_labels

    def matvec(self, x):
        self.calls += 1
        return self.base.matvec(x)

    def inf_norm_bound(self):
        return self.base.inf_norm_bound()


def lipschitz_matvecs(path):
    inst = read_json(path)
    counting = CountingBackend(inst.pairwise)
    model.CrfInstance(inst.unary, counting).lipschitz_upper_bound()
    return counting.calls


def test_tracing_changes_no_output():
    with scratch_dir("identical") as tmp:
        dense = os.path.join(tmp, "dense.json")
        grid = os.path.join(tmp, "grid.json")
        write_json(generate(RandomDense(n=40, d=4, seed=3, unary_scale=4.0)), dense)
        write_json(generate(RandomGrid(rows=4, cols=5, d=3, seed=3)), grid)
        runs = [(dense, "mf"), (dense, "efw", "--lambda", "0.25", "--stepsize", "linesearch"),
                (dense, "fw", "--stepsize", "linesearch"), (grid, "admm"),
                (grid, "efw", "--lambda", "0.25", "--round", "bcd")]
        plain = [solve(path, tmp, *method) for path, *method in runs]
        originals = (model.GaussianKernel.__dict__["matvec"], cli.cmd_solve)
        with traced() as tracer:
            with_spans = [solve(path, tmp, *method) for path, *method in runs]
        assert tracer.spans, "the tracer recorded nothing"
        assert with_spans == plain
        assert (model.GaussianKernel.__dict__["matvec"], cli.cmd_solve) == originals


def _traced_counts(path, tmp, *method):
    with traced() as tracer:
        solve(path, tmp, *method)
    return spans.layer_values(tracer, 1)


def test_matvec_count_matches_hand_count():
    with scratch_dir("count") as tmp:
        path = os.path.join(tmp, "dense.json")
        write_json(generate(RandomDense(n=30, d=3, seed=5)), path)
        lip = lipschitz_matvecs(path)
        assert lip > 0
        # Lipschitz loop + energy of the starting point + gradient and
        # energy per iteration; line search adds <d, P d> per iteration
        for method, per_iter in (("mf",), 2), (("fw", "--stepsize", "linesearch"), 3):
            values = _traced_counts(path, tmp, *method)
            assert values["model.matvec.calls"] == lip + 1 + per_iter * STEPS, method
            assert values["model.lipschitz.matvecs"] == lip
            assert values["model.matvec.per_iter"] == per_iter
            assert values["solvers.iters"] == STEPS


def test_line_search_evaluations_are_counted():
    with scratch_dir("evals") as tmp:
        path = os.path.join(tmp, "dense.json")
        write_json(generate(RandomDense(n=20, d=3, seed=2)), path)
        values = _traced_counts(path, tmp, "efw", "--lambda", "0.25", "--stepsize", "linesearch")
        # 129 grid points, at least one golden-section pair, one final check
        assert values["schedules.f_along.evals_per_iter"] >= 129 + 2 + 1
        assert values["regularizers.value.calls"] >= STEPS * values["schedules.f_along.evals_per_iter"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == \
        {name: w.why for name, w in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.LAYER_METRICS)


def main():
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
