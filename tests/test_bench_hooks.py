"""The benchmark's span tracer (`perfbench/spans.py`) wraps library
names from outside; a refactor that moves or renames one breaks
`perfbench/run.py --trace 1`.  This runs the tracer over a small solve
of each kind in a subprocess, so its patches cannot leak into the
library tests."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import os, sys
from crffw import cli, model, solvers
import spans

out = sys.argv[1]
dense, grid = os.path.join(out, "dense.json"), os.path.join(out, "grid.json")
originals = (model.GaussianKernel.__dict__["kernel_matrix"], solvers.run_generalized_fw,
             cli.cmd_solve)
tracer = spans.Tracer().install()
try:
    for argv in (
        ["generate", "--kind", "dense", "--nodes", "30", "--labels", "4", "--seed", "1",
         "--out", dense],
        ["generate", "--kind", "grid", "--rows", "5", "--cols", "6", "--labels", "3",
         "--seed", "2", "--out", grid],
        ["solve", "--instance", dense, "--method", "efw", "--lambda", "0.5",
         "--stepsize", "linesearch", "--steps", "3"],
        ["solve", "--instance", grid, "--method", "fw", "--round", "bcd", "--steps", "3"],
        ["compare", "--instances", dense, grid, "--steps", "3", "--sweep-at", "2",
         "--sweep-methods", "efw", "--out", os.path.join(out, "cmp")],
    ):
        if cli.main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
finally:
    tracer.uninstall()
assert (model.GaussianKernel.__dict__["kernel_matrix"], solvers.run_generalized_fw,
        cli.cmd_solve) == originals, "uninstall left a wrapper in place"
print("\n".join(sorted({span[0] for span in tracer.spans})))
"""


def test_tracer_hooks_cover_every_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = "1"  # as the benchmark pins them: `solve` may take its helper
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    names = set(proc.stdout.split())
    assert {"solvers.run", "model.matvec", "model.pair_energy", "model.kernel_build",
            "schedules.stepsize", "simplex.round_bcd"} <= names, sorted(names)
