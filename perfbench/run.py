"""crffw benchmark: one workload, closed loop, one job at a time.

Run from the root of a crffw checkout:

    python3 perfbench/run.py --workload solve-suite --seed 1 --seconds 35 --trace 0

The benchmark imports crffw from `./src`, pins BLAS and OpenMP to one
thread before numpy loads, and leaves `CRFFW_THREADS` unset.  It writes
the workload's instance files for `--seed` (several times, to time the
set-up), then runs jobs back to back until their summed wall time
reaches `--seconds`.  Each job's outputs are checked after the job,
outside its timed window.

With `--trace 0` the last line of standard output is the JSON result
with the end-to-end metrics.  With `--trace 1` the run first measures
untraced jobs for half the time, then installs the span wrappers of
`spans.py` and measures traced jobs for the other half; the result then
holds the per-layer metrics, and the spans are written to
`.perfbench/spans-<workload>-s<seed>.csv`.  Lines before the last one
record the environment, the generator parameters and every job time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up runs take 0.07-0.5 s and the host's speed changes within a
# second, so the median is taken over at least this many runs and seconds
SETUP_REPEATS = 7
SETUP_SECONDS = 2.0
OUT_DIR = ".perfbench"


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_environment():
    """Single-threaded BLAS/OpenMP; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread settings")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CRFFW_THREADS", None)


def import_library(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "crffw", "__init__.py")):
        raise FileNotFoundError(f"no crffw sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import crffw
    if not os.path.abspath(crffw.__file__).startswith(src + os.sep):
        raise ImportError(f"crffw imported from {crffw.__file__}, not from {src}")


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "python": sys.version.split()[0],
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "CRFFW_THREADS": os.environ.get("CRFFW_THREADS")}


class Runner:
    """Runs the jobs of one workload and checks their outputs."""

    def __init__(self, workload, files, workdir):
        self.workload = workload
        self.files = files
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.iters_used = 0

    def phase(self, budget, tracer=None):
        """Run jobs until their summed wall time reaches `budget`; return
        the wall time of each job."""
        import workloads
        times = []
        while not times or sum(times) < budget:
            job_id = self.attempted
            self.attempted += 1
            n_spans = 0
            if tracer is not None:
                tracer.job = job_id
                n_spans = len(tracer.spans)
            # a fresh directory, so no check can read an earlier job's files
            jobdir = os.path.join(self.workdir, "job")
            shutil.rmtree(jobdir, ignore_errors=True)
            os.makedirs(jobdir)
            t0 = perf_counter()
            try:
                outputs = workloads.run_job(self.workload, self.files, jobdir)
            except Exception:  # a job that raises is a failed job
                times.append(perf_counter() - t0)
                traceback.print_exc()
                self.failed += 1
                continue
            times.append(perf_counter() - t0)
            try:
                errors = workloads.check_job(self.workload, self.files, outputs)
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                errors = [f"unreadable output: {exc!r}"]
            if not errors:
                digest = workloads.outputs_digest(self.workload, outputs)
                self.digest = self.digest or digest
                if digest != self.digest:
                    errors.append("outputs differ from the first job of the run")
            if tracer is not None:
                errors += self.cold_cost_errors(tracer, n_spans)
                if self.workload.name == "compare-suite" and not errors:
                    self.iters_used += workloads.compare_iters_used(outputs)
            if errors:
                self.failed += 1
                print(f"job {job_id} failed: {'; '.join(errors)}", file=sys.stderr)
        return times

    def cold_cost_errors(self, tracer, first_span):
        """Every job must build a Gaussian kernel and estimate a Lipschitz
        constant, which proves it read its instances cold."""
        names = {span[0] for span in tracer.spans[first_span:]}
        if {"model.kernel_build", "model.lipschitz"} <= names:
            return []
        return ["the job skipped its kernel build or Lipschitz estimate"]


def main(argv=None):
    pin_environment()
    root = os.getcwd()
    try:
        import_library(root)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads
    args = parse_args(argv, sorted(workloads.WORKLOADS))

    workload = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{workload.name}-s{args.seed}-{os.getpid()}")
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    tracer = spans.Tracer() if args.trace else None
    try:
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            t0 = perf_counter()
            files = workloads.setup(workload, args.seed, os.path.join(workdir, "instances"))
            setups.append(perf_counter() - t0)
        runner = Runner(workload, files, workdir)
        job_s = runner.phase(budget)
        if tracer is not None:
            tracer.install()
            try:
                traced_s = runner.phase(budget, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {"workload": workload.name, "seed": args.seed, "params": workload.params,
            "env": environment(), "setup_s": setups, "job_s": job_s}
    if tracer is None:
        metrics = {
            "job_s.p50": (statistics.median(job_s), "s"),
            "jobs_per_s": (len(job_s) / sum(job_s), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    else:
        info["traced_job_s"] = traced_s
        overhead = statistics.median(traced_s) / statistics.median(job_s) - 1.0
        values = spans.layer_values(tracer, len(traced_s), runner.iters_used, overhead)
        metrics = {name: (values[name], unit) for name, unit in spans.LAYER_METRICS}
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{workload.name}-s{args.seed}.csv")
        tracer.write_csv(spans_path)
        info["spans"] = os.path.relpath(spans_path, root)
    print(json.dumps(info))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
