"""Command-line harness: generate instances, run solvers, compare
methods, and run the verification suites.

Exit codes: 0 on success, 1 on runtime failure or divergence, 2 on
usage errors.  All outputs are byte-deterministic given the same flags;
pass --times to `solve` to include real wall times in the trace CSV.

The free threads are the usable cores (`taskset` limits them) divided
by BLAS's threads (the first positive value among the thread variables
that numpy's BLAS reads, each read as C's `atoi` reads it, else every
core), so unpinned BLAS leaves one.  `compare` solves its instances on
that many threads, one instance per task; each task holds the only
reference to its instance, so peak memory is the parsed instances plus
one kernel (n^2 doubles, which its build holds with a few row blocks of
scratch) per thread.  `solve` runs with the solver's helper thread when
there are two free: it shares the dense kernel build, then computes
e_disc beside the loop.  Outputs and the reported error are
those of the serial order, whatever the thread count (an e_disc error
surfaces late); --times' time_ms then leaves out e_disc.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields

import numpy as np

from . import schedules, solvers, verification
from .errors import CapacityError, Diverged, InstanceFormatError
from .instances import (RandomDense, RandomEdgeList, RandomGrid, generate,
                        read_json, read_uai, write_json)
from .simplex import round_bcd, round_nearest

EXIT_RUNTIME = 1
MAX_LAMBDA_GRID = 10_000  # points of compare's --lambda-grid; the default has 25
# library field -> the flags that set it, for the usage errors naming it
_FLAGS = {"max_iters": "--steps", "n and d": "--nodes and --labels",
          "image_size": "--image-size", "edge_prob": "--edge-prob",
          "grid dimensions": "--rows, --cols and --labels",
          "kernel bandwidths": "--kernel-alpha, --kernel-beta and --kernel-gamma"}
_SPECS = {"dense": RandomDense, "grid": RandomGrid, "edges": RandomEdgeList}  # generate --kind
try:  # the BLAS numpy was built with, as numpy >= 1.26 names it
    _BLAS = (np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] or "").lower()
except (TypeError, KeyError):
    _BLAS = ""
# the thread variables each BLAS reads, in its order ("": any other BLAS)
_THREAD_VARS = {"openblas": ("OPENBLAS", "GOTO", "OMP"), "mkl": ("MKL", "OMP"),
                "": ("OPENBLAS", "MKL", "OMP")}


def _load_instance(path):
    if path.endswith(".uai"):
        return read_uai(path)
    return read_json(path)


def _number(text, flag, spec):
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{flag} {spec!r}: {text.strip()!r} is not a number") from None


def _parse_schedule(text, flag="--stepsize", spec=None):
    # "name" or, for a schedule with a field, "name:value"; `spec` is
    # the flag value the schedule sits in, when it is not `text` alone
    name, _, value = text.strip().lower().partition(":")
    cls = schedules.SCHEDULES.get(name)
    if cls is None or bool(fields(cls)) != bool(value):
        raise ValueError(f"unknown stepsize schedule {text!r}")
    return cls(_number(value, flag, spec or text)) if value else cls()


def _usage_error(parser, exc):
    # exit 2 with the library's message, naming the flag the user typed
    msg = str(exc)
    name = next((k for k in _FLAGS if msg.startswith(k)), None)
    parser.error(msg if name is None else _FLAGS[name] + msg[len(name):])


def _build_config(method_name, lam, schedule, steps, check_bounds=False):
    method_cls = solvers.METHODS.get(method_name)
    if method_cls is None:
        raise ValueError(f"unknown method {method_name!r}")
    return solvers.SolverConfig(method_cls(), lam=lam, schedule=schedule, max_iters=steps,
                                decrease_bound_check=check_bounds)


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args, parser):
    # a flag's dest is its spec field; a flag left out is not in `args`
    spec_cls = _SPECS[args.kind]
    names = [f.name for f in fields(spec_cls)]
    unread = [flag for dest, flag in args.flags.items()
              if dest in args and dest not in names + ["kind", "out"]]
    if unread:
        parser.error(f"--kind {args.kind} does not read {', '.join(unread)}")
    spec = spec_cls(**{name: getattr(args, name) for name in names if name in args})
    try:
        instance = generate(spec)
    except ValueError as exc:
        _usage_error(parser, exc)
    write_json(instance, args.out)
    backend = type(instance.pairwise).__name__
    print(f"wrote {args.out}: n={instance.n_nodes} d={instance.n_labels} "
          f"backend={backend}")
    return 0


# ---------------------------------------------------------------------------
# solve

def cmd_solve(args, parser):
    try:
        schedule = _parse_schedule(args.stepsize) if args.stepsize else None
        config = _build_config(args.method, args.lam, schedule, args.steps,
                               check_bounds=args.check_bounds)
    except ValueError as exc:
        _usage_error(parser, exc)
    instance = _load_instance(args.instance)
    try:
        x, trace = solvers.run_generalized_fw(instance, config, helper=_worker_threads(2) == 2)
    except Diverged as exc:  # reported by main, after the partial trace
        if args.trace and exc.trace is not None:
            exc.trace.write_csv(args.trace, include_times=args.times)
        raise
    if args.trace:
        trace.write_csv(args.trace, include_times=args.times)
    labels = round_bcd(instance, x) if args.round == "bcd" else round_nearest(x)
    e_final = instance.energy_discrete(labels)
    if args.labels_out:
        with open(args.labels_out, "w", encoding="utf-8") as fh:
            json.dump({"labels": labels.tolist(), "energy": e_final}, fh)
            fh.write("\n")
    print(f"method={args.method} iterations={len(trace)} "
          f"e_cont={trace.records[-1].e_cont!r} e_disc={e_final!r}")
    return 0


# ---------------------------------------------------------------------------
# compare

def _parse_method_spec(spec):
    # "name", "name:lambda", or "name:lambda:schedule"; the schedule may
    # itself hold a colon (constant:A), and the label keeps it
    parts = spec.split(":", 2)
    name = parts[0].strip().lower()
    lam = _number(parts[1], "--methods", spec) if len(parts) > 1 and parts[1] else None
    schedule = (_parse_schedule(parts[2], "--methods", spec)
                if len(parts) > 2 and parts[2] else None)
    label = name if lam is None else f"{name}:{parts[1]}"
    if schedule is not None:
        label = f"{name}:{parts[1]}:{parts[2].strip().lower()}"
    return label, name, lam, schedule


def _lambda_grid(lo, hi, step):
    finite = all(math.isfinite(v) for v in (lo, hi, step))
    if not (finite and 0.0 < lo <= hi and step > 0.0):
        raise ValueError("--lambda-grid needs finite 0 < LO <= HI and STEP > 0")
    if (hi + 0.5 * step - lo) / step > MAX_LAMBDA_GRID:  # np.arange's length, before it
        raise ValueError(f"--lambda-grid has more than {MAX_LAMBDA_GRID} points")
    return [float(lam) for lam in np.arange(lo, hi + 0.5 * step, step)]


def _worker_threads(n_tasks):
    """Threads to use: the cores left free by BLAS's own threads, at
    most one per task.  BLAS takes the first positive leading integer
    among its thread variables, and every usable core when there is none."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in next(names for blas_kind, names in _THREAD_VARS.items() if blas_kind in _BLAS):
        # as C's atoi: blanks, a sign and digits; OpenBLAS reads "1abc" as 1
        # and a value without leading digits as 0, which leaves it unset
        lead = re.match(r"[ \t\n\v\f\r]*[+-]?[0-9]+", os.environ.get(f"{var}_NUM_THREADS", ""))
        if lead and int(lead.group()) > 0:
            blas = int(lead.group())
            break
    return max(1, min(n_tasks, cpus // blas))


def _solve_groups(instance, configs):
    """One instance's `e_disc` curves, one per config in order, and None.
    The first error stops the run and is returned in place of None, not
    raised, so that the caller can report the error a serial loop over
    (config, instance) meets first; its config is `configs[len(curves)]`."""
    curves = []
    for config in configs:
        try:
            _, trace = solvers.run_generalized_fw(instance, config)
        except Exception as exc:  # re-raised by cmd_compare, in serial order
            return curves, exc
        curves.append([r.e_disc for r in trace.records])
    return curves, None


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_compare(args, parser):
    if args.sweep_at < 1:
        parser.error("--sweep-at must be >= 1")
    # a sweep solve stops at the iteration whose energy it reports
    sweep_steps = min(args.sweep_at, args.steps)
    try:
        lam_grid = _lambda_grid(*args.lambda_grid)
        runs = {}
        for spec in filter(str.strip, args.methods.split(",")):
            label, name, lam, schedule = _parse_method_spec(spec)
            if label in runs:
                parser.error(f"method spec {label!r} given twice")
            runs[label] = _build_config(name, lam, schedule, args.steps)
        sweep_runs = {}
        for name in filter(None, (m.strip().lower() for m in args.sweep_methods.split(","))):
            sweep_runs[name] = [(lam, _build_config(name, lam, None, sweep_steps))
                                for lam in lam_grid]
    except ValueError as exc:
        _usage_error(parser, exc)
    if not runs:
        parser.error("at least one method is required")
    instances = [_load_instance(p) for p in args.instances]
    os.makedirs(args.out, exist_ok=True)

    # configs with the same iterates run once, at the longest of their
    # max_iters (the first on a tie); each curve is a prefix of that run
    longest = {}
    for config in [*runs.values(), *(c for grid in sweep_runs.values() for _, c in grid)]:
        key = solvers.iterate_key(config)
        longest[key] = max(longest.get(key, config), config, key=lambda c: c.max_iters)
    configs = list(longest.values())
    pool = ThreadPoolExecutor(_worker_threads(len(instances)))
    try:
        # a task takes the only reference to its instance, so the instance's
        # kernel, start, L_f and cfw copy are freed when the task ends
        tasks = [pool.submit(_solve_groups, instances.pop(0), configs)
                 for _ in args.instances]
        results = [task.result() for task in tasks]
    finally:  # on an interrupt, start no further instance
        pool.shutdown(cancel_futures=True)
    failures = [(len(curves), i, exc) for i, (curves, exc) in enumerate(results)
                if exc is not None]
    if failures:
        # the error the serial (group, instance) loop would have met first
        raise min(failures, key=lambda f: f[:2])[2]
    energies = {key: [curves[g] for curves, _ in results] for g, key in enumerate(longest)}

    def curves_for(config):
        return [curve[:config.max_iters] for curve in energies[solvers.iterate_key(config)]]

    all_curves = {label: curves_for(config) for label, config in runs.items()}
    sweep = {}
    for name, grid_runs in sweep_runs.items():
        rows = []
        for lam, config in grid_runs:
            finals = [curve[-1] for curve in curves_for(config)]
            rows.append((lam, float(np.mean(finals)), [float(e) for e in finals]))
        sweep[name] = rows

    _write_csv(os.path.join(args.out, "energy_vs_iteration.csv"),
               ["method", "instance", "k", "e_disc"],
               ((label, idx, k, repr(e)) for label, curves in all_curves.items()
                for idx, curve in enumerate(curves) for k, e in enumerate(curve)))
    _write_csv(os.path.join(args.out, "mean_energy_vs_iteration.csv"),
               ["method", "k", "mean_e_disc"],
               ((label, k, repr(float(e))) for label, curves in all_curves.items()
                for k, e in enumerate(np.mean(np.array(curves), axis=0))))
    _write_csv(os.path.join(args.out, "lambda_sweep.csv"),
               ["method", "lambda", "mean_e_disc"],
               ((name, repr(lam), repr(mean_e)) for name, rows in sweep.items()
                for lam, mean_e, _ in rows))

    summary = {
        "instances": list(args.instances),
        "steps": args.steps,
        "methods": {label: [list(map(float, c)) for c in curves]
                    for label, curves in all_curves.items()},
        "lambda_sweep": {name: {"at_iteration": sweep_steps,
                                "rows": [{"lambda": lam, "mean_e_disc": mean_e,
                                          "per_instance": per} for lam, mean_e, per in rows]}
                         for name, rows in sweep.items()},
    }
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote comparison outputs to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args, parser):
    results = verification.SUITES[args.suite](seed=args.seed)
    report = {"suite": args.suite, "seed": args.seed,
              "passed": all(r.passed for r in results),
              "checks": [asdict(r) for r in results]}
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="crffw",
        description="MAP inference benchmarks for pairwise CRFs")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance file",
                       argument_default=argparse.SUPPRESS)
    g.add_argument("--kind", choices=tuple(_SPECS), default="dense")
    g.add_argument("--nodes", dest="n", type=int)
    g.add_argument("--labels", dest="d", type=int)
    g.add_argument("--rows", type=int)
    g.add_argument("--cols", type=int)
    g.add_argument("--edge-prob", type=float)
    g.add_argument("--image-size", type=float)
    g.add_argument("--w1", type=float)
    g.add_argument("--w2", type=float)
    g.add_argument("--kernel-alpha", dest="alpha", type=float)
    g.add_argument("--kernel-beta", dest="beta", type=float)
    g.add_argument("--kernel-gamma", dest="gamma", type=float)
    g.add_argument("--compat", choices=("potts", "random"))
    g.add_argument("--potts-w", type=float)
    g.add_argument("--unary-scale", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    # only --kind has a default: a flag in `args` was typed
    g.set_defaults(func=cmd_generate, flags={a.dest: a.option_strings[0] for a in g._actions})

    s = sub.add_parser("solve", help="run one solver, write a trace CSV")
    s.add_argument("--instance", required=True)
    s.add_argument("--method", choices=tuple(solvers.METHODS), required=True)
    s.add_argument("--lambda", dest="lam", type=float, default=None)
    s.add_argument("--stepsize", default=None, help=" | ".join(
        name + ":A" * bool(fields(cls)) for name, cls in schedules.SCHEDULES.items()))
    s.add_argument("--steps", type=int, default=20)
    s.add_argument("--trace", default=None, help="trace CSV output path")
    s.add_argument("--labels-out", default=None, help="final labeling JSON path")
    s.add_argument("--round", choices=("nearest", "bcd"), default="nearest")
    s.add_argument("--check-bounds", action="store_true")
    s.add_argument("--times", action="store_true",
                   help="write real wall times (breaks byte determinism)")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="run several methods over instances")
    c.add_argument("--instances", nargs="+", required=True)
    c.add_argument("--methods", default="mf,fw,l2fw:1,efw:0.25,pgd",
                   help="comma list of name[:lambda[:schedule]]")
    c.add_argument("--steps", type=int, default=20)
    c.add_argument("--sweep-methods", default="efw,l2fw")
    c.add_argument("--sweep-at", type=int, default=5,
                   help="iteration at which the lambda sweep reads the energy")
    c.add_argument("--lambda-grid", type=float, nargs=3,
                   default=(0.1, 2.5, 0.1), metavar=("LO", "HI", "STEP"))
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_compare)

    v = sub.add_parser("verify", help="run a built-in verification suite")
    v.add_argument("--suite", choices=tuple(verification.SUITES), required=True)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be >= 0")
    try:
        return args.func(args, parser)
    except (InstanceFormatError, OSError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
