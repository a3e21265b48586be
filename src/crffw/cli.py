"""Command-line harness: generate instances, run solvers, compare
methods, and run the verification suites.

Exit codes: 0 on success, 1 on runtime failure or divergence, 2 on
usage errors.  All outputs are byte-deterministic given the same flags;
pass --times to `solve` to include real wall times in the trace CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import schedules, solvers, verification
from .errors import Diverged, InstanceFormatError
from .instances import (RandomDense, RandomEdgeList, RandomGrid, generate,
                        read_json, read_uai, write_json)
from .regularizers import EntropyRegularizer, L2Regularizer
from .simplex import BcdRounding, NearestRounding, decode

METHOD_NAMES = ("mf", "dmf", "fw", "cfw", "l2fw", "efw", "pgd", "pgm", "emd", "admm")
EXIT_RUNTIME = 1


def _load_instance(path):
    if path.endswith(".uai"):
        return read_uai(path)
    return read_json(path)


def _parse_schedule(text):
    text = text.strip().lower()
    if text.startswith("constant:"):
        return schedules.Constant(float(text.split(":", 1)[1]))
    if text.startswith("constlength:"):
        return schedules.ConstantLength(float(text.split(":", 1)[1]))
    if text == "harmonic":
        return schedules.Harmonic()
    if text == "ramp":
        return schedules.HarmonicRamp()
    if text == "invsqrt":
        return schedules.InvSqrt()
    if text == "adaptive":
        return schedules.Adaptive()
    if text == "linesearch":
        return schedules.LineSearch()
    raise ValueError(f"unknown stepsize schedule {text!r}")


def _build_config(method_name, lam, schedule, steps, check_bounds=False):
    method_name = method_name.lower()
    if lam is not None and lam <= 0.0:
        raise ValueError("regularization weight must be > 0")
    lam = 1.0 if lam is None else lam
    if method_name == "mf":
        method, reg = solvers.MeanField(), None
        schedule = None
    elif method_name == "dmf":
        alpha = schedule.alpha if isinstance(schedule, schedules.Constant) else 0.5
        method, reg = solvers.DampedMeanField(alpha), None
        schedule = None
    elif method_name == "fw":
        method, reg = solvers.VanillaFW(), None
    elif method_name == "cfw":
        method, reg = solvers.ConvexFW(), None
    elif method_name == "l2fw":
        method, reg = solvers.L2FW(), L2Regularizer(lam)
    elif method_name == "efw":
        method, reg = solvers.EntropicFW(), EntropyRegularizer(lam)
    elif method_name == "pgd":
        method, reg = solvers.PGD(), None
    elif method_name == "pgm":
        method, reg = solvers.FastPGM(), None
    elif method_name == "emd":
        method, reg = solvers.EMD(), None
    elif method_name == "admm":
        method, reg = solvers.ADMM(), None
    else:
        raise ValueError(f"unknown method {method_name!r}")
    return solvers.SolverConfig(method, regularizer=reg, schedule=schedule,
                                max_iters=steps, decrease_bound_check=check_bounds)


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args, parser):
    if args.kind == "dense":
        if args.nodes < 1 or args.labels < 1:
            parser.error("--nodes and --labels must be positive")
        spec = RandomDense(n=args.nodes, d=args.labels, seed=args.seed,
                           image_size=args.image_size, w1=args.w1, w2=args.w2,
                           alpha=args.kernel_alpha, beta=args.kernel_beta,
                           gamma=args.kernel_gamma, compat=args.compat,
                           potts_w=args.potts_w, unary_scale=args.unary_scale)
    elif args.kind == "grid":
        if args.rows < 1 or args.cols < 1 or args.labels < 1:
            parser.error("--rows, --cols and --labels must be positive")
        spec = RandomGrid(rows=args.rows, cols=args.cols, d=args.labels,
                          seed=args.seed, potts_w=args.potts_w,
                          unary_scale=args.unary_scale)
    else:
        if args.nodes < 1 or args.labels < 1:
            parser.error("--nodes and --labels must be positive")
        spec = RandomEdgeList(n=args.nodes, d=args.labels, seed=args.seed,
                              edge_prob=args.edge_prob,
                              unary_scale=args.unary_scale)
    instance = generate(spec)
    write_json(instance, args.out)
    backend = type(instance.pairwise).__name__
    print(f"wrote {args.out}: n={instance.n_nodes} d={instance.n_labels} "
          f"backend={backend}")
    return 0


# ---------------------------------------------------------------------------
# solve

def cmd_solve(args, parser):
    if args.lam is not None and args.lam <= 0.0:
        parser.error("--lambda must be > 0")
    try:
        schedule = _parse_schedule(args.stepsize) if args.stepsize else None
    except ValueError as exc:
        parser.error(str(exc))
    try:
        config = _build_config(args.method, args.lam, schedule, args.steps,
                               check_bounds=args.check_bounds)
    except ValueError as exc:
        parser.error(str(exc))
    instance = _load_instance(args.instance)
    try:
        x, trace = solvers.run_generalized_fw(instance, config)
    except Diverged as exc:
        if args.trace and exc.trace is not None:
            exc.trace.write_csv(args.trace, include_times=args.times)
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.trace:
        trace.write_csv(args.trace, include_times=args.times)
    scheme = BcdRounding() if args.round == "bcd" else NearestRounding()
    labels = decode(instance, x, scheme)
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
    # "name", "name:lambda", or "name:lambda:schedule"
    parts = spec.split(":")
    name = parts[0].strip().lower()
    lam = float(parts[1]) if len(parts) > 1 and parts[1] else None
    schedule = _parse_schedule(parts[2]) if len(parts) > 2 and parts[2] else None
    label = name if lam is None else f"{name}:{parts[1]}"
    return label, name, lam, schedule


def _solve_disc_curve(instance, config):
    _, trace = solvers.run_generalized_fw(instance, config)
    return [r.e_disc for r in trace.records]


def _lambda_grid(lo, hi, step):
    finite = all(math.isfinite(v) for v in (lo, hi, step))
    if not (finite and 0.0 < lo <= hi and step > 0.0):
        raise ValueError("--lambda-grid needs finite 0 < LO <= HI and STEP > 0")
    return [float(lam) for lam in np.arange(lo, hi + 0.5 * step, step)]


def cmd_compare(args, parser):
    if not args.instances:
        parser.error("at least one instance is required")
    if args.sweep_at < 1:
        parser.error("--sweep-at must be >= 1")
    # a sweep solve stops at the iteration whose energy it reports
    sweep_steps = min(args.sweep_at, args.steps)
    try:
        lam_grid = _lambda_grid(*args.lambda_grid)
        runs = {}
        for spec in filter(str.strip, args.methods.split(",")):
            label, name, lam, schedule = _parse_method_spec(spec)
            runs[label] = _build_config(name, lam, schedule, args.steps)
        sweep_runs = {}
        for name in filter(None, (m.strip().lower() for m in args.sweep_methods.split(","))):
            sweep_runs[name] = [(lam, _build_config(name, lam, None, sweep_steps))
                                for lam in lam_grid]
    except ValueError as exc:
        parser.error(str(exc))
    if not runs:
        parser.error("at least one method is required")
    instances = [_load_instance(p) for p in args.instances]
    os.makedirs(args.out, exist_ok=True)
    workers = max(1, int(os.environ.get("CRFFW_THREADS", "1")))

    def curves_for(config):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_solve_disc_curve, inst, config) for inst in instances]
            return [f.result() for f in futures]

    try:
        all_curves = {label: curves_for(config) for label, config in runs.items()}
        sweep = {}
        for name, grid_runs in sweep_runs.items():
            rows = []
            for lam, config in grid_runs:
                energies = [curve[-1] for curve in curves_for(config)]
                rows.append((lam, float(np.mean(energies)), [float(e) for e in energies]))
            sweep[name] = rows
    except Diverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    mean_rows = []
    with open(os.path.join(args.out, "energy_vs_iteration.csv"), "w",
              encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "instance", "k", "e_disc"])
        for label, curves in all_curves.items():
            for idx, curve in enumerate(curves):
                for k, e in enumerate(curve):
                    writer.writerow([label, idx, k, repr(e)])
            mean_curve = np.mean(np.array(curves), axis=0)
            mean_rows.extend((label, k, repr(float(e))) for k, e in enumerate(mean_curve))
    with open(os.path.join(args.out, "mean_energy_vs_iteration.csv"), "w",
              encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "k", "mean_e_disc"])
        writer.writerows(mean_rows)

    with open(os.path.join(args.out, "lambda_sweep.csv"), "w",
              encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "lambda", "mean_e_disc"])
        for name, rows in sweep.items():
            for lam, mean_e, _ in rows:
                writer.writerow([name, repr(lam), repr(mean_e)])

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
    try:
        results = verification.run_suite(args.suite, seed=args.seed)
    except KeyError:
        parser.error(f"unknown suite {args.suite!r}")
    report = {"suite": args.suite, "seed": args.seed,
              "passed": all(r.passed for r in results),
              "checks": [r.as_dict() for r in results]}
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="crffw",
        description="MAP inference benchmarks for pairwise CRFs")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance file")
    g.add_argument("--kind", choices=("dense", "grid", "edges"), default="dense")
    g.add_argument("--nodes", type=int, default=100)
    g.add_argument("--labels", type=int, default=5)
    g.add_argument("--rows", type=int, default=5)
    g.add_argument("--cols", type=int, default=5)
    g.add_argument("--edge-prob", type=float, default=0.3)
    g.add_argument("--image-size", type=float, default=32.0)
    g.add_argument("--w1", type=float, default=1.0)
    g.add_argument("--w2", type=float, default=1.0)
    g.add_argument("--kernel-alpha", type=float, default=80.0)
    g.add_argument("--kernel-beta", type=float, default=13.0)
    g.add_argument("--kernel-gamma", type=float, default=3.0)
    g.add_argument("--compat", choices=("potts", "random"), default="potts")
    g.add_argument("--potts-w", type=float, default=1.0)
    g.add_argument("--unary-scale", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="run one solver, write a trace CSV")
    s.add_argument("--instance", required=True)
    s.add_argument("--method", choices=METHOD_NAMES, required=True)
    s.add_argument("--lambda", dest="lam", type=float, default=None)
    s.add_argument("--stepsize", default=None,
                   help="constant:A | constlength:A | harmonic | ramp | "
                        "invsqrt | adaptive | linesearch")
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
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_compare)

    v = sub.add_parser("verify", help="run a built-in verification suite")
    v.add_argument("--suite", required=True)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.suite not in verification.SUITES:
        parser.error(f"unknown suite {args.suite!r}")
    if getattr(args, "steps", 1) < 1:
        parser.error("--steps must be >= 1")
    try:
        return args.func(args, parser)
    except (InstanceFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
