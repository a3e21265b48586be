"""The benchmark's workloads: instance generation, jobs and output checks.

A job is the in-process equivalent of the `crffw` commands a user runs.
Every job reads its instances from files, so the kernel and Lipschitz
caches start cold, as on every CLI call.  `setup` writes the files for
one seed; the program only ever sees those files.  The checks use the
generator's own arrays, not the library's energy code, to recompute
every reported energy.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from crffw import cli
from crffw.model import CrfInstance
from crffw.instances import RandomDense, RandomGrid, generate, write_json

STEPS = 20
REL_TOL = 1e-9
_PHI_FLOOR = 1e-300  # the floor the UAI format's -log(phi) conversion uses


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict


WORKLOADS = {w.name: w for w in (
    Workload(
        "solve-suite",
        "7 solves x 20 steps: dense n=2000 d=21 (mf, efw, fw ls), 60x60 d=8 "
        "UAI (fw ls, efw ls, admm), 26x26 d=8 margin-6 grid (efw+BCD): "
        "kernel, power loop, pair_energy, UAI parser, line search, BCD",
        {"steps": STEPS,
         "files": {
             "dense": {"generator": "RandomDense", "n": 2000, "d": 21,
                       "unary_scale": 4.0, "format": "json"},
             "uai": {"generator": "RandomGrid", "rows": 60, "cols": 60, "d": 8,
                     "format": "uai"},
             # Each node's best unary label wins by more than the largest
             # Potts term (4 neighbours x potts_w), so BCD takes exactly two
             # sweeps on every seed and the work does not depend on the seed.
             "bcd": {"generator": "RandomGrid", "rows": 26, "cols": 26, "d": 8,
                     "unary_margin": 6.0, "format": "json"}},
         "solves": [["dense", "mf", "nearest"],
                    ["dense", "efw --lambda 0.25", "nearest"],
                    ["dense", "fw --stepsize linesearch", "nearest"],
                    ["uai", "fw --stepsize linesearch", "nearest"],
                    ["uai", "efw --lambda 0.25 --stepsize linesearch", "nearest"],
                    ["uai", "admm", "nearest"],
                    ["bcd", "efw --lambda 0.25", "bcd"]]}),
    Workload(
        "compare-suite",
        "10 RandomDense n=500 d=21 unary_scale=4 as JSON; compare default "
        "methods, 20 steps, sweep at 5 over lambda 0.25..1: many small "
        "solves, per-solve fixed costs",
        {"generator": "RandomDense", "instances": 10, "n": 500, "d": 21,
         "unary_scale": 4.0, "format": "json", "methods": "default",
         "steps": STEPS, "sweep_at": 5, "lambda_grid": [0.25, 1.0, 0.25]}),
)}


# ---------------------------------------------------------------------------
# set-up: write the instance files, keep independent copies for the checks

class DenseTruth:
    """Unaries and kernel features of a fully-connected instance.  The
    energy check recomputes the kernel in row blocks from explicit
    feature differences (not the library's distance trick) and keeps no
    n x n matrix, so it adds nothing to the peak memory of a job."""

    def __init__(self, instance):
        g = instance.pairwise
        self.unary = np.array(instance.unary)
        self._feats = (np.array(g.positions), np.array(g.colors))
        self._consts = (g.w1, g.w2, g.alpha, g.beta, g.gamma)
        self.compat = np.array(g.compat)

    def energy(self, labels):
        pos, col = self._feats
        w1, w2, alpha, beta, gamma = self._consts
        n = labels.size
        pair = 0.0
        for lo in range(0, n, 128):
            hi = min(n, lo + 128)
            dp = ((pos[lo:hi, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
            dc = ((col[lo:hi, None, :] - col[None, :, :]) ** 2).sum(axis=2)
            K = (w1 * np.exp(-dp / (2 * alpha ** 2) - dc / (2 * beta ** 2))
                 + w2 * np.exp(-dp / (2 * gamma ** 2)))
            K[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
            pair += float((K * self.compat[np.ix_(labels[lo:hi], labels)]).sum())
        return float(self.unary[np.arange(n), labels].sum()) + 0.5 * pair


class EdgeTruth:
    """Unaries, edges and d x d edge potentials of a sparse instance."""

    def __init__(self, unary, edges, thetas):
        self.unary, self.edges, self.thetas = unary, edges, thetas

    def energy(self, labels):
        n = labels.size
        ii, jj = self.edges[:, 0], self.edges[:, 1]
        pair = float(self.thetas[np.arange(len(ii)), labels[ii], labels[jj]].sum())
        return float(self.unary[np.arange(n), labels].sum()) + pair


def _dense(params, seed):
    return generate(RandomDense(n=params["n"], d=params["d"], seed=seed,
                                unary_scale=params["unary_scale"]))


def _with_margin(instance, margin, seed):
    """Unaries in [0, 1) with one label per node lowered by `margin`."""
    rng = np.random.default_rng(seed)
    n, d = instance.n_nodes, instance.n_labels
    unary = rng.uniform(0.0, 1.0, size=(n, d))
    unary[np.arange(n), rng.integers(0, d, size=n)] -= margin
    return CrfInstance(unary, instance.pairwise)


def write_uai(instance, path):
    """Write a sparse instance as a pairwise UAI MARKOV network with
    factor tables phi = exp(-theta); returns the EdgeTruth of the file."""
    g = instance.pairwise
    n, d = instance.n_nodes, instance.n_labels
    phi_u = np.exp(-np.asarray(instance.unary))
    phi_e = np.exp(-np.asarray(g.thetas))
    lines = ["MARKOV", str(n), " ".join([str(d)] * n), str(n + len(g.edges))]
    lines += [f"1 {i}" for i in range(n)]
    lines += [f"2 {i} {j}" for i, j in g.edges]
    for row in phi_u:
        lines += ["", str(d), " ".join(map(repr, row.tolist()))]
    for blk in phi_e:
        lines += ["", str(d * d), " ".join(map(repr, blk.reshape(-1).tolist()))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    # the file holds repr(phi), which parses back to phi exactly
    return EdgeTruth(-np.log(np.maximum(phi_u, _PHI_FLOOR)), np.array(g.edges),
                     -np.log(np.maximum(phi_e, _PHI_FLOOR)))


def _write(key, spec, seed, workdir):
    """Write one instance file; returns its path and independent data."""
    if spec["generator"] == "RandomDense":
        inst = _dense(spec, seed)
        path = os.path.join(workdir, f"{key}.json")
        write_json(inst, path)
        return path, DenseTruth(inst)
    inst = generate(RandomGrid(rows=spec["rows"], cols=spec["cols"], d=spec["d"], seed=seed))
    if "unary_margin" in spec:
        inst = _with_margin(inst, spec["unary_margin"], seed)
    path = os.path.join(workdir, f"{key}.{spec['format']}")
    if spec["format"] == "uai":
        return path, write_uai(inst, path)
    write_json(inst, path)
    g = inst.pairwise
    return path, EdgeTruth(np.array(inst.unary), np.array(g.edges), np.array(g.thetas))


def setup(workload, seed, workdir):
    """Generate and write the workload's instance files; returns their
    paths and the independent data the checks need."""
    p = workload.params
    os.makedirs(workdir, exist_ok=True)
    if workload.name == "compare-suite":
        paths = []
        for k in range(p["instances"]):
            paths.append(os.path.join(workdir, f"inst{k}.json"))
            write_json(_dense(p, seed * 1000 + k), paths[-1])
        return {"paths": paths}
    return {key: _write(key, spec, seed, workdir) for key, spec in p["files"].items()}


# ---------------------------------------------------------------------------
# jobs

def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # a usage error is a failed command
            return exc.code


def run_job(workload, files, workdir):
    """Run one job; returns its outputs for `check_job`."""
    p = workload.params
    if workload.name == "compare-suite":
        out = os.path.join(workdir, "compare")
        lo, hi, step = (repr(v) for v in p["lambda_grid"])
        rc = _cli(["compare", "--instances", *files["paths"], "--steps", str(p["steps"]),
                   "--sweep-at", str(p["sweep_at"]), "--lambda-grid", lo, hi, step,
                   "--out", out])
        return {"rc": [rc], "out": out}
    rcs, solves = [], []
    for k, (key, spec, rounding) in enumerate(p["solves"]):
        trace = os.path.join(workdir, f"trace{k}.csv")
        labels = os.path.join(workdir, f"labels{k}.json")
        rcs.append(_cli(["solve", "--instance", files[key][0], "--method", *spec.split(),
                         "--steps", str(p["steps"]), "--round", rounding,
                         "--trace", trace, "--labels-out", labels]))
        solves.append((key, rounding, trace, labels))
    return {"rc": rcs, "solves": solves}


# ---------------------------------------------------------------------------
# checks (outside the timed window)

def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _check_solve(steps, truth, rounding, trace_path, labels_path, errors):
    with open(labels_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    labels = np.asarray(doc["labels"], dtype=int)
    d = truth.unary.shape[1]
    if labels.shape != (truth.unary.shape[0],) or labels.min() < 0 or labels.max() >= d:
        errors.append(f"{labels_path}: labels out of range")
        return
    expect = truth.energy(labels)
    if not _close(doc["energy"], expect):
        errors.append(f"{labels_path}: energy {doc['energy']!r} != recomputed {expect!r}")
    with open(trace_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != steps:
        errors.append(f"{trace_path}: {len(rows)} rows")
        return
    if any(r["bound_held"] == "0" for r in rows):
        errors.append(f"{trace_path}: a decrease bound did not hold")
    if rounding == "bcd":
        last = rows[-1]
        if doc["energy"] > float(last["e_disc"]) + REL_TOL * abs(float(last["e_disc"])):
            errors.append(f"{labels_path}: BCD energy above nearest rounding")
        if doc["energy"] > float(last["e_cont"]) + REL_TOL * abs(float(last["e_cont"])):
            errors.append(f"{labels_path}: BCD energy above the relaxed energy")


def _check_compare(workload, files, out, errors):
    p = workload.params
    names = ("energy_vs_iteration.csv", "mean_energy_vs_iteration.csv",
             "lambda_sweep.csv", "summary.json")
    missing = [n for n in names if not os.path.isfile(os.path.join(out, n))]
    if missing:
        errors.append(f"compare outputs missing: {missing}")
        return
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    n_inst = len(files["paths"])
    lo, hi, step = p["lambda_grid"]
    n_lam = int(round((hi - lo) / step)) + 1
    ok = (summary.get("instances") == files["paths"]
          and summary.get("steps") == p["steps"]
          and set(summary.get("methods", {})) == {"mf", "fw", "l2fw:1", "efw:0.25", "pgd"}
          and all(len(c) == n_inst and all(len(x) == p["steps"] for x in c)
                  for c in summary["methods"].values())
          and set(summary.get("lambda_sweep", {})) == {"efw", "l2fw"}
          and all(s["at_iteration"] == p["sweep_at"] and len(s["rows"]) == n_lam
                  and all(len(r["per_instance"]) == n_inst for r in s["rows"])
                  for s in summary["lambda_sweep"].values()))
    if not ok:
        errors.append("summary.json does not have the expected shape")
        return
    values = [e for c in summary["methods"].values() for x in c for e in x]
    if not all(np.isfinite(values)):
        errors.append("summary.json holds non-finite energies")


def compare_iters_used(outputs):
    """Iterations of a `compare` job whose energy reached an output file:
    every iteration of the method curves, one per lambda-sweep solve."""
    with open(os.path.join(outputs["out"], "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    curves = sum(len(x) for c in summary["methods"].values() for x in c)
    sweep = sum(len(r["per_instance"]) for s in summary["lambda_sweep"].values()
                for r in s["rows"])
    return curves + sweep


def outputs_digest(workload, outputs):
    """Digest of every output file of a job, for the repeat check."""
    h = hashlib.sha256()
    if workload.name == "compare-suite":
        paths = [os.path.join(outputs["out"], n) for n in sorted(os.listdir(outputs["out"]))]
    else:
        paths = [p for _, _, trace, labels in outputs["solves"] for p in (trace, labels)]
    for path in paths:
        h.update(_read_bytes(path))
    return h.hexdigest()


def check_job(workload, files, outputs):
    """Return the list of failed checks of one job (empty when it passed)."""
    errors = []
    if any(rc != 0 for rc in outputs["rc"]):
        return [f"exit codes {outputs['rc']}"]
    if workload.name == "compare-suite":
        _check_compare(workload, files, outputs["out"], errors)
    else:
        for key, rounding, trace, labels in outputs["solves"]:
            _check_solve(workload.params["steps"], files[key][1], rounding, trace, labels, errors)
    return errors
