"""Span tracing for the benchmark, installed from outside the library.

`Tracer.install()` replaces the public functions and methods each crffw
layer exposes with thin wrappers that record a span (name, start, end,
parent span, job id) around every call, and `uninstall()` puts the
originals back.  The library source is untouched: the wrappers are set
on the classes and on every crffw module that bound the function by
name (`from .simplex import round_nearest` binds a second reference).

Spans are kept in memory and written out once, at the end of a run.
The span stack is shared by all threads: `compare` hands each solve to
a one-worker thread pool while the calling thread waits, so the solves
still nest under the `cli.compare` span.  The benchmark runs with
`CRFFW_THREADS` unset, which keeps that pool at one worker.
"""

from __future__ import annotations

import collections
import csv
import functools
import sys
from time import perf_counter

KERNEL_BUILD = "model.kernel_build"


def _matvec_flops(backend):
    """Computed floating-point operations of one matvec of a backend."""
    name = type(backend).__name__
    n, d = backend.n_nodes, backend.n_labels
    if name == "GaussianKernel":
        return 2 * n * n * d + 2 * n * d * d
    if name == "EdgeList":
        return 4 * len(backend.edges) * d * d
    if name == "DenseMatrix":
        return 2 * (n * d) ** 2
    return 0


class Tracer:
    """Records spans around calls into crffw while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.stack = []
        self.job = -1
        self.flops = 0
        self.sizes = {}  # span index -> iterations of a run, nodes of a rounding
        self._patches = []  # (owner, attribute, original value)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, when=None, on_call=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args)
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.job]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if on_result is not None:
                tracer.sizes[idx] = on_result(result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, name, fn, **kw):
        """Replace every binding of `fn` in the crffw modules."""
        wrapped = self._wrap(name, fn, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "crffw" or mod_name.startswith("crffw."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)

    def _patch_method(self, cls, attr, name, **kw):
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr], **kw))

    def install(self):
        from crffw import cli, instances, model, regularizers, schedules, simplex, solvers

        def count_flops(backend, *_):
            self.flops += _matvec_flops(backend)

        for cls in (model.DenseMatrix, model.EdgeList, model.GaussianKernel):
            self._patch_method(cls, "matvec", "model.matvec", on_call=count_flops)
            self._patch_method(cls, "matvec_row", "model.matvec_row")
            self._patch_method(cls, "pair_energy", "model.pair_energy")
        kernel = model.GaussianKernel.__dict__["kernel_matrix"]
        self._set(model.GaussianKernel, "kernel_matrix", property(self._wrap(
            KERNEL_BUILD, kernel.fget, when=lambda k: k._kernel is None)))
        inst = model.CrfInstance
        self._patch_method(inst, "gradient", "model.gradient")
        self._patch_method(inst, "energy_relaxed", "model.energy_relaxed")
        self._patch_method(inst, "energy_discrete", "model.energy_discrete")
        self._patch_method(inst, "lipschitz_upper_bound", "model.lipschitz",
                           when=lambda i: i._lipschitz is None)
        for cls in (regularizers.L2Regularizer, regularizers.EntropyRegularizer):
            self._patch_method(cls, "value", "regularizers.value")
        self._patch_function("solvers.run", solvers.run_generalized_fw,
                             on_result=lambda res: len(res[1]))
        self._patch_function("schedules.stepsize", schedules.stepsize)
        for fn in ("softmax_rows", "project_feasible", "round_nearest"):
            self._patch_function(f"simplex.{fn}", getattr(simplex, fn))
        self._patch_function("simplex.round_bcd", simplex.round_bcd, on_result=len)
        self._patch_function("instances.read_json", instances.read_json)
        self._patch_function("instances.read_uai", instances.read_uai)
        self._patch_function("cli.solve", cli.cmd_solve)
        self._patch_function("cli.compare", cli.cmd_compare)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "job"])
            for idx, (name, start, end, parent, job) in enumerate(self.spans):
                writer.writerow([idx, name, repr(start), repr(end), parent, job])


class SpanIndex:
    """Derived views of a span list: durations, children, ancestors."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [end - start for _, start, end, _, _ in spans]
        self.child_dur = [0.0] * len(spans)
        self.kernel_inside = [0.0] * len(spans)
        # parents precede their children in the list, so walking it
        # backwards finishes every child before its parent
        for idx in range(len(spans) - 1, -1, -1):
            name, _, _, parent, _ = spans[idx]
            if name == KERNEL_BUILD:
                self.kernel_inside[idx] = self.dur[idx]
            if parent >= 0:
                self.child_dur[parent] += self.dur[idx]
                self.kernel_inside[parent] += self.kernel_inside[idx]

    def ids(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def has_ancestor(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def time(self, name):
        """Inclusive time of a layer; the one-off kernel build is charged
        to model.kernel_build alone."""
        if name == KERNEL_BUILD:
            return sum(self.dur[i] for i in self.ids(name))
        return sum(self.dur[i] - self.kernel_inside[i] for i in self.ids(name))

    def self_time(self, name):
        """Span time not covered by direct child spans."""
        return sum(self.dur[i] - self.child_dur[i] for i in self.ids(name))


# Per-layer metrics of the traced run, in report order: (name, unit).
# Counts and times are per job unless the name says otherwise.
LAYER_METRICS = (
    ("model.matvec.calls", "count"),
    ("model.matvec.s", "s"),
    ("model.matvec.per_iter", "count"),
    ("model.matvec.gflop_per_s", "GFLOP/s_computed"),
    ("model.lipschitz.s", "s"),
    ("model.lipschitz.matvecs", "count"),
    ("model.kernel_build.s", "s"),
    ("model.pair_energy.calls", "count"),
    ("model.pair_energy.s", "s"),
    ("model.matvec_row.calls", "count"),
    ("model.matvec_row.s", "s"),
    ("model.gradient.s", "s"),
    ("model.energy_relaxed.s", "s"),
    ("model.energy_discrete.s", "s"),
    ("solvers.run.s", "s"),
    ("solvers.iters", "count"),
    ("solvers.self.s", "s"),
    ("solvers.per_iter.s", "s"),
    ("schedules.stepsize.s", "s"),
    ("schedules.f_along.evals_per_iter", "count"),
    ("regularizers.value.calls", "count"),
    ("regularizers.value.s", "s"),
    ("simplex.softmax_rows.s", "s"),
    ("simplex.project_feasible.s", "s"),
    ("simplex.round_nearest.s", "s"),
    ("simplex.round_bcd.s", "s"),
    ("simplex.round_bcd.sweeps", "count"),
    ("instances.read_json.s", "s"),
    ("instances.read_uai.s", "s"),
    ("cli.compare.solves", "count"),
    ("cli.compare.iters_run", "count"),
    ("cli.compare.iters_used_ratio", "ratio"),
    ("cli.self.s", "s"),
    ("bench.trace_overhead", "ratio"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer, n_jobs, iters_used=0, trace_overhead=0.0):
    """Per-layer values of a traced run of `n_jobs` jobs.

    A metric that does not apply to the workload reads 0.  The matvecs
    per iteration leave out the Lipschitz estimate and the one matvec
    each run spends on the energy of its starting point.  Lipschitz
    matvecs are per estimate; `iters_used` counts the iterations whose
    energy reached a `compare` output file.
    """
    S = SpanIndex(tracer.spans)
    count = collections.Counter(s[0] for s in tracer.spans)
    matvecs = S.ids("model.matvec")
    runs = S.ids("solvers.run")
    iters = sum(tracer.sizes[i] for i in runs)
    in_lip = [i for i in matvecs if S.has_ancestor(i, "model.lipschitz")]
    in_runs = [i for i in matvecs if S.has_ancestor(i, "solvers.run")]
    # a non-quadratic line search evaluates the regularizer along the segment
    f_along = [i for i in S.ids("regularizers.value") if S.has_ancestor(i, "schedules.stepsize")]
    searches = {tracer.spans[i][3] for i in f_along}
    rows_in_bcd = [i for i in S.ids("model.matvec_row") if S.has_ancestor(i, "simplex.round_bcd")]
    sweeps = sum(_ratio(1, tracer.sizes[tracer.spans[i][3]]) for i in rows_in_bcd
                 if tracer.spans[i][3] in tracer.sizes)
    compare_runs = [i for i in runs if S.has_ancestor(i, "cli.compare")]
    iters_run = sum(tracer.sizes[i] for i in compare_runs)
    per_job = {
        "model.matvec.calls": len(matvecs),
        "model.matvec.s": S.time("model.matvec"),
        "model.lipschitz.s": S.time("model.lipschitz"),
        "model.kernel_build.s": S.time(KERNEL_BUILD),
        "model.pair_energy.calls": count["model.pair_energy"],
        "model.pair_energy.s": S.time("model.pair_energy"),
        "model.matvec_row.calls": count["model.matvec_row"],
        "model.matvec_row.s": S.time("model.matvec_row"),
        "model.gradient.s": S.time("model.gradient"),
        "model.energy_relaxed.s": S.time("model.energy_relaxed"),
        "model.energy_discrete.s": S.time("model.energy_discrete"),
        "solvers.run.s": S.time("solvers.run"),
        "solvers.iters": iters,
        "solvers.self.s": S.self_time("solvers.run"),
        "schedules.stepsize.s": S.time("schedules.stepsize"),
        "regularizers.value.calls": count["regularizers.value"],
        "regularizers.value.s": S.time("regularizers.value"),
        "simplex.softmax_rows.s": S.time("simplex.softmax_rows"),
        "simplex.project_feasible.s": S.time("simplex.project_feasible"),
        "simplex.round_nearest.s": S.time("simplex.round_nearest"),
        "simplex.round_bcd.s": S.time("simplex.round_bcd"),
        "simplex.round_bcd.sweeps": sweeps,
        "instances.read_json.s": S.time("instances.read_json"),
        "instances.read_uai.s": S.time("instances.read_uai"),
        "cli.compare.solves": len(compare_runs),
        "cli.compare.iters_run": iters_run,
        "cli.self.s": S.self_time("cli.solve") + S.self_time("cli.compare"),
    }
    values = {k: _ratio(v, n_jobs) for k, v in per_job.items()}
    values.update({
        "model.matvec.per_iter": _ratio(len(in_runs) - len(in_lip) - len(runs), iters),
        "model.matvec.gflop_per_s": _ratio(tracer.flops / 1e9, S.time("model.matvec")),
        "model.lipschitz.matvecs": _ratio(len(in_lip), count["model.lipschitz"]),
        "solvers.per_iter.s": _ratio(S.time("solvers.run") - S.time("model.lipschitz"), iters),
        "schedules.f_along.evals_per_iter": _ratio(len(f_along), len(searches)),
        "cli.compare.iters_used_ratio": _ratio(iters_used, iters_run),
        "bench.trace_overhead": trace_overhead,
    })
    return {name: values[name] for name, _ in LAYER_METRICS}
