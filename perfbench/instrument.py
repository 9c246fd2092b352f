"""Which tlammcox functions are wrapped, how their spans become per-layer
metrics, and the fit probe that times and checks every penalized fit.

Layers are the package modules: data, cox, penalties, solver, evaluation
and cli. A span's layer is the prefix of its name; `bench.*` spans are
the benchmark's own work (output checks) and belong to no layer.
Per-layer metrics are normalised so runs of different length compare:
counts and seconds are per workload operation, `.us` metrics are mean
microseconds per call, and percentiles are over fits.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import tracemalloc
from time import perf_counter

import numpy as np

from spans import Patches, Tracer

from tlammcox import cli, cox, data, evaluation, penalties, solver

LAYERS = ("data", "cox", "penalties", "solver", "evaluation", "cli")
CHECK_KINDS = ("tlamm",)   # fits whose convergence flag asserts omega <= eps2


def _matvec_bytes(count):
    def on_call(tracer, args, kwargs, result):
        obj = args[0]
        tracer.weight["cox.matvec_bytes"] += count * 8.0 * obj.n * obj.p
        tracer.weight["cox.matvecs"] += count
    return on_call


def _loop_name(args, kwargs):
    return "solver.loop1" if kwargs["stage"] == 1 else "solver.loop2"


def _loop_done(tracer, args, kwargs, result):
    _, steps, ok, _ = result
    if not ok and steps == kwargs["config"].max_iter_stage:
        tracer.weight["solver.cap_hits"] += 1


def _fit_done(tracer, args, kwargs, fit):
    tracer.samples["solver.steps"].append(sum(fit.iterations))
    if not all(fit.converged):
        tracer.weight["solver.nonconverged"] += 1


def _csv_written(tracer, args, kwargs, result):
    tracer.weight["data.csv_bytes"] += os.path.getsize(str(args[1]))


def _concordance_with_peak(fn):
    """concordance_index measured for peak traced allocation (numpy
    registers its buffers with tracemalloc)."""
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            measured.peaks.append(peak)
    measured.peaks = []
    return measured


def install_tracer() -> Tracer:
    """Wrap every traced function; call `uninstall()` on the result to undo."""
    tr = Tracer()
    functions = [
        (data.simulate_dataset, "data.simulate", None),
        (data.build_risk_cache, "data.risk_cache", None),
        (data.save_csv, "data.save_csv", _csv_written),
        (data.load_csv, "data.load_csv", None),
        (cox.fit_restricted, "cox.fit_restricted", None),
        (penalties.shift_value, "penalties.shift_value", None),
        (penalties.shift_gradient, "penalties.shift_gradient", None),
        (penalties.derivative, "penalties.derivative", None),
        (penalties.value, "penalties.value", None),
        (solver.tlamm, "solver.tlamm", _fit_done),
        (solver.ilamm, "solver.ilamm", _fit_done),
        (solver._lamm_loop, _loop_name, _loop_done),
        (solver.line_search, "solver.line_search", None),
        (solver.lamm_step, "solver.lamm_step", None),
        (solver.omega, "solver.omega", None),
        (evaluation.run_experiment, "evaluation.run_experiment", None),
        (evaluation._run_rep, "evaluation.unit", None),
        (evaluation.cross_validate, "evaluation.cv", None),
        (evaluation._cv_fit_task, "evaluation.cv_fit", None),
        (evaluation.selection_metrics, "evaluation.metrics", None),
        (evaluation.l2_error, "evaluation.metrics", None),
        (cli.main, "cli.main", None),
        (cli.cmd_simulate, "cli.simulate", None),
        (cli.cmd_fit, "cli.fit", None),
        (cli._load_data, "cli.load_data", None),
        (cli._write_json, "cli.write_json", None),
    ]
    for fn, name, on_call in functions:
        tr.patch_function(fn, tr.wrap(name, fn, on_call))
    concordance = _concordance_with_peak(evaluation.concordance_index)
    tr.patch_function(evaluation.concordance_index,
                      tr.wrap("evaluation.concordance", concordance))
    tr.concordance_peaks = concordance.peaks
    methods = [
        (cox.CoxObjective, "__init__", "cox.init", None),
        (cox.CoxObjective, "nll", "cox.nll", _matvec_bytes(1)),
        (cox.CoxObjective, "value_and_gradient", "cox.vg", _matvec_bytes(2)),
        (cox.CoxObjective, "gradient", "cox.gradient", _matvec_bytes(2)),
        (cox.CoxObjective, "hessian", "cox.hessian", _matvec_bytes(1)),
        (solver.SolverTrace, "write_csv", "cli.write_trace", None),
    ]
    for cls, attr, name, on_call in methods:
        tr.patch_method(cls, attr, tr.wrap(name, getattr(cls, attr), on_call))
    return tr


# ------------------------------------------------------------ derivation

# per-layer metrics that every workload exercises; they make up the
# traced run's JSON line
COMMON = {
    "cox.nll.calls": "count", "cox.nll.us": "us",
    "cox.vg.calls": "count", "cox.vg.us": "us",
    "cox.gradient.calls": "count", "cox.hessian.calls": "count",
    "cox.init.us": "us", "cox.matvecs": "count", "cox.mb_computed": "MB",
    "penalties.shift_value.calls": "count", "penalties.shift_value.us": "us",
    "penalties.shift_gradient.calls": "count",
    "penalties.shift_gradient.us": "us",
    "penalties.derivative.calls": "count",
    "solver.stage1.s": "s", "solver.stage2.s": "s",
    "solver.ls.calls": "count", "solver.ls.us": "us",
    "solver.ls.trials": "count", "solver.ls.accept_ratio": "ratio",
    "solver.steps_p50": "count", "solver.steps_p90": "count",
    "solver.cap_hits": "count", "solver.nonconverged": "count",
    "data.simulate.s": "s", "data.risk_cache.s": "s",
    "evaluation.cv.fits": "count",
    **{f"{layer}.self.s": "s" for layer in LAYERS if layer != "cli"},
}

# per-layer metrics of layers only some workloads reach; printed as report
# lines when the layer ran
SPECIFIC = {
    "cox.gradient.us": "us", "cox.hessian.us": "us", "cox.fit_restricted.s": "s",
    "evaluation.unit.self_s": "s", "evaluation.cv.score_s": "s",
    "evaluation.concordance.s": "s", "evaluation.concordance.mb": "MB",
    "data.save_csv.s": "s", "data.load_csv.s": "s", "data.csv.mb": "MB",
    "cli.fit.load_s": "s", "cli.fit.solve_s": "s", "cli.fit.write_s": "s",
    "cli.fit.summary_eval_s": "s", "cli.self.s": "s",
}


def layer_metrics(tr: Tracer, ops: int):
    """(common, specific): dicts name -> (value, samples); units are in
    COMMON and SPECIFIC. Specific entries are present only for layers the
    workload reached."""
    rows = tr.spans()
    calls, total, self_by_layer = {}, {}, dict.fromkeys(LAYERS, 0.0)
    for name, start, end, _, self_s in rows:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        layer = name.split(".", 1)[0]
        if layer in self_by_layer:
            self_by_layer[layer] += self_s

    def n(name):
        return calls.get(name, 0)

    def per_op(x):
        return x / ops

    def us(name):
        return 1e6 * total[name] / calls[name] if calls.get(name) else 0.0

    def children_of(parent_name, child_names):
        out = 0.0
        for name, start, end, parent, _ in rows:
            if parent >= 0 and name in child_names and rows[parent][0] == parent_name:
                out += end - start
        return out

    steps = tr.samples.get("solver.steps", [])
    trials, accepted = n("solver.lamm_step"), n("solver.line_search")
    common = {
        "cox.nll.calls": (per_op(n("cox.nll")), n("cox.nll")),
        "cox.nll.us": (us("cox.nll"), n("cox.nll")),
        "cox.vg.calls": (per_op(n("cox.vg")), n("cox.vg")),
        "cox.vg.us": (us("cox.vg"), n("cox.vg")),
        "cox.gradient.calls": (per_op(n("cox.gradient")), n("cox.gradient")),
        "cox.hessian.calls": (per_op(n("cox.hessian")), n("cox.hessian")),
        "cox.init.us": (us("cox.init"), n("cox.init")),
        "cox.matvecs": (per_op(tr.weight["cox.matvecs"]), ops),
        "cox.mb_computed": (per_op(tr.weight["cox.matvec_bytes"]) / 1e6, ops),
        "penalties.shift_value.calls": (per_op(n("penalties.shift_value")),
                                        n("penalties.shift_value")),
        "penalties.shift_value.us": (us("penalties.shift_value"),
                                     n("penalties.shift_value")),
        "penalties.shift_gradient.calls": (per_op(n("penalties.shift_gradient")),
                                           n("penalties.shift_gradient")),
        "penalties.shift_gradient.us": (us("penalties.shift_gradient"),
                                        n("penalties.shift_gradient")),
        "penalties.derivative.calls": (per_op(n("penalties.derivative")),
                                       n("penalties.derivative")),
        "solver.stage1.s": (per_op(total.get("solver.loop1", 0.0)), n("solver.loop1")),
        "solver.stage2.s": (per_op(total.get("solver.loop2", 0.0)), n("solver.loop2")),
        "solver.ls.calls": (per_op(accepted), accepted),
        "solver.ls.us": (us("solver.line_search"), accepted),
        "solver.ls.trials": (per_op(trials), trials),
        "solver.ls.accept_ratio": (accepted / trials if trials else 0.0, trials),
        "solver.steps_p50": (pct(steps, 50), len(steps)),
        "solver.steps_p90": (pct(steps, 90), len(steps)),
        "solver.cap_hits": (per_op(tr.weight["solver.cap_hits"]), len(steps)),
        "solver.nonconverged": (per_op(tr.weight["solver.nonconverged"]), len(steps)),
        "data.simulate.s": (per_op(total.get("data.simulate", 0.0)), n("data.simulate")),
        "data.risk_cache.s": (per_op(total.get("data.risk_cache", 0.0)),
                              n("data.risk_cache")),
        "evaluation.cv.fits": (per_op(n("evaluation.cv_fit")), n("evaluation.cv_fit")),
    }
    for layer in LAYERS:
        if layer != "cli":
            common[f"{layer}.self.s"] = (per_op(self_by_layer[layer]), ops)

    specific = {}
    if n("cox.gradient"):
        specific["cox.gradient.us"] = (us("cox.gradient"), n("cox.gradient"))
    if n("cox.hessian"):
        specific["cox.hessian.us"] = (us("cox.hessian"), n("cox.hessian"))
    if n("cox.fit_restricted"):
        specific["cox.fit_restricted.s"] = (per_op(total["cox.fit_restricted"]),
                                            n("cox.fit_restricted"))
    if n("evaluation.unit"):
        unit_self = sum(r[4] for r in rows if r[0] == "evaluation.unit")
        specific["evaluation.unit.self_s"] = (per_op(unit_self), n("evaluation.unit"))
    if n("evaluation.cv"):
        specific["evaluation.cv.score_s"] = (
            per_op(children_of("evaluation.cv", {"cox.nll"})), n("evaluation.cv"))
    if n("evaluation.concordance"):
        specific["evaluation.concordance.s"] = (
            total["evaluation.concordance"] / n("evaluation.concordance"),
            n("evaluation.concordance"))
        specific["evaluation.concordance.mb"] = (
            max(tr.concordance_peaks) / 1e6, len(tr.concordance_peaks))
    for fn in ("save_csv", "load_csv"):
        if n(f"data.{fn}"):
            specific[f"data.{fn}.s"] = (total[f"data.{fn}"] / n(f"data.{fn}"),
                                        n(f"data.{fn}"))
    if n("data.save_csv"):
        specific["data.csv.mb"] = (tr.weight["data.csv_bytes"] / n("data.save_csv") / 1e6,
                                   n("data.save_csv"))
    if n("cli.fit"):
        fits = n("cli.fit")
        summary_children = {name for name in calls
                            if name.split(".", 1)[0] in ("cox", "penalties", "evaluation")
                            or name == "solver.omega"}
        for key, names in (("load_s", {"cli.load_data"}),
                           ("solve_s", {"solver.tlamm", "solver.ilamm"}),
                           ("write_s", {"cli.write_json", "cli.write_trace"}),
                           ("summary_eval_s", summary_children)):
            specific[f"cli.fit.{key}"] = (children_of("cli.fit", names) / fits, fits)
    if n("cli.main"):
        specific["cli.self.s"] = (per_op(self_by_layer["cli"]), ops)
    return common, specific


# ------------------------------------------------------------- fit probe

class FitProbe(Patches):
    """Times every penalized fit at the evaluation and CLI call sites and
    checks its output: beta finite with length p, and for fits whose
    convergence flag asserts it (TLAMM, see CHECK_KINDS) the folded-concave
    stationarity omega(grad + shift_gradient, beta, lambda) <= eps2,
    computed with the public functions. Check time is tallied apart so
    callers can leave it out of their timings, and a traced run records
    each check as one `bench.check` span, so it counts in no layer."""

    def __init__(self, tracer: Tracer | None = None):
        super().__init__()
        self.tracer = tracer
        self.seconds = []
        self.failures = []
        self.check_s = 0.0
        self.ilamm_kkt_exceed = 0

    def install(self):
        for module in (evaluation, cli):
            for name in ("tlamm", "ilamm"):
                self._set(module, name, self._wrap(name, getattr(module, name)))
        return self

    def _wrap(self, kind, fn):
        def probed(dataset, spec, config=solver.SolverConfig(), *rest, **kwargs):
            t0 = perf_counter()
            fit = fn(dataset, spec, config, *rest, **kwargs)
            self.seconds.append(perf_counter() - t0)
            t1 = perf_counter()
            with (self.tracer.opaque("bench.check") if self.tracer is not None
                  else contextlib.nullcontext()):
                self._check(kind, dataset, spec, config, fit)
            self.check_s += perf_counter() - t1
            return fit
        return probed

    def _check(self, kind, dataset, spec, config, fit):
        beta = np.asarray(fit.beta)
        if beta.shape != (dataset.p,) or not np.all(np.isfinite(beta)):
            self.failures.append(f"{kind}: beta not finite with length {dataset.p}")
            return
        if not fit.converged[1]:
            return
        grad = (cox.CoxObjective(dataset).gradient(beta)
                + penalties.shift_gradient(spec, beta))
        w = solver.omega(grad, beta, spec.lam)
        if w <= config.eps2:
            return
        if kind in CHECK_KINDS:
            self.failures.append(f"{kind}-{spec.kind}: converged but omega "
                                 f"{w:.3g} > eps2 {config.eps2:g}")
        else:
            self.ilamm_kkt_exceed += 1


def untraced(tracer):
    """Context in which calls are not recorded (checks made by the bench)."""
    return tracer.pause() if tracer is not None else contextlib.nullcontext()


def median(values):
    return statistics.median(values) if values else 0.0


def pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0
