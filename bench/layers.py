"""Per-layer metrics: which functions are traced and what each metric means.

``PER_LAYER`` is the list BENCHMARK.json's ``per_layer`` mirrors.  Each entry
names the end-to-end metric and workload it is predicted to move.  Times
named ``.s`` are self times (span minus child spans) summed over a pass,
except ``ipsolver.solve.s``, the whole solve, whose self time is
``ipsolver.self_s``; ``.calls`` are call counts per pass.  A layer a
workload never enters reads 0 there.
"""

from __future__ import annotations

import inspect
from collections import Counter

from tracer import Proxy, self_times

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("netmodel.load_network.s", "s", "lower", "setup_s and wall_s on small-sweep"),
    ("netmodel.load_network.calls", "count", "lower", "setup_s and wall_s on small-sweep"),
    ("netmodel.bus_index.calls", "count", "lower", "wall_s on feeder-hard"),
    ("netmodel.line_y.calls", "count", "lower", "wall_s on feeder-hard"),
    ("sequence.s", "s", "lower", "wall_s on feeder-sens"),
    ("sequence.calls", "count", "lower", "wall_s on feeder-sens"),
    ("powerflow.solve_pf.s", "s", "lower", "wall_s on feeder-sens; flat on feeder-hard"),
    ("powerflow.solve_pf.calls", "count", "lower", "wall_s on feeder-sens"),
    ("powerflow.newton_iters", "count", "lower", "wall_s on feeder-sens"),
    ("powerflow.build_ybus.s", "s", "lower", "wall_s on feeder-sens"),
    ("powerflow.build_ybus.calls", "count", "lower", "wall_s on feeder-sens"),
    ("opf.build_problem.s", "s", "lower", "wall_s on small-sweep and feeder-hard"),
    ("opf.evaluate.s", "s", "lower", "wall_s on feeder-hard; flat on feeder-sens"),
    ("opf.evaluate.calls", "count", "lower", "wall_s on feeder-hard"),
    ("opf.eval_eq.s", "s", "lower", "wall_s on feeder-hard; flat on feeder-sens"),
    ("opf.eval_eq.calls", "count", "lower", "wall_s on feeder-hard"),
    ("opf.eval_ineq.s", "s", "lower", "wall_s on feeder-hard; flat on feeder-sens"),
    ("opf.eval_ineq.calls", "count", "lower", "wall_s on feeder-hard"),
    ("opf.hess_lagrangian.s", "s", "lower", "wall_s on feeder-hard; flat on feeder-sens"),
    ("opf.hess_lagrangian.calls", "count", "lower", "wall_s on feeder-hard"),
    ("opf.objective_value.s", "s", "lower", "wall_s on feeder-hard; flat on feeder-sens"),
    ("opf.objective_value.calls", "count", "lower", "wall_s on feeder-hard"),
    ("opf.vuf_kernel.s", "s", "lower", "wall_s on feeder-hard; flat on feeder-sens"),
    ("opf.vuf_kernel.calls", "count", "lower", "wall_s on feeder-hard"),
    ("opf.nvar", "count", "lower", "record only"),
    ("opf.n_eq", "count", "lower", "record only"),
    ("opf.n_ineq", "count", "lower", "record only"),
    ("ipsolver.solve.s", "s", "lower", "wall_s on feeder-hard; flat on feeder-sens"),
    ("ipsolver.self_s", "s", "lower", "wall_s on feeder-hard"),
    ("ipsolver.iterations", "count", "lower", "wall_s on feeder-hard"),
    ("ipsolver.ls_trials", "count", "lower", "wall_s on feeder-hard"),
    ("ipsolver.ls_trials_per_iter", "ratio", "lower", "wall_s on feeder-hard"),
    ("ipsolver.factor_sparse.calls", "count", "lower", "wall_s on feeder-hard"),
    ("ipsolver.factor_dense.calls", "count", "lower", "wall_s on small-sweep"),
    ("ipsolver.factor.s", "s", "lower", "wall_s on feeder-hard and small-sweep"),
    ("ipsolver.factors_per_iter", "ratio", "lower", "wall_s on feeder-hard"),
    ("ipsolver.kkt_residual_max", "1", "lower", "record only"),
    ("dlmp.decompose.s", "s", "lower", "wall_s on feeder-hard"),
    ("dlmp.decompose.calls", "count", "lower", "wall_s on feeder-hard"),
    ("dlmp.sensitivity_report.s", "s", "lower", "wall_s on feeder-sens"),
    ("dlmp.sensitivity_closed_form.s", "s", "lower", "wall_s on feeder-sens"),
    ("dlmp.sensitivity_closed_form.calls", "count", "lower", "wall_s on feeder-sens"),
    ("dlmp.perturb_and_resolve.calls", "count", "lower", "wall_s on feeder-sens"),
    ("dlmp.decomp_residual_max", "EUR/kWh", "lower", "record only"),
    ("dlmp.sens_rel_gap_max", "1", "lower", "record only"),
    ("cli.run_scenario.s", "s", "lower", "wall_s on small-sweep"),
    ("cli.run_scenario.calls", "count", "lower", "wall_s on small-sweep"),
    ("cli.emit.s", "s", "lower", "wall_s on small-sweep"),
    ("cli.bytes_written", "bytes", "lower", "wall_s on small-sweep"),
    ("cli.csv_identical", "share", "higher", "record only"),
    ("trace.overhead_s", "s", "lower", "record only"),
]

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

EMIT = ("write_summary", "write_dlmp", "write_sensitivity", "emit_plot_data")


def install(tracer):
    """Wrap every traced function of vudlmp; ``tracer.restore()`` undoes it."""
    from vudlmp import cli, dlmp, ipsolver, netmodel, opf, powerflow, sequence

    t = tracer

    def span(name, note=None):
        return lambda fn: t.span(name, fn, note)

    t.wrap_everywhere(netmodel.load_network, span("netmodel.load_network"))
    t.replace_attr(netmodel.NetworkSpec, "bus_index",
                   t.counter("netmodel.bus_index", netmodel.NetworkSpec.bus_index))
    t.replace_attr(netmodel.LineSpec, "y",
                   property(t.counter("netmodel.line_y", netmodel.LineSpec.y.fget)))
    for fn in (sequence.fortescue, sequence.vuf, sequence.f_metric, sequence.grad_f):
        t.wrap_everywhere(fn, span("sequence." + fn.__name__))

    t.wrap_everywhere(powerflow.solve_pf, span(
        "powerflow.solve_pf", lambda a, k, r: {"iters": r.iterations}))
    t.wrap_everywhere(powerflow.build_ybus, span("powerflow.build_ybus"))
    t.wrap_everywhere(opf.build_problem, span(
        "opf.build_problem",
        lambda a, k, r: {"nvar": r.nvar, "n_eq": r.n_eq, "n_ineq": r.n_ineq}))
    for meth in ("evaluate", "eval_ineq", "hess_lagrangian", "objective_value"):
        t.replace_attr(opf.OpfProblem, meth,
                       t.span("opf." + meth, getattr(opf.OpfProblem, meth)))
    t.replace_attr(opf.OpfProblem, "eval_eq", t.span(
        "opf.eval_eq", opf.OpfProblem.eval_eq,
        lambda a, k, r: {"jac": k.get("want_jac", a[2] if len(a) > 2 else True)}))
    for fn in (opf.vuf_metric_local, opf.vuf_metric_grad_hess):
        t.wrap_everywhere(fn, span("opf.vuf_kernel"))

    t.wrap_everywhere(ipsolver.solve, span(
        "ipsolver.solve", lambda a, k, r: {"iterations": r.iterations}))
    t.proxy(ipsolver, "lapack", dsytrf=t.span(
        "ipsolver.factor_dense", ipsolver.lapack.dsytrf))
    t.proxy(ipsolver, "sp", linalg=Proxy(ipsolver.sp.linalg, splu=t.span(
        "ipsolver.factor_sparse", ipsolver.sp.linalg.splu)))

    t.wrap_everywhere(dlmp.decompose, span("dlmp.decompose"))
    t.wrap_everywhere(dlmp.sensitivity_report, span("dlmp.sensitivity_report"))
    t.wrap_everywhere(dlmp.sensitivity_closed_form, span("dlmp.sensitivity_closed_form"))
    t.wrap_everywhere(powerflow.perturb_and_resolve,
                      lambda fn: t.counter("dlmp.perturb_and_resolve", fn))

    t.wrap_everywhere(inspect.unwrap(cli.run_scenario), span("cli.run_scenario"))
    for name in EMIT:
        t.wrap_everywhere(getattr(cli, name), span("cli." + name))


def metrics(spans, counts, stats):
    """Per-layer metrics of one traced pass.

    ``spans`` and ``counts`` are what the pass recorded; ``stats`` holds the
    values the correctness checks and the output files gave.
    """
    selft = self_times(spans)
    calls = Counter(s[2] for s in spans)
    dur = Counter()
    sums = Counter()    # (span name, attribute) -> sum over the pass
    peaks = Counter()   # (span name, attribute) -> largest value
    for _, _, name, t0, t1, attrs in spans:
        dur[name] += t1 - t0
        for key, value in (attrs or {}).items():
            sums[name, key] += value
            peaks[name, key] = max(peaks[name, key], value)

    m = {}
    for name in ("netmodel.load_network", "powerflow.solve_pf", "powerflow.build_ybus",
                 "opf.evaluate", "opf.eval_eq", "opf.eval_ineq", "opf.hess_lagrangian",
                 "opf.objective_value", "opf.vuf_kernel", "dlmp.decompose",
                 "dlmp.sensitivity_closed_form", "cli.run_scenario"):
        m[name + ".s"] = selft[name]
        m[name + ".calls"] = calls[name]
    m["netmodel.bus_index.calls"] = counts["netmodel.bus_index"]
    m["netmodel.line_y.calls"] = counts["netmodel.line_y"]
    seq = [n for n in calls if n.startswith("sequence.")]
    m["sequence.s"] = sum(selft[n] for n in seq)
    m["sequence.calls"] = sum(calls[n] for n in seq)
    m["powerflow.newton_iters"] = sums["powerflow.solve_pf", "iters"]
    m["opf.build_problem.s"] = selft["opf.build_problem"]
    for key in ("nvar", "n_eq", "n_ineq"):
        m["opf." + key] = peaks["opf.build_problem", key]

    iters = sums["ipsolver.solve", "iterations"]
    factors = calls["ipsolver.factor_sparse"] + calls["ipsolver.factor_dense"]
    ls_trials = _ls_trials(spans)
    m["ipsolver.solve.s"] = dur["ipsolver.solve"]
    m["ipsolver.self_s"] = selft["ipsolver.solve"]
    m["ipsolver.iterations"] = iters
    m["ipsolver.ls_trials"] = ls_trials
    m["ipsolver.ls_trials_per_iter"] = ls_trials / iters if iters else 0.0
    m["ipsolver.factor_sparse.calls"] = calls["ipsolver.factor_sparse"]
    m["ipsolver.factor_dense.calls"] = calls["ipsolver.factor_dense"]
    m["ipsolver.factor.s"] = dur["ipsolver.factor_sparse"] + dur["ipsolver.factor_dense"]
    m["ipsolver.factors_per_iter"] = factors / iters if iters else 0.0
    m["ipsolver.kkt_residual_max"] = stats.get("kkt_residual_max", 0.0)

    m["dlmp.sensitivity_report.s"] = selft["dlmp.sensitivity_report"]
    m["dlmp.perturb_and_resolve.calls"] = counts["dlmp.perturb_and_resolve"]
    m["dlmp.decomp_residual_max"] = stats.get("decomp_residual_max", 0.0)
    m["dlmp.sens_rel_gap_max"] = stats.get("sens_rel_gap_max", 0.0)
    m["cli.emit.s"] = sum(selft["cli." + name] for name in EMIT)
    m["cli.bytes_written"] = stats["bytes_written"]
    m["cli.csv_identical"] = stats["csv_identical"]
    return m


def _ls_trials(spans):
    """No-Jacobian ``eval_eq`` calls made inside ``ipsolver.solve``: line-search trials."""
    by_id = {s[0]: s for s in spans}
    trials = 0
    for sid, parent, name, _, _, attrs in spans:
        if name != "opf.eval_eq" or not attrs or attrs["jac"]:
            continue
        while parent >= 0:
            if by_id[parent][2] == "ipsolver.solve":
                trials += 1
                break
            parent = by_id[parent][1]
    return trials
