"""Command-line front end: power flow, OPF runs, penalty sweeps, sensitivities.

Commands::

    vudlmp pf   <net> [--out DIR]
    vudlmp opf  <net> --mode={none,hard,soft} [--limit PCT | --penalty W] [--out DIR]
    vudlmp sweep <cfg.json> [--jobs N]
    vudlmp sens <net> [--out DIR]

Networks are JSON files (see netmodel) or the bundled names ``simple5`` and
``eulv117``.  All CSV output is UTF-8 with LF line endings and ``.`` decimal
separators, and is byte-identical across repeated runs with the same config
except for the wall-clock timing column.  Networks whose power-flow
Jacobian is factored by SuperLU (eulv117) give the same bytes at any BLAS
thread count; on the small dense path (simple5) the LAPACK factorization
may round by thread count.  Exit codes: 0 success, 1 config or
parse error, 2 solver failure (or, in a sweep, a case that raised; its
status is ``error``).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dlmp import COMPONENTS, StepTooSmall, decompose, sensitivity_report
from .ipsolver import SolverSettings, solve
from .netmodel import (
    NetworkError,
    UnbalanceConfig,
    is_number,
    load_network,
)
from .opf import build_problem
from .powerflow import PowerFlowDiverged, PowerFlowError, solve_pf
from .sequence import vuf

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2

SUMMARY_COLUMNS = ("case_id", "total_gen_cost_eur", "total_losses_kw",
                   "highest_vuf_pct", "vuf_bus", "status", "wall_ms")

UNIT_FOOTER = """\
unit conversions
  prices         duals are EUR/h per per-unit power; divided by the kW base
                 (base_kva) they become EUR/kWh (EUR/kvarh for reactive)
  power          per-unit * base_kva = kW / kvar / kVA (per phase)
  voltage        per-unit * base_volt_ln = volt, line-to-neutral
  unbalance f    squared percent (VUF^2); VUF itself is percent
decomposition convention: component sensitivities use the power-flow Jacobian
at the solved point with generation held fixed (the slack absorbs
perturbations); the loss component is the remainder of the nodal dual after
energy, congestion, voltage-limit and unbalance terms.
"""


class ConfigError(Exception):
    """Bad scenario configuration (distinct from solver failures)."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One OPF scenario: network, unbalance treatment, solver and output knobs."""
    network: str
    mode: str = "none"
    limit_pct: float = 1.0
    penalty: float = 0.0
    penalty_on: str = "f"           # "f" penalizes VUF^2, "vuf" penalizes VUF
    outdir: str | None = None
    case_id: str = "case"
    sweep_weights: tuple = ()       # soft-mode penalty weights for sweeps
    sweep_limits: tuple = ()        # hard-mode limits for sweeps
    jobs: int | None = None
    kkt_tol: float = 1e-6
    max_iter: int = 300
    with_sensitivity: bool = False

    def __post_init__(self):
        if not isinstance(self.network, str):
            raise ConfigError(f"network must be a string, got {self.network!r}")
        if not isinstance(self.outdir, (str, type(None))):
            raise ConfigError(f"outdir must be a string or null, got {self.outdir!r}")
        if not isinstance(self.with_sensitivity, bool):
            raise ConfigError(
                f"with_sensitivity must be true or false, got {self.with_sensitivity!r}")
        if self.mode not in ("none", "hard", "soft"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.penalty_on not in ("f", "vuf"):
            raise ConfigError(f"penalty_on must be 'f' or 'vuf', got {self.penalty_on!r}")
        if self.jobs is not None and not (is_number(self.jobs, integral=True)
                                          and self.jobs >= 1):
            raise ConfigError(f"jobs must be an integer of at least 1, got {self.jobs!r}")
        for name in ("limit_pct", "penalty"):
            if not is_number(getattr(self, name)):
                raise ConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
        # csv leaves a carriage return unquoted, so it would split a row
        if not isinstance(self.case_id, str) or {"/", os.sep, "\r"} & set(self.case_id):
            raise ConfigError(f"case_id must be a string with no path separator or "
                              f"carriage return, got {self.case_id!r}")
        for name, mode in (("sweep_weights", "soft"), ("sweep_limits", "hard")):
            values = getattr(self, name)
            if not (isinstance(values, (list, tuple)) and all(map(is_number, values))):
                raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
            if values and self.mode != mode:
                raise ConfigError(f"{name} applies to {mode} mode only, not {self.mode!r}")
            object.__setattr__(self, name, tuple(values))

    @classmethod
    def from_file(cls, path):
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: the config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        if "network" not in doc:
            raise ConfigError(f"{path}: missing 'network'")
        return cls(**doc)


@dataclass
class ScenarioResult:
    """Per-run outcome mirroring the summary table structure."""
    case_id: str
    status: str
    total_gen_cost_eur: float | None = None
    total_losses_kw: float | None = None
    highest_vuf_pct: float | None = None
    vuf_bus: str | None = None
    breakdown: list = field(default_factory=list)
    sensitivity: list | None = None
    wall_ms: float = 0.0
    weight: float | None = None
    message: str = ""

    @property
    def ok(self):
        return self.status == "success"


def _resolve_network(name):
    p = Path(name)
    if p.exists():
        return p
    from . import bundled_network
    candidate = bundled_network(name)
    if candidate.is_file():
        return candidate
    raise ConfigError(f"network {name!r}: no such file or bundled network")


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _pf_failure(exc):
    """One line naming a PowerFlowError: diverged, or failed otherwise."""
    return f"power flow {'diverged' if isinstance(exc, PowerFlowDiverged) else 'failed'}: {exc}"


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Load, warm-start, solve and decompose one scenario."""
    t0 = time.perf_counter()
    result = ScenarioResult(case_id=cfg.case_id, status="config-error")
    try:
        net = load_network(_resolve_network(cfg.network))
        ub = UnbalanceConfig(
            mode=cfg.mode,
            vuf_limit_pct=cfg.limit_pct if cfg.mode == "hard" else 0.0,
            penalty_weight=cfg.penalty if cfg.mode == "soft" else 0.0,
            buses=net.unbalance.buses,
        )
        settings = SolverSettings(kkt_tol=cfg.kkt_tol, max_iter=cfg.max_iter)
    except (NetworkError, ConfigError, ValueError) as exc:
        result.message = str(exc)
        result.wall_ms = 1e3 * (time.perf_counter() - t0)
        return result
    notes = []
    try:
        warm = solve_pf(net)
    except PowerFlowError as exc:
        warm = None
        notes.append(f"OPF cold-started ({_pf_failure(exc)})")
    prob = build_problem(net, ub, penalty_on=cfg.penalty_on)
    sol = solve(prob, warm=warm, settings=settings)
    if sol.success:
        bus, worst = sol.max_vuf()
        result.status = "success"
        result.total_gen_cost_eur = sol.total_gen_cost()
        result.total_losses_kw = sol.total_losses_pu() * net.base_kw
        result.highest_vuf_pct = worst
        result.vuf_bus = bus
        result.breakdown = decompose(sol)
        if cfg.with_sensitivity and warm is not None:
            result.sensitivity = sensitivity_report(net, warm)
        elif cfg.with_sensitivity:
            notes.append("sensitivity report skipped")
    else:
        result.status = "infeasible-or-nonconverged"
        notes.insert(0, sol.message)
    result.message = "; ".join(notes)
    result.wall_ms = 1e3 * (time.perf_counter() - t0)
    return result


def _sweep_worker(cfg: ScenarioConfig):
    try:
        return run_scenario(cfg)
    except Exception as exc:     # per-run isolation: a bug fails this run only
        traceback.print_exc()
        return ScenarioResult(case_id=cfg.case_id, status="error",
                              message=f"{type(exc).__name__}: {exc}")


def run_sweep(cfg: ScenarioConfig) -> list:
    """Independent runs over a weight (soft) or limit (hard) list."""
    if cfg.mode == "hard":
        values = cfg.sweep_limits
        knob = "limit_pct"
    else:
        values = cfg.sweep_weights
        knob = "penalty"
    if not values:
        raise ConfigError("sweep requested with an empty weight/limit list")
    cases = [replace(cfg, case_id=f"{cfg.case_id}_{knob}_{_fmt(float(v))}",
                     **{knob: float(v)}) for v in values]
    ids = [case.case_id for case in cases]
    if len(set(ids)) < len(ids):
        raise ConfigError(f"sweep values name case {max(ids, key=ids.count)!r} more than "
                          "once; no two may print alike to 10 significant digits")
    nworkers = cfg.jobs or os.cpu_count() or 1
    if nworkers > 1 and len(cases) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=nworkers) as pool:
            results = list(pool.map(_sweep_worker, cases))
    else:
        results = [_sweep_worker(case) for case in cases]
    for res, case in zip(results, cases):
        res.weight = getattr(case, knob)
    return results


# -- report emission --------------------------------------------------------


def _summary_row(r):
    return (r.case_id, r.total_gen_cost_eur, r.total_losses_kw,
            r.highest_vuf_pct, r.vuf_bus, r.status, round(r.wall_ms, 3))


def write_summary(results, path):
    _write_csv(path, SUMMARY_COLUMNS, [_summary_row(r) for r in results])


def write_dlmp(results, outdir):
    header = ("case_id", "bus", "phase", "total", "energy", "loss",
              "congestion", "voltage_limit", "unbalance")
    for kind, fname in (("active", "dlmp_active.csv"), ("reactive", "dlmp_reactive.csv")):
        rows = []
        for r in results:
            for d in r.breakdown:
                if d.power_kind != kind:
                    continue
                rows.append((r.case_id, d.bus, d.phase, d.total, d.energy,
                             d.loss, d.congestion, d.voltage_limit, d.unbalance))
        _write_csv(Path(outdir) / fname, header, rows)


def write_sensitivity(entries, path):
    header = ("bus", "phase", "power_kind", "closed_form", "finite_difference",
              "rel_gap", "incident_current_pu")
    rows = [
        (e.bus, e.phase, e.power_kind, e.closed_form, e.finite_difference,
         e.rel_gap, e.incident_current)
        for e in entries
    ]
    _write_csv(path, header, rows)


def emit_plot_data(result: ScenarioResult, outdir):
    """Long-format per-component price rows, one file per scenario result."""
    header = ("case_id", "bus", "phase", "power_kind", "component", "value_eur_per_kwh")
    rows = []
    for d in result.breakdown:
        rows.append((result.case_id, d.bus, d.phase, d.power_kind, "total", d.total))
        for comp in COMPONENTS:
            rows.append((result.case_id, d.bus, d.phase, d.power_kind,
                         comp, getattr(d, comp)))
    path = Path(outdir) / f"dlmp_long_{result.case_id}.csv"
    _write_csv(path, header, rows)
    return path


def _ensure_outdir(path):
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _print_footer(outdir=None):
    print(UNIT_FOOTER, end="")
    if outdir is not None:
        (Path(outdir) / "report_footer.txt").write_text(UNIT_FOOTER, encoding="utf-8")


def _emit_scenario_outputs(results, outdir):
    out = _ensure_outdir(outdir)
    write_summary(results, out / "summary.csv")
    write_dlmp(results, out)
    sens = [e for r in results if r.sensitivity for e in r.sensitivity]
    write_sensitivity(sens, out / "sensitivity.csv")
    for r in results:
        if r.ok:
            emit_plot_data(r, out)
    if any(r.weight is not None for r in results):     # a sweep
        _write_csv(out / "sweep.csv", ("weight",) + SUMMARY_COLUMNS,
                   [(r.weight,) + _summary_row(r) for r in results])
    _print_footer(out)


# -- commands ---------------------------------------------------------------


def _cmd_pf(args):
    net = load_network(_resolve_network(args.network))
    try:
        point = solve_pf(net)
    except PowerFlowError as exc:
        print(_pf_failure(exc), file=sys.stderr)
        return EXIT_SOLVER
    print(f"power flow converged in {point.iterations} iterations")
    print("bus        |v_a|     |v_b|     |v_c|     VUF%")
    v = point.voltages
    rows = list(zip(net.bus_ids, *np.hypot(v.real, v.imag).T, vuf(v)))
    for row in rows:
        print("{:<10} {:.5f}   {:.5f}   {:.5f}   {:.4f}".format(*row))
    bus, worst = point.max_vuf()
    print(f"losses: {point.losses * net.base_kw:.4f} kW; "
          f"highest VUF {worst:.4f}% at {bus}")
    if args.out:
        out = _ensure_outdir(args.out)
        _write_csv(out / "pf.csv",
                   ("bus", "vmag_a", "vmag_b", "vmag_c", "vuf_pct"), rows)
    _print_footer(args.out if args.out else None)
    return EXIT_OK


def _scenario_from_args(args):
    return ScenarioConfig(
        network=args.network, mode=args.mode, limit_pct=args.limit,
        penalty=args.penalty, penalty_on=args.penalty_on,
        outdir=args.out, case_id=args.case_id,
        kkt_tol=args.kkt_tol, max_iter=args.max_iter,
        with_sensitivity=args.sensitivity,
    )


def _exit_code(results):
    if any(r.status == "config-error" for r in results):
        return EXIT_CONFIG
    return EXIT_OK if all(r.ok for r in results) else EXIT_SOLVER


def _cmd_opf(args):
    cfg = _scenario_from_args(args)
    result = run_scenario(cfg)
    _emit_scenario_outputs([result], cfg.outdir or "out")
    if result.ok:
        print(f"{result.case_id}: cost {result.total_gen_cost_eur:.4f} EUR, "
              f"losses {result.total_losses_kw:.4f} kW, "
              f"highest VUF {result.highest_vuf_pct:.4f}% at {result.vuf_bus} "
              f"({result.wall_ms:.0f} ms)")
        if result.message:
            print(f"{result.case_id}: {result.message}", file=sys.stderr)
    else:
        print(f"{result.case_id}: {result.status} ({result.message})", file=sys.stderr)
    return _exit_code([result])


def _cmd_sweep(args):
    cfg = ScenarioConfig.from_file(args.config)
    if args.jobs is not None:
        cfg = replace(cfg, jobs=args.jobs)
    results = run_sweep(cfg)
    _emit_scenario_outputs(results, cfg.outdir or "out")
    for r in results:
        mark = "ok " if r.ok else "FAIL"
        vuf_txt = f"{r.highest_vuf_pct:.4f}%" if r.ok else "-"
        print(f"[{mark}] {r.case_id}: maxVUF {vuf_txt}")
    return _exit_code(results)


def _cmd_sens(args):
    if not (np.isfinite(args.step) and args.step > 0):
        raise ConfigError(f"--step must be a finite number > 0, got {args.step}")
    net = load_network(_resolve_network(args.network))
    try:
        entries = sensitivity_report(net, solve_pf(net), step=args.step)
    except PowerFlowError as exc:
        print(_pf_failure(exc), file=sys.stderr)
        return EXIT_SOLVER
    except StepTooSmall as exc:
        raise ConfigError(f"--step: {exc}") from None
    out = _ensure_outdir(args.out or "out")
    write_sensitivity(entries, out / "sensitivity.csv")
    defined = [e for e in entries if e.defined]
    agree = sum(1 for e in defined
                if np.sign(e.closed_form) == np.sign(e.finite_difference))
    print(f"{len(entries)} entries, {len(defined)} defined, "
          f"{agree}/{len(defined)} sign agreement closed-form vs finite-difference")
    _print_footer(out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # usage errors are config errors, not solver failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser():
    parser = _Parser(prog="vudlmp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_pf = sub.add_parser("pf", help="three-phase power flow at fixed injections")
    p_pf.add_argument("network")
    p_pf.add_argument("--out", default=None, help="directory for pf.csv")
    p_pf.set_defaults(func=_cmd_pf)

    p_opf = sub.add_parser("opf", help="optimal power flow with DLMP extraction")
    p_opf.add_argument("network")
    p_opf.add_argument("--mode", choices=("none", "hard", "soft"), default="none")
    p_opf.add_argument("--limit", type=float, default=1.0,
                       help="hard mode: VUF limit in percent")
    p_opf.add_argument("--penalty", type=float, default=0.0,
                       help="soft mode: penalty weight in EUR/h per unit of metric")
    p_opf.add_argument("--penalty-on", choices=("f", "vuf"), default="f",
                       help="penalize VUF^2 ('f', default) or VUF ('vuf')")
    p_opf.add_argument("--out", default="out")
    p_opf.add_argument("--case-id", default="case")
    p_opf.add_argument("--kkt-tol", type=float, default=1e-6)
    p_opf.add_argument("--max-iter", type=int, default=300)
    p_opf.add_argument("--sensitivity", action="store_true",
                       help="also emit the unbalance sensitivity report")
    p_opf.set_defaults(func=_cmd_opf)

    p_sw = sub.add_parser("sweep", help="independent runs over penalty weights or limits")
    p_sw.add_argument("config", help="JSON scenario config with sweep_weights/sweep_limits")
    p_sw.add_argument("--jobs", type=int, default=None,
                      help="worker processes (default: number of cores)")
    p_sw.set_defaults(func=_cmd_sweep)

    p_sens = sub.add_parser("sens", help="closed-form vs finite-difference sensitivities")
    p_sens.add_argument("network")
    p_sens.add_argument("--out", default="out")
    p_sens.add_argument("--step", type=float, default=1e-5,
                        help="finite-difference perturbation, per-unit (finite, > 0)")
    p_sens.set_defaults(func=_cmd_sens)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except (NetworkError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
