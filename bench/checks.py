"""Correctness of every operation a pass attempted, and the seed-0 reference.

An operation is one OPF scenario (solve plus decompose) or one sensitivity
entry.  It fails when its status is not success, it raised, its KKT
residuals recomputed through ``problem.evaluate`` reach ``KKT_TOL``, a
decomposition residual reaches ``KKT_TOL``, a hard VUF limit is exceeded,
a closed-form sensitivity and its finite difference disagree, or, at seed
0, it differs from the stored reference.  The reference is written only by
``run.py --regen-reference``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from vudlmp.dlmp import COMPONENTS

KKT_TOL = 1e-6          # the solver tolerance every workload runs with
RTOL = 1e3 * KKT_TOL    # reference comparison: duals are accurate to about
ATOL = 10 * KKT_TOL     # kkt_tol times the KKT conditioning
SENS_GAP_TOL = 0.05     # closed form vs finite difference, relative

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload):
    path = reference_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def recomputed_residuals(sol):
    """Stationarity, feasibility and complementarity re-derived from x, y, z."""
    e = sol.problem.evaluate(sol.x)
    r_d = e.grad_objective + e.jac_eq.T @ sol.y_eq + e.jac_ineq.T @ sol.z_ineq
    return (float(np.max(np.abs(r_d))),
            float(max(np.max(np.abs(e.c_eq)), np.max(e.c_ineq, initial=0.0))),
            float(np.max(np.abs(sol.z_ineq * e.c_ineq))))


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return math.isfinite(a) and abs(a - b) <= ATOL + RTOL * abs(b)


def scenario_record(sc):
    """What the reference stores for one scenario."""
    r = sc.result
    return {
        "status": r.status,
        "cost": r.total_gen_cost_eur,
        "max_vuf": r.highest_vuf_pct,
        "vuf_bus": r.vuf_bus,
        "prices": [[d.bus, d.phase, d.power_kind, d.total]
                   + [getattr(d, c) for c in COMPONENTS] for d in r.breakdown],
    }


def sensitivity_record(entries):
    return [[e.bus, e.phase, e.power_kind, e.closed_form, e.finite_difference]
            for e in entries]


def check_scenario(sc, ref, stats):
    """Failure messages for one scenario; empty when it is correct."""
    r = sc.result
    if r is None:
        return [f"{sc.case_id}: raised"]
    if not r.ok:
        return [f"{sc.case_id}: status {r.status} ({r.message})"]
    bad = []
    stat, feas, comp = recomputed_residuals(sc.solution)
    worst = max(stat, feas, comp)
    stats["kkt_residual_max"] = max(stats.get("kkt_residual_max", 0.0), worst)
    if worst >= KKT_TOL:
        bad.append(f"{sc.case_id}: recomputed KKT residual {worst:.3e}")
    resid = max(abs(d.residual) for d in r.breakdown)
    stats["decomp_residual_max"] = max(stats.get("decomp_residual_max", 0.0), resid)
    if resid >= KKT_TOL:
        bad.append(f"{sc.case_id}: decomposition residual {resid:.3e}")
    if sc.mode == "hard" and r.highest_vuf_pct > sc.limit_pct + ATOL:
        bad.append(f"{sc.case_id}: VUF {r.highest_vuf_pct} % above the "
                   f"{sc.limit_pct} % limit")
    if ref is None:
        return bad
    got = scenario_record(sc)
    for key in ("cost", "max_vuf"):
        if not _close(got[key], ref[key]):
            bad.append(f"{sc.case_id}: {key} {got[key]!r} != reference {ref[key]!r}")
    if got["vuf_bus"] != ref["vuf_bus"]:
        bad.append(f"{sc.case_id}: max VUF at {got['vuf_bus']}, reference "
                   f"{ref['vuf_bus']}")
    if len(got["prices"]) != len(ref["prices"]):
        bad.append(f"{sc.case_id}: {len(got['prices'])} price rows, reference "
                   f"{len(ref['prices'])}")
        return bad
    for row, want in zip(got["prices"], ref["prices"]):
        if row[:3] != want[:3] or not all(map(_close, row[3:], want[3:])):
            bad.append(f"{sc.case_id}: price {row} != reference {want}")
            break
    return bad


def check_sensitivity(entry, ref, stats):
    """Failure messages for one sensitivity entry."""
    key = f"{entry.bus}/{entry.phase}/{entry.power_kind}"
    bad = []
    if entry.defined:
        gap = entry.rel_gap
        stats["sens_rel_gap_max"] = max(stats.get("sens_rel_gap_max", 0.0), gap)
        if not (math.isfinite(entry.closed_form) and gap < SENS_GAP_TOL):
            bad.append(f"{key}: closed form {entry.closed_form} vs finite "
                       f"difference {entry.finite_difference} (gap {gap})")
    if ref is not None:
        got = sensitivity_record([entry])[0]
        if got[:3] != ref[:3] or not all(map(_close, got[3:], ref[3:])):
            bad.append(f"{key}: {got} != reference {ref}")
    return bad


def check_pass(out, reference):
    """(attempted, failure messages, stats) for one pass's output.

    ``reference`` is the stored seed-0 reference, or None at other seeds.
    """
    stats = {}
    failures = []
    if out.sensitivity is not None:
        entries = out.sensitivity
        refs = reference["sensitivity"] if reference else [None] * len(entries)
        if reference and len(refs) != len(entries):
            failures.append(f"{len(entries)} sensitivity entries, reference "
                            f"{len(refs)}")
            refs = [None] * len(entries)
        for entry, ref in zip(entries, refs):
            failures += check_sensitivity(entry, ref, stats)
    for sc in out.scenarios:
        ref = None
        if reference:
            ref = reference["scenarios"].get(sc.case_id)
            if ref is None:
                failures.append(f"{sc.case_id}: not in the reference")
                continue
        failures += check_scenario(sc, ref, stats)
    done = len(out.scenarios) if out.sensitivity is None else len(out.sensitivity)
    missing = out.expected_ops - done
    if missing > 0:
        failures += [f"{missing} operations never ran: {out.error}"] * missing
    return max(out.expected_ops, done), failures, stats


def normalized_outputs(outdir):
    """Every file the pass wrote, as bytes, with any wall_ms column blanked.

    Wall-clock timings are the only bytes allowed to differ between runs.
    """
    out = {}
    for path in sorted(Path(outdir).rglob("*")):
        if not path.is_file():
            continue
        lines = path.read_text(encoding="utf-8").split("\n")
        header = lines[0].split(",")
        if "wall_ms" in header:
            col = header.index("wall_ms")
            rows = [ln.split(",") for ln in lines]
            for fields in rows[1:]:
                if len(fields) > col:
                    fields[col] = ""
            lines = [",".join(fields) for fields in rows]
        out[path.relative_to(outdir).as_posix()] = "\n".join(lines).encode()
    return out


def digests(outputs):
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def make_reference(workload, out, files):
    return {
        "workload": workload,
        "seed": 0,
        "kkt_tol": KKT_TOL,
        "scenarios": {sc.case_id: scenario_record(sc) for sc in out.scenarios},
        "sensitivity": sensitivity_record(out.sensitivity or []),
        "files": files,
    }
