"""Nonlinear program assembly for the three-phase OPF.

Variables (all per-unit): rectangular voltage parts of every non-slack
bus/phase, per-generator-phase active and reactive output, and directed
per-line-phase power flows.  The substation voltage is held at a balanced
1 pu source.  Constraints come in tagged families so that every multiplier
can be recovered by name after the solve.

The objective is cost minimization in EUR/h: generator energy cost plus,
in soft mode, the voltage-unbalance penalty over the configured bus
subset.  Demand is a fixed parameter (inelastic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .netmodel import NPHASE, PHASES, NetworkSpec, UnbalanceConfig, ValidationError
from .powerflow import line_flows
from .sequence import ALPHA

# constraint kind -> multiplier symbol; flow-definition equalities carry an
# auxiliary multiplier with no grid-code meaning
MULTIPLIER_SYMBOL = {
    "p_balance": "phi_p",
    "q_balance": "phi_q",
    "v_mag_lo": "sigma_lo",
    "v_mag_hi": "sigma_hi",
    "pg_lo": "delta_lo",
    "pg_hi": "delta_hi",
    "qg_lo": "theta_lo",
    "qg_hi": "theta_hi",
    "thermal": "eta",
    "vuf_limit": "psi",
    "flow_definition": "lambda_flow",
}


@dataclass(frozen=True)
class ConstraintTag:
    kind: str
    bus: str | None = None
    phase: str | None = None
    line: tuple | None = None   # (from_bus, to_bus)
    end: int | None = None      # 0 = from, 1 = to
    part: str | None = None     # flow definitions: "p" or "q"

    @property
    def symbol(self):
        return MULTIPLIER_SYMBOL[self.kind]


def _vuf_quadratic_forms():
    """6x6 forms so that, with x = [ea, fa, eb, fb, ec, fc],
    |v_neg_sum|^2 = x'Ax and |v_pos_sum|^2 = x'Bx (un-normalized sums)."""
    a = ALPHA
    w_neg = np.array([1, 1j, a**2, 1j * a**2, a, 1j * a])
    w_pos = np.array([1, 1j, a, 1j * a, a**2, 1j * a**2])
    A = np.real(np.outer(w_neg, np.conj(w_neg)))
    B = np.real(np.outer(w_pos, np.conj(w_pos)))
    return A, B


_VUF_A, _VUF_B = _vuf_quadratic_forms()

# smoothing added under the square root when the penalty targets VUF itself
# (squared-percent units; 1e-6 corresponds to a VUF of 0.001 %)
_ROOT_SMOOTH = 1e-6


def vuf_metric_local(xv):
    """f = VUF^2 in squared percent from the 6 rectangular voltage parts."""
    u = xv @ _VUF_A @ xv
    d = xv @ _VUF_B @ xv
    return 1e4 * u / d


def vuf_metric_grad_hess(xv):
    """Value, gradient and Hessian of f over the 6 rectangular parts."""
    Ax = _VUF_A @ xv
    Bx = _VUF_B @ xv
    u = xv @ Ax
    d = xv @ Bx
    gu = 2.0 * Ax
    gd = 2.0 * Bx
    val = 1e4 * u / d
    grad = 1e4 * (gu / d - u * gd / d**2)
    hess = 1e4 * (
        2.0 * _VUF_A / d
        - (np.outer(gu, gd) + np.outer(gd, gu)) / d**2
        - u * 2.0 * _VUF_B / d**2
        + 2.0 * u * np.outer(gd, gd) / d**3
    )
    return val, grad, hess


@dataclass
class EvalResult:
    objective: float
    grad_objective: np.ndarray
    c_eq: np.ndarray
    jac_eq: sp.csr_matrix
    c_ineq: np.ndarray
    jac_ineq: sp.csr_matrix


class OpfProblem:
    """Assembled NLP; immutable after :func:`build_problem`."""

    def __init__(self, net: NetworkSpec, cfg: UnbalanceConfig, penalty_on: str = "f"):
        if penalty_on not in ("f", "vuf"):
            raise ValidationError(f"penalty_on must be 'f' or 'vuf', got {penalty_on!r}")
        self.net = net
        self.cfg = cfg
        self.penalty_on = penalty_on
        self._build_layout()
        self._build_constraints()

    # -- variable layout -----------------------------------------------------

    def _build_layout(self):
        net = self.net
        self.slack = net.bus_index(net.substation_bus)
        nbus = len(net.buses)
        ngen = len(net.gens)
        nline = len(net.lines)

        nv = 0
        self.idx_e = -np.ones((nbus, NPHASE), dtype=int)
        self.idx_f = -np.ones((nbus, NPHASE), dtype=int)
        for b in range(nbus):
            if b == self.slack:
                continue
            for ph in range(NPHASE):
                self.idx_e[b, ph] = nv
                self.idx_f[b, ph] = nv + 1
                nv += 2
        self.idx_pg = np.zeros((ngen, NPHASE), dtype=int)
        self.idx_qg = np.zeros((ngen, NPHASE), dtype=int)
        for g in range(ngen):
            for ph in range(NPHASE):
                self.idx_pg[g, ph] = nv
                self.idx_qg[g, ph] = nv + 1
                nv += 2
        self.idx_p = np.zeros((nline, 2, NPHASE), dtype=int)
        self.idx_q = np.zeros((nline, 2, NPHASE), dtype=int)
        for l in range(nline):
            for d in range(2):
                for ph in range(NPHASE):
                    self.idx_p[l, d, ph] = nv
                    self.idx_q[l, d, ph] = nv + 1
                    nv += 2
        self.nvar = nv
        self.slack_voltage = np.array([1.0, ALPHA**2, ALPHA], dtype=complex)

        # effective generator boxes: phases the unit does not own are pinned to 0
        self.gen_pmin = np.zeros((ngen, NPHASE))
        self.gen_pmax = np.zeros((ngen, NPHASE))
        self.gen_qmin = np.zeros((ngen, NPHASE))
        self.gen_qmax = np.zeros((ngen, NPHASE))
        for g, gen in enumerate(net.gens):
            for ph in range(NPHASE):
                if PHASES[ph] in gen.phases:
                    self.gen_pmin[g, ph] = gen.pmin[ph]
                    self.gen_pmax[g, ph] = gen.pmax[ph]
                    self.gen_qmin[g, ph] = gen.qmin[ph]
                    self.gen_qmax[g, ph] = gen.qmax[ph]
        if np.any(self.gen_pmin > self.gen_pmax) or np.any(self.gen_qmin > self.gen_qmax):
            raise ValidationError("infeasible generator box (min > max)")

        self.vuf_buses = []
        if self.cfg.mode in ("hard", "soft"):
            subset = self.cfg.buses or tuple(net.vuf_bus_subset)
            self.vuf_buses = [b for b in subset if b != net.substation_bus]
        # [ea, fa, eb, fb, ec, fc] variable indices of each VUF bus
        self._vuf_vars = [
            np.stack((self.idx_e[b], self.idx_f[b]), axis=1).ravel()
            for b in map(net.bus_index, self.vuf_buses)]

    # -- helpers -------------------------------------------------------------

    def voltages(self, x):
        """(nbus, 3) complex voltages implied by x, slack held fixed."""
        v = x[self.idx_e] + 1j * x[self.idx_f]
        v[self.slack] = self.slack_voltage
        return v

    def x0(self, point=None):
        """Initial vector: flat start or a warm power-flow operating point."""
        x = np.zeros(self.nvar)
        net = self.net
        if point is None:
            v = np.tile(self.slack_voltage, (len(net.buses), 1))
            s_from = np.zeros((len(net.lines), NPHASE), dtype=complex)
            s_to = np.zeros((len(net.lines), NPHASE), dtype=complex)
        else:
            v = point.voltages
            s_from = point.s_from
            s_to = point.s_to
        ns = np.arange(len(net.buses)) != self.slack
        x[self.idx_e[ns]] = np.real(v[ns])
        x[self.idx_f[ns]] = np.imag(v[ns])
        x[self.idx_p] = np.real(np.stack((s_from, s_to), axis=1))
        x[self.idx_q] = np.imag(np.stack((s_from, s_to), axis=1))
        demand = net.demand_pu()
        for g, gen in enumerate(net.gens):
            if gen.is_substation and point is not None:
                # slack picks up whatever the warm-start point exports
                b = net.bus_index(gen.bus)
                inj = (np.sum(s_from[net.line_from == b], axis=0)
                       + np.sum(s_to[net.line_to == b], axis=0) + demand[b])
                x[self.idx_pg[g]] = np.clip(np.real(inj), self.gen_pmin[g], self.gen_pmax[g])
                x[self.idx_qg[g]] = np.clip(np.imag(inj), self.gen_qmin[g], self.gen_qmax[g])
            else:
                x[self.idx_pg[g]] = np.clip(0.0, self.gen_pmin[g], self.gen_pmax[g])
                x[self.idx_qg[g]] = np.clip(0.0, self.gen_qmin[g], self.gen_qmax[g])
        return x

    # -- constraint assembly -------------------------------------------------

    def _build_constraints(self):
        net = self.net
        nbus = len(net.buses)

        # equality tags: flow definitions then nodal balances
        self.eq_tags = []
        self._flow_rows = []   # (first row, line, end, end bus, other bus)
        row = 0
        for l, ln in enumerate(net.lines):
            ends = (net.line_from[l], net.line_to[l])
            for d in range(2):
                be, bo = ends[d], ends[1 - d]
                for ph in range(NPHASE):
                    self.eq_tags.append(ConstraintTag(
                        "flow_definition", line=(ln.from_bus, ln.to_bus),
                        end=d, phase=PHASES[ph], part="p"))
                    self.eq_tags.append(ConstraintTag(
                        "flow_definition", line=(ln.from_bus, ln.to_bus),
                        end=d, phase=PHASES[ph], part="q"))
                self._flow_rows.append((row, l, d, be, bo))
                row += 2 * NPHASE
        self._balance_row0 = row
        for b in net.buses:
            for ph in PHASES:
                self.eq_tags.append(ConstraintTag("p_balance", bus=b.id, phase=ph))
                self.eq_tags.append(ConstraintTag("q_balance", bus=b.id, phase=ph))
        self.n_eq = row + 2 * NPHASE * nbus
        # nodal balances: flows leaving the bus enter with +1, generation
        # with -1; the Q row of each (bus, phase) follows its P row
        p_row = row + 2 * np.arange(nbus * NPHASE).reshape(nbus, NPHASE)
        gen_bus = np.array([net.bus_index(g.bus) for g in net.gens], dtype=int)
        rows, cols, vals = [], [], []
        for r, cp, cq, sign in (
                (p_row[net.line_from], self.idx_p[:, 0], self.idx_q[:, 0], 1.0),
                (p_row[net.line_to], self.idx_p[:, 1], self.idx_q[:, 1], 1.0),
                (p_row[gen_bus], self.idx_pg, self.idx_qg, -1.0)):
            rows += [r.ravel(), r.ravel() + 1]
            cols += [cp.ravel(), cq.ravel()]
            vals.append(np.full(2 * r.size, sign))
        self._bal_A = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_eq, self.nvar))
        demand = net.demand_pu().ravel()
        self._bal_b = np.zeros(self.n_eq)
        self._bal_b[row::2] = np.real(demand)
        self._bal_b[row + 1::2] = np.imag(demand)

        # inequality tags
        self.ineq_tags = []
        self._vrows = []       # (row_lo, bus_idx) pairs; hi row = row_lo + 1
        row = 0
        for b in range(nbus):
            if b == self.slack:
                continue
            for ph in range(NPHASE):
                self.ineq_tags.append(ConstraintTag(
                    "v_mag_lo", bus=net.buses[b].id, phase=PHASES[ph]))
                self.ineq_tags.append(ConstraintTag(
                    "v_mag_hi", bus=net.buses[b].id, phase=PHASES[ph]))
                self._vrows.append((row, b, ph))
                row += 2
        self._box_row0 = row
        for g, gen in enumerate(net.gens):
            for ph in range(NPHASE):
                for kind in ("pg_lo", "pg_hi", "qg_lo", "qg_hi"):
                    self.ineq_tags.append(ConstraintTag(
                        kind, bus=gen.bus, phase=PHASES[ph]))
                row += 4
        self._thermal_row0 = row
        for l, ln in enumerate(net.lines):
            for ph in range(NPHASE):
                self.ineq_tags.append(ConstraintTag(
                    "thermal", line=(ln.from_bus, ln.to_bus), phase=PHASES[ph]))
                row += 1
        self._vuf_row0 = row
        if self.cfg.mode == "hard":
            for bid in self.vuf_buses:
                self.ineq_tags.append(ConstraintTag("vuf_limit", bus=bid))
                row += 1
        self.n_ineq = row

        # linear objective part: generator energy cost in EUR/h
        self._cost_lin = np.zeros(self.nvar)
        for g, gen in enumerate(self.net.gens):
            self._cost_lin[self.idx_pg[g]] += gen.marginal_cost * self.net.base_kw

        # constant flow-definition Hessian triplets: for each line/end/phase
        # the complex matrix g_V g_C' (+ transpose when applied)
        self._flow_hess = []
        for row0, l, d, be, bo in self._flow_rows:
            yl = net.line_y[l]
            for ph in range(NPHASE):
                cols = []
                gC = []
                for psi in range(NPHASE):
                    for (arr, fac) in ((self.idx_e, 1.0), (self.idx_f, -1j)):
                        if arr[be, psi] >= 0:
                            cols.append(arr[be, psi])
                            gC.append(fac * np.conj(yl[ph, psi]))
                        if arr[bo, psi] >= 0:
                            cols.append(arr[bo, psi])
                            gC.append(-fac * np.conj(yl[ph, psi]))
                rows_v = []
                gV = []
                if self.idx_e[be, ph] >= 0:
                    rows_v.append(self.idx_e[be, ph])
                    gV.append(1.0)
                    rows_v.append(self.idx_f[be, ph])
                    gV.append(1j)
                rp = row0 + 2 * ph
                self._flow_hess.append((
                    rp, np.asarray(rows_v, dtype=int), np.asarray(gV, dtype=complex),
                    np.asarray(cols, dtype=int), np.asarray(gC, dtype=complex)))

    # -- evaluation ----------------------------------------------------------

    def eval_objective(self, x):
        """Objective value, gradient and (sparse) Hessian."""
        val = float(self._cost_lin @ x)
        grad = self._cost_lin.copy()
        hess_triplets = ([], [], [])
        if self.cfg.mode == "soft" and self.cfg.penalty_weight > 0:
            w = self.cfg.penalty_weight
            for vv in self._vuf_vars:
                f, g, h = vuf_metric_grad_hess(x[vv])
                if self.penalty_on == "vuf":
                    # penalize sqrt(f) = VUF in percent instead of VUF^2; the
                    # root is smoothed so its curvature stays bounded as the
                    # penalty drives the metric toward zero
                    root = np.sqrt(max(f, 0.0) + _ROOT_SMOOTH)
                    h = h / (2.0 * root) - np.outer(g, g) / (4.0 * root**3)
                    g = g / (2.0 * root)
                    f = root
                val += w * f
                grad[vv] += w * g
                r, c = np.meshgrid(vv, vv, indexing="ij")
                hess_triplets[0].extend(r.ravel())
                hess_triplets[1].extend(c.ravel())
                hess_triplets[2].extend((w * h).ravel())
        hess = sp.csr_matrix(
            (hess_triplets[2], (hess_triplets[0], hess_triplets[1])),
            shape=(self.nvar, self.nvar))
        return val, grad, hess

    def objective_value(self, x):
        val = float(self._cost_lin @ x)
        if self.cfg.mode == "soft" and self.cfg.penalty_weight > 0:
            for vv in self._vuf_vars:
                f = vuf_metric_local(x[vv])
                if self.penalty_on == "vuf":
                    f = np.sqrt(max(f, 0.0) + _ROOT_SMOOTH)
                val += self.cfg.penalty_weight * f
        return val

    def eval_eq(self, x, want_jac=True):
        v = self.voltages(x)
        i_from, s_from, s_to = line_flows(self.net, v)
        s = np.stack((s_from, s_to), axis=1)
        c = self._bal_A @ x + self._bal_b
        # flow-definition rows, (line, end, phase) order, P then Q
        c[0:self._balance_row0:2] = (x[self.idx_p] - np.real(s)).ravel()
        c[1:self._balance_row0:2] = (x[self.idx_q] - np.imag(s)).ravel()
        if not want_jac:
            return c, None
        rows, cols, vals = [], [], []
        for row0, l, d, be, bo in self._flow_rows:
            i_line = i_from[l] if d == 0 else -i_from[l]
            yl = self.net.line_y[l]
            for ph in range(NPHASE):
                rp = row0 + 2 * ph
                rq = rp + 1
                rows += [rp, rq]
                cols += [self.idx_p[l, d, ph], self.idx_q[l, d, ph]]
                vals += [1.0, 1.0]
                for psi in range(NPHASE):
                    ds_de = (np.conj(i_line[ph]) if psi == ph else 0.0) \
                        + v[be, ph] * np.conj(yl[ph, psi])
                    ds_df = (1j * np.conj(i_line[ph]) if psi == ph else 0.0) \
                        - 1j * v[be, ph] * np.conj(yl[ph, psi])
                    if self.idx_e[be, psi] >= 0:
                        rows += [rp, rq, rp, rq]
                        cols += [self.idx_e[be, psi], self.idx_e[be, psi],
                                 self.idx_f[be, psi], self.idx_f[be, psi]]
                        vals += [-np.real(ds_de), -np.imag(ds_de),
                                 -np.real(ds_df), -np.imag(ds_df)]
                    ds_de_o = -v[be, ph] * np.conj(yl[ph, psi])
                    ds_df_o = 1j * v[be, ph] * np.conj(yl[ph, psi])
                    if self.idx_e[bo, psi] >= 0:
                        rows += [rp, rq, rp, rq]
                        cols += [self.idx_e[bo, psi], self.idx_e[bo, psi],
                                 self.idx_f[bo, psi], self.idx_f[bo, psi]]
                        vals += [-np.real(ds_de_o), -np.imag(ds_de_o),
                                 -np.real(ds_df_o), -np.imag(ds_df_o)]
        jac = sp.csr_matrix((vals, (rows, cols)), shape=(self.n_eq, self.nvar)) \
            + self._bal_A
        return c, jac

    def eval_ineq(self, x, want_jac=True):
        c = np.zeros(self.n_ineq)
        rows, cols, vals = [], [], []
        for row0, b, ph in self._vrows:
            e = x[self.idx_e[b, ph]]
            fpart = x[self.idx_f[b, ph]]
            vsq = e * e + fpart * fpart
            bus = self.net.buses[b]
            c[row0] = bus.vmin**2 - vsq
            c[row0 + 1] = vsq - bus.vmax**2
            if want_jac:
                rows += [row0, row0, row0 + 1, row0 + 1]
                cols += [self.idx_e[b, ph], self.idx_f[b, ph],
                         self.idx_e[b, ph], self.idx_f[b, ph]]
                vals += [-2 * e, -2 * fpart, 2 * e, 2 * fpart]
        row = self._box_row0
        for g in range(len(self.net.gens)):
            for ph in range(NPHASE):
                pg = x[self.idx_pg[g, ph]]
                qg = x[self.idx_qg[g, ph]]
                c[row] = self.gen_pmin[g, ph] - pg
                c[row + 1] = pg - self.gen_pmax[g, ph]
                c[row + 2] = self.gen_qmin[g, ph] - qg
                c[row + 3] = qg - self.gen_qmax[g, ph]
                if want_jac:
                    rows += [row, row + 1, row + 2, row + 3]
                    cols += [self.idx_pg[g, ph], self.idx_pg[g, ph],
                             self.idx_qg[g, ph], self.idx_qg[g, ph]]
                    vals += [-1.0, 1.0, -1.0, 1.0]
                row += 4
        for l, ln in enumerate(self.net.lines):
            for ph in range(NPHASE):
                p = x[self.idx_p[l, 0, ph]]
                q = x[self.idx_q[l, 0, ph]]
                c[row] = p * p + q * q - ln.s_rating**2
                if want_jac:
                    rows += [row, row]
                    cols += [self.idx_p[l, 0, ph], self.idx_q[l, 0, ph]]
                    vals += [2 * p, 2 * q]
                row += 1
        if self.cfg.mode == "hard":
            limit_sq = self.cfg.vuf_limit_pct**2
            for vv in self._vuf_vars:
                if want_jac:
                    f, g, _ = vuf_metric_grad_hess(x[vv])
                    rows += [row] * 6
                    cols += list(vv)
                    vals += list(g)
                else:
                    f = vuf_metric_local(x[vv])
                c[row] = f - limit_sq
                row += 1
        if not want_jac:
            return c, None
        jac = sp.csr_matrix((vals, (rows, cols)), shape=(self.n_ineq, self.nvar))
        return c, jac

    def hess_lagrangian(self, x, y_eq, z_ineq):
        """Sparse Hessian of obj + y'c_eq + z'c_ineq at x."""
        rows, cols, vals = [], [], []
        _, _, hobj = self.eval_objective(x)
        hobj = hobj.tocoo()
        rows += list(hobj.row)
        cols += list(hobj.col)
        vals += list(hobj.data)
        # flow definitions: constant bilinear blocks, weight -(y_p - j y_q)
        for rp, rows_v, gV, cols_c, gC in self._flow_hess:
            w = -(y_eq[rp] - 1j * y_eq[rp + 1])
            if w == 0:
                continue
            block = w * np.outer(gV, gC)
            r, cgrid = np.meshgrid(rows_v, cols_c, indexing="ij")
            re = np.real(block)
            rows += list(r.ravel()) + list(cgrid.ravel())
            cols += list(cgrid.ravel()) + list(r.ravel())
            vals += list(re.ravel()) + list(re.ravel())
        # voltage-magnitude bounds: +/- 2 on the two rect coordinates
        for row0, b, ph in self._vrows:
            w = 2.0 * (z_ineq[row0 + 1] - z_ineq[row0])
            if w == 0:
                continue
            for col in (self.idx_e[b, ph], self.idx_f[b, ph]):
                rows.append(col)
                cols.append(col)
                vals.append(w)
        # thermal circles
        row = self._thermal_row0
        for l in range(len(self.net.lines)):
            for ph in range(NPHASE):
                w = 2.0 * z_ineq[row]
                if w != 0:
                    for col in (self.idx_p[l, 0, ph], self.idx_q[l, 0, ph]):
                        rows.append(col)
                        cols.append(col)
                        vals.append(w)
                row += 1
        # hard VUF constraints
        if self.cfg.mode == "hard":
            for k, vv in enumerate(self._vuf_vars):
                w = z_ineq[self._vuf_row0 + k]
                if w == 0:
                    continue
                _, _, h = vuf_metric_grad_hess(x[vv])
                r, cgrid = np.meshgrid(vv, vv, indexing="ij")
                rows += list(r.ravel())
                cols += list(cgrid.ravel())
                vals += list((w * h).ravel())
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.nvar, self.nvar))

    def evaluate(self, x) -> EvalResult:
        """Objective, constraints and their first derivatives at x."""
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite variable vector")
        obj, gobj, _ = self.eval_objective(x)
        c_eq, j_eq = self.eval_eq(x)
        c_ineq, j_ineq = self.eval_ineq(x)
        return EvalResult(
            objective=obj, grad_objective=gobj,
            c_eq=c_eq, jac_eq=j_eq, c_ineq=c_ineq, jac_ineq=j_ineq,
        )


def build_problem(net: NetworkSpec, cfg: UnbalanceConfig | None = None,
                  penalty_on: str = "f") -> OpfProblem:
    """Assemble the NLP for the requested unbalance treatment."""
    if cfg is None:
        cfg = net.unbalance
    return OpfProblem(net, cfg, penalty_on=penalty_on)
