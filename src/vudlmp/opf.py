"""Nonlinear program assembly for the three-phase OPF.

Variables (all per-unit): rectangular voltage parts of every non-slack
bus/phase, per-generator-phase active and reactive output, and directed
per-line-phase power flows.  The substation voltage is held at a balanced
1 pu source.  Constraints come in tagged families so that every multiplier
can be recovered by name after the solve.

The objective is cost minimization in EUR/h: generator energy cost plus,
in soft mode, the voltage-unbalance penalty over the configured bus
subset.  Demand is a fixed parameter (inelastic).

The sparsity of every derivative is laid out once per problem as a fixed
CSR pattern (:class:`CsrLayout`): the equality Jacobian (flow rows, then
the constant balance rows), the inequality Jacobian and the superset of
every Lagrangian Hessian entry.  An evaluation only computes the values on
those layouts, with array operations; the ``csr_matrix`` a public caller
gets is built from them.  These rules keep those values equal, bit for
bit, to a plain per-entry evaluation assembled by scipy.sparse, which the
seed-0 benchmark outputs are pinned to:

- Products of complex scalars (``v * conj(y)``, ``1j * conj(i)``) are
  written as real arithmetic, ``(ar*br - ai*bi) + 1j*(ar*bi + ai*br)``,
  rounding each real product on its own as numpy's scalar multiply does.
  numpy's array complex multiply may fuse a product and a sum into one FMA
  and round differently in the last bit.  The flow Hessian weights times
  the constant ``g_V g_C'`` blocks stay array products.
- A Hessian entry sums up to 8 terms of a triplet stream in a fixed family
  order: objective (row-major), flow (each block, then its transpose),
  voltage bounds, thermal, VUF.  ``csr_matrix`` would add them in the order
  its unstable per-row sort (libstdc++ introsort, comparing columns only)
  leaves them.  That order depends on the stream's columns alone, so it is
  probed once per pattern, by sorting position labels the same way, and the
  terms are then added left to right from the first.
- A multiplier that is exactly zero adds no term.  It changes the pattern,
  so the order is probed again; in the public matrix the entry is absent,
  and an explicit zero would change the pattern the sparse KKT
  factorization orders on.  The public equality Jacobian drops entries
  that are exactly zero, as scipy's sum with the balance rows does; the
  inequality Jacobian keeps them.
- The VUF kernel takes all VUF buses in one pass and rounds as the 6x6
  forms do bus by bus: ``A x`` sums its products in index order, ``x'Ax``
  is a stacked ``(k, 1, 6) @ (k, 6, 1)`` matmul, squares and cubes go
  through libm ``pow`` as a float64 scalar ``**`` does (numpy's SIMD array
  power rounds ~5 % of cubes differently), and penalty terms join the
  objective in bus order.

The unbalance term is defined here only: :meth:`OpfProblem.unbalance_weights`
gives :func:`~vudlmp.dlmp.decompose` its derivative in each bus's ``f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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

    def describe(self):
        """The kind and the fields it sets, e.g. ``thermal line sub-b1 phase a``."""
        words = [self.kind]
        for name, value in (("bus", self.bus),
                            ("line", self.line and "-".join(self.line)),
                            ("end", None if self.end is None else ("from", "to")[self.end]),
                            ("phase", self.phase), ("part", self.part)):
            if value is not None:
                words += [name, value]
        return " ".join(words)


# with x = [ea, fa, eb, fb, ec, fc], x'Ax = |v_neg_sum|^2 and
# x'Bx = |v_pos_sum|^2 (un-normalized sums)
_W = np.array([[1, 1j, ALPHA**2, 1j * ALPHA**2, ALPHA, 1j * ALPHA],
               [1, 1j, ALPHA, 1j * ALPHA, ALPHA**2, 1j * ALPHA**2]])
_VUF_A, _VUF_B = np.real(_W[:, :, None] * np.conj(_W[:, None, :]))


def _cmul(a, b):
    """Complex product a * b rounded as numpy multiplies two complex scalars
    (one rounding per real product; see the module docstring)."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


# a**p per element, rounded as a float64 scalar ``**`` rounds (libm pow)
_pow = np.vectorize(math.pow, otypes=[float])


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _sum_in_order(val, terms):
    """val + terms[0] + terms[1] + ..., rounded left to right."""
    return np.cumsum(np.append(val, terms))[-1]


class CsrLayout:
    """A fixed CSR pattern of a ``shape`` matrix; a matrix on it is one value
    per entry, in canonical order (rows ascending, columns ascending)."""

    def __init__(self, rows, cols, shape):
        """The pattern of the (row, col) pairs given; ``slots`` holds each
        pair's entry."""
        key = rows.astype(np.int64) * shape[1] + cols
        order = np.argsort(key)
        key = key[order]
        first = np.diff(key, prepend=-1) != 0
        self.slots = np.empty(len(key), dtype=np.int64)
        self.slots[order] = np.cumsum(first) - 1
        key = key[first]
        self.shape = shape
        self.rows = key // shape[1]
        self.indices = (key % shape[1]).astype(np.int32)
        self.indptr = np.searchsorted(self.rows, np.arange(shape[0] + 1)).astype(np.int32)

    @property
    def nnz(self):
        return len(self.indices)

    def matrix(self, values, keep=None):
        """``csr_matrix`` of ``values``, only of the entries ``keep`` selects
        if given; it owns its arrays."""
        if keep is None:
            return sp.csr_matrix((values.copy(), self.indices.copy(), self.indptr.copy()),
                                 shape=self.shape)
        indptr = np.zeros(self.shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.rows[keep], minlength=self.shape[0]), out=indptr[1:])
        return sp.csr_matrix((values[keep], self.indices[keep], indptr), shape=self.shape)


def _laid_out(rows, cols, shape):
    """The layout of a stream of distinct (row, col) pairs, and the gather
    that puts the stream in its order."""
    layout = CsrLayout(rows, cols, shape)
    if layout.nnz != len(rows):
        raise ValueError("duplicate entries in a derivative stream")
    take = np.empty(layout.nnz, dtype=np.int64)
    take[layout.slots] = np.arange(len(rows))
    return layout, take


# smoothing added under the square root when the penalty targets VUF itself
# (squared-percent units; 1e-6 corresponds to a VUF of 0.001 %)
_ROOT_SMOOTH = 1e-6


def _root(f):
    """Smoothed sqrt(f): the VUF in percent that ``penalty_on="vuf"`` penalizes."""
    return np.sqrt(np.maximum(f, 0.0) + _ROOT_SMOOTH)


def _forms(x, m):
    """(m x, x'm x) for each row x of [ea, fa, eb, fb, ec, fc] parts."""
    mx = m[:, 0] * x[..., :1]
    for j in range(1, 2 * NPHASE):
        mx = mx + m[:, j] * x[..., j:j + 1]
    return mx, (x[..., None, :] @ mx[..., :, None])[..., 0, 0]


def vuf_metric_local(xv):
    """f = VUF^2 in squared percent for each row of rectangular parts (k, 6)."""
    return 1e4 * _forms(xv, _VUF_A)[1] / _forms(xv, _VUF_B)[1]


def vuf_metric_grad_hess(xv):
    """Value, gradient and Hessian of f for each row of (k, 6) parts."""
    Ax, u = _forms(xv, _VUF_A)
    Bx, d = _forms(xv, _VUF_B)
    gu = 2.0 * Ax
    gd = 2.0 * Bx
    d2 = _pow(d, 2)[..., None]
    val = 1e4 * u / d
    grad = 1e4 * (gu / d[..., None] - u[..., None] * gd / d2)
    u, d, d2 = u[..., None, None], d[..., None, None], d2[..., None]
    hess = 1e4 * (
        2.0 * _VUF_A / d
        - (_outer(gu, gd) + _outer(gd, gu)) / d2
        - u * 2.0 * _VUF_B / d2
        + 2.0 * u * _outer(gd, gd) / _pow(d, 3)
    )
    return val, grad, hess


@dataclass
class EvalResult:
    """Objective, constraints and Jacobians at one point.

    ``jac_eq_values`` and ``jac_ineq_values`` are the Jacobians' entries on
    the problem's fixed layouts; ``jac_eq`` and ``jac_ineq`` build their
    ``csr_matrix`` on first access.
    """
    problem: OpfProblem = field(repr=False)
    objective: float
    grad_objective: np.ndarray
    c_eq: np.ndarray
    jac_eq_values: np.ndarray
    c_ineq: np.ndarray
    jac_ineq_values: np.ndarray
    vuf_hess: np.ndarray    # (k, 6, 6) blocks: the penalty's (soft), f's (hard)

    @cached_property
    def jac_eq(self) -> sp.csr_matrix:
        return self.problem.jac_eq_matrix(self.jac_eq_values)

    @cached_property
    def jac_ineq(self) -> sp.csr_matrix:
        return self.problem.jac_ineq_layout.matrix(self.jac_ineq_values)


class OpfProblem:
    """Assembled NLP; immutable after :func:`build_problem`, but for the
    Hessian summation order it keeps for the last multiplier pattern."""

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
        # (k, 6) [ea, fa, eb, fb, ec, fc] variable indices of the VUF buses,
        # and (k, 36) rows and columns of their 6x6 Hessian blocks
        b = np.array([net.bus_index(b) for b in self.vuf_buses], dtype=int)
        self._vuf_vars = np.stack((self.idx_e[b], self.idx_f[b]), axis=-1).reshape(-1, 6)
        self._vuf_hrows = np.repeat(self._vuf_vars, 6, axis=1)
        self._vuf_hcols = np.tile(self._vuf_vars, 6)
        # gather that puts the penalty's Hessian blocks in row-major order
        self._hobj_order = np.lexsort((self._vuf_hcols.ravel(), self._vuf_hrows.ravel()))
        self._hobj_rows = self._vuf_hrows.ravel()[self._hobj_order]
        self._hobj_cols = self._vuf_hcols.ravel()[self._hobj_order]
        self._penalised = self.cfg.mode == "soft" and self.cfg.penalty_weight > 0

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
        nline = len(net.lines)

        # equality tags: flow definitions then nodal balances; flow block k =
        # (line, end, phase) in C order owns the P row 2k and the Q row 2k + 1
        self.eq_tags = []
        for ln in net.lines:
            for d in range(2):
                for ph in PHASES:
                    for part in ("p", "q"):
                        self.eq_tags.append(ConstraintTag(
                            "flow_definition", line=(ln.from_bus, ln.to_bus),
                            end=d, phase=ph, part=part))
        row = 2 * 2 * NPHASE * nline
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
        # in CSR order: ``c`` sums each row by ascending column, as a CSR matvec
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        order = np.lexsort((cols, rows))
        self._bal = rows[order], cols[order], vals[order]
        demand = net.demand_pu().ravel()
        self._bal_b = np.zeros(self.n_eq)
        self._bal_b[row::2] = np.real(demand)
        self._bal_b[row + 1::2] = np.imag(demand)

        # inequality tags
        self.ineq_tags = []
        for b in range(nbus):
            if b == self.slack:
                continue
            for ph in PHASES:
                self.ineq_tags.append(ConstraintTag("v_mag_lo", bus=net.buses[b].id, phase=ph))
                self.ineq_tags.append(ConstraintTag("v_mag_hi", bus=net.buses[b].id, phase=ph))
        self._box_row0 = len(self.ineq_tags)
        for gen in net.gens:
            for ph in PHASES:
                for kind in ("pg_lo", "pg_hi", "qg_lo", "qg_hi"):
                    self.ineq_tags.append(ConstraintTag(kind, bus=gen.bus, phase=ph))
        self._thermal_row0 = len(self.ineq_tags)
        for ln in net.lines:
            for ph in PHASES:
                self.ineq_tags.append(ConstraintTag(
                    "thermal", line=(ln.from_bus, ln.to_bus), phase=ph))
        self._vuf_row0 = len(self.ineq_tags)
        if self.cfg.mode == "hard":
            self.ineq_tags += [ConstraintTag("vuf_limit", bus=bid) for bid in self.vuf_buses]
        self.n_ineq = len(self.ineq_tags)

        # linear objective part: generator energy cost in EUR/h
        self._cost_lin = np.zeros(self.nvar)
        for g, gen in enumerate(self.net.gens):
            self._cost_lin[self.idx_pg[g]] += gen.marginal_cost * self.net.base_kw

        self._build_flow_derivatives()
        self._build_ineq_derivatives()
        self._build_hessian_layout()

    def _build_flow_derivatives(self):
        """Index arrays of the flow-definition Jacobian and Hessian entries.

        Block k = (line, end, phase) differentiates the P and Q rows of that
        line end; "near" is the bus at that end, "far" the bus at the other.
        """
        nline = len(self.net.lines)
        nblk = nline * 2 * NPHASE
        near = np.stack((self.net.line_from, self.net.line_to), axis=1)
        self._near = near
        far = near[:, ::-1]
        rp = 2 * np.arange(nblk).reshape(nline, 2, NPHASE)

        # Jacobian: the p/q variable of each row (1.0), then per (block, psi)
        # the e/f columns of phase psi at both ends, in slot order
        # [P,e near  Q,e near  P,f near  Q,f near  P,e far  Q,e far  P,f far  Q,f far]
        e_near = self.idx_e[near][:, :, None, :]
        f_near = self.idx_f[near][:, :, None, :]
        e_far = self.idx_e[far][:, :, None, :]
        f_far = self.idx_f[far][:, :, None, :]
        shape8 = (nline, 2, NPHASE, NPHASE, 8)
        cols8 = np.broadcast_to(np.stack(np.broadcast_arrays(
            e_near, e_near, f_near, f_near, e_far, e_far, f_far, f_far), axis=-1), shape8)
        rows8 = np.broadcast_to(rp[..., None, None] + np.arange(8) % 2, shape8)
        # and the constant balance rows last
        rows = np.concatenate((rp.ravel(), rp.ravel() + 1, rows8.ravel(), self._bal[0]))
        cols = np.concatenate((self.idx_p.ravel(), self.idx_q.ravel(), cols8.ravel(),
                               self._bal[1]))
        take = np.flatnonzero(cols >= 0)
        self.jac_eq_layout, self._jeq_take = _laid_out(rows[take], cols[take],
                                                        (self.n_eq, self.nvar))
        self._jeq_take = take[self._jeq_take]

        # Hessian: block k is Re(w_k g_V g_C') with rows g_V over the near
        # (e, f) of phase ph and columns g_C, per psi, over
        # [e near, e far, f near, f far]
        rows_v = np.stack((self.idx_e[near], self.idx_f[near]), axis=-1)   # (l, d, ph, i)
        cols_c = np.broadcast_to(np.stack(np.broadcast_arrays(
            e_near, e_far, f_near, f_far), axis=-1), (nline, 2, NPHASE, NPHASE, 4))
        cols_c = cols_c.reshape(nline, 2, NPHASE, 4 * NPHASE)              # (l, d, ph, j)
        # d conj(i) / d(e, f) is conj(y) and -1j conj(y) at the near end,
        # the negatives at the far end
        fac = np.array([1.0, -1.0, -1j, 1j])
        g_c = _cmul(fac, np.conj(self.net.line_y)[:, None, :, :, None]).reshape(
            nline, 1, NPHASE, 4 * NPHASE)
        self._hflow_g = np.array([1.0, 1j])[:, None] * g_c[..., None, :]
        shape = (nline, 2, NPHASE, 2, 4 * NPHASE)      # (l, d, ph, i, j)
        rv = np.broadcast_to(rows_v[..., None], shape)
        cc = np.broadcast_to(cols_c[..., None, :], shape)
        entry = np.arange(rv.size).reshape(shape)
        # each block enters, then its transpose: axis 3 picks which
        valid = np.stack(((rv >= 0) & (cc >= 0),) * 2, axis=3)
        self._hflow_rows = np.stack((rv, cc), axis=3)[valid]
        self._hflow_cols = np.stack((cc, rv), axis=3)[valid]
        self._hflow_entry = np.stack((entry, entry), axis=3)[valid]
        self._hflow_block = self._hflow_entry // (2 * 4 * NPHASE)

    def _build_ineq_derivatives(self):
        """Index arrays of the inequality Jacobian and of the voltage-bound
        and thermal Hessian entries, in row order."""
        net = self.net
        ns = np.arange(len(net.buses)) != self.slack
        self._ve = self.idx_e[ns].ravel()
        self._vf = self.idx_f[ns].ravel()
        self._vmin_sq = np.repeat([net.buses[b].vmin**2 for b in np.flatnonzero(ns)], NPHASE)
        self._vmax_sq = np.repeat([net.buses[b].vmax**2 for b in np.flatnonzero(ns)], NPHASE)
        self._tp = self.idx_p[:, 0].ravel()
        self._tq = self.idx_q[:, 0].ravel()
        self._rating_sq = np.repeat([ln.s_rating**2 for ln in net.lines], NPHASE)
        self._box_values = np.tile([-1.0, 1.0, -1.0, 1.0], self.idx_pg.size)

        nv = self._ve.size
        v_row = 2 * np.arange(nv)
        box_row = self._box_row0 + np.arange(4 * self.idx_pg.size)
        th_row = self._thermal_row0 + np.arange(self._tp.size)
        pg, qg = self.idx_pg.ravel(), self.idx_qg.ravel()
        rows = [np.stack((v_row, v_row, v_row + 1, v_row + 1), axis=1).ravel(),
                box_row,
                np.repeat(th_row, 2)]
        cols = [np.stack((self._ve, self._vf, self._ve, self._vf), axis=1).ravel(),
                np.stack((pg, pg, qg, qg), axis=1).ravel(),
                np.stack((self._tp, self._tq), axis=1).ravel()]
        if self.cfg.mode == "hard":
            rows.append(np.repeat(self._vuf_row0 + np.arange(len(self._vuf_vars)), 6))
            cols.append(self._vuf_vars.ravel())
        self.jac_ineq_layout, self._jin_take = _laid_out(
            np.concatenate(rows), np.concatenate(cols), (self.n_ineq, self.nvar))
        # voltage-bound and thermal Hessian entries: (e, f) and (p, q) pairs
        self._hv_vars = np.stack((self._ve, self._vf), axis=1).ravel()
        self._hth_vars = np.stack((self._tp, self._tq), axis=1).ravel()

    def _build_hessian_layout(self):
        """The superset layout of every Lagrangian Hessian entry, and each
        term of the full triplet stream: its slot and its group, whose
        multiplier drops it when exactly zero.

        The stream runs objective (group 0, always kept), flow, voltage
        bounds, thermal, VUF, as in the module docstring; the groups are the
        flow blocks, voltage-bound pairs, thermal pairs and VUF rows in turn.
        """
        fams = [(self._hflow_rows, self._hflow_cols, self._hflow_block, self._near.size * NPHASE),
                (self._hv_vars, self._hv_vars, np.arange(self._hv_vars.size) // 2, self._ve.size),
                (self._hth_vars, self._hth_vars, np.arange(self._hth_vars.size) // 2,
                 self._tp.size)]
        if self.cfg.mode == "hard":
            fams.append((self._vuf_hrows.ravel(), self._vuf_hcols.ravel(),
                         np.arange(self._vuf_hrows.size) // 36, len(self._vuf_vars)))
        rows, cols, groups = [], [], []
        if self._penalised:
            rows.append(self._hobj_rows)
            cols.append(self._hobj_cols)
            groups.append(np.zeros(self._hobj_rows.size, dtype=int))
        first = 1       # the first group of the next family
        for r, c, g, count in fams:
            rows.append(r)
            cols.append(c)
            groups.append(first + g)
            first += count
        self._h_rows, self._h_cols, self._h_group = map(np.concatenate, (rows, cols, groups))
        self.hess_layout = CsrLayout(self._h_rows, self._h_cols, (self.nvar, self.nvar))
        self._h_order = None

    def _hessian_order(self, kept_groups):
        """The summation of the terms ``kept_groups`` keeps, probed once per
        pattern: (``kept_groups``, the slots that have a term, and per rank r
        the slots with an r-th term and those terms, in the order
        ``csr_matrix`` sums them; see the module docstring)."""
        if self._h_order is not None and np.array_equal(kept_groups, self._h_order[0]):
            return self._h_order
        kept = np.flatnonzero(kept_groups[self._h_group])
        rows = self._h_rows[kept]
        # COO -> CSR keeps the stream order within a row; then the row sort
        kept = kept[np.argsort(rows, kind="stable")]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=self.nvar))))
        probe = sp.csr_matrix((np.arange(kept.size, dtype=float), self._h_cols[kept], indptr),
                              shape=(self.nvar, self.nvar))
        probe.sort_indices()    # sorts only if unsorted, as ``sum_duplicates`` does
        terms = kept[probe.data.astype(np.int64)]
        slots = self.hess_layout.slots[terms]
        first = np.flatnonzero(np.diff(slots, prepend=-1))
        rank = np.arange(terms.size) - np.repeat(first, np.diff(np.append(first, terms.size)))
        self._h_order = (kept_groups, slots[first],
                         [(slots[rank == r], terms[rank == r])
                          for r in range(rank.max(initial=-1) + 1)])
        return self._h_order

    # -- evaluation ----------------------------------------------------------

    def _penalty(self, x, derivs=False):
        """Soft penalty w f, or w sqrt(f) on VUF, of each VUF bus; with
        ``derivs`` also its (k, 6) gradients and (k, 6, 6) Hessians."""
        w = self.cfg.penalty_weight
        if not derivs:
            f = vuf_metric_local(x[self._vuf_vars])
            return w * (_root(f) if self.penalty_on == "vuf" else f)
        f, g, h = vuf_metric_grad_hess(x[self._vuf_vars])
        if self.penalty_on == "vuf":
            root = _root(f)[:, None]
            h = h / (2.0 * root[..., None]) - _outer(g, g) / (4.0 * _pow(root, 3)[..., None])
            g = g / (2.0 * root)
            f = root[:, 0]
        return w * f, w * g, w * h

    def eval_objective(self, x):
        """Objective value, gradient and the (k, 6, 6) Hessian blocks of the
        VUF buses' penalty terms (none without a penalty)."""
        val = float(self._cost_lin @ x)
        grad = self._cost_lin.copy()
        if not self._penalised:
            return val, grad, np.zeros((0, 6, 6))
        f, g, h = self._penalty(x, derivs=True)
        grad[self._vuf_vars] += g
        return _sum_in_order(val, f), grad, h

    def objective_value(self, x):
        val = float(self._cost_lin @ x)
        return _sum_in_order(val, self._penalty(x)) if self._penalised else val

    def unbalance_weights(self, x, z_ineq):
        """d(unbalance term)/d f per VUF bus: psi in hard mode, else the
        penalty's slope, w on f and w / (2 sqrt(f + s)) on VUF."""
        if self.cfg.mode == "hard":
            return z_ineq[self._vuf_row0:]
        w = np.full(len(self._vuf_vars), self.cfg.penalty_weight)
        if self.penalty_on == "vuf":
            w = w / (2.0 * _root(vuf_metric_local(x[self._vuf_vars])))
        return w

    def eval_eq(self, x, want_jac=True, out=None):
        """Equality residuals and, with ``want_jac``, their Jacobian: its
        values on :attr:`jac_eq_layout` written to ``out`` if given, else
        :meth:`jac_eq_matrix` of them."""
        v = self.voltages(x)
        i_from, s_from, s_to = line_flows(self.net, v)
        s = np.stack((s_from, s_to), axis=1)
        rows, cols, vals = self._bal
        c = np.bincount(rows, vals * x[cols], self.n_eq) + self._bal_b
        # flow-definition rows, (line, end, phase) order, P then Q
        c[0:self._balance_row0:2] = (x[self.idx_p] - np.real(s)).ravel()
        c[1:self._balance_row0:2] = (x[self.idx_q] - np.imag(s)).ravel()
        if not want_jac:
            return c, None
        # d s / d(e, f) per (line, end, phase ph, phase psi): the near-end
        # current term sits on ph == psi only
        v_near = v[self._near][..., None]
        y_conj = np.conj(self.net.line_y)[:, None]
        near = _cmul(v_near, y_conj)
        far = _cmul(-v_near, y_conj)
        turned = _cmul(_cmul(1j, v_near), y_conj)
        i_conj = np.conj(np.stack((i_from, -i_from), axis=1))
        diag_e = np.zeros(near.shape, dtype=complex)
        diag_f = np.zeros(near.shape, dtype=complex)
        ph = np.arange(NPHASE)
        diag_e[..., ph, ph] = i_conj
        diag_f[..., ph, ph] = _cmul(1j, i_conj)
        ds_de = diag_e + near
        ds_df = diag_f - turned
        slots = np.stack((ds_de.real, ds_de.imag, ds_df.real, ds_df.imag,
                          far.real, far.imag, turned.real, turned.imag), axis=-1)
        stream = np.concatenate((np.ones(2 * self.idx_p.size), -slots.ravel(), vals))
        if out is None:
            return c, self.jac_eq_matrix(stream[self._jeq_take])
        return c, np.take(stream, self._jeq_take, out=out)

    def jac_eq_matrix(self, values):
        """``csr_matrix`` of equality-Jacobian values without the entries that
        are exactly zero, which scipy's sum of the flow and balance rows drops."""
        return self.jac_eq_layout.matrix(values, values != 0)

    def eval_ineq(self, x, want_jac=True):
        """Inequality residuals and, with ``want_jac``, the ``csr_matrix`` of
        their Jacobian (explicit zeros kept)."""
        c, values, _ = self._eval_ineq(x, want_jac)
        return c, self.jac_ineq_layout.matrix(values) if want_jac else None

    def _eval_ineq(self, x, want_jac):
        """c_ineq, its Jacobian's values on :attr:`jac_ineq_layout` and, in
        hard mode, f's (k, 6, 6) Hessian blocks."""
        c = np.empty(self.n_ineq)
        e = x[self._ve]
        f = x[self._vf]
        vsq = e * e + f * f
        c[0:self._box_row0:2] = self._vmin_sq - vsq
        c[1:self._box_row0:2] = vsq - self._vmax_sq
        pg = x[self.idx_pg].ravel()
        qg = x[self.idx_qg].ravel()
        c[self._box_row0:self._thermal_row0] = np.stack((
            self.gen_pmin.ravel() - pg, pg - self.gen_pmax.ravel(),
            self.gen_qmin.ravel() - qg, qg - self.gen_qmax.ravel()), axis=1).ravel()
        p = x[self._tp]
        q = x[self._tq]
        c[self._thermal_row0:self._vuf_row0] = p * p + q * q - self._rating_sq
        vuf_grad = vuf_hess = np.zeros((0, 6, 6))
        if self.cfg.mode == "hard":
            xv = x[self._vuf_vars]
            fv, vuf_grad, vuf_hess = vuf_metric_grad_hess(xv) if want_jac else (
                vuf_metric_local(xv), None, None)
            c[self._vuf_row0:] = fv - self.cfg.vuf_limit_pct**2
        if not want_jac:
            return c, None, None
        stream = np.concatenate((
            np.stack((-2 * e, -2 * f, 2 * e, 2 * f), axis=1).ravel(),
            self._box_values,
            np.stack((2 * p, 2 * q), axis=1).ravel(),
            vuf_grad.ravel()))
        return c, stream[self._jin_take], vuf_hess

    def hess_lagrangian(self, x, y_eq, z_ineq, vuf_hess=None, out=None):
        """Hessian of obj + y'c_eq + z'c_ineq at x: its values on
        :attr:`hess_layout` written to ``out`` if given (0 where no term
        falls), else the ``csr_matrix`` of the entries that have a term.

        A multiplier that is exactly zero contributes no term; the terms of
        an entry are summed as the module docstring sets out.  ``vuf_hess``
        is :attr:`EvalResult.vuf_hess` at the same x, computed here if not
        given.
        """
        if vuf_hess is None:
            vuf_hess = vuf_metric_grad_hess(x[self._vuf_vars])[2] if self.cfg.mode == "hard" \
                else self.eval_objective(x)[2]
        # flow definitions: constant bilinear blocks, weight w = -(y_p - 1j y_q)
        # spelled out as the real operations the scalar expression performs
        yp = y_eq[0:self._balance_row0:2]
        yq = y_eq[1:self._balance_row0:2]
        jr = 0.0 * yq - 0.0       # 1j * y_q = (0 y_q - 1 * 0) + 1j (0 * 0 + 1 y_q)
        ji = 0.0 + yq
        w = np.empty(yp.shape, dtype=complex)
        w.real = -(yp - jr)
        w.imag = -(0.0 - ji)
        block = (w.reshape(self._near.shape + (NPHASE,))[..., None, None]
                 * self._hflow_g).real.ravel()
        # voltage-magnitude bounds (+/- 2 on the two rect coordinates),
        # thermal circles and hard VUF rows
        w_v = 2.0 * (z_ineq[1:self._box_row0:2] - z_ineq[0:self._box_row0:2])
        w_th = 2.0 * z_ineq[self._thermal_row0:self._vuf_row0]
        w_vuf = z_ineq[self._vuf_row0:]
        kept = np.concatenate(([True], w != 0, w_v != 0, w_th != 0, w_vuf != 0))
        _, present, order = self._hessian_order(kept)
        terms = [block[self._hflow_entry], np.repeat(w_v, 2), np.repeat(w_th, 2)]
        if self._penalised:
            terms.insert(0, vuf_hess.ravel()[self._hobj_order])
        if self.cfg.mode == "hard":
            terms.append((w_vuf[:, None, None] * vuf_hess).ravel())
        terms = np.concatenate(terms)
        h = np.zeros(self.hess_layout.nnz) if out is None else out
        h.fill(0.0)
        for r, (slots, idx) in enumerate(order):
            if r:
                h[slots] += terms[idx]
            else:
                h[slots] = terms[idx]
        return h if out is not None else self.hess_layout.matrix(h, present)

    def evaluate(self, x) -> EvalResult:
        """Objective, constraints and their first derivatives at x, and the
        VUF Hessian blocks the one kernel pass gave."""
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite variable vector")
        obj, gobj, h_obj = self.eval_objective(x)
        c_eq, j_eq = self.eval_eq(x, out=np.empty(self.jac_eq_layout.nnz))
        c_ineq, j_ineq, h_vuf = self._eval_ineq(x, True)
        return EvalResult(
            problem=self, objective=obj, grad_objective=gobj,
            c_eq=c_eq, jac_eq_values=j_eq, c_ineq=c_ineq, jac_ineq_values=j_ineq,
            vuf_hess=h_vuf if self.cfg.mode == "hard" else h_obj,
        )


def build_problem(net: NetworkSpec, cfg: UnbalanceConfig | None = None,
                  penalty_on: str = "f") -> OpfProblem:
    """Assemble the NLP for the requested unbalance treatment."""
    if cfg is None:
        cfg = net.unbalance
    return OpfProblem(net, cfg, penalty_on=penalty_on)
