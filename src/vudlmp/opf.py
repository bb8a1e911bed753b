"""Nonlinear program assembly for the three-phase OPF.

Variables (all per-unit): rectangular voltage parts of every non-slack
bus/phase, per-generator-phase active and reactive output, and directed
per-line-phase power flows.  The substation voltage is held at a balanced
1 pu source.  Constraints come in tagged families so that every multiplier
can be recovered by name after the solve.  The rows are laid out once, in
one table of :class:`RowBlock` s per side (:attr:`OpfProblem.eq_blocks`,
:attr:`OpfProblem.ineq_blocks`): each block gives its kinds, interleaved
on its last axis, and its axes with their labels.  Everything else about
the rows comes from that table: ``n_eq`` and ``n_ineq``, the rows the
evaluators fill, :meth:`OpfProblem.by_family`, which hands any per-row
vector, multipliers or residuals, to other code as one view per family
shaped by its axes (bus, generator or line, phase), and the
:class:`ConstraintTag` of every row, built on first use.

The objective is cost minimization in EUR/h: generator energy cost plus,
in soft mode, the voltage-unbalance penalty over the configured bus
subset.  Demand is a fixed parameter (inelastic).

The sparsity of every derivative is laid out once per problem as a fixed
CSR pattern (:class:`~vudlmp.netmodel.CsrLayout`): the equality Jacobian
(flow rows, then the constant balance rows, one ``csr_matrix``), the
inequality Jacobian and the superset of every Lagrangian Hessian entry.  An
evaluation only computes the values on those layouts, with array operations;
the ``csr_matrix`` a public caller gets is built from them.  These rules keep
those values equal, bit for bit, to a plain per-entry evaluation assembled
by scipy.sparse, which the seed-0 benchmark outputs are pinned to:

- Products of complex scalars (``v * conj(y)``, ``1j * conj(i)``) go
  through :func:`~vudlmp.sequence._cmul`, which rounds as numpy's scalar
  multiply does.  The flow Hessian weights times the constant ``g_V g_C'``
  blocks stay array products.
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
- Penalty terms join the objective in bus order.

The unbalance term is defined here only: :meth:`OpfProblem.unbalance_weights`
gives :func:`~vudlmp.dlmp.decompose` its derivative in each bus's ``f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np
import scipy.sparse as sp

from .netmodel import NPHASE, PHASES, CsrLayout, NetworkSpec, UnbalanceConfig, ValidationError
from .powerflow import line_flows
from .sequence import BALANCED_SOURCE, _cmul, _outer, _pow, vuf_metric_grad_hess, vuf_metric_local


@dataclass(frozen=True)
class ConstraintTag:
    kind: str
    bus: str | None = None
    phase: str | None = None
    line: tuple | None = None   # (from_bus, to_bus)
    index: int | None = None    # the line's or generator's position in the network
    end: int | None = None      # 0 = from, 1 = to
    part: str | None = None     # flow definitions: "p" or "q"

    def describe(self):
        """The kind and the fields it sets, e.g. ``pg_lo bus b3 index 1 phase a``."""
        words = [self.kind]
        for name, value in (("bus", self.bus),
                            ("line", self.line and "-".join(self.line)),
                            ("index", self.index),
                            ("end", None if self.end is None else ("from", "to")[self.end]),
                            ("phase", self.phase), ("part", self.part)):
            if value is not None:
                words += [name, str(value)]
        return " ".join(words)


class RowBlock:
    """A run of constraint rows from ``start``: one row per combination of
    its axes' labels and its kinds, in C order with the kinds interleaved
    last.  An axis is a list of labels, each a dict of the tag fields it
    sets."""

    def __init__(self, kinds, axes, start):
        self.kinds, self.axes = kinds, axes
        self.shape = tuple(len(labels) for labels in axes) + (len(kinds),)
        self.rows = slice(start, start + math.prod(self.shape))

    def views(self, vec):
        """The block's rows of ``vec`` as one view per kind, shaped by the axes."""
        rows = vec[self.rows].reshape(self.shape)
        return {kind: rows[..., k] for k, kind in enumerate(self.kinds)}

    def tags(self):
        """The tag of every row, in row order."""
        return [ConstraintTag(kind, **{k: v for label in labels for k, v in label.items()})
                for labels in product(*self.axes) for kind in self.kinds]


def _end_to_end(*blocks):
    """:class:`RowBlock` s of ``(kinds, *axes)``, laid one after another from
    row 0."""
    out = []
    for kinds, *axes in blocks:
        out.append(RowBlock(kinds, axes, out[-1].rows.stop if out else 0))
    return out


def _pairs(start, shape):
    """Index arrays of ``shape`` numbering consecutive pairs from ``start``:
    the first of each pair, and the second."""
    first = start + 2 * np.arange(math.prod(shape)).reshape(shape)
    return first, first + 1


def _sum_in_order(val, terms):
    """val + terms[0] + terms[1] + ..., rounded left to right."""
    return np.cumsum(np.append(val, terms))[-1]


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
        nbus, ngen, nline = len(net.buses), len(net.gens), len(net.lines)

        # variables in pairs, (e, f) per non-slack bus and phase (-1 at the
        # slack), then (pg, qg) per generator and phase, then (p, q) per line,
        # end and phase
        self._nonslack = np.arange(nbus) != self.slack
        self.idx_e, self.idx_f = np.full((2, nbus, NPHASE), -1)
        self.idx_e[self._nonslack], self.idx_f[self._nonslack] = _pairs(0, (nbus - 1, NPHASE))
        nv = 2 * NPHASE * (nbus - 1)
        self.idx_pg, self.idx_qg = _pairs(nv, (ngen, NPHASE))
        nv += 2 * NPHASE * ngen
        self.idx_p, self.idx_q = _pairs(nv, (nline, 2, NPHASE))
        self.nvar = nv + 4 * NPHASE * nline

        # generator boxes, 0 on the phases a unit does not own
        self.gen_pmin, self.gen_pmax, self.gen_qmin, self.gen_qmax = net.gen_box

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
        v[self.slack] = BALANCED_SOURCE
        return v

    def by_family(self, eq=None, ineq=None):
        """Views of per-row vectors (multipliers or residuals), one per
        constraint family, keyed by its kind and shaped by its axes.

        From ``eq`` (``n_eq`` rows): ``flow_definition`` (line, end, phase,
        part p/q), ``p_balance`` and ``q_balance`` (bus, phase).  From
        ``ineq`` (``n_ineq`` rows): ``v_mag_lo`` and ``v_mag_hi`` (non-slack
        bus, phase), ``pg_lo``, ``pg_hi``, ``qg_lo`` and ``qg_hi``
        (generator, phase), ``thermal`` (line, phase) and ``vuf_limit`` (VUF
        bus, hard mode; empty otherwise).  Every row sits in one view.  A
        contiguous vector is not copied, so a write to a view writes its rows.
        """
        rows = {}
        for vec, blocks in ((eq, self.eq_blocks), (ineq, self.ineq_blocks)):
            if vec is not None:
                for block in blocks:
                    rows |= block.views(vec)
        return rows

    @cached_property
    def eq_tags(self):
        """The :class:`ConstraintTag` of every equality row, in row order."""
        return [tag for block in self.eq_blocks for tag in block.tags()]

    @cached_property
    def ineq_tags(self):
        """The :class:`ConstraintTag` of every inequality row, in row order."""
        return [tag for block in self.ineq_blocks for tag in block.tags()]

    def x0(self, point=None):
        """Initial vector: flat start or a warm power-flow operating point."""
        x = np.zeros(self.nvar)
        net = self.net
        # generator outputs, clipped to their boxes: 0, but for the
        # substation unit at a warm start, which picks up whatever it exports
        gen = np.zeros((len(net.gens), NPHASE), dtype=complex)
        if point is None:
            v = np.tile(BALANCED_SOURCE, (len(net.buses), 1))
            s_from = s_to = np.zeros((len(net.lines), NPHASE), dtype=complex)
        else:
            v, s_from, s_to = point.voltages, point.s_from, point.s_to
            b = self.slack
            gen[net.substation_gen] = (np.sum(s_from[net.line_from == b], axis=0)
                                       + np.sum(s_to[net.line_to == b], axis=0) + net.demand[b])
        ns = self._nonslack
        x[self.idx_e[ns]] = np.real(v[ns])
        x[self.idx_f[ns]] = np.imag(v[ns])
        x[self.idx_p] = np.real(np.stack((s_from, s_to), axis=1))
        x[self.idx_q] = np.imag(np.stack((s_from, s_to), axis=1))
        x[self.idx_pg] = np.clip(np.real(gen), self.gen_pmin, self.gen_pmax)
        x[self.idx_qg] = np.clip(np.imag(gen), self.gen_qmin, self.gen_qmax)
        return x

    # -- constraint assembly -------------------------------------------------

    def _build_constraints(self):
        net = self.net
        ids = net.bus_ids
        # the row table: each block's kinds, then its axes, in row order
        line = [{"line": (ids[i], ids[j]), "index": k}
                for k, (i, j) in enumerate(zip(net.line_from, net.line_to))]
        bus = [{"bus": b} for b in ids]
        phase = [{"phase": ph} for ph in PHASES]
        self.eq_blocks = _end_to_end(
            (("flow_definition",), line, [{"end": 0}, {"end": 1}], phase,
             [{"part": "p"}, {"part": "q"}]),
            (("p_balance", "q_balance"), bus, phase))
        self.ineq_blocks = _end_to_end(
            (("v_mag_lo", "v_mag_hi"), [bus[b] for b in np.flatnonzero(self._nonslack)], phase),
            (("pg_lo", "pg_hi", "qg_lo", "qg_hi"),
             [{"bus": ids[b], "index": g} for g, b in enumerate(net.gen_bus)], phase),
            (("thermal",), line, phase),
            (("vuf_limit",), [{"bus": b} for b in self.vuf_buses]
             if self.cfg.mode == "hard" else []))
        self.n_eq = self.eq_blocks[-1].rows.stop
        self.n_ineq = self.ineq_blocks[-1].rows.stop

        # nodal balances: flows leaving the bus enter with +1, generation with -1
        eq_rows = self.by_family(eq=np.arange(self.n_eq))
        rows, cols, vals = [], [], []
        for b, cp, cq, sign in ((net.line_from, self.idx_p[:, 0], self.idx_q[:, 0], 1.0),
                                (net.line_to, self.idx_p[:, 1], self.idx_q[:, 1], 1.0),
                                (net.gen_bus, self.idx_pg, self.idx_qg, -1.0)):
            rows += [eq_rows["p_balance"][b].ravel(), eq_rows["q_balance"][b].ravel()]
            cols += [cp.ravel(), cq.ravel()]
            vals.append(np.full(2 * cp.size, sign))
        # the balance rows are ``_bal_a @ x + _bal_b``
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        self._bal_a = sp.csr_matrix((vals, (rows, cols)), shape=(self.n_eq, self.nvar))
        self._bal_b = np.zeros(self.n_eq)
        bal_b = self.by_family(eq=self._bal_b)
        bal_b["p_balance"][:], bal_b["q_balance"][:] = np.real(net.demand), np.imag(net.demand)

        # linear objective part: generator energy cost in EUR/h
        self._cost_lin = np.zeros(self.nvar)
        self._cost_lin[self.idx_pg] += net.gen_cost[:, None] * net.base_kw

        self._build_flow_derivatives()
        self._build_ineq_derivatives()
        self._build_hessian_layout()

    def _build_flow_derivatives(self):
        """Index arrays of the flow-definition Jacobian and Hessian entries.

        Block k = (line, end, phase) differentiates the P and Q rows of that
        line end; "near" is the bus at that end, "far" the bus at the other.
        """
        nline = len(self.net.lines)
        near = np.stack((self.net.line_from, self.net.line_to), axis=1)
        self._near = near
        far = near[:, ::-1]
        pq_rows = self.by_family(eq=np.arange(self.n_eq))["flow_definition"]

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
        rows8 = np.broadcast_to(pq_rows[..., None, np.arange(8) % 2], shape8)
        # and the constant balance rows last, in CSR order
        bal = self._bal_a.tocoo()
        rows = np.concatenate((pq_rows[..., 0].ravel(), pq_rows[..., 1].ravel(), rows8.ravel(),
                               bal.row))
        cols = np.concatenate((self.idx_p.ravel(), self.idx_q.ravel(), cols8.ravel(),
                               bal.col))
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
        ns = self._nonslack
        self._ve = self.idx_e[ns].ravel()
        self._vf = self.idx_f[ns].ravel()
        self._vmin_sq = np.repeat(_pow(net.bus_vmin[ns], 2), NPHASE)
        self._vmax_sq = np.repeat(_pow(net.bus_vmax[ns], 2), NPHASE)
        self._tp = self.idx_p[:, 0].ravel()
        self._tq = self.idx_q[:, 0].ravel()
        self._rating_sq = np.repeat(_pow(net.line_rating, 2), NPHASE)
        self._box_values = np.tile([-1.0, 1.0, -1.0, 1.0], self.idx_pg.size)

        ineq_rows = self.by_family(ineq=np.arange(self.n_ineq))
        lo, hi = ineq_rows["v_mag_lo"].ravel(), ineq_rows["v_mag_hi"].ravel()
        pg, qg = self.idx_pg.ravel(), self.idx_qg.ravel()
        rows = [np.stack((lo, lo, hi, hi), axis=1).ravel(),
                np.stack([ineq_rows[k] for k in ("pg_lo", "pg_hi", "qg_lo", "qg_hi")], -1).ravel(),
                np.repeat(ineq_rows["thermal"], 2)]
        cols = [np.stack((self._ve, self._vf, self._ve, self._vf), axis=1).ravel(),
                np.stack((pg, pg, qg, qg), axis=1).ravel(),
                np.stack((self._tp, self._tq), axis=1).ravel()]
        if self.cfg.mode == "hard":
            rows.append(np.repeat(ineq_rows["vuf_limit"], 6))
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
            return self.by_family(ineq=z_ineq)["vuf_limit"]
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
        c = self._bal_a @ x + self._bal_b
        # flow-definition rows, (line, end, phase) order, P then Q
        c[self.eq_blocks[0].rows] = np.stack((x[self.idx_p] - np.real(s),
                                              x[self.idx_q] - np.imag(s)), axis=-1).ravel()
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
        stream = np.concatenate((np.ones(2 * self.idx_p.size), -slots.ravel(), self._bal_a.data))
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
        v_box, gen_box, thermal, vuf_limit = (block.rows for block in self.ineq_blocks)
        e = x[self._ve]
        f = x[self._vf]
        vsq = e * e + f * f
        c[v_box] = np.stack((self._vmin_sq - vsq, vsq - self._vmax_sq), axis=1).ravel()
        pg = x[self.idx_pg].ravel()
        qg = x[self.idx_qg].ravel()
        c[gen_box] = np.stack((
            self.gen_pmin.ravel() - pg, pg - self.gen_pmax.ravel(),
            self.gen_qmin.ravel() - qg, qg - self.gen_qmax.ravel()), axis=1).ravel()
        p = x[self._tp]
        q = x[self._tq]
        c[thermal] = p * p + q * q - self._rating_sq
        vuf_grad = vuf_hess = np.zeros((0, 6, 6))
        if self.cfg.mode == "hard":
            xv = x[self._vuf_vars]
            fv, vuf_grad, vuf_hess = vuf_metric_grad_hess(xv) if want_jac else (
                vuf_metric_local(xv), None, None)
            c[vuf_limit] = fv - self.cfg.vuf_limit_pct**2
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
        rows = self.by_family(y_eq, z_ineq)
        yp, yq = rows["flow_definition"].reshape(-1, 2).T     # per block, C order
        w = -(yp - 1j * yq)
        block = (w.reshape(self._near.shape + (NPHASE,))[..., None, None]
                 * self._hflow_g).real.ravel()
        # voltage-magnitude bounds (+/- 2 on the two rect coordinates),
        # thermal circles and hard VUF rows
        w_v = 2.0 * (rows["v_mag_hi"] - rows["v_mag_lo"]).ravel()
        w_th = 2.0 * rows["thermal"].ravel()
        w_vuf = rows["vuf_limit"]
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
