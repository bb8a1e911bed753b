"""Primal-dual interior-point solver for the assembled OPF.

Exact-Newton method on the perturbed KKT system with slacked inequalities,
a monotone barrier schedule and a merit line search.  Every KKT matrix is
inertia-corrected (Wächter & Biegler 2006, §3.1): systems of up to 1,200
rows are factored dense by LAPACK Bunch-Kaufman, larger ones by SuperLU in
symmetric mode, whose inertia is the signs of the U diagonal when it
pivoted on the diagonal only.  The multipliers are first-class outputs:
convergence is declared only when stationarity, feasibility and
complementarity all fall below the KKT tolerance, so the duals are clean
enough to be read as prices; :meth:`~vudlmp.opf.OpfProblem.by_family`
reads them by constraint family.  Only a failed solve names a row by tag.

:func:`solve` drives one :class:`_Iterate` (x, s, y, z, mu and the scaled
evaluation) through one function per phase of the method: :func:`_start`
builds it, :func:`_test` stops or updates the barrier, :func:`_direction`
takes the inertia-corrected factorization (:func:`_factor`) and the Newton
step, :func:`_line_search` the fraction-to-boundary limit
(:func:`_max_step`) and the merit backtracking, :func:`_advance` the move,
and :func:`_result` the unscaled residuals and status.

MU0, MU_FACTOR and the mu**1.5 tail are the barrier schedule of Wächter &
Biegler, "On the implementation of an interior-point filter line-search
algorithm", Math. Prog. 2006; the other constants are this solver's own.

The KKT inputs are built with array operations on index arrays laid out
once per solve, from the values the problem's evaluations write on its
fixed derivative layouts (see :mod:`vudlmp.opf`): inside an iteration no
scipy.sparse matrix is built, and each matrix keeps its pattern: an exact
zero is stored as a value where scipy would drop it.
These rules keep every value, and every nonzero entry of every matrix
handed to SuperLU or LAPACK, equal bit for bit to the scipy.sparse
expressions they replace, which the seed-0 benchmark outputs are pinned to:

- Row scaling emits what ``sp.diags(d) @ jac`` (scipy's ``csr_matmat``)
  emits: each row's entries in the reverse of their layout order, so
  descending columns, into one ``csr_matrix`` per solve that each iterate
  refills in place; its matvecs, and its transpose's, are scipy's own.
- ``J' diag(sigma) J`` is summed term by term, ``J[k, c] * (sigma_k *
  J[k, r])`` into ``[r, c]``, in ascending row ``k``, as the sparse product
  sums it; entries with three terms (lower bound, upper bound, VUF) round
  by that order.  It is added to the Lagrangian Hessian and symmetrized as
  ``(w + w') * 0.5``.
- Both factorizations read the KKT matrix ``[[W + delta I, Je'], [Je, 0]]``
  off one CSC superset pattern (a :class:`~vudlmp.netmodel.CsrLayout`, as
  are W and ``P K P'``) whose values each iterate refills, from the
  Hessian's values on its superset layout (0 where no term falls) and the
  scaled equality Jacobian.  SuperLU's two CSC inputs (one with ``-DELTA_C``
  on the lower diagonal) are built once per solve and refilled; LAPACK's
  dense copy takes every entry and ``-delta_c I`` as its lower-right block,
  signed zeros included.
- SuperLU gets those matrices as ``P K P'``, with P one fill-reducing
  ordering per solve, bit for bit what scipy's products with the
  permutation matrix give, and factors them in that order
  (``permc_spec="NATURAL"``).  The dense path keeps the natural order and
  LAPACK: moving the small systems onto SuperLU would round every simple5
  bit differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack

from .netmodel import CsrLayout, is_number
from .opf import OpfProblem
from .powerflow import max_vuf

STATUS_SUCCESS = "success"
STATUS_FAILED = "failed"
STATUS_INFEASIBLE = "infeasible"

MU0 = 0.1               # initial barrier parameter
MU_FACTOR = 0.2         # linear barrier decrease per solved subproblem
TAU = 0.995             # fraction-to-boundary
REG_INIT = 1e-8         # initial inertia regularization
REG_CAP = 1e12          # regularization past which a KKT matrix is given up on
BOUND_RELAX = 1e-8      # tiny inequality relaxation (handles pinned boxes)
DELTA_C = 1e-8          # dual regularization of the KKT matrix


@dataclass(frozen=True)
class SolverSettings:
    kkt_tol: float = 1e-6
    max_iter: int = 300

    def __post_init__(self):
        if not is_number(self.kkt_tol) or not 0 < self.kkt_tol < 1:
            raise ValueError(f"kkt_tol must be a number in (0, 1), got {self.kkt_tol!r}")
        if not is_number(self.max_iter, integral=True) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


@dataclass
class OpfSolution:
    """KKT point with one multiplier per constraint row, in EUR/h per
    per-unit: ``problem.by_family(y_eq, z_ineq)`` reads them by family."""
    problem: OpfProblem
    status: str
    x: np.ndarray
    y_eq: np.ndarray
    z_ineq: np.ndarray
    slacks: np.ndarray
    objective: float
    iterations: int
    residuals: dict = field(default_factory=dict)
    message: str = ""

    @property
    def success(self):
        return self.status == STATUS_SUCCESS

    def voltages(self):
        return self.problem.voltages(self.x)

    def gen_dispatch(self):
        """(ngen, 3) arrays of P and Q in per-unit."""
        p = self.x[self.problem.idx_pg]
        q = self.x[self.problem.idx_qg]
        return p, q

    def total_losses_pu(self):
        p = self.x[self.problem.idx_p]
        return float(np.sum(p))

    def total_gen_cost(self):
        """Energy cost only (EUR over the 1-hour interval), penalty excluded."""
        p, _ = self.gen_dispatch()
        cost = 0.0
        for marginal_cost, pg in zip(self.problem.net.gen_cost.tolist(), p):
            cost += marginal_cost * self.problem.net.base_kw * float(np.sum(pg))
        return cost

    def max_vuf(self):
        """(bus id, VUF percent) of the worst non-slack bus."""
        return max_vuf(self.problem.net, self.voltages())


def _inertia(ldu, ipiv):
    """Eigenvalue signs of the block-diagonal factor from dsytrf (lower).

    A negative ``ipiv`` entry marks a 2x2 block; the negative entries of
    each run pair up from the start of the run.
    """
    n = ldu.shape[0]
    if not np.all(np.isfinite(ldu)):
        return 0, 0, n
    k = np.arange(n)
    two = ipiv < 0
    run_start = np.maximum.accumulate(np.where(two, 0, k + 1))
    first = two & ((k - run_start) % 2 == 0)
    single = ~(first | np.concatenate(([False], first[:-1])))
    d = ldu[k[single], k[single]]
    k = k[first]
    a, c, b = ldu[k, k], ldu[k + 1, k + 1], ldu[k + 1, k]
    with np.errstate(over="ignore", invalid="ignore"):
        det = a * c - b * b
    # an overflowed determinant: a real off-diagonal means opposite signs
    det = np.where(np.isfinite(det), det,
                   np.where(np.isfinite(b) & (np.abs(b) > 0), -1.0, 1.0))
    split = det < 0
    up = ~split & (a + c > 0)
    down = ~split & ~up
    pos = np.count_nonzero(d > 0) + np.count_nonzero(split) + 2 * np.count_nonzero(up)
    neg = np.count_nonzero(d < 0) + np.count_nonzero(split) + 2 * np.count_nonzero(down)
    return pos, neg, n - pos - neg


class _KktSystem:
    """Bunch-Kaufman factorization of the dense KKT matrix ``k`` with ``n``
    primal rows, and its inertia."""

    def __init__(self, k, n):
        self.want = (n, k.shape[0] - n, 0)
        self.ldu, self.ipiv, info = lapack.dsytrf(k, lower=1)
        self.ok = info == 0
        self.inertia = _inertia(self.ldu, self.ipiv) if self.ok else (0, 0, k.shape[0])

    def correct(self):
        return self.ok and self.inertia == self.want

    def singular(self):
        return not self.ok or self.inertia[2] > 0

    def solve(self, rhs):
        sol, info = lapack.dsytrs(self.ldu, self.ipiv, rhs, lower=1)
        if info != 0:
            raise scipy.linalg.LinAlgError("dsytrs failed")
        return sol


class _SparseKktSystem:
    """Symmetric-mode SuperLU factorization of the permuted KKT matrix, and
    its inertia.

    ``target`` and ``perturbed`` are ``P K P'`` without and with the dual
    regularization; ``perm[i]`` is the row of ``P K P'`` that holds row i of
    K.  With ``diag_pivot_thresh=0`` SuperLU pivots on every diagonal entry
    that is not zero, so when it kept to the diagonal (``perm_r ==
    perm_c``) the factors are ``L D L'`` with D the diagonal of U, and the
    signs of D are the inertia (Sylvester).  Otherwise the inertia is
    unknown and the system not correct, so the caller regularizes further:
    a regularized KKT matrix is quasi-definite and factors under any
    symmetric ordering (Vanderbei, SIAM J. Optim. 1995).  The dual
    regularization's effect on the step is removed by iterative refinement
    against the matrix without it.
    """

    def __init__(self, target, perturbed, perm, n):
        self.target, self.perm = target, perm
        self.want = (n, target.shape[0] - n, 0)
        self.inertia = None
        try:
            # a panel of 4 columns, not SuperLU's default, suits the small
            # supernodes of these matrices: an eulv117 KKT matrix factors in
            # 1.8-2.3 ms against 3.3 ms (one BLAS thread, 2-core Xeon)
            self.lu = sp.linalg.splu(perturbed, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                     panel_size=4, options={"SymmetricMode": True})
        except RuntimeError:
            self.ok = False
            return
        self.ok = True
        if np.array_equal(self.lu.perm_r, self.lu.perm_c):
            d = self.lu.U.diagonal()
            pos, neg = np.count_nonzero(d > 0), np.count_nonzero(d < 0)
            self.inertia = (pos, neg, len(d) - pos - neg)

    def correct(self):
        return self.ok and self.inertia == self.want

    def singular(self):
        return not self.ok

    def solve(self, rhs):
        b = np.empty_like(rhs)
        b[self.perm] = rhs
        x = self.lu.solve(b)
        for _ in range(2):   # refinement against the unperturbed-dual matrix
            x = x + self.lu.solve(b - self.target @ x)
        if not np.all(np.isfinite(x)):
            raise scipy.linalg.LinAlgError("sparse KKT solve produced non-finite values")
        return x[self.perm]


def _row_scales(layout, values):
    """1 / max(1, largest |entry|) of each row of a matrix on ``layout``."""
    mags = np.zeros(layout.shape[0])
    np.maximum.at(mags, layout.rows, np.abs(values))
    return 1.0 / np.maximum(1.0, mags)


class _RowScaling:
    """``sp.diags(d) @ J`` for the Jacobians J on one layout: one ``matrix``
    per solve whose ``data`` each call refills, and ``t``, its transpose, a
    CSC view on that ``data``.  scipy's ``csr_matmat`` emits each row's
    entries in the reverse of their stored order (see the module docstring):
    ``entries`` gives the layout entry of each emitted one.  The reversal
    keeps every row's count, so ``indptr`` is the layout's.  Canonicalizing
    either matrix in place (``sort_indices``, ``sum_duplicates``, ...)
    would reorder ``data`` against ``entries``."""

    def __init__(self, d, layout):
        ends = layout.indptr.astype(np.int64)
        self.entries = ends[layout.rows] + ends[layout.rows + 1] - 1 - np.arange(layout.nnz)
        self.d = d[layout.rows]
        self.matrix = sp.csr_matrix((np.zeros(layout.nnz), layout.indices[self.entries],
                                     layout.indptr), shape=layout.shape)
        self.t = self.matrix.T

    def __call__(self, values):
        """The matrix at ``values`` on the layout, refilled in place."""
        np.multiply(self.d, values[self.entries], out=self.matrix.data)
        return self.matrix


class _KktLayout:
    """The KKT matrices of one solve on one CSC pattern laid out per solve.

    The pattern is a superset of every pattern the scipy.sparse construction
    can give: the problem's Hessian and equality-Jacobian layouts, their
    transposes, the ``J' diag(sigma) J`` products, the diagonal and the dual
    regularization.  Each iterate refills the values; each factorization
    reads them out, sparse or dense (see the module docstring).

    The inequality Jacobian keeps its explicit zeros, so one layout serves
    every point of one problem.  Each product of ``J' diag(sigma) J`` pairs
    the entries ``a`` = J[k, r] and ``b`` = J[k, c] of one row k; the pairs
    run ascending in k and ``bincount`` adds them in that order into the
    slot of ``(r, c)``.
    """

    def __init__(self, prob):
        n = self.n = prob.nvar
        size = self.size = n + prob.n_eq
        hess, jeq, jac = prob.hess_layout, prob.jac_eq_layout, prob.jac_ineq_layout
        hr, hc = hess.rows, hess.indices.astype(np.int64)
        er, ec = jeq.rows, jeq.indices.astype(np.int64)
        diag, eq = np.arange(n), n + np.arange(prob.n_eq)
        per = np.diff(jac.indptr)[jac.rows]
        self.a = np.repeat(np.arange(jac.nnz), per)
        self.k = jac.rows[self.a]
        self.b = jac.indptr[self.k] + np.arange(self.a.size) - np.repeat(np.cumsum(per) - per, per)
        pr, pc = jac.indices[self.a].astype(np.int64), jac.indices[self.b].astype(np.int64)
        # the W block in column-major order (the layout of its transpose):
        # each Hessian entry, its transpose, each product and the diagonal
        w = self.w_layout = CsrLayout(np.concatenate((hc, hr, pc, diag)),
                                      np.concatenate((hr, hc, pr, diag)), (n, n))
        self.h_slots = w.slots[:len(hr)]
        self.jsj_slots = w.slots[2 * len(hr):2 * len(hr) + len(pr)]
        wr, wc = w.indices.astype(np.int64), w.rows
        self.w_t = np.searchsorted(wc * n + wr, wr * n + wc)
        self.on_diag = (wr == wc).astype(float)
        # K in column-major order: W, Je below it, Je' right of it, d11
        k = self.layout = CsrLayout(np.concatenate((wc, ec, n + er, eq)),
                                    np.concatenate((wr, n + er, ec, eq)), (size, size))
        self.w_slot = k.slots[:w.nnz]
        # each equality-Jacobian entry's two slots: below and right of W
        self.eq_slots = k.slots[w.nnz:w.nnz + 2 * len(er)].reshape(2, -1)
        self.d11 = k.slots[w.nnz + 2 * len(er):]
        self.vals = np.zeros(k.nnz)   # refilled in place by every iterate
        self._dense = None

    def refill(self, hess, sigma, scale_eq, scale_in):
        """Lay in this iterate's values: ``sym(H + J' diag(sigma) J)`` from the
        Hessian values on the problem's layout, and both scaled Jacobians from
        their :class:`_RowScaling` s in layout order: ``data`` at ``entries``,
        as reversing a row twice restores it."""
        nw = self.w_layout.nnz
        h = np.zeros(nw)
        h[self.h_slots] = hess
        j = scale_in.matrix.data[scale_in.entries]
        v = h + np.bincount(self.jsj_slots, j[self.b] * (sigma[self.k] * j[self.a]), nw)
        self.w = (v + v[self.w_t]) * 0.5
        self.vals[self.eq_slots] = scale_eq.matrix.data[scale_eq.entries]

    def zero_on_diagonal(self):
        """Whether the diagonal of ``W`` holds an exact zero."""
        return not np.all(self.w[self.on_diag > 0])

    @cached_property
    def _ordering(self):
        """A fill-reducing symmetric ordering of the pattern, and the pattern
        laid out in that order.

        SuperLU's minimum degree ordering of ``A + A'`` is taken once, from
        one factorization of a quasi-definite stand-in on the superset
        pattern: I on the W diagonal, -I on the lower diagonal, 1 on the
        ``Je`` entries and explicit zeros elsewhere.  Returns ``perm`` (row
        i of K is row ``perm[i]`` of ``P K P'``), the slot of each of ``vals``
        in the CSC layout of ``P K P'``, and the two SuperLU inputs on that
        matrix's pattern, whose values ``matrices`` refills.
        """
        n, size = self.n, self.size
        r, c = self.layout.indices, self.layout.rows
        stand_in = np.where(r == c, np.where(r < n, 1.0, -1.0), ((r < n) != (c < n)) * 1.0)
        lu = sp.linalg.splu(sp.csc_matrix((stand_in, (r, c)), shape=(size, size)),
                            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        perm = lu.perm_c.astype(np.int64)
        pkp = CsrLayout(perm[c], perm[r], (size, size))
        target, perturbed = (sp.csc_matrix((np.zeros(pkp.nnz), pkp.indices, pkp.indptr),
                                           shape=(size, size)) for _ in range(2))
        return perm, pkp.slots, target, perturbed

    def matrices(self, delta):
        """``P K P'`` for the KKT matrix K at primal regularization ``delta``
        and its copy with the dual regularization, refilled in place, and the
        permutation (see ``_ordering``).  Both are valid until the next call."""
        perm, slots, target, perturbed = self._ordering
        self.vals[self.w_slot] = self.w + delta * self.on_diag
        self.vals[self.d11] = 0.0
        target.data[slots] = self.vals
        self.vals[self.d11] = -DELTA_C
        perturbed.data[slots] = self.vals
        return target, perturbed, perm

    def dense(self, delta, delta_c):
        """The KKT matrix at primal regularization ``delta`` as a dense array
        with ``-delta_c I`` as its lower-right block (``-0.0`` off its
        diagonal, as that product gives).  One buffer serves the whole
        solve: entries off the pattern stay 0, and the result is valid
        until the next call."""
        if self._dense is None:
            self._dense = np.zeros((self.size, self.size), order="F")   # as LAPACK reads it
            self._eye = np.eye(self.size - self.n)
        self.vals[self.w_slot] = self.w + delta * self.on_diag
        self._dense[self.layout.indices, self.layout.rows] = self.vals
        np.multiply(-delta_c, self._eye, out=self._dense[self.n:, self.n:])
        return self._dense


def _worst_row(prob, e, z_ineq, tol):
    """The largest unscaled feasibility residual of evaluation ``e``, or if
    none exceeds ``tol`` the largest complementarity one, named by its
    constraint tag; empty if neither exceeds ``tol``."""
    viol = np.concatenate((np.abs(e.c_eq), np.maximum(e.c_ineq, 0.0)))
    comp = np.abs(z_ineq * e.c_ineq)
    for what, res, tags in (("feasibility", viol, prob.eq_tags + prob.ineq_tags),
                            ("complementarity", comp, prob.ineq_tags)):
        k = int(np.argmax(res))
        if res[k] > tol:
            return f"worst {what} residual {res[k]:.3g} at {tags[k].describe()}"
    return ""


class _StepFailed(Exception):
    """No Newton direction at this iterate: the KKT matrix could not be
    regularized, or its back-substitution failed."""


class _Scaling:
    """The row scaling of one solve, fixed by the first evaluation ``e``:
    ``d_eq`` and ``d_in``, and the two scaled Jacobians (``eq`` and
    ``ineq``, :class:`_RowScaling` s) that every iterate refills."""

    def __init__(self, prob, e):
        self.prob = prob
        self.d_eq = _row_scales(prob.jac_eq_layout, e.jac_eq_values)
        self.d_in = _row_scales(prob.jac_ineq_layout, e.jac_ineq_values)
        self.eq = _RowScaling(self.d_eq, prob.jac_eq_layout)
        self.ineq = _RowScaling(self.d_in, prob.jac_ineq_layout)

    def evaluate(self, x, e=None):
        """The evaluation at ``x`` (``e`` if given) with both scaled Jacobians
        refilled at it, and its scaled equality and inequality residuals."""
        e = self.prob.evaluate(x) if e is None else e
        self.eq(e.jac_eq_values)
        self.ineq(e.jac_ineq_values)
        return e, e.c_eq * self.d_eq, (e.c_ineq - BOUND_RELAX) * self.d_in

    def trial(self, x):
        """The objective and the scaled residuals at a trial point, without
        Jacobians."""
        ce, _ = self.prob.eval_eq(x, want_jac=False)
        ci, _ = self.prob.eval_ineq(x, want_jac=False)
        return self.prob.objective_value(x), ce * self.d_eq, (ci - BOUND_RELAX) * self.d_in


@dataclass
class _Iterate:
    """One interior-point iterate: the primal point ``x``, the slacks ``s``,
    the scaled multipliers ``y`` and ``z``, the barrier parameter ``mu``, and
    the evaluation ``e`` at ``x`` with its scaled residuals ``ce`` and
    ``ci`` (the scaled Jacobians hold their values at ``x``)."""
    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mu: float
    e: object
    ce: np.ndarray
    ci: np.ndarray


def _start(x, e, scaling):
    """The first iterate, at ``x`` with evaluation ``e``: slacks floored at
    1e-2, ``z = MU0 / s`` and least-squares equality multipliers, capped."""
    e, ce, ci = scaling.evaluate(x, e)
    s = np.maximum(1e-2, -ci)
    z = MU0 / s
    je = scaling.eq.matrix
    try:
        a = (je @ scaling.eq.t + 1e-10 * sp.eye(len(ce))).tocsc()
        y = sp.linalg.spsolve(a, -(je @ (e.grad_objective + scaling.ineq.t @ z)))
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > 1e6:
            y = np.zeros(len(ce))
    except RuntimeError:     # SuperLU could not factor the normal matrix
        y = np.zeros(len(ce))
    return _Iterate(x, s, y, z, MU0, e, ce, ci)


def _test(pt, scaling, st, last):
    """The termination test at ``pt``, then the barrier update.

    Returns (status, message) when the solve stops at ``pt``: its multipliers
    diverged, it is a KKT point, or ``last`` says the iteration budget is
    spent.  Otherwise returns None, having lowered ``pt.mu`` (and clipped
    ``pt.z`` to it) if ``pt`` solves the barrier subproblem."""
    stat = np.max(np.abs(pt.e.grad_objective + scaling.eq.t @ pt.y + scaling.ineq.t @ pt.z))
    # feasibility judged on the original (unscaled) constraint values so
    # that a declared success survives independent residual recomputation
    feas = max(np.max(np.abs(pt.ce / scaling.d_eq)),
               np.max(np.abs((pt.ci + pt.s) / scaling.d_in)))
    if not np.isfinite(stat) or max(np.max(np.abs(pt.y)), np.max(np.abs(pt.z))) > 1e14:
        return STATUS_FAILED, "iterates diverged (unbounded multipliers)"
    if max(stat, feas, np.max(np.abs(pt.s * pt.z))) <= st.kkt_tol:
        return STATUS_SUCCESS, ""
    if last:
        return STATUS_FAILED, "maximum iterations exceeded"
    comp_mu = np.max(np.abs(pt.s * pt.z - pt.mu))
    if max(stat, feas, comp_mu) <= pt.mu and pt.mu > st.kkt_tol / 10:
        # monotone schedule; superlinear tail only once mu is small,
        # so the early iterates are not outpaced by the barrier
        step = pt.mu * MU_FACTOR
        if pt.mu <= 1e-3:
            step = min(step, pt.mu**1.5)
        pt.mu = max(st.kkt_tol / 100, step)
        pt.z = np.clip(pt.z, pt.mu / (1e10 * pt.s), 1e10 * pt.mu / pt.s)
    return None


def _factor(layout, dense, delta_last):
    """Inertia-corrected factorization of the refilled KKT matrix: the
    factors and the primal regularization ``delta`` they took.

    The dual regularization stays off unless the plain system is singular,
    because it perturbs the equality rows and the merit function notices.
    Symmetric pivoting cannot certify a W with an exact zero on its diagonal,
    so the sparse path starts that one regularized.  Raises
    :class:`_StepFailed` once ``delta`` would pass ``REG_CAP``."""
    trial = max(REG_INIT, delta_last / 3.0)
    delta = trial if not dense and layout.zero_on_diagonal() else 0.0
    delta_c = 0.0
    while True:
        kkt = None      # free the previous factors before the next ones are allocated
        if dense:
            kkt = _KktSystem(layout.dense(delta, delta_c), layout.n)
        else:
            kkt = _SparseKktSystem(*layout.matrices(delta), layout.n)
        if kkt.correct():
            return kkt, delta
        if kkt.singular():
            delta_c = DELTA_C
        step = trial if delta == 0.0 else delta * 10.0
        if step > REG_CAP:
            inertia = "unknown" if kkt.inertia is None else tuple(map(int, kkt.inertia))
            raise _StepFailed(f"KKT matrix could not be regularized: inertia {inertia} "
                              f"at delta {delta:.1e}, wanted {kkt.want}")
        delta = step


def _direction(prob, pt, scaling, layout, dense, delta_last):
    """The Newton direction at ``pt``: (delta, (dx, dy, ds, dz)), with delta
    the primal regularization of its factorization, which is freed on
    return.  Raises :class:`_StepFailed` if there is none."""
    hess = prob.hess_lagrangian(pt.x, scaling.d_eq * pt.y, scaling.d_in * pt.z, pt.e.vuf_hess,
                                out=np.empty(prob.hess_layout.nnz))
    sigma = pt.z / pt.s
    layout.refill(hess, sigma, scaling.eq, scaling.ineq)
    kkt, delta = _factor(layout, dense, delta_last)
    r_i = pt.ci + pt.s
    barrier = pt.mu / pt.s + sigma * r_i
    rhs_x = -(pt.e.grad_objective + scaling.eq.t @ pt.y) - scaling.ineq.t @ barrier
    try:
        sol = kkt.solve(np.concatenate([rhs_x, -pt.ce]))
    except scipy.linalg.LinAlgError as exc:
        raise _StepFailed(f"KKT solve failed: {exc}") from None
    dx, dy = sol[:layout.n], sol[layout.n:]
    ds = -r_i - scaling.ineq.matrix @ dx
    return delta, (dx, dy, ds, (pt.mu - pt.s * pt.z) / pt.s - sigma * ds)


def _max_step(v, dv):
    """The fraction-to-boundary step limit of ``v > 0`` along ``dv``."""
    mask = dv < 0
    if not np.any(mask):
        return 1.0
    return min(1.0, TAU * np.min(-v[mask] / dv[mask]))


def _line_search(pt, step, scaling, nu):
    """Backtracking on the merit function (barrier objective plus ``nu``
    times the scaled l1 infeasibility) from ``pt`` along ``step``.

    Returns (nu, alpha, x_t, s_t): the updated penalty weight and the
    accepted step length and trial point, or ``None`` for x_t and s_t when
    no trial was accepted."""
    dx, _, ds, _ = step
    alpha_max = _max_step(pt.s, ds)
    theta = (np.sum(np.abs(pt.ce)) + np.sum(np.abs(pt.ci + pt.s)))
    bar_dir = pt.e.grad_objective @ dx - pt.mu * np.sum(ds / pt.s)
    # penalty weight sized so the merit direction is a descent one, with
    # hysteresis; a non-decreasing weight would grow with the scaled
    # multipliers and reject steps over harmless curvature infeasibility
    nu_req = 1.0
    if theta > 1e2 * np.finfo(float).eps:
        nu_req = max(1.0, 2.0 * max(0.0, bar_dir) / theta + 1.0)
    if nu_req > nu:
        nu = 2.0 * nu_req
    elif nu > 10.0 * nu_req:
        nu = 10.0 * nu_req
    merit0 = pt.e.objective - pt.mu * np.sum(np.log(pt.s)) + nu * theta
    ddir = bar_dir - nu * theta
    alpha = alpha_max
    # if the achievable merit change is below float resolution the step is
    # a pure dual correction: backtracking would only stall it, so its
    # first trial is accepted once it evaluates
    pure_dual = abs(ddir) * alpha_max <= np.sqrt(np.finfo(float).eps) * max(1.0, abs(merit0))
    # noise floor: near a solved barrier subproblem the true decrease
    # is below float resolution of the merit value; accept those steps
    noise = 1e4 * np.finfo(float).eps * max(1.0, abs(merit0))
    for attempt in range(40):
        x_t = pt.x + alpha * dx
        s_t = pt.s + alpha * ds
        try:
            obj_t, ce_t, ci_t = scaling.trial(x_t)
        except (ValueError, FloatingPointError):
            alpha *= 0.5
            continue
        if pure_dual and attempt == 0:
            return nu, alpha, x_t, s_t
        theta_t = np.sum(np.abs(ce_t)) + np.sum(np.abs(ci_t + s_t))
        merit_t = obj_t - pt.mu * np.sum(np.log(s_t)) + nu * theta_t
        if np.isfinite(merit_t) and merit_t <= merit0 + 1e-4 * alpha * min(ddir, 0.0) + noise:
            return nu, alpha, x_t, s_t
        alpha *= 0.5
    return nu, alpha, None, None


def _advance(pt, step, alpha, x_t, s_t, scaling):
    """The next iterate: ``pt`` moved along ``step`` to the accepted trial
    point, or by a short forced step if ``x_t`` is None, and evaluated."""
    dx, dy, ds, dz = step
    if x_t is None:
        alpha = min(_max_step(pt.s, ds), 1e-3)
        x_t = pt.x + alpha * dx
        s_t = np.maximum(pt.s + alpha * ds, 1e-16)
    z = np.maximum(pt.z + _max_step(pt.z, dz) * dz, 1e-16)
    return _Iterate(x_t, s_t, pt.y + alpha * dy, z, pt.mu, *scaling.evaluate(x_t))


def _result(prob, pt, scaling, st, status, message, iterations):
    """The solution at ``pt``: unscaled multipliers and residuals of its
    evaluation and, unless it succeeded, the infeasible status if it is
    far from feasible, with notes on the hard limits and the worst row."""
    e = pt.e
    y_un = scaling.d_eq * pt.y
    z_un = scaling.d_in * pt.z
    r_d = e.grad_objective + e.jac_eq.T @ y_un + e.jac_ineq.T @ z_un
    stat = float(np.max(np.abs(r_d)))
    feas = float(max(np.max(np.abs(e.c_eq)), np.max(e.c_ineq, initial=0.0)))
    comp = float(np.max(np.abs(z_un * e.c_ineq)))
    notes = [message]
    if status != STATUS_SUCCESS:
        # distinguish genuinely infeasible points (e.g. hard-mode VUF limits)
        if feas > 1e2 * st.kkt_tol:
            status = STATUS_INFEASIBLE
            if (prob.cfg.mode == "hard" and np.max(prob.by_family(ineq=e.c_ineq)["vuf_limit"],
                                                   initial=0.0) > st.kkt_tol):
                notes.append("hard voltage-unbalance limits violated at the final iterate")
        notes.append(_worst_row(prob, e, z_un, st.kkt_tol))
    return OpfSolution(
        problem=prob, status=status, x=pt.x, y_eq=y_un, z_ineq=z_un, slacks=pt.s,
        objective=prob.objective_value(pt.x), iterations=iterations,
        residuals={"stationarity": stat, "feasibility": feas, "complementarity": comp},
        message="; ".join(filter(None, notes)),
    )


def solve(prob: OpfProblem, warm=None, settings: SolverSettings | None = None) -> OpfSolution:
    """Solve the NLP to a KKT point; multipliers in EUR/h per per-unit.

    Every returned point is one the termination test saw: the loop tests
    each iterate before it steps, and stops without stepping once the
    iteration budget is spent.  No row block is ever empty: a valid
    network's one substation generator alone gives 6 variables, 6 balance
    rows and 12 output-box rows.
    """
    st = settings or SolverSettings()
    x = prob.x0(warm)
    e = prob.evaluate(x)
    scaling = _Scaling(prob, e)
    pt = _start(x, e, scaling)
    dense = prob.nvar + prob.n_eq <= 1200
    layout = _KktLayout(prob)
    nu = 1.0        # merit penalty weight
    delta_last = 0.0
    ls_failures = 0
    for it in range(1, st.max_iter + 1):
        status, message = _test(pt, scaling, st, it == st.max_iter) or (None, "")
        if status is not None:
            break
        try:
            delta_last, step = _direction(prob, pt, scaling, layout, dense, delta_last)
        except _StepFailed as exc:
            status, message = STATUS_FAILED, str(exc)
            break
        nu, alpha, x_t, s_t = _line_search(pt, step, scaling, nu)
        ls_failures = 0 if x_t is not None else ls_failures + 1
        if ls_failures >= 5:
            status, message = STATUS_FAILED, "line search failed repeatedly"
            break
        pt = _advance(pt, step, alpha, x_t, s_t, scaling)
    return _result(prob, pt, scaling, st, status, message, it)
