"""Primal-dual interior-point solver for the assembled OPF.

Exact-Newton method on the perturbed KKT system with slacked inequalities,
a monotone barrier schedule and a merit line search.  KKT systems of up to
1,200 rows are factored dense (LAPACK Bunch-Kaufman) with inertia
correction; larger ones by SuperLU, which gives no inertia, so a nonconvex
stretch is caught by a failed line search and the next system convexified.
The multipliers are first-class outputs: convergence is declared only when
stationarity, feasibility and complementarity all fall below the KKT
tolerance, so the duals are clean enough to be read as prices.

MU0, MU_FACTOR and the mu**1.5 tail are the barrier schedule of Wächter &
Biegler, "On the implementation of an interior-point filter line-search
algorithm", Math. Prog. 2006; the other constants are this solver's own.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack

from .opf import ConstraintTag, OpfProblem
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


@dataclass(frozen=True)
class SolverSettings:
    kkt_tol: float = 1e-6
    max_iter: int = 300

    def __post_init__(self):
        # values from a JSON sweep config arrive untyped: "1e-6" or 1.5
        if not isinstance(self.kkt_tol, numbers.Real) or not 0 < self.kkt_tol < 1:
            raise ValueError(f"kkt_tol must be a number in (0, 1), got {self.kkt_tol!r}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


@dataclass
class OpfSolution:
    """KKT point with one multiplier per constraint."""
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

    def __post_init__(self):
        self._eq_index = {t: i for i, t in enumerate(self.problem.eq_tags)}
        self._ineq_index = {t: i for i, t in enumerate(self.problem.ineq_tags)}

    @property
    def success(self):
        return self.status == STATUS_SUCCESS

    def multiplier(self, tag: ConstraintTag) -> float:
        if tag in self._eq_index:
            return float(self.y_eq[self._eq_index[tag]])
        return float(self.z_ineq[self._ineq_index[tag]])

    # named accessors, EUR/h per per-unit constraint shift
    def phi_p(self, bus, phase):
        return self.multiplier(ConstraintTag("p_balance", bus=bus, phase=phase))

    def phi_q(self, bus, phase):
        return self.multiplier(ConstraintTag("q_balance", bus=bus, phase=phase))

    def sigma(self, bus, phase):
        lo = self.multiplier(ConstraintTag("v_mag_lo", bus=bus, phase=phase))
        hi = self.multiplier(ConstraintTag("v_mag_hi", bus=bus, phase=phase))
        return lo, hi

    def eta(self, line, phase):
        return self.multiplier(ConstraintTag("thermal", line=line, phase=phase))

    def psi(self, bus):
        return self.multiplier(ConstraintTag("vuf_limit", bus=bus))

    # convenient physical views --------------------------------------------

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
        for g, gen in enumerate(self.problem.net.gens):
            cost += gen.marginal_cost * self.problem.net.base_kw * float(np.sum(p[g]))
        return cost

    def max_vuf(self):
        """(bus id, VUF percent) of the worst non-slack bus."""
        return max_vuf(self.problem.net, self.voltages())

    def dlmp(self, bus, phase, kind="active"):
        """Nodal price in EUR/kWh (EUR/kvarh for reactive)."""
        base_kw = self.problem.net.base_kw
        if kind == "active":
            return self.phi_p(bus, phase) / base_kw
        return self.phi_q(bus, phase) / base_kw


def _inertia(ldu, ipiv):
    """Eigenvalue signs of the block-diagonal factor from dsytrf (lower)."""
    if not np.all(np.isfinite(ldu)):
        return 0, 0, ldu.shape[0]
    n = ldu.shape[0]
    pos = neg = zero = 0
    k = 0
    while k < n:
        if ipiv[k] >= 0:
            d = ldu[k, k]
            if d > 0:
                pos += 1
            elif d < 0:
                neg += 1
            else:
                zero += 1
            k += 1
        else:
            a, c, b = ldu[k, k], ldu[k + 1, k + 1], ldu[k + 1, k]
            with np.errstate(over="ignore", invalid="ignore"):
                det = a * c - b * b
            if not np.isfinite(det):
                det = -1.0 if np.isfinite(b) and abs(b) > 0 else 1.0
            if det < 0:
                pos += 1
                neg += 1
            elif a + c > 0:
                pos += 2
            else:
                neg += 2
            k += 2
    return pos, neg, zero


class _KktSystem:
    """One factorization of the regularized primal-dual KKT matrix (dense)."""

    def __init__(self, w_dense, j_eq_dense, delta_c):
        n = w_dense.shape[0]
        m = j_eq_dense.shape[0]
        k = np.zeros((n + m, n + m))
        k[:n, :n] = w_dense
        k[:n, n:] = j_eq_dense.T
        k[n:, :n] = j_eq_dense
        k[n:, n:] = -delta_c * np.eye(m)
        self.n, self.m = n, m
        self.ldu, self.ipiv, info = lapack.dsytrf(k, lower=1)
        self.ok = info == 0
        if self.ok:
            self.inertia = _inertia(self.ldu, self.ipiv)
        else:
            self.inertia = (0, 0, self.n + self.m)

    def correct(self):
        want = (self.n, self.m, 0)
        return self.ok and self.inertia == want

    def solve(self, rhs):
        sol, info = lapack.dsytrs(self.ldu, self.ipiv, rhs, lower=1)
        if info != 0:
            raise scipy.linalg.LinAlgError("dsytrs failed")
        return sol


class _SparseKktSystem:
    """Sparse LU of the quasi-definite regularized KKT matrix.

    Inertia is not available from an LU factorization, so correctness is
    judged by factorization success; nonconvexity is handled by the caller
    escalating the primal regularization whenever the line search fails.
    A fixed dual regularization keeps the matrix quasi-definite; its effect
    on the step is removed by iterative refinement against the matrix
    without that perturbation.
    """

    DELTA_C = 1e-8

    def __init__(self, w_sparse, j_eq_sparse, delta):
        n = w_sparse.shape[0]
        m = j_eq_sparse.shape[0]
        self.target = sp.bmat(
            [[w_sparse + delta * sp.eye(n), j_eq_sparse.T],
             [j_eq_sparse, sp.csr_matrix((m, m))]],
            format="csc")
        perturbed = self.target + sp.diags(
            np.concatenate([np.zeros(n), -self.DELTA_C * np.ones(m)])).tocsc()
        self.ok = True
        try:
            self.lu = sp.linalg.splu(perturbed)
        except RuntimeError:
            self.ok = False

    def correct(self):
        return self.ok

    def solve(self, rhs):
        x = self.lu.solve(rhs)
        for _ in range(2):   # refinement against the unperturbed-dual matrix
            x = x + self.lu.solve(rhs - self.target @ x)
        if not np.all(np.isfinite(x)):
            raise scipy.linalg.LinAlgError("sparse KKT solve produced non-finite values")
        return x


def _row_scales(jac):
    mags = np.abs(jac).max(axis=1).toarray().ravel()
    return 1.0 / np.maximum(1.0, mags)


def solve(prob: OpfProblem, warm=None, settings: SolverSettings | None = None) -> OpfSolution:
    """Solve the NLP to a KKT point; multipliers in EUR/h per per-unit.

    No row block is ever empty: a valid network's one substation generator
    alone gives 6 variables, 6 balance rows and 12 output-box rows.
    """
    st = settings or SolverSettings()
    x = prob.x0(warm)
    n = prob.nvar

    e = prob.evaluate(x)
    d_eq = _row_scales(e.jac_eq)
    d_in = _row_scales(e.jac_ineq)

    def scale(e):
        return (e.c_eq * d_eq, (e.c_ineq - BOUND_RELAX) * d_in,
                sp.diags(d_eq) @ e.jac_eq, sp.diags(d_in) @ e.jac_ineq)

    def scaled(xv, want_jac=True):
        if want_jac:
            e = prob.evaluate(xv)
            return e, *scale(e)
        ce, _ = prob.eval_eq(xv, want_jac=False)
        ci, _ = prob.eval_ineq(xv, want_jac=False)
        return prob.objective_value(xv), ce * d_eq, (ci - BOUND_RELAX) * d_in

    ce, ci, je, ji = scale(e)
    m_eq = len(ce)
    s = np.maximum(1e-2, -ci)
    mu = MU0
    z = mu / s
    # least-squares initial equality multipliers, capped
    try:
        a = (je @ je.T + 1e-10 * sp.eye(m_eq)).tocsc()
        rhs = -(je @ (e.grad_objective + ji.T @ z))
        y = sp.linalg.spsolve(a, rhs)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > 1e6:
            y = np.zeros(m_eq)
    except RuntimeError:     # SuperLU could not factor the normal matrix
        y = np.zeros(m_eq)

    nu = 1.0        # merit penalty weight
    delta_last = 0.0
    forced_delta = 0.0      # convexification requested by a failed line search
    status = STATUS_FAILED
    message = ""
    ls_failures = 0

    for it in range(1, st.max_iter + 1):
        stat = np.max(np.abs(e.grad_objective + je.T @ y + ji.T @ z))
        # feasibility judged on the original (unscaled) constraint values so
        # that a declared success survives independent residual recomputation
        feas = max(np.max(np.abs(ce / d_eq)), np.max(np.abs((ci + s) / d_in)))
        comp0 = np.max(np.abs(s * z))
        if not np.isfinite(stat) or max(np.max(np.abs(y)), np.max(np.abs(z))) > 1e14:
            message = "iterates diverged (unbounded multipliers)"
            break
        if max(stat, feas, comp0) <= st.kkt_tol:
            status = STATUS_SUCCESS
            break
        comp_mu = np.max(np.abs(s * z - mu))
        if max(stat, feas, comp_mu) <= mu and mu > st.kkt_tol / 10:
            # monotone schedule; superlinear tail only once mu is small,
            # so the early iterates are not outpaced by the barrier
            step = mu * MU_FACTOR
            if mu <= 1e-3:
                step = min(step, mu**1.5)
            mu = max(st.kkt_tol / 100, step)
            z = np.clip(z, mu / (1e10 * s), 1e10 * mu / s)

        hess = prob.hess_lagrangian(x, d_eq * y, d_in * z)
        sigma = z / s
        w_sp = (hess + (ji.T @ sp.diags(sigma) @ ji)).tocsr()
        w_sp = (w_sp + w_sp.T) * 0.5
        dense = n + m_eq <= 1200
        if dense:
            w = np.asarray(w_sp.todense())
            j_eq_d = np.asarray(je.todense())

        # inertia-corrected factorization; the dual regularization stays off
        # unless the plain system is singular, because it perturbs the
        # equality rows and the merit function notices
        delta = forced_delta
        delta_c = 0.0
        trial = max(REG_INIT, delta_last / 3.0, forced_delta)
        while True:
            if dense:
                kkt = _KktSystem(w + delta * np.eye(n), j_eq_d, delta_c)
            else:
                kkt = _SparseKktSystem(w_sp, je, delta)
            if kkt.correct():
                break
            if dense and (not kkt.ok or kkt.inertia[2] > 0):
                delta_c = 1e-8
            delta = trial if delta == 0.0 else delta * 10.0
            trial = delta
            if delta > REG_CAP:
                break
        if not kkt.correct():
            message = "KKT matrix could not be regularized"
            break
        delta_last = delta
        forced_delta = 0.0

        r_i = ci + s
        rhs_x = -(e.grad_objective + je.T @ y) - ji.T @ (mu / s + sigma * r_i)
        rhs = np.concatenate([rhs_x, -ce])
        sol = kkt.solve(rhs)
        dx = sol[:n]
        dy = sol[n:]
        ds = -r_i - ji @ dx
        dz = (mu - s * z) / s - sigma * ds

        # fraction-to-boundary step limits
        def max_step(v, dv):
            mask = dv < 0
            if not np.any(mask):
                return 1.0
            return min(1.0, TAU * np.min(-v[mask] / dv[mask]))

        alpha_max = max_step(s, ds)
        alpha_z = max_step(z, dz)

        theta = (np.sum(np.abs(ce)) + np.sum(np.abs(r_i)))
        bar_dir = e.grad_objective @ dx - mu * np.sum(ds / s)
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
        barrier0 = e.objective - mu * np.sum(np.log(s))
        merit0 = barrier0 + nu * theta
        ddir = bar_dir - nu * theta

        alpha = alpha_max
        accepted = False
        # if the achievable merit change is below float resolution the step is
        # a pure dual correction; backtracking would only stall it
        if abs(ddir) * alpha_max <= np.sqrt(np.finfo(float).eps) * max(1.0, abs(merit0)):
            try:
                scaled(x + alpha * dx, want_jac=False)
                x_t = x + alpha * dx
                s_t = s + alpha * ds
                accepted = True
            except (ValueError, FloatingPointError):
                pass
        for _ in range(40 if not accepted else 0):
            x_t = x + alpha * dx
            s_t = s + alpha * ds
            try:
                obj_t, ce_t, ci_t = scaled(x_t, want_jac=False)
            except (ValueError, FloatingPointError):
                alpha *= 0.5
                continue
            theta_t = np.sum(np.abs(ce_t)) + np.sum(np.abs(ci_t + s_t))
            merit_t = obj_t - mu * np.sum(np.log(s_t)) + nu * theta_t
            # noise floor: near a solved barrier subproblem the true decrease
            # is below float resolution of the merit value; accept those steps
            noise = 1e4 * np.finfo(float).eps * max(1.0, abs(merit0))
            if np.isfinite(merit_t) and (
                merit_t <= merit0 + 1e-4 * alpha * min(ddir, 0.0) + noise
            ):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            ls_failures += 1
            if ls_failures >= 5:
                message = "line search failed repeatedly"
                break
            # without an inertia test the direction may be an ascent one on a
            # nonconvex stretch; convexify the next KKT system
            forced_delta = max(10.0 * max(delta, REG_INIT), 1e-6)
            alpha = min(alpha_max, 1e-3)
            x_t = x + alpha * dx
            s_t = np.maximum(s + alpha * ds, 1e-16)
        else:
            ls_failures = 0

        x = x_t
        s = s_t
        y = y + alpha * dy
        z = np.maximum(z + alpha_z * dz, 1e-16)
        e, ce, ci, je, ji = scaled(x)
    else:
        message = "maximum iterations exceeded"

    # unscaled residuals; the last evaluation e is always at the final x
    y_un = d_eq * y
    z_un = d_in * z
    r_d = e.grad_objective + e.jac_eq.T @ y_un + e.jac_ineq.T @ z_un
    stat = float(np.max(np.abs(r_d)))
    feas = float(max(np.max(np.abs(e.c_eq)), np.max(e.c_ineq, initial=0.0)))
    comp = float(np.max(np.abs(z_un * e.c_ineq)))
    residuals = {"stationarity": stat, "feasibility": feas, "complementarity": comp}

    if status != STATUS_SUCCESS:
        # distinguish genuinely infeasible points (e.g. hard-mode VUF limits)
        if feas > 1e2 * st.kkt_tol:
            status = STATUS_INFEASIBLE
            if prob.cfg.mode == "hard":
                viol = e.c_ineq[prob._vuf_row0:]
                if viol.size and np.max(viol, initial=0.0) > st.kkt_tol:
                    message = (message + "; " if message else "") + \
                        "hard voltage-unbalance limits violated at the final iterate"

    return OpfSolution(
        problem=prob, status=status, x=x, y_eq=y_un, z_ineq=z_un,
        slacks=s, objective=prob.objective_value(x), iterations=it,
        residuals=residuals, message=message,
    )
