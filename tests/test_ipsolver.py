"""Interior-point solver tests: KKT quality, mode behavior, determinism."""

import re
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.linalg import lapack

from vudlmp import ipsolver
from vudlmp.dlmp import decompose
from vudlmp.ipsolver import (
    DELTA_C,
    SolverSettings,
    _inertia,
    _KktLayout,
    _row_scales,
    _RowScaling,
    solve,
)
from vudlmp.netmodel import BusSpec, GenSpec, LoadSpec, NetworkSpec, UnbalanceConfig
from vudlmp.opf import build_problem
from vudlmp.powerflow import solve_pf


def kkt_residuals(sol):
    """Recompute stationarity/feasibility/complementarity from scratch."""
    prob = sol.problem
    e = prob.evaluate(sol.x)
    r_d = e.grad_objective + e.jac_eq.T @ sol.y_eq + e.jac_ineq.T @ sol.z_ineq
    stat = float(np.max(np.abs(r_d)))
    feas = float(max(np.max(np.abs(e.c_eq)), np.max(e.c_ineq, initial=0.0)))
    comp = float(np.max(np.abs(sol.z_ineq * e.c_ineq)))
    return stat, feas, comp


def worst_row(sol):
    """The worst-row suffix of a failed solve's message, recomputed from the
    public evaluation at its x; every failure tested here is infeasible."""
    prob = sol.problem
    e = prob.evaluate(sol.x)
    viol = np.concatenate((np.abs(e.c_eq), np.maximum(e.c_ineq, 0.0)))
    k = int(np.argmax(viol))
    assert viol[k] > 1e-6
    tag = (prob.eq_tags + prob.ineq_tags)[k]
    return f"; worst feasibility residual {viol[k]:.3g} at {tag.describe()}"


class TestConvergence:
    def test_two_bus_all_modes(self, two_bus_solve):
        for kwargs in ({"mode": "none"},
                       {"mode": "hard", "limit": 2.0},
                       {"mode": "soft", "penalty": 1.0}):
            sol = two_bus_solve(**kwargs)
            assert sol.success, sol.message
            stat, feas, comp = kkt_residuals(sol)
            assert max(stat, feas, comp) < 1e-6

    def test_simple5_mode_none(self, simple5_solve):
        sol = simple5_solve("none")
        assert sol.success
        assert sol.iterations < 100

    def test_residual_dict_matches_recomputation(self, simple5_solve):
        sol = simple5_solve("none")
        stat, feas, comp = kkt_residuals(sol)
        assert sol.residuals["stationarity"] == pytest.approx(stat, rel=1e-9)
        assert sol.residuals["feasibility"] == pytest.approx(feas, rel=1e-9)
        assert sol.residuals["complementarity"] == pytest.approx(comp, rel=1e-9)

    def test_cold_start_reaches_same_objective(self, simple5):
        prob = build_problem(simple5)
        sol = solve(prob, warm=None)
        assert sol.success, sol.message
        ref = 55.6106
        assert sol.objective == pytest.approx(ref, abs=1e-2)


class TestKktInvariants:
    def test_inequality_multipliers_are_nonnegative(self, simple5_solve):
        sol = simple5_solve("hard", limit=1.0)
        assert sol.success
        assert np.min(sol.z_ineq) >= 0.0

    def test_slacks_are_positive(self, simple5_solve):
        sol = simple5_solve("soft", penalty=1.0)
        assert np.min(sol.slacks) > 0.0

    def test_substation_dual_is_at_least_marginal_cost(self, simple5, simple5_solve):
        # serving one more kW at the slack costs at least the slack's own rate
        sol = simple5_solve("none")
        sub_cost = next(g.marginal_cost for g in simple5.gens if g.is_substation)
        phi_p = sol.problem.by_family(sol.y_eq)["p_balance"][simple5.bus_index("sub")]
        assert np.all(phi_p / simple5.base_kw >= sub_cost - 1e-6)

    def test_complementarity_at_binding_vuf_row(self, simple5, simple5_solve):
        sol = simple5_solve("hard", limit=1.0)
        e = sol.problem.evaluate(sol.x)
        viol = sol.problem.by_family(ineq=e.c_ineq)["vuf_limit"]
        z = sol.problem.by_family(ineq=sol.z_ineq)["vuf_limit"]
        assert np.max(np.abs(z * viol)) < 1e-6

    def test_free_generation_is_dispatched_first(self, simple5, simple5_solve):
        # zero-cost units run at their active limits in the cheapest dispatch
        sol = simple5_solve("none")
        p, _ = sol.gen_dispatch()
        for g, gen in enumerate(simple5.gens):
            if gen.marginal_cost == 0.0:
                assert np.allclose(p[g], sol.problem.gen_pmax[g], atol=1e-4)


class TestModeBehavior:
    def test_hard_limit_binds_at_threshold(self, simple5_solve):
        none = simple5_solve("none")
        hard = simple5_solve("hard", limit=1.0)
        assert none.max_vuf()[1] > 1.0
        assert hard.success
        _, worst = hard.max_vuf()
        assert 1.0 - 1e-3 <= worst <= 1.0 + 1e-9
        assert hard.objective > none.objective

    def test_nonbinding_hard_limit_is_neutral(self, simple5_solve):
        none = simple5_solve("none")
        hard = simple5_solve("hard", limit=2.0)
        assert abs(hard.objective - none.objective) < 1e-6

    def test_psi_positive_only_at_binding_buses(self, simple5, simple5_solve):
        hard = simple5_solve("hard", limit=1.0)
        bus, _ = hard.max_vuf()
        buses = hard.problem.vuf_buses
        psi = hard.problem.by_family(ineq=hard.z_ineq)["vuf_limit"]
        assert psi[buses.index(bus)] > 0
        v = hard.voltages()
        from vudlmp.sequence import vuf
        u = vuf(v[[simple5.bus_index(bid) for bid in buses]])
        for u_b, psi_b in zip(u, psi):
            if u_b < 1.0 - 1e-3:
                assert psi_b < 1e-6

    def test_soft_zero_weight_equals_none(self, simple5_solve):
        none = simple5_solve("none")
        soft0 = simple5_solve("soft", penalty=0.0)
        assert abs(soft0.objective - none.objective) < 1e-6
        assert soft0.max_vuf()[1] == pytest.approx(none.max_vuf()[1], abs=1e-4)

    def test_growing_penalty_flattens_unbalance(self, simple5_solve):
        worst = [simple5_solve("soft", penalty=w).max_vuf()[1]
                 for w in (0.0, 1.0, 3.0)]
        assert worst[0] > worst[1] > worst[2]

    def test_penalty_on_vuf_variant_converges(self, simple5_solve):
        sol = simple5_solve("soft", penalty=1.0, penalty_on="vuf")
        assert sol.success, sol.message
        assert sol.max_vuf()[1] < simple5_solve("none").max_vuf()[1]

    def test_infeasible_hard_limit_is_reported(self, two_bus):
        # the two-bus load mix cannot reach an (effectively) zero unbalance
        cfg = UnbalanceConfig("hard", 1e-4, buses=("load",))
        prob = build_problem(two_bus, cfg)
        sol = solve(prob, settings=SolverSettings(max_iter=80))
        assert not sol.success
        assert sol.status in ("infeasible", "failed")

    def test_infeasible_hard_limit_names_the_vuf_row(self, two_bus):
        cfg = UnbalanceConfig("hard", 1e-4, buses=("load",))
        sol = solve(build_problem(two_bus, cfg), settings=SolverSettings(max_iter=80))
        assert sol.status == "infeasible"
        assert sol.message.endswith(worst_row(sol))
        assert re.search(r"; worst feasibility residual [0-9.e+-]+ at vuf_limit bus load$",
                         sol.message), sol.message


class TestSolutionViews:
    def test_losses_match_flow_variable_sum(self, simple5_solve):
        sol = simple5_solve("none")
        p = sol.x[sol.problem.idx_p]
        assert sol.total_losses_pu() == pytest.approx(float(np.sum(p)), rel=1e-12)
        assert sol.total_losses_pu() > 0

    def test_cost_matches_dispatch(self, simple5, simple5_solve):
        sol = simple5_solve("none")
        p, _ = sol.gen_dispatch()
        cost = sum(g.marginal_cost * simple5.base_kw * np.sum(p[i])
                   for i, g in enumerate(simple5.gens))
        assert sol.total_gen_cost() == pytest.approx(cost, rel=1e-12)

    def test_voltages_respect_bounds(self, simple5, simple5_solve):
        sol = simple5_solve("none")
        v = np.abs(sol.voltages())
        for b in simple5.buses:
            if b.id == simple5.substation_bus:
                continue
            row = v[simple5.bus_index(b.id)]
            assert np.all(row >= b.vmin - 1e-6)
            assert np.all(row <= b.vmax + 1e-6)


class TestDeterminism:
    def test_repeat_solves_are_bitwise_identical(self, simple5, simple5_pf):
        sols = []
        for _ in range(2):
            prob = build_problem(simple5, UnbalanceConfig("soft", 0.0, 1.5))
            sols.append(solve(prob, warm=simple5_pf))
        assert np.array_equal(sols[0].x, sols[1].x)
        assert np.array_equal(sols[0].y_eq, sols[1].y_eq)
        assert sols[0].objective == sols[1].objective

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolverSettings(kkt_tol=2.0)
        with pytest.raises(ValueError):
            SolverSettings(max_iter=0)


class TestSmallestNetwork:
    """One substation bus, no lines: the smallest problem validation admits.

    The solver has no branch for an empty variable, equality or inequality
    block; these sizes are why none is needed.
    """

    @pytest.fixture(scope="class")
    def one_bus(self):
        return NetworkSpec(
            base_kva=50.0, base_volt_ln=230.0, buses=(BusSpec("sub"),), lines=(),
            loads=(LoadSpec("sub", p=np.array([0.36, 0.10, 0.24]),
                            q=np.array([0.12, 0.03, 0.08])),),
            gens=(GenSpec("sub", ("a", "b", "c"),
                          pmin=np.zeros(3), pmax=np.full(3, 4.0),
                          qmin=np.full(3, -4.0), qmax=np.full(3, 4.0),
                          marginal_cost=1.0, is_substation=True),),
            substation_bus="sub",
        )

    @pytest.mark.parametrize("cfg", [
        UnbalanceConfig("none"),
        UnbalanceConfig("soft", 0.0, 1.0),
        UnbalanceConfig("hard", 1.0),
    ], ids=["none", "soft", "hard"])
    def test_solves_and_decomposes(self, one_bus, cfg):
        prob = build_problem(one_bus, cfg)
        assert (prob.nvar, prob.n_eq, prob.n_ineq) == (6, 6, 12)
        sol = solve(prob, warm=solve_pf(one_bus))
        assert sol.success, sol.message
        assert sol.iterations == 6
        rows = decompose(sol)
        assert len(rows) == 6
        assert max(abs(d.residual) for d in rows) < 1e-6
        # the only bus is the balanced source: no unbalance to report
        assert sol.max_vuf() == (None, 0.0)


class TestEvaluationBudget:
    def test_one_evaluation_per_iteration(self, simple5, simple5_pf):
        prob = build_problem(simple5)
        calls = []
        evaluate = prob.evaluate
        prob.evaluate = lambda x: calls.append(1) or evaluate(x)
        sol = solve(prob, warm=simple5_pf)
        assert sol.success
        # x0 once, then once after each accepted step; the residuals reuse it
        assert len(calls) == sol.iterations


class TestLineSearch:
    def test_no_trial_point_is_evaluated_twice(self, two_bus, two_bus_pf, monkeypatch):
        # the first trial of every iteration fails to evaluate, pure-dual
        # steps included; each later trial must be a new point
        prob = build_problem(two_bus)
        trials = []
        evaluate, eval_eq = prob.evaluate, prob.eval_eq

        def new_iterate(x):
            trials.append([])
            return evaluate(x)

        def trial(x, want_jac=True, **kwargs):
            if not want_jac:
                trials[-1].append(x.copy())
                if len(trials[-1]) == 1:
                    raise ValueError("trial point outside the domain")
            return eval_eq(x, want_jac=want_jac, **kwargs)
        monkeypatch.setattr(prob, "evaluate", new_iterate)
        monkeypatch.setattr(prob, "eval_eq", trial)
        sol = solve(prob, warm=two_bus_pf)
        assert sol.success, sol.message
        # every iterate but the converged last one took a step
        assert len(trials) == sol.iterations and all(len(t) >= 2 for t in trials[:-1])
        assert not any(np.array_equal(a, b) for t in trials for a, b in zip(t, t[1:]))


class TestInitialMultipliers:
    def test_superlu_failure_starts_from_zero_multipliers(self, two_bus, two_bus_pf,
                                                         monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", singular)
        sol = solve(build_problem(two_bus), warm=two_bus_pf)
        assert sol.success, sol.message

    def test_other_errors_propagate(self, two_bus, two_bus_pf, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected argument")
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", broken)
        with pytest.raises(TypeError):
            solve(build_problem(two_bus), warm=two_bus_pf)


def eigen_inertia(a, tol):
    ev = np.linalg.eigvalsh(a)
    return (int(np.sum(ev > tol)), int(np.sum(ev < -tol)),
            int(np.sum(np.abs(ev) <= tol)))


class TestInertia:
    """The signs read off the Bunch-Kaufman factor against eigenvalues."""

    def test_matches_eigenvalue_signs(self):
        rng = np.random.default_rng(3)
        blocks = overflowed = 0
        for i in range(300):
            n = int(rng.integers(2, 12))
            a = rng.standard_normal((n, n))
            # every third matrix is scaled so that 2x2 determinants overflow
            scale = 1e200 if i % 3 == 0 else 1.0
            a = (a + a.T) * scale
            ldu, ipiv, _ = lapack.dsytrf(a, lower=1)
            k = np.flatnonzero(ipiv < 0)[::2]
            blocks += k.size
            with np.errstate(over="ignore", invalid="ignore"):
                det = ldu[k, k] * ldu[k + 1, k + 1] - ldu[k + 1, k] ** 2
            overflowed += np.count_nonzero(~np.isfinite(det))
            assert _inertia(ldu, ipiv) == eigen_inertia(a, 1e-10 * scale), i
        assert blocks > 100
        assert overflowed > 10

    def test_zero_row_and_column_counts_as_zero(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((7, 7))
        a = a + a.T
        a[3, :] = a[:, 3] = 0.0
        ldu, ipiv, _ = lapack.dsytrf(a, lower=1)
        inertia = _inertia(ldu, ipiv)
        assert inertia[2] > 0
        assert inertia == eigen_inertia(a, 1e-10)

    def test_non_finite_factor_is_all_zero(self):
        ldu = np.eye(4)
        ldu[2, 1] = np.inf
        assert _inertia(ldu, np.arange(1, 5)) == (0, 0, 4)


def row_scales(prob, e):
    return (_row_scales(prob.jac_eq_layout, e.jac_eq_values),
            _row_scales(prob.jac_ineq_layout, e.jac_ineq_values))


def refill(layout, prob, x, e, d_eq, d_in, y, z, sigma):
    """Lay one iterate into ``layout`` from the laid-out values, as the solver does."""
    hess = prob.hess_lagrangian(x, d_eq * y, d_in * z, e.vuf_hess,
                                out=np.empty(prob.hess_layout.nnz))
    scale_eq = _RowScaling(d_eq, prob.jac_eq_layout)
    scale_in = _RowScaling(d_in, prob.jac_ineq_layout)
    scale_eq(e.jac_eq_values)
    scale_in(e.jac_ineq_values)
    layout.refill(hess, sigma, scale_eq, scale_in)


def scipy_dense_w(hess, ji, sigma):
    """Dense W from scipy.sparse products: the reference, bit for bit."""
    w = (hess + (ji.T @ sp.diags(sigma) @ ji)).tocsr()
    return np.asarray(((w + w.T) * 0.5).todense())


class TestDenseAssembly:
    """Row scaling and the dense KKT matrix, bit for bit against scipy.sparse."""

    @pytest.fixture(scope="class", params=[
        (UnbalanceConfig("soft", 0.0, 2.5), "f"),
        (UnbalanceConfig("soft", 0.0, 2.5), "vuf"),
        (UnbalanceConfig("hard", 1.0), "f"),
    ], ids=["soft-f", "soft-vuf", "hard"])
    def points(self, request, simple5, simple5_pf):
        cfg, penalty_on = request.param
        prob = build_problem(simple5, cfg, penalty_on=penalty_on)
        warm = prob.x0(simple5_pf)
        rng = np.random.default_rng(5)
        # the flat start has exact zeros in the inequality Jacobian
        return prob, (prob.x0(), warm, warm + 0.02 * rng.standard_normal(prob.nvar))

    def test_row_scaling_matches_scipy(self, points):
        prob, xs = points
        for x in xs:
            e = prob.evaluate(x)
            for layout, values, jac in ((prob.jac_eq_layout, e.jac_eq_values, e.jac_eq),
                                        (prob.jac_ineq_layout, e.jac_ineq_values, e.jac_ineq)):
                d = _row_scales(layout, values)
                ref_d = 1.0 / np.maximum(1.0, np.abs(jac).max(axis=1).toarray().ravel())
                assert d.tobytes() == ref_d.tobytes()
                ours, ref = _RowScaling(d, layout)(values), sp.diags(d) @ jac
                # the layout's pattern, each row reversed as scipy emits it
                bounds = zip(layout.indptr[:-1], layout.indptr[1:])
                reversed_rows = np.concatenate([layout.indices[a:b][::-1] for a, b in bounds])
                assert ours.indices.tobytes() == reversed_rows.tobytes()
                assert ours.indptr.tobytes() == layout.indptr.tobytes()
                for part in ("indices", "indptr"):
                    assert getattr(ours, part).dtype == getattr(ref, part).dtype, part
                # scipy's entries in scipy's order; those it drops are exactly 0
                ncol = jac.shape[1]
                key = layout.rows * ncol + ours.indices
                ref_rows = np.repeat(np.arange(jac.shape[0]), np.diff(ref.indptr))
                ref_key = ref_rows * ncol + ref.indices
                kept = np.isin(key, ref_key)
                assert np.array_equal(key[kept], ref_key)
                assert ours.data[kept].tobytes() == ref.data.tobytes()
                assert not ours.data[~kept].any()

    def test_dense_w_matches_scipy(self, points):
        prob, xs = points
        n, m = prob.nvar, prob.n_eq
        # laid out once per problem, used at every point
        layout = _KktLayout(prob)
        rng = np.random.default_rng(6)
        for x in xs:
            e = prob.evaluate(x)
            d_eq, d_in = row_scales(prob, e)
            y = rng.standard_normal(prob.n_eq)
            z = np.abs(rng.standard_normal(prob.n_ineq))
            z[rng.random(prob.n_ineq) < 0.3] = 0.0
            sigma = np.exp(rng.uniform(-20.0, 20.0, prob.n_ineq))
            hess = prob.hess_lagrangian(x, d_eq * y, d_in * z)
            refill(layout, prob, x, e, d_eq, d_in, y, z, sigma)
            w = scipy_dense_w(hess, sp.diags(d_in) @ e.jac_ineq, sigma)
            je = (sp.diags(d_eq) @ e.jac_eq).toarray()
            for delta in (0.0, 1e-4):
                ref_w = w if delta == 0.0 else w + delta * np.eye(n)
                for delta_c in (0.0, DELTA_C):
                    k = layout.dense(delta, delta_c)
                    for ours, ref in ((k[:n, :n], ref_w), (k[n:, :n], je), (k[:n, n:], je.T),
                                      (k[n:, n:], -delta_c * np.eye(m))):
                        assert np.ascontiguousarray(ours).tobytes() == \
                            np.ascontiguousarray(ref).tobytes()

    def test_dense_matches_sparse_read_out(self, simple5, simple5_pf):
        prob = build_problem(simple5, UnbalanceConfig("hard", 1.0))
        x = prob.x0(simple5_pf)
        e = prob.evaluate(x)
        d_eq, d_in = row_scales(prob, e)
        rng = np.random.default_rng(10)
        y = rng.standard_normal(prob.n_eq)
        z = np.abs(rng.standard_normal(prob.n_ineq))
        sigma = np.exp(rng.uniform(-20.0, 20.0, prob.n_ineq))
        layout = _KktLayout(prob)
        refill(layout, prob, x, e, d_eq, d_in, y, z, sigma)
        for delta in (0.0, 1e-4):
            target, _, perm = layout.matrices(delta)    # P K P'
            assert np.array_equal(layout.dense(delta, 0.0), target.toarray()[np.ix_(perm, perm)])

    def test_dense_path_forms_no_diagonal_matrix(self, simple5, simple5_pf, monkeypatch):
        def no_diags(*args, **kwargs):
            raise AssertionError("sp.diags called on the dense path")
        monkeypatch.setattr(ipsolver.sp, "diags", no_diags)
        prob = build_problem(simple5, UnbalanceConfig("soft", 0.0, 1.5))
        sol = solve(prob, warm=simple5_pf)
        assert sol.success, sol.message


def scipy_kkt(hess, ji, sigma, je, delta):
    """The KKT matrix and its dual-regularized copy from scipy.sparse
    products: the reference, bit for bit."""
    w = (hess + (ji.T @ sp.diags(sigma) @ ji)).tocsr()
    w = (w + w.T) * 0.5
    n, m = w.shape[0], je.shape[0]
    target = sp.bmat([[w + delta * sp.eye(n), je.T], [je, sp.csr_matrix((m, m))]],
                     format="csc")
    return target, target + sp.diags(np.concatenate([np.zeros(n), -1e-8 * np.ones(m)])).tocsc()


def permuted(k, perm):
    """``P K P'`` with row i of K at row ``perm[i]``, from scipy.sparse
    products with the permutation matrix: the reference, bit for bit."""
    p = sp.csc_matrix((np.ones(len(perm)), (perm, np.arange(len(perm)))), shape=k.shape)
    out = (p @ k @ p.T).tocsc()
    out.sort_indices()
    return out


def assert_same_arrays(ours, ref):
    for part in ("data", "indices", "indptr"):
        a, b = getattr(ours, part), getattr(ref, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


class TestSparseAssembly:
    """The sparse path's laid-out KKT matrices, permuted into the solve's
    ordering, and its matvecs, bit for bit against the scipy.sparse
    expressions, on eulv117."""

    @pytest.fixture(scope="class", params=[
        UnbalanceConfig("none"),
        UnbalanceConfig("soft", 0.0, 3.0),
        UnbalanceConfig("hard", 0.5),
    ], ids=["none", "soft-3.0", "hard-0.5"])
    def points(self, request, eulv117):
        prob = build_problem(eulv117, request.param)
        warm = prob.x0(solve_pf(eulv117))
        rng = np.random.default_rng(7)
        # a bus outside the VUF subset at zero voltage: the equality Jacobian
        # loses the entries of its lines
        dead = warm.copy()
        b = next(i for i, bus in enumerate(eulv117.buses)
                 if bus.id not in eulv117.unbalance.buses and i != prob.slack)
        dead[prob.idx_e[b]] = dead[prob.idx_f[b]] = 0.0
        return prob, {"flat": prob.x0(), "warm": warm,
                      "perturbed": warm + 0.02 * rng.standard_normal(prob.nvar), "dead": dead}

    def iterate(self, prob, x, rng):
        e = prob.evaluate(x)
        d_eq, d_in = row_scales(prob, e)
        y = rng.standard_normal(prob.n_eq)
        z = np.abs(rng.standard_normal(prob.n_ineq))
        y[rng.random(prob.n_eq) < 0.3] = 0.0
        z[rng.random(prob.n_ineq) < 0.3] = 0.0
        sigma = np.exp(rng.uniform(-20.0, 20.0, prob.n_ineq))
        hess = prob.hess_lagrangian(x, d_eq * y, d_in * z, e.vuf_hess)
        return e, d_eq, d_in, y, z, sigma, hess

    def test_kkt_matrices_match_scipy(self, points):
        prob, xs = points
        # laid out once per problem, used at every point
        layout = _KktLayout(prob)
        rng = np.random.default_rng(8)
        full = prob.evaluate(xs["warm"]).jac_eq.nnz
        perms, patterns = [], set()
        for where, x in xs.items():
            e, d_eq, d_in, y, z, sigma, hess = self.iterate(prob, x, rng)
            assert (e.jac_eq.nnz < full) == (where == "dead")
            refill(layout, prob, x, e, d_eq, d_in, y, z, sigma)
            for delta in (0.0, 1e-4):   # the plain system and a regularized retry
                ref = scipy_kkt(hess, sp.diags(d_in) @ e.jac_ineq, sigma,
                                sp.diags(d_eq) @ e.jac_eq, delta)
                *ours, perm = layout.matrices(delta)
                perms.append(perm)
                for mat, theirs in zip(ours, ref):
                    patterns.add(mat.indices.tobytes() + mat.indptr.tobytes())
                    # the stored zeros aside, scipy's matrix
                    mat = mat.copy()
                    mat.eliminate_zeros()
                    assert_same_arrays(mat, permuted(theirs, perm))
        # one ordering and one pattern for the whole solve, and a permutation
        assert len(patterns) == 1
        assert all(p is perms[0] for p in perms)
        assert np.array_equal(np.sort(perms[0]), np.arange(layout.size))
        assert not np.array_equal(perms[0], np.arange(layout.size))

    def test_matvecs_match_scipy(self, points):
        """Each scaling, refilled in place at two points with the row scales
        of a third, is the matrix scipy builds afresh there, and its matrix
        and transpose multiply as that matrix does."""
        prob, xs = points
        rng = np.random.default_rng(9)
        d_eq, d_in = row_scales(prob, prob.evaluate(xs["warm"]))
        scalings = [(_RowScaling(d, layout), d, layout, name) for d, layout, name in (
            (d_eq, prob.jac_eq_layout, "jac_eq_values"),
            (d_in, prob.jac_ineq_layout, "jac_ineq_values"))]
        for _ in range(2):
            e = prob.evaluate(xs["warm"] + 0.02 * rng.standard_normal(prob.nvar))
            for scaling, d, layout, name in scalings:
                values = getattr(e, name)
                ours, ref = scaling(values), sp.diags(d) @ layout.matrix(values)
                assert ours is scaling.matrix
                assert_same_arrays(ours, ref)
                dx, y = rng.standard_normal(layout.shape[1]), rng.standard_normal(layout.shape[0])
                assert (ours @ dx).tobytes() == (ref @ dx).tobytes()
                assert (scaling.t @ y).tobytes() == (ref.T @ y).tobytes()

    def test_refilled_patterns_survive_whole_solves(self, simple5, simple5_pf, eulv117,
                                                    monkeypatch):
        """No step of a solve canonicalizes a refilled matrix in place: each
        keeps the pattern it was built with, and its transpose its ``data``."""
        made = []

        class Recorded(_RowScaling):
            def __init__(self, d, layout):
                super().__init__(d, layout)
                made.append((self, self.matrix.indices.copy(), self.matrix.indptr.copy()))

        monkeypatch.setattr(ipsolver, "_RowScaling", Recorded)
        for net, warm, limit in ((simple5, simple5_pf, 1.0), (eulv117, solve_pf(eulv117), 0.5)):
            cfg = UnbalanceConfig("hard", limit, buses=net.unbalance.buses)
            sol = solve(build_problem(net, cfg), warm=warm)
            assert sol.success, sol.message
        assert len(made) == 4
        for scaling, indices, indptr in made:
            for mat in (scaling.matrix, scaling.t):
                assert mat.indices.tobytes() == indices.tobytes()
                assert mat.indptr.tobytes() == indptr.tobytes()
            assert np.shares_memory(scaling.t.data, scaling.matrix.data)

    def test_sparse_path_forms_no_block_matrix(self, eulv117, eulv117_solve, monkeypatch):
        def no_bmat(*args, **kwargs):
            raise AssertionError("sp.bmat called on the sparse path")
        ref = eulv117_solve("hard", limit=0.5)
        warm = solve_pf(eulv117)
        monkeypatch.setattr(ipsolver.sp, "bmat", no_bmat)
        cfg = UnbalanceConfig("hard", 0.5, buses=eulv117.unbalance.buses)
        sol = solve(build_problem(eulv117, cfg), warm=warm)
        assert sol.success, sol.message
        assert sol.iterations == ref.iterations
        assert sol.x.tobytes() == ref.x.tobytes()

    def test_one_factorization_per_iteration_and_one_ordering(self, eulv117,
                                                              monkeypatch):
        # the power flow factors its own Jacobians by splu too
        warm = solve_pf(eulv117)
        calls = []
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: calls.append(k["permc_spec"]) or splu(*a, **k))
        cfg = UnbalanceConfig("hard", 0.5, buses=eulv117.unbalance.buses)
        sol = solve(build_problem(eulv117, cfg), warm=warm)
        assert sol.success, sol.message
        assert calls[0] == "MMD_AT_PLUS_A"
        assert set(calls[1:]) == {"NATURAL"}
        assert len(calls) <= sol.iterations + 1


class TestSparseConstructions:
    """Within an interior-point iteration the solver builds no scipy.sparse
    matrix: SuperLU's two inputs are built once per solve and refilled.
    SuperLU itself builds its L and U factors, as ``csc_array`` objects,
    when the inertia reads ``lu.U``; the solver builds no ``csc_array``."""

    def count(self, monkeypatch, prob, warm, max_iter):
        """(solution, the solver's constructions, KKT factorizations by splu);
        each problem probes its Hessian summation order once, so pass a new one."""
        built, orderings = [], []
        init = sp._base._spbase.__init__
        monkeypatch.setattr(sp._base._spbase, "__init__",
                            lambda self, *a, **k: built.append(type(self)) or init(self, *a, **k))
        splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: orderings.append(k["permc_spec"]) or splu(*a, **k))
        sol = solve(prob, warm=warm, settings=SolverSettings(max_iter=max_iter))
        monkeypatch.undo()
        factors = orderings.count("NATURAL")
        assert built.count(sp.csc_array) <= 2 * factors     # SuperLU's L and U
        return sol, len(built) - built.count(sp.csc_array), factors

    def test_previous_factors_are_freed_before_the_next(self, eulv117, monkeypatch):
        # one set of SuperLU factors alive at a time: none is left when the
        # next factorization starts
        live, counts = weakref.WeakSet(), []

        class Counted(ipsolver._SparseKktSystem):
            def __init__(self, *args):
                counts.append(len(live))
                live.add(self)
                super().__init__(*args)

        monkeypatch.setattr(ipsolver, "_SparseKktSystem", Counted)
        cfg = UnbalanceConfig("hard", 0.5, buses=eulv117.unbalance.buses)
        sol = solve(build_problem(eulv117, cfg), warm=solve_pf(eulv117))
        assert sol.success, sol.message
        assert len(counts) >= sol.iterations - 1
        assert set(counts) == {0}

    def test_dense_path_count_is_fixed(self, simple5, simple5_pf, monkeypatch):
        cfg = UnbalanceConfig("hard", 1.0)
        full, n_full, factors = self.count(monkeypatch, build_problem(simple5, cfg),
                                           simple5_pf, 300)
        short, n_short, _ = self.count(monkeypatch, build_problem(simple5, cfg), simple5_pf, 3)
        assert full.success and full.iterations > 20
        assert not short.success and short.iterations == 3
        assert factors == 0
        assert n_full == n_short <= 20

    def test_sparse_path_count_is_fixed(self, eulv117, monkeypatch):
        cfg = UnbalanceConfig("hard", 0.5)
        warm = solve_pf(eulv117)
        full, n_full, factors = self.count(monkeypatch, build_problem(eulv117, cfg), warm, 300)
        short, n_short, _ = self.count(monkeypatch, build_problem(eulv117, cfg), warm, 3)
        assert full.success and factors >= full.iterations - 1
        assert short.iterations == 3
        assert n_full == n_short <= 25


def random_kkt(rng, n, m, zero_diag=0):
    """A sparse KKT matrix pair: a symmetric W with eigenvalues of both
    signs, a full-row-rank Je, 0 and ``-DELTA_C`` below; the first
    ``zero_diag`` diagonal entries of W are structurally absent."""
    a = sp.random(n, n, density=4.0 / n, random_state=rng, format="csr")
    w = (a + a.T).tolil()
    w.setdiag(rng.uniform(-0.5, 3.0, n))
    w = w.tocsr()
    w[np.arange(zero_diag), np.arange(zero_diag)] = 0.0
    w.eliminate_zeros()
    je = sp.hstack([sp.diags(rng.uniform(0.5, 2.0, m)),
                    sp.random(m, n - m, density=3.0 / n, random_state=rng)]).tocsr()
    je = je[:, rng.permutation(n)]
    target = sp.bmat([[w, je.T], [je, None]], format="csc")
    lower = sp.diags(np.concatenate([np.zeros(n), np.full(m, -DELTA_C)]))
    return target, (target + lower).tocsc()


def mmd_order(k):
    return sp.linalg.splu(k, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True}).perm_c


class TestSparseInertia:
    """The inertia read off symmetric-mode SuperLU against eigenvalues: it is
    right whenever it is reported."""

    def systems(self, rng, n, m, zero_diag, deltas):
        target, perturbed = random_kkt(rng, n, m, zero_diag)
        size = n + m
        orders = (mmd_order(perturbed), rng.permutation(size), np.arange(size))
        for delta in deltas:
            shift = sp.diags(np.concatenate([np.full(n, delta), np.zeros(m)]))
            t, pt = (target + shift).tocsc(), (perturbed + shift).tocsc()
            want = eigen_inertia(pt.toarray(), 1e-12)
            for perm in orders:
                kkt = ipsolver._SparseKktSystem(permuted(t, perm), permuted(pt, perm), perm, n)
                yield t, want, kkt

    def test_reported_inertia_matches_eigenvalue_signs(self):
        rng = np.random.default_rng(11)
        reported, outcomes = 0, set()
        for i in range(12):
            for t, want, kkt in self.systems(rng, 240, 90, 0, (0.0, 0.1, 1.0, 10.0)):
                if kkt.inertia is None:
                    continue
                reported += 1
                assert kkt.inertia == want, i
                assert kkt.correct() == (want == (240, 90, 0))
                outcomes.add(kkt.correct())
                rhs = rng.standard_normal(330)
                assert np.allclose(t @ kkt.solve(rhs), rhs, atol=1e-8)
        assert reported > 100
        assert outcomes == {True, False}

    def test_zero_diagonal_is_unknown_or_correct(self):
        rng = np.random.default_rng(12)
        unknown = 0
        for i in range(12):
            for _, want, kkt in self.systems(rng, 240, 90, 20, (0.0,)):
                unknown += kkt.inertia is None
                assert kkt.inertia in (None, want), i
        assert unknown > 0


class TestFeederSoft:
    def test_soft_penalty_converges_in_few_iterations(self, eulv117_solve):
        # eulv117 soft 3.0: 163 iterations without an inertia test on the
        # sparse path, 37 with it
        sol = eulv117_solve("soft", penalty=3.0)
        assert sol.success, sol.message
        assert sol.iterations <= 40
        assert max(kkt_residuals(sol)) < 1e-6
        assert max(abs(d.residual) for d in decompose(sol)) < 1e-6


class TestKktSolveFailure:
    def test_failed_back_substitution_is_a_failed_solve(self, simple5, simple5_pf,
                                                        monkeypatch):
        # fail once the iterates are feasible, so the status is not "infeasible"
        calls = []
        working = ipsolver._KktSystem.solve

        def breaks_late(self, rhs):
            calls.append(1)
            if len(calls) > 20:
                raise scipy.linalg.LinAlgError("dsytrs failed")
            return working(self, rhs)
        monkeypatch.setattr(ipsolver._KktSystem, "solve", breaks_late)
        sol = solve(build_problem(simple5), warm=simple5_pf)
        assert sol.status == "failed"
        assert sol.message == "KKT solve failed: dsytrs failed" + worst_row(sol)
        assert sol.iterations == 21
        # unscaled residuals of the last evaluation, at the returned x
        for name, value in zip(("stationarity", "feasibility", "complementarity"),
                               kkt_residuals(sol)):
            assert sol.residuals[name] == pytest.approx(value, rel=1e-9)


class TestFailureMessages:
    def test_failed_line_searches_are_named(self, simple5, simple5_pf, monkeypatch):
        prob = build_problem(simple5)
        monkeypatch.setattr(prob, "objective_value", lambda x: np.nan)
        sol = solve(prob, warm=simple5_pf)
        assert not sol.success
        assert sol.message == "line search failed repeatedly" + worst_row(sol)
        assert sol.iterations == 5

    @pytest.mark.parametrize("inertia", ["read", "unknown"])
    def test_regularization_cap_names_delta_and_inertia(self, eulv117, monkeypatch,
                                                        inertia):
        # never correct: the delta loop runs from 1e-8 (W has zeros on its
        # diagonal) past the cap; at 1e12 the read inertia is the wanted one
        prob = build_problem(eulv117)
        n, m = prob.nvar, prob.n_eq
        monkeypatch.setattr(ipsolver._SparseKktSystem, "correct", lambda self: False)
        if inertia == "unknown":
            factor = ipsolver._SparseKktSystem.__init__

            def unknown(self, *args):
                factor(self, *args)
                self.inertia = None
            monkeypatch.setattr(ipsolver._SparseKktSystem, "__init__", unknown)
        sol = solve(prob, warm=solve_pf(eulv117))
        assert not sol.success
        assert sol.iterations == 1
        found = f"({n}, {m}, 0)" if inertia == "read" else "unknown"
        assert sol.message == (f"KKT matrix could not be regularized: inertia {found} "
                               f"at delta 1.0e+12, wanted ({n}, {m}, 0)" + worst_row(sol))
