"""Interior-point solver tests: KKT quality, mode behavior, determinism."""

import numpy as np
import pytest
import scipy.sparse.linalg

from vudlmp.ipsolver import SolverSettings, solve
from vudlmp.netmodel import UnbalanceConfig
from vudlmp.opf import ConstraintTag, build_problem


def kkt_residuals(sol):
    """Recompute stationarity/feasibility/complementarity from scratch."""
    prob = sol.problem
    e = prob.evaluate(sol.x)
    r_d = e.grad_objective + e.jac_eq.T @ sol.y_eq + e.jac_ineq.T @ sol.z_ineq
    stat = float(np.max(np.abs(r_d)))
    feas = float(max(np.max(np.abs(e.c_eq)), np.max(e.c_ineq, initial=0.0)))
    comp = float(np.max(np.abs(sol.z_ineq * e.c_ineq)))
    return stat, feas, comp


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
        for ph in ("a", "b", "c"):
            assert sol.dlmp("sub", ph) >= sub_cost - 1e-6

    def test_complementarity_at_binding_vuf_row(self, simple5, simple5_solve):
        sol = simple5_solve("hard", limit=1.0)
        e = sol.problem.evaluate(sol.x)
        row0 = sol.problem._vuf_row0
        viol = e.c_ineq[row0:]
        z = sol.z_ineq[row0:]
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
        assert hard.psi(bus) > 0
        v = hard.voltages()
        from vudlmp.sequence import PhasorSet, vuf
        for bid in simple5.vuf_bus_subset:
            u = vuf(PhasorSet.from_array(v[simple5.bus_index(bid)]))
            if u < 1.0 - 1e-3:
                assert hard.psi(bid) < 1e-6

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

    def test_multiplier_lookup_round_trips(self, simple5_solve):
        sol = simple5_solve("hard", limit=1.0)
        tag = ConstraintTag("p_balance", bus="b3", phase="b")
        assert sol.multiplier(tag) == sol.phi_p("b3", "b")

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
