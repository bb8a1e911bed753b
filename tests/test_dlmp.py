"""Price decomposition and unbalance-sensitivity tests."""

import tracemalloc
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from vudlmp import dlmp, powerflow
from vudlmp.dlmp import (
    COMPONENTS,
    FD_STEP,
    DecompositionError,
    StepTooSmall,
    decompose,
    sensitivity_closed_form,
    sensitivity_report,
)
from vudlmp.ipsolver import SolverSettings, solve
from vudlmp.netmodel import PHASES, UnbalanceConfig
from vudlmp.opf import _ROOT_SMOOTH, build_problem
from vudlmp.powerflow import build_ybus, solve_pf
from vudlmp.sequence import f_metric
from conftest import psi_at


def consumption_fd(net, v, functional, h=1e-6, keys=None):
    """Central differences of ``functional(point)`` per unit of extra
    consumption at every non-slack (bus, phase, power kind), or at the
    ``keys`` given, generation fixed (the slack swings), over the kW base;
    keyed (bus, phase, kind)."""
    if keys is None:
        keys = [(bus.id, phase, kind) for bus in net.buses if bus.id != net.substation_bus
                for phase in PHASES for kind in ("active", "reactive")]
    inj = (v.reshape(-1) * np.conj(build_ybus(net) @ v.reshape(-1))).reshape(v.shape)
    out = {}
    for bus, phase, kind in keys:
        unit = 1.0 if kind == "active" else 1j
        terms = []
        for ds in (h * unit, -h * unit):
            pert = inj.copy()
            pert[net.bus_index(bus), PHASES.index(phase)] -= ds
            terms.append(functional(solve_pf(net, pert, v0=v)))
        out[bus, phase, kind] = (np.subtract(*terms) / (2 * h)) / net.base_kw
    return out


def substation_term(sol):
    """sum of phi_p P + phi_q Q over the substation phases, as a function of
    a power-flow point: the balance term whose response is energy + loss."""
    net = sol.problem.net
    sub = net.substation_bus
    s = net.bus_index(sub)
    mult = sol.problem.by_family(sol.y_eq)
    phi = np.stack((mult["p_balance"][s], mult["q_balance"][s]), axis=1)

    def term(point):
        v = point.voltages
        inj = v[s] * np.conj((build_ybus(net) @ v.reshape(-1)).reshape(v.shape)[s])
        return np.sum(phi[:, 0] * inj.real + phi[:, 1] * inj.imag)
    return term


class TestSensitivity:
    def test_two_bus_gap_under_five_percent(self, two_bus, two_bus_pf):
        entries = sensitivity_report(two_bus, two_bus_pf)
        defined = [e for e in entries if e.defined]
        assert defined, "expected defined sensitivities at the loaded bus"
        assert max(e.rel_gap for e in defined) < 0.05

    def test_simple5_signs_agree_everywhere(self, simple5, simple5_pf):
        entries = sensitivity_report(simple5, simple5_pf)
        defined = [e for e in entries if e.defined]
        assert all(np.sign(e.closed_form) == np.sign(e.finite_difference)
                   for e in defined)
        assert max(e.rel_gap for e in defined) < 0.25

    def test_undefined_when_no_incident_current(self, simple5):
        # a zero-injection network carries no current anywhere
        point_zero = solve_pf(
            simple5, injections=np.zeros((len(simple5.buses), 3), dtype=complex))
        entry = sensitivity_closed_form(point_zero, "b4", "a")
        assert not entry.defined
        assert entry.closed_form is None

    def test_fd_oracle_is_symmetric_in_step(self, simple5, simple5_pf):
        def b4_a_active(step):
            entries = sensitivity_report(simple5, simple5_pf, buses=["b4"], step=step)
            return next(e.finite_difference for e in entries
                        if (e.phase, e.power_kind) == ("a", "active"))
        assert b4_a_active(2e-5) == pytest.approx(b4_a_active(5e-6), rel=1e-3)

    def test_report_factors_one_jacobian(self, simple5, monkeypatch):
        # the closed form and the first Newton step of every finite-difference
        # re-solve share the point's factors, and each re-solve takes one step
        point = solve_pf(simple5)
        calls = []
        pf_jacobian = powerflow.pf_jacobian
        monkeypatch.setattr(powerflow, "pf_jacobian",
                            lambda *a: calls.append(a) or pf_jacobian(*a))
        entries = sensitivity_report(simple5, point)
        assert sum(e.defined for e in entries) == 24     # 48 re-solves
        assert len(calls) == 1

    def test_report_computes_injections_once(self, simple5, monkeypatch):
        # every finite-difference entry perturbs the same base injections
        point = solve_pf(simple5)
        calls = []
        injections = powerflow.OperatingPoint.injections.func
        counted = cached_property(lambda p: calls.append(p) or injections(p))
        counted.__set_name__(powerflow.OperatingPoint, "injections")
        monkeypatch.setattr(powerflow.OperatingPoint, "injections", counted)
        entries = sensitivity_report(simple5, point)
        assert sum(e.defined for e in entries) == 24
        assert len(calls) == 1

    @pytest.mark.parametrize("vuf_buses_only, limit_mib", [(True, 1.5), (False, 7.0)],
                             ids=["vuf-buses", "all-buses"])
    def test_report_batch_holds_few_buffers_per_column(self, eulv117, vuf_buses_only,
                                                       limit_mib):
        # the one re-solve batch (56 columns on the 15 VUF buses, 244 on all
        # 116 non-slack buses) keeps at most four (nbus, 3) complex buffers
        # per column alive at once
        point = solve_pf(eulv117)
        buses = list(eulv117.unbalance.buses) if vuf_buses_only else None
        sensitivity_report(eulv117, point, buses=buses)     # factors, cached arrays
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sensitivity_report(eulv117, point, buses=buses)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= limit_mib * 2**20

    @pytest.mark.parametrize("feeder, solves, defined", [
        ("simple5", 4, 24), ("eulv117", 8, 28)])
    def test_report_makes_one_closed_form_solve_per_bus(self, request, monkeypatch,
                                                        feeder, solves, defined):
        # each bus's closed forms share one transposed solve, and each equals
        # the entry sensitivity_closed_form gives on its own, bit for bit
        if feeder == "simple5":
            net, point, buses = request.getfixturevalue("simple5"), \
                request.getfixturevalue("simple5_pf"), None
        else:
            cache = request.getfixturevalue("eulv117_solve")
            net, point, buses = cache.net, cache.warm, list(cache.net.unbalance.buses)
        # and the finite-difference re-solves of all buses form one batch,
        # whose first Newton steps come from one untransposed solve with the
        # same factors, its right-hand side holding +-step for each defined
        # entry
        calls, batches = [], []
        lu = point.jacobian_lu
        solve = lu.solve
        monkeypatch.setattr(lu, "solve", lambda rhs, trans=False:
                            calls.append((trans, rhs.shape)) or solve(rhs, trans))
        resolve_from = dlmp.resolve_from
        monkeypatch.setattr(dlmp, "resolve_from", lambda base, injections:
                            batches.append(len(injections)) or resolve_from(base, injections))
        entries = sensitivity_report(net, point, buses=buses)
        assert [trans for trans, _ in calls].count(True) == solves
        assert [shape[1] for trans, shape in calls if not trans] == [2 * defined]
        assert batches == [2 * defined]
        assert sum(e.defined for e in entries) == defined
        for e in entries:
            alone = sensitivity_closed_form(point, e.bus, e.phase, e.power_kind)
            assert alone.closed_form == e.closed_form
            assert alone.incident_current == e.incident_current

    def test_report_without_current_resolves_nothing(self, simple5, simple5_pf, monkeypatch):
        # b1 feeds the rest of the network and draws no current itself, so
        # every entry is undefined and there is nothing to re-solve
        monkeypatch.setattr(dlmp, "resolve_from", lambda *args: pytest.fail("re-solved"))
        entries = sensitivity_report(simple5, simple5_pf, buses=["b1"])
        assert len(entries) == 6
        for e in entries:
            assert e.closed_form is None and e.finite_difference is None and e.rel_gap is None

    @pytest.mark.parametrize("feeder, step", [
        ("simple5", FD_STEP), ("simple5", 2e-5), ("eulv117", FD_STEP)])
    def test_report_equals_one_solve_per_perturbation(self, request, feeder, step):
        # the batched re-solves give every bit that one power flow per
        # perturbation from the point's voltages gives.  SuperLU (eulv117)
        # solves each column of a batch as it solves the column alone;
        # LAPACK (simple5) does not in general, but does on these columns
        if feeder == "simple5":
            net, point, buses = request.getfixturevalue("simple5"), \
                request.getfixturevalue("simple5_pf"), None
        else:
            cache = request.getfixturevalue("eulv117_solve")
            net, point, buses = cache.net, cache.warm, list(cache.net.unbalance.buses)
        entries = sensitivity_report(net, point, buses=buses, step=step)
        assert any(e.defined for e in entries)
        for e in entries:
            if not e.defined:
                assert e.finite_difference is None and e.rel_gap is None
                continue
            df = []
            for h in (step, -step):
                dp, dq = (h, 0.0) if e.power_kind == "active" else (0.0, h)
                pert = np.array(point.injections)
                pert[net.bus_index(e.bus), PHASES.index(e.phase)] -= dp + 1j * dq
                alone = solve_pf(net, pert, v0=point.voltages)
                b = net.bus_index(e.bus)
                df.append(np.subtract(*f_metric(np.stack((alone.voltages[b],
                                                          point.voltages[b])))))
            fd = (df[0] - df[1]) / (2.0 * step)
            gap = abs(e.closed_form - fd) / max(abs(fd), abs(e.closed_form), 1e-12)
            assert e.finite_difference == fd, (e.bus, e.phase, e.power_kind)
            assert e.rel_gap == gap

    def test_step_inside_the_power_flow_tolerance_is_rejected(self, simple5, simple5_pf):
        # a 1e-12 pu perturbation leaves every mismatch below TOL_PF, so each
        # re-solve would return the point itself and every difference read 0
        with pytest.raises(StepTooSmall, match="step 1e-12 leaves the power flow unchanged"):
            sensitivity_report(simple5, simple5_pf, step=1e-12)
        with pytest.raises(StepTooSmall, match="bus b4 phase a"):
            sensitivity_report(simple5, simple5_pf, buses=["b4"], step=1e-12)

    def test_point_of_another_network_is_rejected(self, two_bus, simple5_pf):
        # checked before the report reads the point at two_bus's own buses
        with pytest.raises(ValueError, match="point must be an operating point of net"):
            sensitivity_report(two_bus, simple5_pf)

    def test_substation_is_rejected_before_any_resolve(self, simple5, simple5_pf, monkeypatch):
        # the slack injection is not a power-flow unknown: no step can move
        # it, so the substation is named as such, not as a step too small
        monkeypatch.setattr(dlmp, "resolve_from", lambda *args: pytest.fail("re-solved"))
        with pytest.raises(ValueError, match="bus sub is the substation") as raised:
            sensitivity_report(simple5, simple5_pf, buses=["b1", "sub"])
        assert not isinstance(raised.value, StepTooSmall)

    def test_report_covers_all_phases_and_kinds(self, two_bus, two_bus_pf):
        entries = sensitivity_report(two_bus, two_bus_pf)
        keys = {(e.bus, e.phase, e.power_kind) for e in entries}
        assert keys == {("load", ph, k) for ph in PHASES
                        for k in ("active", "reactive")}


class TestDecomposition:
    @pytest.mark.parametrize("kwargs", [
        {"mode": "none"},
        {"mode": "hard", "limit": 1.0},
        {"mode": "soft", "penalty": 1.5},
        {"mode": "soft", "penalty": 1.0, "penalty_on": "vuf"},
    ], ids=["none", "hard", "soft", "soft-vuf"])
    def test_components_sum_to_total(self, simple5, simple5_solve, kwargs):
        sol = simple5_solve(**kwargs)
        assert sol.success
        rows = decompose(sol)
        for d in rows:
            assert abs(d.residual) < 1e-6
        # energy + loss, the remainder after the named terms, is the response
        # of the substation balance term alone
        fd = consumption_fd(simple5, sol.voltages(), substation_term(sol))
        for d in rows:
            if d.bus != simple5.substation_bus:
                key = (d.bus, d.phase, d.power_kind)
                assert abs(d.energy + d.loss - fd[key]) < 1e-7, key

    def test_multipliers_are_read_by_row(self, request):
        # the constraint tags are built only to name a row, never on the way
        # from a successful solve to its prices
        for name, limit in (("simple5", 1.0), ("eulv117", 0.5)):
            net = request.getfixturevalue(name)
            prob = build_problem(net, UnbalanceConfig("hard", limit, buses=net.unbalance.buses))
            sol = solve(prob, warm=solve_pf(net))
            rows = decompose(sol)
            assert "eq_tags" not in vars(prob) and "ineq_tags" not in vars(prob)
            mult = prob.by_family(sol.y_eq)
            for d in rows:
                family = "p_balance" if d.power_kind == "active" else "q_balance"
                at = net.bus_index(d.bus), PHASES.index(d.phase)
                assert d.total == mult[family][at] / net.base_kw

    def test_every_bus_phase_kind_present(self, simple5, simple5_solve):
        rows = decompose(simple5_solve("none"))
        keys = {(d.bus, d.phase, d.power_kind) for d in rows}
        assert len(rows) == len(keys) == 2 * 3 * len(simple5.buses)

    def test_energy_component_is_reference_price(self, simple5, simple5_solve):
        sol = simple5_solve("none")
        rows = decompose(sol)
        sub_price = {
            (d.phase, d.power_kind): d.total
            for d in rows if d.bus == simple5.substation_bus
        }
        for d in rows:
            assert d.energy == pytest.approx(
                sub_price[(d.phase, d.power_kind)], abs=1e-9)

    def test_unbalance_component_zero_without_pricing(self, simple5_solve):
        for kwargs in ({"mode": "none"}, {"mode": "hard", "limit": 2.0}):
            rows = decompose(simple5_solve(**kwargs))
            assert max(abs(d.unbalance) for d in rows) == 0.0

    def test_hard_binding_creates_unbalance_component(self, simple5_solve):
        rows = decompose(simple5_solve("hard", limit=1.0))
        assert max(abs(d.unbalance) for d in rows) > 1e-6

    def test_soft_penalty_prices_unbalance_everywhere(self, simple5_solve):
        rows = decompose(simple5_solve("soft", penalty=1.5))
        active = [d for d in rows if d.power_kind == "active" and d.bus != "sub"]
        assert sum(abs(d.unbalance) > 1e-9 for d in active) > len(active) // 2

    def test_loss_component_grows_downstream(self, simple5_solve):
        # marginal losses accumulate along the radial path sub -> b4
        rows = {(d.bus, d.phase): d for d in decompose(simple5_solve("none"))
                if d.power_kind == "active"}
        for ph in PHASES:
            assert rows[("b4", ph)].loss > rows[("b1", ph)].loss > 0

    def test_failed_solve_is_rejected(self, two_bus):
        cfg = UnbalanceConfig("hard", 1e-4, buses=("load",))
        sol = solve(build_problem(two_bus, cfg),
                    settings=SolverSettings(max_iter=40))
        assert not sol.success
        with pytest.raises(DecompositionError):
            decompose(sol)

    def test_congestion_and_voltage_limit_match_finite_differences(self, simple5,
                                                                   simple5_pf):
        # halve the sub-b1 rating and raise b4's vmin so both terms bind
        k = [(ln.from_bus, ln.to_bus) for ln in simple5.lines].index(("sub", "b1"))
        lines = list(simple5.lines)
        lines[k] = replace(lines[k], s_rating=0.5 * float(
            np.max(np.abs(simple5_pf.s_from[k]))))
        buses = [replace(b, vmin=0.95) if b.id == "b4" else b for b in simple5.buses]
        net = replace(simple5, lines=tuple(lines), buses=tuple(buses))
        sol = solve(build_problem(net, UnbalanceConfig("none")), warm=solve_pf(net))
        assert sol.success
        rows = decompose(sol)
        assert max(abs(d.congestion) for d in rows) > 1e-2
        assert max(abs(d.voltage_limit) for d in rows) > 1e-2

        # each component is the first-order change of its binding terms,
        # sum eta |s_from|^2 and sum (sigma_hi - sigma_lo) |v|^2, under an
        # extra consumption with generation fixed (the slack swings)
        mult = sol.problem.by_family(ineq=sol.z_ineq)
        eta = mult["thermal"]
        sig = np.zeros((len(net.buses), len(PHASES)))
        sig[np.arange(len(net.buses)) != net.bus_index(net.substation_bus)] = \
            mult["v_mag_hi"] - mult["v_mag_lo"]
        fd = consumption_fd(net, sol.voltages(), lambda point: (
            np.sum(eta * np.abs(point.s_from) ** 2),
            np.sum(sig * np.abs(point.voltages) ** 2)))
        for d in rows:
            if d.bus != net.substation_bus:
                cong, vlim = fd[d.bus, d.phase, d.power_kind]
                assert abs(d.congestion - cong) < 1e-8
                assert abs(d.voltage_limit - vlim) < 1e-8

    @pytest.mark.parametrize("kwargs, term", [
        ({"mode": "soft", "penalty": 1.5}, lambda f: f),
        ({"mode": "soft", "penalty": 1.0, "penalty_on": "vuf"},
         lambda f: np.sqrt(f + _ROOT_SMOOTH)),
        ({"mode": "hard", "limit": 1.0}, lambda f: f),
    ], ids=["soft-f", "soft-vuf", "hard"])
    def test_unbalance_matches_finite_differences(self, simple5, simple5_solve,
                                                  kwargs, term):
        # the unbalance component is the first-order change of the priced
        # term: sum w f, sum w sqrt(f + s) or sum psi f over the VUF buses.
        # The root penalty drives f at some buses to ~1e-8, where sqrt(f + s)
        # bends sharply, so the step is small
        sol = simple5_solve(**kwargs)
        assert sol.success
        rows = decompose(sol)
        assert max(abs(d.unbalance) for d in rows) > 1e-2
        buses = sol.problem.vuf_buses
        if kwargs["mode"] == "hard":
            weights = sol.problem.by_family(ineq=sol.z_ineq)["vuf_limit"]
        else:
            weights = kwargs["penalty"]
        idx = [simple5.bus_index(bid) for bid in buses]

        def priced(point):
            return np.sum(weights * term(f_metric(point.voltages[idx])))

        fd = consumption_fd(simple5, sol.voltages(), priced, h=1e-7)
        for d in rows:
            if d.bus != simple5.substation_bus:
                key = (d.bus, d.phase, d.power_kind)
                assert abs(d.unbalance - fd[key]) < 1e-8, key

    def test_feeder_hard_limit_binds_and_prices_unbalance(self, eulv117_solve):
        # the 117-bus feeder at 0.5 %, on the sparse KKT path
        sol = eulv117_solve("hard", limit=0.5)
        assert sol.success, sol.message
        bus, worst = sol.max_vuf()
        assert worst <= 0.5 + 1e-5
        assert psi_at(sol, bus) > 0
        rows = [d for d in decompose(sol) if d.bus == bus]
        assert max(abs(d.unbalance) for d in rows) > 1e-6

    def test_feeder_soft_unbalance_matches_finite_differences(self, eulv117, eulv117_solve):
        # eulv117 soft 3.0 on the sparse KKT path: the unbalance component is
        # the first-order change of sum w f over the VUF buses, at the three
        # most negative and the three largest positive active components
        # (-0.029317 EUR/kWh at n100/b; the differences agree to ~1e-10)
        sol = eulv117_solve("soft", penalty=3.0)
        assert sol.success, sol.message
        idx = [eulv117.bus_index(bid) for bid in sol.problem.vuf_buses]

        def priced(point):
            return np.sum(3.0 * f_metric(point.voltages[idx]))

        keys = [(bus, phase, "active") for bus, phase in (
            ("n100", "b"), ("n98", "b"), ("n99", "b"), ("n99", "a"), ("n102", "a"), ("n100", "a"))]
        fd = consumption_fd(eulv117, sol.voltages(), priced, keys=keys)
        rows = {(d.bus, d.phase, d.power_kind): d.unbalance for d in decompose(sol)}
        assert rows["n100", "b", "active"] == pytest.approx(-0.029317, abs=5e-7)
        for key in keys:
            assert abs(rows[key] - fd[key]) < 1e-8, key

    def test_component_names_are_stable(self):
        assert COMPONENTS == ("energy", "loss", "congestion",
                              "voltage_limit", "unbalance")


class TestShadowPrices:
    def test_active_dual_predicts_cost_of_extra_demand(self, simple5, simple5_pf):
        # bump demand by epsilon, re-solve, compare dObjective to the dual
        prob = build_problem(simple5, UnbalanceConfig("none"))
        base = solve(prob, warm=simple5_pf)
        assert base.success
        phi_p = prob.by_family(base.y_eq)["p_balance"]
        eps = 1e-4
        checked = 0
        for bus, ph in (("b2", "a"), ("b4", "c"), ("b5", "b")):
            bumped = simple5.with_extra_load(bus, ph, dp=eps)
            prob2 = build_problem(bumped, UnbalanceConfig("none"))
            sol2 = solve(prob2, warm=simple5_pf)
            if not sol2.success:
                continue
            fd = (sol2.objective - base.objective) / eps
            dual = phi_p[simple5.bus_index(bus), PHASES.index(ph)]
            assert fd == pytest.approx(dual, rel=0.01)
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("weight", [1.5, 3.0])
    def test_soft_duals_match_central_differences(self, simple5, simple5_pf, weight):
        # every nodal dual against a re-solve at +/- eps of extra consumption;
        # a forward difference misses b5/c reactive at 1.5 by 11 %
        cfg = UnbalanceConfig("soft", 0.0, weight, buses=simple5.unbalance.buses)
        base = solve(build_problem(simple5, cfg), warm=simple5_pf)
        assert base.success
        mult = base.problem.by_family(base.y_eq)
        eps = 1e-4
        checked = 0
        for b, bus in enumerate(simple5.buses):
            if bus.id == simple5.substation_bus:
                continue
            for p, ph in enumerate(PHASES):
                for key, dual in (("dp", mult["p_balance"][b, p]),
                                  ("dq", mult["q_balance"][b, p])):
                    obj = []
                    for step in (eps, -eps):
                        bumped = simple5.with_extra_load(bus.id, ph, **{key: step})
                        sol = solve(build_problem(bumped, cfg), warm=simple5_pf)
                        assert sol.success, (bus.id, ph, key, step)
                        obj.append(sol.objective)
                    fd = (obj[0] - obj[1]) / (2 * eps)
                    assert fd == pytest.approx(dual, rel=0.01, abs=1e-4), (bus.id, ph, key)
                    checked += 1
        assert checked == 30

    def test_soft_penalty_prices_b4_phase_b_below_energy(self, simple5_solve):
        sol = simple5_solve("soft", penalty=1.5)
        row, = [d for d in decompose(sol)
                if (d.bus, d.phase, d.power_kind) == ("b4", "b", "active")]
        assert row.total == pytest.approx(0.935, abs=5e-4)
        assert row.unbalance == pytest.approx(-0.104, abs=5e-4)
        assert row.total < row.energy
