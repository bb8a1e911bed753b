"""Price decomposition and unbalance-sensitivity tests."""

from dataclasses import replace

import numpy as np
import pytest

from vudlmp.dlmp import (
    COMPONENTS,
    DecompositionError,
    decompose,
    sensitivity_closed_form,
    sensitivity_fd,
    sensitivity_report,
)
from vudlmp.ipsolver import SolverSettings, solve
from vudlmp.netmodel import PHASES, UnbalanceConfig
from vudlmp.opf import build_problem
from vudlmp.powerflow import build_ybus, solve_pf


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
        coarse = sensitivity_fd(simple5, simple5_pf, "b4", 0, step=2e-5)
        fine = sensitivity_fd(simple5, simple5_pf, "b4", 0, step=5e-6)
        assert coarse == pytest.approx(fine, rel=1e-3)

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
    ], ids=["none", "hard", "soft"])
    def test_components_sum_to_total(self, simple5_solve, kwargs):
        sol = simple5_solve(**kwargs)
        assert sol.success
        for d in decompose(sol):
            assert abs(d.residual) < 1e-6

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
        eta = np.array([[sol.eta((ln.from_bus, ln.to_bus), ph) for ph in PHASES]
                        for ln in net.lines])
        sig = np.zeros((len(net.buses), len(PHASES)))
        for b, bus in enumerate(net.buses):
            if bus.id != net.substation_bus:
                sig[b] = [hi - lo for lo, hi in (sol.sigma(bus.id, ph) for ph in PHASES)]
        v = sol.voltages()
        inj = (v.reshape(-1) * np.conj(build_ybus(net) @ v.reshape(-1))).reshape(v.shape)

        def terms(b, ph, ds):
            pert = inj.copy()
            pert[b, ph] -= ds
            point = solve_pf(net, pert, v0=v)
            return (np.sum(eta * np.abs(point.s_from) ** 2),
                    np.sum(sig * np.abs(point.voltages) ** 2))

        h = 1e-6
        for d in rows:
            if d.bus == net.substation_bus:
                continue
            b, ph = net.bus_index(d.bus), PHASES.index(d.phase)
            unit = 1.0 if d.power_kind == "active" else 1j
            up, dn = terms(b, ph, h * unit), terms(b, ph, -h * unit)
            cong, vlim = (np.subtract(up, dn) / (2 * h)) / net.base_kw
            assert abs(d.congestion - cong) < 1e-8
            assert abs(d.voltage_limit - vlim) < 1e-8

    def test_component_names_are_stable(self):
        assert COMPONENTS == ("energy", "loss", "congestion",
                              "voltage_limit", "unbalance")


class TestShadowPrices:
    def test_active_dual_predicts_cost_of_extra_demand(self, simple5, simple5_pf):
        # bump demand by epsilon, re-solve, compare dObjective to the dual
        prob = build_problem(simple5, UnbalanceConfig("none"))
        base = solve(prob, warm=simple5_pf)
        assert base.success
        eps = 1e-4
        checked = 0
        for bus, ph in (("b2", "a"), ("b4", "c"), ("b5", "b")):
            bumped = simple5.with_extra_load(bus, ph, dp=eps)
            prob2 = build_problem(bumped, UnbalanceConfig("none"))
            sol2 = solve(prob2, warm=simple5_pf)
            if not sol2.success:
                continue
            fd = (sol2.objective - base.objective) / eps
            dual = base.phi_p(bus, ph)
            assert fd == pytest.approx(dual, rel=0.01)
            checked += 1
        assert checked >= 2
