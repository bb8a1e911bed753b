"""DLMP extraction, decomposition and voltage-unbalance sensitivities.

Nodal prices are the multipliers of the nodal balance constraints.  They
are split here into named components: the energy price at the reference
(substation) bus, a congestion term from binding thermal limits, a
voltage-limit term from binding magnitude bounds, an unbalance term that
prices each VUF bus's f at the problem's own weight
(:meth:`~vudlmp.opf.OpfProblem.unbalance_weights`), and losses as the
remainder of the balance dual after the named terms are taken out.
Component attribution uses network response sensitivities from the
power-flow Jacobian at the solved point with generation held fixed (the
slack absorbs the perturbation); this convention is stated in every report
header the CLI writes.  The ``residual`` checks the split independently.

The sensitivity report checks each closed-form df/dP and df/dQ against a
central difference of f over power-flow re-solves from the same point,
all of one report in one :func:`~vudlmp.powerflow.resolve_from` batch.

Prices are EUR/kWh; duals arrive in EUR/h per per-unit and are divided by
the kW base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import NPHASE, PHASES, NetworkSpec, phase_index
from .powerflow import (
    TOL_PF,
    OperatingPoint,
    build_ybus,
    factor_jacobian,
    line_flows,
    nonslack_index,
    resolve_from,
)
from .sequence import f_metric, grad_f

EPS_I = 1e-8            # incident-current magnitude below which the
                        # closed-form sensitivity is reported as undefined
FD_STEP = 1e-5          # central-difference perturbation, per-unit

COMPONENTS = ("energy", "loss", "congestion", "voltage_limit", "unbalance")
_POWER_KINDS = ("active", "reactive")


@dataclass(frozen=True)
class DlmpBreakdown:
    bus: str
    phase: str
    power_kind: str         # "active" | "reactive"
    total: float            # EUR/kWh (EUR/kvarh for reactive)
    energy: float
    loss: float
    congestion: float
    voltage_limit: float
    unbalance: float
    residual: float         # total less the independently computed sum


@dataclass(frozen=True)
class SensitivityReport:
    """Closed-form vs perturb-and-resolve unbalance sensitivity at one point."""
    bus: str
    phase: str
    power_kind: str
    closed_form: float | None       # squared-percent per per-unit power
    finite_difference: float | None
    rel_gap: float | None
    incident_current: float = 0.0   # magnitude used in the denominator

    @property
    def defined(self):
        return self.closed_form is not None


class DecompositionError(Exception):
    pass


class StepTooSmall(ValueError):
    """A finite-difference step that leaves a re-solved power flow where it was."""


# -- closed-form sensitivity ------------------------------------------------


def _closed_forms(point: OperatingPoint, bus, grad):
    """Incident-current magnitude per phase at ``bus`` and, from one
    transposed solve, the closed-form responses of f (gradient ``grad``)
    as a (kind, phase) array (active first); None when no phase carries
    more than EPS_I."""
    net = point.net
    b = net.bus_index(bus)
    current = [abs(i) for i in point.incident_currents[b].tolist()]
    if max(current) <= EPS_I:
        return current, None
    weight = np.zeros((1, len(net.buses), NPHASE), dtype=complex)
    weight[0, b] = grad
    return current, _consumption_response(net, point.jacobian_lu, weight)[:, b, :, 0]


def sensitivity_closed_form(point: OperatingPoint, bus, phase, power_kind="active"):
    """One closed-form sensitivity entry df/dP (or df/dQ) at (bus, phase).

    The metric gradient at the bus is chained with the power-flow response
    to the bus's own consumption (generation fixed, slack swinging), so the
    value is the exact first-order response of the local metric.  The
    entry is reported as undefined when the bus draws essentially no
    current on that phase: with nothing flowing, a power perturbation has
    no well-conditioned voltage direction to act through.

    The response comes from the point's own Jacobian factors
    (:attr:`OperatingPoint.jacobian_lu`), factored once per point.  An unknown
    phase or power kind raises ValueError.
    """
    phase_idx = phase_index(phase)
    if power_kind not in _POWER_KINDS:
        raise ValueError(f"unknown power kind {power_kind!r}: expected one of {_POWER_KINDS}")
    current, closed = _closed_forms(
        point, bus, grad_f(point.voltages[point.net.bus_index(bus)]))
    value = None
    if current[phase_idx] > EPS_I:
        value = float(closed[_POWER_KINDS.index(power_kind), phase_idx])
    return SensitivityReport(
        bus=bus, phase=PHASES[phase_idx], power_kind=power_kind,
        closed_form=value, finite_difference=None, rel_gap=None,
        incident_current=current[phase_idx],
    )


def sensitivity_report(net: NetworkSpec, point: OperatingPoint, buses=None,
                       step=FD_STEP):
    """Closed-form and FD sensitivities for every (bus, phase, power kind).

    The FD column perturbs the consumption and re-solves the network, so
    the relative gap reports the linearization error of the closed form
    instead of hiding it.  Each bus's closed forms come from one transposed
    solve with ``point``'s Jacobian factors.  The re-solves, +step then
    -step for each defined entry of every bus, form one
    :func:`~vudlmp.powerflow.resolve_from` batch whose first Newton steps
    come from one untransposed solve with the same factors; with no entry
    defined nothing is re-solved.  A re-solve that takes no Newton step,
    because the step moves the mismatch less than the power-flow
    tolerance, raises StepTooSmall naming the entry of the first such
    column.  ``point`` must be an operating point of ``net``.
    """
    if point.net is not net:
        raise ValueError("point must be an operating point of net")
    if buses is None:
        buses = [i for i in net.bus_ids if i != net.substation_bus]
    if net.substation_bus in buses:
        raise ValueError(f"bus {net.substation_bus} is the substation: its injection is "
                         "not a power-flow unknown")
    rows = [net.bus_index(bus) for bus in buses]
    v = point.voltages[rows]
    closed = [_closed_forms(point, bus, grad) for bus, grad in zip(buses, grad_f(v))]
    # every defined (bus position, phase index, power kind), bus by bus
    defined = [(i, phase_idx, kind) for i, (current, _) in enumerate(closed)
               for phase_idx in range(NPHASE) for kind in _POWER_KINDS
               if current[phase_idx] > EPS_I]
    fds = {}
    if defined:
        # consumption +step then -step for each defined entry
        pert = np.repeat(point.injections[None], 2 * len(defined), axis=0)
        for j, (i, phase_idx, kind) in enumerate(defined):
            for s, h in enumerate((step, -step)):
                dp, dq = (h, 0.0) if kind == "active" else (0.0, h)
                pert[2 * j + s, rows[i], phase_idx] -= dp + 1j * dq
        resolved, iterations = resolve_from(point, pert)
        if not np.all(iterations):
            i, phase_idx, kind = defined[np.flatnonzero(iterations == 0)[0] // 2]
            raise StepTooSmall(
                f"finite-difference step {step:g} leaves the power flow unchanged at "
                f"bus {buses[i]} phase {PHASES[phase_idx]} ({kind}): the perturbed "
                f"mismatch is below the power-flow tolerance {TOL_PF:g} pu")
        pos = np.repeat([i for i, _, _ in defined], 2)      # bus of each re-solve
        # f at each bus, then at the perturbed bus of every re-solve
        f = f_metric(np.concatenate([v, resolved[np.arange(len(pos)), np.take(rows, pos)]]))
        df = f[len(buses):] - f[pos]
        fds = dict(zip(defined, ((df[0::2] - df[1::2]) / (2.0 * step)).tolist()))
    out = []
    for i, (bus, (current, closed_forms)) in enumerate(zip(buses, closed)):
        for phase_idx in range(NPHASE):
            for k, kind in enumerate(_POWER_KINDS):
                cf = fd = gap = None
                if (i, phase_idx, kind) in fds:
                    cf = float(closed_forms[k, phase_idx])
                    fd = fds[i, phase_idx, kind]
                    gap = float(abs(cf - fd) / max(abs(fd), abs(cf), 1e-12))
                out.append(SensitivityReport(
                    bus=bus, phase=PHASES[phase_idx], power_kind=kind,
                    closed_form=cf, finite_difference=fd, rel_gap=gap,
                    incident_current=current[phase_idx],
                ))
    return out


# -- DLMP decomposition -----------------------------------------------------


def _consumption_response(net: NetworkSpec, lu, weights):
    """First-order change of ``Re(sum conj(w) * dV)`` per unit of extra
    consumption at each non-slack (bus, phase), generation held fixed.
    ``lu`` holds the factors of the power-flow Jacobian (see
    :func:`~vudlmp.powerflow.factor_jacobian`).

    ``weights`` is a (k, nbus, 3) complex array, one weight per functional.
    With dV = -J^-1 e_t for a unit consumption at entry t, all entries of
    all k functionals come from one transposed solve.  Returns the active
    and reactive responses as one (2, nbus, 3, k) array, zero at the slack.
    """
    idx = nonslack_index(net)
    k, nbus = weights.shape[:2]
    w = weights.reshape(k, -1)[:, idx].T
    out = np.zeros((2, nbus * NPHASE, k))
    out[:, idx] = -lu.solve(np.concatenate([np.real(w), np.imag(w)]),
                            trans=True).reshape(2, len(idx), k)
    return out.reshape(2, nbus, NPHASE, k)


def decompose(sol):
    """Break every nodal price into its named components.

    Components beyond the reference-bus energy price are evaluated with the
    solved point's power-flow Jacobian; losses are the remainder of the
    balance dual after the named terms.  The unbalance component weights
    each VUF bus's grad f by the problem's derivative of its unbalance term
    in that f, whatever the mode.

    The ``residual`` is independent of the loss remainder: by stationarity
    in the non-slack voltages, energy + loss is the consumption response of
    the substation balance term alone, weight ``Y^H c`` with ``c = (phi_p -
    j phi_q) v`` on the substation phases.  The residual is the total less
    that response and the named components (zero at the substation).
    """
    prob = sol.problem
    net = prob.net
    if not sol.success:
        raise DecompositionError(f"cannot decompose a {sol.status} solve: {sol.message}")
    base_kw = net.base_kw
    v = sol.voltages()
    slack = net.bus_index(net.substation_bus)
    mult = prob.by_family(sol.y_eq, sol.z_ineq)
    phi_p, phi_q = mult["p_balance"], mult["q_balance"]

    # multipliers below tolerance are barrier dust on inactive rows; they
    # would contribute far less than the decomposition tolerance, so they are
    # treated as exactly inactive and left to the loss remainder
    active_tol = 1e-7

    def binding(mult):
        return np.where(np.abs(mult) > active_tol, mult, 0.0)

    # each component is Re(sum conj(g) * dV) for one weight g per (bus, phase)
    g_cong, g_vlim, g_unb = np.zeros((3, len(net.buses), NPHASE), dtype=complex)
    # congestion: sum of eta |s_from|^2, which changes by Re(c ds) with
    # c = 2 eta conj(s_from) and ds = dv_i conj(i) + v_i conj(Y (dv_i - dv_j))
    eta = binding(mult["thermal"])
    i_from, s_from, _ = line_flows(net, v)
    c = 2.0 * eta * np.conj(s_from)
    vi = v[net.line_from]
    via_y = np.einsum("lp,lpq->lq", c * vi, np.conj(net.line_y))
    np.add.at(g_cong, net.line_from, np.conj(c) * i_from + via_y)
    np.add.at(g_cong, net.line_to, -via_y)
    # voltage limits: sum of (sigma_hi - sigma_lo) * |v|^2
    ns = np.arange(len(net.buses)) != slack
    g_vlim[ns] = 2.0 * binding(mult["v_mag_hi"] - mult["v_mag_lo"]) * v[ns]
    # unbalance: sum over the VUF buses of (the problem's weight) * f
    weights = binding(prob.unbalance_weights(sol.x, sol.z_ineq))
    vuf_buses = [net.bus_index(bid) for bid in prob.vuf_buses]
    g_unb[vuf_buses] += weights[:, None] * grad_f(v[vuf_buses])
    # energy + loss: sum of phi_p P + phi_q Q over the substation phases,
    # which changes by Re(conj(c) Y dV)
    ybus = build_ybus(net)
    c_sub = np.zeros((len(net.buses), NPHASE), dtype=complex)
    c_sub[slack] = v[slack] * (phi_p[slack] - 1j * phi_q[slack])
    g_sub = (ybus.conj().T @ c_sub.ravel()).reshape(c_sub.shape)

    # + 0.0 keeps components with no binding term at +0.0 rather than -0.0
    comp_p, comp_q = _consumption_response(
        net, factor_jacobian(net, v),
        np.stack((g_cong, g_vlim, g_unb, g_sub))) / base_kw + 0.0

    out = []
    for kind, comp, phi in (("active", comp_p, phi_p), ("reactive", comp_q, phi_q)):
        energy = [float(p) / base_kw for p in phi[slack]]
        comp[slack, :, 3] = energy      # energy + loss at the substation itself
        for b, bus in enumerate(net.bus_ids):
            for ph, phase in enumerate(PHASES):
                total = float(phi[b, ph]) / base_kw
                cong, vlim, unb, energy_loss = map(float, comp[b, ph])
                out.append(DlmpBreakdown(
                    bus=bus, phase=phase, power_kind=kind,
                    total=total, energy=energy[ph],
                    loss=total - energy[ph] - cong - vlim - unb,
                    congestion=cong, voltage_limit=vlim, unbalance=unb,
                    residual=total - (energy_loss + cong + vlim + unb)))
    return out
