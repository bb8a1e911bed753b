"""Three-phase unbalanced power flow with a slack substation.

Newton iteration on complex nodal voltages in rectangular coordinates.
Used both as the warm start for the OPF and as the perturb-and-resolve
oracle behind sensitivity and price validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .netmodel import NPHASE, NetworkSpec
from .sequence import PhasorSet, f_metric, vuf

TOL_PF = 1e-10
MAX_ITER = 50


class PowerFlowError(Exception):
    pass


class PowerFlowDiverged(PowerFlowError):
    def __init__(self, iterations, mismatch):
        self.iterations = iterations
        self.mismatch = mismatch
        super().__init__(
            f"no convergence after {iterations} iterations, "
            f"last mismatch {mismatch:.3e} pu"
        )


class SingularJacobian(PowerFlowError):
    pass


def build_ybus(net: NetworkSpec):
    """Full 3n x 3n complex nodal admittance matrix (series elements only)."""
    n = len(net.buses)
    y = np.zeros((n, NPHASE, n, NPHASE), dtype=complex)
    for i, j, yl in zip(net.line_from, net.line_to, net.line_y):
        y[i, :, i] += yl
        y[j, :, j] += yl
        y[i, :, j] -= yl
        y[j, :, i] -= yl
    return y.reshape(n * NPHASE, n * NPHASE)


def line_flows(net: NetworkSpec, v):
    """(i_from, s_from, s_to), each (nline, 3): the current entering every
    line at its from end and the complex power entering at both ends."""
    vi = v[net.line_from]
    vj = v[net.line_to]
    i_from = (net.line_y @ (vi - vj)[:, :, None])[:, :, 0]
    return i_from, vi * np.conj(i_from), vj * np.conj(-i_from)


def nonslack_index(net: NetworkSpec):
    """Flat ``3 * bus + phase`` indices of every non-slack voltage, in order."""
    slack = net.bus_index(net.substation_bus)
    flat = np.arange(len(net.buses) * NPHASE)
    return flat[flat // NPHASE != slack]


def pf_jacobian(ybus, v, idx):
    """Real 2m x 2m Jacobian d[P; Q] / d[e; f] of the injections S = V conj(Y V)
    at the m flat indices ``idx``, in rectangular voltage coordinates."""
    vflat = v.reshape(-1)
    d_i = np.diag(np.conj(ybus @ vflat)[idx])
    d_v = np.diag(vflat[idx])
    y_c = np.conj(ybus[np.ix_(idx, idx)])
    # products with diagonal matrices, not row scaling vflat[:, None] * y_c:
    # the two round differently in the last bit, and that moves printed
    # digits of the seed-0 outputs that bench/reference pins byte for byte
    ds_de = d_i + d_v @ y_c
    ds_df = 1j * d_i - (1j * d_v) @ y_c
    return np.block([
        [np.real(ds_de), np.real(ds_df)],
        [np.imag(ds_de), np.imag(ds_df)],
    ])


def max_vuf(net: NetworkSpec, v):
    """(bus id, VUF percent) of the worst non-slack bus of (nbus, 3) voltages."""
    worst, worst_bus = -1.0, None
    for b, row in zip(net.buses, v):
        if b.id == net.substation_bus:
            continue
        u = vuf(PhasorSet.from_array(row))
        if u > worst:
            worst, worst_bus = u, b.id
    return worst_bus, worst


@dataclass(frozen=True)
class OperatingPoint:
    """Solved network state: voltages, branch currents and flows, losses."""
    net: NetworkSpec
    voltages: np.ndarray        # (nbus, 3) complex, per-unit
    currents_from: np.ndarray   # (nline, 3) complex, from-end into the line
    s_from: np.ndarray          # (nline, 3) complex power at the from end
    s_to: np.ndarray            # (nline, 3) complex power at the to end
    losses: float               # total active losses, per-unit
    iterations: int = 0

    def phasors(self, bus) -> PhasorSet:
        return PhasorSet.from_array(self.voltages[self.net.bus_index(bus)])

    def vuf(self, bus) -> float:
        return vuf(self.phasors(bus))

    def f_metric(self, bus) -> float:
        return f_metric(self.phasors(bus))

    def max_vuf(self):
        """(bus id, VUF percent) of the worst non-slack bus."""
        return max_vuf(self.net, self.voltages)

    def incident_current_sum(self, bus, phase_idx) -> complex:
        """Sum of currents flowing from the bus into its incident lines."""
        i = self.net.bus_index(bus)
        cur = self.currents_from[:, phase_idx]
        return complex(np.sum(cur[self.net.line_from == i])
                       - np.sum(cur[self.net.line_to == i]))


def _substation_voltage():
    a = np.exp(2j * np.pi / 3)
    return np.array([1.0, a**2, a], dtype=complex)


def _operating_point(net, v, iterations=0):
    cur, s_from, s_to = line_flows(net, v)
    losses = float(np.sum(np.real(s_from) + np.real(s_to)))
    return OperatingPoint(
        net=net, voltages=v, currents_from=cur, s_from=s_from, s_to=s_to,
        losses=losses, iterations=iterations,
    )


def solve_pf(net: NetworkSpec, injections=None, tol=TOL_PF, max_iter=MAX_ITER,
             v0=None) -> OperatingPoint:
    """Solve the power flow for fixed complex power injections.

    ``injections`` is an (nbus, 3) complex array of net power injected into
    the network (generation minus load) at each bus; the slack row is
    ignored.  Defaults to minus the network's load demand.  The substation
    is an ideal balanced 1 pu source.
    """
    n = len(net.buses)
    slack = net.bus_index(net.substation_bus)
    if injections is None:
        injections = -net.demand_pu()
    injections = np.asarray(injections, dtype=complex)
    if injections.shape != (n, NPHASE):
        raise ValueError(f"injections must have shape ({n}, 3)")
    if not np.all(np.isfinite(injections)):
        raise ValueError("non-finite injection")

    ybus = build_ybus(net)
    v = np.empty((n, NPHASE), dtype=complex)
    v[:] = _substation_voltage()
    if v0 is not None:
        v = np.array(v0, dtype=complex)
    v[slack] = _substation_voltage()

    idx = nonslack_index(net)
    m = len(idx)

    for it in range(max_iter):
        vflat = v.reshape(-1)
        i_inj = ybus @ vflat
        s_calc = vflat * np.conj(i_inj)
        mismatch = injections.reshape(-1)[idx] - s_calc[idx]
        err = np.max(np.abs(mismatch)) if m else 0.0
        if err < tol:
            return _operating_point(net, v, iterations=it)
        jac = pf_jacobian(ybus, v, idx)
        rhs = np.concatenate([np.real(mismatch), np.imag(mismatch)])
        try:
            step = scipy.linalg.solve(jac, rhs)
        except scipy.linalg.LinAlgError as exc:
            raise SingularJacobian(f"singular power-flow Jacobian: {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        dv = step[:m] + 1j * step[m:]
        vflat = vflat.copy()
        vflat[idx] += dv
        v = vflat.reshape(n, NPHASE)
    # recompute final mismatch for the error report
    vflat = v.reshape(-1)
    s_calc = vflat * np.conj(ybus @ vflat)
    mismatch = injections.reshape(-1)[idx] - s_calc[idx]
    raise PowerFlowDiverged(max_iter, float(np.max(np.abs(mismatch))))


def perturb_and_resolve(net: NetworkSpec, injections, bus, phase_idx,
                        dp=0.0, dq=0.0, base=None):
    """Re-solve with one consumption perturbed; return (point, delta f at bus).

    ``dp``/``dq`` are per-unit increases in consumption at (bus, phase), i.e.
    decreases of the net injection.  ``base`` may carry the unperturbed
    operating point to avoid re-solving it.
    """
    if injections is None:
        injections = -net.demand_pu()
    injections = np.asarray(injections, dtype=complex)
    if base is None:
        base = solve_pf(net, injections)
    pert = injections.copy()
    pert[net.bus_index(bus), phase_idx] -= dp + 1j * dq
    point = solve_pf(net, pert, v0=base.voltages)
    delta_f = point.f_metric(bus) - base.f_metric(bus)
    return point, delta_f
