"""Three-phase unbalanced power flow with a slack substation.

Newton iteration on complex nodal voltages in rectangular coordinates.
Used both as the warm start for the OPF and as the perturb-and-resolve
oracle behind sensitivity and price validation.

Every Newton step solves with the LU factors of the power-flow Jacobian
(:func:`factor_jacobian`).  A solved :class:`OperatingPoint` keeps the
factors of the Jacobian at its own voltages once they are asked for
(:attr:`OperatingPoint.jacobian_lu`): the closed-form sensitivities use
them, and a re-solve that starts at that point takes its first Newton step
with them instead of factoring the same matrix again.  The nodal admittance
matrix is assembled once per network (:attr:`NetworkSpec.ybus`).

The factors come in two kinds behind one ``solve(rhs, trans=False)``.  A
Jacobian of fewer than ``SPARSE_JACOBIAN_ROWS`` rows is built dense
(:func:`pf_jacobian`) and factored by LAPACK.  A larger one is filled on a
CSC pattern laid out once per network (the non-slack Ybus block and its
diagonal, in each of the four real blocks), as the row scaling of conj(Y)
by the voltages plus the conj(I) diagonal, and factored by SuperLU, as in
MATPOWER's Newton power flow (Zimmerman, Murillo-Sanchez & Thomas, IEEE
Trans. Power Syst. 2011).  On the large path the results do not depend on
the BLAS thread count; the dense LU rounds by it.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .netmodel import NPHASE, NetworkSpec
from .sequence import BALANCED_SOURCE, PhasorSet, f_metric, vuf

TOL_PF = 1e-10
MAX_ITER = 50
SPARSE_JACOBIAN_ROWS = 120  # Jacobians with this many rows or more go to SuperLU;
                            # near where the two build-and-factor times cross


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
    """Full 3n x 3n complex nodal admittance matrix (series elements only),
    assembled once per network and read-only."""
    return net.ybus


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
    # digits of the seed-0 outputs that bench/reference pins byte for byte.
    # Only Jacobians below SPARSE_JACOBIAN_ROWS are built here, where this
    # dense build and LAPACK beat a sparse fill and SuperLU
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


class _DenseFactors:
    """LAPACK LU factors of :func:`pf_jacobian`."""

    def __init__(self, jac):
        with warnings.catch_warnings():
            # scipy only warns about a zero pivot; the factors would be unusable
            warnings.simplefilter("error", LinAlgWarning)
            try:
                self._lu = lu_factor(jac)
            except LinAlgWarning as exc:
                raise SingularJacobian(f"singular power-flow Jacobian: {exc}") from None

    def solve(self, rhs, trans=False):
        """J^-1 rhs, or J^-T rhs with ``trans``; rhs is (2m,) or (2m, k)."""
        return lu_solve(self._lu, rhs, trans=int(trans))


class _SparseFactors:
    """SuperLU factors of the same Jacobian in CSC form."""

    def __init__(self, jac):
        try:
            self._lu = sp.linalg.splu(jac, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:     # SuperLU's exactly zero pivot
            raise SingularJacobian(f"singular power-flow Jacobian: {exc}") from None

    def solve(self, rhs, trans=False):
        """J^-1 rhs, or J^-T rhs with ``trans``; rhs is (2m,) or (2m, k)."""
        return self._lu.solve(rhs, "T" if trans else "N")


class _JacobianPattern:
    """CSC pattern of the real power-flow Jacobian of one network: the
    non-slack Ybus block and its diagonal, in each of the four blocks of
    :func:`pf_jacobian`."""

    def __init__(self, ybus, idx):
        m = len(idx)
        y = ybus[np.ix_(idx, idx)]
        mask = y != 0
        mask[np.diag_indices(m)] = True
        cols, rows = np.nonzero(mask.T)         # by column, then row
        counts = np.bincount(cols, minlength=m)
        nnz = len(rows)
        # column c of the e (then f) half holds its upper-block entries,
        # then their lower-block twins
        top = (np.cumsum(counts) - counts)[cols] + np.arange(nnz)
        bottom = top + counts[cols]
        self.slots = np.concatenate((top, bottom, top + 2 * nnz, bottom + 2 * nnz))
        self.indices = np.empty(4 * nnz, dtype=np.int32)
        self.indices[self.slots] = np.concatenate((rows, rows + m, rows, rows + m))
        self.indptr = np.concatenate(([0], np.cumsum(np.tile(2 * counts, 2)))).astype(np.int32)
        self.idx = idx
        self.row_v = idx[rows]                  # flat voltage index of each row
        self.diag = np.flatnonzero(rows == cols)
        self.y_conj = np.conj(y[rows, cols])

    def jacobian(self, ybus, v):
        """The Jacobian at (nbus, 3) voltages ``v`` as a CSC matrix."""
        vflat = v.reshape(-1)
        a = vflat[self.row_v] * self.y_conj     # diag(v) conj(Y)
        d = np.conj(ybus @ vflat)[self.idx]     # diag(conj(I))
        # dS/de = d + a and dS/df = j (d - a), split into real and imaginary
        vals = np.stack((a.real, a.imag, a.imag, -a.real))
        vals[:, self.diag] += np.stack((d.real, d.imag, -d.imag, d.real))
        data = np.empty(len(self.slots))
        data[self.slots] = vals.ravel()
        n = 2 * len(self.idx)
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n))


# id(net) -> _JacobianPattern; NetworkSpec is unhashable, so the entry is
# keyed by identity and dropped when the network is
_PATTERNS = {}


def _jacobian_pattern(net):
    key = id(net)
    if key not in _PATTERNS:
        _PATTERNS[key] = _JacobianPattern(net.ybus, nonslack_index(net))
        weakref.finalize(net, _PATTERNS.pop, key, None)
    return _PATTERNS[key]


def factor_jacobian(net: NetworkSpec, v):
    """LU factors of the power-flow Jacobian at (nbus, 3) voltages ``v``,
    dense below SPARSE_JACOBIAN_ROWS rows and sparse from there; an exactly
    zero pivot raises SingularJacobian."""
    idx = nonslack_index(net)
    if 2 * len(idx) < SPARSE_JACOBIAN_ROWS:
        return _DenseFactors(pf_jacobian(net.ybus, v, idx))
    return _SparseFactors(_jacobian_pattern(net).jacobian(net.ybus, v))


@dataclass(frozen=True)
class OperatingPoint:
    """Solved network state: voltages, branch currents and flows, losses."""
    net: NetworkSpec
    voltages: np.ndarray        # (nbus, 3) complex, per-unit, read-only
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

    @cached_property
    def jacobian_lu(self):
        """LU factors of the power-flow Jacobian at this point, factored on
        first use; see :func:`factor_jacobian`."""
        return factor_jacobian(self.net, self.voltages)

    @cached_property
    def injections(self):
        """(nbus, 3) complex power the voltages inject into the network at
        each bus, zero at the slack; computed on first use, read-only."""
        vflat = self.voltages.reshape(-1)
        s = (vflat * np.conj(build_ybus(self.net) @ vflat)).reshape(self.voltages.shape)
        s[self.net.bus_index(self.net.substation_bus)] = 0.0
        s.flags.writeable = False
        return s

    def incident_current_sum(self, bus, phase_idx) -> complex:
        """Sum of currents flowing from the bus into its incident lines."""
        i = self.net.bus_index(bus)
        cur = self.currents_from[:, phase_idx]
        return complex(np.sum(cur[self.net.line_from == i])
                       - np.sum(cur[self.net.line_to == i]))


def _operating_point(net, v, iterations=0):
    v.flags.writeable = False
    cur, s_from, s_to = line_flows(net, v)
    losses = float(np.sum(np.real(s_from) + np.real(s_to)))
    return OperatingPoint(
        net=net, voltages=v, currents_from=cur, s_from=s_from, s_to=s_to,
        losses=losses, iterations=iterations,
    )


def _checked_bus_array(name, a, n):
    """Copy of ``a`` as an (n, 3) complex array; ValueError naming ``name``
    if it has another shape or a non-finite entry."""
    a = np.array(a, dtype=complex)
    if a.shape != (n, NPHASE):
        raise ValueError(f"{name} must have shape ({n}, 3), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has a non-finite entry")
    return a


def solve_pf(net: NetworkSpec, injections=None, v0=None) -> OperatingPoint:
    """Solve the power flow for fixed complex power injections.

    ``injections`` is an (nbus, 3) complex array of net power injected into
    the network (generation minus load) at each bus; the slack row is
    ignored.  Defaults to minus the network's load demand.  The substation
    is an ideal balanced 1 pu source.

    ``v0`` is the starting point: an (nbus, 3) complex voltage array, or a
    solved :class:`OperatingPoint`.  A point of this same network makes the
    first Newton step reuse its :attr:`~OperatingPoint.jacobian_lu`, the
    factors of exactly the matrix that step needs; later steps factor a
    fresh Jacobian.  The iterates are the same either way.
    """
    n = len(net.buses)
    slack = net.bus_index(net.substation_bus)
    if injections is None:
        injections = -net.demand_pu()
    injections = _checked_bus_array("injections", injections, n)

    ybus = build_ybus(net)
    base = v0 if isinstance(v0, OperatingPoint) else None
    if v0 is None:
        v = np.tile(BALANCED_SOURCE, (n, 1))
    else:
        v = _checked_bus_array("v0", v0 if base is None else base.voltages, n)
    v[slack] = BALANCED_SOURCE
    reuse = base is not None and base.net is net and np.array_equal(v, base.voltages)

    idx = nonslack_index(net)
    m = len(idx)

    for it in range(MAX_ITER + 1):
        vflat = v.reshape(-1)
        s_calc = vflat * np.conj(ybus @ vflat)
        mismatch = injections.reshape(-1)[idx] - s_calc[idx]
        err = np.max(np.abs(mismatch)) if m else 0.0
        if err < TOL_PF:
            return _operating_point(net, v, iterations=it)
        if it == MAX_ITER:
            raise PowerFlowDiverged(MAX_ITER, float(err))
        lu = base.jacobian_lu if reuse and it == 0 else factor_jacobian(net, v)
        step = lu.solve(np.concatenate([np.real(mismatch), np.imag(mismatch)]))
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        dv = step[:m] + 1j * step[m:]
        vflat = vflat.copy()
        vflat[idx] += dv
        v = vflat.reshape(n, NPHASE)


def perturb_and_resolve(net: NetworkSpec, injections, bus, phase_idx,
                        dp=0.0, dq=0.0, base=None):
    """Re-solve with one consumption perturbed; return (point, delta f at bus).

    ``dp``/``dq`` are per-unit increases in consumption at (bus, phase), i.e.
    decreases of the net injection.  ``base`` may carry the unperturbed
    operating point to avoid re-solving it.  The re-solve starts at the
    base point's voltages, and when the base point belongs to ``net`` its
    first Newton step reuses the base point's Jacobian factors, so a
    report of many small perturbations around one point factors that
    Jacobian once.
    """
    if injections is None:
        injections = -net.demand_pu()
    injections = np.asarray(injections, dtype=complex)
    if base is None:
        base = solve_pf(net, injections)
    pert = injections.copy()
    pert[net.bus_index(bus), phase_idx] -= dp + 1j * dq
    point = solve_pf(net, pert, v0=base)
    delta_f = point.f_metric(bus) - base.f_metric(bus)
    return point, delta_f
