"""Three-phase unbalanced power flow with a slack substation.

Newton iteration on complex nodal voltages in rectangular coordinates.
Used both as the warm start for the OPF and as the perturb-and-resolve
oracle behind sensitivity and price validation.

Every Newton step solves with the LU factors of the power-flow Jacobian
(:func:`factor_jacobian`).  A solved :class:`OperatingPoint` keeps the
factors of the Jacobian at its own voltages once they are asked for
(:attr:`OperatingPoint.jacobian_lu`): the closed-form sensitivities use
them, and :func:`resolve_from` re-solves a stack of perturbed injections
from that point (a sensitivity report's finite differences are one such
stack), all first Newton steps in one multi-column solve with them, with
at most four (nbus, 3)-sized complex buffers per column alive at once; on
a small network LAPACK rounds some of those columns unlike a separate
:func:`solve_pf` (see :func:`resolve_from`).

A network whose Jacobian has fewer than ``SPARSE_JACOBIAN_ROWS`` rows is
small, and a larger one large; that one test picks both the admittance
matrix and the factors.  The nodal admittance matrix is assembled once per
network from its line blocks (:attr:`NetworkSpec.ybus_csr`), and every
product with it goes through :func:`build_ybus`: dense
(:attr:`NetworkSpec.ybus`) on a small network, CSR on a large one, where
the dense matrix is never built.  The factors come in two kinds behind one
``solve(rhs, trans=False)``.  A small network's Jacobian is built dense
(:func:`pf_jacobian`) and factored by LAPACK.  A large one's is filled on
one CSC :class:`~vudlmp.netmodel.CsrLayout` per network of the CSR
non-slack Ybus block and its diagonal, in each of the four real blocks, as
the row scaling of conj(Y) by the voltages plus the conj(I) diagonal, and
factored by SuperLU, as in MATPOWER's Newton power flow (Zimmerman,
Murillo-Sanchez & Thomas, IEEE Trans. Power Syst. 2011); its results do
not depend on the BLAS thread count, while the dense LU rounds by it.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .netmodel import NPHASE, CsrLayout, NetworkSpec, phase_index
from .sequence import BALANCED_SOURCE, f_metric, vuf

TOL_PF = 1e-10
MAX_ITER = 50
SPARSE_JACOBIAN_ROWS = 120  # networks whose Jacobian has this many rows or more
                            # take the CSR Ybus and SuperLU; near where the two
                            # build-and-factor times cross


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


def _is_large(net: NetworkSpec):
    """Whether the power-flow Jacobian of ``net`` has SPARSE_JACOBIAN_ROWS
    rows or more, so that its Ybus is CSR and its Jacobian goes to SuperLU."""
    return 2 * NPHASE * (len(net.buses) - 1) >= SPARSE_JACOBIAN_ROWS


def build_ybus(net: NetworkSpec):
    """The 3n x 3n complex nodal admittance matrix (series elements only)
    that every product with Ybus goes through: dense on a small network and
    CSR on a large one; assembled once per network and read-only."""
    return net.ybus_csr if _is_large(net) else net.ybus


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
    at the m flat indices ``idx``, in rectangular voltage coordinates, from
    the dense ``ybus``."""
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
    """(bus id, VUF percent) of the first worst non-slack bus of (nbus, 3)
    voltages; (None, 0.0) when the substation (balanced) is the only bus."""
    buses = np.flatnonzero(np.arange(len(net.buses)) != net.bus_index(net.substation_bus))
    if not len(buses):
        return None, 0.0
    u = vuf(v[buses])
    worst = np.argmax(u)
    return net.bus_ids[buses[worst]], u[worst]


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
    """CSC pattern of the real power-flow Jacobian of one network (the layout
    of its transpose): the non-slack block of the CSR ``ybus`` and its
    diagonal, in each of the four blocks of :func:`pf_jacobian`."""

    def __init__(self, ybus, idx):
        m = len(idx)
        y = ybus[idx][:, idx].tocoo()
        off = y.row != y.col
        # the diagonal in row order (0 where Y lacks an entry), then the rest
        rows = np.concatenate((np.arange(m), y.row[off]))
        cols = np.concatenate((np.arange(m), y.col[off]))
        # the (P, e), (Q, e), (P, f) and (Q, f) entries of each, transposed
        self.layout = CsrLayout(np.concatenate((cols, cols, cols + m, cols + m)),
                                np.concatenate((rows, rows + m, rows, rows + m)), (2 * m, 2 * m))
        self.idx = idx
        self.row_v = idx[rows]                  # flat voltage index of each row
        self.y_conj = np.conj(np.concatenate((y.diagonal(), y.data[off])))

    def jacobian(self, ybus, v):
        """The Jacobian at (nbus, 3) voltages ``v``, from the CSR ``ybus``, as
        a CSC matrix."""
        vflat = v.reshape(-1)
        a = vflat[self.row_v] * self.y_conj     # diag(v) conj(Y)
        d = np.conj(ybus @ vflat)[self.idx]     # diag(conj(I))
        # dS/de = d + a and dS/df = j (d - a), split into real and imaginary
        vals = np.stack((a.real, a.imag, a.imag, -a.real))
        vals[:, :len(d)] += np.stack((d.real, d.imag, -d.imag, d.real))
        data = np.empty(self.layout.nnz)
        data[self.layout.slots] = vals.ravel()
        return sp.csc_matrix((data, self.layout.indices, self.layout.indptr),
                             shape=self.layout.shape)


# id(net) -> _JacobianPattern; NetworkSpec is unhashable, so the entry is
# keyed by identity and dropped when the network is
_PATTERNS = {}


def _jacobian_pattern(net):
    key = id(net)
    if key not in _PATTERNS:
        _PATTERNS[key] = _JacobianPattern(net.ybus_csr, nonslack_index(net))
        weakref.finalize(net, _PATTERNS.pop, key, None)
    return _PATTERNS[key]


def factor_jacobian(net: NetworkSpec, v):
    """LU factors of the power-flow Jacobian at (nbus, 3) voltages ``v``,
    dense on a small network and sparse on a large one; an exactly zero
    pivot raises SingularJacobian."""
    if _is_large(net):
        return _SparseFactors(_jacobian_pattern(net).jacobian(net.ybus_csr, v))
    return _DenseFactors(pf_jacobian(net.ybus, v, nonslack_index(net)))


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

    @cached_property
    def incident_currents(self):
        """(nbus, 3) sum of the currents flowing from each bus into its
        incident lines, computed on first use with one ``np.add.at`` per
        line end; read-only.  Each side's currents are added in line
        order, the order ``np.sum`` adds up to three complex values in;
        from four lines ending on one side of a bus it pairs them, so the
        last bit may differ from a per-bus ``np.sum``."""
        out = np.zeros((2, len(self.net.buses), NPHASE), dtype=complex)
        np.add.at(out[0], self.net.line_from, self.currents_from)
        np.add.at(out[1], self.net.line_to, self.currents_from)
        out = out[0] - out[1]
        out.flags.writeable = False
        return out


def _operating_point(net, v, iterations=0):
    v.flags.writeable = False
    cur, s_from, s_to = line_flows(net, v)
    losses = float(np.sum(np.real(s_from) + np.real(s_to)))
    return OperatingPoint(
        net=net, voltages=v, currents_from=cur, s_from=s_from, s_to=s_to,
        losses=losses, iterations=iterations,
    )


def _checked_bus_array(name, a, n, stacked=False):
    """Copy of ``a`` as an (n, 3) complex array, or with ``stacked`` a
    (k, n, 3) complex stack, which is ``a`` itself when it already is one
    (its readers write nothing); ValueError naming ``name`` if it is not
    one or has a non-finite entry."""
    try:
        a = (np.asarray if stacked else np.array)(a, dtype=complex)
    except TypeError:
        raise ValueError(f"{name} must be a complex array") from None
    if a.ndim != 2 + stacked or a.shape[-2:] != (n, NPHASE):
        want = f"(k, {n}, 3)" if stacked else f"({n}, 3)"
        raise ValueError(f"{name} must have shape {want}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has a non-finite entry")
    return a


def _mismatch(ybus, injections, v, idx):
    """Injections less the power drawn at voltages ``v``, at the flat indices
    ``idx``, and the largest magnitude of each; ``injections`` and ``v`` are
    (nbus, 3) or (k, nbus, 3) and broadcast.  Each (nbus, 3) voltage slice
    takes its own product with ``ybus``, so a stacked one rounds as it
    would alone.  Besides the result, at most two (k, 3 nbus)-sized
    buffers are alive at once."""
    n = v.shape[-2] * NPHASE
    flat = v.reshape(-1, n)                         # (k, 3 nbus); k = 1 for one point
    i_calc = np.array([ybus @ x for x in flat]).T[idx]
    np.conj(i_calc, out=i_calc)
    s_calc = flat[:, idx]
    s_calc *= i_calc.T
    del i_calc
    mismatch = injections.reshape(*injections.shape[:-2], n)[..., idx]
    mismatch -= s_calc.reshape(*v.shape[:-2], -1)
    del s_calc
    return mismatch, np.max(np.abs(mismatch), axis=-1, initial=0.0)


def _newton_step(lu, mismatch):
    """Voltage updates for (m,) or (k, m) mismatches from the Jacobian
    factors ``lu``, all k in one solve on a (2m, k) right-hand side."""
    m = mismatch.shape[-1]
    rhs = np.empty((2 * m, *mismatch.shape[:-1]))
    rhs[:m] = mismatch.real.T
    rhs[m:] = mismatch.imag.T
    x = lu.solve(rhs)
    del rhs
    if not np.all(np.isfinite(x)):
        raise SingularJacobian("non-finite Newton step")
    step = np.empty(mismatch.shape, dtype=complex)
    step.real = x[:m].T
    step.imag = x[m:].T
    return step


def _newton(net, injections, v, taken=0):
    """Newton iterates from (nbus, 3) voltages ``v``, reached after ``taken``
    steps, to a mismatch below TOL_PF; returns the voltages and the total
    step count."""
    ybus = build_ybus(net)
    idx = nonslack_index(net)
    for it in range(taken, MAX_ITER + 1):
        mismatch, err = _mismatch(ybus, injections, v, idx)
        if err < TOL_PF:
            return v, it
        if it == MAX_ITER:
            raise PowerFlowDiverged(MAX_ITER, float(err))
        vflat = v.reshape(-1).copy()
        vflat[idx] += _newton_step(factor_jacobian(net, v), mismatch)
        v = vflat.reshape(v.shape)


def solve_pf(net: NetworkSpec, injections=None, v0=None) -> OperatingPoint:
    """Solve the power flow for fixed complex power injections.

    ``injections`` is an (nbus, 3) complex array of net power injected into
    the network (generation minus load) at each bus; the slack row is
    ignored.  Defaults to minus the network's load demand.  The substation
    is an ideal balanced 1 pu source.

    ``v0`` is the starting point, an (nbus, 3) complex voltage array; by
    default the balanced source at every bus.  Every Newton step factors
    the Jacobian at its own iterate; :func:`resolve_from` re-solves from a
    solved point with that point's factors.
    """
    n = len(net.buses)
    if injections is None:
        injections = -net.demand_pu()
    injections = _checked_bus_array("injections", injections, n)
    if v0 is None:
        v = np.tile(BALANCED_SOURCE, (n, 1))
    else:
        v = _checked_bus_array("v0", v0, n)
    v[net.bus_index(net.substation_bus)] = BALANCED_SOURCE
    v, iterations = _newton(net, injections, v)
    return _operating_point(net, v, iterations)


def resolve_from(base: OperatingPoint, injections):
    """Re-solve the power flow of ``base.net`` from ``base`` for each of a
    (k, nbus, 3) stack of injections.

    Returns the (k, nbus, 3) voltages and the k Newton step counts (empty
    for an empty stack).  All k first Newton steps come from one solve with
    the base point's factors (:attr:`OperatingPoint.jacobian_lu`) on a
    (2m, k) right-hand side, and a column that has converged after it gets
    no line flows.  A column that needs more steps takes them alone,
    factoring as :func:`solve_pf` does; one whose mismatch at ``base`` is
    already below TOL_PF stays there with 0 steps, and the other columns
    re-solve as a batch of their own.  On a large network SuperLU solves
    each column of the multi-column right-hand side as it solves that
    column alone, so column j is bit for bit
    ``solve_pf(base.net, injections[j], v0=base.voltages)`` for a ``base``
    that :func:`solve_pf` returned.  On a small network LAPACK's
    multi-column solve rounds some columns differently from a one-column
    solve, so a column agrees with that re-solve only to rounding.

    When every column steps, as in a sensitivity report, at most four
    buffers of (nbus, 3) complex values per column are alive at once: the
    injections (a complex stack is read, not copied), the voltages
    returned and two working buffers of the mismatch or the step.
    ``injections`` is left unchanged.
    """
    net = base.net
    injections = _checked_bus_array("injections", injections, len(net.buses), stacked=True)
    if not len(injections):
        return np.empty((0, *base.voltages.shape), dtype=complex), np.zeros(0, dtype=int)
    ybus = build_ybus(net)
    idx = nonslack_index(net)
    mismatch, err = _mismatch(ybus, injections, base.voltages, idx)
    todo = np.flatnonzero(err >= TOL_PF)
    if len(todo) < len(injections):
        del mismatch
        v = np.repeat(base.voltages[None], len(injections), axis=0)
        iterations = np.zeros(len(injections), dtype=int)
        if len(todo):
            # every column of this batch steps, so it takes the branch below
            v[todo], iterations[todo] = resolve_from(base, injections[todo])
        return v, iterations
    # every column steps: the stepped voltages are built in the step's buffer
    step = _newton_step(base.jacobian_lu, mismatch)
    del mismatch
    step += base.voltages.reshape(-1)[idx]
    v = np.repeat(base.voltages[None], len(injections), axis=0)
    v.reshape(len(v), -1)[:, idx] = step
    del step
    iterations = np.ones(len(injections), dtype=int)
    err = _mismatch(ybus, injections, v, idx)[1]
    for j in np.flatnonzero(err >= TOL_PF):
        v[j], iterations[j] = _newton(net, injections[j], v[j], 1)
    return v, iterations


def perturb_and_resolve(net: NetworkSpec, injections, bus, phase_idx,
                        dp=0.0, dq=0.0, base=None):
    """Re-solve with one consumption perturbed; return (point, delta f at bus).

    ``dp``/``dq`` are per-unit increases in consumption at (bus, phase), i.e.
    decreases of the net injection; ``phase_idx`` is a phase name or index
    (:func:`~vudlmp.netmodel.phase_index`).  ``base`` may carry the unperturbed
    operating point of ``net`` to avoid re-solving it.  The re-solve is a
    one-column :func:`resolve_from`: it starts at the base point and takes
    its first Newton step with the base point's Jacobian factors.
    """
    phase = phase_index(phase_idx)
    if injections is None:
        injections = -net.demand_pu()
    injections = np.asarray(injections, dtype=complex)
    if base is None:
        base = solve_pf(net, injections)
    elif base.net is not net:
        raise ValueError("base must be an operating point of net")
    b = net.bus_index(bus)
    pert = injections.copy()
    pert[b, phase] -= dp + 1j * dq
    v, iterations = resolve_from(base, pert[None])
    point = _operating_point(net, v[0], int(iterations[0]))
    f_after, f_before = f_metric(np.stack((v[0, b], base.voltages[b])))
    return point, f_after - f_before
