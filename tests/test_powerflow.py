"""Power-flow tests: Ohm's law cases, conservation, perturbation oracle."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lu_factor, lu_solve

from vudlmp import bundled_network, powerflow
from vudlmp.dlmp import decompose, sensitivity_report
from vudlmp.ipsolver import solve
from vudlmp.netmodel import UnbalanceConfig, load_network, network_from_dict, network_to_dict
from vudlmp.opf import build_problem
from vudlmp.powerflow import (
    SPARSE_JACOBIAN_ROWS,
    PowerFlowDiverged,
    SingularJacobian,
    build_ybus,
    factor_jacobian,
    nonslack_index,
    perturb_and_resolve,
    pf_jacobian,
    resolve_from,
    solve_pf,
)
from vudlmp.sequence import vuf
from conftest import make_two_bus


class TestBasics:
    def test_no_load_network_is_flat(self, two_bus):
        point = solve_pf(two_bus, injections=np.zeros((2, 3), dtype=complex))
        assert np.allclose(np.abs(point.voltages), 1.0, atol=1e-12)
        assert point.losses == pytest.approx(0.0, abs=1e-12)

    def test_two_bus_satisfies_ohms_law(self, two_bus, two_bus_pf):
        v = two_bus_pf.voltages
        y = two_bus.lines[0].y
        i_line = y @ (v[0] - v[1])
        # specified consumption equals received complex power at the load bus
        s_load = v[1] * np.conj(i_line)
        assert np.allclose(s_load, two_bus.demand_pu()[1], atol=1e-10)

    def test_power_conservation(self, simple5, simple5_pf):
        # slack export equals demand plus series losses
        slack_inj = sum(
            np.sum(np.real(simple5_pf.s_from[k]))
            for k, ln in enumerate(simple5.lines)
            if ln.from_bus == simple5.substation_bus
        )
        demand = float(np.sum(np.real(simple5.demand_pu())))
        assert slack_inj == pytest.approx(demand + simple5_pf.losses, abs=1e-9)

    def test_losses_are_positive(self, simple5_pf):
        assert simple5_pf.losses > 0

    def test_ybus_row_sums_vanish(self, simple5):
        # series-only admittance: injecting at equal voltage moves no current
        y = build_ybus(simple5)
        flat = np.ones(y.shape[0], dtype=complex)
        assert np.max(np.abs(y @ flat)) < 1e-10

    def test_point_injections_are_the_solved_ones(self, simple5, simple5_pf):
        # the voltages inject what the power flow was solved for, and the
        # slack row, which the solve ignores, is zero
        inj = simple5_pf.injections
        slack = simple5.bus_index(simple5.substation_bus)
        expected = -simple5.demand_pu()
        expected[slack] = 0.0
        assert np.allclose(inj, expected, atol=1e-9)
        assert np.all(inj[slack] == 0.0)
        assert simple5_pf.injections is inj
        assert not inj.flags.writeable

    def test_ybus_is_assembled_once_and_read_only(self, simple5):
        y = build_ybus(simple5)
        assert build_ybus(simple5) is y
        assert not y.flags.writeable

    def test_bus_reordering_is_irrelevant(self, two_bus):
        doc = network_to_dict(two_bus)
        doc["buses"] = doc["buses"][::-1]
        flipped = network_from_dict(doc)
        p0 = solve_pf(two_bus)
        p1 = solve_pf(flipped)
        assert vuf(p1.voltages[flipped.bus_index("load")]) == pytest.approx(
            vuf(p0.voltages[two_bus.bus_index("load")]), rel=1e-10)
        assert p1.losses == pytest.approx(p0.losses, rel=1e-10)

    def test_shape_validation(self, two_bus):
        with pytest.raises(ValueError):
            solve_pf(two_bus, injections=np.zeros((3, 3)))
        bad = np.zeros((2, 3), dtype=complex)
        bad[1, 0] = np.nan
        with pytest.raises(ValueError):
            solve_pf(two_bus, injections=bad)
        with pytest.raises(ValueError, match="v0"):
            solve_pf(two_bus, v0=np.ones((3, 3), dtype=complex))
        with pytest.raises(ValueError, match="v0"):
            solve_pf(two_bus, v0=bad)

    def test_start_from_another_networks_point_is_rejected(self, two_bus, simple5_pf):
        with pytest.raises(ValueError, match="v0"):
            solve_pf(two_bus, v0=simple5_pf)

    def test_zero_start_is_singular(self, simple5):
        # scipy only warns about the zero pivot; the power flow must raise
        # at the factorization, with no warning let through
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularJacobian, match="singular power-flow Jacobian"):
                solve_pf(simple5, v0=np.zeros((len(simple5.buses), 3)))

    def test_overload_diverges(self):
        net = make_two_bus()
        huge = -50.0 * net.demand_pu()
        with pytest.raises(PowerFlowDiverged):
            solve_pf(net, injections=huge)


class TestOperatingPoint:
    def test_max_vuf_excludes_slack(self, simple5_pf):
        bus, worst = simple5_pf.max_vuf()
        assert bus != "sub"
        assert worst > 0

    def test_bundled_simple5_unbalance_level(self, simple5_pf):
        _, worst = simple5_pf.max_vuf()
        assert 1.0 < worst < 2.0     # load-only point sits above the 1 % limit

    def test_incident_current_matches_load(self, two_bus, two_bus_pf):
        # at a leaf bus the incident current sum carries the full demand
        for ph in range(3):
            isum = two_bus_pf.incident_currents[two_bus.bus_index("load"), ph]
            v = two_bus_pf.voltages[1, ph]
            assert v * np.conj(-isum) == pytest.approx(
                complex(two_bus.demand_pu()[1, ph]), abs=1e-9)

    @pytest.mark.parametrize("name", ["simple5", "eulv117"])
    def test_incident_currents_equal_per_bus_sums(self, name, request):
        # one pass over the lines adds each side's currents in line order,
        # as np.sum does for the at most two lines ending on one side of a
        # bus of either bundled feeder
        net = request.getfixturevalue(name)
        point = solve_pf(net)
        for b in range(len(net.buses)):
            for ph in range(3):
                cur = point.currents_from[:, ph]
                want = np.sum(cur[net.line_from == b]) - np.sum(cur[net.line_to == b])
                assert point.incident_currents[b, ph] == want

    def test_unbalanced_voltages_spread(self, simple5_pf):
        mags = np.abs(simple5_pf.voltages)
        assert np.max(mags) <= 1.0 + 1e-9       # passive load-only network
        assert np.min(mags) < 1.0


class TestPerturbAndResolve:
    def test_added_load_deepens_voltage_drop(self, simple5, simple5_pf):
        inj = -simple5.demand_pu()
        point, _ = perturb_and_resolve(simple5, inj, "b4", 0, dp=0.05,
                                       base=simple5_pf)
        assert abs(point.voltages[simple5.bus_index("b4")][0]) < \
            abs(simple5_pf.voltages[simple5.bus_index("b4")][0])

    def test_zero_perturbation_is_identity(self, simple5, simple5_pf):
        point, df = perturb_and_resolve(simple5, None, "b3", 1, dp=0.0,
                                        base=simple5_pf)
        assert df == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(point.voltages, simple5_pf.voltages, atol=1e-9)

    def test_single_phase_load_raises_unbalance_metric(self, simple5, simple5_pf):
        # extra draw on the already most-loaded phase of b4 worsens its VUF
        _, df = perturb_and_resolve(simple5, None, "b4", 2, dp=0.02,
                                    base=simple5_pf)
        assert df > 0

    def test_reactive_perturbation_also_moves_metric(self, simple5, simple5_pf):
        _, df = perturb_and_resolve(simple5, None, "b4", 2, dq=0.02,
                                    base=simple5_pf)
        assert df != pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("dp, steps", [(1e-5, 1), (0.05, 3)])
    def test_reused_factors_give_the_same_iterates(self, simple5, simple5_pf, dp, steps):
        # the first step reuses the base point's factors; a start from its
        # bare voltage array factors the same Jacobian afresh
        inj = -simple5.demand_pu()
        point, _ = perturb_and_resolve(simple5, inj, "b4", 0, dp=dp, base=simple5_pf)
        pert = inj.copy()
        pert[simple5.bus_index("b4"), 0] -= dp
        fresh = solve_pf(simple5, pert, v0=simple5_pf.voltages)
        assert point.iterations == fresh.iterations == steps
        assert np.array_equal(point.voltages, fresh.voltages)


class TestResolveFrom:
    def test_batch_equals_separate_solves(self, simple5, simple5_pf, monkeypatch):
        # one batch holding a 1-step, a 3-step and an unperturbed column gives
        # the voltages and step counts of a separate solve per column; the two
        # first steps come from one two-column solve with the point's factors
        inj = -simple5.demand_pu()
        stack = np.repeat(inj[None], 3, axis=0)
        b4 = simple5.bus_index("b4")
        stack[0, b4, 0] -= 1e-5
        stack[1, b4, 0] -= 0.05
        lu = simple5_pf.jacobian_lu
        shapes = []
        solve = lu.solve
        monkeypatch.setattr(lu, "solve", lambda rhs, trans=False:
                            shapes.append(rhs.shape) or solve(rhs, trans))
        v, iterations = resolve_from(simple5_pf, stack)
        assert shapes == [(2 * len(nonslack_index(simple5)), 2)]
        assert list(iterations) == [1, 3, 0]
        for j in range(3):
            alone = solve_pf(simple5, stack[j], v0=simple5_pf.voltages)
            assert iterations[j] == alone.iterations
            assert np.array_equal(v[j], alone.voltages)
        assert np.array_equal(v[2], simple5_pf.voltages)

    def test_random_batches_equal_separate_solves_on_superlu(self, eulv117):
        # SuperLU solves each column of a batch as it solves the column
        # alone, so every re-solve keeps every bit of a separate one; seeded
        # batches of 2 to 12 columns, each with one to three steps of up to
        # 0.02 pu at random buses and phases (LAPACK rounds some columns of
        # such batches on simple5 differently), and one unperturbed column
        # last, which leaves the others to a batch of their own; the same
        # batch without it steps every column at once
        point = solve_pf(eulv117)
        rng = np.random.default_rng(17)
        nonslack = nonslack_index(eulv117)
        iterations = []
        for k in (2, 5, 12):
            stack = np.repeat(np.array(point.injections)[None], k + 1, axis=0)
            for j in range(k):
                for _ in range(rng.integers(1, 4)):
                    flat = rng.choice(nonslack)
                    step = rng.choice([1e-5, 1e-3, 0.02]) * rng.choice([-1, 1, -1j, 1j])
                    stack[j].reshape(-1)[flat] -= step
            given = stack.copy()
            v, its = resolve_from(point, stack)
            v_all, its_all = resolve_from(point, stack[:k])
            assert np.array_equal(stack, given)
            assert its[k] == 0
            assert np.array_equal(v_all, v[:k])
            assert np.array_equal(its_all, its[:k])
            for j in range(k + 1):
                alone = solve_pf(eulv117, stack[j], v0=point.voltages)
                assert its[j] == alone.iterations
                assert np.array_equal(v[j], alone.voltages)
            iterations += list(its)
        assert max(iterations) >= 3

    @pytest.mark.parametrize("name", ["simple5", "eulv117"])
    def test_empty_stack_gives_empty_arrays(self, name, request):
        # simple5's Jacobian is factored by LAPACK, eulv117's by SuperLU
        net = request.getfixturevalue(name)
        v, iterations = resolve_from(solve_pf(net), np.zeros((0, len(net.buses), 3)))
        assert v.shape == (0, len(net.buses), 3) and v.dtype == complex
        assert iterations.shape == (0,)

    def test_injections_must_be_a_stack(self, simple5, simple5_pf):
        n = len(simple5.buses)
        with pytest.raises(ValueError, match="injections must have shape"):
            resolve_from(simple5_pf, np.zeros((n, 3)))
        bad = np.zeros((2, n, 3), dtype=complex)
        bad[1, 1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            resolve_from(simple5_pf, bad)

    def test_perturbing_another_networks_point_is_rejected(self, two_bus, simple5_pf):
        with pytest.raises(ValueError, match="base"):
            perturb_and_resolve(two_bus, None, "load", 0, dp=1e-5, base=simple5_pf)

    @pytest.mark.parametrize("phase", [3, -1, "d"])
    def test_unknown_phase_is_named(self, simple5, simple5_pf, phase):
        with pytest.raises(ValueError, match=f"unknown phase {phase!r}"):
            perturb_and_resolve(simple5, None, "b4", phase, dp=1e-5, base=simple5_pf)

    def test_phase_may_be_named(self, simple5, simple5_pf):
        by_name = perturb_and_resolve(simple5, None, "b4", "c", dp=0.02, base=simple5_pf)
        by_index = perturb_and_resolve(simple5, None, "b4", 2, dp=0.02, base=simple5_pf)
        assert by_name[0].voltages.tobytes() == by_index[0].voltages.tobytes()
        assert by_name[1] == by_index[1]


class TestDeterminism:
    def test_repeat_solves_are_bitwise_identical(self, simple5):
        a = solve_pf(simple5)
        b = solve_pf(simple5)
        assert np.array_equal(a.voltages, b.voltages)
        assert a.losses == b.losses


class TestJacobianFactors:
    """Small Jacobians are factored dense by LAPACK, large ones by SuperLU on
    a pattern laid out once per network; callers see one ``solve``."""

    def reference(self, net, v):
        """LAPACK factors of the dense Jacobian at ``v``."""
        return lu_factor(pf_jacobian(build_ybus(net), v, nonslack_index(net)))

    def test_path_follows_the_row_count(self, two_bus, simple5, eulv117):
        for net, sparse in ((two_bus, False), (simple5, False), (eulv117, True)):
            rows = 2 * len(nonslack_index(net))
            assert (rows >= SPARSE_JACOBIAN_ROWS) == sparse
            factors = factor_jacobian(net, solve_pf(net).voltages)
            expected = powerflow._SparseFactors if sparse else powerflow._DenseFactors
            assert type(factors) is expected

    def test_dense_path_is_lapack_bit_for_bit(self, simple5, simple5_pf):
        ref = self.reference(simple5, simple5_pf.voltages)
        rhs = np.random.default_rng(3).standard_normal((len(ref[1]), 4))
        for trans in (False, True):
            ours = simple5_pf.jacobian_lu.solve(rhs, trans=trans)
            assert ours.tobytes() == lu_solve(ref, rhs, trans=int(trans)).tobytes()

    def test_sparse_path_matches_lapack(self, eulv117, eulv117_solve):
        point = eulv117_solve.warm
        ref = self.reference(eulv117, point.voltages)
        rng = np.random.default_rng(4)
        for rhs in (rng.standard_normal(len(ref[1])), rng.standard_normal((len(ref[1]), 3))):
            for trans in (False, True):
                ours = point.jacobian_lu.solve(rhs, trans=trans)
                theirs = lu_solve(ref, rhs, trans=int(trans))
                assert ours.shape == theirs.shape
                assert np.max(np.abs(ours - theirs)) <= 1e-10 * np.max(np.abs(theirs))

    @staticmethod
    def scanned_jacobian(ybus, csr, idx, v):
        """The sparse Jacobian at ``v``, laid out by scanning the dense
        non-slack block of ``ybus`` column by column; its values are formed
        as ``_JacobianPattern.jacobian`` forms them, with currents from the
        CSR ``csr``."""
        m = len(idx)
        y = ybus[np.ix_(idx, idx)]
        mask = y != 0
        mask[np.diag_indices(m)] = True
        cols, rows = np.nonzero(mask.T)
        counts = np.bincount(cols, minlength=m)
        nnz = len(rows)
        # column c of the e (then f) half holds its upper-block entries,
        # then their lower-block twins
        top = (np.cumsum(counts) - counts)[cols] + np.arange(nnz)
        bottom = top + counts[cols]
        slots = np.concatenate((top, bottom, top + 2 * nnz, bottom + 2 * nnz))
        indices = np.empty(4 * nnz, dtype=np.int32)
        indices[slots] = np.concatenate((rows, rows + m, rows, rows + m))
        indptr = np.concatenate(([0], np.cumsum(np.tile(2 * counts, 2)))).astype(np.int32)
        vflat = v.reshape(-1)
        a = vflat[idx[rows]] * np.conj(y[rows, cols])
        d = np.conj(csr @ vflat)[idx]
        vals = np.stack((a.real, a.imag, a.imag, -a.real))
        diag = rows == cols
        vals[:, diag] += np.stack((d.real, d.imag, -d.imag, d.real))
        data = np.empty(4 * nnz)
        data[slots] = vals.ravel()
        return sp.csc_matrix((data, indices, indptr), shape=(2 * m, 2 * m))

    def test_sparse_pattern_equals_the_dense_scan(self, simple5):
        eulv117 = load_network(bundled_network("eulv117"))
        # a block that lacks some diagonal entries, which the pattern keeps
        rng = np.random.default_rng(5)
        odd = sp.random(30, 30, density=0.2, random_state=rng, dtype=float)
        odd = (odd + 1j * odd).tolil()
        odd.setdiag(np.where(np.arange(30) % 4 == 0, 0.0, 1.0 + 2j))
        odd = odd.tocsr()
        odd.eliminate_zeros()
        cases = [(net.ybus, net.ybus_csr, nonslack_index(net)) for net in (simple5, eulv117)]
        cases.append((odd.toarray(), odd, np.delete(np.arange(30), [3, 7])))
        for dense, csr, idx in cases:
            shape = (dense.shape[0] // 3, 3)
            v = np.exp(0.1j * rng.standard_normal(shape)) * (1 + 0.05 * rng.standard_normal(shape))
            ours = powerflow._JacobianPattern(csr, idx).jacobian(csr, v)
            scanned = self.scanned_jacobian(dense, csr, idx, v)
            assert ours.format == "csc" and ours.shape == scanned.shape
            for a, b in ((ours.data, scanned.data), (ours.indices, scanned.indices),
                         (ours.indptr, scanned.indptr)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_large_network_never_builds_the_dense_ybus(self):
        net = load_network(bundled_network("eulv117"))
        assert isinstance(build_ybus(net), sp.csr_matrix)
        warm = solve_pf(net)
        sensitivity_report(net, warm, buses=list(net.unbalance.buses)[:2])
        assert warm.injections.shape == (len(net.buses), 3)
        sol = solve(build_problem(net, UnbalanceConfig("hard", 0.5, buses=net.unbalance.buses)),
                    warm=warm)
        assert sol.success
        decompose(sol)
        assert "ybus" not in net.__dict__
        assert "ybus_csr" in net.__dict__

    def test_sparse_pattern_is_laid_out_once_per_network(self, eulv117):
        pattern = powerflow._jacobian_pattern(eulv117)
        assert powerflow._jacobian_pattern(eulv117) is pattern

    def test_sparse_zero_start_is_singular(self, eulv117):
        with pytest.raises(SingularJacobian, match="singular power-flow Jacobian"):
            solve_pf(eulv117, v0=np.zeros((len(eulv117.buses), 3)))
