"""NLP assembly tests: derivatives against finite differences, mode gating."""

import numpy as np
import pytest
import scipy.sparse as sp

from vudlmp import opf
from vudlmp.netmodel import UnbalanceConfig, ValidationError
from vudlmp.opf import (
    _VUF_A,
    _VUF_B,
    ConstraintTag,
    build_problem,
    vuf_metric_grad_hess,
    vuf_metric_local,
)
from vudlmp.sequence import PhasorSet, f_metric


def rect_vars(v):
    """Interleave a complex 3-vector into [ea, fa, eb, fb, ec, fc]."""
    out = np.empty(6)
    out[0::2] = np.real(v)
    out[1::2] = np.imag(v)
    return out


def random_x(prob, rng, scale=0.05):
    """Feasible-ish random point: warm-start shape plus small noise."""
    return prob.x0() + scale * rng.standard_normal(prob.nvar)


class TestLocalMetric:
    def test_matches_phasor_metric(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = (rng.uniform(0.9, 1.1, 3)
                 * np.exp(1j * (np.array([0, -2.1, 2.1]) + rng.uniform(-0.2, 0.2, 3))))
            xv = rect_vars(v)
            assert vuf_metric_local(xv) == pytest.approx(
                f_metric(PhasorSet.from_array(v)), rel=1e-12)

    def test_grad_hess_match_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(30):
            v = (rng.uniform(0.9, 1.1, 3)
                 * np.exp(1j * (np.array([0, -2.1, 2.1]) + rng.uniform(-0.2, 0.2, 3))))
            xv = rect_vars(v)
            val, grad, hess = vuf_metric_grad_hess(xv)
            assert val == pytest.approx(vuf_metric_local(xv), rel=1e-12)
            for k in range(6):
                up = xv.copy(); up[k] += h
                dn = xv.copy(); dn[k] -= h
                fd = (vuf_metric_local(up) - vuf_metric_local(dn)) / (2 * h)
                assert grad[k] == pytest.approx(fd, rel=5e-5, abs=1e-6)
                _, gup, _ = vuf_metric_grad_hess(up)
                _, gdn, _ = vuf_metric_grad_hess(dn)
                assert np.allclose(hess[:, k], (gup - gdn) / (2 * h),
                                   rtol=5e-5, atol=1e-5)


    def test_rows_equal_the_per_bus_forms_bit_for_bit(self):
        # reference: the 6x6 forms one bus at a time, as BLAS (A x, x'y) and
        # numpy's float64 scalar ``**`` round them; the batched kernel keeps
        # the OPF iterates, and the pinned benchmark outputs, bit for bit
        rng = np.random.default_rng(5)
        v = (rng.uniform(0.9, 1.1, (4000, 3))
             * np.exp(1j * (np.array([0, -2.1, 2.1]) + rng.uniform(-0.2, 0.2, (4000, 3)))))
        xs = np.array([rect_vars(row) for row in v])
        val, grad, hess = vuf_metric_grad_hess(xs)
        assert np.array_equal(vuf_metric_local(xs), val)
        for k, xv in enumerate(xs):
            Ax, Bx = _VUF_A @ xv, _VUF_B @ xv
            u, d = xv @ Ax, xv @ Bx
            gu, gd = 2.0 * Ax, 2.0 * Bx
            assert val[k] == 1e4 * u / d
            assert np.array_equal(grad[k], 1e4 * (gu / d - u * gd / d**2))
            assert np.array_equal(hess[k], 1e4 * (
                2.0 * _VUF_A / d
                - (np.outer(gu, gd) + np.outer(gd, gu)) / d**2
                - u * 2.0 * _VUF_B / d**2
                + 2.0 * u * np.outer(gd, gd) / d**3))


class TestLayout:
    def test_variable_count(self, simple5):
        prob = build_problem(simple5)
        nbus, ngen, nline = 6, 4, 5
        expected = 2 * 3 * (nbus - 1) + 2 * 3 * ngen + 4 * 3 * nline
        assert prob.nvar == expected

    def test_constraint_tags_are_unique(self, simple5):
        prob = build_problem(simple5, UnbalanceConfig("hard", 1.0))
        assert len(set(prob.eq_tags)) == len(prob.eq_tags) == prob.n_eq
        assert len(set(prob.ineq_tags)) == len(prob.ineq_tags) == prob.n_ineq

    def test_vuf_rows_present_only_in_hard_mode(self, simple5):
        count = lambda p: sum(t.kind == "vuf_limit" for t in p.ineq_tags)
        assert count(build_problem(simple5, UnbalanceConfig("none"))) == 0
        assert count(build_problem(simple5, UnbalanceConfig("soft", 0, 2.0))) == 0
        assert count(build_problem(simple5, UnbalanceConfig("hard", 1.0))) == \
            len(simple5.vuf_bus_subset)

    def test_subset_restricts_vuf_rows(self, simple5):
        cfg = UnbalanceConfig("hard", 1.0, buses=("b4",))
        prob = build_problem(simple5, cfg)
        tags = [t for t in prob.ineq_tags if t.kind == "vuf_limit"]
        assert [t.bus for t in tags] == ["b4"]

    def test_penalty_on_is_validated(self, simple5):
        with pytest.raises(ValidationError):
            build_problem(simple5, penalty_on="square")

    def test_warm_start_is_equality_feasible(self, simple5, simple5_pf):
        prob = build_problem(simple5)
        x = prob.x0(simple5_pf)
        c, _ = prob.eval_eq(x, want_jac=False)
        assert np.max(np.abs(c)) < 1e-8


class TestDerivatives:
    @pytest.mark.parametrize("mode_cfg", [
        UnbalanceConfig("none"),
        UnbalanceConfig("hard", 1.0),
        UnbalanceConfig("soft", 0.0, 2.5),
    ], ids=["none", "hard", "soft"])
    def test_jacobians_match_finite_differences(self, simple5, mode_cfg):
        prob = build_problem(simple5, mode_cfg)
        rng = np.random.default_rng(8)
        x = random_x(prob, rng)
        ce, je = prob.eval_eq(x)
        ci, ji = prob.eval_ineq(x)
        je = je.toarray()
        ji = ji.toarray()
        h = 1e-6
        cols = rng.choice(prob.nvar, size=25, replace=False)
        for k in cols:
            up = x.copy(); up[k] += h
            dn = x.copy(); dn[k] -= h
            fde = (prob.eval_eq(up, want_jac=False)[0]
                   - prob.eval_eq(dn, want_jac=False)[0]) / (2 * h)
            fdi = (prob.eval_ineq(up, want_jac=False)[0]
                   - prob.eval_ineq(dn, want_jac=False)[0]) / (2 * h)
            assert np.allclose(je[:, k], fde, rtol=1e-5, atol=1e-6)
            assert np.allclose(ji[:, k], fdi, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("mode_cfg,penalty_on", [
        (UnbalanceConfig("soft", 0.0, 2.5), "f"),
        (UnbalanceConfig("soft", 0.0, 2.5), "vuf"),
        (UnbalanceConfig("hard", 1.0), "f"),
    ], ids=["soft-f", "soft-vuf", "hard"])
    def test_lagrangian_hessian_matches_finite_differences(self, simple5,
                                                           mode_cfg, penalty_on):
        prob = build_problem(simple5, mode_cfg, penalty_on=penalty_on)
        rng = np.random.default_rng(9)
        x = random_x(prob, rng)
        y = rng.standard_normal(prob.n_eq)
        z = np.abs(rng.standard_normal(prob.n_ineq))

        def grad_lag(xv):
            e = prob.evaluate(xv)
            return e.grad_objective + e.jac_eq.T @ y + e.jac_ineq.T @ z

        hess = prob.hess_lagrangian(x, y, z).toarray()
        assert np.allclose(hess, hess.T, atol=1e-12)
        h = 1e-6
        cols = rng.choice(prob.nvar, size=15, replace=False)
        for k in cols:
            up = x.copy(); up[k] += h
            dn = x.copy(); dn[k] -= h
            fd = (grad_lag(up) - grad_lag(dn)) / (2 * h)
            assert np.allclose(hess[:, k], fd, rtol=5e-5, atol=5e-5)

    def test_objective_gradient(self, simple5):
        prob = build_problem(simple5, UnbalanceConfig("soft", 0.0, 1.7))
        rng = np.random.default_rng(10)
        x = random_x(prob, rng)
        val, grad, _ = prob.eval_objective(x)
        assert val == pytest.approx(prob.objective_value(x), rel=1e-12)
        h = 1e-6
        for k in rng.choice(prob.nvar, size=20, replace=False):
            up = x.copy(); up[k] += h
            dn = x.copy(); dn[k] -= h
            fd = (prob.objective_value(up) - prob.objective_value(dn)) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=5e-5, abs=1e-5)


class TestKernelReuse:
    @pytest.mark.parametrize("mode_cfg,penalty_on", [
        (UnbalanceConfig("soft", 0.0, 2.5), "f"),
        (UnbalanceConfig("soft", 0.0, 2.5), "vuf"),
        (UnbalanceConfig("hard", 1.0), "f"),
    ], ids=["soft-f", "soft-vuf", "hard"])
    def test_hessian_takes_the_evaluation_blocks(self, simple5, monkeypatch,
                                                 mode_cfg, penalty_on):
        prob = build_problem(simple5, mode_cfg, penalty_on=penalty_on)
        rng = np.random.default_rng(11)
        x = random_x(prob, rng)
        y = rng.standard_normal(prob.n_eq)
        z = np.abs(rng.standard_normal(prob.n_ineq))
        z[rng.random(prob.n_ineq) < 0.3] = 0.0
        z[prob._vuf_row0:prob._vuf_row0 + 1] = 0.0    # a hard VUF row drops out
        ref = prob.hess_lagrangian(x, y, z)
        calls = []
        kernel = opf.vuf_metric_grad_hess
        monkeypatch.setattr(opf, "vuf_metric_grad_hess",
                            lambda xv: calls.append(1) or kernel(xv))
        ours = prob.hess_lagrangian(x, y, z, prob.evaluate(x).vuf_hess)
        assert len(calls) == 1      # in the evaluation only
        for part in ("data", "indices", "indptr"):
            assert getattr(ours, part).tobytes() == getattr(ref, part).tobytes(), part


class TestFeederDerivatives:
    """Directional derivatives on eulv117, where the sparsity layout spans
    hundreds of line blocks; about a third of the multipliers are exactly 0."""

    @pytest.mark.parametrize("mode_cfg", [
        UnbalanceConfig("hard", 0.5),
        UnbalanceConfig("soft", 0.0, 3.0),
    ], ids=["hard", "soft"])
    def test_derivatives_match_central_differences(self, eulv117, mode_cfg):
        prob = build_problem(eulv117, mode_cfg, penalty_on="f")
        rng = np.random.default_rng(21)
        x = random_x(prob, rng, scale=0.01)
        y = rng.standard_normal(prob.n_eq)
        y[rng.random(prob.n_eq) < 0.3] = 0.0
        z = np.abs(rng.standard_normal(prob.n_ineq))
        z[rng.random(prob.n_ineq) < 0.3] = 0.0
        _, je = prob.eval_eq(x)
        _, ji = prob.eval_ineq(x)
        hess = prob.hess_lagrangian(x, y, z)

        def grad_lag(xv):
            e = prob.evaluate(xv)
            return e.grad_objective + e.jac_eq.T @ y + e.jac_ineq.T @ z

        h = 1e-6
        for _ in range(5):
            d = rng.standard_normal(prob.nvar)
            up, dn = x + h * d, x - h * d
            fde = (prob.eval_eq(up, want_jac=False)[0]
                   - prob.eval_eq(dn, want_jac=False)[0]) / (2 * h)
            fdi = (prob.eval_ineq(up, want_jac=False)[0]
                   - prob.eval_ineq(dn, want_jac=False)[0]) / (2 * h)
            assert np.allclose(je @ d, fde, rtol=1e-5, atol=1e-6)
            assert np.allclose(ji @ d, fdi, rtol=1e-5, atol=1e-6)
            fdh = (grad_lag(up) - grad_lag(dn)) / (2 * h)
            assert np.allclose(hess @ d, fdh, rtol=5e-5, atol=5e-5)

    def test_zero_multipliers_add_no_hessian_entries(self, eulv117):
        prob = build_problem(eulv117, UnbalanceConfig("none"))
        x = random_x(prob, np.random.default_rng(22))
        assert prob.hess_lagrangian(x, np.zeros(prob.n_eq), np.zeros(prob.n_ineq)).nnz == 0


def scipy_hessian(prob, x, y_eq, z_ineq):
    """The Lagrangian Hessian as ``csr_matrix`` sums its triplet stream
    (objective, flow, voltage bounds, thermal, VUF; a term only where its
    multiplier is not exactly zero): the reference, bit for bit."""
    hard = prob.cfg.mode == "hard"
    vuf_hess = vuf_metric_grad_hess(x[prob._vuf_vars])[2] if hard else prob.eval_objective(x)[2]
    rows, cols, vals = [], [], []
    if prob._penalised:
        rows.append(prob._hobj_rows)
        cols.append(prob._hobj_cols)
        vals.append(vuf_hess.ravel()[prob._hobj_order])
    yp, yq = y_eq[0:prob._balance_row0:2], y_eq[1:prob._balance_row0:2]
    w = np.empty(yp.shape, dtype=complex)
    w.real = -(yp - (0.0 * yq - 0.0))
    w.imag = -(0.0 - (0.0 + yq))
    block = (w.reshape(prob._near.shape + (3,))[..., None, None] * prob._hflow_g).real.ravel()
    keep = (w != 0)[prob._hflow_block]
    rows.append(prob._hflow_rows[keep])
    cols.append(prob._hflow_cols[keep])
    vals.append(block[prob._hflow_entry[keep]])
    for var, w in ((prob._hv_vars, 2.0 * (z_ineq[1:prob._box_row0:2]
                                           - z_ineq[0:prob._box_row0:2])),
                   (prob._hth_vars, 2.0 * z_ineq[prob._thermal_row0:prob._vuf_row0])):
        w = np.repeat(w, 2)
        rows.append(var[w != 0])
        cols.append(var[w != 0])
        vals.append(w[w != 0])
    if hard:
        w = z_ineq[prob._vuf_row0:]
        rows.append(prob._vuf_hrows[w != 0].ravel())
        cols.append(prob._vuf_hcols[w != 0].ravel())
        vals.append((w[w != 0, None, None] * vuf_hess[w != 0]).ravel())
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(prob.nvar, prob.nvar))


class TestHessianSummation:
    """The Hessian's duplicate terms are added in the order scipy's unstable
    row sort leaves them (eulv117 rows hold up to 79 triplets), whatever the
    exactly-zero multipliers drop, on the public matrix and on the values
    the solver reads."""

    @pytest.mark.parametrize("mode_cfg,penalty_on", [
        (UnbalanceConfig("none"), "f"),
        (UnbalanceConfig("soft", 0.0, 3.0), "f"),
        (UnbalanceConfig("soft", 0.0, 3.0), "vuf"),
        (UnbalanceConfig("hard", 0.5), "f"),
    ], ids=["none", "soft-f", "soft-vuf", "hard"])
    def test_matches_scipy_bit_for_bit(self, eulv117, mode_cfg, penalty_on):
        prob = build_problem(eulv117, mode_cfg, penalty_on=penalty_on)
        rng = np.random.default_rng(23)
        out = np.empty(prob.hess_layout.nnz)
        for zeros in (0.0, 0.3, 0.0, 1.0):  # back to a pattern seen before, then all zero
            x = random_x(prob, rng, scale=0.01)
            y = rng.standard_normal(prob.n_eq)
            z = np.abs(rng.standard_normal(prob.n_ineq))
            y[rng.random(prob.n_eq) < zeros] = 0.0
            z[rng.random(prob.n_ineq) < zeros] = 0.0
            ref = scipy_hessian(prob, x, y, z)
            ours = prob.hess_lagrangian(x, y, z)
            for part in ("data", "indices", "indptr"):
                a, b = getattr(ours, part), getattr(ref, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
            prob.hess_lagrangian(x, y, z, out=out)
            full = prob.hess_layout.matrix(out)
            assert full.toarray().tobytes() == ref.toarray().tobytes()


class TestObjectiveGates:
    def test_zero_weight_soft_equals_plain_cost(self, simple5):
        plain = build_problem(simple5, UnbalanceConfig("none"))
        soft0 = build_problem(simple5, UnbalanceConfig("soft", 0.0, 0.0))
        rng = np.random.default_rng(12)
        x = random_x(plain, rng)
        assert soft0.objective_value(x) == plain.objective_value(x)

    def test_penalty_increases_objective_at_unbalanced_points(self, simple5,
                                                              simple5_pf):
        plain = build_problem(simple5, UnbalanceConfig("none"))
        soft = build_problem(simple5, UnbalanceConfig("soft", 0.0, 2.0))
        x = plain.x0(simple5_pf)
        assert soft.objective_value(x) > plain.objective_value(x)

    def test_penalty_on_vuf_uses_square_root(self, simple5, simple5_pf):
        w = 2.0
        sq = build_problem(simple5, UnbalanceConfig("soft", 0.0, w), penalty_on="f")
        rt = build_problem(simple5, UnbalanceConfig("soft", 0.0, w), penalty_on="vuf")
        x = sq.x0(simple5_pf)
        base = build_problem(simple5, UnbalanceConfig("none")).objective_value(x)
        f_sum = sum(simple5_pf.f_metric(b) for b in simple5.vuf_bus_subset)
        root_sum = sum(np.sqrt(simple5_pf.f_metric(b) + 1e-6)
                       for b in simple5.vuf_bus_subset)
        assert sq.objective_value(x) == pytest.approx(base + w * f_sum, rel=1e-9)
        assert rt.objective_value(x) == pytest.approx(base + w * root_sum, rel=1e-9)

    def test_multiplier_symbols_resolve(self):
        tag = ConstraintTag("p_balance", bus="b2", phase="a")
        assert tag.symbol == "phi_p"
        assert ConstraintTag("vuf_limit", bus="b4").symbol == "psi"
