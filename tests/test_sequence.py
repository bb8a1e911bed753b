"""Sequence-component oracle tests: metric equivalence and gradient checks."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vudlmp.sequence import (
    ALPHA,
    BALANCED_SOURCE,
    DegeneratePointError,
    f_metric,
    fortescue,
    grad_f,
    vuf,
)
from conftest import balanced_set


def random_phasors(rng, n):
    """Realistic-ish operating voltages: near 1 pu, moderate unbalance."""
    mags = rng.uniform(0.8, 1.2, size=(n, 3))
    angs = np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3]) \
        + rng.uniform(-0.3, 0.3, size=(n, 3))
    return mags * np.exp(1j * angs)


def oracle_f(v):
    """Independent Fortescue-ratio oracle built only from matrix algebra."""
    a = np.exp(2j * np.pi / 3)
    t = np.array([[1, a, a**2], [1, a**2, a]]) / 3.0
    pos, neg = t @ v
    return (100.0 * abs(neg) / abs(pos)) ** 2


class TestMetricOracle:
    def test_equals_squared_fortescue_ratio_on_random_sets(self):
        rng = np.random.default_rng(7)
        sets = random_phasors(rng, 10_000)
        t0 = time.perf_counter()
        vals = np.array([f_metric(v) for v in sets])
        elapsed = time.perf_counter() - t0
        ref = np.array([oracle_f(v) for v in sets])
        rel = np.abs(vals - ref) / np.maximum(np.abs(ref), 1e-300)
        assert np.max(rel) < 1e-12
        assert elapsed < 1.0

    def test_vuf_is_root_of_metric(self):
        rng = np.random.default_rng(3)
        for v in random_phasors(rng, 50):
            assert vuf(v) == pytest.approx(np.sqrt(f_metric(v)), rel=1e-14)

    def test_balanced_set_has_zero_unbalance(self):
        v = balanced_set(magnitude=1.03, angle=0.4)
        assert f_metric(v) < 1e-24
        assert vuf(v) < 1e-12

    def test_degenerate_point_raises(self):
        # pure negative-sequence set: positive sequence vanishes
        v = np.array([1.0, complex(ALPHA), complex(ALPHA**2)])
        with pytest.raises(DegeneratePointError):
            f_metric(v)
        with pytest.raises(DegeneratePointError):
            grad_f(v)

    def test_known_two_component_ratio(self):
        # |v_neg|/|v_pos| = 0.2/5.8 -> VUF 3.4483 %, f = 11.891
        a = complex(ALPHA)
        pos, neg = 5.8, 0.2
        v = np.array([pos + neg,
                      pos * a**2 + neg * a,
                      pos * a + neg * a**2])
        assert vuf(v) == pytest.approx(100.0 * 0.2 / 5.8, rel=1e-12)
        assert f_metric(v) == pytest.approx((100.0 * 0.2 / 5.8) ** 2, rel=1e-12)


def fd_gradient(v, h=1e-7):
    """Central finite differences of f over all six rectangular coordinates
    of each row of a (k, 3) stack."""
    out = np.zeros(v.shape, dtype=complex)
    for ph in range(3):
        for unit in (1.0, 1j):
            up = v.copy()
            dn = v.copy()
            up[:, ph] += h * unit
            dn[:, ph] -= h * unit
            out[:, ph] += unit * (f_metric(up) - f_metric(dn)) / (2 * h)
    return out


class TestGradient:
    def test_closed_form_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        v = random_phasors(rng, 1000)
        g = grad_f(v)
        ref = fd_gradient(v)
        scale = np.maximum(np.max(np.abs(ref), axis=1), 1e-12)
        assert np.max(np.max(np.abs(g - ref), axis=1) / scale) < 1e-6

    def test_balanced_points_give_exact_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = grad_f(balanced_set(rng.uniform(0.9, 1.1), rng.uniform(-np.pi, np.pi)))
            assert np.max(np.abs(g)) < 1e-12

    def test_gradient_descends_the_metric(self):
        rng = np.random.default_rng(13)
        for v in random_phasors(rng, 20):
            g = grad_f(v)
            step = 1e-6
            moved = v - step * g          # steepest descent in the real pairing
            assert f_metric(moved) < f_metric(v)


class TestFortescue:
    def test_sequence_components_reconstruct(self):
        rng = np.random.default_rng(2)
        a = complex(ALPHA)
        for v in random_phasors(rng, 50):
            v_pos, v_neg = fortescue(v)
            zero = np.sum(v) / 3.0
            rebuilt = np.array([
                zero + v_pos + v_neg,
                zero + a**2 * v_pos + a * v_neg,
                zero + a * v_pos + a**2 * v_neg,
            ])
            assert np.allclose(rebuilt, v, atol=1e-13)

    @given(st.floats(0.5, 1.5), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_balanced_sets_are_pure_positive_sequence(self, mag, ang):
        v_pos, v_neg = fortescue(balanced_set(mag, ang))
        assert abs(v_neg) < 1e-12 * max(1.0, mag)
        assert abs(v_pos) == pytest.approx(mag, rel=1e-12)

    @given(st.floats(0.8, 1.2), st.floats(0.0, 0.1), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_metric_is_rotation_invariant(self, mag, skew, rot):
        a = complex(ALPHA)
        v = np.array([mag + skew, mag * a**2, (mag - skew) * a])
        base = f_metric(v)
        spun = f_metric(v * np.exp(1j * rot))
        assert spun == pytest.approx(base, rel=1e-10, abs=1e-12)


# The one-bus scalar formulas the kernel replaced, kept as the reference it
# must round like: phases are Python complexes, ALPHA a numpy complex scalar.
def scalar_fortescue(va, vb, vc):
    return ((va + ALPHA * vb + ALPHA**2 * vc) / 3.0,
            (va + ALPHA**2 * vb + ALPHA * vc) / 3.0)


def scalar_vuf(va, vb, vc):
    v_pos, v_neg = scalar_fortescue(va, vb, vc)
    return 100.0 * abs(v_neg) / abs(v_pos)


def scalar_f(va, vb, vc):
    v_pos, v_neg = scalar_fortescue(va, vb, vc)
    return 1e4 * (abs(v_neg) ** 2) / (abs(v_pos) ** 2)


def scalar_grad(va, vb, vc):
    d = abs(va + ALPHA * vb + ALPHA**2 * vc) ** 2
    vab, vbc, vca = va - vb, vb - vc, vc - va
    line_sq = vab**2 + vbc**2 + vca**2
    noise = 64.0 * np.finfo(float).eps * (abs(vab) ** 2 + abs(vbc) ** 2 + abs(vca) ** 2)
    if abs(line_sq) <= noise:
        line_sq = 0.0
    scale = -1j * np.sqrt(3.0) * 1e4 / d**2
    return [complex(scale * np.conj(opp) * line_sq) for opp in (vbc, vca, vab)]


def kernel_sets():
    """10,000 seeded sets: 8,000 unbalanced ones at three scales and 2,000
    exactly balanced ones, where the gradient snaps to exact zeros."""
    rng = np.random.default_rng(17)
    balanced = [balanced_set(m, a) for m, a in
                zip(rng.uniform(0.9, 1.1, 1999), rng.uniform(-np.pi, np.pi, 1999))]
    return np.concatenate((random_phasors(rng, 6000), 1e-3 * random_phasors(rng, 1000),
                           50.0 * random_phasors(rng, 1000), balanced, [BALANCED_SOURCE]))


class TestKernel:
    @pytest.fixture(scope="class")
    def sets(self):
        return kernel_sets()

    @pytest.mark.parametrize("kernel, reference", [
        (vuf, scalar_vuf), (f_metric, scalar_f), (grad_f, scalar_grad),
        (lambda v: np.stack(fortescue(v), axis=-1), scalar_fortescue),
    ], ids=["vuf", "f_metric", "grad_f", "fortescue"])
    def test_stack_rounds_as_the_scalar_formulas(self, sets, kernel, reference):
        ref = np.array([reference(*map(complex, v)) for v in sets])
        assert kernel(sets).tobytes() == ref.tobytes()

    def test_balanced_sets_give_exact_zero_gradients(self, sets):
        assert np.all(grad_f(sets[-2000:]) == 0)

    @pytest.mark.parametrize("kernel", [vuf, f_metric, grad_f,
                                        lambda v: np.stack(fortescue(v), axis=-1)],
                             ids=["vuf", "f_metric", "grad_f", "fortescue"])
    def test_stack_equals_per_bus_calls(self, sets, kernel):
        stack = sets[::50].reshape(4, 50, 3)
        one_by_one = np.array([[kernel(bus) for bus in row] for row in stack])
        assert kernel(stack).tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("kernel", [vuf, f_metric, grad_f], ids=["vuf", "f_metric", "grad_f"])
    def test_degenerate_error_names_the_first_bad_bus(self, kernel):
        negative = np.array([1.0, complex(ALPHA), complex(ALPHA**2)])     # no v_pos at all
        stack = np.array([BALANCED_SOURCE, negative + 5e-10 * BALANCED_SOURCE,
                          negative + 2e-10 * BALANCED_SOURCE])
        with pytest.raises(DegeneratePointError, match=r"magnitude 5\.000e-10 below 1e-09"):
            kernel(stack)
