"""Symmetrical components, the voltage unbalance factor and its derivatives.

The unbalance metric is f = VUF**2, the squared VUF in percent: smooth at a
constraint boundary, with cheap derivatives.  This module alone defines it.
:func:`fortescue`, :func:`vuf`, :func:`f_metric` and :func:`grad_f` take
complex voltages whose last axis holds phases a, b, c (one bus as a (3,)
array, or any stack of buses) and return one value, or one gradient row,
per bus; the gradient's entry for phase a is ``df/d(Re va) + 1j df/d(Im
va)``.  :func:`vuf_metric_local` and :func:`vuf_metric_grad_hess` take the
OPF's rectangular parts ``[ea, fa, eb, fb, ec, fc]`` of each bus.

Each bus rounds as the one-bus scalar code behind the pinned outputs.
Complex products go through :func:`_cmul`, which rounds each real product
on its own (numpy's array complex multiply may fuse them).  Magnitudes are
``np.hypot`` of the parts (``np.abs`` of a complex array rounds
differently).  Squares and cubes take libm ``pow`` (:func:`_pow`;
``np.square`` differs).  grad f's purely imaginary scale ``-(sqrt(3) 1e4)
/ D**2`` is a true division (numpy's complex division multiplies by a
reciprocal).  In the 6x6 forms ``A x`` sums its products in index order
and ``x'Ax`` is a stacked ``(k, 1, 6) @ (k, 6, 1)`` matmul.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA = np.exp(2j * np.pi / 3)          # rotation operator, 120 degrees
# the ideal balanced 1 pu source held at the substation, phases a, b, c
BALANCED_SOURCE = np.array([1.0, ALPHA**2, ALPHA], dtype=complex)
BALANCED_SOURCE.flags.writeable = False
_SQRT3 = np.sqrt(3.0)

# Positive-sequence magnitude below this is treated as a degenerate point:
# far below any feasible operating voltage, guards the D**2 division.
EPS_POS = 1e-9


class DegeneratePointError(ValueError):
    """Positive-sequence voltage magnitude too small for VUF to be defined."""


def _cmul(a, b):
    """Complex product a * b rounded as numpy multiplies two complex scalars
    (one rounding per real product)."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = np.empty(np.broadcast(ar, br).shape, dtype=complex)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


_math_pow = np.frompyfunc(math.pow, 2, 1)


def _pow(a, p):
    """a**p per element, rounded as a float64 scalar ``**`` rounds (libm pow)."""
    return np.asarray(_math_pow(a, p), dtype=float)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


# the rotations of vb in the positive and negative sums, then those of vc
_ROT = np.array([ALPHA, ALPHA**2, ALPHA**2, ALPHA])


def _sums(v):
    """Complex voltages whose last axis holds phases a, b, c, and their
    un-normalized positive and negative sequence sums on a last axis."""
    v = np.asarray(v, dtype=complex)
    turned = _cmul(_ROT, v[..., [1, 1, 2, 2]])
    return v, v[..., :1] + turned[..., :2] + turned[..., 2:]


def _check(pos_magnitude):
    """DegeneratePointError naming the first entry <= EPS_POS, if any."""
    bad = pos_magnitude <= EPS_POS
    if np.count_nonzero(bad):
        raise DegeneratePointError(
            f"positive-sequence magnitude {pos_magnitude[bad][0]:.3e} below {EPS_POS}")


def _magnitudes(v):
    """|v_pos| and |v_neg| of each bus on a last axis, rounded as ``abs`` of
    a complex scalar rounds them (libm hypot); checked by :func:`_check`."""
    seq = _sums(v)[1] / 3.0
    mag = np.hypot(seq.real, seq.imag)
    _check(mag[..., 0])
    return mag


def fortescue(v):
    """Fortescue transform: the positive- and negative-sequence components
    (v_pos, v_neg) of each bus."""
    seq = _sums(v)[1] / 3.0
    return seq[..., 0], seq[..., 1]


def vuf(v):
    """Voltage unbalance factor in percent, 100 |v_neg| / |v_pos|, per bus."""
    mag = _magnitudes(v)
    return 100.0 * mag[..., 1] / mag[..., 0]


def f_metric(v):
    """Relaxed unbalance metric f = VUF**2 in squared percent, per bus."""
    sq = _pow(_magnitudes(v), 2)
    return 1e4 * sq[..., 1] / sq[..., 0]


def grad_f(v):
    """Gradient of f = VUF**2 with respect to each phase voltage, one
    (3,) complex row per bus.

    Uses the line-voltage closed form: for phase ``a`` the derivative is
    driven by the opposite line voltage ``vbc`` through

        -j*sqrt(3) * conj(v_opp) * (vab^2 + vbc^2 + vca^2) / D^2

    with cyclic substitution of the opposite line voltage for the other
    phases; ``D`` is the squared positive-sequence magnitude (un-normalized).
    The factor ``vab^2 + vbc^2 + vca^2`` vanishes identically on balanced
    sets, making the whole gradient exactly zero there.
    """
    v, sums = _sums(v)
    opposite = v[..., [1, 2, 0]] - v[..., [2, 0, 1]]                # vbc, vca, vab
    parts = np.concatenate((sums[..., :1], opposite), axis=-1)
    sq = _pow(np.hypot(parts.real, parts.imag), 2)
    d, mag_sq = sq[..., 0], sq[..., 1:]
    _check(np.sqrt(d) / 3.0)
    # z**2 as Python's complex power rounds it: (1 + 0j) * (z * z)
    square = _cmul(1.0 + 0j, _cmul(opposite, opposite))
    line_sq = square[..., 2] + square[..., 0] + square[..., 1]
    # the factor vanishes identically on balanced sets; snap rounding noise
    # to zero so those points report an exactly zero gradient
    noise = 64.0 * np.finfo(float).eps * (mag_sq[..., 2] + mag_sq[..., 0] + mag_sq[..., 1])
    line_sq = np.where(np.hypot(line_sq.real, line_sq.imag) <= noise, 0.0, line_sq)
    scale = np.zeros(np.shape(d), dtype=complex)
    scale.imag = -(_SQRT3 * 1e4) / _pow(d, 2)
    return _cmul(_cmul(scale[..., None], np.conj(opposite)), line_sq[..., None])


# with x = [ea, fa, eb, fb, ec, fc], x'Ax = |v_neg_sum|^2 and
# x'Bx = |v_pos_sum|^2 (un-normalized sums)
_W = np.array([[1, 1j, ALPHA**2, 1j * ALPHA**2, ALPHA, 1j * ALPHA],
               [1, 1j, ALPHA, 1j * ALPHA, ALPHA**2, 1j * ALPHA**2]])
_VUF_A, _VUF_B = np.real(_W[:, :, None] * np.conj(_W[:, None, :]))


def _forms(x, m):
    """(m x, x'm x) for each row x of [ea, fa, eb, fb, ec, fc] parts."""
    mx = m[:, 0] * x[..., :1]
    for j in range(1, 6):
        mx = mx + m[:, j] * x[..., j:j + 1]
    return mx, (x[..., None, :] @ mx[..., :, None])[..., 0, 0]


def vuf_metric_local(xv):
    """f = VUF^2 in squared percent for each row of rectangular parts (k, 6)."""
    return 1e4 * _forms(xv, _VUF_A)[1] / _forms(xv, _VUF_B)[1]


def vuf_metric_grad_hess(xv):
    """Value, gradient and Hessian of f for each row of (k, 6) parts."""
    Ax, u = _forms(xv, _VUF_A)
    Bx, d = _forms(xv, _VUF_B)
    gu = 2.0 * Ax
    gd = 2.0 * Bx
    d2 = _pow(d, 2)[..., None]
    val = 1e4 * u / d
    grad = 1e4 * (gu / d[..., None] - u[..., None] * gd / d2)
    u, d, d2 = u[..., None, None], d[..., None, None], d2[..., None]
    hess = 1e4 * (
        2.0 * _VUF_A / d
        - (_outer(gu, gd) + _outer(gd, gu)) / d2
        - u * 2.0 * _VUF_B / d2
        + 2.0 * u * _outer(gd, gd) / _pow(d, 3)
    )
    return val, grad, hess
