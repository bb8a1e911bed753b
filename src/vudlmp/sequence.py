"""Symmetrical components, the voltage unbalance factor and its gradient.

The unbalance metric used throughout the package is the square of the VUF
in percent, ``f(v) = VUF(v)**2``, kept in squared form so that it stays
smooth at a constraint boundary and its derivatives are cheap.  The
gradient is returned in the conventional real pairing: the complex entry
for phase ``a`` holds ``df/d(Re va) + 1j * df/d(Im va)``.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class PhasorSet:
    """The three complex phase voltages of one bus (per-unit)."""
    va: complex
    vb: complex
    vc: complex

    def as_array(self):
        return np.array([self.va, self.vb, self.vc], dtype=complex)

    @classmethod
    def from_array(cls, v):
        v = np.asarray(v, dtype=complex)
        return cls(va=complex(v[0]), vb=complex(v[1]), vc=complex(v[2]))

    @classmethod
    def balanced(cls, magnitude=1.0, angle=0.0):
        rot = magnitude * np.exp(1j * angle)
        return cls(va=rot, vb=rot * ALPHA**2, vc=rot * ALPHA)


@dataclass(frozen=True)
class SequencePair:
    """Positive- and negative-sequence components of a phasor set."""
    v_pos: complex
    v_neg: complex


@dataclass(frozen=True)
class UnbalanceGradient:
    """Per-phase derivatives of f = VUF**2."""
    dva: complex
    dvb: complex
    dvc: complex

    def as_array(self):
        return np.array([self.dva, self.dvb, self.dvc], dtype=complex)


def fortescue(v: PhasorSet) -> SequencePair:
    """Fortescue transform: positive- and negative-sequence components."""
    va, vb, vc = v.va, v.vb, v.vc
    v_pos = (va + ALPHA * vb + ALPHA**2 * vc) / 3.0
    v_neg = (va + ALPHA**2 * vb + ALPHA * vc) / 3.0
    return SequencePair(v_pos=v_pos, v_neg=v_neg)


def _checked_fortescue(v: PhasorSet) -> SequencePair:
    """:func:`fortescue`, raising DegeneratePointError where VUF is undefined."""
    seq = fortescue(v)
    if abs(seq.v_pos) <= EPS_POS:
        raise DegeneratePointError(
            f"positive-sequence magnitude {abs(seq.v_pos):.3e} below {EPS_POS}"
        )
    return seq


def vuf(v: PhasorSet) -> float:
    """Voltage unbalance factor in percent: 100 |v_neg| / |v_pos|."""
    seq = _checked_fortescue(v)
    return 100.0 * abs(seq.v_neg) / abs(seq.v_pos)


def f_metric(v: PhasorSet) -> float:
    """Relaxed unbalance metric f = VUF**2, in squared percent."""
    seq = _checked_fortescue(v)
    return 1e4 * (abs(seq.v_neg) ** 2) / (abs(seq.v_pos) ** 2)


def grad_f(v: PhasorSet) -> UnbalanceGradient:
    """Gradient of f = VUF**2 with respect to each phase voltage.

    Uses the line-voltage closed form: for phase ``a`` the derivative is
    driven by the opposite line voltage ``vbc`` through

        -j*sqrt(3) * conj(v_opp) * (vab^2 + vbc^2 + vca^2) / D^2

    with cyclic substitution of the opposite line voltage for the other
    phases; ``D`` is the squared positive-sequence magnitude (un-normalized).
    The factor ``vab^2 + vbc^2 + vca^2`` vanishes identically on balanced
    sets, making the whole gradient exactly zero there.
    """
    va, vb, vc = v.va, v.vb, v.vc
    dpos = va + ALPHA * vb + ALPHA**2 * vc
    d = abs(dpos) ** 2
    if np.sqrt(d) / 3.0 <= EPS_POS:
        raise DegeneratePointError(
            f"positive-sequence magnitude {np.sqrt(d) / 3.0:.3e} below {EPS_POS}"
        )
    vab, vbc, vca = va - vb, vb - vc, vc - va
    line_sq = vab**2 + vbc**2 + vca**2
    # the factor vanishes identically on balanced sets; snap rounding noise
    # to zero so those points report an exactly zero gradient
    noise = 64.0 * np.finfo(float).eps * (
        abs(vab) ** 2 + abs(vbc) ** 2 + abs(vca) ** 2)
    if abs(line_sq) <= noise:
        line_sq = 0.0
    scale = -1j * _SQRT3 * 1e4 / d**2
    return UnbalanceGradient(
        dva=complex(scale * np.conj(vbc) * line_sq),
        dvb=complex(scale * np.conj(vca) * line_sq),
        dvc=complex(scale * np.conj(vab) * line_sq),
    )
