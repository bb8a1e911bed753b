"""Symmetrical components and the voltage unbalance factor.

Walks through the Fortescue transform on a hand-made unbalanced phasor
set, shows how the VUF and its squared relaxation f = VUF^2 respond, and
verifies the closed-form gradient of f against finite differences at the
same point.

Run:  python demos/01_sequence_components.py
"""

import numpy as np

from vudlmp import f_metric, fortescue, grad_f, vuf
from vudlmp.sequence import BALANCED_SOURCE

# a sagging phase `a` and a slightly hot phase `c`
v = np.array([
    0.96 * np.exp(0.02j),
    1.00 * np.exp(-2j * np.pi / 3),
    1.03 * np.exp(2j * np.pi / 3 - 0.015j),
], dtype=complex)

v_pos, v_neg = fortescue(v)
print("phase voltages (pu):")
for name, val in zip("abc", v):
    print(f"  v_{name} = {abs(val):.4f} /_{np.angle(val, deg=True):8.2f} deg")
print(f"positive sequence |v+| = {abs(v_pos):.5f}")
print(f"negative sequence |v-| = {abs(v_neg):.5f}")
print(f"VUF = 100 |v-| / |v+| = {vuf(v):.4f} %")
print(f"f   = VUF^2            = {f_metric(v):.4f} %^2")

# the balanced reference carries no negative sequence at all
print(f"\nbalanced set: VUF = {vuf(BALANCED_SOURCE):.2e} %, "
      f"|grad f| = {np.max(np.abs(grad_f(BALANCED_SOURCE))):.2e}  (exactly zero)")

# gradient sanity: closed form vs central differences, coordinate by coordinate
g = grad_f(v)
h = 1e-7
print("\ngradient of f (closed form vs finite differences):")
for ph in range(3):
    fd = 0j
    for unit in (1.0, 1j):
        up = v.copy(); up[ph] += h * unit
        dn = v.copy(); dn[ph] -= h * unit
        fd += unit * (f_metric(up) - f_metric(dn)) / (2 * h)
    print(f"  phase {'abc'[ph]}: closed {g[ph]:+.6f}   fd {fd:+.6f}")

# walking against the gradient reduces the unbalance
step = 1e-4
improved = v - step * g
print(f"\none gradient step of {step}: f {f_metric(v):.4f} -> "
      f"{f_metric(improved):.4f}")
