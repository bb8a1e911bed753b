"""Three-phase power flow on the bundled five-bus feeder.

Solves the load-only operating point, prints per-bus voltage magnitudes
and unbalance, checks power conservation by hand, and shows the
perturb-and-resolve helper that later serves as the finite-difference
oracle for sensitivities.

Run:  python demos/02_power_flow.py
"""

import numpy as np

from vudlmp import (
    bundled_network,
    f_metric,
    load_network,
    perturb_and_resolve,
    solve_pf,
    vuf,
)

net = load_network(bundled_network("simple5"))
point = solve_pf(net)

print(f"converged in {point.iterations} Newton iterations "
      f"(base {net.base_kva:.0f} kVA, {net.base_volt_ln:.0f} V L-N)")
print(f"{'bus':>4}  {'|va|':>7} {'|vb|':>7} {'|vc|':>7}   {'VUF %':>6}")
vufs = vuf(point.voltages)
for b, bus in enumerate(net.buses):
    mags = np.abs(point.voltages[b])
    tag = "" if bus.id == net.substation_bus else f"{vufs[b]:6.3f}"
    print(f"{bus.id:>4}  {mags[0]:7.4f} {mags[1]:7.4f} {mags[2]:7.4f}   {tag}")

worst_bus, worst = point.max_vuf()
print(f"\nworst unbalance: {worst:.3f} % at {worst_bus} "
      f"(f = {f_metric(point.voltages[net.bus_index(worst_bus)]):.3f} %^2)")

# conservation: substation infeed equals load plus series losses
infeed = np.sum(np.real(point.s_from[0]))   # line 0 leaves the substation
load = sum(np.sum(ld.p) for ld in net.loads)
print(f"\nsubstation infeed {infeed * net.base_kva:8.2f} kW")
print(f"total load        {load * net.base_kva:8.2f} kW")
print(f"series losses     {point.losses * net.base_kva:8.2f} kW "
      f"(infeed - load = {(infeed - load) * net.base_kva:.2f})")

# bump phase-a consumption at the worst bus by 1 kW and re-solve: the
# unbalance metric there moves, and the slope is the df/dP sensitivity
step = 1.0 / net.base_kva
_, df = perturb_and_resolve(net, None, worst_bus, 0, dp=step, base=point)
print(f"\n+1 kW on phase a at {worst_bus}: f moves by {df:+.5f} %^2 "
      f"(slope {df / step:+.3f} %^2 per pu)")
