"""Hard limits versus soft penalties for voltage unbalance.

Solves the five-bus feeder three ways — no unbalance treatment, a hard
1 % VUF cap, and a sweep of soft penalty weights — and compares cost,
losses and the worst unbalance.  The soft sweep shows the monotone
trade-off: heavier weights buy balance with generation cost.

Run:  python demos/03_opf_hard_vs_soft.py
"""

from vudlmp import (
    UnbalanceConfig,
    build_problem,
    bundled_network,
    load_network,
    solve,
)

net = load_network(bundled_network("simple5"))


def run(cfg, label):
    sol = solve(build_problem(net, cfg))
    bus, worst = sol.max_vuf()
    print(f"{label:<18} {sol.status:>8} {sol.iterations:>4} it   "
          f"cost {sol.total_gen_cost():8.4f} EUR/h   "
          f"losses {sol.total_losses_pu() * net.base_kva:6.3f} kW   "
          f"max VUF {worst:6.4f} % @ {bus}")
    return sol


print("=== unconstrained baseline ===")
base = run(UnbalanceConfig("none"), "none")

print("\n=== hard cap at 1.0 % ===")
hard = run(UnbalanceConfig("hard", 1.0), "hard 1.0%")
print("the binding cap shows up as a positive multiplier psi:")
psi_rows = hard.problem.by_family(ineq=hard.z_ineq)["vuf_limit"]
for bus, psi in zip(hard.problem.vuf_buses, psi_rows):
    mark = "  <- binding" if psi > 1e-4 else ""
    print(f"  psi[{bus}] = {psi:10.4f}{mark}")

print("\na cap the baseline already satisfies changes nothing:")
slack_cap = run(UnbalanceConfig("hard", 2.0), "hard 2.0%")
print(f"  cost difference vs baseline: "
      f"{abs(slack_cap.total_gen_cost() - base.total_gen_cost()):.2e} EUR/h")

print("\n=== soft penalty sweep (weight in EUR/h per %^2) ===")
for w in (0.0, 0.5, 1.0, 1.5, 3.0):
    run(UnbalanceConfig("soft", penalty_weight=w), f"soft w={w}")

print("\nheavier weights push the worst VUF down monotonically while the")
print("generation cost creeps up; the hard cap lands wherever the limit")
print("is set, at the price its multiplier reports.")
