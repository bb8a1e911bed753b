"""Generate the bundled benchmark feeders.

The published sources give only aggregate load data for both test feeders,
so the per-bus values here are reconstructions that honor the aggregates
(totals, phase splits, DER capacities, motor loads).  Line impedances are
plausible LV cable data, times one global impedance scale per feeder.  Each
scale was found by bisecting it until the load-only power flow's maximum
VUF reached 1.30 %, and is pinned here: re-bisecting would follow the
power flow's last bits, and those have moved since the bundled files were
written.  Output is deterministic, and :func:`documents` rebuilds both
bundled files byte for byte.  Every pinned benchmark output depends on
their digits, so change a feeder here only in a reference regeneration of
the benchmark.

Run from the repo root:  python scripts/make_networks.py
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vudlmp.netmodel import network_from_dict  # noqa: E402
from vudlmp.powerflow import solve_pf  # noqa: E402
from vudlmp.sequence import vuf  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "src" / "vudlmp" / "data"

MAIN_Z = (0.125 + 0.080j, 0.020 + 0.040j)      # ohm/km: (self, mutual)
SERVICE_Z = (0.320 + 0.090j, 0.030 + 0.040j)

# the bisected impedance scales (load-only max VUF 1.30 %)
SIMPLE5_SCALE = 3.9060050484824704
EULV117_SCALE = 0.7752378976727361


def zmat(per_km, length_km, scale=1.0):
    zs, zm = per_km
    z = np.full((3, 3), zm, dtype=complex)
    np.fill_diagonal(z, zs)
    z *= length_km * scale
    return np.real(z).tolist(), np.imag(z).tolist()


# -- simple 5-bus feeder ----------------------------------------------------
#
# Roles: bus 2 unbalanced loads + a P-only battery priced above the
# substation (idle until unbalance is priced); bus 3 balanced loads +
# 21 kVA PV with a modest reactive range; bus 4 unbalanced loads + 7.5 kVA
# of unity-pf rooftop panels.  Totals: 81.5 kW split 38.5/24.5/37 %.

SIMPLE5_LINES = [
    ("sub", "b1", 0.15),
    ("b1", "b2", 0.10),
    ("b2", "b3", 0.10),
    ("b3", "b4", 0.08),
    ("b2", "b5", 0.10),
]

SIMPLE5_LOADS = [
    ("b2", [14.0, 4.0, 12.0]),
    ("b3", [8.0, 8.0, 8.0]),
    ("b4", [6.0, 3.0, 7.0]),
    ("b5", [3.3775, 4.9675, 3.155]),
]
PF_TAN = 0.3287     # power factor 0.95


def simple5_doc(scale):
    lines = []
    for f, t, km in SIMPLE5_LINES:
        zr, zi = zmat(MAIN_Z, km, scale)
        lines.append({"from": f, "to": t, "z_real": zr, "z_imag": zi,
                      "s_rating": 50.0})
    loads = [{"bus": b, "p": p, "q": [round(v * PF_TAN, 4) for v in p]}
             for b, p in SIMPLE5_LOADS]
    gens = [
        {"bus": "sub", "phases": ["a", "b", "c"],
         "pmin": [0, 0, 0], "pmax": [200, 200, 200],
         "qmin": [-200, -200, -200], "qmax": [200, 200, 200],
         "cost": 1.0, "is_substation": True},
        {"bus": "b3", "phases": ["a", "b", "c"],
         "pmin": [0, 0, 0], "pmax": [7, 7, 7],
         "qmin": [-3, -3, -3], "qmax": [3, 3, 3],
         "cost": 0.0, "is_substation": False},
        {"bus": "b4", "phases": ["a", "b", "c"],
         "pmin": [0, 0, 0], "pmax": [2.5, 2.5, 2.5],
         "qmin": [0, 0, 0], "qmax": [0, 0, 0],
         "cost": 0.0, "is_substation": False},
        {"bus": "b2", "phases": ["a", "b", "c"],
         "pmin": [0, 0, 0], "pmax": [10, 10, 10],
         "qmin": [0, 0, 0], "qmax": [0, 0, 0],
         "cost": 1.1, "is_substation": False},
    ]
    return {
        "base_kva": 50.0,
        "base_volt_ln": 230.0,
        "substation_bus": "sub",
        "buses": [{"id": b, "vmin": 0.9, "vmax": 1.1}
                  for b in ["sub", "b1", "b2", "b3", "b4", "b5"]],
        "lines": lines,
        "loads": loads,
        "gens": gens,
        "unbalance": {"mode": "none", "limit_pct": 1.0, "penalty": 0.0,
                      "buses": ["b1", "b2", "b3", "b4", "b5"]},
    }


# -- reduced European LV feeder (117 nodes) ---------------------------------
#
# Desk-scale feeder with the published aggregate structure: 287.5 kW total,
# 38.3/32.9/28.8 % phase split, three 18 kW motor loads at pf 0.88 on buses
# n9/n23/n40, one 54 kVA solar DER, two 60 kVA battery DERs at 1.1 EUR/kWh,
# 14 rooftop 7.5 kVA arrays.  Topology: 40-node backbone with 38 two-node
# spurs (117 nodes including the substation).

EULV_TOTAL_KW = 287.5
EULV_SPLIT = (0.383, 0.329, 0.288)
MOTOR_BUSES = ("n9", "n23", "n40")
MOTOR_KW = 18.0
MOTOR_TAN = 0.5397      # pf 0.88 lagging
LOAD_TAN = 0.3952       # pf 0.93


def eulv_topology():
    lines = []              # (from, to, km, cable)
    buses = ["sub"]
    backbone = [f"n{i}" for i in range(1, 41)]
    buses += backbone
    prev = "sub"
    for b in backbone:
        lines.append((prev, b, 0.030, MAIN_Z))
        prev = b
    spurs = []
    k = 41
    for s in range(38):
        attach = backbone[1 + (s % 38)]
        mid = f"n{k}"
        end = f"n{k + 1}"
        k += 2
        buses += [mid, end]
        lines.append((attach, mid, 0.025, SERVICE_Z))
        lines.append((mid, end, 0.025, SERVICE_Z))
        spurs.append((mid, end))
    return buses, lines, spurs


def eulv_loads(spurs):
    rng = np.random.default_rng(42)
    # 52 single-phase loads: every spur end plus 14 spur mids
    sites = [end for _, end in spurs] + [mid for mid, _ in spurs[:14]]
    sizes = rng.uniform(3.5, 5.5, size=len(sites))
    targets = np.array([
        EULV_TOTAL_KW * f - MOTOR_KW for f in EULV_SPLIT
    ])
    assigned = np.zeros(len(sites), dtype=int)
    acc = np.zeros(3)
    order = rng.permutation(len(sites))
    for i in order:
        deficit = targets - acc
        ph = int(np.argmax(deficit))
        assigned[i] = ph
        acc[ph] += sizes[i]
    # per-phase rescale so the aggregates match exactly
    for ph in range(3):
        mask = assigned == ph
        sizes[mask] *= targets[ph] / acc[ph]
    loads = []
    for bus in MOTOR_BUSES:
        p = MOTOR_KW / 3.0
        loads.append({"bus": bus, "p": [p, p, p],
                      "q": [round(p * MOTOR_TAN, 4)] * 3})
    for i, site in enumerate(sites):
        p = [0.0, 0.0, 0.0]
        q = [0.0, 0.0, 0.0]
        p[assigned[i]] = round(float(sizes[i]), 4)
        q[assigned[i]] = round(float(sizes[i]) * LOAD_TAN, 4)
        loads.append({"bus": site, "p": p, "q": q})
    return loads


def eulv_gens(spurs):
    gens = [
        {"bus": "sub", "phases": ["a", "b", "c"],
         "pmin": [0, 0, 0], "pmax": [400, 400, 400],
         "qmin": [-400, -400, -400], "qmax": [400, 400, 400],
         "cost": 1.0, "is_substation": True},
        # DER2: solar plant, 54 kVA, up to 30 kvar support
        {"bus": "n25", "phases": ["a", "b", "c"],
         "pmin": [0, 0, 0], "pmax": [18, 18, 18],
         "qmin": [-10, -10, -10], "qmax": [10, 10, 10],
         "cost": 0.0, "is_substation": False},
        # DER1 / DER3: batteries, 60 kVA, 1.1 EUR/kWh cycling cost
        {"bus": "n12", "phases": ["a", "b", "c"],
         "pmin": [0, 0, 0], "pmax": [20, 20, 20],
         "qmin": [-18, -18, -18], "qmax": [18, 18, 18],
         "cost": 1.1, "is_substation": False},
        {"bus": "n38", "phases": ["a", "b", "c"],
         "pmin": [0, 0, 0], "pmax": [20, 20, 20],
         "qmin": [-18, -18, -18], "qmax": [18, 18, 18],
         "cost": 1.1, "is_substation": False},
    ]
    # 14 rooftop arrays, 7.5 kVA each, unity pf, on every other spur end
    for mid, end in spurs[::3][:14]:
        gens.append({"bus": end, "phases": ["a", "b", "c"],
                     "pmin": [0, 0, 0], "pmax": [2.5, 2.5, 2.5],
                     "qmin": [0, 0, 0], "qmax": [0, 0, 0],
                     "cost": 0.0, "is_substation": False})
    return gens


def eulv_doc(scale):
    buses, lines, spurs = eulv_topology()
    line_entries = []
    for f, t, km, cable in lines:
        zr, zi = zmat(cable, km, scale)
        rating = 120.0 if cable is MAIN_Z else 30.0
        line_entries.append({"from": f, "to": t, "z_real": zr, "z_imag": zi,
                             "s_rating": rating})
    return {
        "base_kva": 50.0,
        "base_volt_ln": 230.0,
        "substation_bus": "sub",
        "buses": [{"id": b, "vmin": 0.85, "vmax": 1.1} for b in buses],
        "lines": line_entries,
        "loads": eulv_loads(spurs),
        "gens": eulv_gens(spurs),
        "unbalance": {"mode": "none", "limit_pct": 1.0, "penalty": 0.0,
                      "buses": []},   # subset filled in below
    }


def pick_vuf_subset(doc, count=15):
    """Motor buses plus the highest-VUF buses of the load-only power flow."""
    net = network_from_dict(doc)
    point = solve_pf(net)
    buses = [b for b, bid in enumerate(net.bus_ids) if bid != "sub"]
    scored = sorted(zip(vuf(point.voltages[buses]).tolist(),
                        (net.bus_ids[b] for b in buses)), reverse=True)
    subset = list(MOTOR_BUSES)
    for _, bid in scored:
        if bid not in subset:
            subset.append(bid)
        if len(subset) == count:
            break
    return subset


def documents():
    """The JSON text of each bundled feeder document, by name."""
    eulv = eulv_doc(EULV117_SCALE)
    eulv["unbalance"]["buses"] = pick_vuf_subset(eulv)
    return {name: json.dumps(doc, indent=1) + "\n"
            for name, doc in (("simple5", simple5_doc(SIMPLE5_SCALE)), ("eulv117", eulv))}


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, text in documents().items():
        point = solve_pf(network_from_dict(json.loads(text)))
        bus, worst = point.max_vuf()
        print(f"{name}: load-only max VUF={worst:.3f}% at {bus}, "
              f"min |v|={np.abs(point.voltages).min():.4f}")
        (OUT / f"{name}.net.json").write_text(text)


if __name__ == "__main__":
    main()
