"""Print digests of the line admittances, the OPF evaluation, the power
flow and whole solves.

First, one ``network`` line each for simple5, eulv117 and the two-bus
feeder digests the network's compiled arrays (its bus ids and the
``bus_*``, ``line_*``, ``demand`` and ``gen_*`` arrays), and then one
``line_y`` line each digests the stacked series admittances of its lines
alone.  Each
problem built for the evaluations and the whole solves below first gets
one ``layout`` line: digests of its ``idx_*`` variable indices, its
generator boxes, the ``describe()`` strings of its equality and inequality
tags in row order, and the ``indices`` and ``indptr`` of its three
derivative layouts (the ``kkt`` line's problems repeat solved ones and get
none).  For simple5 (none, soft on f, soft on VUF, hard) and eulv117 (none,
soft, hard) the script evaluates ``eval_eq``, ``eval_ineq`` and
``hess_lagrangian`` at the flat start, the power-flow warm start and a
seeded perturbed point, with seeded multipliers of which about a third are
exactly zero.  It then digests
the ``solve_pf`` voltages of both feeders, four simple5
``perturb_and_resolve`` re-solves (1, 3, 3 and 4 Newton steps) and the
closed-form and finite-difference columns of the sensitivity reports of
both feeders on their VUF buses (every non-slack bus of simple5, whose
Jacobian LAPACK factors, and 15 eulv117 buses, whose Jacobian SuperLU
factors) and of eulv117's default report over all 116 non-slack buses
(what ``vudlmp sens eulv117`` writes, and the largest re-solve batch).
Then it runs whole interior-point solves (simple5 none, soft on f, soft
on f at weight 0 (no objective Hessian), soft on VUF, hard 1.1 % (a slack
limit), hard 1 % and hard 0.5 %; eulv117 none, soft 3.0 and
hard 0.5 %, all on the sparse KKT path; the two-bus feeder of the tests
cold-started, and at a 1e-4 % hard limit that ends infeasible; simple5 none
and eulv117 none cold-started, since only a cold start puts exact zeros on
the solver's patterns: the flat start's inequality Jacobian holds 40 on
simple5 and 928 on eulv117, and the first eulv117 KKT matrix 902 in its W
block) and prints
each one's status, iteration count, message, the ``repr`` of its objective
and residuals, and digests of its primal and dual iterates and of its
``decompose`` rows.  Last, one ``kkt`` line digests every matrix handed to
SuperLU in the eulv117 hard 0.5 % solve (the stand-in its one ordering is
taken from, then the permuted ``P K P'`` of every factorization) and to
LAPACK ``dsytrf`` in the simple5 soft-f and hard 1 % solves (the latter with the three-term
``J' diag(sigma) J`` entries and the VUF Hessian blocks).  The last line
gives each whole solve's ``max_vuf()``: the bus and the ``float.hex`` of its
VUF.  Each digest is a prefix of the SHA-256 of the raw
bytes (values, ``indices``, ``indptr`` and their dtypes) of one vector or
matrix.  The script pins OpenBLAS, OpenMP and MKL to one thread before
numpy loads (the eulv117 power flow's dense LU rounds by thread count), so
the outputs of two checkouts can be diffed as they are, to show that a
change to the assembly, the power flow or the solver leaves every bit in
place:

    PYTHONPATH=src python scripts/opf_eval_digest.py > digests.txt
"""

import contextlib
import hashlib
import os

# set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy.linalg.lapack  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

from vudlmp import (  # noqa: E402
    BusSpec,
    GenSpec,
    LineSpec,
    LoadSpec,
    NetworkSpec,
    SolverSettings,
    UnbalanceConfig,
    build_problem,
    bundled_network,
    decompose,
    load_network,
    perturb_and_resolve,
    sensitivity_report,
    solve,
    solve_pf,
)

CASES = (
    ("simple5", "none", UnbalanceConfig("none"), "f"),
    ("simple5", "soft-f", UnbalanceConfig("soft", 0.0, 2.5), "f"),
    ("simple5", "soft-vuf", UnbalanceConfig("soft", 0.0, 2.5), "vuf"),
    ("simple5", "hard", UnbalanceConfig("hard", 1.0), "f"),
    ("eulv117", "none", UnbalanceConfig("none"), "f"),
    ("eulv117", "soft", UnbalanceConfig("soft", 0.0, 3.0), "f"),
    ("eulv117", "hard", UnbalanceConfig("hard", 0.5), "f"),
)

SOLVES = (
    ("simple5", "none", UnbalanceConfig("none"), "f"),
    ("simple5", "soft-f", UnbalanceConfig("soft", 0.0, 2.5), "f"),
    ("simple5", "soft-f-0.0", UnbalanceConfig("soft", 0.0, 0.0), "f"),
    ("simple5", "soft-vuf", UnbalanceConfig("soft", 0.0, 2.5), "vuf"),
    ("simple5", "hard-1.1", UnbalanceConfig("hard", 1.1), "f"),
    ("simple5", "hard-1.0", UnbalanceConfig("hard", 1.0), "f"),
    ("simple5", "hard-0.5", UnbalanceConfig("hard", 0.5), "f"),
    ("eulv117", "none", UnbalanceConfig("none"), "f"),
    ("eulv117", "soft-3.0", UnbalanceConfig("soft", 0.0, 3.0), "f"),
    ("eulv117", "hard-0.5", UnbalanceConfig("hard", 0.5), "f"),
)

# the compiled arrays of a network
COMPILED = ("bus_vmin", "bus_vmax", "line_from", "line_to", "line_y", "line_rating", "demand",
            "gen_bus", "gen_box", "gen_cost")

# simple5 consumption steps at b4 phase a: 1, 3, 3 and 4 Newton steps
PERTURBATIONS = (1e-5, 0.02, 0.05, 0.3)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def sparse_digest(m):
    return digest(m.data, m.indices, m.indptr, np.asarray(m.shape))


def multipliers(rng, n, positive=False):
    m = rng.standard_normal(n)
    if positive:
        m = np.abs(m)
    m[rng.random(n) < 0.3] = 0.0
    return m


def print_layout_digest(name, label, prob):
    """One ``layout`` line: the variable indices, the generator boxes, the
    constraint tags in row order and the three derivative layouts."""
    def text(tags):
        return np.frombuffer("\n".join(t.describe() for t in tags).encode(), np.uint8)
    idx = (prob.idx_e, prob.idx_f, prob.idx_pg, prob.idx_qg, prob.idx_p, prob.idx_q)
    layouts = (prob.jac_eq_layout, prob.jac_ineq_layout, prob.hess_layout)
    print(f"{name} {label} layout nvar={prob.nvar} n_eq={prob.n_eq} n_ineq={prob.n_ineq}"
          f" idx={digest(*idx)}"
          f" gen_boxes={digest(prob.gen_pmin, prob.gen_pmax, prob.gen_qmin, prob.gen_qmax)}"
          f" eq_tags={digest(text(prob.eq_tags))} ineq_tags={digest(text(prob.ineq_tags))}"
          f" csr={digest(*(a for lay in layouts for a in (lay.indices, lay.indptr)))}")


def print_network_digests():
    nets = (("simple5", load_network(bundled_network("simple5"))),
            ("eulv117", load_network(bundled_network("eulv117"))),
            ("two-bus", two_bus()))
    for name, net in nets:
        ids = np.frombuffer("\n".join(net.bus_ids).encode(), np.uint8)
        print(f"{name} network buses={len(net.buses)} loads={len(net.loads)}"
              f" gens={len(net.gens)} substation_gen={net.substation_gen}"
              f" digest={digest(ids, *(getattr(net, attr) for attr in COMPILED))}")
    for name, net in nets:
        print(f"{name} line_y lines={len(net.lines)} digest={digest(net.line_y)}")


def print_opf_digests():
    for name, label, cfg, penalty_on in CASES:
        net = load_network(bundled_network(name))
        prob = build_problem(net, cfg, penalty_on=penalty_on)
        print_layout_digest(name, label, prob)
        rng = np.random.default_rng(2024)
        warm = prob.x0(solve_pf(net))
        points = (("flat", prob.x0()), ("warm", warm),
                  ("perturbed", warm + 0.02 * rng.standard_normal(prob.nvar)))
        for where, x in points:
            y = multipliers(rng, prob.n_eq)
            z = multipliers(rng, prob.n_ineq, positive=True)
            c_eq, j_eq = prob.eval_eq(x)
            c_ineq, j_ineq = prob.eval_ineq(x)
            print(f"{name} {label} {where}"
                  f" c_eq={digest(c_eq)} jac_eq={sparse_digest(j_eq)}"
                  f" c_ineq={digest(c_ineq)} jac_ineq={sparse_digest(j_ineq)}"
                  f" c_eq_nojac={digest(prob.eval_eq(x, want_jac=False)[0])}"
                  f" c_ineq_nojac={digest(prob.eval_ineq(x, want_jac=False)[0])}"
                  f" hess={sparse_digest(prob.hess_lagrangian(x, y, z))}"
                  f" hess_zero={sparse_digest(prob.hess_lagrangian(x, 0 * y, 0 * z))}")


def column(entries, name):
    return np.array([np.nan if getattr(e, name) is None else getattr(e, name)
                     for e in entries])


def print_pf_digests():
    points = {}
    for name in ("simple5", "eulv117"):
        net = load_network(bundled_network(name))
        points[name] = point = solve_pf(net)
        print(f"{name} solve_pf iterations={point.iterations}"
              f" voltages={digest(point.voltages)}")
    base = points["simple5"]
    for dp in PERTURBATIONS:
        point, df = perturb_and_resolve(base.net, None, "b4", 0, dp=dp, base=base)
        print(f"simple5 perturb_and_resolve b4 a dp={dp} iterations={point.iterations}"
              f" voltages={digest(point.voltages)} delta_f={float(df)!r}")
    # each feeder on its VUF buses, then eulv117 on every non-slack bus
    for name, label in (("simple5", ""), ("eulv117", ""), ("eulv117", " buses=all")):
        base = points[name]
        buses = None if label else list(base.net.unbalance.buses)
        entries = sensitivity_report(base.net, base, buses=buses)
        print(f"{name} sensitivity_report{label} entries={len(entries)}"
              f" closed_form={digest(column(entries, 'closed_form'))}"
              f" finite_difference={digest(column(entries, 'finite_difference'))}"
              f" rel_gap={digest(column(entries, 'rel_gap'))}")


def two_bus():
    """The two-bus feeder of tests/conftest.py: substation -> one loaded bus."""
    z = np.full((3, 3), 0.004 + 0.008j, dtype=complex)
    np.fill_diagonal(z, 0.025 + 0.016j)
    return NetworkSpec(
        base_kva=50.0,
        base_volt_ln=230.0,
        buses=(BusSpec("sub"), BusSpec("load", vmin=0.85)),
        lines=(LineSpec("sub", "load", z, s_rating=2.0),),
        loads=(LoadSpec("load", p=np.array([0.36, 0.10, 0.24]),
                        q=np.array([0.12, 0.03, 0.08])),),
        gens=(GenSpec("sub", ("a", "b", "c"),
                      pmin=np.zeros(3), pmax=np.full(3, 4.0),
                      qmin=np.full(3, -4.0), qmax=np.full(3, 4.0),
                      marginal_cost=1.0, is_substation=True),),
        substation_bus="sub",
    )


def print_solve_digest(name, label, sol):
    rows = decompose(sol) if sol.success else []
    keys = "|".join(f"{d.bus},{d.phase},{d.power_kind}" for d in rows).encode()
    values = np.array([[d.total, d.energy, d.loss, d.congestion, d.voltage_limit,
                        d.unbalance] for d in rows])
    print(f"{name} solve {label} status={sol.status} iterations={sol.iterations}"
          f" iterates={digest(sol.x, sol.y_eq, sol.z_ineq, sol.slacks)}"
          f" objective={sol.objective!r}"
          f" residuals={ {k: float(v) for k, v in sol.residuals.items()}!r}"
          f" message={sol.message!r}"
          f" decompose={len(rows)}:{digest(np.frombuffer(keys, np.uint8), values)}")
    bus, worst = sol.max_vuf()
    return f"{name}/{label}={bus}:{float.hex(float(worst))}"


def print_solve_digests():
    """Print every whole solve's digest line; return each one's highest VUF
    entry."""
    worst = []
    for name, label, cfg, penalty_on in SOLVES:
        net = load_network(bundled_network(name))
        prob = build_problem(net, cfg, penalty_on=penalty_on)
        print_layout_digest(name, label, prob)
        worst.append(print_solve_digest(name, label, solve(prob, warm=solve_pf(net))))
    net = two_bus()
    cold = build_problem(net)
    print_layout_digest("two-bus", "cold", cold)
    worst.append(print_solve_digest("two-bus", "cold", solve(cold)))
    infeasible = build_problem(net, UnbalanceConfig("hard", 1e-4, buses=("load",)))
    print_layout_digest("two-bus", "hard-1e-4", infeasible)
    worst.append(print_solve_digest("two-bus", "hard-1e-4",
                                    solve(infeasible, settings=SolverSettings(max_iter=80))))
    for name in ("simple5", "eulv117"):
        cold = build_problem(load_network(bundled_network(name)), UnbalanceConfig("none"))
        print_layout_digest(name, "none-cold", cold)
        worst.append(print_solve_digest(name, "none-cold", solve(cold)))
    return worst


@contextlib.contextmanager
def recording(module, name, digest_of, log):
    """Digest every first argument passed to ``module.name`` into ``log``."""
    real = getattr(module, name)

    def record(a, *args, **kwargs):
        log.append(digest_of(a))
        return real(a, *args, **kwargs)
    setattr(module, name, record)
    try:
        yield
    finally:
        setattr(module, name, real)


def print_kkt_digest():
    """Digests of every KKT matrix the solver factors, in call order."""
    splu, soft, hard = [], [], []
    net = load_network(bundled_network("eulv117"))
    warm = solve_pf(net)        # outside: the power flow factors by splu too
    with recording(scipy.sparse.linalg, "splu", sparse_digest, splu):
        solve(build_problem(net, UnbalanceConfig("hard", 0.5)), warm=warm)
    net = load_network(bundled_network("simple5"))
    for cfg, log in ((UnbalanceConfig("soft", 0.0, 2.5), soft),
                     (UnbalanceConfig("hard", 1.0), hard)):
        with recording(scipy.linalg.lapack, "dsytrf", digest, log):
            solve(build_problem(net, cfg), warm=solve_pf(net))

    def joined(log):
        return f"{len(log)}:{digest(np.frombuffer(''.join(log).encode(), np.uint8))}"
    print(f"kkt eulv117 hard-0.5 splu={joined(splu)} simple5 soft-f dsytrf={joined(soft)}"
          f" simple5 hard-1.0 dsytrf={joined(hard)}")


def main():
    print_network_digests()
    print_opf_digests()
    print_pf_digests()
    worst = print_solve_digests()
    print_kkt_digest()
    print("max_vuf " + " ".join(worst))


if __name__ == "__main__":
    main()
