"""Print digests of the OPF evaluation at seeded points.

For simple5 (none, soft on f, soft on VUF, hard) and eulv117 (none, soft,
hard) this evaluates ``eval_eq``, ``eval_ineq`` and ``hess_lagrangian`` at
the flat start, the power-flow warm start and a seeded perturbed point, with
seeded multipliers of which about a third are exactly zero.  Each output
line is the SHA-256 of the raw bytes (values, ``indices``, ``indptr`` and
their dtypes) of one vector or matrix.  Run it on two checkouts and diff the
outputs to show that a change to the assembly leaves every bit in place:

    PYTHONPATH=src python scripts/opf_eval_digest.py > digests.txt
"""

import hashlib

import numpy as np

from vudlmp import UnbalanceConfig, build_problem, bundled_network, load_network, solve_pf

CASES = (
    ("simple5", "none", UnbalanceConfig("none"), "f"),
    ("simple5", "soft-f", UnbalanceConfig("soft", 0.0, 2.5), "f"),
    ("simple5", "soft-vuf", UnbalanceConfig("soft", 0.0, 2.5), "vuf"),
    ("simple5", "hard", UnbalanceConfig("hard", 1.0), "f"),
    ("eulv117", "none", UnbalanceConfig("none"), "f"),
    ("eulv117", "soft", UnbalanceConfig("soft", 0.0, 3.0), "f"),
    ("eulv117", "hard", UnbalanceConfig("hard", 0.5), "f"),
)


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


def main():
    for name, label, cfg, penalty_on in CASES:
        net = load_network(bundled_network(name))
        prob = build_problem(net, cfg, penalty_on=penalty_on)
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


if __name__ == "__main__":
    main()
