"""The interior-point solution against a reference optimum computed from
the problem's function values alone.

scipy's SLSQP minimizes ``objective_value`` subject to ``eval_eq`` and
``eval_ineq`` (values only), with its own finite-difference gradients,
from the solver's warm start.  The two share the model, which criteria
01-03 and the power-flow tests check, but none of the solver's
derivatives, row scaling, multiplier unscaling or stopping rule.  SLSQP
stalls at finite-difference precision and ends with status 8 on the
simple5 cases, so its ``success`` is not required.

Each bound is ten times the gap measured with one BLAS thread, given
beside it: the objective gap relative to the solver's objective, and the
largest gap of an active or reactive balance multiplier over ``base_kw``
(a total price, in EUR/kWh).  The solver's objective was the lower one in
every simple5 case, within its feasibility tolerance.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

CASES = [
    # feeder, scenario, objective bound (measured), price bound (measured)
    ("simple5", {"mode": "none"}, 4e-7, 7e-6),                          # 3.9e-8, 7.0e-7
    ("simple5", {"mode": "soft", "penalty": 1.5}, 5e-7, 1.2e-5),        # 4.4e-8, 1.19e-6
    ("simple5", {"mode": "soft", "penalty": 30.0}, 5e-7, 4.3e-4),       # 4.5e-8, 4.26e-5
    ("simple5", {"mode": "hard", "limit": 0.5}, 5e-7, 5.7e-6),          # 4.3e-8, 5.65e-7
    ("simple5", {"mode": "hard", "limit": 1.0}, 4e-7, 1.3e-5),          # 3.9e-8, 1.23e-6
    ("simple5", {"mode": "soft", "penalty": 1.5, "penalty_on": "vuf"},
     5e-7, 6.2e-3),                                                     # 4.5e-8, 6.19e-4
    ("two_bus", {"mode": "none"}, 1e-13, 3.8e-7),                       # 3.2e-15, 3.74e-8
]


def reference_optimum(prob, warm):
    return minimize(
        prob.objective_value, prob.x0(warm), method="SLSQP",
        constraints=[{"type": "eq", "fun": lambda x: prob.eval_eq(x, want_jac=False)[0]},
                     {"type": "ineq", "fun": lambda x: -prob.eval_ineq(x, want_jac=False)[0]}],
        options={"maxiter": 2000, "ftol": 1e-13})


@pytest.mark.parametrize("feeder, scenario, obj_bound, price_bound", CASES,
                         ids=["simple5-none", "simple5-soft-1.5", "simple5-soft-30",
                              "simple5-hard-0.5", "simple5-hard-1.0", "simple5-soft-vuf-1.5",
                              "two-bus-none"])
def test_solution_is_the_reference_optimum(request, feeder, scenario, obj_bound, price_bound):
    sol = request.getfixturevalue(f"{feeder}_solve")(**scenario)
    assert sol.success, sol.message
    prob = sol.problem
    res = reference_optimum(prob, request.getfixturevalue(f"{feeder}_pf"))
    assert abs(res.fun - sol.objective) <= obj_bound * abs(sol.objective)
    # SLSQP's Lagrangian is f - lambda'c, the solver's f + y'c
    ref = prob.by_family(-res.multipliers[:prob.n_eq])
    got = prob.by_family(sol.y_eq)
    for family in ("p_balance", "q_balance"):
        gap = np.max(np.abs(got[family] - ref[family])) / prob.net.base_kw
        assert gap <= price_bound, (family, gap)
