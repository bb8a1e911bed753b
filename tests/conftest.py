"""Shared fixtures: small synthetic networks and cached expensive solves."""

import numpy as np
import pytest

from vudlmp import (
    BusSpec,
    GenSpec,
    LineSpec,
    LoadSpec,
    NetworkSpec,
    UnbalanceConfig,
    bundled_network,
    build_problem,
    load_network,
    solve,
    solve_pf,
)
from vudlmp.sequence import ALPHA


def make_two_bus(unbalance=None):
    """Minimal feeder: substation -> one loaded bus over a mutual-coupled line."""
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
        unbalance=unbalance or UnbalanceConfig(),
    )


def balanced_set(magnitude=1.0, angle=0.0):
    """The balanced phases a, b, c of one bus: phase a at ``magnitude`` and
    ``angle``, b and c turned by ALPHA**2 and ALPHA."""
    rot = magnitude * np.exp(1j * angle)
    return np.array([rot, rot * ALPHA**2, rot * ALPHA])


def psi_at(sol, bus):
    """The hard VUF-limit multiplier of ``bus`` in ``sol``, read by family."""
    psi = sol.problem.by_family(ineq=sol.z_ineq)["vuf_limit"]
    return psi[sol.problem.vuf_buses.index(bus)]


@pytest.fixture(scope="session")
def two_bus():
    return make_two_bus()


@pytest.fixture(scope="session")
def two_bus_pf(two_bus):
    return solve_pf(two_bus)


@pytest.fixture(scope="session")
def simple5():
    return load_network(bundled_network("simple5"))


@pytest.fixture(scope="session")
def simple5_pf(simple5):
    return solve_pf(simple5)


@pytest.fixture(scope="session")
def eulv117():
    return load_network(bundled_network("eulv117"))


class SolveCache:
    """Solve each (mode, value) scenario on a feeder at most once per session."""

    def __init__(self, net, warm):
        self.net = net
        self.warm = warm
        self._done = {}

    def __call__(self, mode="none", limit=1.0, penalty=0.0, penalty_on="f"):
        key = (mode, limit, penalty, penalty_on)
        if key not in self._done:
            cfg = UnbalanceConfig(
                mode=mode,
                vuf_limit_pct=limit if mode == "hard" else 0.0,
                penalty_weight=penalty if mode == "soft" else 0.0,
                buses=self.net.unbalance.buses,
            )
            prob = build_problem(self.net, cfg, penalty_on=penalty_on)
            self._done[key] = solve(prob, warm=self.warm)
        return self._done[key]


@pytest.fixture(scope="session")
def simple5_solve(simple5, simple5_pf):
    return SolveCache(simple5, simple5_pf)


@pytest.fixture(scope="session")
def eulv117_solve(eulv117):
    return SolveCache(eulv117, solve_pf(eulv117))


@pytest.fixture(scope="session")
def two_bus_solve(two_bus, two_bus_pf):
    return SolveCache(two_bus, two_bus_pf)
