"""Unbalance-aware three-phase OPF and distribution locational marginal prices."""

from importlib import resources

from .netmodel import (
    BusSpec,
    GenSpec,
    LineSpec,
    LoadSpec,
    NetworkSpec,
    ParseError,
    UnbalanceConfig,
    ValidationError,
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from .sequence import (
    DegeneratePointError,
    f_metric,
    fortescue,
    grad_f,
    vuf,
)
from .powerflow import (
    OperatingPoint,
    PowerFlowDiverged,
    perturb_and_resolve,
    solve_pf,
)
from .opf import ConstraintTag, OpfProblem, build_problem
from .ipsolver import OpfSolution, SolverSettings, solve
from .dlmp import DlmpBreakdown, SensitivityReport, decompose, sensitivity_closed_form, sensitivity_report

__version__ = "0.1.0"


def bundled_network(name):
    """Path to a bundled benchmark network ('simple5' or 'eulv117')."""
    return resources.files("vudlmp.data") / f"{name}.net.json"
