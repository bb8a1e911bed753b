"""The benchmark's workloads: seeded inputs and one timed pass each.

Every workload drives vudlmp's public API the way a user does, through
``vudlmp.cli.main`` or the module functions, and looks each function up on
its module at call time so the traced run sees every call.  A pass returns
the operations it attempted; ``checks`` decides which of them failed.

Why these workloads (the same sentences are the ``why`` in BENCHMARK.json):

* feeder-hard: eulv117 with a binding 0.5 % hard VUF limit on the sparse KKT
  path; DLMP decomposition outweighs the 34-43 iteration solve, so an
  iteration-count change should barely move it.
* feeder-sens: eulv117 unbalance sensitivities on the 15 VUF buses; power
  flow takes about 90 % and the OPF and solver are idle, so an assembly or
  solver gain must read flat here.
* small-sweep: simple5 soft and hard sweeps through the CLI; small NLPs on
  the dense Bunch-Kaufman path where per-call fixed costs (network reload,
  build_problem, CSV emission) are a large share.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vudlmp
from vudlmp import cli, dlmp, netmodel, powerflow

LOAD_BAND = 0.05        # seeded loads are scaled by a factor in [0.95, 1.05]
HARD_LIMIT_PCT = 0.5    # binds on eulv117 (max VUF 0.4999996 % at n100)
SWEEP_WEIGHTS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
SWEEP_LIMITS = (0.5, 0.7, 0.9, 1.1)


def write_network(name, seed, path):
    """Write the workload's network: bundled feeder, loads scaled by the seed.

    Seed 0 copies the bundled feeder byte for byte.  Any other seed scales
    each load's P and Q by one factor drawn from ``default_rng(seed)`` in
    ``1 +- LOAD_BAND``, so power factors are kept.
    """
    src = vudlmp.bundled_network(name)
    if seed == 0:
        shutil.copyfile(src, path)
        return path
    doc = json.loads(src.read_text())
    rng = np.random.default_rng(seed)
    for load in doc["loads"]:
        f = rng.uniform(1.0 - LOAD_BAND, 1.0 + LOAD_BAND)
        load["p"] = [f * v for v in load["p"]]
        load["q"] = [f * v for v in load["q"]]
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    return path


@dataclass
class Scenario:
    """One OPF scenario as the CLI ran it (solve plus decompose)."""
    case_id: str
    mode: str
    limit_pct: float
    result: object = None       # cli.ScenarioResult
    solution: object = None     # ipsolver.OpfSolution


@dataclass
class PassOutput:
    scenarios: list = field(default_factory=list)
    sensitivity: list | None = None     # dlmp.SensitivityReport entries
    expected_ops: int = 0
    error: str = ""


class ScenarioCapture:
    """Keeps each scenario's config, result and solution as the CLI runs it.

    Installed once per process on ``vudlmp.cli`` so the checks can recompute
    KKT residuals from the solutions the CLI does not return.
    """

    def __init__(self):
        self.scenarios = []
        self._real_run = cli.run_scenario
        self._real_solve = cli.solve

        def run_scenario(cfg):
            sc = Scenario(cfg.case_id, cfg.mode, cfg.limit_pct)
            self.scenarios.append(sc)
            sc.result = self._real_run(cfg)
            return sc.result

        def solve(prob, *args, **kwargs):
            sol = self._real_solve(prob, *args, **kwargs)
            self.scenarios[-1].solution = sol
            return sol

        run_scenario.__wrapped__ = self._real_run
        solve.__wrapped__ = self._real_solve
        cli.run_scenario = run_scenario
        cli.solve = solve

    def take(self):
        out, self.scenarios = self.scenarios, []
        return out

    def close(self):
        cli.run_scenario = self._real_run
        cli.solve = self._real_solve


def _cli(argv):
    """Run the CLI in-process, its stdout discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class FeederHard:
    name = "feeder-hard"

    def prepare(self, workdir, seed):
        self.net = str(write_network("eulv117", seed, workdir / "eulv117.net.json"))
        self.capture = ScenarioCapture()

    def warm_up(self):
        powerflow.solve_pf(netmodel.load_network(self.net))

    def run_pass(self, outdir):
        out = PassOutput(expected_ops=1)
        argv = ["opf", self.net, "--mode", "hard", "--limit", str(HARD_LIMIT_PCT),
                "--out", str(outdir), "--case-id", "hard"]
        try:
            _cli(argv)
        except Exception as exc:       # an operation that raises is a failure
            out.error = f"{type(exc).__name__}: {exc}"
        out.scenarios = self.capture.take()
        return out


class FeederSens:
    name = "feeder-sens"

    def prepare(self, workdir, seed):
        self.net = str(write_network("eulv117", seed, workdir / "eulv117.net.json"))

    def warm_up(self):
        powerflow.solve_pf(netmodel.load_network(self.net))

    def run_pass(self, outdir):
        net = netmodel.load_network(self.net)
        buses = list(net.unbalance.buses)
        out = PassOutput(expected_ops=6 * len(buses), sensitivity=[])
        try:
            point = powerflow.solve_pf(net)
            out.sensitivity = dlmp.sensitivity_report(net, point, buses=buses)
            outdir.mkdir(parents=True, exist_ok=True)
            cli.write_sensitivity(out.sensitivity, outdir / "sensitivity.csv")
        except Exception as exc:       # an operation that raises is a failure
            out.error = f"{type(exc).__name__}: {exc}"
        return out


class SmallSweep:
    name = "small-sweep"

    def prepare(self, workdir, seed):
        self.net = str(write_network("simple5", seed, workdir / "simple5.net.json"))
        self.workdir = workdir
        self.capture = ScenarioCapture()

    def warm_up(self):
        powerflow.solve_pf(netmodel.load_network(self.net))

    def _config(self, outdir, mode):
        doc = {"network": self.net, "mode": mode, "case_id": mode,
               "outdir": str(outdir / mode)}
        if mode == "soft":
            doc["sweep_weights"] = list(SWEEP_WEIGHTS)
        else:
            doc["sweep_limits"] = list(SWEEP_LIMITS)
        path = self.workdir / f"sweep-{mode}.json"
        path.write_text(json.dumps(doc) + "\n")
        return str(path)

    def run_pass(self, outdir):
        out = PassOutput(expected_ops=len(SWEEP_WEIGHTS) + len(SWEEP_LIMITS))
        configs = [self._config(outdir, mode) for mode in ("soft", "hard")]
        for cfg in configs:
            try:
                _cli(["sweep", cfg, "--jobs", "1"])
            except Exception as exc:   # an operation that raises is a failure
                out.error = f"{type(exc).__name__}: {exc}"
        out.scenarios = self.capture.take()
        return out


WORKLOADS = {w.name: w for w in (FeederHard, FeederSens, SmallSweep)}
