"""Command-line tests: exit codes, file contracts, byte determinism."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from vudlmp import cli, ipsolver
from vudlmp.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    SUMMARY_COLUMNS,
    ConfigError,
    ScenarioConfig,
    main,
    run_scenario,
)
from vudlmp.netmodel import network_to_dict, save_network
from vudlmp.powerflow import PowerFlowDiverged, SingularJacobian, solve_pf
from conftest import make_two_bus


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def mask_wall_ms(path):
    """Summary bytes with the timing column blanked for determinism checks."""
    text = Path(path).read_bytes().decode("utf-8")
    return re.sub(r",[0-9.]+$", ",<ms>", text, flags=re.M)


@pytest.fixture()
def two_bus_file(tmp_path):
    path = tmp_path / "twobus.json"
    save_network(make_two_bus(), path)
    return str(path)


class TestExitCodes:
    def test_pf_success(self, two_bus_file, capsys):
        assert main(["pf", two_bus_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "VUF" in out and "losses" in out

    def test_missing_network_is_config_error(self, capsys):
        assert main(["pf", "no-such-network"]) == EXIT_CONFIG

    def test_unknown_subcommand_is_config_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_bad_flag_is_config_error(self, two_bus_file, capsys):
        assert main(["opf", two_bus_file, "--mode", "medium"]) == EXIT_CONFIG

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # an unservable load makes the OPF infeasible
        net = make_two_bus()
        doc_path = tmp_path / "heavy.json"
        hopeless = net.with_extra_load("load", "a", dp=500.0)
        save_network(hopeless, doc_path)
        code = main(["opf", str(doc_path), "--mode", "none",
                     "--out", str(tmp_path / "out"), "--max-iter", "60"])
        assert code == EXIT_SOLVER
        _, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert rows[0]["status"] == "infeasible-or-nonconverged"

    def test_infeasible_hard_limit_names_the_row(self, two_bus_file, tmp_path, capsys):
        code = main(["opf", two_bus_file, "--mode", "hard", "--limit", "1e-4",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert re.search(r"worst feasibility residual [0-9.e+-]+ at vuf_limit bus load", err), err
        _, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert rows[0]["status"] == "infeasible-or-nonconverged"

    def test_infeasible_hard_limit_on_the_large_feeder(self, tmp_path, capsys):
        code = main(["opf", "eulv117", "--mode", "hard", "--limit", "1e-4",
                     "--max-iter", "60", "--out", str(tmp_path / "out")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "hard voltage-unbalance limits violated at the final iterate" in err, err
        assert "worst feasibility residual" in err, err
        _, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert rows[0]["status"] == "infeasible-or-nonconverged"

    def test_kkt_solve_failure_exit_code(self, two_bus_file, tmp_path, monkeypatch,
                                         capsys):
        def broken(self, rhs):
            raise scipy.linalg.LinAlgError("dsytrs failed")
        monkeypatch.setattr(ipsolver._KktSystem, "solve", broken)
        code = main(["opf", two_bus_file, "--out", str(tmp_path / "out")])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "KKT solve failed: dsytrs failed" in err
        assert "Traceback" not in err


class TestOpfOutputs:
    def test_summary_columns_exact(self, two_bus_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["opf", two_bus_file, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "summary.csv")
        assert tuple(header) == SUMMARY_COLUMNS
        assert rows[0]["status"] == "success"
        assert rows[0]["vuf_bus"] == "load"
        assert float(rows[0]["total_gen_cost_eur"]) > 0

    def test_dlmp_files_cover_both_kinds(self, two_bus_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["opf", two_bus_file, "--out", str(out)])
        for fname in ("dlmp_active.csv", "dlmp_reactive.csv"):
            header, rows = read_csv(out / fname)
            assert header[:3] == ["case_id", "bus", "phase"]
            assert len(rows) == 6        # 2 buses x 3 phases

    def test_decomposition_sums_in_emitted_files(self, two_bus_file, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        main(["opf", two_bus_file, "--out", str(out)])
        _, rows = read_csv(out / "dlmp_active.csv")
        for r in rows:
            total = float(r["total"])
            parts = sum(float(r[c]) for c in
                        ("energy", "loss", "congestion", "voltage_limit",
                         "unbalance"))
            assert abs(total - parts) < 1e-6

    def test_plot_data_long_format(self, two_bus_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["opf", two_bus_file, "--case-id", "demo", "--out", str(out)])
        header, rows = read_csv(out / "dlmp_long_demo.csv")
        assert "component" in header
        comps = {r["component"] for r in rows}
        assert comps == {"total", "energy", "loss", "congestion",
                         "voltage_limit", "unbalance"}

    def test_unit_footer_is_emitted(self, two_bus_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["opf", two_bus_file, "--out", str(out)])
        text = (out / "report_footer.txt").read_text()
        assert "EUR/kWh" in text and "decomposition convention" in text

    def test_lf_line_endings_and_utf8(self, two_bus_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(["opf", two_bus_file, "--out", str(out)])
        raw = (out / "summary.csv").read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")

    def test_byte_determinism_modulo_timing(self, two_bus_file, tmp_path,
                                            capsys):
        outs = []
        for k in range(2):
            out = tmp_path / f"out{k}"
            assert main(["opf", two_bus_file, "--mode", "soft", "--penalty",
                         "1.5", "--out", str(out)]) == EXIT_OK
            outs.append(out)
        assert mask_wall_ms(outs[0] / "summary.csv") == \
            mask_wall_ms(outs[1] / "summary.csv")
        assert (outs[0] / "dlmp_active.csv").read_bytes() == \
            (outs[1] / "dlmp_active.csv").read_bytes()

    def test_sensitivity_flag_writes_report(self, two_bus_file, tmp_path,
                                            capsys):
        out = tmp_path / "out"
        main(["opf", two_bus_file, "--sensitivity", "--out", str(out)])
        header, rows = read_csv(out / "sensitivity.csv")
        assert "closed_form" in header
        assert rows

    def test_fields_with_commas_are_quoted(self, tmp_path, capsys):
        doc = json.dumps(network_to_dict(make_two_bus())).replace('"load"', '"load,1"')
        path = tmp_path / "comma.json"
        path.write_text(doc)
        out = tmp_path / "out"
        assert main(["opf", str(path), "--case-id", "a,b", "--out", str(out)]) == EXIT_OK
        for fname, width in (("summary.csv", len(SUMMARY_COLUMNS)), ("dlmp_active.csv", 9)):
            with open(out / fname, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert len(header) == width and rows
            assert all(len(r) == width and r[0] == "a,b" for r in rows)
        assert rows[-1][1] == "load,1"
        assert (out / "summary.csv").read_bytes().startswith(
            b"case_id,total_gen_cost_eur,total_losses_kw,highest_vuf_pct,vuf_bus,"
            b"status,wall_ms\n\"a,b\",")

    def test_case_id_with_path_separator_is_config_error(self, two_bus_file, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        assert main(["opf", two_bus_file, "--case-id", "a/b", "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "case_id" in err and "Traceback" not in err
        assert not out.exists()

    def test_case_id_with_carriage_return_is_config_error(self, two_bus_file, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        assert main(["opf", two_bus_file, "--case-id", "r\rs", "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "carriage return" in err
        assert not out.exists()

    def test_bus_id_with_carriage_return_is_config_error(self, tmp_path, capsys):
        doc = json.dumps(network_to_dict(make_two_bus())).replace('"load"', '"load\\r1"')
        path = tmp_path / "cr.json"
        path.write_text(doc)
        assert main(["opf", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "carriage return" in capsys.readouterr().err


class TestSweep:
    def sweep_config(self, tmp_path, network_file, **extra):
        tmp_path.mkdir(parents=True, exist_ok=True)
        doc = {"network": network_file, "mode": "soft",
               "sweep_weights": [0.0, 1.0, 2.0],
               "outdir": str(tmp_path / "out"), "case_id": "sw", "jobs": 1}
        doc.update(extra)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_sweep_runs_and_orders_results(self, two_bus_file, tmp_path,
                                           capsys):
        cfg = self.sweep_config(tmp_path, two_bus_file)
        assert main(["sweep", cfg]) == EXIT_OK
        header, rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert header[0] == "weight"
        assert [float(r["weight"]) for r in rows] == [0.0, 1.0, 2.0]
        assert all(r["status"] == "success" for r in rows)

    def test_sweep_empty_list_is_config_error(self, two_bus_file, tmp_path,
                                              capsys):
        cfg = self.sweep_config(tmp_path, two_bus_file, sweep_weights=[])
        assert main(["sweep", cfg]) == EXIT_CONFIG

    def test_sweep_unknown_key_is_config_error(self, two_bus_file, tmp_path,
                                               capsys):
        cfg = self.sweep_config(tmp_path, two_bus_file, typo_key=1)
        assert main(["sweep", cfg]) == EXIT_CONFIG

    @pytest.mark.parametrize("extra, statuses", [
        ({"sweep_weights": [1.0, -1.0]}, ["success", "config-error"]),
        ({"mode": "hard", "sweep_limits": [1.0, 0.0], "sweep_weights": []},
         ["success", "config-error"]),
        ({"kkt_tol": -1}, ["config-error"] * 3),
        ({"kkt_tol": "1e-6"}, ["config-error"] * 3),
        ({"max_iter": 1.5}, ["config-error"] * 3),
        ({"max_iter": True}, ["config-error"] * 3),
    ], ids=["negative-weight", "zero-limit", "negative-kkt-tol", "string-kkt-tol",
            "fractional-max-iter", "boolean-max-iter"])
    def test_sweep_bad_value_is_config_error(self, two_bus_file, tmp_path,
                                             capsys, extra, statuses):
        cfg = self.sweep_config(tmp_path, two_bus_file, **extra)
        assert main(["sweep", cfg]) == EXIT_CONFIG
        _, rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert [r["status"] for r in rows] == statuses

    @pytest.mark.parametrize("doc", [
        {"jobs": "2"},
        {"jobs": 0},
        {"sweep_weights": "ab"},
        {"sweep_weights": 5},
        [1, 2],
        {"jobs": True},
        {"sweep_weights": [1.0, True]},
        {"penalty": True},
        {"limit_pct": True},
        {"mode": "none"},
        {"sweep_limits": [1.0]},
        {"mode": "hard", "sweep_limits": [1.0]},
        {"case_id": "a/b"},
        {"case_id": "r\rs"},
        {"network": 5},
        {"outdir": 7},
        {"with_sensitivity": "no"},
    ], ids=["string-jobs", "zero-jobs", "string-weights", "scalar-weights", "list-document",
            "boolean-jobs", "boolean-weight", "boolean-penalty", "boolean-limit",
            "weights-in-none-mode", "limits-in-soft-mode", "weights-in-hard-mode",
            "case-id-path", "case-id-carriage-return", "numeric-network", "numeric-outdir",
            "string-with-sensitivity"])
    def test_sweep_malformed_config_is_config_error(self, two_bus_file, tmp_path, capsys,
                                                    doc):
        if isinstance(doc, dict):
            cfg = self.sweep_config(tmp_path, two_bus_file, **doc)
        else:
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps(doc))
        assert main(["sweep", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flags, named", [
        (["--mode", "hard", "--limit", "0"], "vuf_limit_pct"),
        (["--kkt-tol", "2"], "kkt_tol"),
        (["--max-iter", "0"], "max_iter"),
        (["--mode", "soft", "--penalty", "nan"], "penalty_weight"),
        (["--mode", "soft", "--penalty", "inf"], "penalty_weight"),
        (["--mode", "hard", "--limit", "inf"], "vuf_limit_pct"),
    ], ids=["limit-0", "kkt-tol-2", "max-iter-0", "penalty-nan", "penalty-inf", "limit-inf"])
    def test_opf_bad_value_is_config_error(self, two_bus_file, tmp_path, capsys,
                                           flags, named):
        out = tmp_path / "out"
        assert main(["opf", two_bus_file, *flags, "--out", str(out)]) == EXIT_CONFIG
        _, rows = read_csv(out / "summary.csv")
        assert rows[0]["status"] == "config-error"
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("where, value, named", [
        (("lines", 0, "z_real", 1, 1), float("inf"), "non-finite impedance"),
        (("lines", 0, "z_imag", 0, 2), float("nan"), "non-finite impedance"),
        (("lines", 2, "z_imag", 2, 2), float("-inf"), "non-finite impedance"),
        (("lines", 0, "s_rating"), float("inf"), "s_rating"),
        (("buses", 1, "vmin"), float("-inf"), "vmin must be finite"),
        (("buses", 1, "vmax"), float("inf"), "vmax"),
        (("base_kva",), float("inf"), "base_kva"),
        (("base_volt_ln",), float("inf"), "base_volt_ln"),
        (("base_kva",), float("nan"), "base_kva"),
        (("lines", 0), 5, "line entry 0: must be an object"),
        (("loads", 0), "x", "load entry 0: must be an object"),
        (("gens", 0), None, "generator entry 0: must be an object"),
        (("unbalance",), [1], "unbalance must be an object"),
        (("lines",), 5, "lines must be a list"),
        (("gens", 0, "phases"), 5, "generator entry 0: phases must be a list"),
        (("unbalance", "buses"), 5, "unbalance: buses must be a list"),
        (("lines", 0, "z_real"), [[0.1, 0, 0], [0, 0.1]], "line entry 0: "),
        (("lines", 0, "z_real"), [["x"] * 3] * 3, "line entry 0: "),
        (("loads", 0, "p"), ["a", "b", "c"], "load entry 0: "),
        (("buses", 1, "vmin"), "low", "bus entry 1: "),
        (("lines", 0, "s_rating"), None, "line entry 0: "),
    ], ids=["z-inf", "z-nan", "z-imag-inf", "s-rating-inf", "vmin-inf", "vmax-inf",
            "base-kva-inf", "base-volt-inf", "base-kva-nan", "line-not-object",
            "load-not-object", "gen-not-object", "unbalance-not-object", "lines-not-list",
            "phases-not-list", "unbalance-buses-not-list", "z-ragged", "z-not-numeric",
            "load-p-not-numeric", "vmin-not-numeric", "s-rating-null"])
    def test_opf_non_finite_network_value_is_config_error(self, simple5, tmp_path, capsys,
                                                          where, value, named):
        doc = network_to_dict(simple5)
        *outer, key = where
        entry = doc
        for k in outer:
            entry = entry[k]
        entry[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["opf", str(path), "--out", str(out)]) == EXIT_CONFIG
        _, rows = read_csv(out / "summary.csv")
        assert rows[0]["status"] == "config-error"
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    def test_sweep_keeps_with_sensitivity(self, two_bus_file, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path, two_bus_file, with_sensitivity=True)
        assert main(["sweep", cfg]) == EXIT_OK
        _, rows = read_csv(tmp_path / "out" / "sensitivity.csv")
        # one non-slack bus, 3 phases, 2 kinds, for each of the 3 cases
        assert len(rows) == 18 and all(r["closed_form"] for r in rows)

    def test_parallel_matches_serial(self, two_bus_file, tmp_path, capsys):
        cfg1 = self.sweep_config(tmp_path / "a", two_bus_file, jobs=1)
        cfg2 = self.sweep_config(tmp_path / "b", two_bus_file, jobs=2)
        assert main(["sweep", cfg1]) == EXIT_OK
        assert main(["sweep", cfg2]) == EXIT_OK
        assert mask_wall_ms(tmp_path / "a" / "out" / "sweep.csv") == \
            mask_wall_ms(tmp_path / "b" / "out" / "sweep.csv")


    def test_exception_in_one_case_is_an_error_row(self, two_bus_file, tmp_path,
                                                   capsys, monkeypatch):
        real = cli.build_problem

        def breaks_at_one(net, cfg, **kwargs):
            if cfg.penalty_weight == 1.0:
                raise TypeError("unexpected argument")
            return real(net, cfg, **kwargs)
        monkeypatch.setattr(cli, "build_problem", breaks_at_one)
        cfg = self.sweep_config(tmp_path, two_bus_file, sweep_weights=[0.0, 1.0])
        results = cli.run_sweep(ScenarioConfig.from_file(cfg))
        assert [r.message for r in results] == ["", "TypeError: unexpected argument"]
        assert main(["sweep", cfg]) == EXIT_SOLVER
        _, rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert [r["status"] for r in rows] == ["success", "error"]


class TestSens:
    def test_sens_writes_report(self, two_bus_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sens", two_bus_file, "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "sensitivity.csv")
        assert tuple(header[:3]) == ("bus", "phase", "power_kind")
        assert len(rows) == 6    # one non-slack bus, 3 phases, 2 kinds

    @pytest.mark.parametrize("step", ["0", "inf", "nan", "-0.5"])
    def test_bad_step_is_config_error(self, two_bus_file, tmp_path, capsys, step):
        out = tmp_path / "out"
        assert main(["sens", two_bus_file, "--step", step, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--step" in err and "Traceback" not in err
        assert not out.exists()

    def test_step_below_float_resolution_is_config_error(self, tmp_path, capsys):
        # 1e-300 subtracted from any simple5 load injection leaves it unchanged
        out = tmp_path / "out"
        assert main(["sens", "simple5", "--step", "1e-300", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--step" in err and err.count("\n") == 1
        assert not out.exists()

    def test_step_inside_power_flow_tolerance_is_config_error(self, tmp_path, capsys):
        # 1e-12 does move the injections, but each perturbed re-solve starts
        # with a mismatch below the power flow's tolerance and takes no step
        out = tmp_path / "out"
        assert main(["sens", "simple5", "--step", "1e-12", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--step" in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_default_step_agrees_in_sign(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sens", "simple5", "--step", "1e-5", "--out", str(out)]) == EXIT_OK
        assert "24 defined, 24/24 sign agreement" in capsys.readouterr().out
        assert (out / "sensitivity.csv").exists()

    def test_diverged_perturbation_is_a_solver_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sens", "simple5", "--step", "10", "--out", str(out)]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("power flow diverged") and "Traceback" not in err
        assert not out.exists()


class TestConfig:
    def test_scenario_config_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(network="x", mode="maybe")

    def test_run_scenario_bundled_name(self):
        res = run_scenario(ScenarioConfig(network="simple5", mode="none",
                                          case_id="bundled"))
        assert res.ok
        assert res.vuf_bus is not None


class TestSensitivityWarmStart:
    def test_power_flow_is_solved_once(self, two_bus_file, monkeypatch):
        calls = []
        solve_pf = cli.solve_pf
        monkeypatch.setattr(cli, "solve_pf", lambda net: calls.append(net) or solve_pf(net))
        res = run_scenario(ScenarioConfig(network=two_bus_file, with_sensitivity=True))
        assert res.ok
        assert res.sensitivity
        assert len(calls) == 1

    def test_diverged_power_flow_skips_sensitivity(self, two_bus_file, monkeypatch):
        def diverge(net):
            raise PowerFlowDiverged(50, 1.0)
        monkeypatch.setattr(cli, "solve_pf", diverge)
        res = run_scenario(ScenarioConfig(network=two_bus_file, with_sensitivity=True))
        assert res.status == "success"
        assert res.sensitivity is None
        assert "power flow diverged" in res.message

    def test_singular_jacobian_cold_starts_the_opf(self, two_bus_file, monkeypatch):
        def singular(net):
            raise SingularJacobian("singular power-flow Jacobian")
        monkeypatch.setattr(cli, "solve_pf", singular)
        res = run_scenario(ScenarioConfig(network=two_bus_file))
        assert res.status == "success"
        assert res.message == ("OPF cold-started (power flow failed: "
                               "singular power-flow Jacobian)")

    @pytest.mark.parametrize("command", ["pf", "sens"])
    def test_singular_jacobian_is_a_solver_failure(self, two_bus_file, tmp_path,
                                                   monkeypatch, capsys, command):
        def singular(net):
            raise SingularJacobian("singular power-flow Jacobian")
        monkeypatch.setattr(cli, "solve_pf", singular)
        assert main([command, two_bus_file, "--out", str(tmp_path)]) == EXIT_SOLVER
        assert "power flow failed: singular" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pf", "sens"])
    def test_singular_sparse_jacobian_is_a_solver_failure(self, tmp_path, monkeypatch,
                                                          capsys, command):
        # a power flow from zero non-slack voltages meets a zero SuperLU pivot
        def zero_start(net):
            return solve_pf(net, v0=np.zeros((len(net.buses), 3)))
        monkeypatch.setattr(cli, "solve_pf", zero_start)
        assert main([command, "eulv117", "--out", str(tmp_path)]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "power flow failed: singular" in err and "Traceback" not in err


def test_feeder_outputs_do_not_depend_on_blas_threads(tmp_path):
    # eulv117's power-flow Jacobian and its KKT matrices are factored by
    # SuperLU, so one and two OpenBLAS threads write the same bytes
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "vudlmp.cli", "opf", "eulv117",
                               "--mode", "soft", "--penalty", "3.0", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: mask_wall_ms(p) if p.name == "summary.csv" else p.read_bytes()
                        for p in sorted(out.glob("*.csv"))})
    assert len(outputs[0]) == 5
    assert outputs[0] == outputs[1]
