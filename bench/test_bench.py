"""The benchmark's own checks: seeded inputs, reference comparison, metric list.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import vudlmp  # noqa: E402
from workloads import WORKLOADS, SmallSweep, write_network  # noqa: E402


def test_seed_zero_is_the_bundled_feeder_and_other_seeds_repeat(tmp_path):
    bundled = vudlmp.bundled_network("simple5").read_bytes()
    assert write_network("simple5", 0, tmp_path / "s0.json").read_bytes() == bundled
    a = write_network("simple5", 7, tmp_path / "a.json").read_text()
    b = write_network("simple5", 7, tmp_path / "b.json").read_text()
    c = write_network("simple5", 8, tmp_path / "c.json").read_text()
    assert a == b != c
    scaled = json.loads(a)["loads"]
    base = json.loads(bundled)["loads"]
    for got, want in zip(scaled, base):
        ratio = got["p"][0] / want["p"][0]
        assert abs(ratio - 1) <= 0.05
        assert got["q"][0] / want["q"][0] == pytest.approx(ratio)


@pytest.fixture(scope="module")
def sweep_pass(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    wl = SmallSweep()
    wl.prepare(work, seed=0)
    try:
        out = wl.run_pass(work / "out")
    finally:
        wl.capture.close()
    return out, checks.digests(checks.normalized_outputs(work / "out"))


def test_seed_zero_pass_matches_the_reference(sweep_pass):
    out, digests = sweep_pass
    reference = checks.load_reference("small-sweep")
    attempted, failures, stats = checks.check_pass(out, reference)
    assert attempted == 10
    assert failures == []
    assert stats["kkt_residual_max"] < checks.KKT_TOL
    assert digests == reference["files"]


@pytest.mark.parametrize("where", ["price", "cost", "bus", "missing"])
def test_corrupted_reference_is_a_failure(sweep_pass, where):
    out, _ = sweep_pass
    reference = copy.deepcopy(checks.load_reference("small-sweep"))
    case = reference["scenarios"]["hard_limit_pct_0.7"]
    if where == "price":
        case["prices"][7][8] += 1e-3       # one unbalance component
    elif where == "cost":
        case["cost"] *= 1.01
    elif where == "bus":
        case["vuf_bus"] = "b0"
    else:
        del reference["scenarios"]["soft_penalty_1"]
    attempted, failures, _ = checks.check_pass(out, reference)
    assert attempted == 10
    assert len(failures) == 1, failures


def test_benchmark_json_lists_the_layer_metrics_and_workloads():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in layers.PER_LAYER]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
