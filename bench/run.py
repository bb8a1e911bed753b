"""vudlmp benchmark: end-to-end and per-layer metrics with correctness checks.

Run from the repository root::

    python3 bench/run.py --workload feeder-hard --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30
    python3 bench/run.py --workload small-sweep --regen-reference

One run starts a fresh process for the workload (``worker.py``) that
imports ``vudlmp`` from ``src/``, writes the seeded network, warms up and
then repeats timed passes for ``--seconds`` (at least one).  Every
operation of every pass is checked (see ``checks.py``).  Set-up is timed
in that process and in ``SETUP_PROBES`` more processes that stop after
set-up; ``setup_s`` is the median.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``layers.py``) of the traced ones; spans go to
``.bench_run/trace-<workload>-seed<n>.jsonl``.  ``--workload all`` runs
every workload both ways.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Worker processes are pinned to one BLAS thread so that results repeat bit
for bit and timings do not depend on thread scheduling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0     # a run must end within 180 s

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402  (bench-local module)

WORKLOAD_NAMES = ("feeder-hard", "feeder-sens", "small-sweep")


class BenchError(Exception):
    """The benchmark could not run (as opposed to an operation failing)."""


def _env():
    env = os.environ.copy()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, deadline, workdir, extra=()):
    """Run one worker process; returns (set-up seconds, parsed result or None)."""
    result = workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--result", str(result),
           "--trace-file", str(RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"),
           *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload}: worker exceeded the {RUN_LIMIT_S:.0f} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{args.workload}: worker exited with code {proc.returncode}")
    if "--setup-only" in extra:
        return setup, None
    return setup, json.loads(result.read_text())


def summarize(values):
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n}
    if n >= 11:
        k = n - 11              # the sample with exactly 10 above it
        out[f"p{100 * (k + 1) / n:.0f}"] = values[k]
    return out


def run_one(args):
    """One workload, one trace mode: (metrics, attempted, failed, report lines)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    base = RUN_DIR / tag
    probe = ("--setup-only",)
    try:
        # probes before and after the measured process, so that the median
        # set-up time spans the whole run rather than one stretch of it
        setups = [_worker(args, deadline, base / f"probe{k}", probe)[0]
                  for k in range(SETUP_PROBES // 2)]
        setup, res = _worker(args, deadline, base / "main")
        setups += [setup] + [_worker(args, deadline, base / f"probe{k}", probe)[0]
                             for k in range(SETUP_PROBES // 2, SETUP_PROBES)]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    passes = res["passes"]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    lines = [f"== {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(plain)} untraced, {len(traced)} traced passes"]
    if args.trace:
        metrics = {}
        for name, unit in layers.UNITS.items():
            if name == "trace.overhead_s":
                value = (statistics.median(p["wall_s"] for p in traced)
                         - statistics.median(plain))
            else:
                per_pass = [p["layers"][name] for p in traced]
                value = statistics.median(per_pass)
                if unit != "s" and len(set(per_pass)) > 1:
                    lines.append(f"warning: {name} differs between traced passes: {per_pass}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        lines.append(f"wall_s samples: {summarize(plain)}")
        lines.append(f"setup_s samples: {summarize(setups)}")
        ops = [ms for p in passes for ms in p["op_ms"]]
        if ops:
            lines.append(f"scenario latency ms: {summarize(ops)}")
    lines.append(f"fail_rate = {failed}/{attempted} = {failed / attempted:.6g}")
    for p in passes:
        lines += [f"FAILED: {msg}" for msg in p["failures"]]
    record = {"git_sha": _git_sha(), "src_sha256": _src_digest(), "seed": args.seed,
              **res["versions"], "dimensions": passes[0]["dimensions"]}
    lines.append("record: " + json.dumps(record))
    (RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics, "attempted": attempted,
                    "failed": failed, "passes": passes}, indent=1) + "\n")
    return metrics, attempted, failed, lines


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def regen_reference(args):
    """Write bench/reference/<workload>.json from one seed-0 pass."""
    args.seed, args.seconds, args.trace = 0, 0, 0
    base = RUN_DIR / f"reference-{args.workload}-{os.getpid()}"
    try:
        _worker(args, time.perf_counter() + RUN_LIMIT_S, base, ("--write-reference",))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"wrote bench/reference/{args.workload}.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-reference", action="store_true",
                    help="rewrite the seed-0 reference of --workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "vudlmp").is_dir():
        print(f"error: {ROOT / 'src' / 'vudlmp'} not found; run from a vudlmp checkout",
              file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    try:
        if args.regen_reference:
            names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
            for args.workload in names:
                regen_reference(args)
            return 0
        if args.workload != "all":
            metrics, attempted, failed, lines = run_one(args)
            print("\n".join(lines))
        else:
            metrics, attempted, failed = {}, 0, 0
            for args.workload in WORKLOAD_NAMES:
                for args.trace in (0, 1):
                    m, a, f, lines = run_one(args)
                    print("\n".join(lines), flush=True)
                    metrics.update({f"{args.workload}/{k}": v for k, v in m.items()})
                    attempted += a
                    failed += f
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
