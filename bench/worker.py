"""One workload process: set up, run timed passes, check every operation.

Started by ``run.py``, never by hand.  It prints ``ready`` on stdout right
before the first timed operation, so the parent can time set-up from
process start, then writes its result as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path


def blas_threads():
    """Threads OpenBLAS will use, as numpy's bundled library reports it."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return None


def versions():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": blas_threads()}


def dimensions(out):
    """Problem size of every scenario (or the sensitivity report) of a pass."""
    dims = [{"case_id": sc.case_id, "nvar": sc.solution.problem.nvar,
             "n_eq": sc.solution.problem.n_eq, "n_ineq": sc.solution.problem.n_ineq,
             "iterations": sc.solution.iterations}
            for sc in out.scenarios if sc.solution is not None]
    if out.sensitivity is not None:
        dims.append({"sensitivity_entries": len(out.sensitivity),
                     "defined": sum(e.defined for e in out.sensitivity)})
    return dims


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file", help="where the spans of traced passes go")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import layers
    from tracer import Tracer, write_spans
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    workload.prepare(workdir, args.seed)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = None
    if args.seed == 0 and not args.write_reference:
        reference = checks.load_reference(args.workload)
        if reference is None:
            raise SystemExit(f"no reference for {args.workload}; "
                             "write one with run.py --regen-reference")
    tracer = Tracer()
    traced_spans = []
    outdir = workdir / "out"
    passes = []
    first_digests = None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        mark = len(tracer.spans)
        counts_before = tracer.counts.copy()
        if traced:
            layers.install(tracer)
        t0 = time.perf_counter()
        try:
            out = workload.run_pass(outdir)
        finally:
            wall = time.perf_counter() - t0
            tracer.restore()

        attempted, failures, stats = checks.check_pass(out, reference)
        outputs = checks.normalized_outputs(outdir)
        digests = checks.digests(outputs)
        first_digests = first_digests or digests
        want = reference["files"] if reference else first_digests
        stats["bytes_written"] = sum(len(data) for data in outputs.values())
        stats["csv_identical"] = (sum(digests.get(k) == v for k, v in want.items())
                                  / max(len(want), len(digests), 1))
        record = {"traced": traced, "wall_s": wall, "attempted": attempted,
                  "failed": len(failures), "failures": failures[:5],
                  "op_ms": [sc.result.wall_ms for sc in out.scenarios
                            if sc.result is not None]}
        if not passes:
            record["dimensions"] = dimensions(out)
            # high-water mark through the first pass and its checks: later
            # passes only add allocator fragmentation, which varies with how
            # many passes fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            spans = tracer.spans[mark:]
            traced_spans.append((len(passes), spans))
            record["layers"] = layers.metrics(spans, tracer.counts - counts_before, stats)
        passes.append(record)
        if args.write_reference:
            if failures:
                raise SystemExit("reference not written, the pass failed:\n"
                                 + "\n".join(failures[:20]))
            path = checks.reference_path(args.workload)
            path.parent.mkdir(exist_ok=True)
            ref = checks.make_reference(args.workload, out, digests)
            path.write_text(json.dumps(ref, indent=1) + "\n")
            break
        done = time.perf_counter() >= deadline
        if done and (not args.trace or len(passes) >= 2):
            break

    if traced_spans:
        write_spans(args.trace_file, traced_spans)
    result = {
        "versions": versions(),
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
    }
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
