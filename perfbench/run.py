"""Run one benchmark workload against the package under ``src/`` and report.

    python3 perfbench/run.py --workload classical_n10 --seed 1 --seconds 25 --trace 0

Each invocation is one fresh process running one workload as a closed loop
with a single client.  Standard output ends with two JSON lines: a full
report (machine, op counts, all six end-to-end figures with units, wall-clock
timings and sample counts), then the result object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` reports the end-to-end metrics, with
timings at reference speed (see ``harness.py``); ``--trace 1`` reports the
per-layer metrics from spans recorded around each call into the program, and
writes the spans to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# Pin BLAS to at most one thread per usable core unless the caller chose a count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(NPROC))
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.harness import (REFERENCE_NOMINAL_S, LoopResult, NullTracer,  # noqa: E402
                               Tracer, at_reference_speed, closed_loop, median, run_op,
                               tail_percentile, timed_reference)

# Share of --seconds given to each phase of a traced run: plain, spans, tracemalloc.
TRACE_PHASES = (0.4, 0.4, 0.2)

E2E_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "1",
}
# The subset the result line carries.  failed_frac is 0 on a correct program and
# is carried by attempted/failed; latency_p90_ms lacks ten samples beyond it on
# decompose_n12, so it is reported in the full report only.
GATED_E2E = ("throughput_ops_s", "latency_p50_ms", "setup_s", "peak_rss_mb")


def _import_program():
    try:
        import framefree
        from perfbench import workloads
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}\n")
        sys.exit(2)
    if ROOT / "src" not in Path(framefree.__file__).resolve().parents:
        sys.stderr.write(f"perfbench: framefree was imported from {framefree.__file__}, "
                         f"not from {ROOT / 'src'}\n")
        sys.exit(2)
    return workloads


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_info(seed: int) -> dict:
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas_threads(), "seed": seed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_setup(workload, inputs, tracer, cache, reps: int):
    """Cold set-up plus one warm-up op, ``reps`` times.

    Returns the last state, each rep's time at reference speed and on the
    wall clock, and the warm-up ops.
    """
    scaled, wall, warm, state = [], [], LoopResult(), None
    before = timed_reference()
    for rep in range(reps):
        state = None  # let the previous objects go before the next cold build
        t0 = time.perf_counter()
        with tracer.span("bench.setup", op_id=f"setup{rep}"):
            state = workload.setup(inputs, tracer, cache)
        op_s, error = run_op(workload.op, state, tracer, rep)
        elapsed = time.perf_counter() - t0
        after = timed_reference()
        reference = 0.5 * (before + after)
        warm.add(op_s, reference, error)
        wall.append(elapsed)
        scaled.append(at_reference_speed(elapsed, reference))
        before = after
    return state, scaled, wall, warm


def latency_figures(loop: LoopResult, scaled: bool) -> dict:
    ms = [s * 1e3 for s in loop.latencies_s(scaled)]
    if not ms:
        return {"latency_p50_ms": None, "latency_p90_ms": None}
    return {"latency_p50_ms": median(ms), "latency_p90_ms": tail_percentile(ms, 90.0)[0]}


def run_plain(workload, inputs, cache, seconds: float):
    state, setup_scaled, setup_wall, warm = measure_setup(
        workload, inputs, NullTracer(), cache, workload.setup_reps)
    loop = closed_loop(workload.op, state, NullTracer(), seconds, first_op=workload.setup_reps)
    attempted = warm.attempted + loop.attempted
    failed = warm.failed + loop.failed

    def timings(scaled: bool) -> dict:
        return {"throughput_ops_s": loop.throughput(scaled), **latency_figures(loop, scaled),
                "setup_s": median(setup_scaled if scaled else setup_wall)}

    figures = {**timings(True), "peak_rss_mb": peak_rss_mb(), "failed_frac": failed / attempted}
    metrics = {name: {"value": figures[name], "unit": E2E_UNITS[name]} for name in GATED_E2E}
    ms = [1e3 * s for s in loop.latencies_s(True)]
    report = {"e2e": {name: {"value": figures[name], "unit": E2E_UNITS[name]}
                      for name in E2E_UNITS},
              "wall": timings(False),
              "latency_samples": len(ms),
              "latency_p90_samples_beyond": tail_percentile(ms, 90.0)[1] if ms else 0,
              "setup_reps": len(setup_wall),
              "reference_ms": {"median": 1e3 * median(loop.reference_s),
                               "nominal": 1e3 * REFERENCE_NOMINAL_S},
              "ops": {"warmup": warm.attempted, "timed": loop.attempted,
                      "loop_s": loop.elapsed_s},
              "errors": warm.errors + loop.errors}
    return attempted, failed, metrics, report


def run_traced(workload, workloads, inputs, seconds: float, seed: int):
    plain_s, spans_s, malloc_s = (share * seconds for share in TRACE_PHASES)
    null = NullTracer()
    start_op = workload.setup_reps

    # 1: no tracing, as in the end-to-end run; the base for the overhead figures
    state, _, _, warm_a = measure_setup(workload, inputs, null, workloads.DecomposeCache(), 1)
    plain = closed_loop(workload.op, state, null, plain_s, first_op=start_op)

    # 2: spans around every call into the program, set-ups included
    tracer, cache = Tracer(), workloads.DecomposeCache()
    state, _, _, warm_b = measure_setup(workload, inputs, tracer, cache, workload.setup_reps)
    traced = closed_loop(workload.op, state, tracer, spans_s, first_op=start_op)
    hits, misses = cache.totals()

    # 3: tracemalloc on, from a cold set-up, for the peak of traced Python allocations
    state = None
    tracemalloc.start()
    try:
        state, _, _, warm_c = measure_setup(workload, inputs, null, workloads.DecomposeCache(),
                                            1)
        malloc = closed_loop(workload.op, state, null, malloc_s, first_op=start_op)
        peak_traced = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()

    runs = (warm_a, plain, warm_b, traced, warm_c, malloc)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)

    def overhead_pct(loop: LoopResult, scaled: bool) -> float | None:
        if not loop.verified or not plain.verified:
            return None
        return 100.0 * (median(loop.latencies_s(scaled)) / median(plain.latencies_s(scaled)) - 1.0)

    totals = tracer.layer_totals()
    metrics = {}
    for name in workloads.LAYER_SPANS:
        calls, busy = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.busy_s"] = {"value": busy, "unit": "s"}
    metrics.update({
        "irreps.decompose.cache_hits": {"value": hits, "unit": "count"},
        "irreps.decompose.cache_misses": {"value": misses, "unit": "count"},
        "bench.op.calls": {"value": totals.get("bench.op", (0, 0.0))[0], "unit": "count"},
        "bench.op.self_s": {"value": totals.get("bench.op", (0, 0.0))[1], "unit": "s"},
        "bench.setup.self_s": {"value": totals.get("bench.setup", (0, 0.0))[1], "unit": "s"},
        "peak_traced_mb": {"value": peak_traced, "unit": "MB"},
        "bench.trace_overhead_pct": {"value": overhead_pct(traced, True), "unit": "%"},
        # tracemalloc slows the reference kernel as well, so compare wall-clock times
        "bench.tracemalloc_overhead_pct": {"value": overhead_pct(malloc, False), "unit": "%"},
    })
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans_{workload.name}_seed{seed}.json"
    spans_file.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    report = {"phases_s": {"plain": plain.elapsed_s, "spans": traced.elapsed_s,
                           "tracemalloc": malloc.elapsed_s},
              "ops": {"plain": plain.attempted, "spans": traced.attempted,
                      "tracemalloc": malloc.attempted},
              "wait": "none: one client on one Python thread, so no layer waits for another",
              "spans_file": str(spans_file.relative_to(ROOT)),
              "errors": [e for r in runs for e in r.errors]}
    return attempted, failed, metrics, report


def main(argv=None) -> int:
    workloads = _import_program()
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as scratch:
        inputs = workload.inputs(args.seed, Path(scratch))
        if args.trace:
            attempted, failed, metrics, report = run_traced(
                workload, workloads, inputs, args.seconds, args.seed)
        else:
            attempted, failed, metrics, report = run_plain(
                workload, inputs, workloads.DecomposeCache(), args.seconds)
    report = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "machine": machine_info(args.seed), "attempted": attempted, "failed": failed,
              **report}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
