"""One benchmark job in a fresh interpreter.

    python3 perfbench/job.py --workload NAME --seed N --start T [--trace] [--setup-only]

``setup_s`` is the CPU time of this process from its start to the package
imported and the input modules built and certified; ``verdict_s`` is its CPU
time from there to the last check.  Both are taken at the reference speed
of ``speed.py``: the host's speed is sampled while the job runs, and the
job's CPU time, less the samples' own, is rescaled by it.  The raw CPU
times (``setup_cpu_s``, ``verdict_cpu_s``) and the wall-clock times
(``setup_wall_s``, ``verdict_wall_s``) are recorded too.  The job runs on
one thread, so on a dedicated core its CPU and wall-clock times agree; on a
shared host the wall clock also counts the time the host ran other guests.
A traced job is not rescaled: it takes no samples, so that none falls
inside a traced span, and its times are raw CPU times, like its spans.  ``--start`` is the
``time.monotonic()`` reading the parent took just before starting this
process (the clock is system-wide).  The job prints one JSON record as the
last line of its standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import time
import traceback

import layers
from speed import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, variant


def blas_threads():
    """Threads the bundled OpenBLAS will use, or the requested count when
    the library cannot be asked."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    probe = SpeedProbe(enabled=not args.trace)
    probe.start()
    import qonsager

    # every layer is imported during set-up, so that the verdict times no import
    for _, module in layers.LAYERS:
        importlib.import_module(module)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    work = WORKLOADS[args.workload]
    params = variant(args.workload, args.seed)
    module = work["setup"](params)
    probe.stop()
    probe.sample()
    setup_cpu_s = time.process_time()
    taken = probe.phase()
    setup_s = probe.scaled(setup_cpu_s, taken)
    record = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s - sum(taken),
              "setup_wall_s": time.monotonic() - args.start}
    if args.setup_only:
        print(json.dumps(record))
        return

    if tracer is not None:
        setup_snapshot = layers.snapshot(tracer)
        tracer.reset()
    w0, c0 = time.perf_counter(), time.process_time()
    probe.sample()
    probe.start()
    try:
        stages = work["verdict"](params, module)
    except Exception:  # reported per check by the parent, which counts every entry failed
        record["error"] = traceback.format_exc()
        stages = {}
    probe.stop()
    probe.sample()
    verdict_cpu_s = time.process_time() - c0
    verdict_wall_s = time.perf_counter() - w0
    taken = probe.phase()
    verdict_s = probe.scaled(verdict_cpu_s, taken)

    record.update(
        verdict_s=verdict_s,
        verdict_cpu_s=verdict_cpu_s - sum(taken),
        verdict_wall_s=verdict_wall_s,
        probe_ms=1000 * statistics.median(taken) if taken else None,
        probes=len(taken),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        variant=params,
        stages={stage: [[name, list(indices), bool(ok), witness]
                      for name, indices, ok, witness in entries]
                for stage, entries in stages.items()},
        env={
            "kernel": qonsager.KERNEL_NAME,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
        },
    )
    if tracer is not None:
        record["layers"] = layers.layer_metrics(
            setup_snapshot, layers.snapshot(tracer), setup_s, verdict_s)
        tracer.restore()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
