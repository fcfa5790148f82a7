"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the program is imported
from ``src/``.  Every job runs in a fresh interpreter on one thread (BLAS
and OpenMP pinned to one thread), and its times are CPU times of that
process at the reference speed of ``speed.py`` (see ``job.py``).

``--trace 0`` runs whole jobs, one after another, until ``--seconds`` have
passed (the last job may end after that mark), at least one, and none that
is expected to end after the run's time limit.  It then starts
set-up-only interpreters until it has ``SETUP_SAMPLES`` set-up times.  It
reports the end-to-end metrics as medians with their sample counts.

``--trace 1`` runs one untraced job and then one traced job, and reports
the per-layer metrics of the traced job.  The traced job is not rescaled
to the reference speed, so the tracing overhead is its raw CPU
``verdict_s`` minus that of the untraced job.

Every check entry is compared with ``expected.json``; a mismatch, or a job
that raises, counts as failed and is printed by check name.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# A run may take 180 s; jobs still running at this mark are killed, which
# leaves time to report.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def run_job(workload, seed, deadline, trace=False, setup_only=False):
    """Run one job; returns its record, with ``wall_s`` and, on failure,
    ``error``."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    start = time.monotonic()
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--start", repr(start)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"job killed after {deadline - start:.0f} s", "wall_s": time.monotonic() - start}
    wall_s = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0], "wall_s": wall_s}
    record = json.loads(lines[-1])
    record["wall_s"] = wall_s
    return record


def judge(record, expected):
    """(attempted, failed, failure lines) of one job against the expected
    check counts and verdicts."""
    attempted = sum(stage["checks"] for stage in expected.values())
    if "stages" not in record or "error" in record:
        error = record.get("error", "no result").strip().splitlines()[-1]
        return attempted, attempted, [f"job raised: {error}"]
    failed, lines = 0, []
    for stage, want in expected.items():
        entries = record["stages"].get(stage, [])
        want_ok = want["verdict"] == "pass"
        for name, indices, ok, witness in entries:
            if ok != want_ok:
                failed += 1
                got = "passed" if ok else "failed"
                lines.append(f"{stage}: {name}{tuple(indices)} {got}, expected {want['verdict']}"
                             + (f" [{witness}]" if witness else ""))
        if len(entries) != want["checks"]:
            failed += abs(len(entries) - want["checks"])
            attempted += max(len(entries) - want["checks"], 0)
            lines.append(f"{stage}: {len(entries)} checks, expected {want['checks']}")
    for stage in record["stages"].keys() - expected.keys():
        attempted += len(record["stages"][stage])
        failed += len(record["stages"][stage])
        lines.append(f"{stage}: unexpected stage")
    return attempted, failed, lines


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(jobs, setups):
    ok = [r for r in jobs if "verdict_s" in r]
    verdicts = [r["verdict_s"] for r in ok] or [r["wall_s"] for r in jobs]
    rss = [r["peak_rss_mb"] for r in ok] or [0.0]
    samples = {"verdict_s": verdicts, "setup_s": setups or verdicts, "peak_rss_mb": rss}
    values = {}
    for name, unit in END_TO_END:
        values[name] = metric(statistics.median(samples[name]), unit)
        print(f"{name:<12} median {values[name]['value']:.4f} {unit} "
              f"(n={len(samples[name])}, min {min(samples[name]):.4f}, max {max(samples[name]):.4f})")
    return values


def per_layer(plain, traced):
    layer = dict(traced.get("layers", {}))
    if "verdict_s" in plain and "verdict_s" in traced:
        layer["trace.overhead_s"] = traced["verdict_cpu_s"] - plain["verdict_cpu_s"]
    values = {}
    for name, unit in PER_LAYER:
        value = layer.get(name, 0.0)
        values[name] = metric(value, unit)
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{name:<28} {shown} {unit}")
    return values


def main(argv=None):
    with open(HERE / "expected.json") as fh:
        expected_all = json.load(fh)["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(expected_all))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "qonsager" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'qonsager'} is missing",
              file=sys.stderr)
        return 2

    expected = expected_all[args.workload]
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    if args.trace:
        jobs = [run_job(args.workload, args.seed, deadline),
                run_job(args.workload, args.seed, deadline, trace=True)]
    else:
        jobs = []
        while True:
            jobs.append(run_job(args.workload, args.seed, deadline))
            typical = statistics.median(r["wall_s"] for r in jobs)
            now = time.monotonic()
            if now - began >= args.seconds or now + typical > deadline:
                break

    attempted = failed = 0
    for i, record in enumerate(jobs, 1):
        a, f, lines = judge(record, expected)
        attempted += a
        failed += f
        tag = " (traced)" if args.trace and i == 2 else ""
        if "verdict_s" in record:
            probes = (f", probe {record['probe_ms']:.2f} ms x {record['probes']}"
                      if record["probes"] else "")
            print(f"job {i}{tag}: setup {record['setup_s']:.3f} s ({record['setup_cpu_s']:.3f} s CPU, "
                  f"{record['setup_wall_s']:.3f} s wall), verdict {record['verdict_s']:.3f} s "
                  f"({record['verdict_cpu_s']:.3f} s CPU, {record['verdict_wall_s']:.3f} s wall"
                  f"{probes}), "
                  f"peak rss {record['peak_rss_mb']:.1f} MB, {a - f}/{a} checks as expected")
        for line in lines:
            print(f"job {i}{tag}: FAIL {line}")
    env = next((r["env"] for r in jobs if "env" in r), {})
    params = next((r["variant"] for r in jobs if "variant" in r), None)
    print(f"workload {args.workload} seed {args.seed} variant {json.dumps(params)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        metrics = per_layer(jobs[0], jobs[1])
    else:
        setups = [r["setup_s"] for r in jobs if "setup_s" in r and "error" not in r]
        while len(setups) < SETUP_SAMPLES and time.monotonic() + 10.0 < deadline:
            record = run_job(args.workload, args.seed, deadline, setup_only=True)
            if "error" in record:
                failed += 1
                attempted += 1
                print(f"setup: FAIL job raised: {record['error']}")
                break
            setups.append(record["setup_s"])
        metrics = end_to_end(jobs, setups)
    print(f"fail_ratio   {failed}/{attempted} = {failed / attempted:.4f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
