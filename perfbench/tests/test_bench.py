"""The benchmark's own plumbing: metric names, the correctness gate, seeds,
and the tracer installed on the real package over a rank-one T = 3 input."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import layers
import run
from speed import REFERENCE_S, SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, variant

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(layers.PER_LAYER)


def test_workloads_match_benchmark_json_and_expected_verdicts():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    expected = json.loads((run.HERE / "expected.json").read_text())["workloads"]
    assert sorted(names) == sorted(WORKLOADS) == sorted(expected)


def test_seed_picks_a_variant_deterministically():
    for name, work in WORKLOADS.items():
        picked = [variant(name, seed) for seed in range(20)]
        assert picked == [variant(name, seed) for seed in range(20)]
        assert all(p in work["variants"] for p in picked)


EXPECTED = {"a": {"checks": 2, "verdict": "pass"}, "b": {"checks": 1, "verdict": "pass"}}


def test_judge_counts_mismatches_by_name():
    record = {"stages": {"a": [["x", [1], True, None], ["x", [2], False, "entry (0,0) = q"]],
                         "b": [["y", [], True, None]]}}
    attempted, failed, lines = run.judge(record, EXPECTED)
    assert (attempted, failed) == (3, 1)
    assert lines == ["a: x(2,) failed, expected pass [entry (0,0) = q]"]


def test_judge_counts_missing_checks_and_raising_jobs():
    record = {"stages": {"a": [["x", [1], True, None]]}}
    assert run.judge(record, EXPECTED)[:2] == (3, 2)
    attempted, failed, lines = run.judge({"error": "Traceback\nTypeError: boom", "wall_s": 1.0},
                                         EXPECTED)
    assert (attempted, failed) == (3, 3)
    assert lines == ["job raised: TypeError: boom"]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank5-word", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _rank_one_t3():
    from qonsager.ranka import (RankNParams, build_vector_evaluation,
                                generate_rankn_family, rankn_spectral_check)
    from qonsager.scalars import parse_scalar as p

    module = build_vector_evaluation(1, p("q^2"))
    params = RankNParams([p("q^2"), p("q^-1")], [p("1"), p("q")])
    fam = generate_rankn_family(module, params, R=3, T=3)
    return rankn_spectral_check(fam, T=3)


@pytest.fixture
def traced():
    tracer = Tracer()
    layers.install(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()


def test_traced_rank_one_job_reports_every_layer_metric(traced):
    _rank_one_t3()
    snap = layers.snapshot(traced)
    values = layers.layer_metrics(snap, snap, 0.1, 1.0)
    assert set(values) | {"trace.overhead_s"} == {name for name, _ in layers.PER_LAYER}
    assert values["kernel.pgcd.calls"] > 0
    assert 0 <= values["kernel.pgcd.trivial_ratio"] <= 1
    assert 0 <= values["kernel.pgcd.monomial_ratio"] <= 1
    assert values["kernel.max_qdeg"] > 0 and values["kernel.max_coeff_bits"] > 0
    assert values["linmat.matmul.mults"] == 8 * values["linmat.matmul.calls"]  # 2x2 @ 2x2
    assert values["ranka.generate.s"] > 0 and values["ranka.spectral.s"] > 0
    # self times split the time covered by spans opened from the benchmark,
    # less the time observers took
    self_total = values["kernel.s"] + sum(values[f"{n}.self_s"] for n in (
        "scalars", "linmat", "series", "loopsl2", "onsager", "spectra", "ranka"))
    assert 0 < self_total <= traced.covered_s()


def test_tracer_sees_every_pgcd_call_and_restores_the_package(traced):
    import qonsager._kernel as kernel
    import qonsager.scalars as scalars
    import qonsager.series as series

    _rank_one_t3()
    seen = traced.groups["kernel.pgcd"].calls
    traced.restore()
    assert scalars.pgcd is kernel.pgcd and series.pgcd is kernel.pgcd
    assert not hasattr(scalars.Scalar.__add__, "__wrapped__")

    count = 0
    original = kernel.pgcd

    def counting(a, b):
        nonlocal count
        count += 1
        return original(a, b)

    scalars.pgcd = series.pgcd = counting
    try:
        _rank_one_t3()
    finally:
        scalars.pgcd = series.pgcd = original
    assert seen == count > 0


def test_speed_probe_samples_on_the_cpu_timer_and_rescales():
    probe = SpeedProbe(interval=0.01, first=1)
    probe.start()
    start = time.process_time()
    while time.process_time() - start < 0.2:
        pass
    probe.stop()
    taken = probe.phase()
    assert len(taken) > 2 and min(taken) > 0
    assert probe.phase() == []
    # the probes' own time is taken out before rescaling
    assert SpeedProbe.scaled(1.004, [0.002, 0.002]) == pytest.approx(REFERENCE_S / 0.002)
