"""The benchmark's correctness gate, run on every workload variant in this
process: ``setup`` and then ``verdict`` from ``perfbench/workloads.py``,
scored by ``run.judge`` against ``perfbench/expected.json``, as a benchmark
job's record is scored.  A name that ``workloads.py`` imports and the
package no longer has, or a verdict that changed, fails here first.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())["workloads"]


@pytest.mark.parametrize("name,index", [
    (name, i) for name, work in WORKLOADS.items() for i in range(len(work["variants"]))
])
def test_workload_variant_meets_expected_verdicts(name, index):
    work = WORKLOADS[name]
    params = work["variants"][index]
    stages = work["verdict"](params, work["setup"](params))
    record = {"stages": {stage: [[n, list(ix), bool(ok), w] for n, ix, ok, w in entries]
                         for stage, entries in stages.items()}}
    attempted, failed, lines = run.judge(record, EXPECTED[name])
    assert attempted == sum(s["checks"] for s in EXPECTED[name].values())
    assert failed == 0, lines
