"""The benchmark's correctness gate, run on every workload variant in this
process: ``setup`` and then ``verdict`` from ``perfbench/workloads.py``,
scored by ``run.judge`` against ``perfbench/expected.json``, as a benchmark
job's record is scored.  A name that ``workloads.py`` imports and the
package no longer has, or a verdict that changed, fails here first.

``expected.json`` pins counts and verdicts only.  Each variant's full entry
list (name, indices, ok, witness) is also compared with the snapshot in
``tests/data/workload_entries.json``, so a change that moves an index or a
witness fails here too.  A change that alters entries on purpose rewrites
the snapshot with ``python tests/test_benchmark_workloads.py`` (with the
package on the path) and names each changed entry.
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
SNAPSHOT = Path(__file__).resolve().parent / "data" / "workload_entries.json"


def _stages(name, index):
    """The verdict's entries of one variant, per stage, as JSON lists."""
    work = WORKLOADS[name]
    params = work["variants"][index]
    stages = work["verdict"](params, work["setup"](params))
    return {stage: [[n, list(ix), bool(ok), w] for n, ix, ok, w in entries]
            for stage, entries in stages.items()}


@pytest.mark.parametrize("name,index", [
    (name, i) for name, work in WORKLOADS.items() for i in range(len(work["variants"]))
])
def test_workload_variant_meets_expected_verdicts(name, index):
    record = {"stages": _stages(name, index)}
    attempted, failed, lines = run.judge(record, EXPECTED[name])
    assert attempted == sum(s["checks"] for s in EXPECTED[name].values())
    assert failed == 0, lines
    want = json.loads(SNAPSHOT.read_text())[name][index]
    assert record["stages"].keys() == want.keys()
    for stage, entries in want.items():
        assert record["stages"][stage] == entries, stage


def _write_snapshot():
    """Rewrite the snapshot from this tree, one entry a line."""
    def block(items, pad):
        return "[\n" + ",\n".join(pad + x for x in items) + "\n" + pad[2:] + "]"

    def variant(stages):
        return "{\n" + ",\n".join(
            f"      {json.dumps(stage)}: " + block([json.dumps(e) for e in entries], " " * 8)
            for stage, entries in stages.items()) + "\n    }"

    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text("{\n" + ",\n".join(
        f"  {json.dumps(name)}: " + block(
            [variant(_stages(name, i)) for i in range(len(work["variants"]))], " " * 4)
        for name, work in WORKLOADS.items()) + "\n}\n")


if __name__ == "__main__":
    _write_snapshot()
