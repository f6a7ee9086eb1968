"""Every committed benchmark record (BENCH_*.json at the repository root) is
complete: it says what was measured, how and where, and each of its pairs of
parent and change runs holds every end-to-end metric that BENCHMARK.json
names, from a run whose output checks passed with no failed operation."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_records_present():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_complete(path):
    record = json.loads(path.read_text())
    for key in ("what", "command", "machine", "series", "traced"):
        assert key in record, f"{path.name}: no '{key}'"
    pairs = [(workload, pair) for workload, runs in record["series"].items() for pair in runs]
    assert pairs, f"{path.name}: empty series"
    for workload, pair in pairs:
        for side in ("parent", "change"):
            run = pair[side]
            where = f"{path.name}: {workload} seed {pair.get('seed')} {side}"
            assert run["correct"] is True, where
            assert run["failed"] == 0, where
            missing = [m for m in END_TO_END if not isinstance(run.get(m), (int, float))]
            assert not missing, f"{where}: missing {missing}"
