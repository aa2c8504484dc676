"""tools/bench_fold.py: benchmark records folded into one summary."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_fold.py"
_SPEC = importlib.util.spec_from_file_location("bench_fold", _PATH)
bench_fold = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_fold)


def record(seed, pipeline_s, digest="d1", trace=0, python="3.11.7", seconds=35.0):
    return {
        "env": {
            "nproc": 2, "python": python, "commit": "c1", "source_sha256": digest,
            "seed": seed, "seconds": seconds, "trace": trace,
            "workload": {"name": "ungated-5k"},
        },
        "result": {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"pipeline_s": {"value": pipeline_s, "unit": "s"}},
        },
    }


def test_runs_fold_into_medians_and_quartiles_per_build(tmp_path):
    paths = []
    for i, (digest, value) in enumerate([("d1", 1.0), ("d1", 3.0), ("d1", 2.0), ("d2", 5.0)]):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(record(i, value, digest)))
        paths.append(str(path))
    out = tmp_path / "BENCH.json"
    assert bench_fold.main(["--out", str(out), *paths]) == 0
    summary = json.loads(out.read_text())
    assert summary["host"] == {"nproc": 2, "python": "3.11.7"}
    first, second = summary["builds"]
    assert first["source_sha256"] == "d1" and second["source_sha256"] == "d2"
    runs = first["workloads"]["ungated-5k"]["end_to_end"]
    assert runs["runs"] == 3 and runs["seeds"] == [0, 1, 2] and runs["failed"] == 0
    assert runs["metrics"]["pipeline_s"] == {"unit": "s", "median": 2.0, "q1": 1.5, "q3": 2.5}
    single = second["workloads"]["ungated-5k"]["end_to_end"]["metrics"]["pipeline_s"]
    assert single == {"unit": "s", "median": 5.0, "q1": 5.0, "q3": 5.0}


@pytest.mark.parametrize(
    "other, message",
    [
        (dict(python="3.12.0"), "different hosts"),
        (dict(seconds=10.0), "different lengths"),
    ],
)
def test_records_that_do_not_compare_are_refused(other, message):
    with pytest.raises(ValueError, match=message):
        bench_fold.fold([record(1, 1.0), record(2, 1.0, **other)])
