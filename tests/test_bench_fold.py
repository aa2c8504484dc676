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


def write_records(directory, runs, **fields):
    directory.mkdir()
    for seed, pipeline_s in runs:
        (directory / f"r{seed}.json").write_text(json.dumps(record(seed, pipeline_s, **fields)))


def test_compare_prints_medians_change_and_pairs_won_by_seed(tmp_path, capsys):
    # Seeds 1-4 run on both sides; seed 5 only on the change's, so it counts
    # in the change's median but in no pair. The change wins seeds 1 and 3,
    # ties seed 4 and loses seed 2. A traced run is not an end-to-end run.
    write_records(tmp_path / "parent", [(1, 2.0), (2, 1.0), (3, 3.0), (4, 2.0)])
    write_records(tmp_path / "change", [(1, 1.0), (2, 1.5), (3, 2.0), (4, 2.0), (5, 0.5)],
                  digest="d2")
    traced = record(9, 99.0, digest="d2", trace=1)
    (tmp_path / "change" / "traced.json").write_text(json.dumps(traced))
    parent, change = (bench_fold._read_records(sorted((tmp_path / side).glob("*.json")))
                      for side in ("parent", "change"))
    (row,) = bench_fold.compare(parent, change, {"pipeline_s": "lower", "ok_frac": "higher"})
    assert row["workload"] == "ungated-5k" and row["metric"] == "pipeline_s"
    assert row["parent"] == {"median": 2.0, "q1": 1.75, "q3": 2.25}
    assert row["change"]["median"] == 1.5
    assert row["change_pct"] == -25.0
    assert (row["won"], row["pairs"]) == (2, 4)

    assert bench_fold.main(["--compare", str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert header.split()[:4] == ["workload", "metric", "parent", "change"]
    assert line.split() == ["ungated-5k", "pipeline_s", "2", "1.5", "-25.0", "0.5", "2/4"]


def test_higher_is_better_metrics_win_when_they_rise():
    parent = [record(1, 1.0), record(2, 1.0)]
    change = [record(1, 2.0, digest="d2"), record(2, 0.5, digest="d2")]
    (row,) = bench_fold.compare(parent, change, {"pipeline_s": "higher"})
    assert (row["won"], row["pairs"]) == (1, 2)


@pytest.mark.parametrize(
    "change, message",
    [
        ([record(1, 1.0, python="3.12.0")], "different hosts"),
        ([record(1, 1.0, seconds=10.0)], "different lengths"),
        ([record(1, 1.0), record(1, 2.0)], "two runs of seed 1"),
        ([record(1, 1.0), record(2, 1.0, digest="d2")], "change's records come from 2 different"),
    ],
)
def test_comparisons_that_do_not_pair_are_refused(change, message):
    with pytest.raises(ValueError, match=message):
        bench_fold.compare([record(1, 1.0)], change, {"pipeline_s": "lower"})
