"""tools/gc_where.py: full collections located in gauged pipeline passes."""

from __future__ import annotations

import dataclasses
import gc
import importlib.util
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("gc_where", _ROOT / "tools" / "gc_where.py")
gc_where = sys.modules["gc_where"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gc_where)

COMMANDS = [
    "register.v0", "register.v1",
    *(f"{c}.stage{i}" for c in ("load", "report") for i in range(4)),
]


def test_one_pass_places_every_command_and_reading(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    status = gc_where.main(
        ["--workload", "ungated-5k", "--modules", "200", "--seed", "3", "--passes", "1"]
    )
    out = capsys.readouterr().out.splitlines()
    assert status == 0
    assert out[0] == "# ungated-5k modules=200 seed=3 passes=1 full collections per pass"
    rows = {place: values for place, *values in (line.rsplit(None, 3) for line in out[2:])}
    places = list(rows)
    assert [p for p in places if p in COMMANDS] == COMMANDS
    assert places[:3] == ["elsewhere", "gauge1 start", "register.v0"]
    # Each thread-count switch takes one more reading after the same command.
    assert places.index("gauge2 after load.stage1") == places.index("gauge1 after load.stage1") + 1
    assert places.index("gauge1 after load.stage3") == places.index("gauge2 after load.stage3") + 1
    assert len(places) == 1 + 2 * len(COMMANDS) + 1 + 2
    # The pass's own opening gc.collect() is a full collection outside them all.
    assert float(rows["elsewhere"][0]) >= 1.0
    for command in COMMANDS:
        full, ms, scaled = rows[command]
        assert float(ms) > 0 and float(scaled) > 0
    assert all(rows[p][2] == "-" for p in places if p.startswith("gauge"))


def test_every_full_collection_of_the_passes_is_placed(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(_ROOT / "benchmarks"))
    import run

    workload = dataclasses.replace(run.WORKLOADS["gated-1k"], modules=200)
    bench = run.Bench(run.load_program(_ROOT), workload, 5, tmp_path)
    bench.setup()
    bench.load_oracle()
    reference_loop = run.reference_loop
    before = gc.get_stats()[2]["collections"]
    places = gc_where.locate(run, bench, 2)
    assert sum(places.full.values()) == gc.get_stats()[2]["collections"] - before
    assert places.full[gc_where.ELSEWHERE] >= 2
    assert len(places.passes) == 2 and bench.failed == 0
    # Nothing of the benchmark stays patched.
    assert run.reference_loop is reference_loop and "command" not in vars(bench)
