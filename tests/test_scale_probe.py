"""tools/scale_probe.py: gen's time, parse times for four shapes of one catalog, the gate's time."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from kmodsim.catalog import parse_catalog

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("scale_probe", _ROOT / "tools" / "scale_probe.py")
scale_probe = sys.modules["scale_probe"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scale_probe)


def test_every_shape_is_timed_at_200_modules(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    status = scale_probe.main(["--modules", "200", "--calls", "3"])
    out = capsys.readouterr().out.splitlines()
    assert status == 0
    assert out[0].startswith("# medians of 3 calls, ms;")
    rows = [line.split() for line in out[1:]]
    assert [row[:2] for row in rows] == [
        ["200", "gen"],
        ["200", "file-order"], ["200", "name-order"], ["200", "reversed"], ["200", "repeat"],
        ["200", "gate"],
    ]
    assert all(float(row[2]) > 0 for row in rows)


def test_every_dependency_run_names_its_first_dependency_twice():
    text = "MODCAT v1\n# a|1|b|\nb|1||\nc|1|b|x\na|2|c,b|\n"
    assert scale_probe.repeat_first_dependency(text) == (
        "MODCAT v1\n# a|1|b|\nb|1||\nc|1|b,b|x\na|2|c,b,c|\n"
    )
    assert parse_catalog(scale_probe.repeat_first_dependency(text)) == parse_catalog(text)
