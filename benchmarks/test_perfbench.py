"""Tests of the benchmark itself: its oracles and a reduced-size pass.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

import oracles
import run

CATALOG = oracles.read_catalog(
    "MODCAT v1\n"
    "core|4||@base\n"
    "net|8|core|dev-net\n"
    "eth|16|net|dev-eth\n"
    "fs|2||\n"
    "fs.symbols|1||\n"
)


@pytest.mark.parametrize(
    ("trace", "problem"),
    [
        ("0 0 LOAD net\n0 0 LOAD net\n", "second LOAD of 'net'"),
        ("0 0 LOAD eth\n0 0 LOAD net\n", "'eth' loaded before its dependency 'net'"),
        ("0 0 LOAD ghost\n", "LOAD of 'ghost', which is not in the catalog"),
        ("0 0 LOAD fs.symbols\n", "which is not in the catalog"),
    ],
)
def test_trace_oracle_flags_bad_traces(trace, problem):
    problems = oracles.check_trace(trace, CATALOG)
    assert any(problem in p for p in problems), problems


def test_trace_oracle_accepts_base_dependencies_and_skips():
    trace = "0 0 SKIP_FLAG fs\n0 0 LOAD net\n0 1 DUP_ATTEMPT net\n0 0 LOAD eth\n"
    assert oracles.check_trace(trace, CATALOG) == []
    summary = oracles.summarize_trace(trace)
    assert (summary.loads, summary.events, summary.dup_attempts) == (2, 4, 1)


def test_expected_set_follows_devices_and_dependencies():
    words = oracles.device_words("HWINV v1\nIntel dev-eth adapter\n")
    assert oracles.expected_loaded(CATALOG, CATALOG.sizes, words) == {"net", "eth", "fs"}
    assert oracles.expected_loaded(CATALOG, {"net"}, words) == frozenset()


def test_v1_and_space_oracles_flag_violations():
    good = "MODINDEX v1\ncore 1\neth 3\nfs 0\nnet 2\n"
    assert oracles.check_v1_index(good, CATALOG) == []
    assert oracles.check_v1_index(good.replace("net 2", "net 3"), CATALOG)
    report = {"total_kb": 30, "loaded_kb": 24, "saved_kb": 2, "base_only_kb": 4}
    assert oracles.check_space(report) == []
    assert oracles.check_space({**report, "saved_kb": 3})


SMALL = {"gated-1k": 200, "ungated-5k": 400, "attach-600": 40}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_reduced_size_pass(name, trace):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workload = dataclasses.replace(run.WORKLOADS[name], modules=SMALL[name])
    result, record = run.run(run.ROOT, workload, seed=5, seconds=0, trace=trace)

    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert record["env"]["workload"]["modules"] == SMALL[name]
    if trace:
        spans = record["samples"]["spans"]
        names = {s["name"] for s in spans}
        assert {"cli.load", "loader.run_strategy.stage3", "hardware.gate"} <= names
        assert all(s["end"] >= s["start"] for s in spans)
