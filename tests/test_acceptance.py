"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 7 is a directional timing check and is reported rather than
hard-failed: when the machine disagrees, the test xfails instead of erroring.
"""

from __future__ import annotations

import random
import time

import pytest

from kmodsim.catalog import parse_catalog
from kmodsim.errors import DepthOverflow
from kmodsim.fixtures import generate_fixture
from kmodsim.hardware import HardwareInventory, check_hardware_support, parse_inventory
from kmodsim.loader import (
    DUP_ATTEMPT,
    StrategyConfig,
    plan_partitions,
    run_strategy,
)
from kmodsim.metrics import bench, check_trace, space_report
from kmodsim.registry import register_v0, register_v1

from conftest import (
    chain_records,
    load_events,
    make_catalog,
    make_inventory,
    reference_v1_values,
)

NO_HW = HardwareInventory(())
ALL = ("stage0", "stage1", "stage2", "stage3")


def _passed(number: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: PASS{suffix}")


def test_criterion_1_registry_levels_match_the_depth_oracle(random_cases):
    # catalog.levels agrees with exhaustive path enumeration (test_catalog.py),
    # but register_v1 reads its depths from it, so every value is also
    # checked against reference_v1_values, which shares no code with either.
    started = time.perf_counter()
    checked = 0
    for catalog, inventory in random_cases:
        index = register_v1(catalog, catalog.names, inventory)
        for name, value, level in zip(index.names, index.values, catalog.levels):
            if value:
                assert value == level, (name, value, level)
                checked += 1
        assert index.values == reference_v1_values(
            catalog,
            frozenset(catalog.names),
            lambda rec: check_hardware_support(rec, inventory),
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    _passed(1, "registry oracle equivalence",
            f"{len(random_cases)} catalogs, {checked} nonzero entries, {elapsed:.1f}s")


def test_criterion_2_dependency_safety_for_every_strategy(random_cases):
    for catalog, inventory in random_cases:
        v0 = register_v0(catalog, catalog.names)
        v1 = register_v1(catalog, catalog.names, inventory)
        for strategy in ALL:
            config = StrategyConfig(strategy, workers=4 if strategy != "stage0" else 1)
            if strategy == "stage1":
                state, trace = run_strategy(catalog, v1, inventory, config)
            else:
                state, trace = run_strategy(catalog, v0, inventory, config)
            assert check_trace(catalog, trace) == state.loaded()
    _passed(2, "dependency safety", f"{len(random_cases)} catalogs x {len(ALL)} strategies")


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_criterion_3_exactly_once_under_race(workers):
    catalog = make_catalog("b|1|a|", "c|1|a|", "a|1||")
    index = register_v0(catalog, catalog.names)
    config = StrategyConfig("stage3", workers=workers, load_base_us=100)
    dup_total = 0
    for _ in range(200):
        state, trace = run_strategy(catalog, index, NO_HW, config)
        loads = load_events(trace)
        assert sorted(loads) == ["a", "b", "c"], trace
        assert state.loaded() == {"a", "b", "c"}
        dup_total += sum(1 for e in trace if e.kind == DUP_ATTEMPT)
    _passed(3, f"exactly-once (workers={workers})",
            f"200 runs, {dup_total} duplicate attempts observed")


def test_criterion_4_strategy_equivalence(random_cases):
    for i, (catalog, inventory) in enumerate(random_cases):
        rng = random.Random(9000 + i)
        supported = [
            rec.name
            for rec in catalog.records
            if not rec.base_kernel_only and check_hardware_support(rec, inventory)
        ]
        picked = rng.sample(supported, rng.randint(0, len(supported)))
        v0 = register_v0(catalog, picked)
        v1 = register_v1(catalog, picked, inventory)

        baseline, _ = run_strategy(catalog, v0, inventory, StrategyConfig("stage0"))
        for strategy, index in (("stage2", v0), ("stage3", v0), ("stage1", v1)):
            state, _ = run_strategy(
                catalog, index, inventory, StrategyConfig(strategy, workers=4)
            )
            assert state.loaded() == baseline.loaded(), (strategy, i)
    _passed(4, "strategy equivalence", f"{len(random_cases)} catalogs")


def test_criterion_5_count_byte_semantics():
    unsupported = make_catalog("a|1||dev-a")
    index = register_v1(unsupported, unsupported.names, make_inventory("other hw"))
    assert index.values[unsupported.index_of["a"]] == 0

    leaf = make_catalog("a|1||dev-a")
    index = register_v1(leaf, leaf.names, make_inventory("Vendor dev-a card"))
    assert index.values[leaf.index_of["a"]] == 1

    fits = make_catalog(*chain_records([f"c{i:03d}" for i in range(255)]))
    index = register_v1(fits, fits.names, NO_HW)
    assert max(index.values) == 255

    overflows = make_catalog(*chain_records([f"c{i:03d}" for i in range(256)]))
    with pytest.raises(DepthOverflow):
        register_v1(overflows, overflows.names, NO_HW)
    _passed(5, "count byte semantics", "0 / 1 / 255-chain fits / 256-chain overflows")


def test_criterion_6_space_arithmetic(random_cases):
    arch = make_catalog("archextras|2331||", "core|512||")
    assert space_report(arch, {"core"}).saved_kb == 2331

    inet6 = make_catalog("inet6|2112||", "core|512||")
    assert space_report(inet6, {"core"}).saved_kb == 2112

    sessions = 0
    for catalog, inventory in random_cases[:25]:
        v0 = register_v0(catalog, catalog.names)
        state, _ = run_strategy(catalog, v0, inventory, StrategyConfig("stage0"))
        report = space_report(catalog, state.loaded())
        assert report.total_kb == report.loaded_kb + report.saved_kb + report.base_only_kb
        sessions += 1
    _passed(6, "space arithmetic", f"2331/2112 fixtures, conservation on {sessions} sessions")


def _bench_fixture():
    catalog_text, inventory_text = generate_fixture(200, 4, seed=3, hw_coverage=0.8)
    return parse_catalog(catalog_text), parse_inventory(inventory_text)


def test_criterion_7_directional_performance_reported_not_enforced():
    started = time.perf_counter()
    catalog, inventory = _bench_fixture()
    report = bench(
        catalog, catalog.names, inventory,
        ALL, workers=8, repetitions=5, load_base_us=50, load_per_kb_us=2,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"bench took {elapsed:.1f}s"

    wall = {r.strategy: r.median_wall_us for r in report.results}
    ordered = wall["stage3"] < wall["stage2"] < wall["stage0"]
    detail = (
        f"stage0={wall['stage0']:.0f}us stage2={wall['stage2']:.0f}us "
        f"stage3={wall['stage3']:.0f}us workers=8"
    )
    if ordered:
        _passed(7, "directional performance", detail)
    else:
        print(f"ACCEPTANCE 7 directional performance: SOFT-FAIL ({detail})")
        pytest.xfail("machine-dependent timing direction did not hold")


def test_criterion_8_registration_plus_four_loads_composite():
    catalog, inventory = _bench_fixture()
    average_depth = sum(catalog.levels) / len(catalog.levels)
    assert average_depth >= 2, f"fixture too shallow: {average_depth:.2f}"

    report = bench(
        catalog, catalog.names, inventory,
        ["stage0"], workers=1, repetitions=7,
    )
    composite = report.composite
    assert composite.v1_us < composite.v0_us, (
        f"v1 composite {composite.v1_us:.0f}us not below v0 {composite.v0_us:.0f}us"
    )
    _passed(8, "composite cost",
            f"v0={composite.v0_us:.0f}us v1={composite.v1_us:.0f}us "
            f"improvement={composite.improvement_pct:.0f}%")


def test_criterion_8_gate_calls_per_composite(monkeypatch):
    # The host-independent side of criterion 8: each v0 load asks the gate
    # about every selected module, while v1 asks once, at registration.
    catalog, inventory = _bench_fixture()
    calls = 0
    supports = HardwareInventory.supports

    def counting(self, tags):
        nonlocal calls
        calls += 1
        return supports(self, tags)

    monkeypatch.setattr(HardwareInventory, "supports", counting)
    counts = {}
    for pipeline, register, strategy in (
        ("v0", lambda: register_v0(catalog, catalog.names), "stage0"),
        ("v1", lambda: register_v1(catalog, catalog.names, inventory), "stage1"),
    ):
        calls = 0
        index = register()
        for _ in range(4):
            run_strategy(catalog, index, inventory, StrategyConfig(strategy))
        counts[pipeline] = calls
    assert counts == {"v0": 800, "v1": 200}
    _passed(8, "composite gate calls", f"v0={counts['v0']} v1={counts['v1']}")


def test_criterion_9_partition_sweep():
    assert plan_partitions(8, 5) == ((0, 2), (2, 4), (4, 6), (6, 8))

    started = time.perf_counter()
    for workers in range(2, 65):
        for n in range(0, 10_001):
            ranges = plan_partitions(n, workers)
            prev = 0
            total = 0
            for start, end in ranges:
                if not (prev <= start <= end <= n):
                    pytest.fail(f"bad range {start, end} for n={n} workers={workers}")
                total += end - start
                prev = end
            if total != n:
                pytest.fail(f"ranges cover {total} of {n} for workers={workers}")
    elapsed = time.perf_counter() - started
    _passed(9, "partition sweep", f"n<=10000, workers 2..64, {elapsed:.0f}s")
