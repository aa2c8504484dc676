"""Shared fixtures, independent oracles, and trace checkers.

The oracles here deliberately avoid the production code paths they check:
dependency depth is computed by enumerating every simple path, v1 index
values by a memoised recursive longest path over a recursive closure, and
expected stage0 load orders come from a standalone post-order walk.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

from kmodsim import metrics
from kmodsim.catalog import ModuleCatalog, parse_catalog
from kmodsim.hardware import parse_inventory
from kmodsim.loader import LOAD


def make_catalog(*records: str) -> ModuleCatalog:
    return parse_catalog("MODCAT v1\n" + "\n".join(records) + "\n")


def make_inventory(*devices: str):
    return parse_inventory("HWINV v1\n" + "\n".join(devices) + "\n")


def chain_records(names: list[str]) -> list[str]:
    """Each name depends on the one before it; the first is independent."""
    lines = [f"{names[0]}|1||"]
    lines.extend(f"{name}|1|{prev}|" for prev, name in zip(names, names[1:]))
    return lines


# -- oracles ------------------------------------------------------------


def brute_force_levels(catalog: ModuleCatalog) -> dict[str, int]:
    """Dependency depth by exhaustive simple-path enumeration (small graphs)."""

    def paths(name: str) -> list[list[str]]:
        deps = catalog.record(name).deps
        if not deps:
            return [[name]]
        return [[name] + tail for dep in deps for tail in paths(dep)]

    return {rec.name: max(len(p) for p in paths(rec.name)) for rec in catalog.records}


def reference_v1_values(catalog, selected, supported) -> dict[str, int]:
    """v1 index values from a recursive closure and a memoised longest path.

    Roots are the ``selected`` non-base modules for which ``supported(rec)``
    holds; every module in their dependency closure gets its depth, every
    other module 0.
    """
    by_name = {rec.name: rec for rec in catalog.records}
    depth: dict[str, int] = {}
    reached: set[str] = set()

    def depth_of(name: str) -> int:
        if name not in depth:
            depth[name] = 1 + max((depth_of(d) for d in by_name[name].deps), default=0)
        return depth[name]

    def reach(name: str) -> None:
        if name not in reached:
            reached.add(name)
            for dep in by_name[name].deps:
                reach(dep)

    for rec in catalog.records:
        if rec.name in selected and not rec.base_kernel_only and supported(rec):
            reach(rec.name)
    return {name: depth_of(name) if name in reached else 0 for name in by_name}


def sequential_load_order(catalog, flags: dict[str, int], supported) -> list[str]:
    """Standalone post-order oracle for the sequential strategy's LOAD order."""
    order: list[str] = []
    done: set[str] = set()

    def visit(name: str) -> None:
        if name in done or catalog.record(name).base_kernel_only:
            return
        done.add(name)
        for dep in catalog.record(name).deps:
            visit(dep)
        order.append(name)

    for rec in catalog.records:
        if rec.base_kernel_only or not flags.get(rec.name, 0):
            continue
        if supported(rec):
            visit(rec.name)
    return order


# -- trace checkers -----------------------------------------------------


def load_events(trace) -> list[str]:
    return [e.module for e in trace if e.kind == LOAD]


def assert_exactly_once(trace) -> None:
    loads = load_events(trace)
    assert len(loads) == len(set(loads)), f"duplicate LOAD events: {sorted(loads)}"


def assert_dependency_safe(trace, catalog) -> None:
    """Every LOAD must come after the LOADs of all its non-resident deps."""
    position = {}
    for i, event in enumerate(trace):
        if event.kind == LOAD:
            assert event.module not in position, f"{event.module} loaded twice"
            position[event.module] = i
    for name, pos in position.items():
        for dep in catalog.record(name).deps:
            if catalog.record(dep).base_kernel_only:
                continue
            assert dep in position, f"{name} loaded but dependency {dep} never did"
            assert position[dep] < pos, f"{name} loaded before its dependency {dep}"


def assert_worker_clocks_monotone(trace) -> None:
    last: dict[int, int] = {}
    for event in trace:
        assert event.timestamp_us >= last.get(event.worker_id, 0)
        last[event.worker_id] = event.timestamp_us


# -- random catalog generation (test-side, seeded) ----------------------


def random_catalog_pair(rng: random.Random, max_modules=200, max_depth=8):
    """One random acyclic catalog + inventory, built through the text parsers.

    The name<->structure mapping is shuffled so alphabetical order carries no
    information about dependency order. Roughly half the modules are
    hardware-gated, some gated ones have no matching device, and a small
    number are base-kernel-only.
    """
    n = rng.randint(1, max_modules)
    order = rng.sample(range(n), n)  # structure index -> name index
    names = [f"m{idx:03d}" for idx in range(n)]

    depth: dict[int, int] = {}
    records = []
    devices = []
    for si in range(n):
        candidates = [j for j in range(si) if depth[j] < max_depth]
        deps: list[int] = []
        if candidates and rng.random() < 0.7:
            deps = rng.sample(candidates, rng.randint(1, min(3, len(candidates))))
        depth[si] = 1 + max((depth[j] for j in deps), default=0)

        name = names[order[si]]
        gated = rng.random() < 0.5
        tags = []
        if gated:
            tags.append(f"dev-{name}")
            if rng.random() < 0.8:
                devices.append(f"Vendor dev-{name} adapter")
        if rng.random() < 0.05:
            tags.append("@base")
        dep_names = ",".join(names[order[j]] for j in deps)
        records.append(f"{name}|{rng.randint(1, 64)}|{dep_names}|{','.join(tags)}")

    rng.shuffle(records)
    catalog = parse_catalog("MODCAT v1\n" + "\n".join(records) + "\n")
    inventory = parse_inventory("HWINV v1\n" + "\n".join(devices) + "\n")
    return catalog, inventory


@pytest.fixture
def drifting_bench(monkeypatch):
    """Make ``bench``'s second run of a strategy report an empty loaded set."""
    real = metrics.run_strategy
    runs = []

    def drifting(*args):
        state, trace = real(*args)
        runs.append(state)
        if len(runs) == 2:
            state = SimpleNamespace(loaded=lambda: frozenset())
        return state, trace

    monkeypatch.setattr(metrics, "run_strategy", drifting)


@pytest.fixture(scope="session")
def random_cases():
    """500 seeded random catalog/inventory pairs shared by the acceptance suite."""
    return [
        random_catalog_pair(random.Random(1000 + i), max_modules=200, max_depth=8)
        for i in range(500)
    ]


# -- hypothesis building blocks ------------------------------------------


@st.composite
def catalog_texts(draw, max_modules: int = 25) -> str:
    """Random acyclic catalog text: edges only point at earlier modules."""
    n = draw(st.integers(min_value=1, max_value=max_modules))
    lines = []
    for i in range(n):
        name = f"m{i:02d}"
        dep_pool = list(range(i))
        deps = draw(
            st.lists(st.sampled_from(dep_pool), unique=True, max_size=min(3, i))
        ) if dep_pool else []
        size = draw(st.integers(min_value=0, max_value=99))
        gated = draw(st.booleans())
        tags = f"dev-{name}" if gated else ""
        lines.append(f"{name}|{size}|{','.join(f'm{j:02d}' for j in deps)}|{tags}")
    return "MODCAT v1\n" + "\n".join(lines) + "\n"
