"""Shared fixtures, independent oracles, and trace helpers.

A trace's LOAD rules (each module once, after its dependencies) are checked
by the library's ``check_trace``; the helpers here only pick out LOADs and
check per-worker clocks.

The oracles here deliberately avoid the production code paths they check:
dependency depth is computed by enumerating every simple path, levels and
the first cycle by a recursive walk over the record text, base status by a
recursive closure over the record text, v1 index values by a memoised
recursive longest path over a recursive closure, and expected stage0 load
orders come from a standalone post-order walk, and
``generate_fixture``'s bytes from the generator as it was written before its
draws were taken from ``getrandbits`` directly.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st

import kmodsim
from kmodsim import metrics
from kmodsim.catalog import CATALOG_HEADER, ModuleCatalog, ModuleRecord, parse_catalog
from kmodsim.errors import ConfigError
from kmodsim.fixtures import _SUFFIXES, _SYLLABLES, _VENDORS, MAX_MODULES
from kmodsim.hardware import INVENTORY_HEADER, parse_inventory
from kmodsim.loader import LOAD

# Every line break str.splitlines honours.
LINE_BREAKS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)


def make_catalog(*records: str) -> ModuleCatalog:
    return parse_catalog("MODCAT v1\n" + "\n".join(records) + "\n")


def make_inventory(*devices: str):
    return parse_inventory("HWINV v1\n" + "\n".join(devices) + "\n")


def src_env() -> dict[str, str]:
    """The environment for a child ``python`` that imports this checkout's
    ``kmodsim``: its ``src`` directory first on ``PYTHONPATH``."""
    src = str(Path(kmodsim.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def chain_records(names: list[str]) -> list[str]:
    """Each name depends on the one before it; the first is independent."""
    lines = [f"{names[0]}|1||"]
    lines.extend(f"{name}|1|{prev}|" for prev, name in zip(names, names[1:]))
    return lines


# -- oracles ------------------------------------------------------------


def brute_force_levels(catalog: ModuleCatalog) -> tuple[int, ...]:
    """Dependency depth of each position by exhaustive simple-path
    enumeration (small graphs)."""

    def paths(name: str) -> list[list[str]]:
        deps = catalog.records[catalog.index_of[name]].deps
        if not deps:
            return [[name]]
        return [[name] + tail for dep in deps for tail in paths(dep)]

    return tuple(max(len(p) for p in paths(name)) for name in catalog.names)


def reference_levels_or_cycle(text: str) -> tuple[int, ...] | list[str]:
    """Every module's level, in bytewise name order, or else the first
    dependency cycle, from the record text by a recursive DFS (small
    catalogs).

    Roots are taken in bytewise name order and dependencies in ``deps``
    order; the cycle is rotated so that its bytewise-smallest name leads.
    """
    deps: dict[str, list[str]] = {}
    for line in text.splitlines()[1:]:
        if line and not line.startswith("#"):
            name, _, dep_field, _ = line.split("|")
            if not name.endswith(".symbols"):
                deps[name] = list(dict.fromkeys(d for d in dep_field.split(",") if d))
    levels: dict[str, int] = {}
    path: list[str] = []

    def visit(name: str) -> list[str] | None:
        path.append(name)
        for dep in deps[name]:
            if dep in path:
                return path[path.index(dep) :]
            if dep not in levels:
                cycle = visit(dep)
                if cycle:
                    return cycle
        path.pop()
        levels[name] = 1 + max((levels[dep] for dep in deps[name]), default=0)
        return None

    order = sorted(deps, key=str.encode)
    for name in order:
        if name not in levels:
            cycle = visit(name)
            if cycle:
                first = cycle.index(min(cycle, key=str.encode))
                return cycle[first:] + cycle[:first]
    return tuple(map(levels.__getitem__, order))


def reference_base(text: str) -> dict[str, bool]:
    """Every module's base status from the record text (small catalogs): the
    modules tagged ``@base`` and every module that their raw dependency names
    reach, by a recursive closure."""
    deps: dict[str, list[str]] = {}
    roots = []
    for line in text.splitlines()[1:]:
        if line and not line.startswith("#"):
            name, _, dep_field, tag_field = line.split("|")
            if not name.endswith(".symbols"):
                deps[name] = [d for d in dep_field.split(",") if d]
                if "@base" in tag_field.split(","):
                    roots.append(name)
    reached: set[str] = set()

    def reach(name: str) -> None:
        if name not in reached:
            reached.add(name)
            for dep in deps[name]:
                reach(dep)

    for root in roots:
        reach(root)
    return {name: name in reached for name in deps}


def reference_v1_values(catalog, selected, supported) -> tuple[int, ...]:
    """v1 index values, one per position, from a recursive closure and a
    memoised longest path.

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
    return tuple(depth_of(name) if name in reached else 0 for name in catalog.names)


def reference_fixture(
    modules: int, max_depth: int, seed: int, hw_coverage: float
) -> tuple[str, str]:
    """``generate_fixture`` drawing through ``randint``, ``randrange``,
    ``choice`` and ``sample``, as it was written before it drew from
    ``getrandbits`` directly; every other line is as it was."""
    if modules < 1:
        raise ConfigError(f"module count must be at least 1, got {modules}")
    if modules > MAX_MODULES:
        raise ConfigError(
            f"module count must be at most {MAX_MODULES} (distinct names), got {modules}"
        )
    if max_depth < 1:
        raise ConfigError(f"max depth must be at least 1, got {max_depth}")
    if not 0.0 <= hw_coverage <= 1.0:
        raise ConfigError(f"hw coverage must be within [0, 1], got {hw_coverage}")

    rng = random.Random(seed)
    randint, randrange, sample = rng.randint, rng.randrange, rng.sample
    names = _reference_names(rng, modules)

    # Levels grow one at a time so a level-k module always has a level-(k-1)
    # dependency available; that pins the longest chain to the deepest level,
    # which therefore never exceeds the module count. Here levels count from
    # 0, and a module takes a level below ``top``: one more than the number of
    # levels in use, or max_depth when that is smaller.
    buckets: list[list[str]] = [[] for _ in range(min(max_depth, modules))]
    counts = [0] * len(buckets)
    top = 1
    catalog_lines = [
        CATALOG_HEADER,
        f"# modules={modules} max_depth={max_depth} seed={seed} hw_coverage={hw_coverage}",
    ]
    for name in names:
        level = randint(1, top) - 1
        if level == top - 1 and top < max_depth:
            top += 1
        if level:
            # Draw positions in the lower levels, not names (the RNG use is
            # the same, since sample picks indices by length alone), so the
            # first dependency can be skipped without copying the levels.
            # Per module that is constant Python work plus C-level passes
            # over the ``level`` counts below it.
            first = randrange(counts[level - 1])
            below = sum(counts[: level - 1])
            skip, others = below + first, below + counts[level - 1] - 1
            extra = randint(0, min(2, others))
            deps = buckets[level - 1][first]
            if extra:
                ends = list(accumulate(counts[:level]))
                picked = [deps]
                for i in sample(range(others), extra):
                    i += i >= skip
                    at = bisect_right(ends, i)
                    picked.append(buckets[at][i - ends[at - 1] if at else i])
                deps = ",".join(picked)
        else:
            deps = ""
        buckets[level].append(name)
        counts[level] += 1
        catalog_lines.append(f"{name}|{randint(4, 96)}|{deps}|dev-{name}")
    for name in names[:3]:
        catalog_lines.append(f"{name}.symbols|1||")

    draw = rng.random
    matched = [name for name in names if draw() < hw_coverage]

    inventory_lines = [
        INVENTORY_HEADER,
        f"# generated for seed={seed}",
    ]
    for name in matched:
        vendor = rng.choice(_VENDORS)
        suffix = rng.choice(_SUFFIXES)
        inventory_lines.append(f"{vendor} dev-{name} {suffix}")
    for _ in range(2):
        inventory_lines.append(f"{rng.choice(_VENDORS)} decoy{rng.randint(100, 999)} hub")

    return "\n".join(catalog_lines) + "\n", "\n".join(inventory_lines) + "\n"


def _reference_names(rng: random.Random, count: int) -> list[str]:
    # A dict keeps the names in draw order and answers "seen?" in one lookup.
    choice, randint = rng.choice, rng.randint
    names: dict[str, None] = {}
    while len(names) < count:
        if randint(2, 3) == 3:
            name = choice(_SYLLABLES) + choice(_SYLLABLES) + choice(_SYLLABLES)
        else:
            name = choice(_SYLLABLES) + choice(_SYLLABLES)
        if name in names:
            name = f"{name}{randint(0, 99)}"
            if name in names:
                continue
        names[name] = None
    return list(names)


def sequential_load_order(catalog, flags: tuple[int, ...], supported) -> list[str]:
    """Standalone post-order oracle for the sequential strategy's LOAD order,
    given one selection flag per position."""
    order: list[str] = []
    done: set[str] = set()

    def visit(name: str) -> None:
        if name in done or catalog.records[catalog.index_of[name]].base_kernel_only:
            return
        done.add(name)
        for dep in catalog.records[catalog.index_of[name]].deps:
            visit(dep)
        order.append(name)

    for rec, flag in zip(catalog.records, flags):
        if rec.base_kernel_only or not flag:
            continue
        if supported(rec):
            visit(rec.name)
    return order


# -- traces -------------------------------------------------------------


def load_events(trace) -> list[str]:
    return [e.module for e in trace if e.kind == LOAD]


# A catalog, fs, app -> fs + core, core @base, and each trace that breaks a
# LOAD rule on it -> the message ``check_trace`` rejects the trace with.
IMPOSSIBLE_TRACE_CATALOG = "MODCAT v1\nfs|4||\napp|1|fs,core|\ncore|2||@base\n"
IMPOSSIBLE_TRACES = {
    "0 0 LOAD ghost\n0 0 LOAD ghost\n": "LOAD of 'ghost', which is not in the catalog",
    "0 0 LOAD fs\n0 1 LOAD fs\n": "second LOAD of 'fs'",
    "0 0 LOAD core\n": "LOAD of 'core', which is a resident @base module",
    "0 0 LOAD app\n0 0 LOAD fs\n": "LOAD of 'app' before its dependency 'fs'",
}


def assert_worker_clocks_monotone(trace) -> None:
    last: dict[int, int] = {}
    for event in trace:
        assert event.timestamp_us >= last.get(event.worker_id, 0)
        last[event.worker_id] = event.timestamp_us


class CountingRuns(tuple):
    """A ``dep_targets`` stand-in that counts its item and slice reads.

    Install it with ``vars(catalog)["dep_targets"] = CountingRuns(...)``:
    every reader of the column then gets it.
    """

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return tuple.__getitem__(self, key)


@pytest.fixture
def record_count(monkeypatch):
    """Counts ``ModuleRecord`` constructions (``.n``) while the test runs."""
    counter = SimpleNamespace(n=0)
    real_init = ModuleRecord.__init__

    def counting_init(self, *args, **kwargs):
        counter.n += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ModuleRecord, "__init__", counting_init)
    return counter


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, *names)`` counts calls of each named function of
    ``module`` while the test runs, in the dict it returns."""

    def count(module, *names: str) -> dict[str, int]:
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(module, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    return count


# -- random catalog generation (test-side, seeded) ----------------------


def random_catalog_texts(rng: random.Random, max_modules=200, max_depth=8) -> tuple[str, str]:
    """One random acyclic catalog text and its inventory text.

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
    return "MODCAT v1\n" + "\n".join(records) + "\n", "HWINV v1\n" + "\n".join(devices) + "\n"


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
def random_case_texts():
    """The catalog and inventory texts of the 500 seeded ``random_cases``."""
    return [
        random_catalog_texts(random.Random(1000 + i), max_modules=200, max_depth=8)
        for i in range(500)
    ]


@pytest.fixture(scope="session")
def random_cases(random_case_texts):
    """500 seeded random catalog/inventory pairs shared by the acceptance suite,
    built through the text parsers."""
    return [(parse_catalog(c), parse_inventory(i)) for c, i in random_case_texts]


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


@st.composite
def maybe_cyclic_catalog_texts(draw, max_modules: int = 12) -> str:
    """Random catalog text, records in random order, whose dependencies may
    name any module, itself included: most draws hold a cycle."""
    n = draw(st.integers(min_value=1, max_value=max_modules))
    names = [f"m{i:02d}" for i in range(n)]
    lines = [
        f"{name}|1|{','.join(draw(st.lists(st.sampled_from(names), max_size=3)))}|"
        for name in draw(st.permutations(names))
    ]
    return "MODCAT v1\n" + "\n".join(lines) + "\n"
