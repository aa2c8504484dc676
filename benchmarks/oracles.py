"""Correctness oracles for the benchmark, written without kmodsim's code.

Every check reads the files the CLI wrote (catalog, inventory, index, trace,
report) with its own small parser and returns a list of problems; an empty
list means the check passed. A file too malformed to read raises
``ValueError``, which the runner counts as a failed check. No check uses
``assert``, so they keep working under ``python -O``.

The expected loaded set is derived from the generator's inputs alone. It
relies on the generator writing each device tag as one whitespace-separated
word of a device line, so a tag is supported exactly when it is one of those
words; ``hardware.check_hardware_support`` is never called.
"""

from __future__ import annotations

from dataclasses import dataclass

BASE_TAG = "@base"
LOAD = "LOAD"


@dataclass(frozen=True)
class Catalog:
    """Oracle view of a catalog file: sizes, dependencies, tags, base set."""

    sizes: dict[str, int]
    deps: dict[str, tuple[str, ...]]
    tags: dict[str, tuple[str, ...]]
    base: frozenset[str]


@dataclass(frozen=True)
class TraceSummary:
    """Per-trace counts plus the set of modules it loaded."""

    loaded: frozenset[str]
    loads: int
    events: int
    dup_attempts: int
    wall_us: int


NO_TRACE = TraceSummary(frozenset(), 0, 0, 0, 0)


def read_catalog(text: str) -> Catalog:
    sizes, deps, tags = {}, {}, {}
    for line in text.splitlines()[1:]:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, size, dep_field, tag_field = (part.strip() for part in line.split("|"))
        if name.endswith(".symbols"):
            continue
        sizes[name] = int(size)
        deps[name] = tuple(d for d in dep_field.split(",") if d)
        tags[name] = tuple(t for t in tag_field.split(",") if t)
    base = {name for name, t in tags.items() if BASE_TAG in t}
    return Catalog(sizes, deps, tags, frozenset(_closure(base, deps)))


def device_words(inventory_text: str) -> frozenset[str]:
    words = set()
    for line in inventory_text.splitlines()[1:]:
        if line.strip() and not line.lstrip().startswith("#"):
            words.update(w.casefold() for w in line.split())
    return frozenset(words)


def expected_loaded(catalog: Catalog, selected, words: frozenset[str]) -> frozenset[str]:
    """Selected, supported, non-base roots plus their dependencies, minus base."""
    roots = set()
    for name in selected:
        if name in catalog.base:
            continue
        gates = [t for t in catalog.tags[name] if t != BASE_TAG]
        if not gates or any(t.casefold() in words for t in gates):
            roots.add(name)
    return frozenset(_closure(roots, catalog.deps) - catalog.base)


def summarize_trace(text: str) -> TraceSummary:
    loaded, loads, events, dups, stamps = set(), 0, 0, 0, []
    for _, _, kind, module, ts in _trace_rows(text):
        events += 1
        if kind == LOAD:
            loads += 1
            loaded.add(module)
            stamps.append(ts)
        elif kind == "DUP_ATTEMPT":
            dups += 1
    wall = max(stamps) - min(stamps) if stamps else 0
    return TraceSummary(frozenset(loaded), loads, events, dups, wall)


def check_trace(text: str, catalog: Catalog) -> list[str]:
    """Each module LOADs at most once, is in the catalog, and follows its deps."""
    problems = []
    position: dict[str, int] = {}
    for lineno, _, kind, module, _ in _trace_rows(text):
        if kind != LOAD:
            continue
        if module not in catalog.sizes:
            problems.append(f"line {lineno}: LOAD of {module!r}, which is not in the catalog")
            continue
        if module in position:
            problems.append(f"line {lineno}: second LOAD of {module!r}")
            continue
        for dep in catalog.deps[module]:
            if dep not in catalog.base and dep not in position:
                problems.append(f"line {lineno}: {module!r} loaded before its dependency {dep!r}")
        position[module] = lineno
    return problems


def read_index(text: str) -> dict[str, int]:
    values = {}
    for line in text.splitlines()[1:]:
        if line.strip():
            name, value = line.split()
            values[name] = int(value)
    return values


def check_v1_index(text: str, catalog: Catalog) -> list[str]:
    """Every nonzero depth byte exceeds the (nonzero) bytes of its dependencies."""
    values = read_index(text)
    if set(values) != set(catalog.sizes):
        return ["v1 index does not list exactly the catalog's modules"]
    problems = []
    for name, value in values.items():
        if value == 0:
            continue
        for dep in catalog.deps[name]:
            if not 0 < values[dep] < value:
                problems.append(f"{name}={value} but dependency {dep}={values[dep]}")
    return problems


def read_report(text: str) -> dict[str, int]:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if value.strip():
            fields[key.strip()] = int(value)
    return fields


def check_space(report: dict[str, int]) -> list[str]:
    total = report.get("total_kb")
    parts = [report.get(k) for k in ("loaded_kb", "saved_kb", "base_only_kb")]
    if total is None or None in parts:
        return ["report lacks one of total_kb, loaded_kb, saved_kb, base_only_kb"]
    if total != sum(parts):
        return [f"total_kb {total} != loaded + saved + base_only = {sum(parts)}"]
    return []


def _trace_rows(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ValueError(f"trace line {lineno}: expected 4 fields, got {len(parts)}")
        ts, worker, kind, module = parts
        yield lineno, int(worker), kind, module, int(ts)


def _closure(roots, deps) -> set[str]:
    seen = set(roots)
    stack = list(roots)
    while stack:
        for dep in deps[stack.pop()]:
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return seen
