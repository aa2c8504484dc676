"""Index-file registration: selection bits (v0) and dependency-depth bytes (v1).

An index file is positionally aligned with its catalog: line *i* describes
the module at catalog position *i*. Format v0 stores the user's raw
selection as 0/1 flags and defers every other decision to load time. Format
v1 bakes the expensive decisions into registration: a selected module that
passes the hardware check receives its dependency depth (1 = independent,
2-255 = dependent), and every module reachable through its dependencies is
depth-tagged as well, whether or not it was selected itself. Modules that
stay unselected or fail the hardware check keep value 0 and are never swept
in at load time. Registration walks the dependency closure of all roots at
once and reads each reached module's depth from ``topo_levels``, since a
module's depth does not depend on which root reaches it.

Base-kernel modules are already resident, so they are never registered as
roots; they still receive depth values when a loadable module depends on
them, which keeps the byte ordering rule (dependency value < dependent
value) intact across the whole file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .catalog import ModuleCatalog, topo_levels
from .errors import (
    ConfigError,
    DepthOverflow,
    PositionMismatch,
    UnknownSelection,
    ValueOutOfRange,
    VersionMismatch,
)
from .hardware import HardwareInventory, check_hardware_support

INDEX_HEADERS = {"v0": "MODINDEX v0", "v1": "MODINDEX v1"}
MAX_DEPTH_VALUE = 255

ALL_LOAD = "all_load"
ALL_SKIP = "all_skip"
FROM_FILE = "from_file"
INTERACTIVE = "interactive"


@dataclass(frozen=True)
class SelectionPolicy:
    """How registration decides which modules the user wants loaded."""

    kind: str
    names: frozenset[str] = frozenset()
    ask: Callable[[str], bool] | None = field(default=None, compare=False)

    @classmethod
    def all_load(cls) -> "SelectionPolicy":
        return cls(ALL_LOAD)

    @classmethod
    def all_skip(cls) -> "SelectionPolicy":
        return cls(ALL_SKIP)

    @classmethod
    def from_file(cls, names: Iterable[str]) -> "SelectionPolicy":
        return cls(FROM_FILE, names=frozenset(names))

    @classmethod
    def interactive(cls, ask: Callable[[str], bool]) -> "SelectionPolicy":
        return cls(INTERACTIVE, ask=ask)


@dataclass(frozen=True)
class IndexFile:
    """Per-module registration outcome, aligned 1:1 with catalog positions."""

    version: str
    entries: tuple[tuple[str, int], ...]

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.entries)

    def value_of(self, name: str) -> int:
        for entry_name, value in self.entries:
            if entry_name == name:
                return value
        raise KeyError(name)


def resolve_selection(catalog: ModuleCatalog, policy: SelectionPolicy) -> frozenset[str]:
    """Materialize a policy into the set of selected module names.

    Interactive policies are asked once per module, in catalog order.
    """
    if policy.kind == ALL_LOAD:
        return frozenset(catalog.names)
    if policy.kind == ALL_SKIP:
        return frozenset()
    if policy.kind == FROM_FILE:
        unknown = sorted(policy.names - set(catalog.names))
        if unknown:
            raise UnknownSelection(f"selection names unknown modules: {', '.join(unknown)}")
        return policy.names
    if policy.kind == INTERACTIVE:
        if policy.ask is None:
            raise ConfigError("interactive policy needs an ask callback")
        return frozenset(r.name for r in catalog.records if policy.ask(r.name))
    raise ConfigError(f"unknown selection policy {policy.kind!r}")


def register_v0(catalog: ModuleCatalog, policy: SelectionPolicy) -> IndexFile:
    """Record the raw selection as one flag bit per catalog position."""
    selected = resolve_selection(catalog, policy)
    entries = tuple(
        (rec.name, 1 if rec.name in selected else 0) for rec in catalog.records
    )
    return IndexFile("v0", entries)


def register_v1(
    catalog: ModuleCatalog,
    policy: SelectionPolicy,
    inventory: HardwareInventory,
) -> IndexFile:
    """Assign dependency-depth bytes to every loadable, supported selection.

    The roots are the selected, non-base modules that pass the hardware
    check. One walk from all roots collects their transitive dependencies;
    every module it reaches gets its ``topo_levels`` depth, everything else
    stays 0.
    """
    selected = resolve_selection(catalog, policy)
    reached = {
        rec.name
        for rec in catalog.records
        if rec.name in selected
        and not rec.base_kernel_only
        and check_hardware_support(rec, inventory)
    }
    queue = list(reached)
    while queue:
        for dep in catalog.record(queue.pop()).deps:
            if dep not in reached:
                reached.add(dep)
                queue.append(dep)

    levels = topo_levels(catalog)
    entries = []
    for rec in catalog.records:
        depth = levels[rec.name] if rec.name in reached else 0
        if depth > MAX_DEPTH_VALUE:
            raise DepthOverflow(
                f"module {rec.name!r} sits at dependency depth {depth}; "
                f"index values top out at {MAX_DEPTH_VALUE}"
            )
        entries.append((rec.name, depth))
    return IndexFile("v1", tuple(entries))


def write_index(index: IndexFile) -> str:
    """Render an index file: header plus one ``name value`` line per module."""
    lines = [INDEX_HEADERS[index.version]]
    lines.extend(f"{name} {value}" for name, value in index.entries)
    return "\n".join(lines) + "\n"


def read_index(text: str, catalog: ModuleCatalog) -> IndexFile:
    """Parse an index file and validate positional alignment with the catalog."""
    lines = text.splitlines()
    header = lines[0].strip() if lines else ""
    version = next((v for v, h in INDEX_HEADERS.items() if h == header), None)
    if version is None:
        raise VersionMismatch(f"unrecognized index header {header!r}")

    body = [line for line in lines[1:] if line.strip()]
    if len(body) != len(catalog):
        raise PositionMismatch(
            f"index has {len(body)} entries, catalog has {len(catalog)} modules"
        )

    limit = 1 if version == "v0" else MAX_DEPTH_VALUE
    entries = []
    for pos, line in enumerate(body):
        parts = line.split()
        if len(parts) != 2:
            raise PositionMismatch(f"entry {pos}: expected 'name value', got {line!r}")
        name, raw = parts
        if name != catalog.records[pos].name:
            raise PositionMismatch(
                f"entry {pos}: expected module {catalog.records[pos].name!r}, got {name!r}"
            )
        try:
            value = int(raw)
        except ValueError:
            raise ValueOutOfRange(f"entry {pos}: value {raw!r} is not an integer") from None
        if not 0 <= value <= limit:
            raise ValueOutOfRange(
                f"entry {pos}: value {value} outside [0, {limit}] for {version}"
            )
        entries.append((name, value))
    return IndexFile(version, tuple(entries))

