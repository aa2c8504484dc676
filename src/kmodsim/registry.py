"""Index-file registration: selection bits (v0) and dependency-depth bytes (v1).

An index file is positionally aligned with its catalog: line *i* describes
the module at catalog position *i*. Format v0 stores the user's raw
selection as 0/1 flags and defers every other decision to load time. Format
v1 bakes the expensive decisions into registration: a selected module that
passes the hardware check receives its dependency depth (1 = independent,
2-255 = dependent), and every module reachable through its dependencies is
depth-tagged as well, whether or not it was selected itself. Modules that
stay unselected or fail the hardware check keep value 0 and are never swept
in at load time. Registration marks the dependency closure of all roots at
once, with the catalog's own closure walk (``catalog._reach``, which also
propagates ``@base``), and reads each reached module's depth from the levels
the catalog computed when it was parsed, since a module's depth does not
depend on which root reaches it.

The user's selection is any iterable of module names: ``catalog.names`` to
load everything, ``()`` for nothing, the names from a file, or a generator
that asks the user about each name. Registration reads it once, so a
generator that asks is asked once per module, and a name outside the catalog
raises ``UnknownSelection``.

Base-kernel modules are already resident, so they are never registered as
roots; they still receive depth values when a loadable module depends on
them, which keeps the byte ordering rule (dependency value < dependent
value) intact across the whole file.

An ``IndexFile`` holds two columns: ``names``, the catalog's own ``names``
tuple, and ``values``, one int per position. Registration computes the
values with C-level passes over the catalog's columns, ``write_index``
formats the whole file with one ``%``-format, and ``read_index`` returns the
values with the catalog's ``names``.

``read_index`` reads an index in the shape ``write_index`` writes with a few
whole-text string operations and no Python-level work per line. Any other
text goes line by line through ``_read_lines``, which accepts the same
indexes and is the only source of error messages. A value is unsigned ASCII
digits on either path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import mul, not_
from typing import Iterable

from .catalog import ModuleCatalog, _reach
from .errors import (
    DepthOverflow,
    PositionMismatch,
    UnknownSelection,
    ValueOutOfRange,
    VersionMismatch,
)
from .hardware import HardwareInventory

INDEX_HEADERS = {"v0": "MODINDEX v0", "v1": "MODINDEX v1"}
MAX_DEPTH_VALUE = 255
# The largest value each index version stores.
_LIMITS = {"v0": 1, "v1": MAX_DEPTH_VALUE}


@dataclass(frozen=True)
class IndexFile:
    """Per-module registration outcome, aligned 1:1 with catalog positions."""

    version: str
    names: tuple[str, ...]
    values: tuple[int, ...]


def _selection(catalog: ModuleCatalog, selected: Iterable[str]) -> frozenset[str]:
    """The selected names, read once; every one must name a catalog module."""
    if isinstance(selected, str):
        raise UnknownSelection(f"selection is the string {selected!r}, not a collection of names")
    selected = frozenset(selected)
    if not catalog.index_of.keys() >= selected:
        unknown = sorted(selected - catalog.index_of.keys())
        raise UnknownSelection(f"selection names unknown modules: {', '.join(unknown)}")
    return selected


def register_v0(catalog: ModuleCatalog, selected: Iterable[str]) -> IndexFile:
    """Record the selected names as one flag bit per catalog position."""
    flags = dict.fromkeys(_selection(catalog, selected), 1)
    return IndexFile("v0", catalog.names, tuple(map(flags.get, catalog.names, repeat(0))))


def register_v1(
    catalog: ModuleCatalog,
    selected: Iterable[str],
    inventory: HardwareInventory,
) -> IndexFile:
    """Assign dependency-depth bytes to every loadable, supported selection.

    The roots are the selected, non-base modules that pass the hardware
    check, which is asked of those candidates only. One walk over dependency
    positions from all roots marks their transitive dependencies; every
    module it reaches gets its level from the catalog, everything else stays 0.
    """
    selected = _selection(catalog, selected)
    hw_tags = catalog.hw_tags
    candidates = map(mul, map(selected.__contains__, catalog.names), map(not_, catalog.base))
    roots = [pos for pos in compress(range(len(catalog)), candidates)
             if inventory.supports(hw_tags[pos])]
    reached = bytearray(len(catalog))
    _reach(reached, roots, catalog.dep_offsets, catalog.dep_targets)

    depths = tuple(map(mul, catalog.levels, reached))
    if depths and max(depths) > MAX_DEPTH_VALUE:
        position = next(i for i, depth in enumerate(depths) if depth > MAX_DEPTH_VALUE)
        raise DepthOverflow(
            f"module {catalog.names[position]!r} sits at dependency depth "
            f"{depths[position]}; index values top out at {MAX_DEPTH_VALUE}"
        )
    return IndexFile("v1", catalog.names, depths)


def write_index(index: IndexFile) -> str:
    """Render an index file: header plus one ``name value`` line per module."""
    # One C-level %-format of both columns, interleaved by slice assignment.
    fields = [None] * (2 * len(index.names))
    fields[0::2], fields[1::2] = index.names, index.values
    return f"{INDEX_HEADERS[index.version]}\n" + ("%s %s\n" * len(index.names)) % tuple(fields)


def read_index(text: str, catalog: ModuleCatalog) -> IndexFile:
    """Parse an index file and validate positional alignment with the catalog.

    A v1 index must also give every dependency of a nonzero entry a nonzero,
    smaller value, as ``register_v1`` does: stage1 loads each nonzero entry
    after the smaller values and never walks a dependency itself.
    """
    index = _read_canonical(text, catalog)
    if index is None:
        index = _read_lines(text, catalog)
    if index.version == "v1":
        _check_depths(index.values, catalog)
    return index


def _check_depths(values: tuple[int, ...], catalog: ModuleCatalog) -> None:
    """Raise at the first nonzero entry with a dependency valued 0 or not below it."""
    offsets, targets = catalog.dep_offsets, catalog.dep_targets
    for pos in compress(range(len(values)), values):
        value = values[pos]
        for dep in targets[offsets[pos] : offsets[pos + 1]]:
            if not 0 < values[dep] < value:
                raise ValueOutOfRange(
                    f"entry {pos}: module {catalog.names[pos]!r} has value {value}, but its "
                    f"dependency {catalog.names[dep]!r} has {values[dep]}; a v1 dependency "
                    "needs a nonzero, smaller value"
                )


_VERSION_OF_HEADER = {header: version for version, header in INDEX_HEADERS.items()}
# Each version's values as write_index writes them: "0" up to its limit.
_CANONICAL_VALUES = {
    version: {str(value): value for value in range(limit + 1)}
    for version, limit in _LIMITS.items()
}


def _read_canonical(text: str, catalog: ModuleCatalog) -> IndexFile | None:
    """The index of a text in canonical shape, or None to parse it line by line.

    Canonical text is what ``write_index`` writes: the exact header, then one
    ``name value`` line per catalog position, each ending in ``\n``, with the
    catalog's names in order and each value written as ``str`` writes a value
    within the version's limit. ``_read_lines`` would return the same index.
    """
    header, _, body = text.partition("\n")
    version = _VERSION_OF_HEADER.get(header)
    if version is None:
        return None
    count = len(catalog)
    # str.split drops every kind of whitespace and line break, so a body that
    # equals its fields rejoined by single spaces and line ends holds no other.
    fields = body.split()
    if len(fields) != 2 * count or ("%s %s\n" * count) % tuple(fields) != body:
        return None
    if tuple(fields[0::2]) != catalog.names:
        return None
    try:
        values = tuple(map(_CANONICAL_VALUES[version].__getitem__, fields[1::2]))
    except KeyError:
        return None
    return IndexFile(version, catalog.names, values)


def _read_lines(text: str, catalog: ModuleCatalog) -> IndexFile:
    lines = text.splitlines()
    header = lines[0].strip() if lines else ""
    version = _VERSION_OF_HEADER.get(header)
    if version is None:
        raise VersionMismatch(f"unrecognized index header {header!r}")

    body = [line for line in lines[1:] if line.strip()]
    if len(body) != len(catalog):
        raise PositionMismatch(
            f"index has {len(body)} entries, catalog has {len(catalog)} modules"
        )

    limit = _LIMITS[version]
    values = []
    for pos, (line, expected) in enumerate(zip(body, catalog.names)):
        parts = line.split()
        if len(parts) != 2:
            raise PositionMismatch(f"entry {pos}: expected 'name value', got {line!r}")
        name, raw = parts
        if name != expected:
            raise PositionMismatch(
                f"entry {pos}: expected module {expected!r}, got {name!r}"
            )
        # A value is ASCII digits, so int()'s "+1", "1_0" and non-ASCII
        # digits are not values.
        if not (raw.isascii() and raw.isdigit()):
            raise ValueOutOfRange(f"entry {pos}: value {raw!r} is not an integer")
        try:
            value = int(raw)
        except ValueError:  # more digits than int_max_str_digits allows
            raise ValueOutOfRange(f"entry {pos}: value {raw!r} is not an integer") from None
        if not 0 <= value <= limit:
            raise ValueOutOfRange(
                f"entry {pos}: value {value} outside [0, {limit}] for {version}"
            )
        values.append(value)
    return IndexFile(version, catalog.names, tuple(values))
