"""Module catalog: the simulated kernel-modules directory.

Catalog files are newline-delimited records ``name|size_kb|deps|tags`` under
a ``MODCAT v1`` header; ``#`` starts a comment line and empty fields are
allowed. Entries named ``*.symbols`` are helper files, not modules: their
lines are checked for line shape like any other and then dropped, before the
duplicate, unknown-dependency and cycle checks. Surviving records are kept in
bytewise alphabetical name order; a record's position in that order is the
canonical index used by index files and partition plans.

The reserved tag ``@base`` marks a module as part of the base kernel: it can
never be attached dynamically. Because a non-isolatable region cannot depend
on something that is absent until attached, base status propagates to every
transitive dependency of a ``@base`` module.

Parsing costs O(modules + edges): one scan of the text, then one forward pass
over the records in file order, which yields every module's level when the
file lists each module after all of its dependencies (every generated file
does). A file that lists a dependent first, or has a cycle, stops that pass at
the first dependency not yet placed; one depth-first walk over dependency
positions then lists each after its dependencies, and the pass runs again in
that order. So the pass places every level and finds every repeated
dependency on both paths, and the walk only orders. It is the only search
for cycles: it proves the graph acyclic or names its first cycle, so neither
a level nor an error depends on the order of the records. A file whose
record lines all have the canonical shape is scanned with one regular
expression and split into columns in bulk; any other file goes through
``_parse_record`` line by line, with the same result, and that parser is the
only source of ``MalformedRecord`` messages. A size is unsigned ASCII digits
on either path. Each record's dependencies stay one comma-joined text until
all of them are resolved at once, so the scan builds no container per record
but its tag tuple. A name repeated within one record's dependencies is found
by the level pass, which reads every dependency anyway, and only that
record's run is rebuilt to keep each name's first mention.
"""

from __future__ import annotations

import re
import string
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import accumulate, compress
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from .errors import (
    CircularDependency,
    DuplicateModule,
    MalformedRecord,
    UnknownDependency,
)

CATALOG_HEADER = "MODCAT v1"
BASE_TAG = "@base"
SYMBOLS_SUFFIX = ".symbols"

# The characters a module name may hold, spelled once: the name pattern, the
# name check and the comma count in _assemble are built from them.
_NAME_CHARS = string.ascii_letters + string.digits + "._-"
_NAME = f"[{re.escape(_NAME_CHARS)}]+"
_NAME_RE = re.compile(rf"^{_NAME}$")
_DELETE_NAME_CHARS = str.maketrans("", "", _NAME_CHARS)
# A size, or a trace's timestamp or worker, in canonical form: at most 640
# ASCII digits, which int() converts under any int_max_str_digits setting.
_DIGITS = r"[0-9]{1,640}"

# A body line in canonical form: a record whose name and dependencies are
# _NAMEs, whose size is _DIGITS and whose lists have no empty item and no
# whitespace; or a comment; or an empty line. ``\s`` matches exactly what
# str.isspace accepts, which covers every line break str.splitlines honours,
# so a body of such lines splits the same way on "\n" alone, and
# _parse_record would return the same fields for each record line. The one
# group captures a record line whose name does not end in ".symbols"; a
# *.symbols record, a comment or an empty line matches with the group empty.
_ITEM = r"[^\s|,]+"
_REST = rf"\|{_DIGITS}\|(?:{_NAME}(?:,{_NAME})*)?\|(?:{_ITEM}(?:,{_ITEM})*)?"
_CANONICAL_LINE_RE = re.compile(
    rf"^(?:({_NAME}(?<!{re.escape(SYMBOLS_SUFFIX)}){_REST})|{_NAME}{_REST}"
    rf"|#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*|)$",
    re.MULTILINE,
)


@dataclass(frozen=True)
class ModuleRecord:
    """One loadable module: name, size, dependencies, device-match tags."""

    name: str
    size_kb: int
    deps: tuple[str, ...] = ()
    hw_tags: tuple[str, ...] = ()
    base_kernel_only: bool = False


class ModuleCatalog:
    """Immutable, alphabetically ordered module set with a validated DAG.

    Safe for concurrent reads. Every fact is a column indexed by catalog
    position: ``names``, ``sizes``, ``hw_tags`` (``@base`` excluded), ``base``
    (resident, never attached), the flat dependency positions
    ``dep_offsets``/``dep_targets`` (module ``i`` depends on
    ``dep_targets[dep_offsets[i]:dep_offsets[i + 1]]``, in ``deps`` order),
    ``levels`` (1 without dependencies, else one more than the deepest
    dependency) and ``index_of``. Dependency positions are kept flat, in two
    tuples of ints, so a catalog holds no container per module beyond its tag
    tuples.

    The constructor accepts a record only when its catalog file line parses
    back to the same fields (lists read as tuples), so every catalog it
    builds can be written out and read again; ``MalformedRecord`` names the
    record that cannot. ``*.symbols`` records are dropped by whichever source
    reads them. ``parse_catalog`` and the constructor build the columns in one
    place, ``_assemble``: records are sorted by name, repeated dependencies
    are kept once, ``@base`` propagates to every transitive dependency, and
    duplicates, unknown dependencies and cycles raise. ``records`` builds one
    ``ModuleRecord`` per position from the columns on first access; equality
    and hashing compare columns.
    """

    names: tuple[str, ...]
    sizes: tuple[int, ...]
    hw_tags: tuple[tuple[str, ...], ...]
    base: tuple[bool, ...]
    index_of: dict[str, int]
    dep_targets: tuple[int, ...]
    dep_offsets: tuple[int, ...]
    levels: tuple[int, ...]

    def __init__(self, records: Iterable[ModuleRecord]):
        vars(self).update(vars(_assemble(*_columns(map(_record_fields, records)))))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def _columns(self) -> tuple:
        return (
            self.names, self.sizes, self.hw_tags, self.base, self.dep_offsets, self.dep_targets
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleCatalog):
            return NotImplemented
        return self._columns() == other._columns()

    def __hash__(self) -> int:
        return hash(self._columns())

    def __repr__(self) -> str:
        return f"ModuleCatalog(records={self.records!r})"

    def __len__(self) -> int:
        return len(self.names)

    @cached_property
    def records(self) -> tuple[ModuleRecord, ...]:
        """One record per position, built from the columns."""
        names, offsets, targets = self.names, self.dep_offsets, self.dep_targets
        deps = (
            tuple(names[dep] for dep in targets[start:end])
            for start, end in zip(offsets, offsets[1:])
        )
        return tuple(map(ModuleRecord, names, self.sizes, deps, self.hw_tags, self.base))


def parse_catalog(text: str) -> ModuleCatalog:
    """Parse catalog text into a validated, alphabetically ordered catalog.

    ``*.symbols`` entries are discarded once their lines parse; duplicates,
    unknown dependencies and dependency cycles are rejected. The result does
    not depend on the order of records in the input.
    """
    columns = _scan_canonical(text)
    return _assemble(*(_scan_lines(text) if columns is None else columns))


def serialize_catalog(catalog: ModuleCatalog) -> str:
    """Render a catalog back to file form (records in canonical order)."""
    lines = [CATALOG_HEADER]
    lines.extend(map(_record_line, catalog.records))
    return "\n".join(lines) + "\n"


# One parsed record's ModuleRecord fields, before @base status has propagated.
_Fields = tuple[str, int, tuple[str, ...], tuple[str, ...], bool]
# The fields of every parsed record but the *.symbols ones, one sequence per
# field, in file order; each record's dependencies are one comma-joined run.
_Columns = tuple[
    Sequence[str],
    Sequence[int],
    Sequence[str],
    Sequence[tuple[str, ...]],
    Sequence[bool],
]


def _record_line(record: ModuleRecord) -> str:
    """A record as its catalog file line."""
    # str() lets an item of another type reach _record_fields's comparison.
    tags = (*record.hw_tags, BASE_TAG) if record.base_kernel_only else record.hw_tags
    deps, tags = ",".join(map(str, record.deps)), ",".join(map(str, tags))
    return f"{record.name}|{record.size_kb}|{deps}|{tags}"


def _record_fields(record: ModuleRecord) -> _Fields:
    """A directly built record's fields, as its catalog file line parses them."""
    for field, value in (("deps", record.deps), ("hw_tags", record.hw_tags)):
        # A string is a sequence of one-letter names; its line would read back.
        if isinstance(value, str):
            raise MalformedRecord(
                f"record {record!r}: {field} is a string, not a sequence of names"
            )
    line = _record_line(record)
    # A file splits at every line break, so a field holding one would read
    # back cut short.
    fields = _parse_record(line.splitlines()[0], f"record {record!r}")
    given = (
        record.name,
        record.size_kb,
        tuple(record.deps),
        tuple(record.hw_tags),
        record.base_kernel_only,
    )
    if fields != given:
        raise MalformedRecord(
            f"record {record!r}: its catalog line {line!r} reads back as {fields!r}"
        )
    return fields


def _scan_canonical(text: str) -> _Columns | None:
    """The records of a file in canonical shape, or None to parse it line by line."""
    header, _, body = text.partition("\n")
    if header != CATALOG_HEADER:
        return None
    lines = _CANONICAL_LINE_RE.findall(body)
    if len(lines) != body.count("\n") + 1:
        return None
    # Each captured record line has exactly four fields, so the joined
    # records split into four fields per record. Plain strings keep this scan
    # from allocating a container per record that the garbage collector tracks.
    records = "|".join(filter(None, lines))
    fields = records.split("|") if records else []
    names, sizes, runs, tags = (fields[i::4] for i in range(4))
    hw_tags = [tuple(t.split(",")) if t else () for t in tags]
    base = [False] * len(hw_tags)
    # Only a tag can hold the "@" of the base tag.
    if BASE_TAG in records:
        for i in [i for i, t in enumerate(tags) if BASE_TAG in t]:
            hw_tags[i], base[i] = _tag_fields(hw_tags[i])
    return names, list(_ints(sizes)), runs, hw_tags, base


def _scan_lines(text: str) -> _Columns:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CATALOG_HEADER:
        raise MalformedRecord(f"catalog must start with a '{CATALOG_HEADER}' header line")

    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(_parse_record(stripped, f"line {lineno}"))
    return _columns(rows)


def _columns(rows: Iterable[_Fields]) -> _Columns:
    """The columns of parsed records, ``*.symbols`` rows dropped and runs joined."""
    rows = [row for row in rows if not row[0].endswith(SYMBOLS_SUFFIX)]
    if not rows:
        return [()] * 5
    names, sizes, deps, hw_tags, base = zip(*rows)
    return names, sizes, list(map(",".join, deps)), hw_tags, base


def _parse_record(line: str, where: str) -> _Fields:
    # ``where`` leads every message: the line number, or a record built directly.
    parts = line.split("|")
    if len(parts) != 4:
        raise MalformedRecord(
            f"{where}: expected 4 '|'-separated fields, got {len(parts)}"
        )
    name = parts[0].strip()
    if not _NAME_RE.match(name):
        raise MalformedRecord(f"{where}: bad module name {name!r}")

    # A size is ASCII digits, so int()'s "+5", "1_0" and non-ASCII digits
    # are not sizes; a leading "-" on digits is reported as a negative size.
    size_text = parts[1].strip()
    negative = size_text.startswith("-")
    digits = size_text[1:] if negative else size_text
    if not (digits.isascii() and digits.isdigit()):
        raise MalformedRecord(f"{where}: size must be an integer, got {size_text!r}")
    if negative:
        raise MalformedRecord(f"{where}: negative size {size_text}")
    try:
        size_kb = int(size_text)
    except ValueError:  # more digits than int_max_str_digits allows
        raise MalformedRecord(
            f"{where}: size must be an integer, got {size_text!r}"
        ) from None

    deps = tuple(_split_list(parts[2]))
    for dep in deps:
        if not _NAME_RE.match(dep):
            raise MalformedRecord(f"{where}: bad dependency name {dep!r}")

    return (name, size_kb, deps, *_tag_fields(_split_list(parts[3])))


def _tag_fields(tags: list[str]) -> tuple[tuple[str, ...], bool]:
    """A record's device tags and whether it carries the base tag."""
    if BASE_TAG in tags:
        return tuple(t for t in tags if t != BASE_TAG), True
    return tuple(tags), False


def _split_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _ints(texts: list[str]) -> Iterator[int]:
    """The int of each text, converting each distinct text once."""
    distinct = set(texts)
    return map(dict(zip(distinct, map(int, distinct))).__getitem__, texts)


def _assemble(names, sizes, runs, hw_tags, base) -> ModuleCatalog:
    """Validate parsed records and build the catalog with its graph facts."""
    # UTF-8 keeps code point order, so str order is the bytewise order.
    keep = sorted(range(len(names)), key=names.__getitem__)
    index_of = dict(zip(map(names.__getitem__, keep), range(len(keep))))
    if len(index_of) != len(keep):
        # The message names the first repeat in file order.
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise DuplicateModule(f"module {name!r} appears more than once")
            seen.add(name)

    # Positions in file order.
    order = map(index_of.__getitem__, names)
    names, sizes, runs, hw_tags = (
        tuple(map(column.__getitem__, keep)) for column in (names, sizes, runs, hw_tags)
    )
    base = list(map(base.__getitem__, keep))
    targets = _resolve(names, runs, index_of)
    # A run of n names holds n - 1 commas; deleting every name character
    # leaves each run's commas, which split apart at the runs' separators.
    commas = "|".join(runs).translate(_DELETE_NAME_CHARS).split("|")
    offsets = tuple(accumulate(map(add, map(bool, runs), map(len, commas)), initial=0))
    placed = _levels_in_order(order, offsets, targets, len(names))
    if placed is None:
        order = _walk_order(names, offsets, targets)
        placed = _levels_in_order(order, offsets, targets, len(names))
    levels, repeated = placed
    if repeated:
        offsets, targets = _first_mentions(repeated, offsets, targets)
    _reach(base, compress(range(len(base)), base), offsets, targets)

    # The records are left to be built if ever read.
    catalog = ModuleCatalog.__new__(ModuleCatalog)
    vars(catalog).update(
        names=names,
        sizes=sizes,
        hw_tags=hw_tags,
        base=tuple(base),
        index_of=index_of,
        dep_targets=targets,
        dep_offsets=offsets,
        levels=levels,
    )
    return catalog


def _resolve(names, runs, index_of: dict[str, int]) -> tuple[int, ...]:
    joined = ",".join(filter(None, runs))
    try:
        return tuple(map(index_of.__getitem__, joined.split(","))) if joined else ()
    except KeyError as missing:
        # The first record holding the unknown name is the one that raised.
        dep = missing.args[0]
        name = next(name for name, run in zip(names, runs) if dep in run.split(","))
        raise UnknownDependency(
            f"module {name!r} depends on unknown module {dep!r}"
        ) from None


def _levels_in_order(
    order: Iterable[int], offsets: tuple[int, ...], targets: tuple[int, ...], count: int
) -> tuple[tuple[int, ...], list[int]] | None:
    # The only routine that computes a level: one forward pass over the
    # positions in ``order``, file order or else the walk's. When the file
    # lists every module after all of its dependencies, as every generated
    # file does, that order is topological (Kahn 1962) and each level follows
    # from levels already placed. At the first dependency not yet placed
    # (level 0) the pass gives up and returns None: the file lists a dependent
    # first, or the graph has a cycle. Otherwise it returns the levels and the
    # positions whose run names a dependency twice: ``seen[dep]`` holds the
    # last position whose run named ``dep`` (-1 for none yet). A repeat never
    # changes a level, so the pass notes it and goes on.
    levels = [0] * count
    seen = [-1] * count
    repeated = []
    for pos in order:
        deepest = 0
        for dep in targets[offsets[pos] : offsets[pos + 1]]:
            level = levels[dep]
            if level > deepest:
                deepest = level
            elif not level:
                return None
            if seen[dep] == pos:
                repeated.append(pos)
            seen[dep] = pos
        levels[pos] = deepest + 1
    return tuple(levels), repeated


def _first_mentions(
    repeated: list[int], offsets: tuple[int, ...], targets: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The offsets and targets with the runs at the ``repeated`` positions
    # keeping each dependency's first mention only; every other run's slice
    # is copied whole.
    lengths = list(map(sub, offsets[1:], offsets))
    kept = []
    start = 0
    for pos in sorted(set(repeated)):
        kept += targets[start : offsets[pos]]
        run = dict.fromkeys(targets[offsets[pos] : offsets[pos + 1]])
        kept += run
        lengths[pos] = len(run)
        start = offsets[pos + 1]
    kept += targets[start:]
    return tuple(accumulate(lengths, initial=0)), tuple(kept)


def _walk_order(names, offsets: tuple[int, ...], targets: tuple[int, ...]) -> list[int]:
    # Every position listed after all of its dependencies, and the only cycle
    # search: one depth-first walk (Tarjan 1972) from each position in order,
    # taking dependencies in ``deps`` order. ``state`` is 0 until the walk
    # reaches a position, 1 while it is on the path (the stack) and 2 once it
    # is listed; ``resume`` keeps each path position's next dependency entry.
    # The first cycle found is reported rotated so that its smallest name
    # leads (names are ASCII, so str order is bytewise order).
    state = bytearray(len(names))
    resume = list(offsets)
    order = []
    for root in range(len(names)):
        if state[root]:
            continue
        state[root] = 1
        stack = [root]
        while stack:
            pos = stack[-1]
            for entry in range(resume[pos], offsets[pos + 1]):
                dep = targets[entry]
                mark = state[dep]
                if mark == 2:
                    continue
                if mark:
                    cycle = [names[i] for i in stack[stack.index(dep) :]]
                    pivot = cycle.index(min(cycle))
                    raise CircularDependency(cycle[pivot:] + cycle[:pivot])
                state[dep] = 1
                resume[pos] = entry + 1
                stack.append(dep)
                break
            else:
                state[pos] = 2
                order.append(pos)
                stack.pop()
    return order


def _reach(
    reached, roots: Iterable[int], offsets: tuple[int, ...], targets: tuple[int, ...]
) -> None:
    """Mark each root and each of its transitive dependencies in ``reached``, a
    list of bools or a bytearray: the one closure walk, for ``@base`` and v1."""
    stack = list(roots)
    for pos in stack:
        reached[pos] = True
    while stack:
        pos = stack.pop()
        for dep in targets[offsets[pos] : offsets[pos + 1]]:
            if not reached[dep]:
                reached[dep] = True
                stack.append(dep)
