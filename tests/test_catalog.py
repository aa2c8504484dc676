"""Catalog parsing, ordering, and the dependency-depth computation."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kmodsim import catalog as catalog_module
from kmodsim.catalog import (
    ModuleCatalog,
    ModuleRecord,
    _assemble,
    _scan_canonical,
    _scan_lines,
    parse_catalog,
    serialize_catalog,
)
from kmodsim.errors import (
    CircularDependency,
    DuplicateModule,
    KmodsimError,
    MalformedRecord,
    UnknownDependency,
)
from kmodsim.fixtures import generate_fixture
from kmodsim.hardware import HardwareInventory
from kmodsim.loader import StrategyConfig, format_trace, parse_trace, run_strategy
from kmodsim.registry import read_index, register_v0, write_index

from conftest import (
    LINE_BREAKS,
    brute_force_levels,
    catalog_texts,
    make_catalog,
    maybe_cyclic_catalog_texts,
    reference_base,
    reference_levels_or_cycle,
)


class TestParse:
    def test_records_sorted_regardless_of_file_order(self):
        catalog = make_catalog("b|10||", "a|5|b|")
        assert catalog.names == ("a", "b")
        assert catalog.records[catalog.index_of["a"]].deps == ("b",)

    def test_symbols_entries_are_dropped(self):
        catalog = make_catalog("a|5||", "a.symbols|1||")
        assert catalog.names == ("a",)

    def test_smallest_cycle_is_reported(self):
        with pytest.raises(CircularDependency) as err:
            make_catalog("a|1|b|", "b|1|a|")
        assert err.value.cycle == ["a", "b"]

    def test_self_dependency_is_a_cycle(self):
        with pytest.raises(CircularDependency) as err:
            make_catalog("a|1|a|")
        assert err.value.cycle == ["a"]

    def test_duplicate_module_rejected(self):
        with pytest.raises(DuplicateModule):
            make_catalog("a|1||", "a|2||")

    def test_unknown_dependency_rejected(self):
        with pytest.raises(UnknownDependency):
            make_catalog("a|1|ghost|")

    def test_dependency_on_symbols_entry_is_unknown(self):
        with pytest.raises(UnknownDependency):
            make_catalog("a|1|b.symbols|", "b.symbols|1||")

    @pytest.mark.parametrize(
        "line",
        [
            "a|1|",  # too few fields
            "a|1|||extra",  # too many fields
            "|1||",  # empty name
            "a b|1||",  # whitespace in name
            "a|x||",  # size not an integer
            "a|-3||",  # negative size
        ],
    )
    def test_malformed_records(self, line):
        with pytest.raises(MalformedRecord):
            make_catalog(line)

    # int() also reads a sign, digit-group underscores and non-ASCII digits.
    @pytest.mark.parametrize("size", ["+5", "1_0", " +5 ", "٣", "２", "-٣"])
    def test_sizes_are_unsigned_ascii_digits(self, size):
        with pytest.raises(MalformedRecord) as err:
            parse_catalog(f"MODCAT v1\na|{size}||\n")
        assert str(err.value) == f"line 2: size must be an integer, got {size.strip()!r}"

    @pytest.mark.parametrize("size, message", [("-3", "negative size -3"), ("-0", "negative size -0")])
    def test_a_signed_size_is_negative(self, size, message):
        with pytest.raises(MalformedRecord, match=f"^line 2: {message}$"):
            parse_catalog(f"MODCAT v1\na|{size}||\n")

    def test_sizes_keep_their_leading_zeros_and_padding(self):
        assert parse_catalog("MODCAT v1\na| 007 ||\n").sizes == (7,)

    def test_missing_header(self):
        with pytest.raises(MalformedRecord):
            parse_catalog("a|1||\n")

    def test_comments_and_blank_lines_ignored(self):
        catalog = parse_catalog("MODCAT v1\n# note\n\na|1||\n")
        assert catalog.names == ("a",)

    @pytest.mark.parametrize(
        "text", ["MODCAT v1", "MODCAT v1\n", "MODCAT v1\n# only a note\n\n", "MODCAT v1\na.symbols|1||\n"]
    )
    def test_catalog_without_modules_is_empty(self, text):
        catalog = parse_catalog(text)
        assert catalog.records == () and catalog.levels == ()

    def test_sort_is_bytewise(self):
        # 'B' (0x42) sorts before 'a' (0x61); a locale-aware sort would not.
        catalog = make_catalog("a|1||", "B|1||")
        assert catalog.names == ("B", "a")

    def test_base_tag_sets_flag_and_leaves_hw_tags(self):
        catalog = make_catalog("a|1||e1000,@base")
        rec = catalog.records[catalog.index_of["a"]]
        assert rec.base_kernel_only
        assert rec.hw_tags == ("e1000",)

    def test_base_status_propagates_to_dependencies(self):
        catalog = make_catalog("core|9|lib|@base", "lib|3||", "app|2|lib|")
        assert catalog.records[catalog.index_of["lib"]].base_kernel_only
        assert not catalog.records[catalog.index_of["app"]].base_kernel_only


@st.composite
def base_tagged_texts(draw) -> tuple[str, str]:
    """A ``catalog_texts`` catalog with a few records tagged ``@base``, and the
    same records in a random order."""
    header, *lines = draw(catalog_texts()).splitlines()
    for i in draw(st.sets(st.integers(0, len(lines) - 1), max_size=3)):
        lines[i] += ",@base" if lines[i].split("|")[3] else "@base"
    shuffled = draw(st.permutations(lines))
    return "\n".join([header, *lines]) + "\n", "\n".join([header, *shuffled]) + "\n"


class TestBaseClosure:
    """``base`` against a closure over the raw record text, not one-hop examples."""

    def test_random_cases_match_the_reference(self, random_case_texts, random_cases):
        propagated = 0
        for (text, _), (catalog, _) in zip(random_case_texts, random_cases):
            assert dict(zip(catalog.names, catalog.base)) == reference_base(text)
            propagated += sum(catalog.base) > text.count("@base")
        # Most cases have a base module that is not tagged itself.
        assert propagated > 400, propagated

    @settings(max_examples=200, deadline=None)
    @given(case=base_tagged_texts())
    def test_file_order_and_shuffled_match_the_reference(self, case):
        for text in case:
            catalog = parse_catalog(text)
            assert dict(zip(catalog.names, catalog.base)) == reference_base(text)


class TestTopoLevels:
    def test_leaf_module(self):
        catalog = make_catalog("a|1||")
        assert catalog.levels == (1,)

    def test_chain_matches_path_enumeration(self):
        catalog = make_catalog("c|1|b|", "b|1|a|", "a|1||")
        expected = (1, 2, 3)  # a, b, c; frozen from brute_force_levels
        assert brute_force_levels(catalog) == expected
        assert catalog.levels == expected

    def test_diamond_matches_path_enumeration(self):
        catalog = make_catalog("d|1|b,c|", "b|1|a|", "c|1|a|", "a|1||")
        expected = (1, 2, 2, 3)  # a, b, c, d; frozen from brute_force_levels
        assert brute_force_levels(catalog) == expected
        assert catalog.levels == expected

    def test_long_chain_does_not_recurse(self):
        names = [f"c{i:04d}" for i in range(2000)]
        lines = [f"{names[0]}|1||"]
        lines.extend(f"{n}|1|{p}|" for p, n in zip(names, names[1:]))
        catalog = make_catalog(*lines)
        assert catalog.levels[catalog.index_of[names[-1]]] == 2000

    @settings(max_examples=100, deadline=None)
    @given(text=catalog_texts(max_modules=10))
    def test_agrees_with_brute_force(self, text):
        catalog = parse_catalog(text)
        assert catalog.levels == brute_force_levels(catalog)
        assert ModuleCatalog(catalog.records).levels == brute_force_levels(catalog)

    @settings(max_examples=300, deadline=None)
    @given(text=maybe_cyclic_catalog_texts())
    def test_levels_or_first_cycle_match_a_recursive_walk(self, text):
        expected = reference_levels_or_cycle(text)
        if isinstance(expected, list):
            with pytest.raises(CircularDependency) as err:
                parse_catalog(text)
            assert err.value.cycle == expected
        else:
            assert parse_catalog(text).levels == expected

    def test_long_cycle_is_named_without_recursion(self):
        names = [f"c{i:04d}" for i in range(2000)]
        lines = [f"{names[0]}|1|{names[-1]}|"]
        lines.extend(f"{n}|1|{p}|" for p, n in zip(names, names[1:]))
        with pytest.raises(CircularDependency) as err:
            make_catalog(*lines)
        # c0000 -> c1999 -> c1998 -> ... -> c0001 -> c0000
        assert err.value.cycle == names[:1] + names[:0:-1]

    @pytest.mark.parametrize(
        "records, cycle",
        [
            ((ModuleRecord("a", 1, ("b",)), ModuleRecord("b", 1, ("a",))), ["a", "b"]),
            ((ModuleRecord("a", 1, ("a",)),), ["a"]),
        ],
        ids=["two-cycle", "self-loop"],
    )
    def test_cycle_in_a_directly_built_catalog_is_rejected(self, records, cycle):
        with pytest.raises(CircularDependency) as err:
            ModuleCatalog(records)
        assert err.value.cycle == cycle

    def test_unknown_dependency_in_a_directly_built_catalog_is_rejected(self):
        with pytest.raises(UnknownDependency, match="module 'a' depends on unknown module 'ghost'"):
            ModuleCatalog((ModuleRecord("a", 1, ("ghost",)),))

    @settings(max_examples=100, deadline=None)
    @given(text=catalog_texts())
    def test_every_dependency_sits_strictly_lower(self, text):
        catalog = parse_catalog(text)
        levels = catalog.levels
        for rec, level in zip(catalog.records, levels):
            for dep in rec.deps:
                assert levels[catalog.index_of[dep]] < level


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(text=catalog_texts())
    def test_round_trip(self, text):
        catalog = parse_catalog(text)
        assert parse_catalog(serialize_catalog(catalog)) == catalog

    @settings(max_examples=100, deadline=None)
    @given(text=catalog_texts(), seed=st.integers(0, 2**32))
    def test_record_order_is_irrelevant(self, text, seed):
        header, *body = text.splitlines()
        random.Random(seed).shuffle(body)
        shuffled = "\n".join([header] + body) + "\n"
        assert parse_catalog(shuffled) == parse_catalog(text)

    @settings(max_examples=50, deadline=None)
    @given(text=catalog_texts())
    def test_symbols_decoys_never_change_the_result(self, text):
        lines = text.splitlines()
        with_decoys = "\n".join(lines + ["zzz.symbols|7||", "m00.symbols|1||"]) + "\n"
        assert parse_catalog(with_decoys) == parse_catalog(text)

    def test_serialized_base_modules_round_trip_the_propagation(self):
        catalog = make_catalog("core|9|lib|@base", "lib|3||")
        again = parse_catalog(serialize_catalog(catalog))
        assert again == catalog
        assert again.records[again.index_of["lib"]].base_kernel_only


def test_record_defaults():
    rec = ModuleRecord(name="a", size_kb=0)
    assert rec.deps == () and rec.hw_tags == () and not rec.base_kernel_only


# -- one-pass parsing ----------------------------------------------------

PADDING = ("", " ", "\t", "\xa0", "\u3000")


@st.composite
def catalog_variants(draw) -> tuple[str, bool]:
    """Catalog text and whether it is in canonical shape.

    Canonical text keeps to what the one-pass scan accepts, including sizes
    with leading zeros, repeated dependencies, comments, empty lines,
    ``.symbols`` rows and ``@base`` tags. Other text also pads fields and
    list items with whitespace, leaves list items empty, writes sizes as
    ``+5``, ``1_0`` or non-ASCII digits, adds malformed lines and uses
    every line break. Dependencies mostly point at earlier modules, but can
    repeat a name, point at a later one (a possible cycle) or at no module.
    """
    canonical = draw(st.booleans())
    n = draw(st.integers(1, 8))
    names = [f"m{i}" for i in range(n)]

    def deviate():
        # Rare, so that some texts hold a single non-canonical detail.
        return not canonical and draw(st.integers(0, 19)) == 7

    def pad():
        return draw(st.sampled_from(PADDING[1:])) if deviate() else ""

    def items(values):
        values = list(values)
        if deviate():
            values.insert(draw(st.integers(0, len(values))), "")
        return ",".join(pad() + value + pad() for value in values)

    lines = []
    for i in range(n):
        pool = names[:i] or names
        if draw(st.integers(0, 9)) == 0:
            pool = names + ["ghost"]
        deps = draw(st.lists(st.sampled_from(pool), max_size=3)) if i or draw(st.booleans()) else []
        tags = draw(st.lists(st.sampled_from(["dev-a", "@base", "e1000", "x@basey"]), max_size=2))
        size = draw(st.integers(0, 99))
        sizes = [str(size), f"{size:03d}"]
        if deviate():
            sizes = [f"+{size}", f"{size}_0", "\u0663", f" {size} "]
        size_text = draw(st.sampled_from(sizes))
        name = names[0] if draw(st.integers(0, 19)) == 7 else names[i]  # rarely a duplicate
        lines.append(f"{pad()}{name}{pad()}|{size_text}|{items(deps)}|{items(tags)}{pad()}")
    extras = ["", "# note", f"{names[0]}.symbols|1|ghost|"]
    if not canonical:
        extras += ["   ", "  # note", "# a\x85b|1||", "bad line", "a|x||", "a|-1||", "a|1|b c|"]
    for extra in draw(st.lists(st.sampled_from(extras), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)

    text = "MODCAT v1"
    for line in lines + [""] * draw(st.integers(0, 1)):
        text += (draw(st.sampled_from(LINE_BREAKS)) if deviate() else "\n") + line
    return text, canonical


# The position-indexed columns every catalog exposes.
COLUMNS = (
    "names", "sizes", "hw_tags", "base", "index_of", "dep_offsets", "dep_targets", "levels",
)


def outcome(parse, text):
    try:
        catalog = parse(text)
    except KmodsimError as err:
        return type(err), str(err)
    return catalog.records, catalog.dep_offsets, catalog.dep_targets, catalog.levels


class TestOnePassParse:
    @settings(max_examples=400, deadline=None)
    @given(case=catalog_variants())
    @example(("MODCAT v1\na|1||dev-a \n", False))
    @example(("MODCAT v1\na|1||Realtek 8168\n", False))
    @example(("MODCAT v1\na|1| b|\nb|1||\n", False))
    @example(("MODCAT v1\na|1|b,,b|\nb|1||\n", False))
    @example(("MODCAT v1\na|+5||\n", False))
    @example(("MODCAT v1\na|1_0||\n", False))
    @example(("MODCAT v1\na|\u0663||\n", False))
    @example(("MODCAT v1\n  # note\n \na|1||\n", False))
    @example(("MODCAT v1\n# a\x85b|1|c|\n", False))
    @example(("MODCAT v1\r\na|1||\r\n", False))
    @example(("MODCAT v1\na|1||x\u2028b|1||\n", False))
    def test_matches_the_per_line_path(self, case):
        text, canonical = case
        assert outcome(parse_catalog, text) == outcome(lambda t: _assemble(*_scan_lines(t)), text)
        if canonical:
            assert _scan_canonical(text) is not None

    @settings(max_examples=200, deadline=None)
    @given(case=catalog_variants())
    def test_columns_equal_those_of_a_catalog_built_from_the_records(self, case):
        text, _ = case
        try:
            parsed = parse_catalog(text)
        except KmodsimError:
            assume(False)
        assert parsed.records == _assemble(*_scan_lines(text)).records
        direct = ModuleCatalog(parsed.records)
        for column in COLUMNS:
            assert getattr(direct, column) == getattr(parsed, column), column

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["canonical", "per-line"])
    def test_parsing_builds_no_module_record(self, line_end, record_count):
        catalog_text, _ = generate_fixture(5000, 16, 1, 1.0)
        text = catalog_text.replace("\n", line_end)
        assert (_scan_canonical(text) is None) == (line_end != "\n")
        catalog = parse_catalog(text)
        assert len(catalog) == 5000 and catalog.levels
        assert record_count.n == 0
        # Built from the columns on first access, and only then.
        assert catalog.records[catalog.index_of[catalog.names[-1]]] is catalog.records[-1]
        assert record_count.n == 5000
        assert len(catalog.records) == 5000 and record_count.n == 5000

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=ascii)
    @pytest.mark.parametrize("line", ["# note", "a|1||dev", "a|1|b|"])
    def test_every_line_break_ends_a_line(self, line, brk):
        text = f"MODCAT v1\n{line}{brk}b|2||\n"
        assert outcome(parse_catalog, text) == outcome(lambda t: _assemble(*_scan_lines(t)), text)
        assert parse_catalog(text).names[-1] == "b"

    # Messages as the per-line parser gave them before the one-pass scan.
    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("MODCAT v1\n# note\na|1||\nb|x||\n", MalformedRecord,
             "line 4: size must be an integer, got 'x'"),
            ("MODCAT v1\r\n\r\na|1||\r\nb|1|a\r\n", MalformedRecord,
             "line 4: expected 4 '|'-separated fields, got 3"),
            ("MODCAT v1\na|1||\na|1||\nbad\n", MalformedRecord,
             "line 4: expected 4 '|'-separated fields, got 1"),
            ("MODCAT v1\na|" + "9" * 5000 + "||\n", MalformedRecord,
             "line 2: size must be an integer, got '" + "9" * 5000 + "'"),
            ("MODCAT v1\nb|1||\na|1||\nb|2||\na|3||\n", DuplicateModule,
             "module 'b' appears more than once"),
            ("MODCAT v1\nz|1|ghost|\na|1||\na|1||\n", DuplicateModule,
             "module 'a' appears more than once"),
            ("MODCAT v1\nb|1|ghost|\na|1|phantom|\n", UnknownDependency,
             "module 'a' depends on unknown module 'phantom'"),
            ("MODCAT v1\na|1|b|\nb|1|a|\nc|1|ghost|\n", UnknownDependency,
             "module 'c' depends on unknown module 'ghost'"),
            ("MODCAT v1\nc|1|b|\nb|1|a|\na|1|c|\nd|1|a|\n", CircularDependency,
             "dependency cycle: a -> c -> b"),
            ("MODCAT v1\n c | 1 | b |\nb|1|c|\n", CircularDependency,
             "dependency cycle: b -> c"),
            ("a|1||\n", MalformedRecord,
             "catalog must start with a 'MODCAT v1' header line"),
            ("\rMODCAT v1\na|1||\n", MalformedRecord,
             "catalog must start with a 'MODCAT v1' header line"),
        ],
        ids=[
            "malformed", "malformed-crlf", "malformed-before-duplicate", "oversized-size",
            "duplicate", "duplicate-before-unknown", "unknown", "unknown-before-cycle",
            "cycle", "cycle-padded", "missing-header", "header-after-cr",
        ],
    )
    def test_error_messages_are_pinned(self, text, error, message):
        with pytest.raises(error) as err:
            parse_catalog(text)
        assert str(err.value) == message

    def test_canonical_catalog_skips_the_per_line_parser_and_the_cycle_search(self, count_calls):
        # A generated file lists every module after its dependencies, so one
        # pass in file order gives the levels and the walk, the only cycle
        # search, never runs.
        calls = count_calls(catalog_module, "_parse_record", "_levels_in_order", "_walk_order")
        catalog_text, _ = generate_fixture(20_000, 16, 1, 1.0)
        assert len(parse_catalog(catalog_text)) == 20_000
        assert calls == {"_parse_record": 0, "_levels_in_order": 1, "_walk_order": 0}


def _late_dependency(text: str) -> str:
    """``text`` with its first record line, which a later record depends on, moved last."""
    lines = text.splitlines()
    first = next(line for line in lines[1:] if not line.startswith("#"))
    lines.remove(first)
    name = first.split("|")[0]
    assert any(name in line.split("|")[2].split(",") for line in lines[1:] if "|" in line)
    return "\n".join([*lines, first]) + "\n"


@st.composite
def shuffled_catalog_texts(draw) -> tuple[str, str]:
    """A ``catalog_texts`` catalog and the same records in a random order.

    One record may first gain a dependency on a later module (a cycle when
    that module reaches it), on itself or on an unknown module.
    """
    header, *lines = draw(catalog_texts(max_modules=12)).splitlines()
    names = [line.split("|")[0] for line in lines]
    dep = draw(st.sampled_from([None, "ghost", *names]))
    if dep is not None:
        i = draw(st.integers(0, len(lines) - 1))
        name, size, deps, tags = lines[i].split("|")
        lines[i] = f"{name}|{size}|{deps + ',' if deps else ''}{dep}|{tags}"
    shuffled = draw(st.permutations(lines))
    return "\n".join([header, *lines]) + "\n", "\n".join([header, *shuffled]) + "\n"


class TestLevelsInFileOrder:
    @pytest.mark.parametrize(
        "reorder",
        [
            lambda text: serialize_catalog(parse_catalog(text)),
            lambda text: "\n".join([text.splitlines()[0], *text.splitlines()[:0:-1]]) + "\n",
            _late_dependency,
        ],
        ids=["name-order", "reversed", "one-late-dependency"],
    )
    def test_a_file_that_lists_a_dependent_first_takes_the_walk_once(self, reorder, count_calls):
        catalog_text, _ = generate_fixture(2000, 8, 3, 0.8)
        text = reorder(catalog_text)
        assert text != catalog_text
        calls = count_calls(catalog_module, "_levels_in_order", "_walk_order")
        in_file_order = parse_catalog(catalog_text)
        assert calls == {"_levels_in_order": 1, "_walk_order": 0}
        reordered = parse_catalog(text)
        assert calls == {"_levels_in_order": 3, "_walk_order": 1}
        for column in COLUMNS:
            assert getattr(reordered, column) == getattr(in_file_order, column), column

    @settings(max_examples=300, deadline=None)
    @given(case=shuffled_catalog_texts())
    def test_record_order_changes_neither_the_catalog_nor_an_error(self, case):
        text, shuffled = case
        assert outcome(parse_catalog, shuffled) == outcome(parse_catalog, text)


# -- dependency runs as text ---------------------------------------------


def _direct_records(text: str) -> list[ModuleRecord]:
    """The records that a plain catalog text's record lines spell, in file order."""
    records = []
    for line in text.splitlines()[1:]:
        name, size, deps, tags = line.split("|")
        records.append(ModuleRecord(name, int(size), tuple(filter(None, deps.split(","))), ()))
    return records


def _same_three_ways(text: str):
    """The outcome of parsing ``text``, which the per-line path and the
    constructor, given the same records, must both match."""
    assert _scan_canonical(text) is not None
    parsed = outcome(parse_catalog, text)
    assert outcome(lambda t: _assemble(*_scan_lines(t)), text) == parsed
    assert outcome(lambda t: ModuleCatalog(_direct_records(t)), text) == parsed
    return parsed


class TestRunsAsText:
    @pytest.mark.parametrize(
        "text, walks",
        [("MODCAT v1\nb|1||\na|1|b|\n", 0), ("MODCAT v1\na|1|b|\nb|1||\n", 1)],
        ids=["in-order", "dependent-first"],
    )
    def test_position_0_never_reads_as_a_repeat(self, text, walks, count_calls):
        # "a" is catalog position 0 and has a dependency, so a stamp list
        # that started at 0 would take its first dependency for a repeat.
        calls = count_calls(catalog_module, "_walk_order", "_first_mentions")
        catalog = parse_catalog(text)
        assert calls == {"_walk_order": walks, "_first_mentions": 0}
        assert catalog.dep_targets == (1,) and catalog.levels == (2, 1)
        _same_three_ways(text)

    @pytest.mark.parametrize(
        "lines, deps, walks, rebuilds",
        [
            (["c|1||", "b|1|c,c|"], {"b": ("c",), "c": ()}, 0, 1),
            (["c|1||", "d|1||", "b|1|c,d,c,d,c|"], {"b": ("c", "d"), "c": (), "d": ()}, 0, 1),
            (["c|1||", "a|1|c|", "b|1|c|"], {"a": ("c",), "b": ("c",), "c": ()}, 0, 0),
            (
                ["b|1|c,d,c|", "c|1||", "d|1|c|", "e|1|d,d|"],
                {"b": ("c", "d"), "c": (), "d": ("c",), "e": ("d",)},
                1,
                1,
            ),
            (
                # Capitals, digits, ".", "_" and "-" inside dependency runs.
                ["Z_9.x-y|1||", "a.B-c_0|1||", "Q|1|Z_9.x-y,a.B-c_0,Z_9.x-y|",
                 "m|1|Q,a.B-c_0|"],
                {"Z_9.x-y": (), "a.B-c_0": (), "Q": ("Z_9.x-y", "a.B-c_0"),
                 "m": ("Q", "a.B-c_0")},
                0,
                1,
            ),
        ],
        ids=[
            "adjacent", "non-adjacent", "shared-not-repeated", "dependent-first",
            "every-name-character",
        ],
    )
    def test_a_repeated_dependency_keeps_its_first_mention(
        self, lines, deps, walks, rebuilds, count_calls
    ):
        text = "\n".join(["MODCAT v1", *lines]) + "\n"
        calls = count_calls(catalog_module, "_walk_order", "_first_mentions")
        catalog = parse_catalog(text)
        assert calls == {"_walk_order": walks, "_first_mentions": rebuilds}
        assert {r.name: r.deps for r in catalog.records} == deps
        assert catalog.levels == brute_force_levels(catalog)
        assert len(catalog.dep_targets) == catalog.dep_offsets[-1] == sum(map(len, deps.values()))
        _same_three_ways(text)

    def test_a_repeat_on_a_cycle_names_the_cycle(self):
        text = "MODCAT v1\na|1|b,b|\nb|1|a|\n"
        assert _same_three_ways(text) == (CircularDependency, "dependency cycle: a -> b")

    def test_an_unknown_name_inside_another_runs_text_is_named(self):
        # "a" is a substring of the run "ab", which names a known module.
        text = "MODCAT v1\nb|1|ab|\nab|1||\nc|1|a|\n"
        assert _same_three_ways(text) == (
            UnknownDependency, "module 'c' depends on unknown module 'a'"
        )

    @pytest.mark.parametrize(
        "lines, names",
        [
            (["a|1||", ".symbols|1||"], ("a",)),
            (["a.symbolsx|1||", "a|1|a.symbolsx|"], ("a", "a.symbolsx")),
            (["a.symbols|1|b|", "b|1||", "b.symbols|2|a|"], ("b",)),
        ],
        ids=["exactly-the-suffix", "suffix-inside-a-name", "with-dependencies"],
    )
    def test_symbols_records_are_dropped_by_name(self, lines, names):
        text = "\n".join(["MODCAT v1", *lines]) + "\n"
        _same_three_ways(text)
        assert parse_catalog(text).names == names

    def test_a_symbols_record_named_as_a_dependency_is_unknown(self):
        text = "MODCAT v1\na|1|x.symbols|\nx.symbols|1||\n"
        assert _same_three_ways(text) == (
            UnknownDependency, "module 'a' depends on unknown module 'x.symbols'"
        )

    def test_a_symbols_line_is_still_checked_for_shape(self):
        text = "MODCAT v1\na|1||\na.symbols|x||\n"
        message = "line 3: size must be an integer, got 'x'"
        for parse in (parse_catalog, lambda t: _assemble(*_scan_lines(t))):
            assert outcome(parse, text) == (MalformedRecord, message)
        with pytest.raises(MalformedRecord, match="size must be an integer, got 'x'$"):
            ModuleCatalog([ModuleRecord("a", 1), ModuleRecord("a.symbols", "x")])


# -- catalogs built directly from records -------------------------------


_DIRECT_NAMES = ("a", "b", "c", "d", "c.symbols")
_DIRECT_TAGS = ("pci", "Dev-A", "x")
# Values that a catalog line may not carry, one strategy per ModuleRecord
# field that a record is rendered from.
_ODD_FIELDS = (
    st.text("ab |,#@\n\t", max_size=3),
    st.one_of(st.integers(-2, -1), st.booleans(), st.just("7")),
    st.lists(st.text("b |,\n", max_size=2), min_size=1, max_size=2),
    st.lists(st.one_of(st.just("@base"), st.text("x |,@\n", max_size=3)), min_size=1, max_size=2),
)


@st.composite
def direct_records(draw) -> ModuleRecord:
    """A record with valid fields, at most one of them replaced by an odd value."""
    fields = [
        draw(st.sampled_from(_DIRECT_NAMES)),
        draw(st.integers(0, 10**9)),
        draw(st.lists(st.sampled_from(_DIRECT_NAMES), max_size=2)),
        tuple(draw(st.lists(st.sampled_from(_DIRECT_TAGS), max_size=2))),
        draw(st.booleans()),
    ]
    slot = draw(st.sampled_from((None,) * 8 + tuple(range(len(_ODD_FIELDS)))))
    if slot is not None:
        fields[slot] = draw(_ODD_FIELDS[slot])
    return ModuleRecord(*fields)


class TestDirectConstruction:
    RECORDS = (ModuleRecord("b", 1, ("a",), (), True), ModuleRecord("a", 1))

    def test_records_are_kept_in_name_order(self):
        catalog = ModuleCatalog(self.RECORDS)
        assert catalog.names == ("a", "b")
        assert catalog.dep_targets == (0,) and catalog.levels == (1, 2)

    def test_base_status_propagates_to_dependencies(self):
        catalog = ModuleCatalog(self.RECORDS)
        assert catalog.base == (True, True)
        assert catalog.records[catalog.index_of["a"]].base_kernel_only

    def test_duplicate_records_are_rejected(self):
        with pytest.raises(DuplicateModule, match="module 'a' appears more than once"):
            ModuleCatalog((ModuleRecord("a", 1), ModuleRecord("a", 2)))

    def test_equals_the_parse_of_its_own_serialization(self):
        records = self.RECORDS + (
            ModuleRecord("c", 3, ("b", "a", "b"), ("pci:1",)),
            ModuleRecord("c.symbols", 9),
        )
        catalog = ModuleCatalog(records)
        again = parse_catalog(serialize_catalog(catalog))
        assert again == catalog and hash(again) == hash(catalog)
        assert catalog.names == ("a", "b", "c")
        assert catalog.records[catalog.index_of["c"]].deps == ("b", "a")
        assert catalog != ModuleCatalog(records[:3] + (ModuleRecord("d", 1),))
        assert (catalog == object()) is False

    def test_fields_cannot_be_assigned(self):
        catalog = ModuleCatalog(self.RECORDS)
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'levels'$"):
            catalog.levels = (1, 1)
        assert catalog.levels == (1, 2)

    @pytest.mark.parametrize(
        "record, problem",
        [
            (ModuleRecord("a b", 1), "bad module name 'a b'"),
            (ModuleRecord("a", 1, ("b c",)), "bad dependency name 'b c'"),
            (ModuleRecord("a", -5), "negative size -5"),
            (ModuleRecord("a", True), "size must be an integer, got 'True'"),
            (ModuleRecord("a", "1"), "its catalog line 'a|1||' reads back as"),
            (ModuleRecord(" a", 1), "its catalog line ' a|1||' reads back as"),
            (ModuleRecord("a", 1, (), ("x|y",)), "expected 4 '|'-separated fields, got 5"),
            (ModuleRecord("a", 1, (), ("",)), "its catalog line 'a|1||' reads back as"),
            (ModuleRecord("a", 1, (), ("x,y",)), "its catalog line 'a|1||x,y' reads back as"),
            (ModuleRecord("a", 1, (), ("@base",)), "its catalog line 'a|1||@base' reads back as"),
            (ModuleRecord("c", 1, "ab"), "deps is a string, not a sequence of names"),
            (ModuleRecord("c", 1, (), "pci"), "hw_tags is a string, not a sequence of names"),
        ],
    )
    def test_a_record_that_its_catalog_line_cannot_carry_is_named(self, record, problem):
        with pytest.raises(MalformedRecord) as raised:
            ModuleCatalog([ModuleRecord("ok", 1), record])
        message = str(raised.value)
        assert message.startswith(f"record {record!r}: ") and problem in message

    def test_list_fields_are_stored_as_tuples(self):
        from_lists = ModuleCatalog([ModuleRecord("a", 1, ["b"], ["dev-a"]), ModuleRecord("b", 1)])
        from_tuples = ModuleCatalog([ModuleRecord("a", 1, ("b",), ("dev-a",)), ModuleRecord("b", 1)])
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
        assert from_lists.hw_tags == (("dev-a",), ())
        assert from_lists.records[from_lists.index_of["a"]].deps == ("b",)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(direct_records(), max_size=5, unique_by=lambda record: record.name))
    def test_every_catalog_it_accepts_round_trips(self, records):
        try:
            catalog = ModuleCatalog(records)
        except KmodsimError:
            return
        again = parse_catalog(serialize_catalog(catalog))
        assert again == catalog and hash(again) == hash(catalog)
        index = register_v0(catalog, catalog.names)
        assert read_index(write_index(index), catalog) == index
        _, trace = run_strategy(catalog, index, HardwareInventory(()), StrategyConfig("stage0"))
        assert parse_trace(format_trace(trace)) == trace
