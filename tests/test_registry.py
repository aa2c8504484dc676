"""Registration semantics for both index formats, plus index-file round-trips."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmodsim import catalog as catalog_module
from kmodsim import registry as registry_module
from kmodsim.catalog import ModuleCatalog, parse_catalog
from kmodsim.errors import (
    DepthOverflow,
    KmodsimError,
    PositionMismatch,
    UnknownSelection,
    ValueOutOfRange,
    VersionMismatch,
)
from kmodsim.fixtures import generate_fixture
from kmodsim.hardware import HardwareInventory, check_hardware_support, parse_inventory
from kmodsim.registry import (
    INDEX_HEADERS,
    IndexFile,
    read_index,
    register_v0,
    register_v1,
    write_index,
)

from conftest import (
    LINE_BREAKS,
    CountingRuns,
    catalog_texts,
    chain_records,
    make_catalog,
    make_inventory,
    reference_v1_values,
)

NO_HW = HardwareInventory(())


class TestRegisterV0:
    def test_all_load_flags_everything(self):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v0(catalog, catalog.names)
        assert index.values == (1, 1)

    def test_single_selection(self):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v0(catalog, ["b"])
        assert index.values == (0, 1)

    def test_all_skip_is_all_zeros(self):
        catalog = make_catalog("a|1||", "b|1||", "c|1||")
        index = register_v0(catalog, ())
        assert index.values == (0, 0, 0)

    def test_unknown_selection(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(UnknownSelection):
            register_v0(catalog, ["ghost"])

    def test_a_string_selection_is_not_read_as_names(self):
        catalog = make_catalog("a|1||", "b|1||", "ab|1||")
        for register in (register_v0, lambda c, s: register_v1(c, s, NO_HW)):
            with pytest.raises(UnknownSelection, match="^selection is the string 'ab', "):
                register(catalog, "ab")

    def test_interactive_asks_in_catalog_order(self):
        catalog = make_catalog("b|1||", "a|1||", "c|1||")
        asked = []

        def ask(name):
            asked.append(name)
            return name != "b"

        index = register_v0(catalog, (name for name in catalog.names if ask(name)))
        assert asked == ["a", "b", "c"]
        assert index.values == (1, 0, 1)


class TestRegisterV1:
    def test_chain_levels_match_the_oracle(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = register_v1(catalog, ["c"], NO_HW)
        assert index.values == (1, 2, 3)
        assert index.values == catalog.levels

    def test_unsupported_selected_module_stays_zero(self):
        catalog = make_catalog("a|1||ath9k")
        inv = make_inventory("Intel e1000 Gigabit")
        index = register_v1(catalog, catalog.names, inv)
        assert index.values == (0,)

    def test_diamond_levels_match_the_oracle(self):
        catalog = make_catalog("d|1|b,c|", "b|1|a|", "c|1|a|", "a|1||")
        index = register_v1(catalog, ["d"], NO_HW)
        assert index.values == (1, 2, 2, 3)

    def test_dependencies_inherit_loadability(self):
        # b is gated on absent hardware, but as a dependency of a selected,
        # supported module it must still receive its depth.
        catalog = make_catalog("top|1|b|", "b|1||dev-b")
        index = register_v1(catalog, ["top"], NO_HW)
        assert index.values == (1, 2)

    def test_unselected_roots_stay_zero(self):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v1(catalog, ["a"], NO_HW)
        assert index.values == (1, 0)

    def test_all_skip_is_all_zeros(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = register_v1(catalog, (), NO_HW)
        assert set(index.values) == {0}

    def test_255_chain_fits_exactly(self):
        catalog = make_catalog(*chain_records([f"c{i:03d}" for i in range(255)]))
        index = register_v1(catalog, catalog.names, NO_HW)
        assert max(index.values) == 255

    def test_256_chain_overflows(self):
        catalog = make_catalog(*chain_records([f"c{i:03d}" for i in range(256)]))
        with pytest.raises(DepthOverflow):
            register_v1(catalog, catalog.names, NO_HW)

    def test_base_modules_are_not_leveled_as_roots(self):
        catalog = make_catalog("fs|4||@base", "app|1||")
        index = register_v1(catalog, catalog.names, NO_HW)
        assert index.values == (1, 0)

    def test_base_dependency_still_receives_its_depth(self):
        # Keeps the byte ordering rule intact: every dependency of a nonzero
        # module is itself nonzero and strictly smaller.
        catalog = make_catalog("fs|4||@base", "app|1|fs|")
        index = register_v1(catalog, catalog.names, NO_HW)
        assert index.values == (2, 1)

    def test_registration_is_deterministic(self):
        catalog = make_catalog("d|1|b,c|", "b|1|a|", "c|1|a|", "a|1||")
        first = register_v1(catalog, catalog.names, NO_HW)
        second = register_v1(catalog, catalog.names, NO_HW)
        assert write_index(first) == write_index(second)

    @settings(max_examples=75, deadline=None)
    @given(text=catalog_texts(max_modules=40))
    def test_nonzero_values_equal_the_depth_oracle(self, text):
        catalog = parse_catalog(text)
        inv = make_inventory(
            *(f"Vendor dev-{r.name} adapter" for i, r in enumerate(catalog.records) if i % 2)
        )
        index = register_v1(catalog, catalog.names, inv)
        for value, level in zip(index.values, catalog.levels):
            if value:
                assert value == level
        assert index.values == reference_v1_values(
            catalog, frozenset(catalog.names), lambda rec: check_hardware_support(rec, inv)
        )

    @settings(max_examples=75, deadline=None)
    @given(text=catalog_texts(max_modules=40))
    def test_dependency_values_sit_strictly_below(self, text):
        catalog = parse_catalog(text)
        index = register_v1(catalog, catalog.names, NO_HW)
        values = index.values
        for rec, value in zip(catalog.records, values):
            if value >= 2:
                for dep in rec.deps:
                    assert 0 < values[catalog.index_of[dep]] < value

    def test_one_closure_walk_reads_each_dependency_run_once(self):
        # One shared closure walk slices each reached module's dependency run
        # once; a walk per root re-reads shared runs modules x depth times.
        catalog_text, inventory_text = generate_fixture(5000, 16, seed=1, hw_coverage=1.0)
        catalog = parse_catalog(catalog_text)
        inventory = parse_inventory(inventory_text)
        targets = CountingRuns(catalog.dep_targets)
        vars(catalog)["dep_targets"] = targets
        index = register_v1(catalog, catalog.names, inventory)
        assert any(index.values)
        assert 0 < targets.reads <= len(catalog), (targets.reads, len(catalog))

    def test_levels_are_computed_once_per_catalog(self, count_calls):
        calls = count_calls(catalog_module, "_levels_in_order", "_walk_order")
        catalog_text, inventory_text = generate_fixture(500, 8, seed=1, hw_coverage=1.0)
        inventory = parse_inventory(inventory_text)
        # Each catalog computes its levels once, when it is built: the parsed
        # one by the pass in file order, the one built from its records (in
        # name order, which lists a dependent first) by the pass in the
        # walk's order, after the pass in file order gave up.
        parsed = parse_catalog(catalog_text)
        assert calls == {"_levels_in_order": 1, "_walk_order": 0}
        direct = ModuleCatalog(parsed.records)
        assert calls == {"_levels_in_order": 3, "_walk_order": 1}
        for catalog in (parsed, direct):
            first = register_v1(catalog, catalog.names, inventory)
            assert catalog.levels == parsed.levels
            assert register_v1(catalog, catalog.names, inventory) == first
        assert calls == {"_levels_in_order": 3, "_walk_order": 1}


class TestIndexFiles:
    def test_round_trip_v1(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = register_v1(catalog, catalog.names, NO_HW)
        assert read_index(write_index(index), catalog) == index

    def test_round_trip_v0(self):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v0(catalog, ["a"])
        assert read_index(write_index(index), catalog) == index

    @pytest.mark.parametrize("version", ["v0", "v1"])
    def test_columns_round_trip_and_write_each_pair(self, version):
        catalog_text, inventory_text = generate_fixture(2000, 8, 21, 0.8)
        catalog, inventory = parse_catalog(catalog_text), parse_inventory(inventory_text)
        selected = catalog.names[::3]
        if version == "v0":
            index = register_v0(catalog, selected)
        else:
            index = register_v1(catalog, selected, inventory)
        assert max(index.values) == (1 if version == "v0" else 8)
        assert index.names is catalog.names
        text = write_index(index)
        # Both read paths: canonical text, and the same lines ending in "\r\n".
        for read in (read_index(text, catalog), read_index(text.replace("\n", "\r\n"), catalog)):
            assert read == index
            assert read.names is catalog.names
        assert type(index.values) is tuple and {type(v) for v in index.values} == {int}
        assert len(index.values) == len(catalog)
        pairs = zip(catalog.names, index.values)
        assert text == f"{INDEX_HEADERS[version]}\n" + "".join(f"{n} {v}\n" for n, v in pairs)

    def test_value_above_byte_range_rejected(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(ValueOutOfRange):
            read_index("MODINDEX v1\na 256\n", catalog)

    def test_v0_value_above_one_rejected(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(ValueOutOfRange):
            read_index("MODINDEX v0\na 2\n", catalog)

    def test_non_integer_value_rejected(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(ValueOutOfRange):
            read_index("MODINDEX v0\na yes\n", catalog)

    def test_value_longer_than_int_conversion_allows_rejected(self):
        # int() refuses more digits than int_max_str_digits (4300 by default).
        catalog = make_catalog("a|1||")
        raw = "1" * 5000
        with pytest.raises(ValueOutOfRange, match=rf"^entry 0: value '{raw}' is not an integer$"):
            read_index(f"MODINDEX v1\na {raw}\n", catalog)

    def test_names_out_of_catalog_order_rejected(self):
        catalog = make_catalog("a|1||", "b|1||")
        with pytest.raises(PositionMismatch):
            read_index("MODINDEX v0\nb 1\na 1\n", catalog)

    def test_wrong_entry_count_rejected(self):
        catalog = make_catalog("a|1||", "b|1||")
        with pytest.raises(PositionMismatch):
            read_index("MODINDEX v0\na 1\n", catalog)

    def test_bad_header_rejected(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(VersionMismatch):
            read_index("MODINDEX v9\na 1\n", catalog)

    # int() also reads a sign, digit-group underscores and non-ASCII digits.
    @pytest.mark.parametrize("raw", ["+1", "1_0", "٣", "２", "-0"])
    def test_values_are_unsigned_ascii_digits(self, raw):
        catalog = make_catalog("a|1||", "b|1||")
        with pytest.raises(ValueOutOfRange) as err:
            read_index(f"MODINDEX v1\na 1\nb {raw}\n", catalog)
        assert str(err.value) == f"entry 1: value {raw!r} is not an integer"

    def test_the_first_bad_value_is_named(self):
        catalog = make_catalog("a|1||", "b|1||")
        with pytest.raises(ValueOutOfRange, match=r"^entry 0: value '\+1' is not an integer$"):
            read_index("MODINDEX v1\na +1\nb 1_0\n", catalog)

    # stage1 would load b without a, or before it.
    @pytest.mark.parametrize("a_value", [0, 1, 2])
    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_a_v1_dependency_needs_a_nonzero_smaller_value(self, a_value, line_end):
        catalog = make_catalog("a|1||", "b|1|a|")
        text = f"MODINDEX v1\na {a_value}\nb 1\n".replace("\n", line_end)
        with pytest.raises(ValueOutOfRange) as err:
            read_index(text, catalog)
        assert str(err.value) == (
            f"entry 1: module 'b' has value 1, but its dependency 'a' has {a_value}; "
            "a v1 dependency needs a nonzero, smaller value"
        )

    @pytest.mark.parametrize("version, values", [
        ("v1", (1, 0)),  # only a nonzero entry's dependencies are read
        ("v1", (0, 0)),
        ("v0", (0, 1)),  # a v0 flag is a selection, not a depth
    ])
    def test_the_dependency_rule_binds_only_nonzero_v1_entries(self, version, values):
        catalog = make_catalog("a|1||", "b|1|a|")
        text = write_index(IndexFile(version, catalog.names, values))
        assert read_index(text, catalog).values == values

    def test_leading_zeros_are_still_digits(self):
        catalog = make_catalog("a|1||", "b|1||")
        assert read_index("MODINDEX v1\na 001\nb 0\n", catalog).values == (1, 0)

    def test_headers_are_bit_exact(self):
        catalog = make_catalog("a|1||")
        assert write_index(register_v0(catalog, ())).startswith(
            "MODINDEX v0\n"
        )
        assert write_index(
            register_v1(catalog, (), NO_HW)
        ).startswith("MODINDEX v1\n")


# -- the one-pass index reader against the per-line parser -----------------

INDEX_CATALOG = make_catalog("a|1||", "b.ko|1||", "m-1_2|1||", "z|1||")
CANONICAL_INDEX = "MODINDEX v1\na 1\nb.ko 2\nm-1_2 0\nz 255\n"
BLANKS = (" ", "\t", "  ", " \t", "\xa0", "\u3000")


@st.composite
def index_variants(draw) -> tuple[str, bool]:
    """Index text for INDEX_CATALOG and whether ``write_index`` wrote it.

    Other text also gets a wrong or padded header, names out of place, a
    missing or an extra line, values written as ``+1``, ``01``, ``1_0``,
    ``-1``, non-ASCII digits, words or above the version's limit, lines of 1
    or 3 fields, tabs, runs of spaces and padding, blank and whitespace-only
    lines, and every line break, with or without a final one.
    """
    canonical = draw(st.booleans())

    def deviate():
        # Rare, so that some texts hold a single non-canonical detail.
        return not canonical and draw(st.integers(0, 14)) == 7

    version = draw(st.sampled_from(sorted(INDEX_HEADERS)))
    limit = 1 if version == "v0" else 255
    header = INDEX_HEADERS[version]
    if deviate():
        header = draw(st.sampled_from(["MODINDEX v2", " " + header, header + "\t", "modindex v1"]))
    names = list(INDEX_CATALOG.names)
    if deviate():
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        names[i], names[j] = names[j], names[i]
    if deviate():
        names[draw(st.integers(0, 3))] = "ghost"
    if deviate():
        del names[draw(st.integers(0, 3))]
    if deviate():
        names.append("z")

    lines = [header]
    for name in names:
        value = draw(st.integers(0, limit))
        raw = str(value)
        if deviate():
            raw = draw(st.sampled_from(
                [f"+{value}", f"0{value}", f"{value}_0", f"-{value}", "٣", "\uff12",
                 "yes", str(limit + 1), "9" * 5000]
            ))
        fields = [name, raw]
        if deviate():
            fields = fields[:1] if draw(st.booleans()) else fields + ["extra"]
        sep = draw(st.sampled_from(BLANKS)) if deviate() else " "
        pad = draw(st.sampled_from(BLANKS)) if deviate() else ""
        lines.append(pad + sep.join(fields) + pad)
        if deviate():
            lines.append(draw(st.sampled_from(["", " ", "\t"])))

    text = ""
    for line in lines:
        text += line + (draw(st.sampled_from(LINE_BREAKS)) if deviate() else "\n")
    if deviate():
        text = text[:-1]
    return text, canonical


def index_outcome(read, text):
    try:
        return read(text, INDEX_CATALOG)
    except KmodsimError as err:
        return type(err), str(err)


class TestIndexParsing:
    @settings(max_examples=400, deadline=None)
    @given(case=index_variants())
    @example((CANONICAL_INDEX, True))
    @example((CANONICAL_INDEX.replace("\n", "\r\n"), False))
    @example((CANONICAL_INDEX.replace("\n", "\n\n"), False))
    @example((CANONICAL_INDEX.replace("b.ko 2\n", "b.ko 2\n \t \n"), False))
    @example((CANONICAL_INDEX.replace("a 1", "a\t1"), False))
    @example((CANONICAL_INDEX.replace("a 1", "a  1"), False))
    @example((CANONICAL_INDEX.replace("a 1", " a 1 "), False))
    @example((CANONICAL_INDEX.replace("MODINDEX v1", " MODINDEX v1 "), False))
    @example((CANONICAL_INDEX.replace("a 1", "a +1"), False))
    @example((CANONICAL_INDEX.replace("a 1", "a 01"), False))
    @example((CANONICAL_INDEX.replace("a 1", "a 1_0"), False))
    @example((CANONICAL_INDEX.replace("a 1", "a ٣"), False))
    @example((CANONICAL_INDEX.replace("a 1", "a 256"), False))
    @example((CANONICAL_INDEX.replace("a 1", "a 1 extra"), False))
    @example((CANONICAL_INDEX.replace("a 1\nb.ko 2", "b.ko 2\na 1"), False))
    # Every field in place under a split on whitespace, but one line short.
    @example(("MODINDEX v0\na\n1 b.ko 1 m-1_2\n1 z 1\n", False))
    @example((CANONICAL_INDEX[:-1], False))
    @example((CANONICAL_INDEX.replace("\n", "\x85"), False))
    @example((CANONICAL_INDEX.replace("\nz", "\u2028z"), False))
    @example(("MODINDEX v1\na 1\nb.ko 2\nm-1_2 0\n", False))
    def test_matches_the_per_line_path(self, case):
        text, canonical = case
        read = index_outcome(read_index, text)
        assert read == index_outcome(registry_module._read_lines, text)
        if canonical:
            assert write_index(read) == text
            assert registry_module._read_canonical(text, INDEX_CATALOG) is not None

    def test_a_long_canonical_index_never_reaches_the_line_parser(self, monkeypatch):
        catalog_text, inventory_text = generate_fixture(20_000, 16, 3, 0.8)
        catalog = parse_catalog(catalog_text)
        inventory = parse_inventory(inventory_text)
        indexes = [
            register_v0(catalog, catalog.names), register_v1(catalog, catalog.names, inventory)
        ]
        assert max(indexes[1].values) > 1

        def per_line(text, catalog):
            raise AssertionError("a canonical index reached the line-by-line parser")

        monkeypatch.setattr(registry_module, "_read_lines", per_line)
        for index in indexes:
            assert read_index(write_index(index), catalog) == index

