"""Registration semantics for both index formats, plus index-file round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from kmodsim.catalog import ModuleCatalog, parse_catalog, topo_levels
from kmodsim.errors import (
    DepthOverflow,
    PositionMismatch,
    UnknownSelection,
    ValueOutOfRange,
    VersionMismatch,
)
from kmodsim.fixtures import generate_fixture
from kmodsim.hardware import HardwareInventory, check_hardware_support, parse_inventory
from kmodsim.registry import (
    SelectionPolicy,
    read_index,
    register_v0,
    register_v1,
    resolve_selection,
    write_index,
)

from conftest import (
    catalog_texts,
    chain_records,
    make_catalog,
    make_inventory,
    reference_v1_values,
)

NO_HW = HardwareInventory(())


def values_of(index) -> dict[str, int]:
    return dict(index.entries)


class TestRegisterV0:
    def test_all_load_flags_everything(self):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v0(catalog, SelectionPolicy.all_load())
        assert index.entries == (("a", 1), ("b", 1))

    def test_single_selection(self):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v0(catalog, SelectionPolicy.from_file(["b"]))
        assert index.entries == (("a", 0), ("b", 1))

    def test_all_skip_is_all_zeros(self):
        catalog = make_catalog("a|1||", "b|1||", "c|1||")
        index = register_v0(catalog, SelectionPolicy.all_skip())
        assert index.values() == (0, 0, 0)

    def test_unknown_selection(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(UnknownSelection):
            register_v0(catalog, SelectionPolicy.from_file(["ghost"]))

    def test_interactive_asks_in_catalog_order(self):
        catalog = make_catalog("b|1||", "a|1||", "c|1||")
        asked = []

        def ask(name):
            asked.append(name)
            return name != "b"

        index = register_v0(catalog, SelectionPolicy.interactive(ask))
        assert asked == ["a", "b", "c"]
        assert values_of(index) == {"a": 1, "b": 0, "c": 1}


class TestRegisterV1:
    def test_chain_levels_match_the_oracle(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = register_v1(catalog, SelectionPolicy.from_file(["c"]), NO_HW)
        assert values_of(index) == {"a": 1, "b": 2, "c": 3}
        assert values_of(index) == topo_levels(catalog)

    def test_unsupported_selected_module_stays_zero(self):
        catalog = make_catalog("a|1||ath9k")
        inv = make_inventory("Intel e1000 Gigabit")
        index = register_v1(catalog, SelectionPolicy.all_load(), inv)
        assert values_of(index) == {"a": 0}

    def test_diamond_levels_match_the_oracle(self):
        catalog = make_catalog("d|1|b,c|", "b|1|a|", "c|1|a|", "a|1||")
        index = register_v1(catalog, SelectionPolicy.from_file(["d"]), NO_HW)
        assert values_of(index) == {"a": 1, "b": 2, "c": 2, "d": 3}

    def test_dependencies_inherit_loadability(self):
        # b is gated on absent hardware, but as a dependency of a selected,
        # supported module it must still receive its depth.
        catalog = make_catalog("top|1|b|", "b|1||dev-b")
        index = register_v1(catalog, SelectionPolicy.from_file(["top"]), NO_HW)
        assert values_of(index) == {"b": 1, "top": 2}

    def test_unselected_roots_stay_zero(self):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v1(catalog, SelectionPolicy.from_file(["a"]), NO_HW)
        assert values_of(index) == {"a": 1, "b": 0}

    def test_all_skip_is_all_zeros(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = register_v1(catalog, SelectionPolicy.all_skip(), NO_HW)
        assert set(index.values()) == {0}

    def test_255_chain_fits_exactly(self):
        catalog = make_catalog(*chain_records([f"c{i:03d}" for i in range(255)]))
        index = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        assert max(index.values()) == 255

    def test_256_chain_overflows(self):
        catalog = make_catalog(*chain_records([f"c{i:03d}" for i in range(256)]))
        with pytest.raises(DepthOverflow):
            register_v1(catalog, SelectionPolicy.all_load(), NO_HW)

    def test_base_modules_are_not_leveled_as_roots(self):
        catalog = make_catalog("fs|4||@base", "app|1||")
        index = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        assert values_of(index) == {"app": 1, "fs": 0}

    def test_base_dependency_still_receives_its_depth(self):
        # Keeps the byte ordering rule intact: every dependency of a nonzero
        # module is itself nonzero and strictly smaller.
        catalog = make_catalog("fs|4||@base", "app|1|fs|")
        index = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        assert values_of(index) == {"app": 2, "fs": 1}

    def test_registration_is_deterministic(self):
        catalog = make_catalog("d|1|b,c|", "b|1|a|", "c|1|a|", "a|1||")
        first = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        second = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        assert write_index(first) == write_index(second)

    @settings(max_examples=75, deadline=None)
    @given(text=catalog_texts(max_modules=40))
    def test_nonzero_values_equal_the_depth_oracle(self, text):
        catalog = parse_catalog(text)
        inv = make_inventory(
            *(f"Vendor dev-{r.name} adapter" for i, r in enumerate(catalog.records) if i % 2)
        )
        index = register_v1(catalog, SelectionPolicy.all_load(), inv)
        oracle = topo_levels(catalog)
        for name, value in index.entries:
            if value:
                assert value == oracle[name]
        assert values_of(index) == reference_v1_values(
            catalog, frozenset(catalog.names), lambda rec: check_hardware_support(rec, inv)
        )

    @settings(max_examples=75, deadline=None)
    @given(text=catalog_texts(max_modules=40))
    def test_dependency_values_sit_strictly_below(self, text):
        catalog = parse_catalog(text)
        index = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        values = values_of(index)
        for rec in catalog.records:
            if values[rec.name] >= 2:
                for dep in rec.deps:
                    assert 0 < values[dep] < values[rec.name]

    def test_one_closure_walk_bounds_the_record_lookups(self, monkeypatch):
        # One shared closure walk plus one topo_levels pass look each module
        # up a few times; a walk per root costs modules x depth lookups.
        catalog_text, inventory_text = generate_fixture(5000, 16, seed=1, hw_coverage=1.0)
        catalog = parse_catalog(catalog_text)
        inventory = parse_inventory(inventory_text)
        edges = sum(len(rec.deps) for rec in catalog.records)
        real_record = ModuleCatalog.record
        calls = 0

        def counting_record(self, name):
            nonlocal calls
            calls += 1
            return real_record(self, name)

        monkeypatch.setattr(ModuleCatalog, "record", counting_record)
        register_v1(catalog, SelectionPolicy.all_load(), inventory)
        assert calls <= 4 * (len(catalog) + edges), (calls, len(catalog), edges)


class TestIndexFiles:
    def test_round_trip_v1(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        assert read_index(write_index(index), catalog) == index

    def test_round_trip_v0(self):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v0(catalog, SelectionPolicy.from_file(["a"]))
        assert read_index(write_index(index), catalog) == index

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

    def test_headers_are_bit_exact(self):
        catalog = make_catalog("a|1||")
        assert write_index(register_v0(catalog, SelectionPolicy.all_skip())).startswith(
            "MODINDEX v0\n"
        )
        assert write_index(
            register_v1(catalog, SelectionPolicy.all_skip(), NO_HW)
        ).startswith("MODINDEX v1\n")


def test_resolve_selection_materializes_interactive_once():
    catalog = make_catalog("a|1||", "b|1||")
    calls = []
    policy = SelectionPolicy.interactive(lambda name: calls.append(name) or True)
    assert resolve_selection(catalog, policy) == {"a", "b"}
    assert calls == ["a", "b"]
