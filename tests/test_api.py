"""The names the ``kmodsim`` package exports.

A change to ``EXPORTED`` changes the library's interface, and is written up
in CHANGES.md with the way callers move to the new names.
"""

from __future__ import annotations

from types import ModuleType

import kmodsim

EXPORTED = (
    "AttachFailed", "BenchReport", "CircularDependency", "ConfigError", "DUP_ATTEMPT",
    "DepthOverflow", "DuplicateModule", "HardwareInventory", "IndexFile", "IndexMismatch",
    "KmodsimError", "LOAD", "LoadEvent", "LoadSetMismatch", "LoadState", "LoadTimeout",
    "MalformedInventory", "MalformedRecord", "MalformedTrace", "ModuleCatalog",
    "ModuleRecord", "PositionMismatch", "SKIP_FLAG", "SKIP_HW",
    "STRATEGIES", "SessionTiming", "SpaceReport", "StrategyConfig", "UnknownDependency",
    "UnknownSelection", "ValueOutOfRange", "VersionMismatch", "bench",
    "check_hardware_support", "check_trace", "format_trace", "generate_fixture", "parse_catalog",
    "parse_inventory", "parse_trace", "plan_partitions", "read_index", "register_v0",
    "register_v1", "run_strategy", "serialize_catalog", "simulate_load", "space_report",
    "timing_from_trace", "write_index",
)


def test_exported_names_are_pinned():
    # Submodules (kmodsim.catalog, kmodsim.cli, ...) become attributes of the
    # package when imported, so they are not part of the list.
    exported = {
        name
        for name, value in vars(kmodsim).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(exported) == sorted(EXPORTED)
