"""User-space simulator for staged, parallel attachment of kernel modules.

The engine models the full lifecycle: a module catalog with a validated
dependency graph, a device inventory gating what may attach, registration of
user selections into positional index files (selection bits or
dependency-depth bytes), four progressively parallel load strategies, and a
measurement harness for timing, duplicate-attempt, and space-saving reports.
"""

from .catalog import (
    ModuleCatalog,
    ModuleRecord,
    parse_catalog,
    serialize_catalog,
)
from .errors import (
    AttachFailed,
    CircularDependency,
    ConfigError,
    DepthOverflow,
    DuplicateModule,
    IndexMismatch,
    KmodsimError,
    LoadSetMismatch,
    LoadTimeout,
    MalformedInventory,
    MalformedRecord,
    MalformedTrace,
    PositionMismatch,
    UnknownDependency,
    UnknownSelection,
    ValueOutOfRange,
    VersionMismatch,
)
from .fixtures import generate_fixture
from .hardware import HardwareInventory, check_hardware_support, parse_inventory
from .loader import (
    DUP_ATTEMPT,
    LOAD,
    SKIP_FLAG,
    SKIP_HW,
    LoadEvent,
    LoadState,
    StrategyConfig,
    STRATEGIES,
    format_trace,
    parse_trace,
    plan_partitions,
    run_strategy,
    simulate_load,
)
from .metrics import (
    BenchReport,
    SessionTiming,
    SpaceReport,
    bench,
    check_trace,
    space_report,
    timing_from_trace,
)
from .registry import (
    IndexFile,
    read_index,
    register_v0,
    register_v1,
    write_index,
)

__version__ = "0.1.0"
