"""Exception types shared across the package.

Every error carries a short machine-readable ``code``; the CLI prints it as
``error: <code>: <detail>`` on stderr so scripts can match on failures.
"""

from __future__ import annotations


class KmodsimError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class MalformedRecord(KmodsimError):
    code = "malformed-record"


class DuplicateModule(KmodsimError):
    code = "duplicate-module"


class UnknownDependency(KmodsimError):
    code = "unknown-dependency"


class CircularDependency(KmodsimError):
    """A dependency cycle was found; ``cycle`` lists the member names."""

    code = "circular-dependency"

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("dependency cycle: " + " -> ".join(self.cycle))


class MalformedInventory(KmodsimError):
    code = "malformed-inventory"


class UnknownSelection(KmodsimError):
    code = "unknown-selection"


class DepthOverflow(KmodsimError):
    code = "depth-overflow"


class VersionMismatch(KmodsimError):
    code = "version-mismatch"


class PositionMismatch(KmodsimError):
    code = "position-mismatch"


class ValueOutOfRange(KmodsimError):
    code = "value-out-of-range"


class IndexMismatch(KmodsimError):
    code = "index-mismatch"


class MalformedTrace(KmodsimError):
    code = "malformed-trace"


class LoadSetMismatch(KmodsimError):
    """Repeated runs of one strategy on identical inputs loaded different sets."""

    code = "load-set-mismatch"


class AttachFailed(KmodsimError):
    """A worker waited for a module whose attach failed in another worker."""

    code = "attach-failed"


class LoadTimeout(KmodsimError):
    """A worker waited too long for another worker to finish a module."""

    code = "load-timeout"


class ConfigError(KmodsimError):
    code = "config"
