"""Device inventory and the hardware-support gate for module loading.

Inventory files carry one device description per line under a ``HWINV v1``
header. A module is supported when any of its tags occurs, case-insensitively
and on word boundaries, inside any device string. Modules without tags are
not hardware-gated at all (filesystems, syscall shims) and always pass.

``_contains_word`` is the definition of a match. The gate reaches it through
a word-run index of the inventory, so a tag costs a dictionary lookup plus a
check of the few devices that share its rarest word run, not a scan of every
device. The index, and the casefolded copy of the devices it is built from,
are made on the first tagged query, so sessions that never check a tag
(stage1, untagged catalogs) never pay for either: building an inventory only
strips and checks its device lines, in bulk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .catalog import ModuleRecord
from .errors import MalformedInventory

INVENTORY_HEADER = "HWINV v1"

# Maximal runs of ``_is_word_char`` characters: for str patterns, ``\w`` is
# exactly ``isalnum() or "_"``.
_WORD_RUN = re.compile(r"\w+")


@dataclass(frozen=True)
class HardwareInventory:
    """Immutable list of device description strings; order is irrelevant."""

    devices: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.devices, str):
            raise ValueError(
                f"devices must be a sequence of strings, not the string {self.devices!r}"
            )
        devices = tuple(self.devices)
        if not all(devices) or tuple(map(str.strip, devices)) != devices:
            for dev in devices:
                if not dev or dev != dev.strip():
                    raise ValueError(f"device strings must be non-empty and trimmed: {dev!r}")
        # A tuple, so an inventory built from a list compares and hashes.
        object.__setattr__(self, "devices", devices)

    def __len__(self) -> int:
        return len(self.devices)

    @cached_property
    def _folded(self) -> tuple[str, ...]:
        # The casefolded devices, built on the first tagged query.
        return tuple(map(str.casefold, self.devices))

    @cached_property
    def _postings(self) -> dict[str, list[int]]:
        # Word run -> positions of the devices containing it as a whole run.
        # Built once per inventory; a concurrent double build is harmless
        # because the result is deterministic.
        postings: dict[str, list[int]] = {}
        for pos, device in enumerate(self._folded):
            for run in set(_WORD_RUN.findall(device)):
                postings.setdefault(run, []).append(pos)
        return postings

    def supports(self, tags: tuple[str, ...]) -> bool:
        """True when the inventory satisfies a module's device ``tags``.

        An untagged module matches unconditionally; adding devices can
        therefore never turn a supported module into an unsupported one.
        """
        return not tags or any(self._matches(tag.casefold()) for tag in tags)

    def _matches(self, tag: str) -> bool:
        """True when ``_contains_word`` holds for some device and casefolded ``tag``."""
        if not (tag and _is_word_char(tag[0]) and _is_word_char(tag[-1])):
            return any(_contains_word(device, tag) for device in self._folded)
        # A match is bounded by non-word characters on both sides, so every
        # word run of such a tag is a whole word run of the matching device.
        candidates: list[int] | None = None
        for run in _WORD_RUN.findall(tag):
            hits = self._postings.get(run)
            if hits is None:
                return False
            if candidates is None or len(hits) < len(candidates):
                candidates = hits
        return any(_contains_word(self._folded[pos], tag) for pos in candidates)


def parse_inventory(text: str) -> HardwareInventory:
    """Parse inventory text; one trimmed device per non-comment line."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != INVENTORY_HEADER:
        raise MalformedInventory(
            f"inventory must start with a '{INVENTORY_HEADER}' header line"
        )
    devices = [line for line in map(str.strip, lines[1:]) if line and line[0] != "#"]
    return HardwareInventory(tuple(devices))


def check_hardware_support(module: ModuleRecord, inventory: HardwareInventory) -> bool:
    """True when the inventory satisfies the module's device tags (``supports``)."""
    return inventory.supports(module.hw_tags)


def _contains_word(haystack: str, needle: str) -> bool:
    # Containment with word boundaries on both ends of the match window;
    # word characters are alphanumerics and underscore.
    if not needle:
        return False
    start = 0
    while True:
        i = haystack.find(needle, start)
        if i < 0:
            return False
        end = i + len(needle)
        before_ok = i == 0 or not _is_word_char(haystack[i - 1])
        after_ok = end == len(haystack) or not _is_word_char(haystack[end])
        if before_ok and after_ok:
            return True
        start = i + 1


def _is_word_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"
