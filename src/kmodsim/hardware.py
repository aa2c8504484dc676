r"""Device inventory and the hardware-support gate for module loading.

Inventory files carry one device description per line under a ``HWINV v1``
header. A module is supported when any of its tags occurs, case-insensitively
and on word boundaries, inside any device string. Modules without tags are
not hardware-gated at all (filesystems, syscall shims) and always pass.

A match is the pattern ``(?<!\w)<tag>(?!\w)``, the escaped casefolded tag
with no word character (``\w``: a letter, a digit or ``_``) on either side,
found in a casefolded device. The gate reaches it through two sets, each
built on the first query that needs it:

- ``_tokens``, the whitespace-delimited tokens of the devices. A tag that is
  a whole token matches, because whitespace is never a word character.
  ``supports`` looks each casefolded tag up here in its own frame, so a
  whole-token tag (about four in five generated tags) costs one call and
  one set lookup.
- ``_runs``, the word runs of those tokens (maximal runs of ``\w``). A tag
  that starts and ends with a word character fails when one of its word
  runs is missing, and, when it is a single run, matches when that run is
  present. ``_matches`` takes this step, in a frame of its own, for a tag
  that is not a token.

Every other tag is searched for by its pattern in each casefolded device,
also in ``_matches``: one bounded by word characters whose several word runs
are all present, e.g. ``netxtreme ii``, and one that is not, e.g. ``/8168``.
No generated tag reaches that scan.

Sessions that never check a tag (stage1, untagged catalogs) build none of
them, nor the casefolded copy of the devices they come from: building an
inventory only checks its device lines, in bulk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .catalog import ModuleRecord
from .errors import MalformedInventory

INVENTORY_HEADER = "HWINV v1"

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
        try:
            trimmed = tuple(map(str.strip, devices)) == devices
        except TypeError:
            trimmed = False
        if not all(devices) or not trimmed:
            for dev in devices:
                if not isinstance(dev, str):
                    raise ValueError(f"device strings must be str, not {dev!r}")
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
    def _tokens(self) -> frozenset[str]:
        # Whitespace-delimited tokens of the casefolded devices.
        return frozenset(" ".join(self._folded).split())

    @cached_property
    def _runs(self) -> frozenset[str]:
        # Word runs of the tokens, which are the word runs of the devices.
        return frozenset(_WORD_RUN.findall(" ".join(self._tokens)))

    def supports(self, tags: tuple[str, ...]) -> bool:
        """True when the inventory satisfies a module's device ``tags``.

        An untagged module matches unconditionally; adding devices can
        therefore never turn a supported module into an unsupported one.
        Each casefolded tag is decided by the first step that applies: a
        whole device token matches, looked up here; in ``_matches``, a tag
        bounded by word characters fails when one of its word runs is in no
        device, and matches when it is a single run that is, and the rest is
        checked against every device.
        """
        for tag in tags:
            tag = tag.casefold()
            if tag in self._tokens or self._matches(tag):
                return True
        return not tags

    def _matches(self, tag: str) -> bool:
        """True when some device holds the casefolded ``tag`` on word boundaries.

        ``supports`` calls it only for a tag that is not a whole token.
        """
        if not tag:
            return False
        if _WORD_RUN.fullmatch(tag[0] + tag[-1]):
            # The tag starts and ends with a word character, and a match is
            # bounded by non-word characters on both sides, so every word run
            # of the tag is a whole word run of the matching device.
            runs = _WORD_RUN.findall(tag)
            if not self._runs.issuperset(runs):
                return False
            if len(runs) == 1:
                # The one run spans the tag, and is a whole run of some device.
                return True
        # Each device on its own, so no match spans two of them.
        word = re.compile(rf"(?<!\w){re.escape(tag)}(?!\w)")
        return any(map(word.search, self._folded))


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
