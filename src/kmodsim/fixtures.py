"""Deterministic synthetic fixtures: module catalogs plus device inventories.

Everything is driven by one seeded RNG, so the same arguments always produce
byte-identical files. Every generated module carries exactly one device tag;
the inventory contains a matching device for roughly ``hw_coverage`` of them
plus a couple of decoy devices that match nothing. A few ``*.symbols`` decoy
records are sprinkled in to exercise catalog filtering. Generation costs
O(modules × max_depth).
"""

from __future__ import annotations

import random

from .catalog import CATALOG_HEADER
from .errors import ConfigError
from .hardware import INVENTORY_HEADER

_SYLLABLES = (
    "ba", "co", "da", "el", "fi", "gu", "ha", "io", "ju", "ka", "lo", "mi",
    "nu", "or", "pe", "qu", "ra", "si", "tu", "vex", "wo", "xa", "yo", "zen",
)
_VENDORS = (
    "Aquantia", "Broadcom", "Chelsio", "Intel", "Marvell",
    "Qualcomm", "Realtek", "Silicom",
)
_SUFFIXES = ("adapter", "controller", "bridge rev 2", "PHY", "offload engine")
# How many distinct names _unique_names can draw: every 2- and 3-syllable stem
# (24**2 + 24**3, all distinct), bare or followed by one of 0..99.
MAX_MODULES = 14_400 * 101


def generate_fixture(
    modules: int, max_depth: int, seed: int, hw_coverage: float
) -> tuple[str, str]:
    """Build (catalog_text, inventory_text) for the given shape.

    The dependency graph is acyclic by construction and its longest chain is
    at most ``max_depth``.
    """
    if modules < 1:
        raise ConfigError(f"module count must be at least 1, got {modules}")
    if modules > MAX_MODULES:
        raise ConfigError(
            f"module count must be at most {MAX_MODULES} (distinct names), got {modules}"
        )
    if max_depth < 1:
        raise ConfigError(f"max depth must be at least 1, got {max_depth}")
    if not 0.0 <= hw_coverage <= 1.0:
        raise ConfigError(f"hw coverage must be within [0, 1], got {hw_coverage}")

    rng = random.Random(seed)
    names = _unique_names(rng, modules)

    # Levels grow one at a time so a level-k module always has a level-(k-1)
    # dependency available; that pins the longest chain to the deepest level,
    # which therefore never exceeds the module count.
    buckets: list[list[str]] = [[] for _ in range(min(max_depth, modules))]
    highest = 0
    plan = []
    for name in names:
        level = rng.randint(1, min(max_depth, highest + 1))
        deps: list[str] = []
        if level > 1:
            # Draw positions in the lower levels, not names (the RNG use is
            # the same, since sample picks indices by length alone), so the
            # first dependency can be skipped without copying the levels:
            # O(max_depth) per module in place of O(modules).
            first = rng.choice(range(len(buckets[level - 2])))
            deps.append(buckets[level - 2][first])
            below = sum(len(bucket) for bucket in buckets[: level - 2])
            skip, others = below + first, below + len(buckets[level - 2]) - 1
            extra = rng.randint(0, min(2, others))
            for i in rng.sample(range(others), extra):
                i += i >= skip
                for bucket in buckets[: level - 1]:
                    if i < len(bucket):
                        break
                    i -= len(bucket)
                deps.append(bucket[i])
        buckets[level - 1].append(name)
        highest = max(highest, level)
        size_kb = rng.randint(4, 96)
        plan.append((name, size_kb, deps, f"dev-{name}"))

    matched = [name for name, *_ in plan if rng.random() < hw_coverage]

    catalog_lines = [
        CATALOG_HEADER,
        f"# modules={modules} max_depth={max_depth} seed={seed} hw_coverage={hw_coverage}",
    ]
    for name, size_kb, deps, tag in plan:
        catalog_lines.append(f"{name}|{size_kb}|{','.join(deps)}|{tag}")
    for name in names[: min(3, modules)]:
        catalog_lines.append(f"{name}.symbols|1||")

    inventory_lines = [
        INVENTORY_HEADER,
        f"# generated for seed={seed}",
    ]
    for name in matched:
        vendor = rng.choice(_VENDORS)
        suffix = rng.choice(_SUFFIXES)
        inventory_lines.append(f"{vendor} dev-{name} {suffix}")
    for _ in range(2):
        inventory_lines.append(f"{rng.choice(_VENDORS)} decoy{rng.randint(100, 999)} hub")

    return "\n".join(catalog_lines) + "\n", "\n".join(inventory_lines) + "\n"


def _unique_names(rng: random.Random, count: int) -> list[str]:
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if name in seen:
            name = f"{name}{rng.randint(0, 99)}"
        if name in seen:
            continue
        seen.add(name)
        names.append(name)
    return names
