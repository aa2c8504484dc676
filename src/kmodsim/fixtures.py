"""Deterministic synthetic fixtures: module catalogs plus device inventories.

Everything is driven by one seeded RNG, so the same arguments always produce
byte-identical files. Every generated module carries exactly one device tag;
the inventory contains a matching device for roughly ``hw_coverage`` of them
plus a couple of decoy devices that match nothing. A few ``*.symbols`` decoy
records are sprinkled in to exercise catalog filtering. Generation does
constant Python work per module around its random draws; only C-level passes
over the per-level module counts grow with ``max_depth``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate

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
    randint, randrange, sample = rng.randint, rng.randrange, rng.sample
    names = _unique_names(rng, modules)

    # Levels grow one at a time so a level-k module always has a level-(k-1)
    # dependency available; that pins the longest chain to the deepest level,
    # which therefore never exceeds the module count. Here levels count from
    # 0, and a module takes a level below ``top``: one more than the number of
    # levels in use, or max_depth when that is smaller.
    buckets: list[list[str]] = [[] for _ in range(min(max_depth, modules))]
    counts = [0] * len(buckets)
    top = 1
    catalog_lines = [
        CATALOG_HEADER,
        f"# modules={modules} max_depth={max_depth} seed={seed} hw_coverage={hw_coverage}",
    ]
    for name in names:
        level = randint(1, top) - 1
        if level == top - 1 and top < max_depth:
            top += 1
        if level:
            # Draw positions in the lower levels, not names (the RNG use is
            # the same, since sample picks indices by length alone), so the
            # first dependency can be skipped without copying the levels.
            # Per module that is constant Python work plus C-level passes
            # over the ``level`` counts below it.
            first = randrange(counts[level - 1])
            below = sum(counts[: level - 1])
            skip, others = below + first, below + counts[level - 1] - 1
            extra = randint(0, min(2, others))
            deps = buckets[level - 1][first]
            if extra:
                ends = list(accumulate(counts[:level]))
                picked = [deps]
                for i in sample(range(others), extra):
                    i += i >= skip
                    at = bisect_right(ends, i)
                    picked.append(buckets[at][i - ends[at - 1] if at else i])
                deps = ",".join(picked)
        else:
            deps = ""
        buckets[level].append(name)
        counts[level] += 1
        catalog_lines.append(f"{name}|{randint(4, 96)}|{deps}|dev-{name}")
    for name in names[:3]:
        catalog_lines.append(f"{name}.symbols|1||")

    draw = rng.random
    matched = [name for name in names if draw() < hw_coverage]

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
    # A dict keeps the names in draw order and answers "seen?" in one lookup.
    choice, randint = rng.choice, rng.randint
    names: dict[str, None] = {}
    while len(names) < count:
        if randint(2, 3) == 3:
            name = choice(_SYLLABLES) + choice(_SYLLABLES) + choice(_SYLLABLES)
        else:
            name = choice(_SYLLABLES) + choice(_SYLLABLES)
        if name in names:
            name = f"{name}{randint(0, 99)}"
            if name in names:
                continue
        names[name] = None
    return list(names)
