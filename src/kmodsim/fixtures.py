"""Deterministic synthetic fixtures: module catalogs plus device inventories.

Everything is driven by one seeded RNG, so the same arguments always produce
byte-identical files. Every generated module carries exactly one device tag;
the inventory contains a matching device for roughly ``hw_coverage`` of them
plus a couple of decoy devices that match nothing. A few ``*.symbols`` decoy
records are sprinkled in to exercise catalog filtering. Generation does
constant Python work per module around its random draws; only C-level passes
over the per-level module counts grow with ``max_depth``.

Every integer draw is taken from ``getrandbits`` by ``random.Random``'s own
rule for ``randrange(n)``: ``n.bit_length()`` bits, drawn again while the
value is ``n`` or more (see ``_below`` and ``_sample``). Each value, and the
generator's state after it, equals what ``randint``, ``randrange``,
``choice`` or ``sample`` would draw there (``tests/conftest.py`` keeps a
generator written with them as the reference). So the bytes rest only on
the seeded Mersenne Twister streams of ``getrandbits`` and ``random``, not on
how a Python release implements ``randrange``, ``choice`` or ``sample``. The
reference takes 2.7 times as long at (1000, 8, 1, 0.8) and (5000, 16, 1,
1.0) and 2.5 times at (50000, 16, 1, 0.8) (medians, the two alternating in
one process on 2 vCPUs, Python 3.11).
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
    if seed < 0:
        # random.Random(-n) seeds as Random(n) does: the same draws, other bytes.
        raise ConfigError(f"seed must be at least 0, got {seed}")

    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    names = _unique_names(rng, modules)

    # Levels grow one at a time so a level-k module always has a level-(k-1)
    # dependency available; that pins the longest chain to the deepest level,
    # which therefore never exceeds the module count. Here levels count from
    # 0, and a module takes a level below ``top``: one more than the number of
    # levels in use, or max_depth when that is smaller.
    buckets: list[list[str]] = [[] for _ in range(min(max_depth, modules))]
    counts = [0] * len(buckets)
    top = top_bits = 1
    catalog_lines = [
        CATALOG_HEADER,
        f"# modules={modules} max_depth={max_depth} seed={seed} hw_coverage={hw_coverage}",
    ]
    for name in names:
        # _below(getrandbits, top), inlined; top_bits is top.bit_length().
        level = getrandbits(top_bits)
        while level >= top:
            level = getrandbits(top_bits)
        if level == top - 1 and top < max_depth:
            top += 1
            top_bits = top.bit_length()
        if level:
            # Draw positions in the lower levels, not names, so the first
            # dependency can be skipped without copying the levels. Per
            # module that is constant Python work plus C-level passes over
            # the ``level`` counts below it.
            # _below(getrandbits, n), inlined.
            n = counts[level - 1]
            n_bits = n.bit_length()
            first = getrandbits(n_bits)
            while first >= n:
                first = getrandbits(n_bits)
            deps = buckets[level - 1][first]
            # The extra count, _below(getrandbits, min(2, others) + 1) inlined,
            # where others = lower - 1 modules below this level can join the
            # first. Level k-1 alone holding 3 or more makes others >= 2
            # certain, so the levels below are summed only when it holds fewer.
            if n >= 3 or (lower := sum(counts[:level])) > 2:
                extra = getrandbits(2)
                while extra == 3:
                    extra = getrandbits(2)
            else:
                extra = _below(getrandbits, lower)
            if extra:
                ends = list(accumulate(counts[:level]))
                skip, others = ends[-1] - n + first, ends[-1] - 1
                picked = [deps]
                for i in _sample(getrandbits, others, extra):
                    i += i >= skip
                    at = bisect_right(ends, i)
                    picked.append(buckets[at][i - ends[at - 1] if at else i])
                deps = ",".join(picked)
        else:
            deps = ""
        buckets[level].append(name)
        counts[level] += 1
        # A size of 4..96: _below(getrandbits, 93), inlined.
        size = getrandbits(7)
        while size >= 93:
            size = getrandbits(7)
        catalog_lines.append(f"{name}|{size + 4}|{deps}|dev-{name}")
    for name in names[:3]:
        catalog_lines.append(f"{name}.symbols|1||")

    draw = rng.random
    matched = [name for name in names if draw() < hw_coverage]

    inventory_lines = [
        INVENTORY_HEADER,
        f"# generated for seed={seed}",
    ]
    for name in matched:
        # _below(getrandbits, 8) and _below(getrandbits, 5), inlined.
        vendor = getrandbits(4)
        while vendor >= 8:
            vendor = getrandbits(4)
        suffix = getrandbits(3)
        while suffix >= 5:
            suffix = getrandbits(3)
        inventory_lines.append(f"{_VENDORS[vendor]} dev-{name} {_SUFFIXES[suffix]}")
    for _ in range(2):
        vendor = _VENDORS[_below(getrandbits, 8)]
        inventory_lines.append(f"{vendor} decoy{100 + _below(getrandbits, 900)} hub")

    return "\n".join(catalog_lines) + "\n", "\n".join(inventory_lines) + "\n"


def _below(getrandbits, n: int) -> int:
    """``random.Random(seed).randrange(n)``, drawn the way it draws: values
    of ``n.bit_length()`` bits until one is below ``n`` (n = 1 draws too)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _sample(getrandbits, n: int, k: int) -> list[int]:
    """``random.Random(seed).sample(range(n), k)`` for k of 1 or 2, drawn the
    way it draws: for n <= 21 from a pool, where the first pick's slot then
    holds n - 1, and above that from a set, where a repeat is drawn again."""
    first = _below(getrandbits, n)
    if k == 1:
        return [first]
    if n <= 21:
        second = _below(getrandbits, n - 1)
        if second == first:
            second = n - 1
    else:
        second = _below(getrandbits, n)
        while second == first:
            second = _below(getrandbits, n)
    return [first, second]


def _unique_names(rng: random.Random, count: int) -> list[str]:
    # A dict keeps the names in draw order and answers "seen?" in one lookup.
    # Each draw is _below inlined: a third syllable when a draw below 2 is 1,
    # syllables from 5 bits below 24, and a suffix from 7 bits below 100.
    getrandbits = rng.getrandbits
    names: dict[str, None] = {}
    while len(names) < count:
        longer = getrandbits(2)
        while longer >= 2:
            longer = getrandbits(2)
        a = getrandbits(5)
        while a >= 24:
            a = getrandbits(5)
        b = getrandbits(5)
        while b >= 24:
            b = getrandbits(5)
        name = _SYLLABLES[a] + _SYLLABLES[b]
        if longer:
            c = getrandbits(5)
            while c >= 24:
                c = getrandbits(5)
            name += _SYLLABLES[c]
        if name in names:
            suffix = getrandbits(7)
            while suffix >= 100:
                suffix = getrandbits(7)
            name = f"{name}{suffix}"
            if name in names:
                continue
        names[name] = None
    return list(names)
