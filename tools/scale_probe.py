"""Median ``parse_catalog`` and hardware-gate times at the north star's scale points.

For each size n, this generates the catalog and inventory of
``generate_fixture(n, 16, 1, 0.8)`` and times ``kmodsim.catalog.parse_catalog``
on four shapes of the catalog:

- ``file-order``: the generated file, which lists every module after its
  dependencies, so one forward pass in file order gives the levels;
- ``name-order``: the catalog as ``serialize_catalog`` writes it, in name
  order, where a dependent usually comes first, so the pass in file order
  gives up and the levels come from the pass in the depth-first walk's order
  (no benchmark workload times that walk);
- ``reversed``: the generated file with its record lines in reverse order, so
  every dependent comes before its dependencies and the walk descends as
  deep as the catalog goes;
- ``repeat``: the generated file with every dependency run naming its first
  dependency once more at its end, so every such run is rebuilt to keep each
  name's first mention.

Then it times what one gated command pays for the gate, as a ``gate`` row: a
fresh ``parse_inventory`` of the inventory, then ``supports`` for every
module's tags, so the gate's sets are built once within each call.

It prints one row per size and shape, and the ``gate`` row, after a header
line:

    <modules> <shape> <median ms>

All four shapes must parse to the same catalog; the exit status is 1 when
one does not. ``kmodsim`` is imported from the checkout given by ``--root``
(this checkout by default), so two checkouts compare with two runs:

    python3 tools/scale_probe.py --root ../parent
    python3 tools/scale_probe.py
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parents[1]
SIZES = (1_000, 10_000, 50_000)


def repeat_first_dependency(text: str) -> str:
    """Catalog ``text`` with each dependency run naming its first name again at its end."""
    lines = []
    for line in text.splitlines():
        fields = line.split("|")
        if len(fields) == 4 and fields[2] and not line.startswith("#"):
            fields[2] += "," + fields[2].split(",", 1)[0]
        lines.append("|".join(fields))
    return "\n".join(lines) + "\n"


def reverse_records(text: str) -> str:
    """Catalog ``text`` with every line after the header in reverse order."""
    header, *lines = text.splitlines()
    return "\n".join([header, *reversed(lines)]) + "\n"


def shapes(catalog_module, text: str) -> dict[str, str]:
    """The four texts that the probe parses, by shape name."""
    name_order = catalog_module.serialize_catalog(catalog_module.parse_catalog(text))
    return {
        "file-order": text,
        "name-order": name_order,
        "reversed": reverse_records(text),
        "repeat": repeat_first_dependency(text),
    }


def check_every_module(hardware_module, inventory_text: str, hw_tags) -> list[bool]:
    """A fresh inventory's ``supports`` answer for each module's tag tuple."""
    supports = hardware_module.parse_inventory(inventory_text).supports
    return [supports(tags) for tags in hw_tags]


def median_ms(call, text: str, calls: int) -> float:
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call(text)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="checkout whose src/ is timed")
    parser.add_argument("--modules", action="append", type=int,
                        help="catalog size, repeatable (default: 1000, 10000, 50000)")
    parser.add_argument("--calls", type=int, default=7,
                        help="calls per row; the median is printed (default: 7)")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")

    root = args.root.resolve()
    sys.path.insert(0, str(root / "benchmarks"))
    import run  # the checkout's benchmarks/run.py

    kmodsim = run.load_program(root)
    catalog_module = kmodsim.catalog
    print(f"# medians of {args.calls} calls, ms; python "
          f"{platform.python_version()}, {os.cpu_count()} CPUs")
    failed = 0
    for modules in args.modules or SIZES:
        text, inventory_text = kmodsim.fixtures.generate_fixture(modules, 16, 1, 0.8)
        expected = catalog_module.parse_catalog(text)
        for shape, shaped in shapes(catalog_module, text).items():
            if catalog_module.parse_catalog(shaped) != expected:
                print(f"error: {modules} {shape} parses to another catalog", file=sys.stderr)
                failed += 1
                continue
            ms = median_ms(catalog_module.parse_catalog, shaped, args.calls)
            print(f"{modules} {shape} {ms:.3f}")
        ms = median_ms(
            lambda inventory: check_every_module(kmodsim.hardware, inventory, expected.hw_tags),
            inventory_text, args.calls,
        )
        print(f"{modules} gate {ms:.3f}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
