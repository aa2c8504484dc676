"""Where the collector's full collections fall in gauged pipeline passes.

``benchmarks/run.py`` rescales each command's time by the ``reference_loop``
readings taken right before and after it, and a full (generation 2)
collection costs several milliseconds. One that falls inside a gauge reading
slows that reading, and so scales its neighbouring commands down; one that
moves from one command to another moves that cost between metrics. This
tool runs ``--passes`` gauged pipeline passes (``Bench.pipeline_pass(gauge=True)``,
as an untraced benchmark run does) for one workload and seed, counts each
full collection through ``gc.callbacks`` by where it started, and prints one
row per place, in pass order:

    <where> <full collections per pass> <median ms> <median scaled ms>

A command's row is named by its key in the pass (``register.v0``,
``load.stage2``, ``report.stage3``, ...); its times are the command's
unscaled wall time and its rescaled time. A gauge reading's row is
``gauge<threads> after <command>`` (``gauge1 start`` for the reading that
opens the pass), and its time is the reading itself, CPU milliseconds per
thread. ``elsewhere`` counts collections outside every command and reading:
the pass's own opening ``gc.collect()`` (exactly one per pass) and the
output checks that end it. A collection in a loader or gauge thread counts
where the calling thread was when it started.

Both the benchmark code and ``kmodsim`` are imported from the checkout given
by ``--root`` (this checkout by default), and nothing there is edited:

    python3 tools/gc_where.py --workload ungated-5k --seed 1 --passes 20
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import statistics
import sys
import tempfile
from pathlib import Path
from unittest import mock

DEFAULT_ROOT = Path(__file__).resolve().parents[1]
ELSEWHERE = "elsewhere"


def command_key(bench, argv: list[str]) -> str:
    """The key ``Bench.pipeline_pass`` files this command's times under."""
    if argv[0] == "register":
        return f"register.{argv[argv.index('--version') + 1]}"
    if argv[0] == "load":
        return f"load.{argv[argv.index('--strategy') + 1]}"
    trace = argv[argv.index("--trace") + 1]
    return f"report.{next(s for s, path in bench.trace.items() if str(path) == trace)}"


@dataclasses.dataclass
class Places:
    """Full collections and gauge readings by place, over every pass run."""

    order: dict[str, None] = dataclasses.field(default_factory=lambda: {ELSEWHERE: None})
    full: dict[str, int] = dataclasses.field(default_factory=dict)
    readings: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    passes: list[dict] = dataclasses.field(default_factory=list)

    def rows(self) -> list[tuple[str, float, float | None, float | None]]:
        """(place, full collections per pass, median ms, median scaled ms), in pass order."""
        table = []
        for place in self.order:
            per_pass = self.full.get(place, 0) / len(self.passes)
            if place in self.readings:
                table.append((place, per_pass, statistics.median(self.readings[place]) * 1e3, None))
            elif place == ELSEWHERE:
                table.append((place, per_pass, None, None))
            else:
                table.append((
                    place, per_pass,
                    statistics.median(p["times"][place] for p in self.passes) * 1e3,
                    statistics.median(p["scaled"][place] for p in self.passes) * 1e3,
                ))
        return table


def locate(run, bench, passes: int) -> Places:
    """Run ``passes`` gauged pipeline passes, noting where each full collection starts."""
    places = Places()
    where, last = ELSEWHERE, "start"

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start" and info["generation"] == 2:
            places.full[where] = places.full.get(where, 0) + 1

    @contextlib.contextmanager
    def at(place: str):
        nonlocal where
        places.order.setdefault(place)
        where = place
        try:
            yield
        finally:
            where = ELSEWHERE

    command, reference_loop = bench.command, run.reference_loop

    def located_command(argv: list[str]):
        nonlocal last
        last = command_key(bench, argv)
        with at(last):
            return command(argv)

    def located_reference_loop(threads: int = 1) -> float:
        place = f"gauge{threads} {'start' if last == 'start' else 'after ' + last}"
        with at(place):
            seconds = reference_loop(threads)
        places.readings.setdefault(place, []).append(seconds)
        return seconds

    gc.callbacks.append(on_gc)
    try:
        with mock.patch.object(bench, "command", located_command), \
                mock.patch.object(run, "reference_loop", located_reference_loop):
            for _ in range(passes):
                last = "start"
                places.passes.append(bench.pipeline_pass(gauge=True))
    finally:
        gc.callbacks.remove(on_gc)
    return places


def _ms(value: float | None) -> str:
    return "-" if value is None else f"{value:.3f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="checkout whose benchmarks/ and src/ are run")
    parser.add_argument("--workload", required=True, help="workload name")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    parser.add_argument("--passes", type=int, default=10, help="gauged passes (default: 10)")
    parser.add_argument("--modules", type=int,
                        help="module count in place of the workload's own")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    root = args.root.resolve()
    sys.path.insert(0, str(root / "benchmarks"))
    import run  # the checkout's benchmarks/run.py

    if args.workload not in run.WORKLOADS:
        parser.error(f"unknown workload: {args.workload}")
    workload = run.WORKLOADS[args.workload]
    if args.modules is not None:
        workload = dataclasses.replace(workload, modules=args.modules)
    kmodsim = run.load_program(root)
    with tempfile.TemporaryDirectory(prefix="kmodsim-gc-where-") as work:
        bench = run.Bench(kmodsim, workload, args.seed, Path(work))
        bench.setup()
        bench.load_oracle()
        places = locate(run, bench, args.passes)
    print(f"# {workload.name} modules={workload.modules} seed={args.seed} "
          f"passes={args.passes} full collections per pass")
    print(f"{'where':<28} {'full_gc':>8} {'median_ms':>10} {'scaled_ms':>10}")
    for place, full, ms, scaled in places.rows():
        print(f"{place:<28} {full:>8.2f} {_ms(ms):>10} {_ms(scaled):>10}")
    if bench.failed:
        print(f"error: {bench.failed} command(s) or check(s) failed", file=sys.stderr)
    return 1 if bench.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
