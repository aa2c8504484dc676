"""Session timing, space accounting, and the cross-strategy bench harness."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress
from operator import attrgetter
from typing import Iterable, Sequence

from .catalog import ModuleCatalog
from .errors import ConfigError, LoadSetMismatch, MalformedTrace
from .hardware import HardwareInventory
from .loader import (
    DUP_ATTEMPT,
    EVENT_KINDS,
    LOAD,
    SKIP_FLAG,
    SKIP_HW,
    _ONE_JOB,
    LoadEvent,
    StrategyConfig,
    check_config,
    run_strategy,
)
from .registry import _selection, register_v0, register_v1


@dataclass(frozen=True)
class SessionTiming:
    """Wall time between first and last LOAD, plus per-kind event counts."""

    first_load_us: int
    last_load_us: int
    wall_us: int
    loads: int
    skips_hw: int
    skips_flag: int
    dup_attempts: int


@dataclass(frozen=True)
class SpaceReport:
    """Kernel-size accounting; total = loaded + saved + base_only, exactly."""

    total_kb: int
    loaded_kb: int
    saved_kb: int
    base_only_kb: int


@dataclass(frozen=True)
class StrategyResult:
    strategy: str
    median_wall_us: float
    normalized: float | None
    loads: int
    dup_attempts: int
    loaded: frozenset[str]


@dataclass(frozen=True)
class CompositeResult:
    """Measured cost of one registration plus four loads, per index format.

    Timed with a real clock around the calls and with simulated attach
    latency off, so the comparison isolates the algorithmic work the two
    pipelines actually differ in (hardware checks and dependency walking at
    load time versus at registration time).
    """

    v0_us: float
    v1_us: float

    @property
    def improvement_pct(self) -> float:
        if self.v1_us <= 0:
            return 0.0
        return (self.v0_us / self.v1_us - 1.0) * 100.0


@dataclass(frozen=True)
class BenchReport:
    workers: int
    repetitions: int
    results: tuple[StrategyResult, ...]
    composite: CompositeResult


def timing_from_trace(trace: Sequence[LoadEvent]) -> SessionTiming:
    """Fold a trace into counts and first/last-LOAD wall time.

    Only LOAD events carry timing; reordering or removing other events never
    changes the result beyond their own counters. An event of any other kind
    is a ``MalformedTrace``. The fold runs in C-level helpers, with no Python
    step per event.
    """
    kinds = list(map(attrgetter("kind"), trace))
    loads, skips_hw, skips_flag, dup_attempts = map(
        kinds.count, (LOAD, SKIP_HW, SKIP_FLAG, DUP_ATTEMPT)
    )
    if loads + skips_hw + skips_flag + dup_attempts != len(kinds):
        unknown = next(kind for kind in kinds if kind not in EVENT_KINDS)
        raise MalformedTrace(f"unknown event kind {unknown!r}")
    stamps = list(compress(map(attrgetter("timestamp_us"), trace), map(LOAD.__eq__, kinds)))
    first, last = (min(stamps), max(stamps)) if stamps else (0, 0)
    return SessionTiming(
        first_load_us=first,
        last_load_us=last,
        wall_us=last - first,
        loads=loads,
        skips_hw=skips_hw,
        skips_flag=skips_flag,
        dup_attempts=dup_attempts,
    )


def check_trace(catalog: ModuleCatalog, trace: Iterable[LoadEvent]) -> frozenset[str]:
    """The names a trace attached, once it is shown to keep the paper's rules.

    Every LOAD names a catalog module that is not ``@base``, no module
    LOADs twice, and each LOAD comes after the LOADs of its dependencies
    that are not ``@base``. The first LOAD that breaks a rule raises
    ``MalformedTrace``; events of other kinds are not read.
    """
    names, base = catalog.names, catalog.base
    offsets, targets = catalog.dep_offsets, catalog.dep_targets
    loaded = bytearray(len(catalog))
    for event in trace:
        if event.kind != LOAD:
            continue
        pos = catalog.index_of.get(event.module)
        if pos is None:
            raise MalformedTrace(f"LOAD of {event.module!r}, which is not in the catalog")
        if loaded[pos]:
            raise MalformedTrace(f"second LOAD of {event.module!r}")
        if base[pos]:
            raise MalformedTrace(f"LOAD of {event.module!r}, which is a resident @base module")
        for dep in targets[offsets[pos] : offsets[pos + 1]]:
            if not (loaded[dep] or base[dep]):
                raise MalformedTrace(
                    f"LOAD of {event.module!r} before its dependency {names[dep]!r}"
                )
        loaded[pos] = 1
    return frozenset(compress(names, loaded))


def space_report(catalog: ModuleCatalog, loaded_names: Iterable[str]) -> SpaceReport:
    """Account catalog size against the names a finished session attached.

    Base-kernel modules are bucketed separately: they are resident whether
    or not anything ran.
    """
    loaded_names = frozenset(loaded_names)
    total = loaded = base_only = 0
    for name, size, base in zip(catalog.names, catalog.sizes, catalog.base):
        total += size
        if base:
            base_only += size
        elif name in loaded_names:
            loaded += size
    return SpaceReport(
        total_kb=total,
        loaded_kb=loaded,
        saved_kb=total - loaded - base_only,
        base_only_kb=base_only,
    )


def bench(
    catalog: ModuleCatalog,
    selected: Iterable[str],
    inventory: HardwareInventory,
    strategies: Sequence[str],
    workers: int,
    repetitions: int = 5,
    load_base_us: float = 0.0,
    load_per_kb_us: float = 0.0,
) -> BenchReport:
    """Run every strategy on identical inputs and compare median wall times.

    Scores are normalized to stage0's median (1.0 by construction) when
    stage0 is among the strategies; otherwise they are omitted. The composite
    registration+4-loads metric for the v0 and v1 pipelines is always
    included. At least one strategy must be named, and none twice. Every
    strategy's ``check_config`` runs before anything else, and ``selected`` is
    read once, after those checks.
    """
    if not strategies:
        raise ConfigError("no strategies given")
    if repetitions < 1:
        raise ConfigError(f"repetitions must be at least 1, got {repetitions}")
    repeated = next((s for i, s in enumerate(strategies) if s in strategies[:i]), None)
    if repeated is not None:
        raise ConfigError(f"strategy {repeated!r} is named more than once")
    configs = [
        StrategyConfig(strategy, workers, load_base_us, load_per_kb_us) for strategy in strategies
    ]
    for config in configs:
        check_config(catalog, config)

    # Every registration below reads the selection, and a generator can be
    # read only once, so it is read here, after the argument checks.
    selected = _selection(catalog, selected)
    index_v0 = register_v0(catalog, selected)
    index_v1 = register_v1(catalog, selected, inventory)

    results = []
    for config in configs:
        strategy = config.strategy
        index = index_v1 if strategy == "stage1" else index_v0
        walls = []
        loaded: frozenset[str] | None = None
        for _ in range(repetitions):
            state, trace = run_strategy(catalog, index, inventory, config)
            timing = timing_from_trace(trace)
            walls.append(timing.wall_us)
            if loaded is None:
                loaded = state.loaded()
            elif state.loaded() != loaded:
                raise LoadSetMismatch(
                    f"{strategy}: loaded set changed between repetitions"
                )
        # The counts are the last repetition's.
        median = statistics.median(walls)
        results.append(
            StrategyResult(strategy, median, None, timing.loads, timing.dup_attempts, loaded)
        )

    base = next((r.median_wall_us for r in results if r.strategy == "stage0"), None)
    for r in results:
        # No caller holds a result yet, so its frozen field can still be set.
        object.__setattr__(r, "normalized", _normalize(r.median_wall_us, base))
    composite = _composite(catalog, selected, inventory, repetitions)
    return BenchReport(
        workers=workers, repetitions=repetitions, results=tuple(results), composite=composite
    )


def _normalize(wall: float, base: float | None) -> float | None:
    if base is None:
        return None
    if base == 0:
        return 1.0 if wall == 0 else float("inf")
    return wall / base


def _composite(catalog, selected, inventory, repetitions) -> CompositeResult:
    # Each repetition times v0's pipeline, then v1's.
    pipelines = (
        (partial(register_v0, catalog, selected), StrategyConfig("stage0")),
        (partial(register_v1, catalog, selected, inventory), StrategyConfig("stage1")),
    )
    samples = ([], [])
    for _ in range(repetitions):
        for (register, instant), times in zip(pipelines, samples):
            t0 = time.perf_counter_ns()
            index = register()
            for _ in range(4):
                run_strategy(catalog, index, inventory, instant)
            times.append((time.perf_counter_ns() - t0) / 1000)
    return CompositeResult(*map(statistics.median, samples))


CSV_HEADER = "strategy,workers,reps,median_wall_us,normalized_to_stage0,loads,dup_attempts"


def render_bench_csv(report: BenchReport) -> str:
    lines = [CSV_HEADER]
    for r in report.results:
        normalized = "" if r.normalized is None else f"{r.normalized:.3f}"
        workers = 1 if r.strategy in _ONE_JOB else report.workers
        lines.append(
            f"{r.strategy},{workers},{report.repetitions},"
            f"{r.median_wall_us:.1f},{normalized},{r.loads},{r.dup_attempts}"
        )
    return "\n".join(lines) + "\n"


def render_bench_text(report: BenchReport) -> str:
    lines = [
        f"bench: workers={report.workers} reps={report.repetitions} "
        "(scores normalized to stage0 median wall)",
        f"{'strategy':<10} {'median_wall_us':>14} {'normalized':>10} {'loads':>6} {'dups':>5}",
    ]
    for r in report.results:
        normalized = "-" if r.normalized is None else f"{r.normalized:.3f}"
        lines.append(
            f"{r.strategy:<10} {r.median_wall_us:>14.1f} {normalized:>10} "
            f"{r.loads:>6} {r.dup_attempts:>5}"
        )
    c = report.composite
    lines.append("composite (1 registration + 4 loads, attach latency off):")
    lines.append(f"  v0 pipeline: {c.v0_us:.1f} us")
    lines.append(f"  v1 pipeline: {c.v1_us:.1f} us")
    lines.append(f"  v1 improvement: {c.improvement_pct:.0f}%")
    return "\n".join(lines) + "\n"


# ``report``'s fields in output order, in three groups: the counts, the
# times and the sizes. The text form pads each name to the width of its
# group's longest name plus 2.
_SESSION_FIELDS = (
    ("loads", "skips_hw", "skips_flag", "dup_attempts"),
    ("first_load_us", "last_load_us", "wall_us"),
    ("total_kb", "loaded_kb", "saved_kb", "base_only_kb"),
)


def render_session_text(timing: SessionTiming, space: SpaceReport) -> str:
    values = {**vars(timing), **vars(space)}
    lines = []
    for group in _SESSION_FIELDS:
        width = max(map(len, group)) + 2
        lines += (f"{name + ':':<{width}}{values[name]}\n" for name in group)
    return "".join(lines)


def render_session_csv(timing: SessionTiming, space: SpaceReport) -> str:
    values = {**vars(timing), **vars(space)}
    names = list(chain.from_iterable(_SESSION_FIELDS))
    return ",".join(names) + "\n" + ",".join(str(values[name]) for name in names) + "\n"
