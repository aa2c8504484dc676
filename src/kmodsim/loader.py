"""Load-session engine: four attachment strategies over one catalog.

stage0  sequential scan in catalog order, depth-first dependency loading
stage1  depth sweep over a v1 index (no dependency walk, no hardware check)
stage2  parallel redundant scans with one global lock around attachment
stage3  lock-free: disjoint catalog partitions, one per loading worker

All strategies share a per-session ``LoadState``: a claimed set and a done
set guarded by one ``threading.Condition`` for the whole session, however
large the catalog. The unloaded->loaded claim is a test-and-set under that
condition; the pre-claim check is a plain read of the done set. A worker that
passes the read check but loses the claim records a ``DUP_ATTEMPT`` event and
then waits on the condition until the winner finishes, so a dependent module
can never start attaching before its dependencies have completed. Duplicates
therefore surface only as DUP_ATTEMPT events, never as a second LOAD.

Base-kernel modules are resident from the start: they are never attached,
produce no events, and satisfy any dependency on them immediately.

Event timestamps come from the session clock. With a nonzero load cost the
clock is real (monotonic microseconds since session start); in instant mode
(both costs zero) all timestamps are 0 so that single-threaded runs are
byte-reproducible. LOAD events are stamped and appended at *completion*, and
a module's completion flag is raised only after its event is in the trace, so
trace order respects dependency completion under every schedule.

Nothing in this module touches process-global state; any number of sessions
may run concurrently in one process.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .catalog import ModuleCatalog, ModuleRecord
from .errors import ConfigError, IndexMismatch, LoadTimeout, MalformedTrace
from .hardware import HardwareInventory, check_hardware_support
from .registry import IndexFile

LOAD = "LOAD"
SKIP_HW = "SKIP_HW"
SKIP_FLAG = "SKIP_FLAG"
DUP_ATTEMPT = "DUP_ATTEMPT"
EVENT_KINDS = frozenset({LOAD, SKIP_HW, SKIP_FLAG, DUP_ATTEMPT})

STRATEGIES = ("stage0", "stage1", "stage2", "stage3")

_COMPLETION_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class LoadEvent:
    """One observation by one worker; traces are append-only event logs."""

    timestamp_us: int
    worker_id: int
    kind: str
    module: str


@dataclass(frozen=True)
class StrategyConfig:
    """Strategy selection plus simulated per-module attach latency."""

    strategy: str
    workers: int = 1
    load_base_us: float = 0.0
    load_per_kb_us: float = 0.0

    @property
    def instant(self) -> bool:
        return self.load_base_us == 0 and self.load_per_kb_us == 0


@dataclass(frozen=True)
class PartitionPlan:
    """Contiguous per-worker index ranges covering the whole catalog."""

    step: int
    ranges: tuple[tuple[int, int], ...]

    @property
    def workers(self) -> int:
        return len(self.ranges)


def plan_partitions(n_modules: int, workers: int) -> PartitionPlan:
    """Split ``[0, n_modules)`` among ``workers - 1`` loading workers.

    The step is the ceiling of n/(workers-1) so no tail of the catalog is
    left unowned; the trailing ranges are clamped and may be empty.
    """
    if workers < 2:
        raise ConfigError(f"partitioned loading needs at least 2 workers, got {workers}")
    if n_modules < 0:
        raise ConfigError(f"negative module count {n_modules}")
    loading = workers - 1
    step = -(-n_modules // loading) if n_modules else 0
    ranges = tuple(
        (min(k * step, n_modules), min((k + 1) * step, n_modules))
        for k in range(loading)
    )
    return PartitionPlan(step=step, ranges=ranges)


def simulate_load(module: ModuleRecord, config: StrategyConfig) -> float:
    """Sleep for the module's nominal attach latency and return it (µs)."""
    cost_us = config.load_base_us + module.size_kb * config.load_per_kb_us
    if cost_us > 0:
        time.sleep(cost_us / 1_000_000)
    return cost_us


class _SessionClock:
    """Microsecond session clock: monotonic, or frozen at 0 in instant mode."""

    def __init__(self, instant: bool):
        self._instant = instant
        self._t0 = time.monotonic_ns()

    def now_us(self) -> int:
        if self._instant:
            return 0
        return (time.monotonic_ns() - self._t0) // 1000


class LoadState:
    """Shared load table: claimed and done sets under one session condition.

    ``is_complete`` is a plain read; ``try_claim`` is the only transition
    that can fail. Base-kernel modules start resident (done, unclaimable).
    """

    def __init__(self, catalog: ModuleCatalog):
        resident = {rec.name for rec in catalog.records if rec.base_kernel_only}
        self._claimed = set(resident)
        self._done = set(resident)
        self._loaded: list[str] = []
        self._cond = threading.Condition()

    def is_complete(self, name: str) -> bool:
        return name in self._done

    def try_claim(self, name: str) -> bool:
        with self._cond:
            if name in self._claimed:
                return False
            self._claimed.add(name)
            return True

    def mark_complete(self, name: str) -> None:
        with self._cond:
            self._loaded.append(name)
            self._done.add(name)
            self._cond.notify_all()

    def wait_complete(self, name: str) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: name in self._done, _COMPLETION_TIMEOUT_S):
                raise LoadTimeout(f"timed out waiting for module {name!r} to finish loading")

    def loaded(self) -> frozenset[str]:
        """Names attached dynamically this session (resident modules excluded)."""
        with self._cond:
            return frozenset(self._loaded)


class LoadSession:
    """One strategy execution: owns the state, the trace, and the workers."""

    def __init__(
        self,
        catalog: ModuleCatalog,
        index: IndexFile,
        inventory: HardwareInventory,
        config: StrategyConfig,
    ):
        strategy = config.strategy
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}")
        if config.workers < 1:
            raise ConfigError(f"workers must be positive, got {config.workers}")
        if strategy in ("stage2", "stage3") and config.workers < 2:
            raise ConfigError(f"{strategy} needs at least 2 workers, got {config.workers}")
        if not all(0 <= cost < math.inf for cost in (config.load_base_us, config.load_per_kb_us)):
            raise ConfigError("load costs must be finite and non-negative")
        largest_kb = max(
            (rec.size_kb for rec in catalog.records if not rec.base_kernel_only), default=0
        )
        worst_us = config.load_base_us + largest_kb * config.load_per_kb_us
        if worst_us > _COMPLETION_TIMEOUT_S * 1_000_000:
            raise ConfigError(
                f"one attach would take {worst_us:g} us, longer than the "
                f"{_COMPLETION_TIMEOUT_S:g} s a worker waits for a claim winner"
            )
        required = "v1" if strategy == "stage1" else "v0"
        if index.version != required:
            raise IndexMismatch(
                f"{strategy} needs a {required} index, got {index.version}"
            )
        if tuple(name for name, _ in index.entries) != catalog.names:
            raise IndexMismatch("index entries do not line up with catalog positions")

        self._strategy = strategy
        self._catalog = catalog
        self._values = [value for _, value in index.entries]
        self._inventory = inventory
        self._config = config
        self._clock = _SessionClock(instant=config.instant)
        self.state = LoadState(catalog)
        self._events: list[LoadEvent] = []
        self._events_lock = threading.Lock()
        self._attach_lock = threading.Lock()  # stage2's single exclusion region

    def run(self) -> tuple[LoadState, list[LoadEvent]]:
        runner = {
            "stage0": self._run_stage0,
            "stage1": self._run_stage1,
            "stage2": self._run_stage2,
            "stage3": self._run_stage3,
        }[self._strategy]
        runner()
        return self.state, list(self._events)

    # -- strategies ------------------------------------------------------

    def _run_stage0(self) -> None:
        self._scan(worker=0, start=0, end=len(self._catalog))

    def _run_stage1(self) -> None:
        # Depth-major, then catalog position; depth 0 (not selected) is empty.
        top = max(self._values, default=0)
        buckets: list[list[ModuleRecord]] = [[] for _ in range(top + 1)]
        for rec, value in zip(self._catalog.records, self._values):
            if value and not rec.base_kernel_only:
                buckets[value].append(rec)
        for bucket in buckets:
            for rec in bucket:
                self._load_one(rec, worker=0)

    def _run_stage2(self) -> None:
        n = len(self._catalog)
        workers = self._config.workers
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(self._scan, w, 0, n, self._attach_lock)
                for w in range(workers)
            ]
            for fut in futures:
                fut.result()

    def _run_stage3(self) -> None:
        plan = plan_partitions(len(self._catalog), self._config.workers)
        with ThreadPoolExecutor(max_workers=plan.workers) as pool:
            futures = [
                pool.submit(self._scan, w, start, end)
                for w, (start, end) in enumerate(plan.ranges)
            ]
            for fut in futures:
                fut.result()

    # -- scanning and attachment -----------------------------------------

    def _scan(self, worker: int, start: int, end: int, lock: threading.Lock | None = None) -> None:
        records = self._catalog.records
        for pos in range(start, end):
            rec = records[pos]
            if rec.base_kernel_only:
                continue  # resident; not a dynamic-load candidate
            if not self._values[pos]:
                self._emit(worker, SKIP_FLAG, rec.name)
                continue
            if not check_hardware_support(rec, self._inventory):
                self._emit(worker, SKIP_HW, rec.name)
                continue
            if self.state.is_complete(rec.name):
                continue  # same silent fast-path _attach would take
            if lock is not None:
                with lock:
                    self._attach(rec.name, worker)
            else:
                self._attach(rec.name, worker)

    def _attach(self, root: str, worker: int) -> None:
        """Depth-first idempotent attach: dependencies complete before the claim."""
        record = self._catalog.record
        stack = [(root, 0)]
        while stack:
            name, dep_pos = stack.pop()
            rec = record(name)
            if rec.base_kernel_only or self.state.is_complete(name):
                continue
            if dep_pos < len(rec.deps):
                stack.append((name, dep_pos + 1))
                stack.append((rec.deps[dep_pos], 0))
                continue
            self._load_one(rec, worker)

    def _load_one(self, rec: ModuleRecord, worker: int) -> None:
        if self.state.try_claim(rec.name):
            simulate_load(rec, self._config)
            self._emit(worker, LOAD, rec.name)
            self.state.mark_complete(rec.name)
        else:
            self._emit(worker, DUP_ATTEMPT, rec.name)
            self.state.wait_complete(rec.name)

    def _emit(self, worker: int, kind: str, module: str) -> None:
        event = LoadEvent(self._clock.now_us(), worker, kind, module)
        with self._events_lock:
            self._events.append(event)


def load_stage0(catalog, index, inventory, config=None):
    """Sequential baseline: scan alphabetically, recurse into dependencies."""
    return _run("stage0", catalog, index, inventory, config)


def load_stage1(catalog, index, inventory, config=None):
    """Depth sweep over a v1 index; hardware was already checked at registration."""
    return _run("stage1", catalog, index, inventory, config)


def load_stage2(catalog, index, inventory, config=None):
    """All workers scan the full catalog; attachment runs under one global lock."""
    return _run("stage2", catalog, index, inventory, config)


def load_stage3(catalog, index, inventory, config=None):
    """Lock-free partitioned loading; workers share only the module claims."""
    return _run("stage3", catalog, index, inventory, config)


def run_strategy(
    catalog: ModuleCatalog,
    index: IndexFile,
    inventory: HardwareInventory,
    config: StrategyConfig,
) -> tuple[LoadState, list[LoadEvent]]:
    """Dispatch on ``config.strategy``."""
    return LoadSession(catalog, index, inventory, config).run()


def _run(strategy, catalog, index, inventory, config):
    if config is None:
        config = StrategyConfig(strategy, workers=2 if strategy in ("stage2", "stage3") else 1)
    elif config.strategy != strategy:
        raise ConfigError(f"load_{strategy} was given a {config.strategy!r} config")
    return LoadSession(catalog, index, inventory, config).run()


def format_trace(events) -> str:
    """One ``<timestamp_us> <worker_id> <KIND> <module>`` line per event."""
    return "".join(
        f"{e.timestamp_us} {e.worker_id} {e.kind} {e.module}\n" for e in events
    )


def parse_trace(text: str) -> list[LoadEvent]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise MalformedTrace(f"line {lineno}: expected 4 fields, got {len(parts)}")
        ts_raw, worker_raw, kind, module = parts
        try:
            ts, worker = int(ts_raw), int(worker_raw)
        except ValueError:
            raise MalformedTrace(f"line {lineno}: non-integer timestamp or worker") from None
        if kind not in EVENT_KINDS:
            raise MalformedTrace(f"line {lineno}: unknown event kind {kind!r}")
        events.append(LoadEvent(ts, worker, kind, module))
    return events
