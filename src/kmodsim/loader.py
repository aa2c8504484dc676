"""Load-session engine: four attachment strategies over one catalog.

stage0  sequential scan in catalog order, depth-first dependency loading
stage1  depth sweep over a v1 index (no dependency walk, no hardware check)
stage2  parallel redundant scans with one global lock around attachment
stage3  lock-free: disjoint catalog partitions, one per loading worker

Workers address modules by catalog position, walk dependencies over the
catalog's flat ``dep_offsets``/``dep_targets``, and use names only in events.
stage0, stage2 and stage3 run one scan as different jobs: stage0 scans the
single range ``(0, n)`` on the calling thread, stage2 one full scan per worker
under one shared lock, and stage3 one partition per loading worker.

All strategies share a per-session ``LoadState``: one state byte per position
(free, claimed, failed, done, resident) under one ``threading.Lock`` for the
whole session, however large the catalog. Every transition takes that lock
directly: the free->claimed step is a test-and-set under it, and a completion
sets its byte under it. A worker that passes the pre-claim check (a plain read
of the byte) but loses the claim records a ``DUP_ATTEMPT`` event and then
waits on a condition built on the same lock until the winner finishes, so a
dependent module can never start attaching before its dependencies have
completed. Duplicates therefore surface only as DUP_ATTEMPT events, never as a
second LOAD. A waiter raises a waiter count under the lock before it checks
the byte and lowers it when it stops waiting; a completer sets the byte and
then calls ``notify_all`` only if the count is nonzero, so single-worker boots
never notify. A wait that times out raises ``LoadTimeout`` even if the byte
has settled by then, so a lost wakeup is reported, not slept through. A
winner whose attach raises marks the position failed, which wakes its waiters
at once with ``AttachFailed``; the session then raises the attach's own error.

Each worker is one generator, ``_attach_loop``, over its candidate roots.
It walks each root depth-first and reads the state bytes directly. It passes
over complete dependencies in place and descends into an incomplete one,
pushing the dependent and its next dependency entry to read, so each entry
of a module's dependency run is read at most once per walk. stage0, stage2 and stage3 take
their roots from ``_scan``, which records SKIP_FLAG and SKIP_HW on the way.
stage1 takes its sorted list, and each of its dependency cursors starts at
the end of its run, so it reads no dependency.

The worker's only scheduling points are its three shared-state steps: it
yields before the claim, while a claimed load is in flight (before its LOAD
is emitted), and, after losing a claim, the position it is about to wait on.
The wait (``wait_complete``) stays in the generator after that yield, so a
failure, ``LoadTimeout`` included, is raised in the worker and releases
stage2's lock. ``run`` exhausts each generator that ``LoadSession._jobs()``
returns, stage0 and stage1 on the calling thread and stage2 and stage3 on a
thread pool, and ``tests/test_schedules.py`` steps stage3's jobs through
every interleaving.

Base-kernel modules are resident: complete from the start, so they are never
attached, produce no events, and satisfy any dependency on them immediately.

A session reads the index's ``values`` column as it is, after checking that
its ``names`` are the catalog's. stage1 sweeps the positions whose value is
nonzero and that are not resident, ordered by one stable sort on the value:
depth-major, then catalog position. A resident module never enters the
sweep, whatever depth v1 gave it.

Attaches run on a paced clock. ``simulate_load`` only prices an attach (its
nominal cost in µs); the worker then sleeps it out in ``_pace``. A sleep
always wakes late, so each worker's generator keeps a local lag: how far its
sleeps have overrun their nominal costs so far. An attach that starts at
``now`` sleeps until ``due = now - lag + cost``, or not at all if ``due`` has
passed, and carries ``lag = wake - due`` to the next. A worker's attaches
therefore take their nominal total plus at most one overshoot, and never
less: each deadline is at least the previous one plus its own cost. No attach
sleeps longer than its own cost. Every worker starts at lag 0, and instant
mode (both costs zero) never reads the clock.

Event timestamps are monotonic microseconds since session start. In instant
mode every timestamp is 0, so that single-threaded runs are
byte-reproducible. Each event is one ``LoadEvent`` named tuple, appended to
the session's list without a lock: ``list.append`` is atomic, so concurrent
workers lose no event. LOAD events are stamped and appended at *completion*,
and a module's completion flag is raised only after its event is in the
trace, so trace order respects dependency completion under every schedule.

``parse_trace`` scans a trace in canonical shape (what ``format_trace``
writes) with one regular expression and turns it into events in bulk,
converting each distinct timestamp or worker text to an int once (an instant
trace has one timestamp); any other text goes line by line through
``_parse_lines``, which accepts the same traces and is the only source of
``MalformedTrace`` messages.

Nothing in this module touches process-global state; any number of sessions
may run concurrently in one process.
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress
from operator import mul, not_
from typing import NamedTuple

from .catalog import _DIGITS, ModuleCatalog, _ints
from .errors import AttachFailed, ConfigError, IndexMismatch, LoadTimeout, MalformedTrace
from .hardware import HardwareInventory
from .registry import IndexFile

LOAD = "LOAD"
SKIP_HW = "SKIP_HW"
SKIP_FLAG = "SKIP_FLAG"
DUP_ATTEMPT = "DUP_ATTEMPT"
EVENT_KINDS = frozenset({LOAD, SKIP_HW, SKIP_FLAG, DUP_ATTEMPT})

STRATEGIES = ("stage0", "stage1", "stage2", "stage3")
# The strategies that run one job on the calling thread; the others run one
# job per worker on a thread pool and need at least two workers.
_ONE_JOB = ("stage0", "stage1")

_COMPLETION_TIMEOUT_S = 120.0
# Each worker is an OS thread; a session asking for more fails before any starts.
MAX_WORKERS = 256


class LoadEvent(NamedTuple):
    """One observation by one worker; traces are append-only event logs."""

    timestamp_us: int
    worker_id: int
    kind: str
    module: str


# LoadEvent((stamp, worker, kind, module)) in C: the same tuple that
# LoadEvent(stamp, worker, kind, module) builds, without its Python-level
# __new__. Sessions and the trace parser build one per event.
_new_event = partial(tuple.__new__, LoadEvent)


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


def plan_partitions(n_modules: int, workers: int) -> tuple[tuple[int, int], ...]:
    """Split ``[0, n_modules)`` into one ``(start, end)`` range per loading
    worker, ``workers - 1`` of them.

    The step is the ceiling of n/(workers-1) so no tail of the catalog is
    left unowned; the trailing ranges are clamped and may be empty.
    """
    if workers < 2:
        raise ConfigError(f"partitioned loading needs at least 2 workers, got {workers}")
    if n_modules < 0:
        raise ConfigError(f"negative module count {n_modules}")
    loading = workers - 1
    step = -(-n_modules // loading) if n_modules else 0
    return tuple(
        (min(k * step, n_modules), min((k + 1) * step, n_modules))
        for k in range(loading)
    )


def simulate_load(size_kb: int, config: StrategyConfig) -> float:
    """Return the nominal attach latency (µs) of a ``size_kb`` module.

    It does not sleep: the attaching worker sleeps the cost out on its paced
    clock (``_pace``).
    """
    return config.load_base_us + size_kb * config.load_per_kb_us


# The session clock and the attach sleep, read at call time so that a virtual
# clock can stand in for both.
_clock_ns = time.monotonic_ns
_sleep = time.sleep


def _pace(lag_ns: int, cost_us: float) -> int:
    """Sleep out one attach of ``cost_us``, less ``lag_ns``; return the new lag."""
    now = _clock_ns()
    due = now - lag_ns + round(cost_us * 1000)
    if due > now:
        _sleep((due - now) / 1e9)
        now = _clock_ns()
    # Never negative, so no later attach sleeps longer than its own cost.
    return max(now - due, 0)


# Complete is _DONE or above: attached this session, or resident from the start.
# Settled, which ends a wait, is _FAILED or above.
_FREE, _CLAIMED, _FAILED, _DONE, _RESIDENT = 0, 1, 2, 3, 4


class LoadState:
    """Shared load table: one state byte per catalog position under one
    session lock.

    Methods take positions; ``loaded`` returns names. ``is_complete`` is a
    plain read; ``try_claim`` is the only transition that can fail.
    Base-kernel modules start resident, so they can never be claimed. A
    claimed position ends done (``mark_complete``) or failed
    (``mark_failed``); either wakes its waiters, if any are waiting.
    """

    def __init__(self, catalog: ModuleCatalog):
        self._names = catalog.names
        self._states = bytearray(_RESIDENT if base else _FREE for base in catalog.base)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        # Workers inside wait_complete; read and written only under the lock.
        self._waiters = 0

    def is_complete(self, position: int) -> bool:
        return self._states[position] >= _DONE

    def try_claim(self, position: int) -> bool:
        with self._lock:
            if self._states[position] != _FREE:
                return False
            self._states[position] = _CLAIMED
            return True

    def mark_complete(self, position: int) -> None:
        with self._lock:
            self._states[position] = _DONE
            if self._waiters:
                self._cond.notify_all()

    def mark_failed(self, position: int) -> None:
        with self._lock:
            self._states[position] = _FAILED
            if self._waiters:
                self._cond.notify_all()

    def wait_complete(self, position: int) -> None:
        """Return once ``position`` is complete; raise ``AttachFailed`` if its
        attach failed, ``LoadTimeout`` if no wakeup settles it before the
        timeout, whatever the byte reads by then."""
        deadline = time.monotonic() + _COMPLETION_TIMEOUT_S
        with self._lock:
            self._waiters += 1
            try:
                while self._states[position] < _FAILED:
                    if not self._cond.wait(deadline - time.monotonic()):
                        raise LoadTimeout(
                            f"timed out waiting for module {self._names[position]!r}"
                            " to finish loading"
                        )
            finally:
                self._waiters -= 1
            if self._states[position] == _FAILED:
                raise AttachFailed(f"module {self._names[position]!r} failed to attach")

    def loaded(self) -> frozenset[str]:
        """Names attached dynamically this session (resident modules excluded)."""
        with self._lock:
            return frozenset(
                name for name, state in zip(self._names, self._states) if state == _DONE
            )


def check_config(catalog: ModuleCatalog, config: StrategyConfig) -> None:
    """Raise ``ConfigError`` unless a session of ``config`` over ``catalog`` can start.

    The strategy must be known, the worker count within [1, MAX_WORKERS] (two
    or more for stage2 and stage3), both attach costs finite and
    non-negative, and the largest non-base module's attach priceable as a
    float and no longer than a worker waits for a claim winner.
    """
    strategy = config.strategy
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if not 1 <= config.workers <= MAX_WORKERS:
        raise ConfigError(f"workers must be within [1, {MAX_WORKERS}], got {config.workers}")
    if strategy not in _ONE_JOB and config.workers < 2:
        raise ConfigError(f"{strategy} needs at least 2 workers, got {config.workers}")
    if not all(0 <= cost < math.inf for cost in (config.load_base_us, config.load_per_kb_us)):
        raise ConfigError("load costs must be finite and non-negative")
    largest_kb = max(compress(catalog.sizes, map(not_, catalog.base)), default=0)
    try:
        worst_us = config.load_base_us + largest_kb * config.load_per_kb_us
    except OverflowError:  # a size beyond float range, even at zero cost
        raise ConfigError(
            f"a {len(str(largest_kb))}-digit module size is too large to price an attach"
        ) from None
    if worst_us > _COMPLETION_TIMEOUT_S * 1_000_000:
        raise ConfigError(
            f"one attach would take {worst_us:g} us, longer than the "
            f"{_COMPLETION_TIMEOUT_S:g} s a worker waits for a claim winner"
        )


class LoadSession:
    """One strategy execution: owns the state, the trace, and the workers."""

    def __init__(
        self,
        catalog: ModuleCatalog,
        index: IndexFile,
        inventory: HardwareInventory,
        config: StrategyConfig,
        events: list[LoadEvent] | None = None,
    ):
        check_config(catalog, config)
        strategy = config.strategy
        required = "v1" if strategy == "stage1" else "v0"
        if index.version != required:
            raise IndexMismatch(
                f"{strategy} needs a {required} index, got {index.version}"
            )
        if index.names != catalog.names or len(index.values) != len(catalog):
            raise IndexMismatch("index entries do not line up with catalog positions")

        self._strategy = strategy
        self._catalog = catalog
        self._names = catalog.names
        self._values = index.values
        self._inventory = inventory
        self._config = config
        self._t0 = None if config.instant else _clock_ns()
        self.state = LoadState(catalog)
        self._events = [] if events is None else events

    def run(self) -> tuple[LoadState, list[LoadEvent]]:
        # deque(job, 0) runs a job to its end and keeps none of its yields.
        jobs = self._jobs()
        if self._strategy in _ONE_JOB:
            deque(jobs[0], 0)  # one job, on the calling thread
        else:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(deque, job, 0) for job in jobs]
            # Every worker has ended. A worker that waited on a failed attach
            # raised AttachFailed; report the attach's own error instead.
            errors = [e for e in (f.exception() for f in futures) if e is not None]
            if errors:
                raise next((e for e in errors if not isinstance(e, AttachFailed)), errors[0])
        return self.state, list(self._events)

    def _jobs(self) -> list[Iterator[int | None]]:
        """One generator per worker; see the module docstring for what they yield."""
        n, workers = len(self._catalog), self._config.workers
        if self._strategy == "stage1":
            # Depth-major, then catalog position; depth 0 (not selected) is empty.
            values = self._values
            loadable = compress(range(n), map(mul, values, map(not_, self._catalog.base)))
            roots = sorted(loadable, key=values.__getitem__)
            return [self._attach_loop(0, roots, self._catalog.dep_offsets[1:])]
        if self._strategy == "stage2":
            lock = threading.Lock()  # stage2's single exclusion region
            return [self._attach_loop(w, self._scan(w, 0, n), lock=lock) for w in range(workers)]
        ranges = [(0, n)] if self._strategy == "stage0" else plan_partitions(n, workers)
        return [self._attach_loop(w, self._scan(w, *span)) for w, span in enumerate(ranges)]

    def _scan(self, worker: int, start: int, end: int) -> Iterator[int]:
        """The candidate roots of ``[start, end)``: flagged, supported and not
        yet complete. Records SKIP_FLAG and SKIP_HW for the others."""
        base, hw_tags = self._catalog.base, self._catalog.hw_tags
        values, supports, states = self._values, self._inventory.supports, self.state._states
        for pos in range(start, end):
            if base[pos]:
                continue  # resident; not a dynamic-load candidate
            if not values[pos]:
                self._emit(worker, SKIP_FLAG, pos)
            elif not supports(hw_tags[pos]):
                self._emit(worker, SKIP_HW, pos)
            elif states[pos] < _DONE:
                yield pos

    def _attach_loop(
        self, worker: int, roots: Iterable[int], first_dep: Sequence[int] | None = None,
        lock: threading.Lock | None = None,
    ) -> Iterator[int | None]:
        """Attach each root, dependencies first; ``lock`` is held over each root's walk.

        A position's dependency cursor starts at ``first_dep[pos]``, by default
        ``dep_offsets[pos]``, the start of its run.
        """
        offsets, targets = self._catalog.dep_offsets, self._catalog.dep_targets
        first = offsets if first_dep is None else first_dep
        sizes, config, state = self._catalog.sizes, self._config, self.state
        states = state._states
        lag_ns = 0  # how far this worker's attach sleeps have overrun their costs
        stack = []  # the dependents below pos on its path, each with its next entry
        for root in roots:
            if lock is not None:
                lock.acquire()
            try:
                pos, next_dep = root, first[root]
                while True:
                    if states[pos] < _DONE:
                        end = offsets[pos + 1]
                        while next_dep < end and states[dep := targets[next_dep]] >= _DONE:
                            next_dep += 1
                        if next_dep < end:  # walk the incomplete dependency first
                            stack.append((pos, next_dep + 1))
                            pos, next_dep = dep, first[dep]
                            continue
                        yield  # about to claim
                        if state.try_claim(pos):
                            try:
                                yield  # claimed: the load is in flight, its LOAD not yet emitted
                                cost_us = simulate_load(sizes[pos], config)
                                if cost_us:
                                    lag_ns = _pace(lag_ns, cost_us)
                                self._emit(worker, LOAD, pos)
                            except BaseException:
                                state.mark_failed(pos)  # wakes the workers waiting on it
                                raise
                            state.mark_complete(pos)
                        else:
                            self._emit(worker, DUP_ATTEMPT, pos)
                            yield pos  # about to wait for the claim winner
                            state.wait_complete(pos)
                    if not stack:
                        break
                    pos, next_dep = stack.pop()
            finally:
                if lock is not None:
                    lock.release()

    def _emit(self, worker: int, kind: str, pos: int) -> None:
        stamp = 0 if self._t0 is None else (_clock_ns() - self._t0) // 1000
        self._events.append(_new_event((stamp, worker, kind, self._names[pos])))


def run_strategy(
    catalog: ModuleCatalog,
    index: IndexFile,
    inventory: HardwareInventory,
    config: StrategyConfig,
    events: list[LoadEvent] | None = None,
) -> tuple[LoadState, list[LoadEvent]]:
    """Run the strategy that ``config.strategy`` names and return its state and trace.

    The session appends each event to ``events``, when given, as it records
    it; so the caller keeps what a session recorded before it raised.
    """
    return LoadSession(catalog, index, inventory, config, events).run()


def format_trace(events) -> str:
    """One ``<timestamp_us> <worker_id> <KIND> <module>`` line per event."""
    # One C-level %-format of every field at once.
    fields = tuple(chain.from_iterable(events))
    return ("%s %s %s %s\n" * (len(fields) // 4)) % fields


def parse_trace(text: str) -> list[LoadEvent]:
    """The events of a trace; blank lines are skipped."""
    events = _parse_canonical(text)
    return _parse_lines(text) if events is None else events


# A trace line in canonical form: a timestamp and a worker id of _DIGITS each,
# a known kind and a module with no whitespace, separated by single spaces; or
# an empty line. ``\S`` excludes every character str.isspace accepts, which
# covers every line break str.splitlines honours, so a text of such lines
# splits the same way on "\n" alone, and _parse_lines would return the same
# event for each line.
_CANONICAL_LINE_RE = re.compile(
    rf"^(?:{_DIGITS} {_DIGITS} (?:{'|'.join(sorted(EVENT_KINDS))}) \S+|)$",
    re.MULTILINE,
)


def _parse_canonical(text: str) -> list[LoadEvent] | None:
    """The events of a trace in canonical shape, or None to parse it line by line."""
    if len(_CANONICAL_LINE_RE.findall(text)) != text.count("\n") + 1:
        return None
    # Every line matched, so the text splits into four fields per event.
    fields = text.split()
    stamps, workers, kinds, modules = (fields[i::4] for i in range(4))
    return list(map(_new_event, zip(_ints(stamps), _ints(workers), kinds, modules)))


def _parse_lines(text: str) -> list[LoadEvent]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise MalformedTrace(f"line {lineno}: expected 4 fields, got {len(parts)}")
        ts_raw, worker_raw, kind, module = parts
        if not all(raw.isascii() and raw.isdigit() for raw in (ts_raw, worker_raw)):
            raise MalformedTrace(
                f"line {lineno}: timestamp and worker must be unsigned ASCII integers"
            )
        try:
            ts, worker = int(ts_raw), int(worker_raw)
        except ValueError:  # more digits than int_max_str_digits allows
            raise MalformedTrace(f"line {lineno}: timestamp or worker too long") from None
        if kind not in EVENT_KINDS:
            raise MalformedTrace(f"line {lineno}: unknown event kind {kind!r}")
        events.append(LoadEvent(ts, worker, kind, module))
    return events
