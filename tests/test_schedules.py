"""Exhaustive interleaving check of the lock-free claim protocol.

This steps the shipped stage3 workers, the generators that
``LoadSession._jobs`` returns, one yield at a time on a three-module fixture
(two roots sharing one dependency). A worker yields at each of its three
shared-state steps: before the claim, while a claimed load is in flight, and
before waiting on a claim winner. A worker that yielded a position is
runnable again only once that position is complete. Every reachable schedule
of the two loading workers is enumerated by replaying choice prefixes, so the
exactly-once and dependency-ordering guarantees are checked against *all*
interleavings of the loader's own code, not just the ones a real scheduler
happens to produce.
"""

from __future__ import annotations

import pytest

from kmodsim.hardware import HardwareInventory
from kmodsim.loader import DUP_ATTEMPT, LOAD, LoadSession, LoadState, StrategyConfig
from kmodsim.registry import register_v0

from conftest import make_catalog

CATALOG = make_catalog("a|1||", "b|1|a|", "c|1|a|")
INDEX = register_v0(CATALOG, CATALOG.names)
# Three workers: two loading partitions, [a, b] and [c].
CONFIG = StrategyConfig("stage3", workers=3)


class World:
    def __init__(self):
        self.session = LoadSession(CATALOG, INDEX, HardwareInventory(()), CONFIG)
        self.state = self.session.state
        self.workers = dict(enumerate(self.session._jobs()))
        self.waiting: dict[int, int | None] = {wid: None for wid in self.workers}
        self.finished: set[int] = set()

    @property
    def trace(self) -> list[tuple[str, str, int]]:
        return [(e.kind, e.module, e.worker_id) for e in self.session._events]

    def runnable(self) -> list[int]:
        ready = []
        for wid in self.workers:
            if wid in self.finished:
                continue
            target = self.waiting[wid]
            if target is None or self.state.is_complete(target):
                ready.append(wid)
        return ready

    def step(self, wid) -> None:
        try:
            self.waiting[wid] = next(self.workers[wid])
        except StopIteration:
            self.finished.add(wid)

    def terminal(self) -> bool:
        return len(self.finished) == len(self.workers)


def _replay(choices) -> World:
    world = World()
    for wid in choices:
        world.step(wid)
    return world


def _explore() -> list[World]:
    terminals: list[World] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        world = _replay(prefix)
        if world.terminal():
            terminals.append(world)
            continue
        ready = world.runnable()
        assert ready, f"deadlock after schedule {prefix}"
        stack.extend(prefix + (wid,) for wid in ready)
    return terminals


def _check_every_schedule() -> None:
    terminals = _explore()
    assert len(terminals) > 100  # the enumeration really branched

    dup_counts = set()
    for world in terminals:
        trace = world.trace
        loads = [name for kind, name, _ in trace if kind == LOAD]
        assert sorted(loads) == ["a", "b", "c"], trace
        assert all(world.state.is_complete(pos) for pos in range(len(CATALOG)))
        assert world.state.loaded() == {"a", "b", "c"}

        order = {name: i for i, (kind, name, _) in enumerate(trace) if kind == LOAD}
        assert order["a"] < order["b"] and order["a"] < order["c"], trace

        dups = [name for kind, name, _ in trace if kind == DUP_ATTEMPT]
        assert all(name == "a" for name in dups), trace
        dup_counts.add(len(dups))

    # The near-miss is schedule-dependent: some interleavings race on the
    # shared dependency, others never do.
    assert 0 in dup_counts
    assert dup_counts - {0}


def test_all_interleavings_load_each_module_exactly_once():
    _check_every_schedule()


def test_explorer_catches_completion_before_the_load_event(monkeypatch):
    # The shipped claim with one fault: a won claim also marks its position
    # complete while its load is still in flight, before its LOAD is in the
    # trace. Some schedule then lets a dependent load first, and the explorer
    # must see it.
    shipped = LoadState.try_claim

    def completes_early(self, pos):
        won = shipped(self, pos)
        if won:
            self.mark_complete(pos)
        return won

    monkeypatch.setattr(LoadState, "try_claim", completes_early)
    with pytest.raises(AssertionError):
        _check_every_schedule()


def test_every_schedule_with_a_waiter_ends_with_no_waiter_counted():
    terminals = _explore()
    waited = [w for w in terminals if any(kind == DUP_ATTEMPT for kind, _, _ in w.trace)]
    assert waited  # some schedule has a worker lose a claim and wait
    assert all(world.state._waiters == 0 for world in terminals)
