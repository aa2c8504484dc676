"""Exhaustive interleaving check of the lock-free claim protocol.

This drives the real ``LoadState`` from step machines that follow the
partitioned strategy's attach path on a three-module fixture (two roots
sharing one dependency), with a scheduling point at every shared-state
interaction: the completeness read, the gap before the test-and-set, the
in-flight load window, and the wait-for-completion loop. Every reachable
schedule of the two workers is enumerated by replaying choice prefixes, so
the exactly-once and dependency-ordering guarantees of ``try_claim``,
``is_complete`` and ``mark_complete`` are checked against *all*
interleavings, not just the ones a real scheduler happens to produce.
"""

from __future__ import annotations

from kmodsim.loader import LoadState, plan_partitions

from conftest import make_catalog

CATALOG = make_catalog("a|1||", "b|1|a|", "c|1|a|")
PLAN = plan_partitions(len(CATALOG), 3)  # [a, b] and [c]: two loading workers

LOAD = "LOAD"
DUP = "DUP"


class World:
    def __init__(self):
        self.state = LoadState(CATALOG)
        self.trace: list[tuple[str, str, int]] = []
        self.waiting: dict[int, int | None] = {wid: None for wid in range(PLAN.workers)}
        self.workers = {
            wid: self._scan(wid, range(start, end))
            for wid, (start, end) in enumerate(PLAN.ranges)
        }
        self.finished: set[int] = set()

    def _scan(self, wid, partition):
        for root in partition:
            yield from self._attach(wid, root)

    def _attach(self, wid, pos):
        state, name = self.state, CATALOG.names[pos]
        yield  # about to read completeness
        if state.is_complete(pos):
            return
        offsets = CATALOG.dep_offsets
        for dep in CATALOG.dep_targets[offsets[pos] : offsets[pos + 1]]:
            yield from self._attach(wid, dep)
        yield  # race window between the read and the test-and-set
        if not state.try_claim(pos):
            self.trace.append((DUP, name, wid))
            while not state.is_complete(pos):
                self.waiting[wid] = pos
                yield  # blocked until the claimer completes
            self.waiting[wid] = None
            state.wait_complete(pos)  # already complete: returns at once
            return
        yield  # load in flight: claimed but not yet complete
        self.trace.append((LOAD, name, wid))
        state.mark_complete(pos)

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
            next(self.workers[wid])
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


def test_all_interleavings_load_each_module_exactly_once():
    terminals = _explore()
    assert len(terminals) > 100  # the enumeration really branched

    dup_counts = set()
    for world in terminals:
        loads = [name for kind, name, _ in world.trace if kind == LOAD]
        assert sorted(loads) == ["a", "b", "c"], world.trace
        assert all(world.state.is_complete(pos) for pos in range(len(CATALOG)))
        assert world.state.loaded() == {"a", "b", "c"}

        order = {name: i for i, (kind, name, _) in enumerate(world.trace) if kind == LOAD}
        assert order["a"] < order["b"] and order["a"] < order["c"], world.trace

        dups = [name for kind, name, _ in world.trace if kind == DUP]
        assert all(name == "a" for name in dups), world.trace
        dup_counts.add(len(dups))

    # The near-miss is schedule-dependent: some interleavings race on the
    # shared dependency, others never do.
    assert 0 in dup_counts
    assert dup_counts - {0}
