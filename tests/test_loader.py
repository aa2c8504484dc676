"""Strategy semantics: gating, ordering, partitioning, and race behavior."""

from __future__ import annotations

import functools
import hashlib
import math
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmodsim.catalog import ModuleRecord, parse_catalog
from kmodsim import loader
from kmodsim.errors import AttachFailed, ConfigError, IndexMismatch, KmodsimError, LoadTimeout
from kmodsim.fixtures import generate_fixture
from kmodsim.hardware import HardwareInventory, parse_inventory
from kmodsim.loader import (
    DUP_ATTEMPT,
    EVENT_KINDS,
    LOAD,
    LoadEvent,
    LoadState,
    SKIP_FLAG,
    SKIP_HW,
    STRATEGIES,
    StrategyConfig,
    format_trace,
    parse_trace,
    plan_partitions,
    run_strategy,
)
from kmodsim.metrics import check_trace
from kmodsim.registry import IndexFile, register_v0, register_v1

from conftest import (
    LINE_BREAKS,
    CountingRuns,
    assert_worker_clocks_monotone,
    chain_records,
    load_events,
    make_catalog,
    make_inventory,
    sequential_load_order,
    src_env,
)

NO_HW = HardwareInventory(())
STAGE0 = StrategyConfig("stage0")
STAGE1 = StrategyConfig("stage1")


def flags_index(catalog, names):
    return register_v0(catalog, names)


def kinds(trace):
    return [(e.kind, e.module) for e in trace]


class TestPlanPartitions:
    def test_worked_example(self):
        assert plan_partitions(8, 5) == ((0, 2), (2, 4), (4, 6), (6, 8))

    def test_tail_is_clamped(self):
        assert plan_partitions(7, 5) == ((0, 2), (2, 4), (4, 6), (6, 7))

    def test_zero_modules_gives_empty_ranges(self):
        assert plan_partitions(0, 4) == ((0, 0), (0, 0), (0, 0))

    def test_more_workers_than_modules(self):
        assert plan_partitions(2, 5) == ((0, 1), (1, 2), (2, 2), (2, 2))

    def test_single_worker_rejected(self):
        with pytest.raises(ConfigError):
            plan_partitions(8, 1)

    def test_negative_module_count_rejected(self):
        with pytest.raises(ConfigError, match="^negative module count -1$"):
            plan_partitions(-1, 3)

    @pytest.mark.parametrize("workers", [2, 3, 8, 64])
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 100, 101])
    def test_disjoint_cover(self, n, workers):
        prev = 0
        total = 0
        for start, end in plan_partitions(n, workers):
            assert prev <= start <= end <= n
            total += end - start
            prev = end
        assert total == n


class TestSimulateLoad:
    def test_base_only(self):
        rec = ModuleRecord(name="a", size_kb=0)
        assert simulate(rec, base=50, per_kb=0) == 50

    def test_linear_in_size(self):
        rec = ModuleRecord(name="a", size_kb=100)
        assert simulate(rec, base=50, per_kb=2) == 250

    def test_instant_mode_costs_nothing(self):
        rec = ModuleRecord(name="a", size_kb=100)
        assert simulate(rec, base=0, per_kb=0) == 0


def simulate(rec, base, per_kb):
    from kmodsim.loader import simulate_load

    return simulate_load(
        rec.size_kb, StrategyConfig("stage0", load_base_us=base, load_per_kb_us=per_kb)
    )


class TestLoadState:
    def test_mark_complete_wakes_every_waiter(self):
        catalog = make_catalog("a|1||")
        a = catalog.index_of["a"]
        state = LoadState(catalog)
        assert state.try_claim(a)
        waiters = [
            threading.Thread(target=state.wait_complete, args=(a,), daemon=True)
            for _ in range(4)
        ]
        for waiter in waiters:
            waiter.start()
        time.sleep(0.05)  # let the waiters block on the condition
        assert all(waiter.is_alive() for waiter in waiters)
        state.mark_complete(a)
        deadline = time.monotonic() + 1.0
        for waiter in waiters:
            waiter.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(waiter.is_alive() for waiter in waiters)

    def test_a_failed_claim_wakes_every_waiter_with_its_own_code(self):
        catalog = make_catalog("a|1||")
        a = catalog.index_of["a"]
        state = LoadState(catalog)
        assert state.try_claim(a)
        errors = []

        def wait():
            try:
                state.wait_complete(a)
            except AttachFailed as exc:
                errors.append(exc)

        waiters = [threading.Thread(target=wait, daemon=True) for _ in range(4)]
        for waiter in waiters:
            waiter.start()
        time.sleep(0.05)  # let the waiters block on the condition
        assert all(waiter.is_alive() for waiter in waiters)
        state.mark_failed(a)
        deadline = time.monotonic() + 1.0
        for waiter in waiters:
            waiter.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(waiter.is_alive() for waiter in waiters)
        assert len(errors) == 4
        assert all(e.code == "attach-failed" and "module 'a'" in str(e) for e in errors)
        # Failed is neither complete nor claimable again, and nothing loaded.
        assert not state.is_complete(a) and not state.try_claim(a)
        assert state.loaded() == frozenset()

    def test_waiting_on_an_unfinished_claim_times_out_with_a_code(self, monkeypatch):
        monkeypatch.setattr(loader, "_COMPLETION_TIMEOUT_S", 0.05)
        catalog = make_catalog("a|1||")
        state = LoadState(catalog)
        assert state.try_claim(catalog.index_of["a"])
        with pytest.raises(LoadTimeout) as info:
            state.wait_complete(catalog.index_of["a"])
        assert info.value.code == "load-timeout"

    def test_timeout_message_names_the_module_not_its_position(self, monkeypatch):
        monkeypatch.setattr(loader, "_COMPLETION_TIMEOUT_S", 0.01)
        catalog = make_catalog("a|1||")
        a = catalog.index_of["a"]
        state = LoadState(catalog)
        assert state.try_claim(a)
        with pytest.raises(LoadTimeout, match="module 'a' to finish") as info:
            state.wait_complete(a)
        assert f"module {a!r}" not in str(info.value)

    def test_a_wait_that_is_never_woken_times_out_though_the_byte_settled(self, monkeypatch):
        # The byte is set to done under the lock with no notify: a lost
        # wakeup. The parked waiter must report it when its wait times out,
        # not return as if it had been woken.
        monkeypatch.setattr(loader, "_COMPLETION_TIMEOUT_S", 0.5)
        catalog = make_catalog("a|1||")
        a = catalog.index_of["a"]
        state = LoadState(catalog)
        assert state.try_claim(a)
        outcome = []

        def wait():
            try:
                state.wait_complete(a)
                outcome.append("returned")
            except LoadTimeout as exc:
                outcome.append(exc)

        waiter = threading.Thread(target=wait, daemon=True)
        waiter.start()
        deadline = time.monotonic() + 5.0
        while True:
            with state._lock:
                # A counted waiter holds the lock until it waits, so holding
                # the lock now means it is parked on the condition.
                if state._waiters:
                    state._states[a] = loader._DONE
                    break
            assert time.monotonic() < deadline, "the waiter never parked"
            time.sleep(0.001)
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert len(outcome) == 1 and isinstance(outcome[0], LoadTimeout), outcome
        assert state._waiters == 0 and state.is_complete(a)

    def test_resident_position_is_complete_and_unclaimable(self):
        catalog = make_catalog("app|1|fs|", "fs|4||@base")
        fs, app = catalog.index_of["fs"], catalog.index_of["app"]
        state = LoadState(catalog)
        assert state.is_complete(fs)
        assert not state.try_claim(fs)
        assert not state.is_complete(app)
        assert state.try_claim(app)
        assert not state.try_claim(app)  # claimed once, never again
        state.mark_complete(app)
        assert state.is_complete(app)
        assert state.loaded() == {"app"}  # names out; the resident one excluded


class TestLoadCosts:
    @pytest.mark.parametrize(
        "costs",
        [
            {"load_base_us": math.nan},
            {"load_per_kb_us": math.nan},
            {"load_base_us": math.inf},
            {"load_per_kb_us": math.inf},
        ],
    )
    def test_non_finite_costs_are_rejected(self, costs):
        catalog = make_catalog("a|1||")
        config = StrategyConfig("stage0", **costs)
        with pytest.raises(ConfigError, match="finite"):
            run_strategy(catalog, flags_index(catalog, ["a"]), NO_HW, config)

    def test_base_cost_beyond_the_completion_timeout_is_rejected(self):
        catalog = make_catalog("a|1||")
        config = StrategyConfig("stage0", load_base_us=1e20)
        with pytest.raises(ConfigError, match="longer than"):
            run_strategy(catalog, flags_index(catalog, ["a"]), NO_HW, config)

    def test_a_size_beyond_float_range_is_rejected_at_zero_cost(self):
        # 10**309 kB cannot become a float, whatever it is multiplied by.
        catalog = make_catalog(f"a|1{'0' * 309}||", "b|1||")
        with pytest.raises(ConfigError) as err:
            loader.check_config(catalog, StrategyConfig("stage0"))
        assert str(err.value) == "a 310-digit module size is too large to price an attach"

    def test_the_largest_module_sets_the_limit(self, monkeypatch):
        monkeypatch.setattr(loader, "_COMPLETION_TIMEOUT_S", 0.05)  # 50,000 us
        catalog = make_catalog("a|10||", "b|1000||", "fs|9999||@base")
        index = flags_index(catalog, ["a"])
        # 1,000 kB at 40 us/kB is 40,000 us; the resident module never attaches.
        run_strategy(catalog, index, NO_HW, StrategyConfig("stage0", load_per_kb_us=40))
        with pytest.raises(ConfigError, match="longer than"):
            run_strategy(catalog, index, NO_HW, StrategyConfig("stage0", load_per_kb_us=60))


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [loader.MAX_WORKERS + 1, 10**6])
    @pytest.mark.parametrize("strategy", ["stage2", "stage3"])
    def test_absurd_worker_count_fails_before_any_thread_starts(self, strategy, workers):
        catalog = make_catalog("a|1||")
        threads = threading.active_count()
        with pytest.raises(ConfigError, match="workers must be within"):
            run_strategy(
                catalog, flags_index(catalog, ["a"]), NO_HW, StrategyConfig(strategy, workers)
            )
        assert threading.active_count() == threads


class TestStage0:
    def test_flag_gating(self):
        catalog = make_catalog("a|1||", "b|1||")
        _, trace = run_strategy(catalog, flags_index(catalog, ["a"]), NO_HW, STAGE0)
        assert kinds(trace) == [(LOAD, "a"), (SKIP_FLAG, "b")]

    def test_chain_loads_dependencies_first(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = flags_index(catalog, ["c"])
        state, trace = run_strategy(catalog, index, NO_HW, STAGE0)
        expected = sequential_load_order(catalog, (0, 0, 1), lambda rec: True)
        assert expected == ["a", "b", "c"]  # frozen from the post-order oracle
        assert load_events(trace) == expected
        assert state.loaded() == {"a", "b", "c"}

    def test_unmatched_hardware_skips(self):
        catalog = make_catalog("a|1||ath9k")
        inv = make_inventory("Intel e1000 Gigabit")
        state, trace = run_strategy(catalog, flags_index(catalog, ["a"]), inv, STAGE0)
        assert kinds(trace) == [(SKIP_HW, "a")]
        assert state.loaded() == frozenset()

    def test_dependencies_load_even_when_unflagged(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        # only the root is flagged; a and b are required anyway
        _, trace = run_strategy(catalog, flags_index(catalog, ["c"]), NO_HW, STAGE0)
        assert load_events(trace) == ["a", "b", "c"]
        assert (SKIP_FLAG, "a") in kinds(trace)

    def test_unsupported_dependency_of_supported_root_still_loads(self):
        # The flag and the hardware check gate roots, not dependencies:
        # a required module attaches even when its own tags match nothing.
        catalog = make_catalog("top|1|lib|", "lib|1||dev-lib")
        inv = make_inventory("nothing relevant")
        index = register_v0(catalog, catalog.names)
        state, trace = run_strategy(catalog, index, inv, STAGE0)
        assert state.loaded() == {"lib", "top"}
        assert (SKIP_HW, "lib") in kinds(trace)  # as a root it is still skipped

    def test_dependency_of_unsupported_root_stays_unloaded(self):
        catalog = make_catalog("top|1|lib|dev-top", "lib|1||")
        inv = make_inventory("nothing relevant")
        state, trace = run_strategy(catalog, flags_index(catalog, ["top"]), inv, STAGE0)
        assert state.loaded() == frozenset()
        assert (SKIP_HW, "top") in kinds(trace)

    def test_base_modules_are_resident_not_loaded(self):
        catalog = make_catalog("fs|4||@base", "app|1|fs|")
        index = register_v0(catalog, catalog.names)
        state, trace = run_strategy(catalog, index, NO_HW, STAGE0)
        assert load_events(trace) == ["app"]
        assert all(e.module != "fs" for e in trace)
        assert state.is_complete(catalog.index_of["fs"])  # resident from the start
        assert state.loaded() == {"app"}

    def test_wrong_index_version(self):
        catalog = make_catalog("a|1||")
        index = register_v1(catalog, catalog.names, NO_HW)
        with pytest.raises(IndexMismatch):
            run_strategy(catalog, index, NO_HW, STAGE0)


class TestStage1:
    def test_chain_sweeps_one_level_per_pass(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = register_v1(catalog, catalog.names, NO_HW)
        _, trace = run_strategy(catalog, index, NO_HW, STAGE1)
        assert kinds(trace) == [(LOAD, "a"), (LOAD, "b"), (LOAD, "c")]

    def test_diamond_ties_break_in_catalog_order(self):
        catalog = make_catalog("d|1|b,c|", "b|1|a|", "c|1|a|", "a|1||")
        index = register_v1(catalog, catalog.names, NO_HW)
        _, trace = run_strategy(catalog, index, NO_HW, STAGE1)
        assert load_events(trace) == ["a", "b", "c", "d"]

    def test_all_zero_values_produce_an_empty_trace(self):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v1(catalog, (), NO_HW)
        _, trace = run_strategy(catalog, index, NO_HW, STAGE1)
        assert trace == []

    def test_wrong_index_version(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(IndexMismatch):
            run_strategy(catalog, register_v0(catalog, catalog.names), NO_HW, STAGE1)

    def test_leveled_base_dependency_is_not_swept(self):
        catalog = make_catalog("fs|4||@base", "app|1|fs|")
        index = register_v1(catalog, catalog.names, NO_HW)
        assert index.values[catalog.index_of["fs"]] == 1
        state, trace = run_strategy(catalog, index, NO_HW, STAGE1)
        assert load_events(trace) == ["app"]
        assert state.loaded() == {"app"}

    def test_a_resident_module_deeper_than_one_is_not_swept(self):
        # fs is @base at depth 2, and so is lib, its dependency: neither is
        # swept, so no claim on a resident module records a DUP_ATTEMPT.
        catalog = make_catalog("lib|1||", "fs|4|lib|@base", "app|1|fs|")
        index = register_v1(catalog, catalog.names, NO_HW)
        assert index.names == ("app", "fs", "lib") and index.values == (3, 2, 1)
        _, trace = run_strategy(catalog, index, NO_HW, STAGE1)
        assert trace == [LoadEvent(0, 0, LOAD, "app")]


class TestStage2:
    def test_loaded_set_matches_stage0(self):
        catalog = make_catalog("d|1|b,c|", "b|1|a|", "c|1|a|", "a|1||", "x|1||")
        index = flags_index(catalog, ["d"])
        s0, _ = run_strategy(catalog, index, NO_HW, STAGE0)
        s2, trace = run_strategy(catalog, index, NO_HW, StrategyConfig("stage2", workers=4))
        assert s2.loaded() == s0.loaded()
        assert check_trace(catalog, trace) == s2.loaded()

    def test_dependencies_precede_dependents_in_trace(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = flags_index(catalog, ["c"])
        _, trace = run_strategy(catalog, index, NO_HW, StrategyConfig("stage2", workers=3))
        check_trace(catalog, trace)

    def test_single_worker_rejected(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(ConfigError):
            run_strategy(
                catalog,
                flags_index(catalog, ["a"]),
                NO_HW,
                StrategyConfig("stage2", workers=1),
            )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_an_index_of_another_catalog_is_rejected(strategy):
    catalog = make_catalog("a|1||", "b|1|a|")
    other = make_catalog("a|1||", "c|1|a|")
    if strategy == "stage1":
        index = register_v1(other, other.names, NO_HW)
    else:
        index = register_v0(other, other.names)
    short = IndexFile(index.version, catalog.names, index.values[:1])
    config = StrategyConfig(strategy, workers=1 if strategy in ("stage0", "stage1") else 3)
    for wrong in (index, short):
        with pytest.raises(IndexMismatch) as err:
            run_strategy(catalog, wrong, NO_HW, config)
        assert str(err.value) == "index entries do not line up with catalog positions"


SHARED_DEP = ["b|1|a|", "c|1|a|", "a|1||"]


class TestStage3:
    def test_loaded_set_matches_stage0(self):
        catalog = make_catalog(*SHARED_DEP)
        index = register_v0(catalog, catalog.names)
        s0, _ = run_strategy(catalog, index, NO_HW, STAGE0)
        s3, trace = run_strategy(catalog, index, NO_HW, StrategyConfig("stage3", workers=4))
        assert s3.loaded() == s0.loaded()
        assert check_trace(catalog, trace) == s3.loaded()

    def test_single_worker_rejected(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(ConfigError):
            run_strategy(
                catalog,
                flags_index(catalog, ["a"]),
                NO_HW,
                StrategyConfig("stage3", workers=1),
            )

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_shared_dependency_loads_exactly_once_under_stress(self, workers):
        catalog = make_catalog(*SHARED_DEP)
        index = register_v0(catalog, catalog.names)
        config = StrategyConfig("stage3", workers=workers)
        for _ in range(120):
            state, trace = run_strategy(catalog, index, NO_HW, config)
            assert check_trace(catalog, trace) == state.loaded()
            assert state.loaded() == {"a", "b", "c"}

    def test_racing_workers_surface_dup_attempts(self):
        # A big attach latency on the shared dependency keeps one worker
        # inside the load long enough for the other to lose the claim.
        catalog = make_catalog(*SHARED_DEP)
        index = register_v0(catalog, catalog.names)
        config = StrategyConfig("stage3", workers=3, load_base_us=30_000)
        for _ in range(5):
            state, trace = run_strategy(catalog, index, NO_HW, config)
            assert check_trace(catalog, trace) == state.loaded()
            dups = [e for e in trace if e.kind == DUP_ATTEMPT]
            if dups:
                assert all(e.module == "a" for e in dups)
                return
        pytest.fail("no DUP_ATTEMPT observed in five heavily overlapped runs")


class TestTraces:
    def test_per_worker_timestamps_nondecreasing(self):
        catalog = make_catalog(*(f"m{i:02d}|{i}||" for i in range(20)))
        index = register_v0(catalog, catalog.names)
        config = StrategyConfig("stage3", workers=4, load_base_us=20, load_per_kb_us=1)
        _, trace = run_strategy(catalog, index, NO_HW, config)
        assert_worker_clocks_monotone(trace)

    def test_instant_mode_freezes_the_clock(self):
        catalog = make_catalog("a|1||")
        _, trace = run_strategy(catalog, flags_index(catalog, ["a"]), NO_HW, STAGE0)
        assert [e.timestamp_us for e in trace] == [0]

    def test_costed_loads_advance_the_clock(self):
        catalog = make_catalog(*chain_records(["a", "b"]))
        index = flags_index(catalog, ["b"])
        config = StrategyConfig("stage0", load_base_us=500)
        _, trace = run_strategy(catalog, index, NO_HW, config)
        first, second = [e.timestamp_us for e in trace if e.kind == LOAD]
        assert 0 < first < second

    def test_format_parse_round_trip(self):
        catalog = make_catalog(*SHARED_DEP)
        index = register_v0(catalog, catalog.names)
        _, trace = run_strategy(catalog, index, NO_HW, StrategyConfig("stage3", workers=2))
        assert parse_trace(format_trace(trace)) == trace

    def test_parse_rejects_garbage(self):
        from kmodsim.errors import MalformedTrace

        with pytest.raises(MalformedTrace, match="^line 1: unknown event kind 'NOT_A_KIND'$"):
            parse_trace("1 0 NOT_A_KIND a\n")
        with pytest.raises(MalformedTrace, match="^line 1: expected 4 fields, got 3$"):
            parse_trace("1 0 LOAD\n")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:  # 0 lets int() read any number of digits
            with pytest.raises(MalformedTrace, match="^line 2: timestamp or worker too long$"):
                parse_trace("1 0 LOAD a\n" + "9" * (limit + 1) + " 0 LOAD b\n")


# Whitespace that str.split splits at and that breaks no line.
BLANKS = (" ", "\t", "  ", " \t", "\xa0", "\u3000")


@st.composite
def trace_variants(draw) -> tuple[str, bool]:
    """Trace text and whether it is in canonical shape.

    Canonical text is what ``format_trace`` writes, plus empty lines, with or
    without a final line end. Other text also separates or pads fields with
    tabs and runs of spaces, ends lines with CRLF or any other break
    str.splitlines honours, adds whitespace-only lines, writes numbers as
    ``007``, ``+5``, ``-1``, ``1_0`` or non-ASCII digits, and has lines of 3
    or 5 fields or of an unknown kind.
    """
    canonical = draw(st.booleans())

    def deviate():
        # Rare, so that some texts hold a single non-canonical detail.
        return not canonical and draw(st.integers(0, 19)) == 7

    def number(limit):
        value = draw(st.integers(0, limit))
        if deviate():
            return draw(st.sampled_from(
                [f"00{value}", f"+{value}", f"-{value}", f"{value}_0", "\u0663", "\u00b2"]
            ))
        return str(value)

    def sep():
        return draw(st.sampled_from(BLANKS)) if deviate() else " "

    def pad():
        return draw(st.sampled_from(BLANKS)) if deviate() else ""

    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(sorted(EVENT_KINDS)))
        if deviate():
            kind = draw(st.sampled_from(["load", "LOADED", "SKIP"]))
        module = draw(st.sampled_from(["a", "net.ko", "m-1_2", "\u00e9"]))
        if deviate():
            module = "a\x1fb"  # str.split splits at \x1f, which breaks no line
        fields = [number(10**12), number(300), kind, module]
        if deviate():
            fields = fields[:3] if draw(st.booleans()) else fields + ["extra"]
        lines.append(pad() + sep().join(fields) + pad())
    extras = [""] if canonical else ["", " ", "\t", "  \t "]
    for extra in draw(st.lists(st.sampled_from(extras), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)

    breaks = [draw(st.sampled_from(LINE_BREAKS)) if deviate() else "\n" for _ in lines]
    if breaks and draw(st.booleans()):
        breaks[-1] = ""  # no final line end
    return "".join(line + brk for line, brk in zip(lines, breaks)), canonical


def trace_outcome(parse, text):
    try:
        return parse(text)
    except KmodsimError as err:
        return type(err), str(err)


class TestTraceParsing:
    @settings(max_examples=400, deadline=None)
    @given(case=trace_variants())
    @example(("1\t0 LOAD a\n", False))
    @example(("1  0 LOAD a\n", False))
    @example((" 1 0 LOAD a \n", False))
    @example(("1 0 LOAD a\r\n2 0 LOAD b\r\n", False))
    @example(("1 0 LOAD a\x852 0 LOAD b\n", False))
    @example(("1 0 LOAD a\u20282 0 LOAD b\n", False))
    @example(("1 0 LOAD a\x1c2 0 LOAD b", False))
    @example(("   \n1 0 LOAD a\n\t\n", False))
    @example(("007 0 LOAD a\n", False))
    @example(("+5 0 LOAD a\n", False))
    @example(("0 +5 LOAD a\n", False))
    @example(("-50 -1 LOAD a\n", False))
    @example(("1_0 0 LOAD a\n", False))
    @example(("\u0663 0 LOAD a\n", False))
    @example(("0 \u0663 LOAD a\n", False))
    @example(("1 0 LOAD\n", False))
    @example(("1 0 LOAD a b\n", False))
    @example(("1 0 FOO a\n", False))
    @example(("1 0 LOAD a\nbad\n2 0 LOAD b\n", False))
    def test_matches_the_per_line_path(self, case):
        text, canonical = case
        assert trace_outcome(parse_trace, text) == trace_outcome(loader._parse_lines, text)
        if canonical:
            assert loader._parse_canonical(text) is not None

    def test_a_long_canonical_trace_never_reaches_the_line_parser(self, monkeypatch):
        rng = random.Random(11)
        kinds = sorted(EVENT_KINDS)
        events = [
            LoadEvent(rng.randrange(10**12), rng.randrange(256), rng.choice(kinds), f"m{i}.ko")
            for i in range(20_000)
        ]

        def per_line(text):
            raise AssertionError("a canonical trace reached the line-by-line parser")

        monkeypatch.setattr(loader, "_parse_lines", per_line)
        parsed = parse_trace(format_trace(events))
        assert parsed == events
        assert all(type(event) is LoadEvent for event in parsed)

    def test_events_are_plain_tuples(self):
        event = LoadEvent(5, 1, LOAD, "a")
        assert event == (5, 1, LOAD, "a") and hash(event) == hash((5, 1, LOAD, "a"))
        stamp, worker, kind, module = event
        assert (stamp, worker, kind, module) == (event.timestamp_us, event.worker_id,
                                                 event.kind, event.module)
        with pytest.raises(AttributeError):
            event.kind = SKIP_HW


def test_concurrent_appends_lose_no_event():
    # The session appends events without a lock; a lost append would show as
    # a missing SKIP_FLAG or LOAD. A short switch interval makes the workers
    # hand the interpreter lock over often, in the middle of their steps.
    catalog, inventory, index, unselected, expected = append_fixture()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            for strategy in ("stage2", "stage3"):
                config = StrategyConfig(strategy, workers=8)
                state, trace = run_strategy(catalog, index, inventory, config)
                if strategy == "stage2":  # every worker scans every position
                    assert sum(1 for e in trace if e.kind == SKIP_FLAG) == 8 * unselected
                assert sorted(load_events(trace)) == expected, strategy
                assert check_trace(catalog, trace) == state.loaded()
    finally:
        sys.setswitchinterval(interval)


class LockedWaiterCount(LoadState):
    """A ``LoadState`` whose waiter count is read and changed only under its
    lock, and never drops below zero."""

    @property
    def _waiters(self):
        assert self._lock.locked(), "waiter count read outside the lock"
        return vars(self)["waiters"]

    @_waiters.setter
    def _waiters(self, value):
        if "waiters" in vars(self):  # the first assignment is construction
            assert self._lock.locked(), "waiter count changed outside the lock"
        assert value >= 0, "waiter count below zero"
        vars(self)["waiters"] = value


def test_no_completion_wakeup_is_lost(monkeypatch):
    # A completer notifies only when the waiter count says someone waits. A
    # waiter that blocked without being counted sleeps out the whole timeout,
    # cut here to 2 s, before it sees the completion: so a session that lasts
    # that long lost a wakeup. Under the GIL, a count kept outside the lock
    # loses a wakeup too rarely to show, so every access checks the lock.
    catalog, inventory, index, _, expected = append_fixture()
    interval = sys.getswitchinterval()
    monkeypatch.setattr(loader, "_COMPLETION_TIMEOUT_S", 2.0)
    monkeypatch.setattr(loader, "LoadState", LockedWaiterCount)
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            for strategy in ("stage2", "stage3"):
                config = StrategyConfig(strategy, workers=8)
                started = time.monotonic()
                state, trace = run_strategy(catalog, index, inventory, config)
                assert time.monotonic() - started < loader._COMPLETION_TIMEOUT_S, strategy
                assert sorted(load_events(trace)) == expected, strategy
                assert check_trace(catalog, trace) == state.loaded()
    finally:
        sys.setswitchinterval(interval)
        monkeypatch.undo()


@pytest.fixture
def notified(monkeypatch):
    """The condition of every ``threading.Condition.notify_all`` call while the
    test runs, in call order (starting a thread makes one too)."""
    conditions = []
    real_notify_all = threading.Condition.notify_all

    def recording_notify_all(self):
        conditions.append(self)
        real_notify_all(self)

    monkeypatch.setattr(threading.Condition, "notify_all", recording_notify_all)
    return conditions


@pytest.mark.parametrize("config", [STAGE0, STAGE1], ids=["stage0", "stage1"])
def test_single_worker_boots_notify_nobody(config, notified):
    catalog_text, inventory_text = generate_fixture(300, 6, 1, 0.8)
    catalog, inventory = parse_catalog(catalog_text), parse_inventory(inventory_text)
    if config is STAGE1:
        index = register_v1(catalog, catalog.names, inventory)
    else:
        index = register_v0(catalog, catalog.names)
    state, _ = run_strategy(catalog, index, inventory, config)
    assert state.loaded()
    assert notified == []


def test_a_completion_notifies_only_while_a_worker_waits(notified):
    catalog = make_catalog("a|1||", "b|1||")
    a, b = catalog.index_of["a"], catalog.index_of["b"]
    state = LoadState(catalog)
    assert state.try_claim(a) and state.try_claim(b)
    state.mark_complete(a)
    assert notified == []
    waiter = threading.Thread(target=state.wait_complete, args=(b,), daemon=True)
    waiter.start()
    deadline = time.monotonic() + 5.0
    while state._waiters == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert state._waiters == 1
    state.mark_complete(b)
    waiter.join(timeout=5.0)
    assert not waiter.is_alive()
    assert notified.count(state._cond) == 1 and state._waiters == 0


@functools.cache
def append_fixture():
    """A 2,000-module catalog with every seventh module unselected, its
    inventory and v0 index, the number K of unselected non-base modules, and
    the sorted names that every strategy must load."""
    catalog_text, inventory_text = generate_fixture(2000, 8, 5, 1.0)
    catalog, inventory = parse_catalog(catalog_text), parse_inventory(inventory_text)
    index = flags_index(catalog, [n for i, n in enumerate(catalog.names) if i % 7])
    unselected = sum(1 for flag, base in zip(index.values, catalog.base) if not (flag or base))
    expected = sequential_load_order(
        catalog, index.values, lambda rec: inventory.supports(rec.hw_tags)
    )
    return catalog, inventory, index, unselected, sorted(expected)


def test_many_sessions_run_concurrently_without_interference():
    catalog = make_catalog(*SHARED_DEP)
    index = register_v0(catalog, catalog.names)

    def one_session(_):
        state, trace = run_strategy(
            catalog, index, NO_HW, StrategyConfig("stage3", workers=3, load_base_us=200)
        )
        assert check_trace(catalog, trace) == state.loaded()
        return state.loaded()

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(one_session, range(24)))
    assert all(r == {"a", "b", "c"} for r in results)


# Attaching ``a``, the only 7 kB module, raises; b, c and d depend on it.
# Runs at the shipped completion timeout and prints the exception's type, how
# long the session took to end, and that timeout.
FAILING_ATTACH = """
import sys, time
from kmodsim import loader
from kmodsim.catalog import parse_catalog
from kmodsim.hardware import HardwareInventory
from kmodsim.registry import register_v0

real_load = loader.simulate_load

def failing_load(size_kb, config):
    if size_kb == 7:
        raise OSError("attach failed")
    return real_load(size_kb, config)

loader.simulate_load = failing_load
catalog = parse_catalog("MODCAT v1\\na|7||\\nb|1|a|\\nc|1|a|\\nd|1|a|\\n")
index = register_v0(catalog, catalog.names)
config = loader.StrategyConfig(sys.argv[1], workers=int(sys.argv[2]))
t0 = time.monotonic()
try:
    loader.run_strategy(catalog, index, HardwareInventory(()), config)
except Exception as exc:
    print(type(exc).__name__, time.monotonic() - t0, loader._COMPLETION_TIMEOUT_S)
"""


@pytest.mark.parametrize("strategy", ["stage2", "stage3"])
def test_a_failing_attach_ends_the_session_with_its_error(strategy):
    # A child process with a hard timeout, so that a deadlock fails the test
    # instead of hanging it (the pool's threads are joined at exit). The
    # failed attach wakes the workers that lost the claim on ``a`` at once,
    # so no worker waits out the 120 s completion timeout, stage2's included,
    # which wait while holding the lock.
    env = src_env()
    for workers in (3, 8):
        proc = subprocess.run(
            [sys.executable, "-c", FAILING_ATTACH, strategy, str(workers)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        kind, elapsed_s, timeout_s = proc.stdout.split()
        assert kind == "OSError"
        assert float(timeout_s) == 120
        assert float(elapsed_s) < 1, (workers, elapsed_s)


def test_stage2_and_stage3_overlap_sleeps_stage0_does_not():
    # Coarse sanity check that simulated latency really runs in parallel:
    # eight independent 5 ms modules, four workers.
    catalog = make_catalog(*(f"m{i}|0||" for i in range(8)))
    index = register_v0(catalog, catalog.names)

    def wall(config):
        t0 = time.perf_counter()
        run_strategy(catalog, index, NO_HW, config)
        return time.perf_counter() - t0

    serial = wall(StrategyConfig("stage0", load_base_us=5000))
    parallel = wall(StrategyConfig("stage3", workers=5, load_base_us=5000))
    assert parallel < serial


class OverrunClock:
    """A virtual clock for the loader whose every sleep wakes 100 µs late.

    Reading it does not advance it. Each sleep asked for is recorded in ns,
    against ``worker``, which a test that steps the jobs itself sets first.
    """

    OVERRUN_NS = 100_000

    def __init__(self):
        self.now_ns = 0
        self.reads = 0
        self.worker = 0
        self.sleeps: list[tuple[int, int]] = []
        self._lock = threading.Lock()

    def clock_ns(self) -> int:
        with self._lock:
            self.reads += 1
            return self.now_ns

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.sleeps.append((self.worker, round(seconds * 1e9)))
            self.now_ns += round(seconds * 1e9) + self.OVERRUN_NS

    def requested_ns(self, worker: int | None = None) -> list[int]:
        return [ns for w, ns in self.sleeps if worker is None or w == worker]


@pytest.fixture
def overrun_clock(monkeypatch):
    clock = OverrunClock()
    monkeypatch.setattr(loader, "_clock_ns", clock.clock_ns)
    monkeypatch.setattr(loader, "_sleep", clock.sleep)
    return clock


def costs_ns(catalog, trace, config):
    """Nominal cost of each LOAD in ``trace``, in trace order."""
    return [
        round((config.load_base_us + catalog.sizes[catalog.index_of[e.module]]
               * config.load_per_kb_us) * 1000)
        for e in trace
        if e.kind == LOAD
    ]


class TestPacedAttachClock:
    OVERRUN = OverrunClock.OVERRUN_NS

    def test_stage0_carries_each_overshoot_into_the_next_attach(self, overrun_clock):
        catalog = make_catalog(*(f"m{i}|{kb}||" for i, kb in enumerate([3, 1, 4, 1, 5, 9, 2, 6])))
        index = register_v0(catalog, catalog.names)
        config = StrategyConfig("stage0", load_base_us=200, load_per_kb_us=10)
        _, trace = run_strategy(catalog, index, NO_HW, config)
        costs = costs_ns(catalog, trace, config)
        assert len(costs) == 8
        # The first attach sleeps its full cost; each later one is short by
        # the overshoot of the sleep before it.
        assert overrun_clock.requested_ns() == [costs[0]] + [c - self.OVERRUN for c in costs[1:]]
        assert sum(overrun_clock.requested_ns()) == sum(costs) - 7 * self.OVERRUN
        # So the boot ends one overshoot after its nominal total.
        assert trace[-1].timestamp_us * 1000 == sum(costs) + self.OVERRUN

    def test_an_attach_past_its_deadline_does_not_sleep(self, overrun_clock):
        # 300, 50 and 300 µs: the 50 µs attach is due before the 100 µs lag
        # it inherits has run out, so it sleeps not at all and passes on 50 µs.
        catalog = make_catalog("a|6||", "b|1||", "c|6||")
        index = register_v0(catalog, catalog.names)
        config = StrategyConfig("stage0", load_per_kb_us=50)
        _, trace = run_strategy(catalog, index, NO_HW, config)
        assert overrun_clock.requested_ns() == [300_000, 250_000]
        assert [e.timestamp_us for e in trace] == [400, 400, 750]

    def test_every_session_starts_at_lag_zero(self, overrun_clock):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v0(catalog, catalog.names)
        config = StrategyConfig("stage0", load_base_us=300)
        run_strategy(catalog, index, NO_HW, config)
        run_strategy(catalog, index, NO_HW, config)  # same thread, new session
        assert overrun_clock.requested_ns() == [300_000, 200_000, 300_000, 200_000]

    def test_stage3_workers_never_credit_each_other_with_overshoot(self, overrun_clock):
        # Twelve independent modules, three loading workers of four each,
        # stepped in turn one yield at a time on the one virtual clock: every
        # worker attaches while the others carry a lag.
        catalog = make_catalog(*(f"m{i:02d}|1||" for i in range(12)))
        index = register_v0(catalog, catalog.names)
        config = StrategyConfig("stage3", workers=4, load_base_us=300)
        session = loader.LoadSession(catalog, index, NO_HW, config)
        jobs = dict(enumerate(session._jobs()))
        while jobs:
            for worker, job in list(jobs.items()):
                overrun_clock.worker = worker
                try:
                    next(job)
                except StopIteration:
                    del jobs[worker]
        assert len(session.state.loaded()) == 12
        for worker in range(3):
            assert overrun_clock.requested_ns(worker) == [300_000] + [200_000] * 3, worker

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_instant_mode_never_reads_the_clock_or_sleeps(self, overrun_clock, strategy):
        catalog = make_catalog(*SHARED_DEP)
        if strategy == "stage1":
            index = register_v1(catalog, catalog.names, NO_HW)
        else:
            index = register_v0(catalog, catalog.names)
        config = StrategyConfig(strategy, workers=1 if strategy in ("stage0", "stage1") else 3)
        state, _ = run_strategy(catalog, index, NO_HW, config)
        assert state.loaded() == {"a", "b", "c"}
        assert (overrun_clock.reads, overrun_clock.sleeps) == (0, [])


@pytest.mark.parametrize("strategy, workers", [("stage0", 1), ("stage3", 4)])
def test_no_worker_attaches_faster_than_its_nominal_costs(monkeypatch, strategy, workers):
    # On the real clock: from its first attach's start to its last LOAD, a
    # worker takes at least the nominal costs of the modules it attached.
    # Every module has its own size, so the start stamps taken by the wrapped
    # simulate_load are told apart by module.
    catalog = make_catalog(*(f"m{i:02d}|{i}||" for i in range(40)))
    index = register_v0(catalog, catalog.names)
    config = StrategyConfig(strategy, workers=workers, load_base_us=200)
    started_ns = {}
    real_load = loader.simulate_load

    def stamped_load(size_kb, config):
        started_ns[catalog.names[size_kb]] = time.monotonic_ns()
        return real_load(size_kb, config)

    monkeypatch.setattr(loader, "simulate_load", stamped_load)
    session = loader.LoadSession(catalog, index, NO_HW, config)
    _, trace = session.run()
    loads = [e for e in trace if e.kind == LOAD]
    assert len(loads) == 40
    for worker in {e.worker_id for e in loads}:
        own = [e for e in loads if e.worker_id == worker]
        first_start_ns = min(started_ns[e.module] for e in own)
        # A stamp is floored to whole µs, so this is the earliest the last
        # LOAD can have happened.
        last_load_ns = session._t0 + own[-1].timestamp_us * 1000
        nominal_ns = sum(costs_ns(catalog, own, config))
        assert last_load_ns - first_start_ns >= nominal_ns, worker


def test_stage0_reads_each_dependency_entry_at_most_once(record_count):
    # The attach walk stops at complete positions, so each module's run of
    # dependencies is read while it is being loaded and never again.
    catalog_text, inventory_text = generate_fixture(5000, 16, seed=1, hw_coverage=1.0)
    catalog = parse_catalog(catalog_text)
    inventory = parse_inventory(inventory_text)
    index = register_v0(catalog, catalog.names)
    targets = CountingRuns(catalog.dep_targets)
    vars(catalog)["dep_targets"] = targets
    state, _ = run_strategy(catalog, index, inventory, STAGE0)
    assert state.loaded()
    assert 0 < targets.reads <= len(targets), (targets.reads, len(targets))
    assert record_count.n == 0



def test_stage1_reads_no_dependency_entry():
    # v1 settled the dependency walk at registration, so a stage1 boot reads
    # no entry of any module's dependency run.
    catalog_text, inventory_text = generate_fixture(5000, 16, seed=1, hw_coverage=1.0)
    catalog = parse_catalog(catalog_text)
    inventory = parse_inventory(inventory_text)
    index = register_v1(catalog, catalog.names, inventory)
    targets = CountingRuns(catalog.dep_targets)
    vars(catalog)["dep_targets"] = targets
    state, _ = run_strategy(catalog, index, inventory, STAGE1)
    assert state.loaded()
    assert targets.reads == 0

# (modules, max depth, hardware coverage); each shape at seeds 1-3.
IDENTITY_SHAPES = ((1000, 8, 0.8), (5000, 16, 1.0), (600, 8, 0.8))

# SHA-256 over every identity fixture in order, each under the all-load
# policy and then a file selection of every third module: the instant-mode
# trace for stage0 and stage1, the sorted loaded names (one per line) for
# stage2 (2 workers) and stage3 (3 workers), whose sets are equal. A change
# to the loader's internals must keep every one of them byte for byte.
BOOT_DIGESTS = {
    "stage0": "5426c041c31356b9d22bfe5d14176ed3689264731ec9b25249ed132d8de32742",
    "stage1": "a495323105731b9157314205fe3eb26cef795a0423c1a73173561cec28376950",
    "stage2": "0d1da935416b3996934a51d1950971a1aa19abc31e6b5b8e0f62a9ea695e4f1b",
    "stage3": "0d1da935416b3996934a51d1950971a1aa19abc31e6b5b8e0f62a9ea695e4f1b",
}


@functools.cache
def identity_fixtures():
    fixtures = []
    for modules, max_depth, coverage in IDENTITY_SHAPES:
        for seed in (1, 2, 3):
            catalog_text, inventory_text = generate_fixture(modules, max_depth, seed, coverage)
            fixtures.append((parse_catalog(catalog_text), parse_inventory(inventory_text)))
    return fixtures


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_boot_outputs_match_the_pinned_digests(strategy):
    config = StrategyConfig(strategy, workers={"stage2": 2, "stage3": 3}.get(strategy, 1))
    digest = hashlib.sha256()
    for catalog, inventory in identity_fixtures():
        for selected in (catalog.names, catalog.names[::3]):
            if strategy == "stage1":
                index = register_v1(catalog, selected, inventory)
            else:
                index = register_v0(catalog, selected)
            state, trace = run_strategy(catalog, index, inventory, config)
            if strategy in ("stage0", "stage1"):
                output = format_trace(trace)
            else:
                output = "".join(f"{name}\n" for name in sorted(state.loaded()))
            digest.update(output.encode())
    assert digest.hexdigest() == BOOT_DIGESTS[strategy]
