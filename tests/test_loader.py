"""Strategy semantics: gating, ordering, partitioning, and race behavior."""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from kmodsim.catalog import ModuleRecord
from kmodsim import loader
from kmodsim.errors import ConfigError, IndexMismatch, LoadTimeout
from kmodsim.hardware import HardwareInventory
from kmodsim.loader import (
    DUP_ATTEMPT,
    LOAD,
    LoadState,
    SKIP_FLAG,
    SKIP_HW,
    StrategyConfig,
    format_trace,
    load_stage0,
    load_stage1,
    load_stage2,
    load_stage3,
    parse_trace,
    plan_partitions,
)
from kmodsim.registry import SelectionPolicy, register_v0, register_v1

from conftest import (
    assert_dependency_safe,
    assert_exactly_once,
    assert_worker_clocks_monotone,
    chain_records,
    load_events,
    make_catalog,
    make_inventory,
    sequential_load_order,
)

NO_HW = HardwareInventory(())


def flags_index(catalog, names):
    return register_v0(catalog, SelectionPolicy.from_file(names))


def kinds(trace):
    return [(e.kind, e.module) for e in trace]


class TestPlanPartitions:
    def test_worked_example(self):
        plan = plan_partitions(8, 5)
        assert plan.step == 2
        assert plan.ranges == ((0, 2), (2, 4), (4, 6), (6, 8))

    def test_tail_is_clamped(self):
        plan = plan_partitions(7, 5)
        assert plan.step == 2
        assert plan.ranges == ((0, 2), (2, 4), (4, 6), (6, 7))

    def test_zero_modules_gives_empty_ranges(self):
        plan = plan_partitions(0, 4)
        assert plan.ranges == ((0, 0), (0, 0), (0, 0))

    def test_more_workers_than_modules(self):
        plan = plan_partitions(2, 5)
        assert plan.ranges == ((0, 1), (1, 2), (2, 2), (2, 2))

    def test_single_worker_rejected(self):
        with pytest.raises(ConfigError):
            plan_partitions(8, 1)

    @pytest.mark.parametrize("workers", [2, 3, 8, 64])
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 100, 101])
    def test_disjoint_cover(self, n, workers):
        plan = plan_partitions(n, workers)
        prev = 0
        total = 0
        for start, end in plan.ranges:
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
        rec, StrategyConfig("stage0", load_base_us=base, load_per_kb_us=per_kb)
    )


class TestLoadState:
    def test_mark_complete_wakes_every_waiter(self):
        state = LoadState(make_catalog("a|1||"))
        assert state.try_claim("a")
        waiters = [
            threading.Thread(target=state.wait_complete, args=("a",), daemon=True)
            for _ in range(4)
        ]
        for waiter in waiters:
            waiter.start()
        time.sleep(0.05)  # let the waiters block on the condition
        assert all(waiter.is_alive() for waiter in waiters)
        state.mark_complete("a")
        deadline = time.monotonic() + 1.0
        for waiter in waiters:
            waiter.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(waiter.is_alive() for waiter in waiters)

    def test_waiting_on_an_unfinished_claim_times_out_with_a_code(self, monkeypatch):
        monkeypatch.setattr(loader, "_COMPLETION_TIMEOUT_S", 0.05)
        state = LoadState(make_catalog("a|1||"))
        assert state.try_claim("a")
        with pytest.raises(LoadTimeout) as info:
            state.wait_complete("a")
        assert info.value.code == "load-timeout"


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
            load_stage0(catalog, flags_index(catalog, ["a"]), NO_HW, config)

    def test_base_cost_beyond_the_completion_timeout_is_rejected(self):
        catalog = make_catalog("a|1||")
        config = StrategyConfig("stage0", load_base_us=1e20)
        with pytest.raises(ConfigError, match="longer than"):
            load_stage0(catalog, flags_index(catalog, ["a"]), NO_HW, config)

    def test_the_largest_module_sets_the_limit(self, monkeypatch):
        monkeypatch.setattr(loader, "_COMPLETION_TIMEOUT_S", 0.05)  # 50,000 us
        catalog = make_catalog("a|10||", "b|1000||", "fs|9999||@base")
        index = flags_index(catalog, ["a"])
        # 1,000 kB at 40 us/kB is 40,000 us; the resident module never attaches.
        load_stage0(catalog, index, NO_HW, StrategyConfig("stage0", load_per_kb_us=40))
        with pytest.raises(ConfigError, match="longer than"):
            load_stage0(catalog, index, NO_HW, StrategyConfig("stage0", load_per_kb_us=60))


class TestStage0:
    def test_flag_gating(self):
        catalog = make_catalog("a|1||", "b|1||")
        _, trace = load_stage0(catalog, flags_index(catalog, ["a"]), NO_HW)
        assert kinds(trace) == [(LOAD, "a"), (SKIP_FLAG, "b")]

    def test_chain_loads_dependencies_first(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = flags_index(catalog, ["c"])
        state, trace = load_stage0(catalog, index, NO_HW)
        expected = sequential_load_order(catalog, {"c": 1}, lambda rec: True)
        assert expected == ["a", "b", "c"]  # frozen from the post-order oracle
        assert load_events(trace) == expected
        assert state.loaded() == {"a", "b", "c"}

    def test_unmatched_hardware_skips(self):
        catalog = make_catalog("a|1||ath9k")
        inv = make_inventory("Intel e1000 Gigabit")
        state, trace = load_stage0(catalog, flags_index(catalog, ["a"]), inv)
        assert kinds(trace) == [(SKIP_HW, "a")]
        assert state.loaded() == frozenset()

    def test_dependencies_load_even_when_unflagged(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        # only the root is flagged; a and b are required anyway
        _, trace = load_stage0(catalog, flags_index(catalog, ["c"]), NO_HW)
        assert load_events(trace) == ["a", "b", "c"]
        assert (SKIP_FLAG, "a") in kinds(trace)

    def test_unsupported_dependency_of_supported_root_still_loads(self):
        # The flag and the hardware check gate roots, not dependencies:
        # a required module attaches even when its own tags match nothing.
        catalog = make_catalog("top|1|lib|", "lib|1||dev-lib")
        inv = make_inventory("nothing relevant")
        index = register_v0(catalog, SelectionPolicy.all_load())
        state, trace = load_stage0(catalog, index, inv)
        assert state.loaded() == {"lib", "top"}
        assert (SKIP_HW, "lib") in kinds(trace)  # as a root it is still skipped

    def test_dependency_of_unsupported_root_stays_unloaded(self):
        catalog = make_catalog("top|1|lib|dev-top", "lib|1||")
        inv = make_inventory("nothing relevant")
        state, trace = load_stage0(catalog, flags_index(catalog, ["top"]), inv)
        assert state.loaded() == frozenset()
        assert (SKIP_HW, "top") in kinds(trace)

    def test_base_modules_are_resident_not_loaded(self):
        catalog = make_catalog("fs|4||@base", "app|1|fs|")
        index = register_v0(catalog, SelectionPolicy.all_load())
        state, trace = load_stage0(catalog, index, NO_HW)
        assert load_events(trace) == ["app"]
        assert all(e.module != "fs" for e in trace)
        assert state.is_complete("fs")  # resident from the start
        assert state.loaded() == {"app"}

    def test_wrong_index_version(self):
        catalog = make_catalog("a|1||")
        index = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        with pytest.raises(IndexMismatch):
            load_stage0(catalog, index, NO_HW)

    def test_config_for_another_strategy_is_rejected(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(ConfigError, match="stage3"):
            load_stage0(
                catalog, flags_index(catalog, ["a"]), NO_HW, StrategyConfig("stage3", workers=1)
            )


class TestStage1:
    def test_chain_sweeps_one_level_per_pass(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        _, trace = load_stage1(catalog, index, NO_HW)
        assert kinds(trace) == [(LOAD, "a"), (LOAD, "b"), (LOAD, "c")]

    def test_diamond_ties_break_in_catalog_order(self):
        catalog = make_catalog("d|1|b,c|", "b|1|a|", "c|1|a|", "a|1||")
        index = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        _, trace = load_stage1(catalog, index, NO_HW)
        assert load_events(trace) == ["a", "b", "c", "d"]

    def test_all_zero_values_produce_an_empty_trace(self):
        catalog = make_catalog("a|1||", "b|1||")
        index = register_v1(catalog, SelectionPolicy.all_skip(), NO_HW)
        _, trace = load_stage1(catalog, index, NO_HW)
        assert trace == []

    def test_wrong_index_version(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(IndexMismatch):
            load_stage1(catalog, register_v0(catalog, SelectionPolicy.all_load()), NO_HW)

    def test_leveled_base_dependency_is_not_swept(self):
        catalog = make_catalog("fs|4||@base", "app|1|fs|")
        index = register_v1(catalog, SelectionPolicy.all_load(), NO_HW)
        assert dict(index.entries)["fs"] == 1
        state, trace = load_stage1(catalog, index, NO_HW)
        assert load_events(trace) == ["app"]
        assert state.loaded() == {"app"}


class TestStage2:
    def test_loaded_set_matches_stage0(self):
        catalog = make_catalog("d|1|b,c|", "b|1|a|", "c|1|a|", "a|1||", "x|1||")
        index = flags_index(catalog, ["d"])
        s0, _ = load_stage0(catalog, index, NO_HW)
        s2, trace = load_stage2(catalog, index, NO_HW, StrategyConfig("stage2", workers=4))
        assert s2.loaded() == s0.loaded()
        assert_exactly_once(trace)

    def test_dependencies_precede_dependents_in_trace(self):
        catalog = make_catalog(*chain_records(["a", "b", "c"]))
        index = flags_index(catalog, ["c"])
        _, trace = load_stage2(catalog, index, NO_HW, StrategyConfig("stage2", workers=3))
        assert_dependency_safe(trace, catalog)

    def test_single_worker_rejected(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(ConfigError):
            load_stage2(
                catalog,
                flags_index(catalog, ["a"]),
                NO_HW,
                StrategyConfig("stage2", workers=1),
            )


SHARED_DEP = ["b|1|a|", "c|1|a|", "a|1||"]


class TestStage3:
    def test_loaded_set_matches_stage0(self):
        catalog = make_catalog(*SHARED_DEP)
        index = register_v0(catalog, SelectionPolicy.all_load())
        s0, _ = load_stage0(catalog, index, NO_HW)
        s3, trace = load_stage3(catalog, index, NO_HW, StrategyConfig("stage3", workers=4))
        assert s3.loaded() == s0.loaded()
        assert_exactly_once(trace)
        assert_dependency_safe(trace, catalog)

    def test_single_worker_rejected(self):
        catalog = make_catalog("a|1||")
        with pytest.raises(ConfigError):
            load_stage3(
                catalog,
                flags_index(catalog, ["a"]),
                NO_HW,
                StrategyConfig("stage3", workers=1),
            )

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_shared_dependency_loads_exactly_once_under_stress(self, workers):
        catalog = make_catalog(*SHARED_DEP)
        index = register_v0(catalog, SelectionPolicy.all_load())
        config = StrategyConfig("stage3", workers=workers)
        for _ in range(120):
            state, trace = load_stage3(catalog, index, NO_HW, config)
            assert_exactly_once(trace)
            assert_dependency_safe(trace, catalog)
            assert state.loaded() == {"a", "b", "c"}

    def test_racing_workers_surface_dup_attempts(self):
        # A big attach latency on the shared dependency keeps one worker
        # inside the load long enough for the other to lose the claim.
        catalog = make_catalog(*SHARED_DEP)
        index = register_v0(catalog, SelectionPolicy.all_load())
        config = StrategyConfig("stage3", workers=3, load_base_us=30_000)
        for _ in range(5):
            state, trace = load_stage3(catalog, index, NO_HW, config)
            assert_exactly_once(trace)
            assert_dependency_safe(trace, catalog)
            dups = [e for e in trace if e.kind == DUP_ATTEMPT]
            if dups:
                assert all(e.module == "a" for e in dups)
                return
        pytest.fail("no DUP_ATTEMPT observed in five heavily overlapped runs")


class TestTraces:
    def test_per_worker_timestamps_nondecreasing(self):
        catalog = make_catalog(*(f"m{i:02d}|{i}||" for i in range(20)))
        index = register_v0(catalog, SelectionPolicy.all_load())
        config = StrategyConfig("stage3", workers=4, load_base_us=20, load_per_kb_us=1)
        _, trace = load_stage3(catalog, index, NO_HW, config)
        assert_worker_clocks_monotone(trace)

    def test_instant_mode_freezes_the_clock(self):
        catalog = make_catalog("a|1||")
        _, trace = load_stage0(catalog, flags_index(catalog, ["a"]), NO_HW)
        assert [e.timestamp_us for e in trace] == [0]

    def test_costed_loads_advance_the_clock(self):
        catalog = make_catalog(*chain_records(["a", "b"]))
        index = flags_index(catalog, ["b"])
        config = StrategyConfig("stage0", load_base_us=500)
        _, trace = load_stage0(catalog, index, NO_HW, config)
        first, second = [e.timestamp_us for e in trace if e.kind == LOAD]
        assert 0 < first < second

    def test_format_parse_round_trip(self):
        catalog = make_catalog(*SHARED_DEP)
        index = register_v0(catalog, SelectionPolicy.all_load())
        _, trace = load_stage3(catalog, index, NO_HW, StrategyConfig("stage3", workers=2))
        assert parse_trace(format_trace(trace)) == trace

    def test_parse_rejects_garbage(self):
        from kmodsim.errors import MalformedTrace

        with pytest.raises(MalformedTrace):
            parse_trace("1 0 NOT_A_KIND a\n")
        with pytest.raises(MalformedTrace):
            parse_trace("1 0 LOAD\n")


def test_many_sessions_run_concurrently_without_interference():
    catalog = make_catalog(*SHARED_DEP)
    index = register_v0(catalog, SelectionPolicy.all_load())

    def one_session(_):
        state, trace = load_stage3(
            catalog, index, NO_HW, StrategyConfig("stage3", workers=3, load_base_us=200)
        )
        assert_exactly_once(trace)
        return state.loaded()

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(one_session, range(24)))
    assert all(r == {"a", "b", "c"} for r in results)


def test_stage2_and_stage3_overlap_sleeps_stage0_does_not():
    # Coarse sanity check that simulated latency really runs in parallel:
    # eight independent 5 ms modules, four workers.
    catalog = make_catalog(*(f"m{i}|0||" for i in range(8)))
    index = register_v0(catalog, SelectionPolicy.all_load())

    def wall(fn, config):
        t0 = time.perf_counter()
        fn(catalog, index, NO_HW, config)
        return time.perf_counter() - t0

    serial = wall(load_stage0, StrategyConfig("stage0", load_base_us=5000))
    parallel = wall(load_stage3, StrategyConfig("stage3", workers=5, load_base_us=5000))
    assert parallel < serial
