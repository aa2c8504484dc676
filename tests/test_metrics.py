"""Timing folds, space accounting, and the bench harness."""

from __future__ import annotations

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmodsim.catalog import parse_catalog
from kmodsim.errors import ConfigError, LoadSetMismatch, MalformedTrace, UnknownSelection
from kmodsim.hardware import HardwareInventory
from kmodsim.loader import (
    DUP_ATTEMPT,
    LOAD,
    SKIP_FLAG,
    SKIP_HW,
    LoadEvent,
    StrategyConfig,
    format_trace,
    parse_trace,
    run_strategy,
)
from kmodsim.metrics import (
    CompositeResult,
    bench,
    check_trace,
    render_bench_csv,
    render_bench_text,
    space_report,
    timing_from_trace,
)
from kmodsim.registry import register_v0

from conftest import (
    IMPOSSIBLE_TRACE_CATALOG,
    IMPOSSIBLE_TRACES,
    catalog_texts,
    chain_records,
    make_catalog,
    make_inventory,
)

# The benchmark's oracles read the files with their own code, not kmodsim's.
_BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)
import oracles  # noqa: E402

NO_HW = HardwareInventory(())


def ev(kind, module, ts=0, worker=0):
    return LoadEvent(ts, worker, kind, module)


class TestTiming:
    def test_two_loads(self):
        timing = timing_from_trace([ev(LOAD, "a", 100), ev(LOAD, "b", 300)])
        assert (timing.first_load_us, timing.last_load_us) == (100, 300)
        assert timing.wall_us == 200
        assert timing.loads == 2

    def test_skip_only_trace_has_zero_wall(self):
        timing = timing_from_trace([ev(SKIP_HW, "a", 500)])
        assert timing.loads == 0
        assert timing.skips_hw == 1
        assert timing.wall_us == 0

    def test_dup_attempts_counted(self):
        trace = [ev(LOAD, "a", 10), ev(DUP_ATTEMPT, "a", 11), ev(LOAD, "b", 12)]
        assert timing_from_trace(trace).dup_attempts == 1

    def test_empty_trace(self):
        timing = timing_from_trace([])
        assert timing == timing_from_trace([])
        assert timing.wall_us == 0 and timing.loads == 0

    def test_insensitive_to_non_load_placement(self):
        loads = [ev(LOAD, "a", 100), ev(LOAD, "b", 300)]
        others = [ev(SKIP_FLAG, "x", 50), ev(SKIP_HW, "y", 400), ev(DUP_ATTEMPT, "z", 200)]
        rng = random.Random(7)
        for _ in range(20):
            mixed = loads + others
            rng.shuffle(mixed)
            assert timing_from_trace(mixed) == timing_from_trace(loads + others)

    def test_an_unknown_kind_is_a_malformed_trace(self):
        with pytest.raises(MalformedTrace, match="^unknown event kind 'FOO'$"):
            timing_from_trace([ev(LOAD, "a"), ev("FOO", "a")])

    def test_real_stage3_race_rolls_up(self):
        catalog = make_catalog("b|1|a|", "c|1|a|", "a|1||")
        index = register_v0(catalog, catalog.names)
        for _ in range(5):
            _, trace = run_strategy(
                catalog, index, NO_HW, StrategyConfig("stage3", workers=3, load_base_us=30_000)
            )
            timing = timing_from_trace(trace)
            assert timing.loads == 3
            if timing.dup_attempts:
                assert timing.dup_attempts == sum(
                    1 for e in trace if e.kind == DUP_ATTEMPT
                )
                return
        pytest.fail("race never produced a duplicate attempt")


class TestCheckTrace:
    def test_returns_the_attached_names(self):
        catalog = make_catalog("a|1||", "b|1|a,core|", "core|1||@base", "x|1||")
        trace = [ev(SKIP_FLAG, "x"), ev(LOAD, "a"), ev(DUP_ATTEMPT, "a"), ev(LOAD, "b")]
        loaded = check_trace(catalog, trace)
        assert loaded == {"a", "b"} and type(loaded) is frozenset

    @pytest.mark.parametrize("trace", list(IMPOSSIBLE_TRACES))
    def test_each_broken_rule_is_named(self, trace):
        catalog = parse_catalog(IMPOSSIBLE_TRACE_CATALOG)
        message = IMPOSSIBLE_TRACES[trace]
        with pytest.raises(MalformedTrace, match=f"^{re.escape(message)}$"):
            check_trace(catalog, parse_trace(trace))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_independent_oracle(self, data):
        text = data.draw(catalog_texts_with_base())
        reference = oracles.read_catalog(text)
        names = sorted(reference.sizes)
        kinds = st.sampled_from([LOAD, LOAD, SKIP_HW, SKIP_FLAG, DUP_ATTEMPT])
        steps = st.tuples(kinds, st.sampled_from([*names, "ghost"]))
        drawn = data.draw(st.lists(steps, min_size=1, max_size=30))
        trace = [LoadEvent(ts, 0, kind, module) for ts, (kind, module) in enumerate(drawn)]
        if data.draw(st.booleans()):
            # What the drawn LOADs select, with every device present, in
            # catalog order, which puts dependencies first: no rule breaks.
            every_tag = frozenset(t.casefold() for tags in reference.tags.values() for t in tags)
            picked = [e.module for e in trace if e.kind == LOAD and e.module in reference.sizes]
            selected = oracles.expected_loaded(reference, picked, every_tag)
            trace = [LoadEvent(0, 0, LOAD, module) for module in sorted(selected)]
        trace_text = format_trace(trace)
        breaks_a_rule = bool(oracles.check_trace(trace_text, reference)) or any(
            e.kind == LOAD and e.module in reference.base for e in trace
        )
        catalog = parse_catalog(text)
        if breaks_a_rule:
            with pytest.raises(MalformedTrace):
                check_trace(catalog, trace)
        else:
            assert check_trace(catalog, trace) == oracles.summarize_trace(trace_text).loaded


@st.composite
def catalog_texts_with_base(draw) -> str:
    """``catalog_texts`` with up to two of its modules tagged ``@base``."""
    lines = draw(catalog_texts()).splitlines()
    for i in draw(st.sets(st.integers(1, len(lines) - 1), max_size=2)):
        lines[i] += "@base" if lines[i].endswith("|") else ",@base"
    return "\n".join(lines) + "\n"


class TestSpace:
    def test_one_unloaded_module_is_saved(self):
        catalog = make_catalog("inet6|2112||", "core|100||")
        report = space_report(catalog, {"core"})
        assert report.saved_kb == 2112
        assert report.total_kb == 2212

    def test_architecture_bundle_savings(self):
        catalog = make_catalog("archextras|2331||", "core|64||", "net|32||")
        report = space_report(catalog, {"core", "net"})
        assert report.saved_kb == 2331

    def test_everything_loaded_saves_nothing(self):
        catalog = make_catalog("a|10||", "b|20||")
        report = space_report(catalog, {"a", "b"})
        assert report.saved_kb == 0
        assert report.loaded_kb == 30

    def test_base_modules_counted_separately(self):
        catalog = make_catalog("ffs|500||@base", "a|10||", "b|20||")
        report = space_report(catalog, {"a"})
        assert report.base_only_kb == 500
        assert report.loaded_kb == 10
        assert report.saved_kb == 20
        assert report.total_kb == 530

    def test_accepts_a_sessions_loaded_names(self):
        catalog = make_catalog("a|10||", "b|20||")
        index = register_v0(catalog, ["a"])
        state, _ = run_strategy(catalog, index, NO_HW, StrategyConfig("stage0"))
        report = space_report(catalog, state.loaded())
        assert report.loaded_kb == 10 and report.saved_kb == 20

    def test_conservation_identity(self):
        catalog = make_catalog("ffs|500||@base", "a|10||", "b|20|a|", "c|7||")
        for loaded in [set(), {"a"}, {"a", "b"}, {"a", "b", "c"}]:
            r = space_report(catalog, loaded)
            assert r.total_kb == r.loaded_kb + r.saved_kb + r.base_only_kb


class TestBench:
    def setup_method(self):
        self.catalog = make_catalog(*chain_records(["a", "b", "c", "d"]), "e|1||")
        self.inventory = make_inventory()

    def test_stage0_normalizes_to_one(self):
        report = bench(
            self.catalog, self.catalog.names, self.inventory,
            ["stage0"], workers=1, repetitions=2,
        )
        assert report.results[0].normalized == 1.0

    def test_instant_mode_is_deterministic(self):
        run = lambda: bench(
            self.catalog, self.catalog.names, self.inventory,
            ["stage0", "stage1", "stage2", "stage3"], workers=4, repetitions=3,
        )
        first, second = run(), run()
        for a, b in zip(first.results, second.results):
            assert a.loaded == b.loaded
            assert a.loads == b.loads
            assert a.median_wall_us == b.median_wall_us == 0

    def test_partitioned_beats_locked_with_real_costs(self):
        # Direction only; the margin on independent same-cost modules is the
        # worker count, far above scheduler noise.
        catalog = make_catalog(*(f"m{i:03d}|0||" for i in range(100)))
        report = bench(
            catalog, catalog.names, make_inventory(),
            ["stage2", "stage3"], workers=5, repetitions=3, load_base_us=300,
        )
        wall = {r.strategy: r.median_wall_us for r in report.results}
        assert wall["stage3"] < wall["stage2"]

    def test_all_strategies_load_the_same_set(self):
        report = bench(
            self.catalog, self.catalog.names, self.inventory,
            ["stage0", "stage1", "stage2", "stage3"], workers=4, repetitions=1,
        )
        sets = {r.strategy: r.loaded for r in report.results}
        assert sets["stage1"] == sets["stage0"] == sets["stage2"] == sets["stage3"]

    def test_composite_is_always_reported(self):
        report = bench(
            self.catalog, self.catalog.names, self.inventory,
            ["stage1"], workers=1, repetitions=1,
        )
        assert report.composite.v0_us > 0 and report.composite.v1_us > 0
        assert report.results[0].normalized is None  # no stage0 baseline

    def test_improvement_is_zero_when_the_v1_pipeline_took_no_time(self):
        assert CompositeResult(5.0, 0.0).improvement_pct == 0.0

    def test_zero_reps_rejected(self):
        with pytest.raises(ConfigError):
            bench(self.catalog, self.catalog.names, self.inventory,
                  ["stage0"], workers=1, repetitions=0)

    def test_a_string_selection_is_not_read_as_names(self):
        with pytest.raises(UnknownSelection, match="^selection is the string 'ab', "):
            bench(self.catalog, "ab", self.inventory, ["stage0"], workers=1, repetitions=1)

    @pytest.mark.parametrize("strategies, workers, base_us, match", [
        (["stage9"], 1, 0.0, "unknown strategy 'stage9'"),
        (["stage0"], 0, 0.0, "workers must be within"),
        (["stage0", "stage1", "stage2"], 1, 0.0, "stage2 needs at least 2 workers, got 1"),
        (["stage0", "stage3"], 2, float("nan"), "load costs must be finite"),
        (["stage0"], 1, 1e15, "one attach would take"),
        (["stage0", "stage1", "stage0"], 1, 0.0, "^strategy 'stage0' is named more than once$"),
    ])
    def test_session_config_is_checked_before_the_selection_is_read(
        self, strategies, workers, base_us, match
    ):
        names = iter(self.catalog.names)
        with pytest.raises(ConfigError, match=match):
            bench(self.catalog, names, self.inventory, strategies,
                  workers=workers, repetitions=1, load_base_us=base_us)
        assert list(names) == list(self.catalog.names)

    def test_an_empty_strategy_list_is_rejected_before_the_selection_is_read(self):
        names = iter(self.catalog.names)
        with pytest.raises(ConfigError, match="^no strategies given$"):
            bench(self.catalog, names, self.inventory, [], workers=1, repetitions=1)
        assert list(names) == list(self.catalog.names)

    def test_changing_loaded_set_is_a_coded_error(self, drifting_bench):
        with pytest.raises(LoadSetMismatch) as info:
            bench(self.catalog, self.catalog.names, self.inventory,
                  ["stage0"], workers=1, repetitions=2)
        assert info.value.code == "load-set-mismatch"

    def test_csv_shape(self):
        report = bench(
            self.catalog, self.catalog.names, self.inventory,
            ["stage0", "stage1", "stage2", "stage3"], workers=8, repetitions=1,
        )
        lines = render_bench_csv(report).strip().splitlines()
        assert len(lines) == 5  # header + one row per strategy
        assert lines[0].startswith("strategy,workers,reps,")
        row = lines[1].split(",")
        assert row[0] == "stage0" and float(row[4]) == 1.0

    def test_csv_workers_column_is_the_count_each_strategy_ran_with(self):
        report = bench(
            self.catalog, self.catalog.names, self.inventory,
            ["stage0", "stage1", "stage2", "stage3"], workers=4, repetitions=1,
        )
        rows = [line.split(",") for line in render_bench_csv(report).splitlines()[1:]]
        assert [(row[0], row[1]) for row in rows] == [
            ("stage0", "1"), ("stage1", "1"), ("stage2", "4"), ("stage3", "4"),
        ]

    def test_text_report_names_the_normalization_base(self):
        report = bench(
            self.catalog, self.catalog.names, self.inventory,
            ["stage0"], workers=1, repetitions=1,
        )
        text = render_bench_text(report)
        assert "normalized to stage0" in text
        assert "composite" in text
