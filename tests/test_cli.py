"""End-to-end runs of the command-line surface."""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from kmodsim import loader
from kmodsim.cli import _build_parser, main
from kmodsim.fixtures import generate_fixture
from kmodsim.loader import parse_trace

from conftest import IMPOSSIBLE_TRACE_CATALOG, IMPOSSIBLE_TRACES, src_env


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def run_gen(workdir, modules=20, depth=3, seed=11, coverage=0.8):
    rc = main([
        "gen", "--modules", str(modules), "--max-depth", str(depth),
        "--seed", str(seed), "--hw-coverage", str(coverage),
        "--catalog", str(workdir / "catalog.txt"),
        "--inventory", str(workdir / "inventory.txt"),
    ])
    assert rc == 0


def run_register(workdir, version="v0", policy="all-load", index="index.txt"):
    args = [
        "register", "--catalog", str(workdir / "catalog.txt"),
        "--version", version, "--index", str(workdir / index),
        "--policy", policy,
    ]
    if version == "v1":
        args += ["--inventory", str(workdir / "inventory.txt")]
    return main(args)


class TestGen:
    def test_outputs_are_reproducible(self, workdir):
        run_gen(workdir, seed=1)
        first = (workdir / "catalog.txt").read_bytes(), (workdir / "inventory.txt").read_bytes()
        run_gen(workdir, seed=1)
        second = (workdir / "catalog.txt").read_bytes(), (workdir / "inventory.txt").read_bytes()
        assert first == second

    def test_bad_shape_exits_nonzero(self, workdir, capsys):
        rc = main([
            "gen", "--modules", "0",
            "--catalog", str(workdir / "c"), "--inventory", str(workdir / "i"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config: ")


    @pytest.mark.parametrize("existing", [True, False], ids=["over-old-outputs", "fresh"])
    def test_a_failed_gen_creates_or_changes_neither_output(self, workdir, capsys, existing):
        if existing:
            run_gen(workdir, seed=1)
        before = sorted((p.name, p.read_bytes()) for p in workdir.iterdir())
        rc = main([
            "gen", "--modules", "20", "--seed", "2",
            "--catalog", str(workdir / "catalog.txt"),
            "--inventory", str(workdir / "missing" / "inventory.txt"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: io: ")
        # No temporary file is left behind either.
        assert sorted((p.name, p.read_bytes()) for p in workdir.iterdir()) == before

    @pytest.mark.parametrize("catalog, inventory", [
        ("c.txt", "c.txt"),
        ("c.txt", "./c.txt"),
        ("sub/../c.txt", "c.txt"),
        ("link.txt", "c.txt"),
    ])
    def test_one_file_for_both_outputs_is_a_config_error(
        self, workdir, monkeypatch, capsys, catalog, inventory
    ):
        monkeypatch.chdir(workdir)
        (workdir / "sub").mkdir()
        (workdir / "link.txt").symlink_to("c.txt")
        rc = main(["gen", "--modules", "5", "--catalog", catalog, "--inventory", inventory])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config: --catalog and --inventory ")
        assert not (workdir / "c.txt").exists()

    def test_outputs_keep_the_mode_a_plain_write_gives(self, workdir):
        (workdir / "catalog.txt").write_text("old")
        (workdir / "catalog.txt").chmod(0o640)
        (workdir / "plain.txt").write_text("new")
        run_gen(workdir)
        assert (workdir / "catalog.txt").stat().st_mode & 0o777 == 0o640
        assert (workdir / "inventory.txt").stat().st_mode == (workdir / "plain.txt").stat().st_mode

    def test_a_target_that_is_not_a_regular_file_is_written_in_place(self, workdir):
        rc = main([
            "gen", "--modules", "5",
            "--catalog", str(workdir / "catalog.txt"), "--inventory", os.devnull,
        ])
        assert rc == 0
        assert (workdir / "catalog.txt").read_text() == generate_fixture(5, 4, 0, 1.0)[0]
        assert Path(os.devnull).is_char_device()


class TestRegister:
    def test_v0_all_load_is_all_ones(self, workdir):
        run_gen(workdir)
        assert run_register(workdir, "v0", "all-load") == 0
        body = (workdir / "index.txt").read_text().splitlines()
        assert body[0] == "MODINDEX v0"
        assert all(line.endswith(" 1") for line in body[1:])

    def test_v0_all_skip_is_all_zeros(self, workdir):
        run_gen(workdir)
        assert run_register(workdir, "v0", "all-skip") == 0
        body = (workdir / "index.txt").read_text().splitlines()
        assert body[0] == "MODINDEX v0" and len(body) == 21
        assert all(line.endswith(" 0") for line in body[1:])

    @pytest.mark.parametrize("flags, err", [
        (["--policy", "bogus"], "unknown policy 'bogus'"),
        ([], "pick a policy: --policy, --interactive, or --assume-yes"),
        (["--interactive"], "interactive selection ended before all modules were answered"),
    ], ids=["unknown-policy", "no-policy", "interactive-at-end-of-input"])
    def test_a_selection_that_cannot_be_read_is_one_config_error_line(
        self, workdir, monkeypatch, capsys, flags, err
    ):
        run_gen(workdir)
        monkeypatch.setattr(sys, "stdin", io.StringIO("y\n"))
        rc = main([
            "register", "--catalog", str(workdir / "catalog.txt"),
            "--version", "v0", "--index", str(workdir / "index.txt"), *flags,
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: config: {err}\n"
        assert not (workdir / "index.txt").exists()

    def test_v1_without_inventory_is_a_usage_error(self, workdir, capsys):
        run_gen(workdir)
        rc = main([
            "register", "--catalog", str(workdir / "catalog.txt"),
            "--version", "v1", "--index", str(workdir / "index.txt"),
            "--policy", "all-load",
        ])
        assert rc == 1
        assert "error: config: " in capsys.readouterr().err

    def test_file_policy(self, workdir):
        run_gen(workdir)
        first_name = (workdir / "catalog.txt").read_text().splitlines()[2].split("|")[0]
        (workdir / "sel.txt").write_text(f"# picks\n{first_name}\n")
        assert run_register(workdir, "v0", f"file:{workdir / 'sel.txt'}") == 0
        body = (workdir / "index.txt").read_text().splitlines()[1:]
        assert sum(line.endswith(" 1") for line in body) == 1

    def test_file_policy_trims_names_and_skips_comments_and_blank_lines(self, workdir):
        (workdir / "catalog.txt").write_text("MODCAT v1\na|1||\nb|1||\nc|1||\n")
        (workdir / "sel.txt").write_text("  # picks b\r\n\t a \r\n\n   \nc　\n")
        assert run_register(workdir, "v0", f"file:{workdir / 'sel.txt'}") == 0
        assert (workdir / "index.txt").read_text() == "MODINDEX v0\na 1\nb 0\nc 1\n"

    def test_v1_file_policy_writes_oracle_levels(self, workdir):
        (workdir / "catalog.txt").write_text(
            "MODCAT v1\na|1||\nb|1|a|\nc|1|b|\n"
        )
        (workdir / "inventory.txt").write_text("HWINV v1\n")
        (workdir / "sel.txt").write_text("c\n")
        assert run_register(workdir, "v1", f"file:{workdir / 'sel.txt'}") == 0
        body = (workdir / "index.txt").read_text().splitlines()
        assert body == ["MODINDEX v1", "a 1", "b 2", "c 3"]

    def test_unknown_selection_reports_code(self, workdir, capsys):
        run_gen(workdir)
        (workdir / "sel.txt").write_text("ghostmodule\n")
        rc = run_register(workdir, "v0", f"file:{workdir / 'sel.txt'}")
        assert rc == 1
        assert "error: unknown-selection: " in capsys.readouterr().err

    def test_interactive_reads_stdin(self, workdir, monkeypatch, capsys):
        run_gen(workdir, modules=3, coverage=1.0)
        monkeypatch.setattr(sys, "stdin", io.StringIO("y\nn\nyes\n"))
        rc = main([
            "register", "--catalog", str(workdir / "catalog.txt"),
            "--version", "v0", "--index", str(workdir / "index.txt"),
            "--interactive",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("load ") == 3
        values = [line.split()[1] for line in (workdir / "index.txt").read_text().splitlines()[1:]]
        assert values == ["1", "0", "1"]

    def test_interactive_reprompts_on_garbage(self, workdir, monkeypatch, capsys):
        run_gen(workdir, modules=1)
        monkeypatch.setattr(sys, "stdin", io.StringIO("maybe\ny\n"))
        rc = main([
            "register", "--catalog", str(workdir / "catalog.txt"),
            "--version", "v0", "--index", str(workdir / "index.txt"),
            "--interactive",
        ])
        assert rc == 0
        assert capsys.readouterr().out.count("load ") == 2

    def test_assume_yes_matches_all_load(self, workdir):
        run_gen(workdir)
        assert run_register(workdir, "v0", "all-load", index="a.txt") == 0
        rc = main([
            "register", "--catalog", str(workdir / "catalog.txt"),
            "--version", "v0", "--index", str(workdir / "b.txt"), "--assume-yes",
        ])
        assert rc == 0
        assert (workdir / "a.txt").read_text() == (workdir / "b.txt").read_text()


class TestLoad:
    def test_stage0_writes_a_trace(self, workdir, capsys):
        run_gen(workdir)
        run_register(workdir)
        rc = main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--strategy", "stage0", "--trace", str(workdir / "trace.txt"),
        ])
        assert rc == 0
        assert "stage0: loaded=" in capsys.readouterr().out
        assert (workdir / "trace.txt").exists()

    def test_instant_stage0_trace_is_reproducible(self, workdir):
        run_gen(workdir)
        run_register(workdir)
        args = [
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--strategy", "stage0", "--trace", str(workdir / "trace.txt"),
        ]
        assert main(args) == 0
        first = (workdir / "trace.txt").read_bytes()
        assert main(args) == 0
        assert (workdir / "trace.txt").read_bytes() == first

    def test_stage3_single_worker_is_a_usage_error(self, workdir, capsys):
        run_gen(workdir)
        run_register(workdir)
        rc = main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--strategy", "stage3", "--workers", "1",
        ])
        assert rc == 1
        assert "error: config: " in capsys.readouterr().err

    def test_absurd_worker_count_is_a_usage_error(self, workdir, capsys):
        run_gen(workdir)
        run_register(workdir)
        threads = threading.active_count()
        rc = main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--strategy", "stage2", "--workers", str(10**6),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config: workers must be within")
        assert threading.active_count() == threads

    def test_trace_written_even_when_the_session_cannot_start(self, workdir, capsys):
        run_gen(workdir)
        run_register(workdir, version="v0")
        rc = main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--strategy", "stage1",  # v1 strategy, v0 index
            "--trace", str(workdir / "trace.txt"),
        ])
        assert rc == 1
        assert "error: index-mismatch: " in capsys.readouterr().err
        assert (workdir / "trace.txt").read_text() == ""

    @pytest.mark.parametrize("strategy, err", [
        # The session's own error, not the trace write's.
        ("stage1", "error: index-mismatch: stage1 needs a v1 index, got v0\n"),
        ("stage0", "error: io: "),
    ], ids=["failed-session", "finished-session"])
    def test_an_unwritable_trace_reports_the_session_error_first(
        self, workdir, capsys, strategy, err
    ):
        run_gen(workdir)
        run_register(workdir, version="v0")
        rc = main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--strategy", strategy, "--trace", str(workdir / "missing" / "trace.txt"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(err)

    # In either index stage1 would LOAD b without a, or before it.
    @pytest.mark.parametrize("a_value", [0, 2])
    def test_a_v1_index_with_a_dependency_not_below_is_rejected(
        self, workdir, capsys, a_value
    ):
        (workdir / "catalog.txt").write_text("MODCAT v1\na|1||\nb|1|a|\n")
        (workdir / "index.txt").write_text(f"MODINDEX v1\na {a_value}\nb 1\n")
        rc = main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--strategy", "stage1", "--trace", str(workdir / "trace.txt"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: value-out-of-range: entry 1: ")
        assert not (workdir / "trace.txt").exists()

    def test_a_failed_load_keeps_the_events_recorded_before_it(self, workdir, capsys,
                                                                monkeypatch):
        # stage0 attaches a and b; then z, the only 7 kB module, fails.
        (workdir / "catalog.txt").write_text("MODCAT v1\na|1||\nb|1||\nz|7||\n")
        (workdir / "inventory.txt").write_text("HWINV v1\n")
        assert run_register(workdir) == 0
        real_load = loader.simulate_load

        def failing_load(size_kb, config):
            if size_kb == 7:
                raise OSError("attach failed")
            return real_load(size_kb, config)

        monkeypatch.setattr(loader, "simulate_load", failing_load)
        rc = main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--strategy", "stage0", "--trace", str(workdir / "trace.txt"),
        ])
        assert rc == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("error: "), err_lines
        trace = parse_trace((workdir / "trace.txt").read_text())
        assert [(e.kind, e.module) for e in trace] == [("LOAD", "a"), ("LOAD", "b")]

    def test_stage1_needs_no_inventory(self, workdir):
        run_gen(workdir)
        assert run_register(workdir, "v1", "all-load", index="index1.txt") == 0
        rc = main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index1.txt"),
            "--strategy", "stage1",
        ])
        assert rc == 0

    def test_stage0_without_inventory_is_a_usage_error(self, workdir, capsys):
        run_gen(workdir)
        run_register(workdir)
        rc = main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--strategy", "stage0",
        ])
        assert rc == 1
        assert "error: config: " in capsys.readouterr().err

    @pytest.mark.parametrize("cost", ["nan", "inf", "1e20"])
    def test_impossible_load_cost_is_a_usage_error(self, workdir, capsys, cost):
        run_gen(workdir)
        run_register(workdir)
        rc = main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--strategy", "stage0", "--load-base-us", cost,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config: ")


@pytest.mark.parametrize("command", ["load", "bench"])
def test_a_size_beyond_float_range_is_one_config_error_line(workdir, capsys, command):
    (workdir / "catalog.txt").write_text(f"MODCAT v1\na|1{'0' * 309}||\nb|1||\n")
    (workdir / "inventory.txt").write_text("HWINV v1\n")
    assert run_register(workdir) == 0
    inputs = ["--index", str(workdir / "index.txt")] if command == "load" else [
        "--policy", "all-load"
    ]
    rc = main([
        command, "--catalog", str(workdir / "catalog.txt"), *inputs,
        "--inventory", str(workdir / "inventory.txt"), "--strategy", "stage0",
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: config: a 310-digit module size is too large to price an attach\n"
    )


def prompts(out: str) -> list[str]:
    """The module names an interactive selection asked about, in order."""
    return re.findall(r"load (\S+)\? \[y/n\] ", out)


class TestInteractiveSelection:
    """Questions come after every other check of the command, once per module."""

    @pytest.fixture
    def inputs(self, workdir, monkeypatch):
        (workdir / "catalog.txt").write_text("MODCAT v1\nb|1||\na|1||\nc|1|a|\n")
        (workdir / "inventory.txt").write_text("HWINV v1\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO("y\nn\ny\n" * 3))
        return workdir

    def bench(self, workdir, *flags):
        return main([
            "bench", "--catalog", str(workdir / "catalog.txt"),
            "--inventory", str(workdir / "inventory.txt"), "--interactive", *flags,
        ])

    def test_register_v1_without_inventory_fails_before_asking(self, inputs, capsys):
        rc = main([
            "register", "--catalog", str(inputs / "catalog.txt"), "--version", "v1",
            "--index", str(inputs / "index.txt"), "--interactive",
        ])
        out, err = capsys.readouterr()
        assert rc == 1 and err == "error: config: --version v1 requires --inventory\n"
        assert prompts(out) == []

    def test_bench_without_repetitions_fails_before_asking(self, inputs, capsys):
        assert self.bench(inputs, "--reps", "0") == 1
        out, err = capsys.readouterr()
        assert err == "error: config: repetitions must be at least 1, got 0\n"
        assert prompts(out) == []

    @pytest.mark.parametrize("flags, err", [
        (["--workers", "1"], "error: config: stage2 needs at least 2 workers, got 1\n"),
        (["--load-base-us", "nan"], "error: config: load costs must be finite and non-negative\n"),
        (["--strategy", "stage0,stage0"],
         "error: config: strategy 'stage0' is named more than once\n"),
        (["--strategy", " , "], "error: config: no strategies given\n"),
    ])
    def test_bench_rejects_a_session_config_before_asking(self, inputs, capsys, flags, err):
        assert self.bench(inputs, "--reps", "1", *flags) == 1
        out, got = capsys.readouterr()
        assert got == err and prompts(out) == []
        assert sys.stdin.read() == "y\nn\ny\n" * 3

    def test_bench_runs_one_worker_strategies_on_one_worker(self, inputs, capsys):
        rc = self.bench(inputs, "--workers", "1", "--strategy", "stage0,stage1",
                        "--reps", "1", "--format", "csv")
        assert rc == 0
        out = capsys.readouterr().out
        assert prompts(out) == ["a", "b", "c"]
        rows = [line.split(",") for line in out.splitlines() if line.startswith("stage")]
        assert [(row[0], row[1], row[5]) for row in rows] == [
            ("stage0", "1", "2"), ("stage1", "1", "2"),
        ]

    def test_bench_asks_once_per_module_in_catalog_order(self, inputs, capsys):
        assert self.bench(inputs, "--reps", "3", "--format", "csv") == 0
        out = capsys.readouterr().out
        assert prompts(out) == ["a", "b", "c"]
        assert sys.stdin.read() == "y\nn\ny\n" * 2
        rows = [line.split(",") for line in out.splitlines() if line.startswith("stage")]
        assert [(row[0], row[5]) for row in rows] == [
            ("stage0", "2"), ("stage1", "2"), ("stage2", "2"), ("stage3", "2"),
        ]

    def test_register_asks_in_catalog_order(self, inputs, capsys):
        rc = main([
            "register", "--catalog", str(inputs / "catalog.txt"), "--version", "v0",
            "--index", str(inputs / "index.txt"), "--interactive",
        ])
        assert rc == 0
        assert prompts(capsys.readouterr().out) == ["a", "b", "c"]
        assert (inputs / "index.txt").read_text() == "MODINDEX v0\na 1\nb 0\nc 1\n"


class TestBenchAndReport:
    def test_bench_csv_has_one_row_per_strategy(self, workdir, capsys):
        run_gen(workdir, modules=200, depth=4, seed=3, coverage=0.8)
        rc = main([
            "bench", "--catalog", str(workdir / "catalog.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--policy", "all-load", "--workers", "8", "--reps", "2",
            "--format", "csv",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        stage0_row = lines[1].split(",")
        assert stage0_row[0] == "stage0" and float(stage0_row[4]) == 1.0

    def test_bench_load_set_mismatch_is_a_coded_error(self, workdir, capsys, drifting_bench):
        run_gen(workdir)
        rc = main([
            "bench", "--catalog", str(workdir / "catalog.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--policy", "all-load", "--strategy", "stage0", "--reps", "2",
        ])
        assert rc == 1
        assert "error: load-set-mismatch: " in capsys.readouterr().err

    def test_report_roundtrip(self, workdir, capsys):
        run_gen(workdir)
        run_register(workdir)
        main([
            "load", "--catalog", str(workdir / "catalog.txt"),
            "--index", str(workdir / "index.txt"),
            "--inventory", str(workdir / "inventory.txt"),
            "--strategy", "stage0", "--trace", str(workdir / "trace.txt"),
        ])
        capsys.readouterr()
        rc = main([
            "report", "--trace", str(workdir / "trace.txt"),
            "--catalog", str(workdir / "catalog.txt"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loads:" in out and "saved_kb:" in out

    def test_report_on_empty_trace_saves_everything_non_base(self, workdir, capsys):
        run_gen(workdir, modules=5)
        (workdir / "trace.txt").write_text("")
        rc = main([
            "report", "--trace", str(workdir / "trace.txt"),
            "--catalog", str(workdir / "catalog.txt"), "--format", "csv",
        ])
        assert rc == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        data = dict(zip(header.split(","), row.split(",")))
        assert data["loads"] == "0"
        assert data["saved_kb"] == data["total_kb"]  # gen makes no @base modules

    @pytest.mark.parametrize("fmt, expected", [
        ("text", (
            "loads:        2\n"
            "skips_hw:     1\n"
            "skips_flag:   1\n"
            "dup_attempts: 1\n"
            "first_load_us: 100\n"
            "last_load_us:  300\n"
            "wall_us:       200\n"
            "total_kb:     92\n"
            "loaded_kb:    30\n"
            "saved_kb:     12\n"
            "base_only_kb: 50\n"
        )),
        ("csv", (
            "loads,skips_hw,skips_flag,dup_attempts,first_load_us,last_load_us,wall_us,"
            "total_kb,loaded_kb,saved_kb,base_only_kb\n"
            "2,1,1,1,100,300,200,92,30,12,50\n"
        )),
    ])
    def test_report_bytes(self, workdir, capsys, fmt, expected):
        (workdir / "catalog.txt").write_text(
            "MODCAT v1\ncore|50||@base\na|10|core|\nb|20|a|\nc|5||\nd|7|core|gpu\n"
        )
        (workdir / "trace.txt").write_text(
            "100 0 LOAD a\n250 1 DUP_ATTEMPT a\n300 0 LOAD b\n310 0 SKIP_FLAG c\n"
            "320 0 SKIP_HW d\n"
        )
        rc = main([
            "report", "--trace", str(workdir / "trace.txt"),
            "--catalog", str(workdir / "catalog.txt"), "--format", fmt,
        ])
        assert rc == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("trace", list(IMPOSSIBLE_TRACES))
    def test_report_rejects_an_impossible_trace(self, workdir, capsys, trace):
        (workdir / "catalog.txt").write_text(IMPOSSIBLE_TRACE_CATALOG)
        (workdir / "trace.txt").write_text(trace)
        rc = main([
            "report", "--trace", str(workdir / "trace.txt"),
            "--catalog", str(workdir / "catalog.txt"),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed-trace: ")
        assert captured.err == f"error: malformed-trace: {IMPOSSIBLE_TRACES[trace]}\n"
        assert captured.out == ""


@pytest.mark.parametrize("trace", ["-50 -1 LOAD a\n+7 0 LOAD b\n", "1_0 0 LOAD a\n"])
def test_report_accepts_only_unsigned_ascii_numbers(workdir, capsys, trace):
    (workdir / "catalog.txt").write_text("MODCAT v1\na|1||\nb|2||\n")
    (workdir / "trace.txt").write_text(trace)
    rc = main([
        "report", "--trace", str(workdir / "trace.txt"),
        "--catalog", str(workdir / "catalog.txt"),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: malformed-trace: line 1: timestamp and worker must be unsigned ASCII integers\n"
    )
    assert captured.out == ""


def test_commands_build_no_module_record(tmp_path, record_count):
    catalog_text, inventory_text = generate_fixture(5000, 16, 1, 1.0)
    cat, inv = tmp_path / "catalog.txt", tmp_path / "inventory.txt"
    cat.write_text(catalog_text)
    inv.write_text(inventory_text)
    commands = [
        ["register", "--catalog", str(cat), "--version", version, "--inventory", str(inv),
         "--index", str(tmp_path / f"index_{version}.txt"), "--policy", "all-load"]
        for version in ("v0", "v1")
    ]
    for strategy, workers in (("stage0", 1), ("stage1", 1), ("stage2", 2), ("stage3", 3)):
        index = tmp_path / ("index_v1.txt" if strategy == "stage1" else "index_v0.txt")
        trace = tmp_path / f"trace_{strategy}.txt"
        commands.append([
            "load", "--catalog", str(cat), "--index", str(index), "--inventory", str(inv),
            "--strategy", strategy, "--workers", str(workers), "--trace", str(trace),
        ])
        commands.append(["report", "--trace", str(trace), "--catalog", str(cat)])
    commands.append([
        "bench", "--catalog", str(cat), "--inventory", str(inv), "--policy", "all-load",
        "--reps", "1",
    ])
    for argv in commands:
        assert main(argv) == 0, argv
        assert record_count.n == 0, argv[:1] + argv[-6:]


@pytest.mark.parametrize("kind", ["catalog", "inventory", "index", "trace", "policy"])
def test_non_utf8_input_is_one_io_error_line(workdir, capsys, kind):
    run_gen(workdir)
    assert run_register(workdir, "v0") == 0
    cat, inv, index, trace = (
        str(workdir / name) for name in ("catalog.txt", "inventory.txt", "index.txt", "trace.txt")
    )
    assert main([
        "load", "--catalog", cat, "--index", index, "--inventory", inv,
        "--strategy", "stage0", "--trace", trace,
    ]) == 0
    good = {"catalog": cat, "inventory": inv, "index": index, "trace": trace}
    bad = workdir / "bad.txt"
    if kind == "policy":
        bad.write_bytes(b"# picks\n\xff\n")
    else:
        bad.write_bytes(Path(good[kind]).read_bytes() + b"\xff\n")
    paths = dict(good, **{kind: str(bad)})
    argv = {
        "catalog": ["register", "--catalog", paths["catalog"], "--version", "v0",
                    "--index", str(workdir / "out.txt"), "--policy", "all-load"],
        "inventory": ["register", "--catalog", cat, "--version", "v1",
                      "--inventory", paths["inventory"], "--index", str(workdir / "out.txt"),
                      "--policy", "all-load"],
        "index": ["load", "--catalog", cat, "--index", paths["index"], "--inventory", inv,
                  "--strategy", "stage0"],
        "trace": ["report", "--trace", paths["trace"], "--catalog", cat],
        "policy": ["register", "--catalog", cat, "--version", "v0",
                   "--index", str(workdir / "out.txt"), "--policy", f"file:{bad}"],
    }[kind]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: io: {bad}: 'utf-8' codec can't decode byte 0xff")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_non_utf8_catalog_prints_no_traceback(tmp_path):
    catalog = tmp_path / "c.txt"
    catalog.write_bytes(b"MODCAT v1\na|1||\xff\n")
    proc = subprocess.run(
        [sys.executable, "-m", "kmodsim", "register", "--catalog", str(catalog),
         "--version", "v0", "--index", str(tmp_path / "i.txt"), "--policy", "all-load"],
        capture_output=True, text=True, timeout=30, env=src_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: io: {catalog}: ") and "Traceback" not in proc.stderr


def test_the_pipeline_names_the_encoding_of_every_file_it_writes(tmp_path):
    # With a warning on every text file opened at the locale's default
    # encoding, raised as an error, each command still ends cleanly.
    catalog, inventory = str(tmp_path / "c.txt"), str(tmp_path / "i.txt")
    index, trace = str(tmp_path / "x.txt"), str(tmp_path / "t.txt")
    for argv in (
        ["gen", "--modules", "20", "--catalog", catalog, "--inventory", inventory],
        ["register", "--catalog", catalog, "--version", "v0", "--index", index,
         "--policy", "all-load"],
        ["load", "--catalog", catalog, "--index", index, "--inventory", inventory,
         "--strategy", "stage0", "--trace", trace],
        ["report", "--trace", trace, "--catalog", catalog],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "kmodsim", *argv],
            capture_output=True, encoding="utf-8", timeout=30, env=src_env(),
        )
        assert proc.returncode == 0, (argv[0], proc.stderr)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kmodsim", "--help"],
        capture_output=True, text=True, timeout=30, env=src_env(),
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout


def test_unknown_flag_is_an_error():
    with pytest.raises(SystemExit) as err:
        main(["gen", "--modules", "1", "--catalog", "c", "--inventory", "i", "--bogus"])
    assert err.value.code != 0


# Parser inputs whose help, errors and parsed namespace must not depend on
# whether main builds one command's parser or all of them.
SURFACE_CASES = [
    [],
    ["-h"],
    ["--help"],
    *([command, "-h"] for command in ("gen", "register", "load", "bench", "report")),
    ["bogus"],
    ["re"],
    ["-x"],
    ["--", "report", "--trace", "t", "--catalog", "c"],
    ["gen", "--catalog", "c", "--inventory", "i"],
    ["report", "--trace", "t", "--catalog", "c", "extra"],
    ["register", "--catalog", "c", "--version", "v2", "--index", "x"],
    ["gen", "--modules", "ten", "--catalog", "c", "--inventory", "i"],
    ["bench", "--catalog", "c", "--inventory", "i", "--policy", "all-load", "--interactive"],
    ["report", "--tra", "t", "--catalog", "c"],
    ["gen", "--modules", "3", "--max-depth", "2", "--catalog", "c", "--inventory", "i"],
    ["register", "--catalog", "c", "--version", "v1", "--index", "x", "--inventory", "i",
     "--policy", "file:s"],
    ["load", "--catalog", "c", "--index", "x", "--strategy", "stage3", "--workers", "3",
     "--load-base-us", "5"],
    ["bench", "--catalog", "c", "--inventory", "i", "--interactive", "--format", "csv"],
]


@pytest.mark.parametrize("argv", SURFACE_CASES, ids=" ".join)
def test_one_command_parser_matches_the_full_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")

    def parse(parser):
        try:
            return None, vars(parser.parse_args(argv)), *capsys.readouterr()
        except SystemExit as exc:
            return exc.code, None, *capsys.readouterr()

    assert parse(_build_parser(argv[0] if argv else None)) == parse(_build_parser())


def test_a_command_builds_only_its_own_subparser():
    (subparsers,) = _build_parser("report")._subparsers._group_actions
    assert list(subparsers.choices) == ["report"]
    (subparsers,) = _build_parser()._subparsers._group_actions
    assert list(subparsers.choices) == ["gen", "register", "load", "bench", "report"]


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: subcommand"),
    (["bogus"], "argument subcommand: invalid choice: 'bogus' "
                "(choose from 'gen', 'register', 'load', 'bench', 'report')"),
])
def test_top_level_errors_name_the_subcommand_argument(argv, error, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert capsys.readouterr().err == (
        f"usage: kmodsim [-h] {{gen,register,load,bench,report}} ...\nkmodsim: error: {error}\n"
    )
