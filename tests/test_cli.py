"""End-to-end runs of the command-line surface."""

from __future__ import annotations

import io
import subprocess
import sys

import pytest

from kmodsim.cli import main


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


class TestRegister:
    def test_v0_all_load_is_all_ones(self, workdir):
        run_gen(workdir)
        assert run_register(workdir, "v0", "all-load") == 0
        body = (workdir / "index.txt").read_text().splitlines()
        assert body[0] == "MODINDEX v0"
        assert all(line.endswith(" 1") for line in body[1:])

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

    @pytest.mark.parametrize(
        "trace",
        [
            "0 0 LOAD ghost\n0 0 LOAD ghost\n",  # not in the catalog
            "0 0 LOAD fs\n0 1 LOAD fs\n",  # loaded twice
            "0 0 LOAD core\n",  # resident @base module
            "0 0 LOAD app\n0 0 LOAD fs\n",  # before its dependency
        ],
    )
    def test_report_rejects_an_impossible_trace(self, workdir, capsys, trace):
        (workdir / "catalog.txt").write_text("MODCAT v1\nfs|4||\napp|1|fs,core|\ncore|2||@base\n")
        (workdir / "trace.txt").write_text(trace)
        rc = main([
            "report", "--trace", str(workdir / "trace.txt"),
            "--catalog", str(workdir / "catalog.txt"),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: malformed-trace: ")
        assert captured.out == ""


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kmodsim", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout


def test_unknown_flag_is_an_error():
    with pytest.raises(SystemExit) as err:
        main(["gen", "--modules", "1", "--catalog", "c", "--inventory", "i", "--bogus"])
    assert err.value.code != 0
