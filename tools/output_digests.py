"""SHA-256 digests of every deterministic output of one pipeline pass.

For each workload and seed, this builds the benchmark's inputs as
``benchmarks/run.py``'s ``Bench.setup`` does, runs one ``Bench.pipeline_pass``
(the ten ``kmodsim`` commands) and prints one line per output:

    <workload> seed=<n> <output> <sha256>

The outputs are the catalog and inventory as ``Bench.setup`` leaves them
(``gen``'s files after the workload's rewrite), both index files, the stage0
and stage1 traces, each strategy's loaded set and each strategy's ``report``.
The catalog is also rewritten four ways: in name order; with its record
lines reversed, so that every dependent comes before its dependencies and the
parser's depth-first walk goes as deep as the catalog does; with every
dependency run naming its first dependency once more at its end; and in name
order with that repeat. For each, the levels parsed from the rewritten file,
the v1 index ``register`` writes from it and ``serialize_catalog`` of it are
digested too.
Fields that depend on the clock or on thread scheduling are left out before
hashing: trace timestamps and the report's ``*_us`` lines when the workload
sleeps per attach, and the ``dup_attempts`` line of the stage2 and stage3
reports. stage2 and stage3 traces are not hashed, since their event order
follows the schedule; their loaded sets are.

The command line's own text is digested once, after the workloads, as
``cli <case> <sha256>`` lines: the top-level ``--help``, each command's
``--help``, and the usage errors of an unknown command and of an extra
argument. Each case is ``kmodsim.cli.main`` of the checkout run with
``COLUMNS=80``, and its digest covers the exit status, stdout and stderr.

Both the benchmark code and ``kmodsim`` are imported from the checkout given
by ``--root`` (this checkout by default), and nothing there is edited, so two
checkouts compare with one command:

    diff <(python3 tools/output_digests.py --root ../parent) \\
         <(python3 tools/output_digests.py)

The exit status is 1 when any command or benchmark check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from scale_probe import repeat_first_dependency, reverse_records  # tools/scale_probe.py

DEFAULT_ROOT = Path(__file__).resolve().parents[1]
# Reports of the strategies whose workers race for claims.
RACING = ("stage2", "stage3")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def clock_free_trace(text: str) -> str:
    """A trace with each event's timestamp field dropped."""
    return "".join(line.split(" ", 1)[1] + "\n" for line in text.splitlines() if line)


def stable_report(text: str, strategy: str, timed: bool) -> str:
    """A report without the lines that follow the clock or the schedule."""
    keep = []
    for line in text.splitlines():
        key = line.split(":", 1)[0]
        if timed and key.endswith("_us"):
            continue
        if strategy in RACING and key == "dup_attempts":
            continue
        keep.append(line + "\n")
    return "".join(keep)


def outputs(run, kmodsim, workload, seed: int) -> tuple[dict[str, str], int]:
    """Each deterministic output's text after one pass, and the failure count."""
    with tempfile.TemporaryDirectory(prefix="kmodsim-digests-") as work:
        bench = run.Bench(kmodsim, workload, seed, Path(work))
        bench.setup()
        texts = {"catalog": bench.catalog.read_text(), "inventory": bench.inventory.read_text()}
        bench.load_oracle()
        result = bench.pipeline_pass()
        timed = bool(workload.load_base_us or workload.load_per_kb_us)
        texts.update({f"index.{v}": bench.index[v].read_text() for v in ("v0", "v1")})
        texts.update(rewritten_outputs(kmodsim, bench, Path(work)))
        for s in ("stage0", "stage1"):
            trace = bench.trace[s].read_text()
            texts[f"trace.{s}"] = clock_free_trace(trace) if timed else trace
    for s in run.STRATEGIES:
        texts[f"loaded.{s}"] = "".join(f"{name}\n" for name in sorted(result["traces"][s].loaded))
        texts[f"report.{s}"] = stable_report(result["reports"][s], s, timed)
    return texts, bench.failed


def rewritten_outputs(kmodsim, bench, work: Path) -> dict[str, str]:
    """The levels, v1 index and serialization of the bench's catalog rewritten.

    A generated file lists every module after its dependencies; in name order
    a dependent usually comes first, so the name-order outputs come from the
    parser's other path to the levels, on the benchmark's own catalogs; the
    reversed file lists every dependent first. The repeat rewrites make every
    dependency run name a dependency twice, in file and in name order.
    """
    parse, serialize = kmodsim.catalog.parse_catalog, kmodsim.catalog.serialize_catalog
    file_order = bench.catalog.read_text()
    name_order = serialize(parse(file_order))
    texts = {}
    for label, text in (
        ("name-order", name_order),
        ("reversed", reverse_records(file_order)),
        ("repeat", repeat_first_dependency(file_order)),
        ("repeat.name-order", repeat_first_dependency(name_order)),
    ):
        catalog = work / f"catalog.{label}.txt"
        catalog.write_text(text)
        parsed = parse(text)
        index = work / f"index.v1.{label}.txt"
        bench.command([
            "register", "--catalog", str(catalog), "--version", "v1",
            "--inventory", str(bench.inventory), "--index", str(index), *bench.policy(),
        ])
        texts[f"levels.{label}"] = "".join(
            f"{n} {v}\n" for n, v in zip(parsed.names, parsed.levels)
        )
        texts[f"index.v1.{label}"] = index.read_text()
        texts[f"serialized.{label}"] = serialize(parsed)
    return texts


CLI_CASES = {
    "help": ["--help"],
    **{f"help.{c}": [c, "--help"] for c in ("gen", "register", "load", "bench", "report")},
    "error.unknown-command": ["bogus"],
    "error.extra-argument": ["report", "--trace", "t", "--catalog", "c", "extra"],
}


def cli_texts(cli) -> dict[str, str]:
    """Each CLI case's exit status, stdout and stderr, at a fixed terminal width."""
    texts = {}
    for case, argv in CLI_CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, COLUMNS="80"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
        texts[case] = f"exit {status}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    return texts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="checkout whose benchmarks/ and src/ are run")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="workload name, repeatable (default: every workload)")
    parser.add_argument("--seed", action="append", dest="seeds", type=int,
                        help="workload seed, repeatable (default: 1, 2, 3)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path.insert(0, str(root / "benchmarks"))
    import run  # the checkout's benchmarks/run.py

    unknown = sorted(set(args.workloads or ()) - set(run.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    kmodsim = run.load_program(root)
    failed = 0
    for name in args.workloads or run.WORKLOADS:
        for seed in args.seeds or (1, 2, 3):
            texts, failures = outputs(run, kmodsim, run.WORKLOADS[name], seed)
            failed += failures
            for output, text in texts.items():
                print(f"{name} seed={seed} {output} {digest(text)}")
    for case, text in cli_texts(kmodsim.cli).items():
        print(f"cli {case} {digest(text)}")
    if failed:
        print(f"error: {failed} command(s) or check(s) failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
