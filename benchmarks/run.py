"""Benchmark of kmodsim's gen -> register -> load -> report pipeline.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload gated-1k --seed 1 --seconds 35 --trace 0

The program is driven in-process through ``kmodsim.cli.main([...])``, from
the ``src/`` tree of the checkout this file sits in. One run generates its
inputs from ``--seed`` (several times, see ``SETUP_REPEATS``), then repeats
full pipeline passes until ``--seconds`` have gone by, always finishing the
pass in progress. Every command and every correctness check is one operation;
failures are counted, never raised.

With ``--trace 0`` the last stdout line reports the end-to-end metrics. With
``--trace 1`` the run alternates untraced and traced passes, times a few
layer calls directly, and reports the per-layer metrics; its spans are
written once, at the end, to ``.bench_out/``. Workload reasons and which
layer metric should move which end-to-end metric are in README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import oracles
from spans import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent

STRATEGIES = ("stage0", "stage1", "stage2", "stage3")
# stage2 runs two scanning workers, stage3 two loading workers plus one
# partitioning worker: two worker threads each, one per CPU of a 2-CPU host.
WORKERS = {"stage0": 1, "stage1": 1, "stage2": 2, "stage3": 3}
# Set-up runs at least this often and for at least this long, so that the
# millisecond set-up of a small workload is still a median of many samples.
SETUP_REPEATS = 2
SETUP_SECONDS = 0.5
# A shared host runs Python at speeds up to about 1.7x apart, switching
# between them within a second, and kmodsim and any other interpreter-bound
# code speed up and slow down together. So the untraced run times a fixed
# loop (``reference_loop``) before and after every set-up and command, and
# each end-to-end time is the sample's wall time with its CPU seconds
# rescaled by REFERENCE_S over the mean of the two loop times around it
# (``rescale``); the rest of the wall time (attach sleeps, waiting) is kept as
# measured. REFERENCE_S is about the loop's CPU time on the 2-vCPU host,
# Python 3.11, that the bounds in BENCHMARK.json were set on.
REFERENCE_S = 0.01
# Two threads taking turns at the GIL do not speed up and slow down with the
# host the way one thread does (in the host's fast phase one thread gains
# about 1.6x, two only about 1.15x), so the boots that run two busy worker
# threads are gauged by the loop run in two threads at once.
GAUGE_THREADS = {"stage0": 1, "stage1": 1, "stage2": 2, "stage3": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    modules: int
    max_depth: int
    hw_coverage: float
    load_base_us: float = 0.0
    load_per_kb_us: float = 0.0
    strip_tags: bool = False
    base_frac: float = 0.0
    select_frac: float = 1.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gated-1k", modules=1000, max_depth=8, hw_coverage=0.8),
        Workload(
            "ungated-5k", modules=5000, max_depth=16, hw_coverage=1.0,
            strip_tags=True, base_frac=0.01, select_frac=0.5,
        ),
        Workload(
            "attach-600", modules=600, max_depth=8, hw_coverage=0.8,
            load_base_us=500.0, load_per_kb_us=20.0,
        ),
    )
}

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    **{f"boot_s.{s}": "s" for s in STRATEGIES},
    "register_s.v1": "s",
    "cycle_s.v0": "s",
    "cycle_s.v1": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "fixtures.generate_fixture_s": "s",
    "catalog.parse_catalog_s": "s",
    "catalog.modules": "count",
    "catalog.base_modules": "count",
    "hardware.parse_inventory_s": "s",
    "hardware.devices": "count",
    "hardware.gate_s": "s",
    "hardware.gate_us_per_call": "us",
    "registry.register_v0_s": "s",
    "registry.register_v1_s": "s",
    "registry.write_index_s": "s",
    "registry.read_index_s": "s",
    "registry.v1_nonzero": "count",
    "loader.load_state_s": "s",
    **{f"loader.run_strategy_s.{s}": "s" for s in STRATEGIES},
    **{f"loader.trace_wall_s.{s}": "s" for s in STRATEGIES},
    "loader.attach_nominal_s": "s",
    **{f"loader.loads.{s}": "count" for s in STRATEGIES},
    **{f"loader.events.{s}": "count" for s in STRATEGIES},
    "loader.dup_attempts.stage3": "count",
    "loader.claim_yield.stage3": "ratio",
    "loader.format_trace_s": "s",
    "loader.parse_trace_s": "s",
    "metrics.timing_from_trace_s": "s",
    "metrics.space_report_s": "s",
    "metrics.loaded_kb": "kB",
    "metrics.saved_kb": "kB",
    "metrics.base_only_kb": "kB",
    **{f"cli.{c}.self_s": "s" for c in ("gen", "register", "load", "report")},
    "trace_overhead_s": "s",
}

# Spans timed as one call each and reported as ``<span>_s`` medians.
_CALL_SPANS = (
    "catalog.parse_catalog",
    "hardware.parse_inventory",
    "registry.register_v0",
    "registry.register_v1",
    "registry.write_index",
    "registry.read_index",
    "loader.format_trace",
    "loader.parse_trace",
    "metrics.timing_from_trace",
    "metrics.space_report",
)


def load_program(root: Path):
    """Import ``kmodsim`` from the checkout's ``src/`` and nowhere else."""
    package = root / "src" / "kmodsim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no kmodsim sources at {package}; run from a checkout")
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    import kmodsim
    import kmodsim.cli

    if Path(kmodsim.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported kmodsim from {kmodsim.__file__}, not {package}")
    return kmodsim


class Bench:
    """One workload's inputs, pipeline passes and operation counts."""

    def __init__(self, kmodsim, workload: Workload, seed: int, work: Path):
        self.kmodsim = kmodsim
        self.cli = kmodsim.cli
        self.w = workload
        self.seed = seed
        self.tracer: Tracer | None = None  # set only while a pass is traced
        self.attempted = 0
        self.failed = 0
        self.catalog = work / "catalog.txt"
        self.inventory = work / "inventory.txt"
        self.selection = work / "selection.txt"
        self.index = {v: work / f"index_{v}.txt" for v in ("v0", "v1")}
        self.trace = {s: work / f"trace_{s}.txt" for s in STRATEGIES}

    # -- operations ----------------------------------------------------

    def command(self, argv: list[str]) -> tuple[float, float, str]:
        """Run one CLI command in-process; return its wall and CPU time and stdout."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            rc = exc.code
        except Exception as exc:  # the run goes on; the failure is counted
            rc = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        self._count(rc == 0, f"kmodsim {' '.join(argv[:3])}: {rc!r} {err.getvalue().strip()}")
        return wall, cpu, out.getvalue()

    @contextlib.contextmanager
    def traced(self, tracer: Tracer):
        """Record spans for every command and library call made inside."""
        self.tracer = tracer
        try:
            with instrument(tracer, self.cli):
                yield
        finally:
            self.tracer = None

    def check(self, label: str, fn) -> None:
        try:
            problems = fn()
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        self._count(not problems, f"check {label}: {'; '.join(problems[:3])}")

    def _count(self, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {detail}", file=sys.stderr)

    # -- inputs ----------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """Generate the inputs, rewrite them for the workload; return wall and CPU seconds."""
        start, cpu_start = time.perf_counter(), time.process_time()
        self.command([
            "gen", "--modules", str(self.w.modules), "--max-depth", str(self.w.max_depth),
            "--seed", str(self.seed), "--hw-coverage", str(self.w.hw_coverage),
            "--catalog", str(self.catalog), "--inventory", str(self.inventory),
        ])
        rng = random.Random(f"{self.w.name}:{self.seed}")
        if self.w.strip_tags or self.w.base_frac:
            text, names = rewrite_catalog(self.catalog.read_text(), self.w, rng)
            self.catalog.write_text(text)
            if self.w.select_frac < 1.0:
                chosen = rng.sample(names, round(len(names) * self.w.select_frac))
                self.selection.write_text("\n".join(sorted(chosen)) + "\n")
        return time.perf_counter() - start, time.process_time() - cpu_start

    def load_oracle(self) -> None:
        self.oracle = oracles.read_catalog(self.catalog.read_text())
        if self.w.select_frac < 1.0:
            self.selected = frozenset(self.selection.read_text().split())
        else:
            self.selected = frozenset(self.oracle.sizes)
        self.expected = oracles.expected_loaded(
            self.oracle, self.selected, oracles.device_words(self.inventory.read_text())
        )

    def policy(self) -> list[str]:
        if self.w.select_frac < 1.0:
            return ["--policy", f"file:{self.selection}"]
        return ["--policy", "all-load"]

    # -- one pipeline pass -----------------------------------------------

    def pipeline_pass(self, gauge: bool = False) -> dict:
        """Run the ten commands once and check their outputs.

        ``times`` and ``cpu`` hold each command's wall and CPU seconds, and
        ``pipeline`` their sums. With ``gauge``, ``reference_loop`` runs right
        before and after each command, in as many threads as GAUGE_THREADS
        gives it, ``refs`` holds the ``(threads, seconds)`` readings in order,
        and ``scaled`` the ``rescale``d times.
        """
        for path in (*self.index.values(), *self.trace.values()):
            path.unlink(missing_ok=True)
        gc.collect()  # every pass starts with the collector in the same state
        cat, inv = str(self.catalog), str(self.inventory)
        times, cpu, scaled, reports = {}, {}, {}, {}
        refs: list[tuple[int, float]] = []

        def run(key: str, argv: list[str], threads: int = 1) -> str:
            if gauge and (not refs or refs[-1][0] != threads):
                refs.append((threads, reference_loop(threads)))
            times[key], cpu[key], out = self.command(argv)
            if gauge:
                refs.append((threads, reference_loop(threads)))
                scaled[key] = rescale(times[key], cpu[key], refs[-2][1], refs[-1][1])
            return out

        run("register.v0", [
            "register", "--catalog", cat, "--version", "v0",
            "--index", str(self.index["v0"]), *self.policy(),
        ])
        run("register.v1", [
            "register", "--catalog", cat, "--version", "v1", "--inventory", inv,
            "--index", str(self.index["v1"]), *self.policy(),
        ])
        for s in STRATEGIES:
            run(f"load.{s}", [
                "load", "--catalog", cat, "--inventory", inv,
                "--index", str(self.index["v1" if s == "stage1" else "v0"]),
                "--strategy", s, "--workers", str(WORKERS[s]), "--trace", str(self.trace[s]),
                "--load-base-us", str(self.w.load_base_us),
                "--load-per-kb-us", str(self.w.load_per_kb_us),
            ], threads=GAUGE_THREADS[s])
        for s in STRATEGIES:
            reports[s] = run(f"report.{s}", [
                "report", "--trace", str(self.trace[s]), "--catalog", cat,
            ])
        for samples in (times, cpu, scaled):
            if samples:
                samples["pipeline"] = sum(samples.values())
        return {
            "times": times, "cpu": cpu, "scaled": scaled, "refs": refs,
            "reports": reports, "traces": self.verify(reports),
        }

    def verify(self, reports: dict[str, str]) -> dict[str, oracles.TraceSummary]:
        summaries: dict[str, oracles.TraceSummary] = {}
        for s in STRATEGIES:
            def trace_ok(s=s):
                text = self.trace[s].read_text()
                summaries[s] = oracles.summarize_trace(text)
                return oracles.check_trace(text, self.oracle)
            self.check(f"{s} trace", trace_ok)

        def same_sets():
            sets = {s: summaries[s].loaded for s in summaries}
            if len(sets) != len(STRATEGIES) or len(set(sets.values())) != 1:
                return [f"loaded set sizes differ: { {s: len(v) for s, v in sets.items()} }"]
            return []

        def expected_set():
            return [
                f"{s} loaded {len(t.loaded)} modules, expected {len(self.expected)}"
                for s, t in summaries.items()
                if t.loaded != self.expected
            ] or ([] if summaries else ["no trace to compare"])

        self.check("same loaded set", same_sets)
        self.check("expected loaded set", expected_set)
        self.check(
            "v1 depth order",
            lambda: oracles.check_v1_index(self.index["v1"].read_text(), self.oracle),
        )
        for s in STRATEGIES:
            self.check(
                f"{s} space", lambda s=s: oracles.check_space(oracles.read_report(reports[s]))
            )
        return {s: summaries.get(s, oracles.NO_TRACE) for s in STRATEGIES}


def rewrite_catalog(text: str, w: Workload, rng: random.Random) -> tuple[str, list[str]]:
    """Strip hardware tags and/or mark a seeded share of modules ``@base``."""
    lines = text.splitlines()
    rows = [
        i for i, line in enumerate(lines)
        if "|" in line and not line.startswith("#")
        and not line.split("|", 1)[0].endswith(".symbols")
    ]
    names = [lines[i].split("|", 1)[0] for i in rows]
    base = set(rng.sample(names, round(len(names) * w.base_frac)))
    for i in rows:
        name, size, deps, tags = lines[i].split("|")
        tags = "" if w.strip_tags else tags
        if name in base:
            tags = ",".join(t for t in (tags, oracles.BASE_TAG) if t)
        lines[i] = "|".join((name, size, deps, tags))
    return "\n".join(lines) + "\n", names


# -- measurement ----------------------------------------------------------


def reference_loop(threads: int = 1) -> float:
    """CPU seconds per thread of ``reference_work`` run in ``threads`` threads at once."""
    start = time.process_time()
    if threads == 1:
        reference_work()
    else:
        workers = [threading.Thread(target=reference_work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    return (time.process_time() - start) / threads


def reference_work() -> None:
    """A fixed pure-Python workload of string, dict and list work."""
    counts: dict[str, int] = {}
    for i in range(15_000):
        word = f"dev-{i % 997}"
        counts[word] = counts.get(word, 0) + 1
    text = " ".join(counts)
    found = [w for w in list(counts)[::7] if text.find(w + " ") >= 0]
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    lines = [f"{name}|{n}|{','.join(found[:3])}|" for name, n in ordered]
    for _ in range(10):
        [line.split("|") for line in lines]


def rescale(wall: float, cpu: float, ref_before: float, ref_after: float) -> float:
    """``wall`` with its ``cpu`` seconds moved to the speed REFERENCE_S stands for."""
    return wall - cpu + cpu * 2 * REFERENCE_S / (ref_before + ref_after)


def repeat_setup(bench: Bench, gauge: bool = False) -> list[float]:
    """Set up repeatedly; return each set-up's wall seconds, ``rescale``d with ``gauge``."""
    setups: list[float] = []
    walls = 0.0
    ref = reference_loop() if gauge else 0.0
    while len(setups) < SETUP_REPEATS or walls < SETUP_SECONDS:
        wall, cpu = bench.setup()
        walls += wall
        if gauge:
            before, ref = ref, reference_loop()
            wall = rescale(wall, cpu, before, ref)
        setups.append(wall)
    bench.load_oracle()
    return setups


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced run: set up, repeat passes for ``seconds``; end-to-end metrics."""
    setups = repeat_setup(bench, gauge=True)
    passes = []
    start = time.perf_counter()
    # Only the timings are kept: holding every pass's reports and loaded sets
    # would make peak_rss_mb grow with the number of passes.
    keys = ("times", "cpu", "scaled", "refs")
    while not passes or time.perf_counter() - start < seconds:
        p = bench.pipeline_pass(gauge=True)
        passes.append({k: p[k] for k in keys})

    def med(key):
        return statistics.median(p["scaled"][key] for p in passes)

    boot = {s: med(f"load.{s}") for s in STRATEGIES}
    metrics = {
        "setup_s": statistics.median(setups),
        "pipeline_s": med("pipeline"),
        **{f"boot_s.{s}": boot[s] for s in STRATEGIES},
        "register_s.v1": med("register.v1"),
        "cycle_s.v0": med("register.v0") + 4 * boot["stage0"],
        "cycle_s.v1": med("register.v1") + 4 * boot["stage1"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - bench.failed / bench.attempted,
    }
    return metrics, {"setup_s": setups, "passes": passes}


def measure_layers(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Traced run: alternate untraced and traced passes; per-layer metrics."""
    tracer = Tracer()
    with bench.traced(tracer):
        setups = repeat_setup(bench)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(bench.pipeline_pass())
        tracer.run_id = f"pass{len(traced)}"
        with bench.traced(tracer):
            traced.append(bench.pipeline_pass())
    runs = {f"pass{i}" for i in range(len(traced))}
    probes = probe_layers(bench, tracer)

    metrics = {f"{name}_s": tracer.median(name, runs) for name in _CALL_SPANS}
    metrics["fixtures.generate_fixture_s"] = tracer.median("fixtures.generate_fixture")
    for command in ("gen", "register", "load", "report"):
        metrics[f"cli.{command}.self_s"] = statistics.median(
            tracer.self_times(f"cli.{command}", runs | {"setup"})
        )
    last = traced[-1]["traces"]
    for s in STRATEGIES:
        metrics[f"loader.run_strategy_s.{s}"] = tracer.median(f"loader.run_strategy.{s}", runs)
        metrics[f"loader.trace_wall_s.{s}"] = statistics.median(
            p["traces"][s].wall_us / 1e6 for p in traced
        )
        metrics[f"loader.loads.{s}"] = last[s].loads
        metrics[f"loader.events.{s}"] = last[s].events
    loads, dups = last["stage3"].loads, last["stage3"].dup_attempts
    metrics["loader.dup_attempts.stage3"] = dups
    metrics["loader.claim_yield.stage3"] = loads / (loads + dups) if loads + dups else 1.0
    metrics["loader.attach_nominal_s"] = sum(
        bench.w.load_base_us + bench.oracle.sizes[m] * bench.w.load_per_kb_us
        for m in bench.expected
    ) / 1e6
    report = oracles.read_report(traced[-1]["reports"]["stage0"])
    for key in ("loaded_kb", "saved_kb", "base_only_kb"):
        metrics[f"metrics.{key}"] = report.get(key, 0)
    metrics["catalog.modules"] = len(bench.oracle.sizes)
    metrics["catalog.base_modules"] = len(bench.oracle.base)
    metrics.update(probes)
    # Each traced pass runs right after an untraced one; pairing them keeps
    # slow phases of a shared host out of the difference.
    metrics["trace_overhead_s"] = statistics.median(
        t["times"]["pipeline"] - u["times"]["pipeline"] for u, t in zip(untraced, traced)
    )
    samples = {
        "setup_s": setups,
        "untraced_passes": [p["times"] for p in untraced],
        "traced_passes": [p["times"] for p in traced],
        "spans": tracer.spans,
    }
    return {name: metrics[name] for name in PER_LAYER}, samples


def probe_layers(bench: Bench, tracer: Tracer) -> dict:
    """Time the layer calls no CLI command makes on its own."""
    k = bench.kmodsim
    tracer.run_id = "probe"
    catalog = k.parse_catalog(bench.catalog.read_text())
    inventory = k.parse_inventory(bench.inventory.read_text())
    for _ in range(3):
        with tracer.span("loader.LoadState"):
            k.LoadState(catalog)
    gated = [r for r in catalog.records if r.name in bench.selected and not r.base_kernel_only]
    with tracer.span("hardware.gate"):
        for rec in gated:
            k.check_hardware_support(rec, inventory)
    gate_s = tracer.median("hardware.gate")
    v1_values = oracles.read_index(bench.index["v1"].read_text()).values()
    return {
        "loader.load_state_s": tracer.median("loader.LoadState"),
        "hardware.gate_s": gate_s,
        "hardware.gate_us_per_call": gate_s / max(len(gated), 1) * 1e6,
        "hardware.devices": len(inventory),
        "registry.v1_nonzero": sum(v > 0 for v in v1_values),
    }


# -- environment and entry point ------------------------------------------


def environment(root: Path, w: Workload, seed: int, seconds: float, trace: int) -> dict:
    sources = sorted((root / "src" / "kmodsim").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(root),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": asdict(w),
        "workers": WORKERS,
        "setup_repeats": SETUP_REPEATS,
        "setup_seconds": SETUP_SECONDS,
        "reference_s": REFERENCE_S,
        "gauge_threads": GAUGE_THREADS,
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(root: Path, w: Workload, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, record written to .bench_out)."""
    kmodsim = load_program(root)
    env = environment(root, w, seed, seconds, trace)
    work = root / ".bench_work" / f"{w.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(kmodsim, w, seed, work)
        measured, samples = (measure_layers if trace else measure)(bench, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": measured[name], "unit": units[name]} for name in units},
    }
    return result, {"env": env, "result": result, "samples": samples}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    result, record = run(ROOT, w, args.seed, args.seconds, args.trace)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": record["env"], "record": str(path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
