"""Fold benchmark records into one committed ``BENCH_<n>.json`` summary.

Each record is a file that ``benchmarks/run.py`` writes to ``.bench_out/``.
Records are grouped by the sources they measured (commit plus source
digest), then by workload, and every metric is summarized as the median and
quartiles of its runs. Untraced runs (``--trace 0``) give the end-to-end
metrics, traced runs (``--trace 1``) the per-layer ones. All records must
come from one host shape (CPU count and Python version), and runs of one
workload must share their run length.

    python3 tools/bench_fold.py --out BENCH_9.json .bench_out/*.json other/.bench_out/*.json

``--compare`` sets the untraced records of two builds side by side instead,
one directory of records per build: for each workload and each end-to-end
metric that ``BENCHMARK.json`` declares, it prints both medians, the change
in percent, the parent's interquartile range and how many runs of equal seed
the change won.

    python3 tools/bench_fold.py --compare parent/.bench_out .bench_out
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def summarize(values: list[float]) -> dict:
    """Median and inclusive quartiles; one value is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def host(records: list[dict]) -> tuple[int, str]:
    """The (CPU count, Python version) that every record shares."""
    hosts = {(r["env"]["nproc"], r["env"]["python"]) for r in records}
    if len(hosts) != 1:
        raise ValueError(f"records come from different hosts (nproc, python): {sorted(hosts)}")
    return hosts.pop()


def fold(records: list[dict]) -> dict:
    nproc, python = host(records)

    builds: dict[tuple, dict] = {}
    for record in records:
        env, result = record["env"], record["result"]
        build = builds.setdefault(
            (env["commit"], env["source_sha256"]),
            {"commit": env["commit"], "source_sha256": env["source_sha256"], "workloads": {}},
        )
        kind = "per_layer" if env["trace"] else "end_to_end"
        runs = build["workloads"].setdefault(env["workload"]["name"], {}).setdefault(kind, [])
        runs.append((env, result))

    out = {"host": {"nproc": nproc, "python": python}, "builds": []}
    for build in builds.values():
        for name, kinds in build["workloads"].items():
            for kind, runs in kinds.items():
                kinds[kind] = fold_runs(name, runs)
        out["builds"].append(build)
    return out


def run_length(workload: str, envs: list[dict]) -> float:
    seconds = {env["seconds"] for env in envs}
    if len(seconds) != 1:
        raise ValueError(f"{workload}: runs of different lengths {sorted(seconds)}")
    return seconds.pop()


def fold_runs(workload: str, runs: list[tuple[dict, dict]]) -> dict:
    seconds = run_length(workload, [env for env, _ in runs])
    metrics: dict[str, dict] = {}
    for _, result in runs:
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, {"unit": metric["unit"], "values": []})
            metrics[name]["values"].append(metric["value"])
    return {
        "runs": len(runs),
        "seconds": seconds,
        "seeds": sorted(env["seed"] for env, _ in runs),
        "attempted": sum(result["attempted"] for _, result in runs),
        "failed": sum(result["failed"] for _, result in runs),
        "metrics": {
            name: {"unit": m["unit"], **summarize(m["values"])} for name, m in metrics.items()
        },
    }


def compare(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per workload run on both sides and per metric of ``better``
    (name -> "lower" or "higher") that its runs report; untraced runs only."""
    host(parent + change)
    for side, records in (("parent", parent), ("change", change)):
        builds = {(r["env"]["commit"], r["env"]["source_sha256"]) for r in records}
        if len(builds) > 1:
            raise ValueError(f"the {side}'s records come from {len(builds)} different builds")
    parent_runs, change_runs = _untraced_by_seed(parent), _untraced_by_seed(change)
    rows = []
    for workload in sorted(parent_runs.keys() & change_runs.keys()):
        before, after = parent_runs[workload], change_runs[workload]
        runs = [*before.values(), *after.values()]
        run_length(workload, [env for env, _ in runs])
        for name, direction in better.items():
            if any(name not in result["metrics"] for _, result in runs):
                continue
            old, new = (
                {seed: result["metrics"][name]["value"] for seed, (_, result) in side.items()}
                for side in (before, after)
            )
            sign = 1 if direction == "higher" else -1
            seeds = old.keys() & new.keys()
            old_summary, new_summary = summarize(list(old.values())), summarize(list(new.values()))
            base = old_summary["median"]
            rows.append({
                "workload": workload,
                "metric": name,
                "parent": old_summary,
                "change": new_summary,
                "change_pct": 100 * (new_summary["median"] - base) / base if base else None,
                "won": sum(1 for seed in seeds if sign * (new[seed] - old[seed]) > 0),
                "pairs": len(seeds),
            })
    return rows


def _untraced_by_seed(records: list[dict]) -> dict[str, dict[int, tuple[dict, dict]]]:
    """(env, result) of every untraced run, by workload, then by seed."""
    runs: dict[str, dict[int, tuple[dict, dict]]] = {}
    for record in records:
        env = record["env"]
        if env["trace"]:
            continue
        workload = env["workload"]["name"]
        seeds = runs.setdefault(workload, {})
        if env["seed"] in seeds:
            raise ValueError(f"{workload}: two runs of seed {env['seed']} on one side")
        seeds[env["seed"]] = (env, record["result"])
    return runs


def format_comparison(rows: list[dict]) -> str:
    lines = [f"{'workload':<12} {'metric':<14} {'parent':>10} {'change':>10} "
             f"{'change %':>9} {'parent IQR':>10} {'won':>7}"]
    for row in rows:
        old, new, pct = row["parent"], row["change"], row["change_pct"]
        lines.append(
            f"{row['workload']:<12} {row['metric']:<14} {old['median']:>10.5g} "
            f"{new['median']:>10.5g} {'-' if pct is None else f'{pct:+.1f}':>9} "
            f"{old['q3'] - old['q1']:>10.3g} {row['won']:>3}/{row['pairs']:<3}"
        )
    return "\n".join(lines) + "\n"


def _read_records(paths: list[Path]) -> list[dict]:
    return [json.loads(path.read_text(encoding="utf-8")) for path in paths]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="summary file to write")
    mode.add_argument(
        "--compare", nargs=2, metavar=("PARENT", "CHANGE"),
        help="directories of the parent's and the change's records; print a paired comparison",
    )
    parser.add_argument("records", nargs="*", help="benchmark record files (.json), with --out")
    args = parser.parse_args(argv)
    if bool(args.records) != bool(args.out):
        parser.error("record files go with --out, and --out needs at least one")
    try:
        if args.compare:
            parent, change = (_read_records(sorted(Path(d).glob("*.json"))) for d in args.compare)
            better = {m["name"]: m["better"]
                      for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}
            text = format_comparison(compare(parent, change, better))
        else:
            text = json.dumps(fold(_read_records([Path(p) for p in args.records])), indent=1) + "\n"
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.compare:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
