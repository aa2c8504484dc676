"""Fold benchmark records into one committed ``BENCH_<n>.json`` summary.

Each record is a file that ``benchmarks/run.py`` writes to ``.bench_out/``.
Records are grouped by the sources they measured (commit plus source
digest), then by workload, and every metric is summarized as the median and
quartiles of its runs. Untraced runs (``--trace 0``) give the end-to-end
metrics, traced runs (``--trace 1``) the per-layer ones. All records must
come from one host shape (CPU count and Python version), and runs of one
workload must share their run length.

    python3 tools/bench_fold.py --out BENCH_9.json .bench_out/*.json other/.bench_out/*.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def summarize(values: list[float]) -> dict:
    """Median and inclusive quartiles; one value is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def fold(records: list[dict]) -> dict:
    hosts = {(r["env"]["nproc"], r["env"]["python"]) for r in records}
    if len(hosts) != 1:
        raise ValueError(f"records come from different hosts (nproc, python): {sorted(hosts)}")
    ((nproc, python),) = hosts

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


def fold_runs(workload: str, runs: list[tuple[dict, dict]]) -> dict:
    seconds = {env["seconds"] for env, _ in runs}
    if len(seconds) != 1:
        raise ValueError(f"{workload}: runs of different lengths {sorted(seconds)}")
    metrics: dict[str, dict] = {}
    for _, result in runs:
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, {"unit": metric["unit"], "values": []})
            metrics[name]["values"].append(metric["value"])
    return {
        "runs": len(runs),
        "seconds": seconds.pop(),
        "seeds": sorted(env["seed"] for env, _ in runs),
        "attempted": sum(result["attempted"] for _, result in runs),
        "failed": sum(result["failed"] for _, result in runs),
        "metrics": {
            name: {"unit": m["unit"], **summarize(m["values"])} for name, m in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="summary file to write")
    parser.add_argument("records", nargs="+", help="benchmark record files (.json)")
    args = parser.parse_args(argv)
    try:
        records = [json.loads(Path(path).read_text(encoding="utf-8")) for path in args.records]
        summary = fold(records)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
