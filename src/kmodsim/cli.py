"""Command-line driver: fixture generation, registration, loading, benchmarks.

Every path is an explicit flag; nothing here ever looks at real module
directories or device databases. Domain errors exit nonzero after printing a
machine-parseable ``error: <code>: <detail>`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import parse_catalog
from .errors import ConfigError, KmodsimError, MalformedTrace
from .fixtures import generate_fixture
from .hardware import HardwareInventory, parse_inventory
from .loader import (
    LOAD,
    STRATEGIES,
    StrategyConfig,
    format_trace,
    parse_trace,
    run_strategy,
)
from .metrics import (
    bench,
    render_bench_csv,
    render_bench_text,
    render_session_csv,
    render_session_text,
    space_report,
    timing_from_trace,
)
from .registry import SelectionPolicy, read_index, register_v0, register_v1, write_index


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KmodsimError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmodsim",
        description="Simulate staged, parallel attachment of loadable kernel modules.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate a deterministic catalog + inventory pair")
    gen.add_argument("--modules", type=int, required=True)
    gen.add_argument("--max-depth", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--hw-coverage", type=float, default=1.0)
    gen.add_argument("--catalog", required=True, help="output catalog path")
    gen.add_argument("--inventory", required=True, help="output inventory path")
    gen.set_defaults(func=_cmd_gen)

    reg = sub.add_parser("register", help="build an index file from a selection policy")
    reg.add_argument("--catalog", required=True)
    reg.add_argument("--version", choices=("v0", "v1"), required=True)
    reg.add_argument("--index", required=True, help="output index path")
    reg.add_argument("--inventory", help="required for --version v1")
    _add_policy_flags(reg)
    reg.set_defaults(func=_cmd_register)

    load = sub.add_parser("load", help="run one load strategy and write its trace")
    load.add_argument("--catalog", required=True)
    load.add_argument("--index", required=True)
    load.add_argument("--inventory", help="required for stage0/stage2/stage3")
    load.add_argument("--strategy", choices=STRATEGIES, required=True)
    load.add_argument("--workers", type=int, default=1)
    load.add_argument("--trace", help="trace output path")
    load.add_argument("--load-base-us", type=float, default=0.0)
    load.add_argument("--load-per-kb-us", type=float, default=0.0)
    load.set_defaults(func=_cmd_load)

    ben = sub.add_parser("bench", help="compare strategies on identical inputs")
    ben.add_argument("--catalog", required=True)
    ben.add_argument("--inventory", required=True)
    ben.add_argument("--strategy", default=",".join(STRATEGIES),
                     help="comma-separated strategy list")
    ben.add_argument("--workers", type=int, default=4)
    ben.add_argument("--reps", type=int, default=5)
    ben.add_argument("--format", choices=("text", "csv"), default="text")
    ben.add_argument("--load-base-us", type=float, default=0.0)
    ben.add_argument("--load-per-kb-us", type=float, default=0.0)
    _add_policy_flags(ben)
    ben.set_defaults(func=_cmd_bench)

    rep = sub.add_parser("report", help="summarize a trace against its catalog")
    rep.add_argument("--trace", required=True)
    rep.add_argument("--catalog", required=True)
    rep.add_argument("--format", choices=("text", "csv"), default="text")
    rep.set_defaults(func=_cmd_report)

    return parser


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--policy", help="all-load | all-skip | file:<path>")
    group.add_argument("--interactive", action="store_true",
                       help="ask y/n per module, in catalog order")
    group.add_argument("--assume-yes", action="store_true", help="alias for all-load")


def _cmd_gen(args) -> int:
    catalog_text, inventory_text = generate_fixture(
        args.modules, args.max_depth, args.seed, args.hw_coverage
    )
    Path(args.catalog).write_text(catalog_text)
    Path(args.inventory).write_text(inventory_text)
    return 0


def _cmd_register(args) -> int:
    catalog = parse_catalog(Path(args.catalog).read_text())
    policy = _resolve_policy_flags(args)
    if args.version == "v1":
        if not args.inventory:
            raise ConfigError("--version v1 requires --inventory")
        inventory = parse_inventory(Path(args.inventory).read_text())
        index = register_v1(catalog, policy, inventory)
    else:
        index = register_v0(catalog, policy)
    Path(args.index).write_text(write_index(index))
    return 0


def _cmd_load(args) -> int:
    catalog = parse_catalog(Path(args.catalog).read_text())
    index = read_index(Path(args.index).read_text(), catalog)
    if args.inventory:
        inventory = parse_inventory(Path(args.inventory).read_text())
    elif args.strategy == "stage1":
        inventory = HardwareInventory(())  # unused: v1 baked the check in
    else:
        raise ConfigError(f"--strategy {args.strategy} requires --inventory")
    config = StrategyConfig(
        strategy=args.strategy,
        workers=args.workers,
        load_base_us=args.load_base_us,
        load_per_kb_us=args.load_per_kb_us,
    )
    events = []
    try:
        state, events = run_strategy(catalog, index, inventory, config)
    finally:
        if args.trace:
            Path(args.trace).write_text(format_trace(events))
    timing = timing_from_trace(events)
    print(
        f"{args.strategy}: loaded={len(state.loaded())} events={len(events)} "
        f"wall_us={timing.wall_us}"
    )
    return 0


def _cmd_bench(args) -> int:
    catalog = parse_catalog(Path(args.catalog).read_text())
    inventory = parse_inventory(Path(args.inventory).read_text())
    strategies = [s.strip() for s in args.strategy.split(",") if s.strip()]
    if not strategies:
        raise ConfigError("no strategies given")
    report = bench(
        catalog,
        _resolve_policy_flags(args),
        inventory,
        strategies,
        workers=args.workers,
        repetitions=args.reps,
        load_base_us=args.load_base_us,
        load_per_kb_us=args.load_per_kb_us,
    )
    render = render_bench_csv if args.format == "csv" else render_bench_text
    sys.stdout.write(render(report))
    return 0


def _cmd_report(args) -> int:
    catalog = parse_catalog(Path(args.catalog).read_text())
    trace = parse_trace(Path(args.trace).read_text())
    loaded: set[str] = set()
    for event in trace:
        if event.kind != LOAD:
            continue
        if event.module not in catalog:
            raise MalformedTrace(f"LOAD of {event.module!r}, which is not in the catalog")
        if event.module in loaded:
            raise MalformedTrace(f"second LOAD of {event.module!r}")
        rec = catalog.record(event.module)
        if rec.base_kernel_only:
            raise MalformedTrace(f"LOAD of {event.module!r}, which is a resident @base module")
        for dep in rec.deps:
            if dep not in loaded and not catalog.record(dep).base_kernel_only:
                raise MalformedTrace(f"LOAD of {event.module!r} before its dependency {dep!r}")
        loaded.add(event.module)
    timing = timing_from_trace(trace)
    space = space_report(catalog, loaded)
    render = render_session_csv if args.format == "csv" else render_session_text
    sys.stdout.write(render(timing, space))
    return 0


def _resolve_policy_flags(args) -> SelectionPolicy:
    if args.interactive:
        return SelectionPolicy.interactive(_ask_on_terminal)
    if args.assume_yes:
        return SelectionPolicy.all_load()
    if not args.policy:
        raise ConfigError("pick a policy: --policy, --interactive, or --assume-yes")
    if args.policy == "all-load":
        return SelectionPolicy.all_load()
    if args.policy == "all-skip":
        return SelectionPolicy.all_skip()
    if args.policy.startswith("file:"):
        path = args.policy[len("file:"):]
        names = []
        for line in Path(path).read_text().splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                names.append(stripped)
        return SelectionPolicy.from_file(names)
    raise ConfigError(f"unknown policy {args.policy!r}")


def _ask_on_terminal(name: str) -> bool:
    while True:
        sys.stdout.write(f"load {name}? [y/n] ")
        sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            raise ConfigError("interactive selection ended before all modules were answered")
        answer = line.strip().lower()
        if answer in ("y", "yes"):
            return True
        if answer in ("n", "no"):
            return False


if __name__ == "__main__":
    raise SystemExit(main())
