"""Command-line driver: fixture generation, registration, loading, benchmarks.

Every path is an explicit flag; nothing here ever looks at real module
directories or device databases. Domain errors exit nonzero after printing a
machine-parseable ``error: <code>: <detail>`` line on stderr. A command builds
only its own argument parser, and nothing is cached between ``main`` calls.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import Iterable

from .catalog import ModuleCatalog, parse_catalog
from .errors import ConfigError, KmodsimError
from .fixtures import generate_fixture
from .hardware import HardwareInventory, parse_inventory
from .loader import (
    STRATEGIES,
    StrategyConfig,
    format_trace,
    parse_trace,
    run_strategy,
)
from .metrics import (
    bench,
    check_trace,
    render_bench_csv,
    render_bench_text,
    render_session_csv,
    render_session_text,
    space_report,
    timing_from_trace,
)
from .registry import read_index, register_v0, register_v1, write_index


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KmodsimError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for one ``command``, or for every command when it names none.

    Building all five subparsers costs three to five times as much as building
    one, so a known command gets only its own. Any other first argument (none,
    ``-h``, an unknown name) gets the full parser, whose help and errors list
    the commands.
    """
    parser = argparse.ArgumentParser(
        prog="kmodsim",
        description="Simulate staged, parallel attachment of loadable kernel modules.",
    )
    if command in _COMMANDS:
        names = (command,)
        # The usage line still lists every command, as the full parser's does.
        # Only here: a pinned metavar would rename the argument in the full
        # parser's "invalid choice" and "required" errors.
        sub = parser.add_subparsers(
            dest="subcommand", required=True, metavar="{" + ",".join(_COMMANDS) + "}"
        )
    else:
        names = tuple(_COMMANDS)
        sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in names:
        help_text, add_arguments, handler = _COMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        add_arguments(subparser)
        subparser.set_defaults(func=handler)
    return parser


def _gen_arguments(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("--modules", type=int, required=True)
    gen.add_argument("--max-depth", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--hw-coverage", type=float, default=1.0)
    gen.add_argument("--catalog", required=True, help="output catalog path")
    gen.add_argument("--inventory", required=True, help="output inventory path")


def _register_arguments(reg: argparse.ArgumentParser) -> None:
    reg.add_argument("--catalog", required=True)
    reg.add_argument("--version", choices=("v0", "v1"), required=True)
    reg.add_argument("--index", required=True, help="output index path")
    reg.add_argument("--inventory", help="required for --version v1")
    _add_policy_flags(reg)


def _load_arguments(load: argparse.ArgumentParser) -> None:
    load.add_argument("--catalog", required=True)
    load.add_argument("--index", required=True)
    load.add_argument("--inventory", help="required for stage0/stage2/stage3")
    load.add_argument("--strategy", choices=STRATEGIES, required=True)
    load.add_argument("--workers", type=int, default=1)
    load.add_argument("--trace", help="trace output path")
    load.add_argument("--load-base-us", type=float, default=0.0)
    load.add_argument("--load-per-kb-us", type=float, default=0.0)


def _bench_arguments(ben: argparse.ArgumentParser) -> None:
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


def _report_arguments(rep: argparse.ArgumentParser) -> None:
    rep.add_argument("--trace", required=True)
    rep.add_argument("--catalog", required=True)
    rep.add_argument("--format", choices=("text", "csv"), default="text")


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--policy", help="all-load | all-skip | file:<path>")
    group.add_argument("--interactive", action="store_true",
                       help="ask y/n per module, in catalog order")
    group.add_argument("--assume-yes", action="store_true", help="alias for all-load")


def _cmd_gen(args) -> int:
    if Path(args.catalog).resolve() == Path(args.inventory).resolve():
        raise ConfigError(f"--catalog and --inventory name one file: {args.catalog}")
    catalog_text, inventory_text = generate_fixture(
        args.modules, args.max_depth, args.seed, args.hw_coverage
    )
    _write_all([(args.catalog, catalog_text), (args.inventory, inventory_text)])
    return 0


def _cmd_register(args) -> int:
    catalog = parse_catalog(_read(args.catalog))
    selected = _selection(args, catalog)
    if args.version == "v1":
        if not args.inventory:
            raise ConfigError("--version v1 requires --inventory")
        inventory = parse_inventory(_read(args.inventory))
        index = register_v1(catalog, selected, inventory)
    else:
        index = register_v0(catalog, selected)
    Path(args.index).write_text(write_index(index), encoding="utf-8")
    return 0


def _cmd_load(args) -> int:
    catalog = parse_catalog(_read(args.catalog))
    index = read_index(_read(args.index), catalog)
    if args.inventory:
        inventory = parse_inventory(_read(args.inventory))
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
    events = []  # filled as the session runs, so a failed one keeps its trace

    def write_trace() -> None:
        if args.trace:
            Path(args.trace).write_text(format_trace(events), encoding="utf-8")

    try:
        run_strategy(catalog, index, inventory, config, events)
    except BaseException:
        # A failed session reports its own error, not a failed trace write's.
        with contextlib.suppress(OSError):
            write_trace()
        raise
    write_trace()
    timing = timing_from_trace(events)
    # Each attached module has exactly one LOAD event.
    print(
        f"{args.strategy}: loaded={timing.loads} events={len(events)} "
        f"wall_us={timing.wall_us}"
    )
    return 0


def _cmd_bench(args) -> int:
    catalog = parse_catalog(_read(args.catalog))
    inventory = parse_inventory(_read(args.inventory))
    report = bench(
        catalog,
        _selection(args, catalog),
        inventory,
        [s.strip() for s in args.strategy.split(",") if s.strip()],
        workers=args.workers,
        repetitions=args.reps,
        load_base_us=args.load_base_us,
        load_per_kb_us=args.load_per_kb_us,
    )
    render = render_bench_csv if args.format == "csv" else render_bench_text
    sys.stdout.write(render(report))
    return 0


def _cmd_report(args) -> int:
    catalog = parse_catalog(_read(args.catalog))
    trace = parse_trace(_read(args.trace))
    space = space_report(catalog, check_trace(catalog, trace))
    timing = timing_from_trace(trace)
    render = render_session_csv if args.format == "csv" else render_session_text
    sys.stdout.write(render(timing, space))
    return 0


# Each command's help line, the function that adds its arguments, and its handler.
_COMMANDS = {
    "gen": ("generate a deterministic catalog + inventory pair", _gen_arguments, _cmd_gen),
    "register": ("build an index file from a selection policy", _register_arguments,
                 _cmd_register),
    "load": ("run one load strategy and write its trace", _load_arguments, _cmd_load),
    "bench": ("compare strategies on identical inputs", _bench_arguments, _cmd_bench),
    "report": ("summarize a trace against its catalog", _report_arguments, _cmd_report),
}


def _read(path: str) -> str:
    """An input file's text, decoded as UTF-8; undecodable bytes are an io error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None


def _write_all(outputs: list[tuple[str, str]]) -> None:
    """Write each ``(path, text)``, or change no path when any write fails.

    Each text goes to a temporary file beside its target, and the targets are
    replaced only after every text is written. A temporary file takes the mode
    of the file it replaces, or the umask's default for a new file. A target
    that exists but is not a regular file (``/dev/null``, a pipe) is written in
    place, after the temporary files and before the first replace.
    """
    umask = os.umask(0)
    os.umask(umask)
    staged: list[tuple[str, Path]] = []
    in_place: list[tuple[str, str]] = []
    try:
        for path, text in outputs:
            target = Path(path).resolve()
            if target.exists() and not target.is_file():
                in_place.append((path, text))
                continue
            try:
                fd, temp = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            staged.append((temp, target))
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                out.write(text)
            mode = stat.S_IMODE(target.stat().st_mode) if target.exists() else 0o666 & ~umask
            os.chmod(temp, mode)
        for path, text in in_place:
            Path(path).write_text(text, encoding="utf-8")
        for temp, target in staged:
            os.replace(temp, target)
    finally:
        for temp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)


def _selection(args, catalog: ModuleCatalog) -> Iterable[str]:
    """The module names the policy flags select.

    ``--interactive`` asks in catalog order only when registration reads the
    names, so every other check of the command comes before the first question.
    """
    if args.interactive:
        return (name for name in catalog.names if _ask_on_terminal(name))
    if args.assume_yes:
        return catalog.names
    if not args.policy:
        raise ConfigError("pick a policy: --policy, --interactive, or --assume-yes")
    if args.policy == "all-load":
        return catalog.names
    if args.policy == "all-skip":
        return ()
    if args.policy.startswith("file:"):
        path = args.policy[len("file:"):]
        lines = map(str.strip, _read(path).splitlines())
        return [line for line in lines if line and line[0] != "#"]
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
