"""In-memory spans recorded around the calls into each kmodsim layer.

A span has a name, a start, an end (seconds since the tracer was made), the
id of the span that was open when it began, and the run id of the pipeline
pass it belongs to. Spans stay in memory until the benchmark writes them out
once, at the end of a traced run.

``instrument`` wraps the library functions that ``kmodsim.cli`` calls, in
the CLI module's own namespace, so a traced ``cli.main([...])`` makes exactly
the library calls an untraced one makes, each under its own span. Spans are
only opened from the thread that calls ``cli.main``; the loader's worker
threads never reach a wrapped function.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# The names ``kmodsim.cli`` imports from the library layers.
CLI_CALLS = (
    "generate_fixture",
    "parse_catalog",
    "parse_inventory",
    "register_v0",
    "register_v1",
    "write_index",
    "read_index",
    "run_strategy",
    "format_trace",
    "parse_trace",
    "timing_from_trace",
    "space_report",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = "setup"
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield
        finally:
            span["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def wrap(self, fn, name: str):
        """``fn`` under a span; run_strategy spans also name the strategy."""
        if name == "loader.run_strategy":
            def traced(*args, **kwargs):
                config = args[3] if len(args) > 3 else kwargs["config"]
                with self.span(f"{name}.{config.strategy}"):
                    return fn(*args, **kwargs)
        else:
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return traced

    def self_times(self, name: str, runs=None) -> list[float]:
        """Each matching span's duration minus the time its children cover."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + _length(s)
        return [_length(s) - children.get(s["id"], 0.0) for s in self._named(name, runs)]

    def median(self, name: str, runs=None) -> float:
        """Median duration of the spans called ``name`` in the given runs."""
        values = [_length(s) for s in self._named(name, runs)]
        if not values:
            raise LookupError(f"no span named {name!r} was recorded")
        return statistics.median(values)

    def _named(self, name: str, runs) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and (runs is None or s["run"] in runs)
        ]


def _length(span: dict) -> float:
    return span["end"] - span["start"]


@contextmanager
def instrument(tracer: Tracer, cli_module):
    """Route the CLI's library calls through spans named ``<layer>.<function>``."""
    originals = {attr: getattr(cli_module, attr) for attr in CLI_CALLS}
    for attr, fn in originals.items():
        layer = fn.__module__.rsplit(".", 1)[-1]
        setattr(cli_module, attr, tracer.wrap(fn, f"{layer}.{attr}"))
    try:
        yield
    finally:
        for attr, fn in originals.items():
            setattr(cli_module, attr, fn)
