"""Spans around the benchmark's calls into bubblesim's public functions.

The package itself is not instrumented: a traced run hands the workloads an
``Api`` whose functions are the package's own, each wrapped so that the call
records one span (name, start, end, parent span, tag).  Spans stay in memory
and are written out once, when the run ends.  An untraced run gets the bare
functions, so it pays nothing for tracing.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# layer (package module) -> public functions the benchmark calls in it
LAYER_CALLS = {
    "model": ("simulate",),
    "analysis": ("summarize", "detect_crashes", "up_crossings"),
    "sweep": ("run_sweep", "compare_medians"),
    "io": (
        "write_trajectory_csv",
        "read_trajectory_csv",
        "summary_payload",
        "sweep_payload",
        "write_summary_json",
    ),
    "svgplot": ("plot_trajectory", "plot_sweep"),
    "cli": ("build_parser", "parse_config"),
}

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """In-memory span recorder; a span's parent is the span open around it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._tag = ""

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter(), 0.0, parent, self._tag]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._open.pop()

    @contextmanager
    def tagged(self, tag: str):
        """Mark every span opened inside the block, to tell call sites apart."""
        previous, self._tag = self._tag, tag
        try:
            yield
        finally:
            self._tag = previous

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        """Seconds spent in each span of this name (and tag, if given)."""
        return [
            s[END] - s[START]
            for s in self.spans
            if s[NAME] == name and (tag is None or s[TAG] == tag)
        ]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span minus its children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) - child[i]
        return out

    def coverage(self, root: str) -> float:
        """Share of the time inside `root` spans that their child spans cover."""
        roots = {i for i, s in enumerate(self.spans) if s[NAME] == root}
        total = sum(self.spans[i][END] - self.spans[i][START] for i in roots)
        covered = sum(s[END] - s[START] for s in self.spans if s[PARENT] in roots)
        return covered / total if total > 0 else 0.0

    def dump(self, path, meta: dict) -> None:
        doc = {
            **meta,
            "columns": ["name", "start_s", "end_s", "parent", "tag"],
            "spans": self.spans,
            "self_s": self.self_times(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class Api:
    """bubblesim's public functions as the benchmark calls them.

    With a tracer, each call is recorded as a span named "<module>.<function>";
    run_sweep with n_jobs > 1 is recorded as "sweep.run_sweep.pool" so the
    pool fan-out can be told apart from the serial path.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        for layer, names in LAYER_CALLS.items():
            module = importlib.import_module(f"bubblesim.{layer}")
            for name in names:
                fn = getattr(module, name)
                if tracer is not None:
                    fn = tracer.wrap(f"{layer}.{name}", fn)
                setattr(self, name, fn)
        if tracer is not None:
            serial = self.run_sweep
            pooled = tracer.wrap("sweep.run_sweep.pool", importlib.import_module("bubblesim.sweep").run_sweep)

            def run_sweep(spec, cfg=None, n_jobs=1):
                return (serial if n_jobs == 1 else pooled)(spec, cfg, n_jobs)

            self.run_sweep = run_sweep
