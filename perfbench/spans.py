"""Spans recorded around calls into netsize's public functions, and the
per-layer metrics derived from them.

Tracing patches each function where its caller looks it up: in the harness
and the CLI for the calls they make, and in the defining module for the
calls the benchmark makes itself.  Nothing under ``src/`` changes, and the
untraced run executes the original functions.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 at top level
    task: str       # graph task, capture or stage the span belongs to


class NullTracer:
    """Stands in for the tracer in untraced passes: only holds the task label."""

    task = ""


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.task = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, observe=None, enter=None):
        def traced(*args, **kwargs):
            if enter is not None:
                enter(self, args)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(name, start, end, parent, self.task)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, observe, enter in _patch_points():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, observe, enter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": span.name, "parent": span.parent, "task": span.task,
                    "start_s": span.start - origin, "end_s": span.end - origin,
                }) + "\n")


def _count(key, amount):
    def observe(tracer, args, result):
        tracer.counts[key] += amount(args, result)
    return observe


def _graph_task(tracer, args):
    # harness.derive_rng(seed, "graph", family, lam, n, graph_idx) opens a graph task
    if len(args) > 1 and args[1] == "graph":
        tracer.task = "graph:" + ":".join(str(part) for part in args[2:])


def _patch_points():
    """(module, attribute, span name, observe, enter) for every traced call site."""
    import netsize.cli as cli
    import netsize.generators as generators
    import netsize.harness as harness
    import netsize.hashing as hashing
    import netsize.ingest as ingest
    import netsize.sampling as sampling
    from netsize.estimators import FailureCause

    edges = _count("generators.edges", lambda a, g: g.num_edges)
    subjects = _count("sampling.subjects", lambda a, s: s.size)
    plain_fail = _count("estimators.failed", lambda a, r: int(r.failed))
    no_root = _count("hashing.no_root", lambda a, r: int(r.failure_cause is FailureCause.NO_ROOT))
    points = [
        # as the harness calls them
        (harness, "derive_rng", "harness.derive_rng", None, _graph_task),
        (harness, "sample_graph", "generators.sample_graph", edges, None),
        (harness, "uniform_sample", "sampling.uniform_sample", None, None),
        (harness, "as_sample_view", "sampling.as_sample_view", None, None),
        (harness, "rds_capture", "sampling.rds_capture", subjects, None),
        (harness, "estimate_n1_from_view", "estimators.estimate_n1", plain_fail, None),
        (harness, "estimate_n2", "estimators.estimate_n2", plain_fail, None),
        (harness, "estimate_n3", "estimators.estimate_n3", plain_fail, None),
        (harness, "assign_hashes", "hashing.assign_hashes", None, None),
        (harness, "hashed_view", "hashing.hashed_view", None, None),
        (harness, "estimate_n2_hashed", "hashing.estimate_n2_hashed", no_root, None),
        (harness, "estimate_n3_hashed", "hashing.estimate_n3_hashed", no_root, None),
        (harness, "summarize_rows", "harness.summarize_rows", None, None),
        # graph construction as generators and ingest call it
        (generators, "MultiGraph", "graph.MultiGraph", None, None),
        (ingest, "MultiGraph", "graph.MultiGraph", None, None),
        # as the CLI's estimate command calls them
        (cli, "read_sample_dump", "sampling.dump_read", None, None),
        (cli, "estimate_n1_from_view", "estimators.estimate_n1", plain_fail, None),
        (cli, "estimate_n2", "estimators.estimate_n2", plain_fail, None),
        (cli, "estimate_n3", "estimators.estimate_n3", plain_fail, None),
        (cli, "estimate_n2_hashed", "hashing.estimate_n2_hashed", no_root, None),
        (cli, "estimate_n3_hashed", "hashing.estimate_n3_hashed", no_root, None),
        # as the benchmark calls them
        (cli, "main", "cli.estimate", None, None),
        (harness, "run_plan", "harness.run_plan", None, None),
        (harness, "raw_csv_lines", "harness.csv", None, None),
        (harness, "summary_csv_lines", "harness.csv", None, None),
        (harness, "write_csv", "harness.csv", None, None),
        (generators, "sample_graph", "generators.sample_graph", edges, None),
        (generators, "rewire_to_clustering", "generators.rewire_to_clustering", None, None),
        (sampling, "rds_capture", "sampling.rds_capture", subjects, None),
        (sampling, "write_sample_dump", "sampling.dump_write",
         _count("sampling.dump_bytes", lambda a, r: os.path.getsize(a[1])), None),
        (hashing, "assign_hashes", "hashing.assign_hashes", None, None),
        (hashing, "hashed_view", "hashing.hashed_view", None, None),
        (ingest, "load_edge_list", "ingest.load_edge_list",
         _count("ingest.lines", lambda a, r: r[2].lines_read), None),
        (ingest, "write_edge_list", "ingest.write_edge_list", None, None),
        (ingest, "clustering_stats", "ingest.clustering_stats", None, None),
    ]
    return points


# name, unit, better
PER_LAYER = [
    ("generators.sample_graph.calls", "count", "lower"),
    ("generators.sample_graph.busy_s", "s", "lower"),
    ("generators.edges_per_s", "edges/s", "higher"),
    ("generators.rewire_to_clustering.busy_s", "s", "lower"),
    ("generators.rewire.clustering_reached", "ratio", "higher"),
    ("graph.MultiGraph.calls", "count", "lower"),
    ("graph.MultiGraph.busy_s", "s", "lower"),
    ("sampling.rds_capture.calls", "count", "lower"),
    ("sampling.rds_capture.busy_s", "s", "lower"),
    ("sampling.rds_capture.p50_ms", "ms", "lower"),
    ("sampling.subjects_per_s", "subjects/s", "higher"),
    ("sampling.uniform_sample.busy_s", "s", "lower"),
    ("sampling.as_sample_view.busy_s", "s", "lower"),
    ("sampling.dump_write.busy_s", "s", "lower"),
    ("sampling.dump_read.busy_s", "s", "lower"),
    ("sampling.dump_bytes", "bytes", "lower"),
    ("hashing.assign_hashes.busy_s", "s", "lower"),
    ("hashing.hashed_view.busy_s", "s", "lower"),
    ("hashing.hashed_view.p50_ms", "ms", "lower"),
    ("hashing.estimate_n2_hashed.calls", "count", "lower"),
    ("hashing.estimate_n2_hashed.busy_s", "s", "lower"),
    ("hashing.estimate_n2_hashed.p50_ms", "ms", "lower"),
    ("hashing.estimate_n3_hashed.calls", "count", "lower"),
    ("hashing.estimate_n3_hashed.busy_s", "s", "lower"),
    ("hashing.estimate_n3_hashed.p50_ms", "ms", "lower"),
    ("hashing.no_root_share", "share", "lower"),
    ("estimators.estimate_n1.busy_s", "s", "lower"),
    ("estimators.estimate_n2.busy_s", "s", "lower"),
    ("estimators.estimate_n3.busy_s", "s", "lower"),
    ("estimators.fail_share", "share", "lower"),
    ("harness.run_plan.wall_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.derive_rng.calls", "count", "lower"),
    ("harness.derive_rng.busy_s", "s", "lower"),
    ("harness.summarize_rows.busy_s", "s", "lower"),
    ("harness.csv.busy_s", "s", "lower"),
    ("ingest.load_edge_list.busy_s", "s", "lower"),
    ("ingest.lines_per_s", "lines/s", "higher"),
    ("ingest.write_edge_list.busy_s", "s", "lower"),
    ("ingest.clustering_stats.busy_s", "s", "lower"),
    ("cli.estimate.calls", "count", "lower"),
    ("cli.estimate.busy_s", "s", "lower"),
    ("cli.estimate.p50_ms", "ms", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(tracer: Tracer, passes: int, overhead_s: float, clustering_reached: float) -> dict:
    """Per-layer values, as means per pass (p50 over every call), keyed by metric name."""
    durations: dict[str, list[float]] = defaultdict(list)
    self_time: Counter = Counter()
    child_time: Counter = Counter()
    for sid, span in enumerate(tracer.spans):
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    for sid, span in enumerate(tracer.spans):
        durations[span.name].append(span.end - span.start)
        self_time[span.name] += span.end - span.start - child_time[sid]

    def busy(name):
        return sum(durations[name]) / passes

    def rate(count_key, name):
        total = sum(durations[name])
        return tracer.counts[count_key] / total if total else 0.0

    values = {"trace.overhead_s": overhead_s, "generators.rewire.clustering_reached": clustering_reached}
    for metric, _, _ in PER_LAYER:
        if metric in values:
            continue
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = len(durations[name]) / passes
        elif kind == "busy_s":
            values[metric] = busy(name)
        elif kind == "p50_ms":
            values[metric] = 1000 * statistics.median(durations[name]) if durations[name] else 0.0
    calls = lambda *names: sum(len(durations[n]) for n in names)  # noqa: E731
    values.update({
        "generators.edges_per_s": rate("generators.edges", "generators.sample_graph"),
        "sampling.subjects_per_s": rate("sampling.subjects", "sampling.rds_capture"),
        "sampling.dump_bytes": tracer.counts["sampling.dump_bytes"] / passes,
        "hashing.no_root_share": _share(tracer.counts["hashing.no_root"],
                                        calls("hashing.estimate_n2_hashed", "hashing.estimate_n3_hashed")),
        "estimators.fail_share": _share(tracer.counts["estimators.failed"],
                                        calls("estimators.estimate_n1", "estimators.estimate_n2",
                                              "estimators.estimate_n3")),
        "harness.run_plan.wall_s": busy("harness.run_plan"),
        "harness.self_s": self_time["harness.run_plan"] / passes,
        "ingest.lines_per_s": rate("ingest.lines", "ingest.load_edge_list"),
        "cli.self_s": self_time["cli.estimate"] / passes,
    })
    return {metric: values[metric] for metric, _, _ in PER_LAYER}


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
