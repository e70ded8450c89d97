"""Edge-list ingestion for real networks, plus clustering statistics.

Reads SNAP-style whitespace edge lists ("u v" per line, ``#`` comments),
optionally symmetrizing directed input, collapsing duplicates, dropping
self-loops, and restricting to a node whitelist.  Vertex ids are relabeled
to a contiguous 0-based range; the original-id map is returned so samples
and estimates can be traced back.  Vertices left without any surviving
edge are dropped (the estimators' harmonic means need degrees >= 1).
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, TextIO

import numpy as np

from .graph import INT64_MAX, INT64_MIN, MultiGraph, mean_local_clustering, triangle_counts


@dataclass(frozen=True)
class EdgeListSpec:
    path: str | Path
    directed: bool = False          # lines are arcs; one edge per pair joined either way
    node_filter: Optional[str | Path] = None
    dedupe: bool = False
    drop_loops: bool = False


@dataclass(frozen=True)
class IngestReport:
    lines_read: int
    nodes: int
    edges: int
    loops_dropped: int
    duplicates_collapsed: int
    filtered_out: int

    def describe(self) -> str:
        return (
            f"kept {self.nodes} nodes / {self.edges} edges"
            f" (read {self.lines_read} edge lines,"
            f" dropped {self.loops_dropped} loops,"
            f" collapsed {self.duplicates_collapsed} duplicates,"
            f" filtered {self.filtered_out})"
        )


@contextmanager
def open_text(path, where: str = "{path}:{line}", newline: Optional[str] = None) -> Iterator[TextIO]:
    """``path`` opened to read UTF-8 text.  A byte that is not UTF-8 fails with a
    ``ValueError`` located by ``where``, filled in with the path and its line number."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        # the lines as read, with each bad byte escaped to a lone surrogate U+DC80..U+DCFF
        with open(path, encoding="utf-8", newline=newline, errors="surrogateescape") as fh:
            line = next(i for i, text in enumerate(fh, start=1) if re.search("[\udc80-\udcff]", text))
        raise ValueError(f"{where.format(path=path, line=line)}: byte {exc.object[exc.start]:#04x} "
                         f"is not UTF-8 ({exc.reason})") from None


def _read_filter(path: str | Path) -> set[int]:
    keep: set[int] = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                keep.add(int(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad node id {line!r}") from exc
    return keep


def load_edge_list(spec: EdgeListSpec) -> tuple[MultiGraph, dict[int, int], IngestReport]:
    """Load, clean, and relabel an edge list.

    Returns the graph, the original-id -> new-id map, and a report of what
    was read and dropped.  Endpoints must fit in a signed 64-bit integer.
    With ``directed``, lines are arcs and the graph keeps one edge for each
    pair joined in either direction, so duplicates are collapsed as well.
    """
    keep = _read_filter(spec.node_filter) if spec.node_filter is not None else None
    us: list[int] = []
    vs: list[int] = []
    lines_read = 0
    loops_dropped = 0
    filtered_out = 0
    with open_text(spec.path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise ValueError(f"{spec.path}:{lineno}: expected 'u v', got {stripped!r}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError as exc:
                raise ValueError(f"{spec.path}:{lineno}: non-integer endpoint in {stripped!r}") from exc
            if not (INT64_MIN <= u <= INT64_MAX and INT64_MIN <= v <= INT64_MAX):
                raise ValueError(f"{spec.path}:{lineno}: endpoint out of the 64-bit range in {stripped!r}")
            lines_read += 1
            if keep is not None and (u not in keep or v not in keep):
                filtered_out += 1
                continue
            if u == v and spec.drop_loops:
                loops_dropped += 1
                continue
            us.append(u)
            vs.append(v)
    if not us:
        raise ValueError(f"{spec.path}: no edges survived ingestion")

    a, b = np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    del us, vs
    pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)  # orientation is meaningless
    unique = np.unique(pairs, axis=0) if spec.dedupe or spec.directed else pairs
    ids, relabeled = np.unique(unique.ravel(), return_inverse=True)
    id_map = dict(zip(ids.tolist(), range(len(ids))))
    g = MultiGraph(len(ids), relabeled.reshape(-1, 2))
    report = IngestReport(
        lines_read=lines_read,
        nodes=g.n,
        edges=g.num_edges,
        loops_dropped=loops_dropped,
        duplicates_collapsed=len(pairs) - len(unique),
        filtered_out=filtered_out,
    )
    return g, id_map, report


def write_edge_list(g: MultiGraph, path: str | Path, comments: list[str] | None = None) -> None:
    """Emit "u v" per line with optional leading # comments."""
    with open(path, "w") as fh:
        for comment in comments or []:
            fh.write(f"# {comment}\n")
        write_edges(g, fh)


_WRITE_BLOCK = 1 << 14  # edges formatted per write, which bounds the temporary Python ints


def write_edges(g: MultiGraph, fh: TextIO) -> None:
    """Write "u v" per edge to an open text file, one block of edges at a time."""
    for first in range(0, g.num_edges, _WRITE_BLOCK):
        block = g.edge_array[first:first + _WRITE_BLOCK]
        fh.write("%d %d\n" * len(block) % tuple(block.ravel().tolist()))


def clustering_stats(g: MultiGraph) -> tuple[float, float]:
    """(average local clustering coefficient, transitivity) of a simple graph.

    Vertices of degree < 2 contribute 0 to the average.  Transitivity is
    3 * triangles / connected triples.
    """
    triangles = triangle_counts(g.n, g.edge_array)
    degrees = g.degrees()
    triples = int((degrees * (degrees - 1) // 2).sum())
    # every triangle is counted at each of its three corners
    transitivity = float(triangles.sum()) / triples if triples else 0.0
    return mean_local_clustering(degrees, triangles), transitivity
