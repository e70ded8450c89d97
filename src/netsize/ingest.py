"""Edge-list ingestion for real networks, plus clustering statistics.

Reads SNAP-style whitespace edge lists ("u v" per line, ``#`` comments),
optionally collapsing duplicates, dropping self-loops, and restricting to a
node whitelist.  Vertex ids are relabeled to a contiguous 0-based range;
the original-id map is returned so samples and estimates can be traced
back.  Vertices left without any surviving edge are dropped (the
estimators' harmonic means need degrees >= 1).
"""

from __future__ import annotations

import io
import os
import re
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, TextIO

import numpy as np

from .graph import INT64_MAX, INT64_MIN, MultiGraph, mean_local_clustering, triangle_counts, unique_inverse


@dataclass(frozen=True)
class EdgeListSpec:
    path: str | Path
    node_filter: Optional[str | Path] = None
    dedupe: bool = False            # one edge per pair joined in either direction
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
def open_text(path, where: str = "{path}:{line}") -> Iterator[TextIO]:
    """``path`` opened to read UTF-8 text, without a leading byte-order mark.  A
    byte that is not UTF-8 fails with a ``ValueError`` located by ``where``,
    filled in with the path and its line number."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        # the lines as read, with each bad byte escaped to a lone surrogate U+DC80..U+DCFF
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
            line = next(i for i, text in enumerate(fh, start=1) if re.search("[\udc80-\udcff]", text))
        raise ValueError(f"{where.format(path=path, line=line)}: byte {exc.object[exc.start]:#04x} "
                         f"is not UTF-8 ({exc.reason})") from None


@contextmanager
def open_written(path) -> Iterator[TextIO]:
    r"""``path`` opened to write UTF-8 text whatever the locale, as every reader
    decodes UTF-8.  A lone surrogate, which is how ``sys.argv`` carries a byte
    of a path that the locale cannot decode, is written back as that byte.
    Lines are written as given, ending in ``\n`` on every platform, as the
    numpy readers require.

    An existing regular file is rewritten in place: on exit, whether the body
    returned or raised, it is cut to exactly the bytes written.  Before the
    body runs it is shrunk to one byte, so a write cut short never leaves old
    rows behind new ones.  One byte, not zero: ext4 (``auto_da_alloc``), xfs
    and btrfs flush a file truncated to zero when it is closed, which made a
    rewrite cost several times the write.  Any other target, such as
    ``os.devnull`` or a pipe, is written as ``open(path, "w")`` writes it.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        if regular and info.st_size > 1:
            os.ftruncate(fd, 1)
        fh = open(fd, "w", encoding="utf-8", errors="surrogateescape", newline="")
    except BaseException:
        os.close(fd)
        raise
    with fh:
        try:
            yield fh
        finally:
            if regular:
                fh.flush()
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


_EDGE_BYTES = b"0123456789- \t\n"  # every byte the numpy parse takes outside a comment line


def _parse_edges(data: bytes) -> Optional[np.ndarray]:
    r"""The int64 ``(lines, 2)`` endpoints in ``data``, or None unless it is in the fast grammar.

    The grammar: UTF-8 text whose lines are either comments, with ``#`` at
    column 0, or ``0-9``, ``-``, spaces and tabs, with ``\n`` line ends and
    two values on every line that is not blank.  Anything else, valid or
    not, is left to the line scan, which also words every error.
    """
    if b"\r" in data:
        return None
    rest, start = [], 0
    while (at := data.find(b"#", start)) >= 0:
        if at and data[at - 1] != ord("\n"):
            return None
        rest.append(data[start:at])
        start = data.find(b"\n", at) + 1 or len(data)
    rest.append(data[start:])
    numbers = b"".join(rest)
    if numbers.translate(None, _EDGE_BYTES) or not numbers.strip():  # loadtxt warns on a file of no values
        return None
    try:  # a comment that is not UTF-8, a token such as "1-", a value past int64 or a ragged line
        pairs = np.loadtxt(io.StringIO(data.decode("utf-8")), dtype=np.int64, comments="#", ndmin=2)
    except ValueError:
        return None
    return pairs if pairs.shape[1] == 2 else None


def _read_filter(path: str | Path) -> np.ndarray:
    """The node ids of a filter file, one per line.  An id outside int64
    matches no endpoint, so it is dropped."""
    keep: list[int] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                keep.append(int(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad node id {line!r}") from exc
    return np.array([i for i in keep if INT64_MIN <= i <= INT64_MAX], dtype=np.int64)


def _scan_edge_list(path: str | Path) -> np.ndarray:
    """The line-by-line reader of an edge list's int64 ``(lines, 2)`` endpoints:
    the reference for ``_parse_edges`` and the source of every error message."""
    ends: list[int] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {stripped!r}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer endpoint in {stripped!r}") from exc
            if not (INT64_MIN <= u <= INT64_MAX and INT64_MIN <= v <= INT64_MAX):
                raise ValueError(f"{path}:{lineno}: endpoint out of the 64-bit range in {stripped!r}")
            ends += (u, v)
    return np.array(ends, dtype=np.int64).reshape(-1, 2)


def load_edge_list(spec: EdgeListSpec) -> tuple[MultiGraph, dict[int, int], IngestReport]:
    """Load, clean, and relabel an edge list.

    Returns the graph, the original-id -> new-id map, and a report of what
    was read and dropped.  Endpoints must fit in a signed 64-bit integer.
    With ``dedupe``, the graph keeps one edge for each pair joined in either
    direction (A ∨ Aᵀ), so a file of arcs reads as undirected ties.
    A file in the grammar of ``_parse_edges`` is parsed in numpy; any other
    text goes through the line scan, with the same result or the same error.
    """
    keep = _read_filter(spec.node_filter) if spec.node_filter is not None else None
    with open(spec.path, "rb") as fh:
        pairs = _parse_edges(fh.read())
    if pairs is None:
        pairs = _scan_edge_list(spec.path)
    lines_read = len(pairs)
    if keep is not None:
        pairs = pairs[np.isin(pairs, keep).all(axis=1)]
    filtered_out = lines_read - len(pairs)
    if spec.drop_loops:
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    loops_dropped = lines_read - filtered_out - len(pairs)
    if not len(pairs):
        raise ValueError(f"{spec.path}: no edges survived ingestion")

    m = len(pairs)
    # orientation is meaningless: relabel every pair's lower id, then its higher one
    ids, labels = unique_inverse(np.concatenate((pairs.min(axis=1), pairs.max(axis=1))))
    n = len(ids)
    lo, hi = labels[:m], labels[m:]
    if spec.dedupe:
        # the relabeling is monotone, so the sorted keys keep the pairs' lexicographic
        # order; n <= MAX_VERTICES keeps them in int64 (MultiGraph rejects a larger n)
        keys = np.sort(lo * n + hi)
        lo, hi = np.divmod(keys[np.r_[True, keys[1:] != keys[:-1]]], n)
    id_map = dict(zip(ids.tolist(), range(n)))
    g = MultiGraph(n, np.stack((lo, hi), axis=1))
    report = IngestReport(
        lines_read=lines_read,
        nodes=g.n,
        edges=g.num_edges,
        loops_dropped=loops_dropped,
        duplicates_collapsed=m - g.num_edges,
        filtered_out=filtered_out,
    )
    return g, id_map, report


def comment_lines(text: str) -> list[str]:
    r"""``text`` as ``# `` comment lines, one per line of it: the readers end
    a line at ``\r\n``, ``\r`` or ``\n``."""
    return [f"# {line}" for line in re.split(r"\r\n|\r|\n", text)]


def write_edge_list(g: MultiGraph, path: str | Path, comments: list[str] | None = None) -> None:
    """Emit "u v" per line with optional leading # comments."""
    with open_written(path) as fh:
        for comment in comments or []:
            fh.writelines(line + "\n" for line in comment_lines(comment))
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
