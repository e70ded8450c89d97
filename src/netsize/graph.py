"""Undirected multigraphs and the neighborhood bookkeeping used by the estimators.

A ``MultiGraph`` permits parallel edges and self-loops (a loop counts twice
toward its endpoint's degree and appears twice in that vertex's neighbor
bag).  On top of it live the sampled-subgraph quantities: the free
neighborhood of a vertex once referral edges are removed, the pooled free
ends R(S, F), the in-sample matches M(S, F), and the cross-seed matches
X(s, F) that only count encounters between different referral components.
Every bag is a ``collections.Counter``: ``+`` pools, ``&`` intersects and
``total()`` is the cardinality the estimators divide.

This module also owns the rules that other modules share: the int64 rules
(``is_int``, ``check_int``, ``vertex_ids``, ``flat_ids``,
``degree_sums_fit``), the rank tables up to ``TABLE_MIN`` (``unique_inverse``,
``lookup``), and the index draws that the referral capture and the rewiring
share (``uniforms``, ``pick``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

Edge = tuple[int, int]
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
MAX_VERTICES = 3_037_000_499  # isqrt(INT64_MAX): keys source * n + target fit in int64


def is_int(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is neither here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(value, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``value`` passes ``is_int``."""
    if not is_int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")


def vertex_ids(values: Iterable | np.ndarray, what: str) -> np.ndarray:
    """``values``, an integer array or a (nested) sequence of ints, as an int64
    array of its shape, converted in one step.  A float or a bool, alone or
    among ints, is rejected, never truncated: ``np.asarray`` makes ``[True, 2]``
    an int array, so a sequence's element types are checked as well.  Ints
    past the int64 range, which ``np.asarray`` turns into float or object
    values, are named as such."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    arr = np.asarray(values)
    if not arr.size:
        return arr.astype(np.int64)
    kinds = set()
    if not isinstance(values, np.ndarray):
        items = values
        for _ in range(arr.ndim - 1):
            items = itertools.chain.from_iterable(items)
        kinds = set(map(type, items))
    if arr.dtype.kind not in "iu":
        if kinds and all(issubclass(kind, (int, np.integer)) and kind is not bool for kind in kinds):
            raise ValueError(f"{what} must fit in int64")
        raise ValueError(f"{what} must be integers, got {arr.dtype} values")
    if any(issubclass(kind, (bool, np.bool_)) for kind in kinds):
        raise ValueError(f"{what} must be integers, got bool values")
    if arr.dtype == np.uint64 and arr.max() > INT64_MAX:
        raise ValueError(f"{what} must fit in int64")
    return arr.astype(np.int64, copy=False)


def flat_ids(values: Iterable[int], what: str) -> np.ndarray:
    """``values`` as a 1-D int64 array, checked by ``vertex_ids``."""
    ids = vertex_ids(values, what)
    if ids.ndim != 1:
        raise ValueError(f"{what} must be a flat sequence of ints")
    return ids


def degree_sums_fit(degrees: np.ndarray) -> bool:
    """Whether the non-negative ``degrees`` sum to at most 2**63 - 1, so every
    sum of some of them lies in the int64 range.  Only when the largest times
    the count could pass it are the degrees summed.
    """
    return not len(degrees) or int(degrees.max()) * len(degrees) <= INT64_MAX \
        or sum(degrees.tolist()) <= INT64_MAX


TABLE_MIN = 1 << 16  # integers spanning at most this many values are ranked by a table (512 KB at most)


def unique_inverse(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, through a presence table
    when the values span at most ``TABLE_MIN``."""
    if len(values):
        low, high = int(values.min()), int(values.max())
        if high - low < TABLE_MIN:
            place = values - low
            present = np.zeros(high - low + 1, dtype=bool)
            present[place] = True
            rank = np.cumsum(present) - 1
            return present.nonzero()[0] + low, rank[place]
    return np.unique(values, return_inverse=True)


def lookup(codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """An index into the sorted distinct ``codes`` for each query: the query's
    own place when ``codes`` holds it, some valid index otherwise.

    Codes that span few values are looked up in a table indexed by
    ``code - codes[0]``; others by ``searchsorted`` on sorted queries, whose
    indices are scattered back to query order.  Spans are Python ints, as
    codes may sit at both ends of the int64 range.
    """
    if not len(codes) or not len(queries):
        return np.zeros(len(queries), dtype=np.intp)
    low, high = int(codes[0]), int(codes[-1])
    span = high - low + 1
    if span <= TABLE_MIN:
        table = np.zeros(span, dtype=np.intp)
        table[codes - low] = np.arange(len(codes))
        return table[np.minimum(np.maximum(queries, low), high) - low]
    by_query = np.argsort(queries)
    j = np.empty(len(queries), dtype=np.intp)
    j[by_query] = np.minimum(np.searchsorted(codes, queries[by_query]), len(codes) - 1)
    return j


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of int64 ``values``, from one default sort.

    numpy sorts int64 with its fast kind only by default; a stable kind falls
    back to a merge sort or timsort.  The keys ``(value - low) * len + place``
    are distinct and ordered as the stable sort orders the places, so their
    sort taken ``% len`` is that order.  Where a key could pass int64 (the
    span of the values times their count past 2**63), the stable argsort stays.
    """
    size = len(values)
    if size:
        low, high = int(values.min()), int(values.max())
        if (high - low + 1) * size <= 1 << 63:
            keys = np.subtract(values, low, dtype=np.int64)
            keys *= size
            keys += np.arange(size)
            keys.sort()
            return np.remainder(keys, size, out=keys)
    return np.argsort(values, kind="stable")


_UNIFORM_BLOCK = 1024  # uniforms drawn from the generator at once


def uniforms(rng: np.random.Generator) -> Iterator[float]:
    """Uniforms on [0, 1), taken in order from ``rng.random(_UNIFORM_BLOCK)`` blocks.

    A block is drawn only when the previous one is used up, so after N
    uniforms ``rng`` stands where ``ceil(N / _UNIFORM_BLOCK) * _UNIFORM_BLOCK``
    scalar ``rng.random()`` calls leave it, and gives the same values.
    An index below m is ``int(u * m)``, which is below m for every u < 1 and
    m <= 2**53.  As u is a multiple of 2**-53, each index has probability
    1/m to within 2**-52 (the rounding of u * m moves each cell boundary by
    at most one grid point), a relative bias below m / 2**52.
    """
    return itertools.chain.from_iterable(iter(lambda: rng.random(_UNIFORM_BLOCK).tolist(), None))


def pick(items: list, k: int, draw: Callable[[], float]) -> list:
    """Move a uniform k-subset of ``items`` (``k <= len(items)``) to its front, in pick order, and return it.

    A partial Fisher-Yates shuffle (Durstenfeld, CACM 7(7), 1964): pick t
    swaps in a uniform one of the items from place t on, one uniform of ``draw`` each.
    """
    m = len(items)
    for t in range(k):
        j = t + int(draw() * (m - t))
        items[t], items[j] = items[j], items[t]
    return items[:k]


class MultiGraph:
    """Immutable undirected multigraph on vertices 0..n-1, with n <= ``MAX_VERTICES``.

    Adjacency is one flat array of neighbor rows, each sorted by target, an
    order callers rely on; neighbor bags are materialized on demand.  A graph
    holds 16 bytes per edge in ``edge_array`` and, for the CSR, 16 per edge
    and 16 per vertex.  The CSR is built in one buffer of keys, sorted and
    reduced to targets in place, so drawing a graph of any family at mean
    degree 10 peaks at no more than 1.25 times those bytes.
    """

    __slots__ = ("n", "edge_array", "_offsets", "_targets", "_degrees")

    def __init__(self, n: int, edges: Iterable[Edge] | np.ndarray):
        check_int(n, "vertex count")
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if n > MAX_VERTICES:
            raise ValueError(f"multigraphs need n <= {MAX_VERTICES}, got {n}")
        self.n = int(n)
        arr = vertex_ids(edges, "edge endpoints")
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError(f"edge endpoint out of range for n={n}")
        self.edge_array = arr
        # one buffer of the keys u * n + v of both directions, sorted and reduced
        # to their targets in place: no full-size temporary beyond it
        keys = np.multiply(arr.T, n, out=np.empty((2, len(arr)), dtype=np.int64))
        keys += arr[:, ::-1].T
        keys = keys.reshape(-1)
        keys.sort()
        self._targets = np.remainder(keys, n, out=keys)
        self._degrees = np.bincount(arr.ravel(), minlength=n)
        self._offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=self._offsets[1:])

    def __repr__(self) -> str:
        """``MultiGraph(n, [[u, v], ...])``, which ``eval`` reads back as an equal graph."""
        return f"MultiGraph({self.n}, {self.edge_array.tolist()!r})"

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def degree(self, v: int) -> int:
        """Multiplicity-aware neighbor count; a self-loop contributes 2."""
        self._check_vertex(v)
        return int(self._degrees[v])

    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Every neighbor row as CSR ``(offsets, targets)``: v's sorted neighbor
        occurrences are ``targets[offsets[v]:offsets[v + 1]]``, unchecked."""
        return self._offsets, self._targets

    def neighbor_ids(self, v: int) -> np.ndarray:
        """Neighbor occurrences of v, sorted (a loop lists v twice)."""
        self._check_vertex(v)
        return self._targets[self._offsets[v]:self._offsets[v + 1]]

    def neighbor_lists(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted neighbor occurrences of each vertex in turn, as CSR (offsets, targets)."""
        if len(vertices) and (vertices.min() < 0 or vertices.max() >= self.n):
            raise ValueError(f"vertex out of range for n={self.n}")
        counts = self._degrees[vertices]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        shift = np.repeat(self._offsets[vertices] - offsets[:-1], counts)
        return offsets, self._targets[np.arange(offsets[-1]) + shift]

    def neighbors(self, v: int) -> Counter:
        """A fresh neighbor bag of v."""
        return Counter(self.neighbor_ids(v).tolist())


_WEDGE_BLOCK = 1 << 14  # wedges checked per numpy batch, to bound memory


def triangle_counts(n: int, edges: np.ndarray) -> np.ndarray:
    """Triangles through each vertex of a simple graph on 0..n-1.

    The forward algorithm of Schank & Wagner ("Finding, counting and listing
    all triangles in large graphs", WEA 2005): orient each edge from its lower
    (degree, id) end to its higher one, pair up the out-neighbors of every
    vertex, and look each pair's closing edge up among the sorted edge keys.
    Each triangle is found once, from its lowest end.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    keys = np.minimum(u, v) * n + np.maximum(u, v)
    ascending = np.sort(keys)
    if (u == v).any() or (ascending[1:] == ascending[:-1]).any():
        # a fault is there: the stable order names the one met first in edge order
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]  # later copies of a pair
        first_fault = np.r_[np.flatnonzero(u == v), repeats].min()
        if u[first_fault] == v[first_fault]:
            raise ValueError("clustering statistics need a loop-free graph")
        raise ValueError("clustering statistics need a graph without parallel edges")
    del keys, ascending

    rank = np.empty(n, dtype=np.int64)
    rank[stable_order(np.bincount(edges.ravel(), minlength=n))] = np.arange(n)
    keys = np.sort(np.minimum(rank[u], rank[v]) * n + np.maximum(rank[u], rank[v]))
    low, high = np.divmod(keys, n)
    # a rank's out-neighbors form one ascending run of `keys`; each position
    # opens one wedge with every later position of its run
    later = np.searchsorted(low, low, side="right") - np.arange(len(keys)) - 1
    before = np.cumsum(later) - later
    bounds = np.r_[np.searchsorted(before, np.arange(0, later.sum(), _WEDGE_BLOCK)), len(keys)]
    by_rank = np.zeros(n, dtype=np.int64)
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        count = later[start:stop]
        first = np.repeat(np.arange(start, stop), count)
        second = first + 1 + np.arange(len(first)) - np.repeat(before[start:stop] - before[start], count)
        closing = high[first] * n + high[second]
        hit = keys[np.minimum(np.searchsorted(keys, closing), len(keys) - 1)] == closing
        by_rank += np.bincount(np.r_[low[first[hit]], high[first[hit]], high[second[hit]]], minlength=n)
    return by_rank[rank]


def mean_local_clustering(degrees: np.ndarray, triangles: np.ndarray) -> float:
    """Mean over all vertices of triangles / (d choose 2); degree < 2 contributes 0."""
    degrees = np.asarray(degrees, dtype=np.int64)
    wide = degrees >= 2
    local = np.asarray(triangles)[wide] / (degrees[wide] * (degrees[wide] - 1) / 2.0)
    # cumsum adds in vertex order, one float at a time; np.sum would add pairwise
    return float(np.cumsum(local)[-1]) / len(degrees) if len(local) else 0.0


def mean_degree(g: MultiGraph, vertices: Iterable[int]) -> float:
    """Arithmetic mean degree over a non-empty vertex collection."""
    total = 0
    count = 0
    for v in vertices:
        total += g.degree(v)
        count += 1
    if count == 0:
        raise ValueError("mean degree of an empty vertex set is undefined")
    return total / count


def harmonic_mean_degree(g: MultiGraph, vertices: Iterable[int]) -> float:
    """Harmonic mean degree; rejects zero-degree members outright."""
    return harmonic_mean(g.degree(v) for v in vertices)


def harmonic_mean(values: Iterable[int | float]) -> float:
    """Harmonic mean of positive numbers (reported degrees, typically)."""
    inv = 0.0
    count = 0
    for d in values:
        if d <= 0:
            raise ValueError("harmonic mean requires strictly positive values")
        inv += 1.0 / d
        count += 1
    if count == 0:
        raise ValueError("harmonic mean of an empty collection is undefined")
    return count / inv


def _removals_by_vertex(forest_edges: Iterable[Edge]) -> dict[int, Counter]:
    """Per-vertex bag of neighbor occurrences consumed by forest edges."""
    removals: dict[int, Counter] = {}
    for a, b in forest_edges:
        removals.setdefault(a, Counter())[b] += 1
        removals.setdefault(b, Counter())[a] += 1
    return removals


def _free_bag(g: MultiGraph, u: int, removals: Counter | None) -> Counter:
    base = g.neighbors(u)
    if not removals:
        return base
    if not removals <= base:
        raise ValueError(f"a forest edge at vertex {u} is not present in the graph")
    return base - removals


def free_neighborhood(g: MultiGraph, u: int, forest_edges: Iterable[Edge]) -> Counter:
    """Neighbor bag of u with one occurrence removed per incident forest edge."""
    return _free_bag(g, u, _removals_by_vertex(forest_edges).get(u))


def free_ends(g: MultiGraph, subjects: Iterable[int], forest_edges: Sequence[Edge]) -> Counter:
    """R(S, F): pooled free neighborhoods over the sample."""
    removals = _removals_by_vertex(forest_edges)
    pooled = Counter()
    for u in subjects:
        pooled.update(_free_bag(g, u, removals.get(u)))
    return pooled


def matches(g: MultiGraph, subjects: Iterable[int], forest_edges: Sequence[Edge]) -> Counter:
    """M(S, F): free ends that land back inside the sample.

    The sample enters the intersection with multiplicity 1 per member, so a
    neighbor reached twice through parallel edges still matches only once.
    """
    subject_list = list(subjects)
    subject_bag = Counter(set(subject_list))
    removals = _removals_by_vertex(forest_edges)
    pooled = Counter()
    for u in subject_list:
        pooled.update(_free_bag(g, u, removals.get(u)) & subject_bag)
    return pooled


def cross_seed_matches(
    g: MultiGraph,
    subjects: Iterable[int],
    forest_edges: Sequence[Edge],
    seed_of: Mapping[int, int],
    seed: int,
) -> Counter:
    """X(s, F): free ends from seed s's component landing in other components."""
    members = set(subjects)
    if seed not in members or seed_of.get(seed) != seed:
        raise ValueError(f"{seed} is not a seed of this sample")
    component = [u for u in members if seed_of[u] == seed]
    complement = Counter(u for u in members if seed_of[u] != seed)
    removals = _removals_by_vertex(forest_edges)
    pooled = Counter()
    for u in component:
        pooled.update(_free_bag(g, u, removals.get(u)) & complement)
    return pooled
