"""Undirected multigraphs and the neighborhood bookkeeping used by the estimators.

A ``MultiGraph`` permits parallel edges and self-loops (a loop counts twice
toward its endpoint's degree and appears twice in that vertex's neighbor
bag).  On top of it live the sampled-subgraph quantities: the free
neighborhood of a vertex once referral edges are removed, the pooled free
ends R(S, F), the in-sample matches M(S, F), and the cross-seed matches
X(s, F) that only count encounters between different referral components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .multiset import Multiset, mintersect

Edge = tuple[int, int]


class MultiGraph:
    """Immutable undirected multigraph on vertices 0..n-1.

    Adjacency is kept in a flat sorted array; per-vertex neighbor bags are
    materialized on demand (samples touch only a few hundred vertices of a
    large graph).
    """

    __slots__ = ("n", "edge_array", "_offsets", "_targets", "_degrees", "_bag_cache")

    def __init__(self, n: int, edges: Iterable[Edge] | np.ndarray):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError(f"edge endpoint out of range for n={n}")
        self.edge_array = arr
        sources = np.concatenate([arr[:, 0], arr[:, 1]])
        targets = np.concatenate([arr[:, 1], arr[:, 0]])
        order = np.argsort(sources, kind="stable")
        self._targets = targets[order]
        counts = np.bincount(sources, minlength=n)
        self._offsets = np.concatenate([[0], np.cumsum(counts)])
        self._degrees = counts
        self._bag_cache: dict[int, Multiset] = {}

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    @property
    def edges(self) -> list[Edge]:
        return [(int(u), int(v)) for u, v in self.edge_array]

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def degree(self, v: int) -> int:
        """Multiplicity-aware neighbor count; a self-loop contributes 2."""
        self._check_vertex(v)
        return int(self._degrees[v])

    def degrees(self) -> np.ndarray:
        return self._degrees

    def neighbor_ids(self, v: int) -> np.ndarray:
        """Flat array of neighbor occurrences of v (a loop lists v twice)."""
        self._check_vertex(v)
        return self._targets[self._offsets[v]:self._offsets[v + 1]]

    def neighbor_lists(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor occurrences of each vertex in turn, as CSR (offsets, targets)."""
        if len(vertices) and (vertices.min() < 0 or vertices.max() >= self.n):
            raise ValueError(f"vertex out of range for n={self.n}")
        counts = self._degrees[vertices]
        offsets = np.r_[0, np.cumsum(counts)]
        shift = np.repeat(self._offsets[vertices] - offsets[:-1], counts)
        return offsets, self._targets[np.arange(offsets[-1]) + shift]

    def neighbors(self, v: int) -> Multiset:
        """Neighbor bag of v (cached; treat as read-only)."""
        bag = self._bag_cache.get(v)
        if bag is None:
            bag = Multiset(int(w) for w in self.neighbor_ids(v))
            self._bag_cache[v] = bag
        return bag


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


def _removals_by_vertex(forest_edges: Iterable[Edge]) -> dict[int, Multiset]:
    """Per-vertex bag of neighbor occurrences consumed by forest edges."""
    removals: dict[int, Multiset] = {}
    for a, b in forest_edges:
        removals.setdefault(a, Multiset())[b] += 1
        removals.setdefault(b, Multiset())[a] += 1
    return removals


def _free_bag(g: MultiGraph, u: int, removals: Multiset | None) -> Multiset:
    base = g.neighbors(u)
    if not removals:
        return base
    result = Multiset()
    for w, count in base.items():
        kept = count - removals[w]
        if kept > 0:
            result[w] = kept
    removed = base.cardinality() - result.cardinality()
    if removed != removals.cardinality():
        raise ValueError(f"a forest edge at vertex {u} is not present in the graph")
    return result


def free_neighborhood(g: MultiGraph, u: int, forest_edges: Iterable[Edge]) -> Multiset:
    """Neighbor bag of u with one occurrence removed per incident forest edge."""
    removals = _removals_by_vertex(forest_edges).get(u)
    bag = _free_bag(g, u, removals)
    return Multiset(bag) if bag is g.neighbors(u) else bag


def free_ends(g: MultiGraph, subjects: Iterable[int], forest_edges: Sequence[Edge]) -> Multiset:
    """R(S, F): pooled free neighborhoods over the sample."""
    removals = _removals_by_vertex(forest_edges)
    pooled = Multiset()
    for u in subjects:
        pooled.update(_free_bag(g, u, removals.get(u)))
    return pooled


def matches(g: MultiGraph, subjects: Iterable[int], forest_edges: Sequence[Edge]) -> Multiset:
    """M(S, F): free ends that land back inside the sample.

    The sample enters the intersection with multiplicity 1 per member, so a
    neighbor reached twice through parallel edges still matches only once.
    """
    subject_list = list(subjects)
    subject_bag = Multiset(set(subject_list))
    removals = _removals_by_vertex(forest_edges)
    pooled = Multiset()
    for u in subject_list:
        bag = _free_bag(g, u, removals.get(u))
        pooled.update(mintersect(bag, subject_bag))
    return pooled


def cross_seed_matches(
    g: MultiGraph,
    subjects: Iterable[int],
    forest_edges: Sequence[Edge],
    seed_of: Mapping[int, int],
    seed: int,
) -> Multiset:
    """X(s, F): free ends from seed s's component landing in other components."""
    members = set(subjects)
    if seed not in members or seed_of.get(seed) != seed:
        raise ValueError(f"{seed} is not a seed of this sample")
    component = [u for u in members if seed_of[u] == seed]
    complement = Multiset(u for u in members if seed_of[u] != seed)
    removals = _removals_by_vertex(forest_edges)
    pooled = Multiset()
    for u in component:
        bag = _free_bag(g, u, removals.get(u))
        pooled.update(mintersect(bag, complement))
    return pooled


@dataclass(frozen=True)
class ReferralForest:
    """Referral structure of a sample: who recruited whom, rooted at seeds."""

    edges: tuple[Edge, ...]          # ordered (recruiter, recruit) pairs
    seeds: tuple[int, ...]
    seed_of: dict[int, int] = field(compare=False)

    def __post_init__(self):
        seeds = set(self.seeds)
        recruits = [b for _, b in self.edges]
        if len(set(recruits)) != len(recruits):
            raise ValueError("a vertex was recruited more than once")
        if seeds & set(recruits):
            raise ValueError("a seed cannot also be a recruit")
        sampled = seeds | set(recruits)
        for a, _ in self.edges:
            if a not in sampled:
                raise ValueError(f"recruiter {a} is not part of the sample")
        if set(self.seed_of) != sampled:
            raise ValueError("seed map must cover exactly the sampled vertices")
        for s in seeds:
            if self.seed_of[s] != s:
                raise ValueError(f"seed {s} must map to itself")
        if len(self.edges) != len(sampled) - len(seeds):
            raise ValueError("edge count breaks the forest identity |F| = |S| - |D|")

    @property
    def size(self) -> int:
        return len(self.seed_of)
