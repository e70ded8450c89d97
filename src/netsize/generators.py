"""Samplers for the synthetic graph families used in the experiments.

Five families, all parameterized by a target mean degree ``lam`` and size
``n``: configuration graphs with Lognormal / Poisson / Exponential degree
draws (degrees are 1 + X so nobody is isolated), preferential-attachment
graphs, and Erdos-Renyi graphs.  Configuration graphs may contain parallel
edges and self-loops; that is intentional and the estimators cope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .graph import MultiGraph


class DegreeKind(Enum):
    LOGNORMAL = "lognormal"
    POISSON = "poisson"
    EXPONENTIAL = "exponential"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class DegreeDistribution:
    """Degree law for configuration sampling.

    Parametric kinds draw X and use degree 1 + X, giving expected mean
    degree ``lam``.  Continuous draws are rounded half-up, then clamped to
    stay >= 1.
    """

    kind: DegreeKind
    lam: float = 0.0
    explicit_degrees: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind is DegreeKind.EXPLICIT:
            if self.explicit_degrees is None:
                raise ValueError("explicit kind needs explicit_degrees")
        elif self.lam < 1.0:
            raise ValueError(f"target mean degree must be >= 1, got {self.lam}")


def sample_degrees(dist: DegreeDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a length-n integer degree sequence (each >= 1 for parametric kinds)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if dist.kind is DegreeKind.EXPLICIT:
        degrees = np.asarray(dist.explicit_degrees, dtype=np.int64)
        if len(degrees) != n:
            raise ValueError(f"explicit degree sequence has length {len(degrees)}, expected {n}")
        if (degrees < 0).any():
            raise ValueError("explicit degrees must be non-negative")
        return degrees.copy()

    mean = dist.lam - 1.0
    if dist.kind is DegreeKind.POISSON:
        x = rng.poisson(mean, size=n).astype(np.int64)
        return 1 + x
    if dist.kind is DegreeKind.EXPONENTIAL:
        x = rng.exponential(scale=mean, size=n) if mean > 0 else np.zeros(n)
    elif dist.kind is DegreeKind.LOGNORMAL:
        if mean <= 0:
            raise ValueError("lognormal degrees need a target mean degree > 1")
        # moment-match a lognormal to mean lam-1 and standard deviation 1
        sigma2 = math.log(1.0 + 1.0 / (mean * mean))
        mu = math.log(mean) - sigma2 / 2.0
        x = rng.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)
    else:  # pragma: no cover
        raise ValueError(f"unknown degree kind {dist.kind}")
    rounded = np.floor(1.0 + x + 0.5).astype(np.int64)  # round half-up
    return np.maximum(rounded, 1)


def configuration_graph(degrees: Sequence[int], rng: np.random.Generator) -> MultiGraph:
    """Uniform stub-matching multigraph with the prescribed degree sequence.

    An odd stub total is repaired by bumping one uniformly chosen vertex's
    degree by 1 (an O(1/n) perturbation).
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if len(degrees) == 0:
        raise ValueError("empty degree sequence")
    if (degrees < 0).any():
        raise ValueError("degrees must be non-negative")
    degrees = degrees.copy()
    if int(degrees.sum()) % 2 == 1:
        degrees[rng.integers(len(degrees))] += 1
    stubs = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    return MultiGraph(len(degrees), [(int(u), int(v)) for u, v in pairs])


def barabasi_albert(lam: float, n: int, rng: np.random.Generator) -> MultiGraph:
    """Preferential-attachment graph with expected mean degree -> lam.

    Starts from a complete graph on ceil(lam) vertices.  Each arriving node
    attaches to floor(lam/2) or floor(lam/2)+1 distinct prior nodes (the
    split keeps the expected number of new edges at lam/2), chosen
    sequentially without replacement with probability proportional to
    1 + current degree.
    """
    if lam < 2:
        raise ValueError(f"mean degree must be >= 2, got {lam}")
    if n <= lam:
        raise ValueError(f"need n > lam, got n={n}, lam={lam}")
    m0 = math.ceil(lam)
    base = math.floor(lam / 2.0)
    p_low = 1.0 + base - lam / 2.0  # P(new node adds `base` edges)

    edges: list[tuple[int, int]] = []
    # endpoint pool: sampling one entry uniformly is sampling ~ degree;
    # mixing it with a uniform vertex pick realizes weights 1 + degree.
    endpoints: list[int] = []
    for u in range(m0):
        for v in range(u + 1, m0):
            edges.append((u, v))
            endpoints.append(u)
            endpoints.append(v)

    for i in range(m0, n):
        delta = base if rng.random() < p_low else base + 1
        delta = min(delta, i)
        picked: list[int] = []
        chosen: set[int] = set()
        total_weight = i + 2 * len(edges)  # sum over prior nodes of (1 + degree)
        while len(picked) < delta:
            if rng.random() * total_weight < i:
                w = int(rng.integers(i))
            else:
                w = endpoints[int(rng.integers(len(endpoints)))]
            if w not in chosen:
                chosen.add(w)
                picked.append(w)
        # the pool must only reflect the graph as it stood before node i,
        # so i's endpoints enter it after all of i's picks are made
        for w in picked:
            edges.append((i, w))
            endpoints.append(i)
            endpoints.append(w)
    return MultiGraph(n, edges)


def erdos_renyi(lam: float, n: int, rng: np.random.Generator) -> MultiGraph:
    """G(n, p) with p = lam / (n - 1); no self-loops."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if lam < 0 or lam > n - 1:
        raise ValueError(f"mean degree must lie in [0, n-1], got {lam}")
    p = lam / (n - 1)
    if p == 0.0:
        return MultiGraph(n, [])
    total_pairs = n * (n - 1) // 2
    if p == 1.0:
        return MultiGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    # geometric skipping over the linearized upper triangle
    edges: list[tuple[int, int]] = []
    t = -1
    while True:
        t += int(rng.geometric(p))
        if t >= total_pairs:
            break
        edges.append(_pair_from_index(t, n))
    return MultiGraph(n, edges)


def _pair_from_index(t: int, n: int) -> tuple[int, int]:
    """Invert the lexicographic enumeration of pairs (i, j), i < j."""
    # pairs with first coordinate < i:  i*(2n - i - 1) / 2
    disc = (2 * n - 1) * (2 * n - 1) - 8 * (t + 1)
    i = (2 * n - 1 - math.isqrt(disc) - 1) // 2
    while i * (2 * n - i - 1) // 2 > t:
        i -= 1
    while (i + 1) * (2 * n - i - 2) // 2 <= t:
        i += 1
    j = i + 1 + (t - i * (2 * n - i - 1) // 2)
    return i, j


class Family(Enum):
    """The five synthetic families of the evaluation grid."""

    CONFIG_LOGNORMAL = "lognormal"
    CONFIG_POISSON = "poisson"
    CONFIG_EXPONENTIAL = "exponential"
    BARABASI_ALBERT = "ba"
    ERDOS_RENYI = "er"


_CONFIG_KINDS = {
    Family.CONFIG_LOGNORMAL: DegreeKind.LOGNORMAL,
    Family.CONFIG_POISSON: DegreeKind.POISSON,
    Family.CONFIG_EXPONENTIAL: DegreeKind.EXPONENTIAL,
}


@dataclass(frozen=True)
class GraphFamily:
    """A fully specified sample space of random graphs."""

    family: Family
    lam: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two vertices")
        if self.lam < 1:
            raise ValueError("mean degree must be >= 1")

    def sample(self, rng: np.random.Generator) -> MultiGraph:
        return sample_graph(self.family, self.lam, self.n, rng)


def sample_graph(family: Family, lam: float, n: int, rng: np.random.Generator) -> MultiGraph:
    """Draw one random graph from the requested family."""
    if family in _CONFIG_KINDS:
        dist = DegreeDistribution(_CONFIG_KINDS[family], lam)
        return configuration_graph(sample_degrees(dist, n, rng), rng)
    if family is Family.BARABASI_ALBERT:
        return barabasi_albert(lam, n, rng)
    if family is Family.ERDOS_RENYI:
        return erdos_renyi(lam, n, rng)
    raise ValueError(f"unknown family {family}")


def average_clustering(adj_sets: Sequence[set[int]]) -> float:
    """Mean local clustering over all vertices (degree < 2 contributes 0)."""
    n = len(adj_sets)
    if n == 0:
        return 0.0
    total = 0.0
    for v in range(n):
        nbrs = adj_sets[v]
        d = len(nbrs)
        if d < 2:
            continue
        links = 0
        for w in nbrs:
            links += sum(1 for x in adj_sets[w] if x > w and x in nbrs)
        total += links / (d * (d - 1) / 2.0)
    return total / n


def _common_count(adj_set: Sequence[set[int]], u: int, v: int) -> int:
    a, b = (u, v) if len(adj_set[u]) <= len(adj_set[v]) else (v, u)
    return sum(1 for x in adj_set[a] if x in adj_set[b])


class _RewireState:
    """Simple-graph adjacency with per-vertex triangle counts kept current."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.adj_set: list[set[int]] = [set() for _ in range(n)]
        self.adj_list: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u != v and v not in self.adj_set[u]:
                self._insert(u, v)
        self.tri = [0] * n
        for v in range(n):
            nbrs = self.adj_set[v]
            self.tri[v] = sum(
                sum(1 for x in self.adj_set[w] if x in nbrs) for w in nbrs
            ) // 2

    def _insert(self, u: int, v: int) -> None:
        self.adj_set[u].add(v)
        self.adj_set[v].add(u)
        self.adj_list[u].append(v)
        self.adj_list[v].append(u)

    def _unlink(self, u: int, v: int) -> None:
        self.adj_set[u].discard(v)
        self.adj_set[v].discard(u)
        for a, b in ((u, v), (v, u)):
            lst = self.adj_list[a]
            idx = lst.index(b)
            lst[idx] = lst[-1]
            lst.pop()

    def remove_edge(self, u: int, v: int) -> None:
        a, b = (u, v) if len(self.adj_set[u]) <= len(self.adj_set[v]) else (v, u)
        for x in self.adj_set[a]:
            if x in self.adj_set[b]:
                self.tri[x] -= 1
                self.tri[u] -= 1
                self.tri[v] -= 1
        self._unlink(u, v)

    def add_edge(self, u: int, v: int) -> None:
        a, b = (u, v) if len(self.adj_set[u]) <= len(self.adj_set[v]) else (v, u)
        for x in self.adj_set[a]:
            if x in self.adj_set[b]:
                self.tri[x] += 1
                self.tri[u] += 1
                self.tri[v] += 1
        self._insert(u, v)

    def mean_clustering(self) -> float:
        total = 0.0
        for v, t in enumerate(self.tri):
            d = len(self.adj_set[v])
            if d >= 2:
                total += t / (d * (d - 1) / 2.0)
        return total / len(self.tri) if self.tri else 0.0


def rewire_to_clustering(
    g: MultiGraph,
    target: float,
    rng: np.random.Generator,
    max_swaps: int = 500_000,
    check_every: int = 1000,
) -> MultiGraph:
    """Degree-preserving triangle-closing rewiring until mean clustering >= target.

    Loops and parallel edges are dropped first (small degree perturbation on
    the random multigraphs this is meant for).  Each accepted move swaps the
    pair of edges (v, a), (w, b) for (v, w), (a, b) where v, w share the
    neighbor u, closing the triangle u-v-w while keeping every degree fixed
    and the graph simple.
    """
    n = g.n
    state = _RewireState(n, ((int(u), int(v)) for u, v in g.edge_array))
    adj_set, adj_list = state.adj_set, state.adj_list

    eligible = [v for v in range(n) if len(adj_set[v]) >= 2]
    if not eligible:
        raise ValueError("graph has no vertex with two distinct neighbors")

    swaps = 0
    attempts = 0
    next_check = 0
    max_attempts = max_swaps * 20
    while attempts < max_attempts:
        if swaps >= next_check:
            if state.mean_clustering() >= target:
                break
            next_check = swaps + check_every
        if swaps >= max_swaps:
            break
        attempts += 1
        u = eligible[int(rng.integers(len(eligible)))]
        nbrs = adj_list[u]
        i = int(rng.integers(len(nbrs)))
        j = int(rng.integers(len(nbrs) - 1))
        if j >= i:
            j += 1
        v, w = nbrs[i], nbrs[j]
        if w in adj_set[v]:
            continue
        a_opts = adj_list[v]
        b_opts = adj_list[w]
        a = a_opts[int(rng.integers(len(a_opts)))]
        b = b_opts[int(rng.integers(len(b_opts)))]
        if a in (u, w) or b in (u, v) or a == b or b in adj_set[a]:
            continue
        # only accept moves that create more triangles than they destroy
        gain = _common_count(adj_set, v, w) + _common_count(adj_set, a, b)
        loss = _common_count(adj_set, v, a) + _common_count(adj_set, w, b)
        if gain + 1 <= loss:
            continue
        state.remove_edge(v, a)
        state.remove_edge(w, b)
        state.add_edge(v, w)
        state.add_edge(a, b)
        swaps += 1

    edges = [(u, v) for u in range(n) for v in adj_set[u] if u < v]
    return MultiGraph(n, edges)
