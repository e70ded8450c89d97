"""Samplers for the synthetic graph families used in the experiments.

Five families, all parameterized by a target mean degree ``lam`` and size
``n``: configuration graphs with Lognormal / Poisson / Exponential degree
draws (degrees are 1 + X so nobody is isolated), preferential-attachment
graphs, and Erdos-Renyi graphs.  Configuration graphs may contain parallel
edges and self-loops; that is intentional and the estimators cope.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .graph import MultiGraph, mean_local_clustering, triangle_counts


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
    return MultiGraph(len(degrees), stubs.reshape(-1, 2))


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

    # ends holds every edge as two consecutive entries (u, v).  It is also
    # the endpoint pool: one entry drawn uniformly is a vertex drawn ~ degree,
    # and mixing that with a uniform vertex pick realizes weights 1 + degree.
    ends = array("q")
    for u in range(m0):
        for v in range(u + 1, m0):
            ends.extend((u, v))

    for i in range(m0, n):
        delta = base if rng.random() < p_low else base + 1
        delta = min(delta, i)
        picked: list[int] = []
        total_weight = i + len(ends)  # sum over prior nodes of (1 + degree)
        while len(picked) < delta:
            if rng.random() * total_weight < i:
                w = int(rng.integers(i))
            else:
                w = ends[int(rng.integers(len(ends)))]
            if w not in picked:
                picked.append(w)
        # the pool must only reflect the graph as it stood before node i,
        # so i's endpoints enter it after all of i's picks are made
        for w in picked:
            ends.extend((i, w))
    return MultiGraph(n, np.frombuffer(ends, dtype=np.int64).reshape(-1, 2))


_MAX_ER_N = (1 << 31) - 1  # keeps 2 * n**2, the largest pair-index product, inside int64
_GAP_BLOCK = 1 << 20       # most geometric gaps drawn at once


def erdos_renyi(lam: float, n: int, rng: np.random.Generator) -> MultiGraph:
    """G(n, p) with p = lam / (n - 1); no self-loops; n at most 2**31 - 1.

    Pairs (i, j), i < j, are enumerated in lexicographic order and the gaps
    between chosen pair indices are geometric (Batagelj & Brandes, "Efficient
    generation of large random networks", PRE 71, 036113, 2005).  The gaps
    are drawn in blocks, and the generator is left exactly where one scalar
    draw per gap, up to the first gap past the last pair, would leave it.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    if n > _MAX_ER_N:
        raise ValueError(f"Erdos-Renyi graphs need n <= {_MAX_ER_N}, got {n}")
    if lam < 0 or lam > n - 1:
        raise ValueError(f"mean degree must lie in [0, n-1], got {lam}")
    p = lam / (n - 1)
    if p == 0.0:
        return MultiGraph(n, np.empty((0, 2), dtype=np.int64))
    if p == 1.0:
        return MultiGraph(n, np.stack(np.triu_indices(n, k=1), axis=1).astype(np.int64, copy=False))

    total_pairs = n * (n - 1) // 2
    expected = total_pairs * p
    block = min(int(expected + 6.0 * math.sqrt(expected)) + 64, _GAP_BLOCK)
    chosen = []
    t = -1  # the last chosen pair index
    while True:
        state = rng.bit_generator.state
        # any gap past the last pair ends the walk, so clipping it changes no
        # index before the end and keeps the sums up to there inside int64
        ts = np.minimum(rng.geometric(p, size=block), total_pairs + 1)
        np.cumsum(ts, out=ts)
        ts += t
        ended = ts >= total_pairs
        if ended.any():
            past = int(ended.argmax())
            # rewind and redraw the gaps that one draw per gap would have taken
            rng.bit_generator.state = state
            rng.geometric(p, size=past + 1)
            chosen.append(ts[:past])
            break
        chosen.append(ts)
        t = int(ts[-1])
    ts = chosen[0] if len(chosen) == 1 else np.concatenate(chosen)
    return MultiGraph(n, _pairs_from_indices(ts, n))


def _pairs_from_indices(t: np.ndarray, n: int) -> np.ndarray:
    """Invert the lexicographic enumeration of pairs (i, j), i < j, of 0..n-1.

    Returns the (len(t), 2) int64 array of the pairs with indices ``t``.
    """
    if n > _MAX_ER_N:
        raise ValueError(f"pair indices need n <= {_MAX_ER_N}, got {n}")
    t = np.asarray(t, dtype=np.int64)
    if len(t) and (t.min() < 0 or t.max() >= n * (n - 1) // 2):
        raise ValueError(f"pair index out of range for n={n}")

    def before(i):  # pairs whose first coordinate is < i
        return i * (2 * n - i - 1) // 2

    # the real root of before(i) = t + 1, then integer fix-ups for rounding
    disc = np.maximum((2.0 * n - 1.0) ** 2 - 8.0 * (t + 1), 0.0)
    i = np.clip(np.floor((2.0 * n - 1.0 - np.sqrt(disc)) / 2.0), 0, n - 2).astype(np.int64)
    while (high := before(i) > t).any():
        i -= high
    while (low := before(i + 1) <= t).any():
        i += low
    return np.stack([i, i + 1 + t - before(i)], axis=1)


class Family(Enum):
    """The five synthetic families of the evaluation grid."""

    CONFIG_LOGNORMAL = "lognormal"
    CONFIG_POISSON = "poisson"
    CONFIG_EXPONENTIAL = "exponential"
    BARABASI_ALBERT = "ba"
    ERDOS_RENYI = "er"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown family {value!r} (expected one of {sorted(fam.value for fam in cls)})")


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


def average_clustering(neighbor_sets: Sequence[set[int]]) -> float:
    """Mean local clustering over all vertices (degree < 2 contributes 0)."""
    degrees = np.array([len(nbrs) for nbrs in neighbor_sets], dtype=np.int64)
    heads = np.fromiter(itertools.chain.from_iterable(neighbor_sets), np.int64, int(degrees.sum()))
    tails = np.repeat(np.arange(len(neighbor_sets)), degrees)
    edges = np.stack([tails, heads], axis=1)[tails < heads]
    return mean_local_clustering(degrees, triangle_counts(len(neighbor_sets), edges))


_MAX_SWAPS = 500_000    # accepted swaps before rewiring gives up
_CHECK_EVERY = 1000     # accepted swaps between two clustering checks


class _RewireState:
    """Simple-graph adjacency with per-vertex triangle counts kept current.

    Row v is ``slots[start[v]:start[v] + fill[v]]``, a fixed-width run of one
    flat list.  Its width is v's simple degree, which no swap changes: each
    endpoint loses one neighbor and gains one.  Removal moves the row's last
    neighbor into the freed slot and insertion appends, so between swaps
    every row is full.
    """

    def __init__(self, n: int, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        edges = edges[edges[:, 0] != edges[:, 1]]
        keys = np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1])
        simple = edges[np.sort(np.unique(keys, return_index=True)[1])]  # first copies, in order
        ends = simple.ravel()
        self.degrees = np.bincount(ends, minlength=n)
        self.start = (np.cumsum(self.degrees) - self.degrees).tolist()
        self.fill = self.degrees.tolist()
        # each row lists its neighbors in the order of the edges that brought them
        self.slots = simple[:, ::-1].ravel()[np.argsort(ends, kind="stable")].tolist()
        self.tri = triangle_counts(n, simple).tolist()

    def row(self, v: int) -> list[int]:
        first = self.start[v]
        return self.slots[first:first + self.fill[v]]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.row(u)

    def common(self, u: int, v: int) -> set[int]:
        return set(self.row(u)).intersection(self.row(v))

    def swap(self, v: int, a: int, w: int, b: int) -> None:
        """Replace the edges (v, a) and (w, b) by (v, w) and (a, b)."""
        slots, start, fill, tri = self.slots, self.start, self.fill, self.tri
        for x, y, step in ((v, a, -1), (w, b, -1), (v, w, 1), (a, b, 1)):
            common = self.common(x, y)
            for z in common:
                tri[z] += step
            tri[x] += step * len(common)
            tri[y] += step * len(common)
            for p, q in ((x, y), (y, x)):
                end = start[p] + fill[p]
                if step < 0:
                    # the row's last neighbor fills the freed slot
                    slots[slots.index(q, start[p], end)] = slots[end - 1]
                else:
                    slots[end] = q
                fill[p] += step

    def mean_clustering(self) -> float:
        return mean_local_clustering(self.degrees, self.tri)

    def edge_array(self) -> np.ndarray:
        """Every edge once as (u, v) with u < v, in sorted order."""
        pairs = np.stack([np.repeat(np.arange(len(self.degrees)), self.degrees), self.slots], axis=1)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def rewire_to_clustering(g: MultiGraph, target: float, rng: np.random.Generator) -> MultiGraph:
    """Degree-preserving triangle-closing rewiring until mean clustering >= target.

    Loops and parallel edges are dropped first (small degree perturbation on
    the random multigraphs this is meant for).  Each accepted move swaps the
    pair of edges (v, a), (w, b) for (v, w), (a, b) where v, w share the
    neighbor u, closing the triangle u-v-w while keeping every degree fixed
    and the graph simple.  The result lists its edges as sorted (u, v), u < v.
    """
    n = g.n
    state = _RewireState(n, g.edge_array)

    eligible = np.flatnonzero(state.degrees >= 2).tolist()
    if not eligible:
        raise ValueError("graph has no vertex with two distinct neighbors")

    swaps = attempts = next_check = 0
    max_attempts = _MAX_SWAPS * 20
    while attempts < max_attempts:
        if swaps >= next_check:
            if state.mean_clustering() >= target:
                break
            next_check = swaps + _CHECK_EVERY
        if swaps >= _MAX_SWAPS:
            break
        attempts += 1
        u = eligible[int(rng.integers(len(eligible)))]
        nbrs = state.row(u)
        i = int(rng.integers(len(nbrs)))
        j = int(rng.integers(len(nbrs) - 1))
        if j >= i:
            j += 1
        v, w = nbrs[i], nbrs[j]
        if state.has_edge(v, w):
            continue
        a = state.row(v)[int(rng.integers(state.fill[v]))]
        b = state.row(w)[int(rng.integers(state.fill[w]))]
        if a in (u, w) or b in (u, v) or a == b or state.has_edge(a, b):
            continue
        # only accept moves that create more triangles than they destroy
        gain = len(state.common(v, w)) + len(state.common(a, b))
        loss = len(state.common(v, a)) + len(state.common(w, b))
        if gain + 1 <= loss:
            continue
        state.swap(v, a, w, b)
        swaps += 1

    return MultiGraph(n, state.edge_array())
