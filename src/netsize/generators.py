"""Samplers for the synthetic graph families used in the experiments.

Five families (``Family``), all parameterized by a target mean degree
``lam`` and size ``n``: configuration graphs with Lognormal / Poisson /
Exponential degree draws (degrees are 1 + X so nobody is isolated),
preferential-attachment graphs, and Erdos-Renyi graphs.
``sample_graph(family, lam, n, rng)`` draws any of them;
``sample_degrees(family, lam, n, rng)`` draws a configuration family's
degree sequence, and ``configuration_graph`` pairs the stubs of any
explicit one.  Configuration graphs may contain parallel edges and
self-loops; that is intentional and the estimators cope.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal
from enum import Enum
from typing import Sequence

import numpy as np

from .graph import (INT64_MAX, MAX_VERTICES, MultiGraph, check_int, degree_sums_fit, flat_ids, is_int,
                    mean_local_clustering, pick, stable_order, triangle_counts, uniforms)


def sample_degrees(family: Family, lam: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a configuration family's length-n integer degree sequence, each degree >= 1.

    Each family draws X and uses degree 1 + X, giving expected mean degree
    ``lam``.  Continuous draws are rounded half-up, then clamped to stay >= 1.
    A degree or a degree total past the int64 range raises ``ValueError``.
    An explicit degree sequence goes straight to ``configuration_graph``.
    """
    if family not in _CONFIG_FAMILIES:
        raise ValueError(f"degree sequences are drawn for configuration families only, got {family}")
    check_family(family, lam, n)
    mean = lam - 1.0
    too_large = ValueError(f"a degree drawn for the {family.value} family at mean degree {lam} "
                           "does not fit in 64 bits")
    if family is Family.CONFIG_POISSON:
        try:
            x = rng.poisson(mean, size=n).astype(np.int64)
        except ValueError:  # numpy's "lam value too large", just below 2**63
            raise too_large from None
        if x.max() == INT64_MAX:
            raise too_large
        degrees = 1 + x
    else:
        if family is Family.CONFIG_EXPONENTIAL:
            x = rng.exponential(scale=mean, size=n) if mean > 0 else np.zeros(n)
        else:
            # moment-match a lognormal to mean lam-1 and standard deviation 1
            sigma2 = math.log(1.0 + 1.0 / (mean * mean))
            mu = math.log(mean) - sigma2 / 2.0
            x = rng.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)
        rounded = np.floor(1.0 + x + 0.5)  # round half-up
        if not rounded.max() < 2.0 ** 63:  # NaN fails too
            raise too_large
        degrees = np.maximum(rounded.astype(np.int64), 1)
    if not degree_sums_fit(degrees):
        raise ValueError(f"{family.value} degrees drawn at mean degree {lam} on {n} vertices "
                         "sum past the 64-bit range")
    return degrees


def configuration_graph(degrees: Sequence[int], rng: np.random.Generator) -> MultiGraph:
    """Uniform stub-matching multigraph with the prescribed degree sequence.

    An odd stub total is repaired by bumping one uniformly chosen vertex's
    degree by 1 (an O(1/n) perturbation).  The degrees must be ints, not
    floats or bools, and their total, bump included, must fit in int64.
    """
    degrees = flat_ids(degrees, "degrees")
    if len(degrees) == 0:
        raise ValueError("empty degree sequence")
    if (degrees < 0).any():
        raise ValueError("degrees must be non-negative")
    if not degree_sums_fit(degrees) or degrees.sum() == INT64_MAX:  # INT64_MAX is odd: no room to bump
        raise ValueError("the degrees sum past the 64-bit range")
    if int(degrees.sum()) % 2 == 1:
        degrees = degrees.copy()  # the caller's sequence is never written
        degrees[rng.integers(len(degrees))] += 1
    stubs = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    rng.shuffle(stubs)
    return MultiGraph(len(degrees), stubs.reshape(-1, 2))


_SLOT_BLOCK = 1 << 14  # pick slots resolved together
_CANDIDATES = 2         # candidates first drawn per pick slot


def barabasi_albert(lam: float, n: int, rng: np.random.Generator) -> MultiGraph:
    """Preferential-attachment graph with expected mean degree -> lam.

    Starts from a complete graph on ceil(lam) vertices.  Each arriving node
    attaches to floor(lam/2) or floor(lam/2)+1 distinct prior nodes (the
    split keeps the expected number of new edges at lam/2), chosen
    sequentially without replacement with probability proportional to
    1 + current degree.

    The picks are drawn as copies (Batagelj & Brandes, "Efficient generation
    of large random networks", PRE 71, 036113, 2005).  Every edge is two
    consecutive entries of one endpoint pool, and the pool length L_i before
    node i is known once all the pick counts are drawn.  Each pick slot of
    node i gets i.i.d. candidates x uniform on [0, i + L_i): x < i is the
    vertex x, otherwise pool entry x - i, which is a clique vertex, the
    source node of an earlier edge, or the target of an earlier pick slot.
    So a prior vertex is hit once directly and once per pool entry, with
    weight 1 + degree.  Each slot takes its first candidate whose target
    differs from the targets of its node's earlier slots; that has the law
    of the sequential process.

    The pick counts are drawn first, in one block.  Slots are then resolved
    in node blocks of about ``_SLOT_BLOCK``, in order, so a pointer into an
    earlier block reads a final target.  Within a block the chosen candidates
    are followed by pointer doubling, and the choices of every node whose
    candidates' targets changed are recomputed until none changes; a slot
    whose candidates are all rejected then draws as many again, for that
    slot only.
    """
    check_family(Family.BARABASI_ALBERT, lam, n)
    return MultiGraph(n, _copy_model_edges(lam, n, rng))


def _copy_model_edges(lam: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """The edge array of ``barabasi_albert``: the clique's edges, then each node's picks in order."""
    m0 = math.ceil(lam)
    base = math.floor(lam / 2.0)
    p_low = 1.0 + base - lam / 2.0  # P(new node adds `base` edges)

    delta = np.where(rng.random(n - m0) < p_low, base, base + 1)  # at most ceil(lam) <= i picks
    starts = np.zeros(n - m0 + 1, dtype=np.int64)  # first pick slot of each node, then the total
    np.cumsum(delta, out=starts[1:])
    clique = np.stack(np.triu_indices(m0, k=1), axis=1)
    e0 = len(clique)
    edges = np.empty((e0 + int(starts[-1]), 2), dtype=np.int64)
    edges[:e0] = clique
    edges[e0:, 0] = np.repeat(np.arange(m0, n), delta)
    edges[e0:, 1] = -1
    pool = edges.reshape(-1)  # entry 2e is edge e's source, 2e + 1 its target

    j0 = 0
    while j0 < n - m0:
        j1 = max(j0 + 1, int(np.searchsorted(starts, starts[j0] + _SLOT_BLOCK, side="right")) - 1)
        _resolve_block(pool, e0, starts, delta, j0, j1, rng)
        j0 = j1
    return edges


def _draw_candidates(rng: np.random.Generator, slots: np.ndarray, high: np.ndarray,
                     count: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``count`` candidates for each pick slot, uniform on [0, that slot's ``high``).

    Returns the slot of every candidate and the candidates, slot by slot.
    """
    return np.repeat(slots, count), rng.integers(0, np.repeat(high, count))


def _resolve_block(pool: np.ndarray, e0: int, starts: np.ndarray, delta: np.ndarray,
                   j0: int, j1: int, rng: np.random.Generator) -> None:
    """Write the targets of the pick slots of nodes j0..j1-1 (counted from ceil(lam)) into ``pool``."""
    s0, s1 = int(starts[j0]), int(starts[j1])
    size = s1 - s0
    first = np.repeat(starts[j0:j1], delta[j0:j1])  # first slot of each slot's node
    owner = np.repeat(np.arange(j1 - j0), delta[j0:j1])  # each slot's node, counted from j0
    node = pool[2 * (e0 + s0):2 * (e0 + s1):2]
    rank = np.arange(s0, s1) - first  # slot's place among its node's picks
    high = node + 2 * (e0 + first)
    targets = pool[2 * (e0 + s0) + 1:2 * (e0 + s1) + 1:2]  # a view: -1 until resolved
    bound = 2 * (e0 + s0)  # pool entries below are final

    slot, x = _draw_candidates(rng, np.arange(s0, s1), high, _CANDIDATES)
    slot = slot - s0
    count = np.full(size, _CANDIDATES)
    choice = np.arange(size) * _CANDIDATES  # index of the candidate each slot takes, -1 for none
    redo = np.arange(len(x))  # the candidates of every node whose choices must be recomputed
    while True:
        q = x - node[slot]
        copy = (q >= bound) & (q % 2 == 1)
        pointer = np.where(copy, (q >> 1) - (e0 + s0), -1)  # the block slot whose target it copies
        direct = np.where(copy, -1, np.where(q < 0, x, pool[np.maximum(q, 0)]))
        targets[:] = _follow(choice, pointer, direct)
        value = np.where(copy, targets[pointer], direct)
        while True:
            new_choice = choice.copy()
            new_choice[slot[redo]] = -1
            taken, heads = _first_valid(redo, slot, rank, value, targets)
            new_choice[taken] = heads
            if np.array_equal(new_choice, choice):
                break
            choice = new_choice
            before = targets.copy()
            targets[:] = _follow(choice, pointer, direct)
            before_value, value = value, np.where(copy, targets[pointer], direct)
            dirty = np.zeros(j1 - j0, dtype=bool)
            dirty[owner[slot[value != before_value]]] = True
            dirty[owner[targets != before]] = True
            redo = np.flatnonzero(dirty[owner[slot]])
        exhausted = np.flatnonzero(choice < 0)
        if not exhausted.size:
            return
        more_slot, more_x = _draw_candidates(rng, exhausted + s0, high[exhausted], count[exhausted])
        count[exhausted] *= 2
        merged = np.r_[slot, more_slot - s0]
        order = stable_order(merged)
        slot = merged[order]
        x = np.r_[x, more_x][order]
        moved = np.empty_like(order)
        moved[order] = np.arange(len(order))
        choice = np.where(choice >= 0, moved[choice], -1)
        dirty = np.zeros(j1 - j0, dtype=bool)
        dirty[owner[exhausted]] = True
        redo = np.flatnonzero(dirty[owner[slot]])


def _first_valid(redo: np.ndarray, slot: np.ndarray, rank: np.ndarray, value: np.ndarray,
                 targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's first candidate in ``redo`` whose target none of its node's earlier slots holds.

    ``redo`` lists whole slots' candidates in order.  Returns the slots that
    have such a candidate and its index.
    """
    own, v = slot[redo], value[redo]
    place = rank[own]
    rejected = np.zeros(len(redo), dtype=bool)
    for k in range(1, int(place.max(initial=0)) + 1):
        later = np.flatnonzero(place >= k)
        rejected[later] |= v[later] == targets[own[later] - k]
    rejected &= v >= 0  # a candidate copying an unresolved slot waits for it
    ok = np.flatnonzero(~rejected)
    heads = ok[np.diff(own[ok], prepend=-1) != 0]
    return own[heads], redo[heads]


def _follow(choice: np.ndarray, pointer: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """The target of every slot under ``choice``, found by pointer doubling; -1 where unresolved."""
    taken = np.flatnonzero(choice >= 0)
    resolved = np.full(len(choice), -1)
    resolved[taken] = direct[choice[taken]]
    link = np.full(len(choice), -1)
    link[taken] = pointer[choice[taken]]
    while (open_ := np.flatnonzero(link >= 0)).size:
        via = link[open_]
        resolved[open_] = resolved[via]
        link[open_] = link[via]
    return resolved


_MAX_ER_N = (1 << 31) - 1  # keeps 2 * n**2, the largest pair-index product, inside int64
_GAP_BLOCK = 1 << 20       # most geometric gaps drawn at once


def erdos_renyi(lam: float, n: int, rng: np.random.Generator) -> MultiGraph:
    """G(n, p) with p = lam / (n - 1); no self-loops; n at most 2**31 - 1.

    Pairs (i, j), i < j, are enumerated in lexicographic order and the gaps
    between chosen pair indices are geometric (Batagelj & Brandes, "Efficient
    generation of large random networks", PRE 71, 036113, 2005).  The gaps
    are drawn in blocks until one runs past the last pair.
    """
    check_family(Family.ERDOS_RENYI, lam, n)
    p = lam / (n - 1)
    if p == 0.0:
        return MultiGraph(n, np.empty((0, 2), dtype=np.int64))

    total_pairs = n * (n - 1) // 2
    expected = total_pairs * p
    # a block's clipped sum past the start stays inside int64, so no index wraps
    block = min(int(expected + 6.0 * math.sqrt(expected)) + 64, _GAP_BLOCK, INT64_MAX // (total_pairs + 1) - 1)
    chosen = []
    t = -1  # the last pair index reached
    while t < total_pairs:
        # any gap past the last pair ends the walk, so clipping it changes no index before the end
        ts = rng.geometric(p, size=block)
        np.minimum(ts, total_pairs + 1, out=ts)
        np.cumsum(ts, out=ts)
        ts += t
        chosen.append(ts)
        t = int(ts[-1])
    ts = np.concatenate(chosen)
    del chosen
    # the indices strictly increase, so the pairs are a prefix
    edges = _pairs_from_indices(ts[:np.searchsorted(ts, total_pairs)], n)
    del ts
    return MultiGraph(n, edges)


def _pairs_from_indices(t: np.ndarray, n: int) -> np.ndarray:
    """Invert the lexicographic enumeration of pairs (i, j), i < j, of 0..n-1.

    Returns the (len(t), 2) int64 array of the pairs with indices ``t``.  The
    pairs are decoded in place, with one float scratch array of len(t).
    ``erdos_renyi`` guarantees the preconditions, which are not checked here:
    2 <= n <= 2**31 - 1, and ``t`` is an int64 array of indices in
    [0, n * (n - 1) // 2).
    """
    pairs = np.empty((len(t), 2), dtype=np.int64)
    i, b = pairs[:, 0], pairs[:, 1]  # b is scratch for before(i) until it becomes j

    def before(i):  # pairs whose first coordinate is < i, into b
        np.subtract(2 * n - 1, i, out=b)
        np.multiply(b, i, out=b)
        return np.floor_divide(b, 2, out=b)

    def before_next(i):  # before(i + 1) = before(i) + n - 1 - i, into b
        np.add(before(i), n - 1, out=b)
        return np.subtract(b, i, out=b)

    # the real root of before(i) = t + 1, then integer fix-ups for rounding
    x = np.add(t, 1, out=np.empty(len(t)))
    x *= 8.0
    np.subtract((2.0 * n - 1.0) ** 2, x, out=x)
    np.maximum(x, 0.0, out=x)
    np.sqrt(x, out=x)
    np.subtract(2.0 * n - 1.0, x, out=x)
    x /= 2.0
    np.floor(x, out=x)
    i[:] = np.clip(x, 0, n - 2, out=x)
    while (high := before(i) > t).any():
        i -= high
    while (low := before_next(i) <= t).any():
        i += low
    j = np.subtract(t, before(i), out=b)
    j += i
    j += 1
    return pairs


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


_CONFIG_FAMILIES = (Family.CONFIG_LOGNORMAL, Family.CONFIG_POISSON, Family.CONFIG_EXPONENTIAL)


def check_size(family: Family, n: int) -> None:
    """The rules on ``n`` alone of ``check_family``; ``ba``'s 2 <= lam < n leaves it a floor of three vertices."""
    family = Family(family)
    check_int(n, "vertex count")
    if n > MAX_VERTICES:  # checked before any draw sized by n
        raise ValueError(f"graphs need n <= {MAX_VERTICES}, got {n}")
    if family is Family.ERDOS_RENYI:
        if n < 2:
            raise ValueError("need at least two vertices")
        if n > _MAX_ER_N:
            raise ValueError(f"Erdos-Renyi graphs need n <= {_MAX_ER_N}, got {n}")
    elif family is Family.BARABASI_ALBERT and n < 3:
        raise ValueError("need at least three vertices")
    elif family in _CONFIG_FAMILIES and n < 1:
        raise ValueError("need at least one vertex")


def _shown(lam: float) -> str:
    """``lam`` as a message prints it: an int too long for ``str`` in 4 significant digits."""
    try:
        return str(lam)
    except ValueError:  # past Python's int-to-str digit limit
        return f"{Decimal(lam):.3e}"


def check_family(family: Family, lam: float, n: int) -> None:
    """Raise ``ValueError`` unless ``family`` generates graphs of mean degree ``lam`` on ``n`` vertices."""
    family = Family(family)
    check_size(family, n)
    if not (is_int(lam) or isinstance(lam, (float, np.floating))):
        raise ValueError(f"a mean degree must be an int or a float, got {lam!r}")
    if not -math.inf < lam < math.inf:  # no float(): an int past its range meets the rules below
        raise ValueError(f"mean degree must be finite, got {lam}")
    if family is Family.BARABASI_ALBERT:
        if lam < 2:
            raise ValueError(f"mean degree must be >= 2, got {_shown(lam)}")
        if n <= lam:
            raise ValueError(f"need n > lam, got n={n}, lam={_shown(lam)}")
    elif family is Family.ERDOS_RENYI:
        if lam < 0 or lam > n - 1:
            raise ValueError(f"mean degree must lie in [0, n-1], got {_shown(lam)}")
    elif family in _CONFIG_FAMILIES:
        if lam < 1.0:
            raise ValueError(f"target mean degree must be >= 1, got {_shown(lam)}")
        if family is Family.CONFIG_LOGNORMAL and lam <= 1.0:
            raise ValueError("lognormal degrees need a target mean degree > 1")
        if lam * n > INT64_MAX:
            raise ValueError(f"mean degree {_shown(lam)} on {n} vertices puts the expected stub total "
                             "past the 64-bit range")


def sample_graph(family: Family, lam: float, n: int, rng: np.random.Generator) -> MultiGraph:
    """Draw one random graph from the requested family (a ``Family`` or its plan name);
    every path checks its arguments before drawing."""
    family = Family(family)
    if family is Family.BARABASI_ALBERT:
        return barabasi_albert(lam, n, rng)
    if family is Family.ERDOS_RENYI:
        return erdos_renyi(lam, n, rng)
    return configuration_graph(sample_degrees(family, lam, n, rng), rng)


_MAX_SWAPS = 500_000    # accepted swaps before rewiring gives up
_CHECK_EVERY = 1000     # accepted swaps between two clustering checks


class _RewireState:
    """Simple-graph adjacency with per-vertex triangle counts kept current.

    ``adj[v]`` lists v's neighbors in no particular order: rows start in
    the order of the edges that brought them, and the caller may permute a
    row in place.  No swap changes a row's length: each endpoint loses one
    neighbor and gains one.  Removal moves the row's last neighbor into the
    freed place and insertion appends.
    """

    def __init__(self, n: int, edges: np.ndarray):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        edges = edges[edges[:, 0] != edges[:, 1]]
        keys = np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1])
        order = np.argsort(keys)
        keys = keys[order]
        # the least place in each run of equal keys is that pair's first copy
        first = np.minimum.reduceat(order, np.flatnonzero(np.diff(keys, prepend=-1)))
        first.sort()
        simple = edges[first]
        del edges, keys, order, first
        self.tri = triangle_counts(n, simple).tolist()  # its peak comes before the rows exist
        ends = simple.ravel()
        self.degrees = np.bincount(ends, minlength=n)
        ids = list(range(n))  # one int object per vertex, shared by every row
        flat = map(ids.__getitem__, memoryview(simple[:, ::-1].ravel()[stable_order(ends)]))
        self.adj = [list(itertools.islice(flat, d)) for d in self.degrees.tolist()]

    def swap(self, v: int, a: int, w: int, b: int, common: tuple[set[int], ...]) -> None:
        """Replace the edges (v, a) and (w, b) by (v, w) and (a, b).

        ``common`` holds C(v, a), C(w, b), C(v, w) and C(a, b), the common
        neighbors of the four pairs before the swap.  The four vertices are
        distinct and (v, w), (a, b) absent, so removing (v, a) leaves C(w, b)
        as it was, and once both are removed the new pairs share
        C(v, w) - {a, b} and C(a, b) - {v, w}; those two sets are cut down in
        place.  The rows lose a from v, v from a, b from w and w from b, in
        that order, then gain w at v, v at w, b at a and a at b.
        """
        adj, tri = self.adj, self.tri
        c_va, c_wb, c_vw, c_ab = common
        c_vw.discard(a)
        c_vw.discard(b)
        c_ab.discard(v)
        c_ab.discard(w)
        for z in c_va:
            tri[z] -= 1
        for z in c_wb:
            tri[z] -= 1
        for z in c_vw:
            tri[z] += 1
        for z in c_ab:
            tri[z] += 1
        tri[v] += len(c_vw) - len(c_va)
        tri[a] += len(c_ab) - len(c_va)
        tri[w] += len(c_vw) - len(c_wb)
        tri[b] += len(c_ab) - len(c_wb)
        for p, q in ((v, a), (a, v), (w, b), (b, w)):
            row = adj[p]
            row[row.index(q)] = row[-1]  # the row's last neighbor fills the freed place
            row.pop()
        adj[v].append(w)
        adj[w].append(v)
        adj[a].append(b)
        adj[b].append(a)

    def mean_clustering(self) -> float:
        return mean_local_clustering(self.degrees, self.tri)

    def edge_array(self) -> np.ndarray:
        """Every edge once as (u, v) with u < v, in sorted order: the edges are
        distinct, so one sort of the keys u * n + v orders them."""
        n = len(self.degrees)
        heads = np.fromiter(itertools.chain.from_iterable(self.adj), np.int64, int(self.degrees.sum()))
        tails = np.repeat(np.arange(n), self.degrees)
        forward = tails < heads
        keys = np.sort(tails[forward] * n + heads[forward])
        del heads, tails, forward
        return np.stack(np.divmod(keys, n), axis=1)


def rewire_to_clustering(g: MultiGraph, target: float, rng: np.random.Generator) -> MultiGraph:
    """Degree-preserving triangle-closing rewiring until mean clustering >= target.

    Loops and parallel edges are dropped first (small degree perturbation on
    the random multigraphs this is meant for).  Each accepted move swaps the
    pair of edges (v, a), (w, b) for (v, w), (a, b) where v, w share the
    neighbor u, closing the triangle u-v-w while keeping every degree fixed
    and the graph simple.  A move is taken when the common-neighbor count of
    its new pairs, counted before the swap, is at least that of its removed
    pairs: |C(v, w)| + |C(a, b)| >= |C(v, a)| + |C(w, b)|.  The result lists
    its edges as sorted (u, v), u < v.

    Rewiring gives up after ``_MAX_SWAPS`` accepted moves or twenty times as
    many attempts; if the target is then unmet, it logs a warning on the
    ``netsize`` logger with the clustering it reached.
    """
    if not 0 <= target <= 1:  # NaN fails too; mean clustering never exceeds 1
        raise ValueError(f"target clustering must lie in [0, 1], got {target}")
    n = g.n
    state = _RewireState(n, g.edge_array)
    adj = state.adj
    draw = uniforms(rng).__next__

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
        u = eligible[int(draw() * len(eligible))]
        v, w = pick(adj[u], 2, draw)  # permutes u's row, whose order nothing relies on
        row_v, row_w = adj[v], adj[w]
        if w in row_v:
            continue
        a = row_v[int(draw() * len(row_v))]
        b = row_w[int(draw() * len(row_w))]
        row_a = adj[a]
        if a in (u, w) or b in (u, v) or a == b or b in row_a:
            continue
        # accept moves whose new pairs share at least as many neighbors as the removed ones
        set_v, set_w = set(row_v), set(row_w)
        c_va, c_wb = set_v.intersection(row_a), set_w.intersection(adj[b])
        c_vw, c_ab = set_v.intersection(row_w), set(row_a).intersection(adj[b])
        if len(c_vw) + len(c_ab) < len(c_va) + len(c_wb):
            continue
        state.swap(v, a, w, b, (c_va, c_wb, c_vw, c_ab))
        swaps += 1

    reached = state.mean_clustering()
    if reached < target:
        import logging  # the one log line: importing netsize loads no logging

        logging.getLogger("netsize").warning(
            "rewiring stopped at mean clustering %.6g, short of the target %.6g, after %d swaps in %d attempts",
            reached, target, swaps, attempts)
    edges = state.edge_array()
    del state, adj, eligible  # the rows go before the rewired graph is built
    return MultiGraph(n, edges)
