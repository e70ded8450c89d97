import contextlib
import itertools
import logging
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from netsize import generators, graph
from netsize.generators import (
    Family,
    _pairs_from_indices,
    barabasi_albert,
    check_family,
    check_size,
    configuration_graph,
    erdos_renyi,
    rewire_to_clustering,
    sample_degrees,
    sample_graph,
)
from netsize.graph import INT64_MAX, MultiGraph, mean_local_clustering, triangle_counts
from netsize.ingest import clustering_stats
from test_sampling import CountingGenerator, ScalarUniforms, counting_uniforms


def traced_peak(fn, warm_up=None):
    """The ``tracemalloc`` peak of one call of ``fn``, and what it returned.

    ``warm_up`` (``fn`` itself by default) runs first, untraced, so that
    first-call allocations such as lazy imports and caches are not counted.
    """
    (warm_up or fn)()
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_poisson_lam1_degenerate():
    degrees = sample_degrees(Family.CONFIG_POISSON, 1.0, 500, np.random.default_rng(0))
    assert (degrees == 1).all()


def test_poisson_mean_matches_target():
    degrees = sample_degrees(Family.CONFIG_POISSON, 3.0, 100_000, np.random.default_rng(1))
    assert degrees.mean() == pytest.approx(3.0, abs=0.05)
    assert degrees.min() >= 1


def test_continuous_families_have_integer_degrees_near_target():
    for family in (Family.CONFIG_LOGNORMAL, Family.CONFIG_EXPONENTIAL):
        degrees = sample_degrees(family, 5.0, 100_000, np.random.default_rng(2))
        assert degrees.dtype.kind == "i"
        assert degrees.min() >= 1
        assert degrees.mean() == pytest.approx(5.0, rel=0.02)


def _documented_law(family, lam):
    """X of the documented degree law 1 + X: Poisson or exponential with mean lam - 1,
    or the lognormal with mean lam - 1 and standard deviation 1."""
    mean = lam - 1.0
    if family is Family.CONFIG_POISSON:
        return stats.poisson(mean)
    if family is Family.CONFIG_EXPONENTIAL:
        return stats.expon(scale=mean)
    sigma2 = math.log(1.0 + 1.0 / (mean * mean))
    return stats.lognorm(s=math.sqrt(sigma2), scale=math.exp(math.log(mean) - sigma2 / 2.0))


def _chi_square_against_the_law(degrees, x):
    """Pearson's statistic of ``degrees`` against D = max(round_half_up(1 + X), 1), whose
    CDF is P(D <= k) = P(X < k - 0.5) for either kind of X.  The end bins are pooled
    until each expects at least 5 degrees."""
    n = len(degrees)
    k = np.arange(1, int(degrees.max()) + 200)
    cdf = x.cdf(k - 0.5)
    lo = k[np.argmax(n * cdf >= 5)]
    hi = k[np.flatnonzero(n * (1 - np.r_[0.0, cdf[:-1]]) >= 5)[-1]]
    bins = np.arange(lo, hi + 1)
    probs = np.diff(np.r_[0.0, x.cdf(bins[:-1] - 0.5), 1.0])
    observed = np.bincount(np.clip(degrees, lo, hi) - lo, minlength=len(bins))
    return stats.chisquare(observed, n * probs).statistic


# each bound is the largest statistic over the 1,000 draws of 50,000 degrees at seeds
# [7, 0] .. [7, 999], rounded up to a multiple of 5; its bins give 8 to 83 degrees of freedom
@pytest.mark.parametrize("family, lam, bound", [
    (Family.CONFIG_LOGNORMAL, 3.0, 30), (Family.CONFIG_LOGNORMAL, 10.0, 30),
    (Family.CONFIG_POISSON, 3.0, 35), (Family.CONFIG_POISSON, 10.0, 45),
    (Family.CONFIG_EXPONENTIAL, 3.0, 50), (Family.CONFIG_EXPONENTIAL, 10.0, 140),
])
def test_configuration_degrees_follow_the_documented_law(family, lam, bound):
    # scipy.stats as an outside reference for the three laws and the half-up rounding
    degrees = sample_degrees(family, lam, 50_000, np.random.default_rng([11, 0]))
    assert _chi_square_against_the_law(degrees, _documented_law(family, lam)) <= bound


@pytest.mark.parametrize("family", [Family.BARABASI_ALBERT, Family.ERDOS_RENYI, "poisson"])
def test_sample_degrees_takes_only_a_configuration_family(family):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^degree sequences are drawn for configuration families only"):
        sample_degrees(family, 4.0, 10, rng)
    assert rng.bit_generator.state == state


def test_configuration_forced_pairings():
    g = configuration_graph([1, 1], np.random.default_rng(0))
    assert sorted(map(tuple, g.edge_array.tolist())) in ([(0, 1)], [(1, 0)])
    loop = configuration_graph([2], np.random.default_rng(0))
    assert loop.num_edges == 1 and loop.degree(0) == 2
    # every realization over the 6-stub matchings keeps all degrees at 2
    for seed in range(50):
        g3 = configuration_graph([2, 2, 2], np.random.default_rng(seed))
        assert list(g3.degrees()) == [2, 2, 2]


@pytest.mark.parametrize("seed", range(20))
def test_configuration_preserves_degrees(seed):
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, 7, size=30)
    if degrees.sum() % 2 == 1:
        degrees[0] += 1
    g = configuration_graph(degrees, rng)
    assert np.array_equal(np.asarray(g.degrees()), degrees)


def test_configuration_odd_total_bumps_one_vertex():
    degrees = np.array([1, 1, 1])
    g = configuration_graph(degrees, np.random.default_rng(3))
    realized = sorted(g.degrees())
    assert realized in ([1, 1, 2],)
    assert sum(realized) == 4
    assert degrees.tolist() == [1, 1, 1]  # the caller's sequence is never written


def test_configuration_rejects_empty():
    with pytest.raises(ValueError):
        configuration_graph([], np.random.default_rng(0))


@pytest.mark.parametrize("degrees, message", [
    ([1.5, 2.5, 2], "degrees must be integers, got float64 values"),  # was truncated, then bumped
    ([True, True], "degrees must be integers, got bool values"),
    ([2**63, 1], "degrees must fit in int64"),  # was a bare OverflowError
    ([2**62, 2**62], "the degrees sum past the 64-bit range"),  # was numpy's "negative dimensions"
    ([2**62, 2**62 - 1], "the degrees sum past the 64-bit range"),  # no room for the odd-total bump
    ([[1, 1]], "degrees must be a flat sequence of ints"),
    ([2, -1, 1], "degrees must be non-negative"),
])
def test_configuration_rejects_a_degree_sequence_it_cannot_pair_before_drawing(degrees, message):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        configuration_graph(degrees, rng)
    assert rng.bit_generator.state == state


def test_barabasi_albert_structure():
    g = barabasi_albert(2.0, 3, np.random.default_rng(0))
    pairs = [tuple(sorted(e)) for e in g.edge_array.tolist()]
    assert len(pairs) == len(set(pairs))  # no parallels
    assert all(u != v for u, v in pairs)  # no loops
    with pytest.raises(ValueError):
        barabasi_albert(4.0, 4, np.random.default_rng(0))


def test_barabasi_albert_no_parallel_or_loops_larger():
    g = barabasi_albert(5.0, 400, np.random.default_rng(1))
    pairs = [tuple(sorted(e)) for e in g.edge_array.tolist()]
    assert len(pairs) == len(set(pairs))
    assert all(u != v for u, v in pairs)


def test_barabasi_albert_mean_degree():
    g = barabasi_albert(4.0, 10_000, np.random.default_rng(2))
    assert 2 * g.num_edges / g.n == pytest.approx(4.0, abs=0.1)


def test_erdos_renyi_extremes():
    assert erdos_renyi(0.0, 50, np.random.default_rng(0)).num_edges == 0
    complete = erdos_renyi(49.0, 50, np.random.default_rng(0))
    assert complete.num_edges == 50 * 49 // 2
    with pytest.raises(ValueError):
        erdos_renyi(50.0, 50, np.random.default_rng(0))


def test_erdos_renyi_mean_degree_concentrates():
    total = 0.0
    for seed in range(30):
        g = erdos_renyi(10.0, 5000, np.random.default_rng(seed))
        total += 2 * g.num_edges / g.n
    assert total / 30 == pytest.approx(10.0, abs=0.2)


def test_pair_index_inversion_matches_enumeration():
    for n in range(2, 13):
        expected = list(itertools.combinations(range(n), 2))
        got = _pairs_from_indices(np.arange(n * (n - 1) // 2), n)
        assert got.dtype == np.int64
        assert [tuple(pair) for pair in got.tolist()] == expected


def test_erdos_renyi_matches_bernoulli_oracle():
    # per-pair inclusion should be ~ lam/(n-1); check aggregate frequency
    n, lam, reps = 40, 6.0, 200
    count = 0
    for seed in range(reps):
        count += erdos_renyi(lam, n, np.random.default_rng(seed)).num_edges
    expected = reps * (n * (n - 1) / 2) * lam / (n - 1)
    assert count == pytest.approx(expected, rel=0.05)


@pytest.mark.parametrize("family", [f for f in Family])
def test_determinism_same_seed_same_edges(family):
    lam = 4.0
    a = sample_graph(family, lam, 200, np.random.default_rng(42))
    b = sample_graph(family, lam, 200, np.random.default_rng(42))
    assert np.array_equal(a.edge_array, b.edge_array)


@pytest.mark.parametrize("family", [Family.CONFIG_LOGNORMAL, Family.CONFIG_POISSON, Family.CONFIG_EXPONENTIAL])
@pytest.mark.parametrize("lam", [3.0, 5.0, 10.0])
def test_parametric_families_hit_target_mean_degree(family, lam):
    total = 0.0
    reps = 30
    for seed in range(reps):
        g = sample_graph(family, lam, 5000, np.random.default_rng(seed))
        total += 2 * g.num_edges / g.n
    assert total / reps == pytest.approx(lam, rel=0.05)


def test_sample_graph_takes_what_check_family_takes():
    by_name = sample_graph("er", 5.0, 100, np.random.default_rng(0))
    by_member = sample_graph(Family.ERDOS_RENYI, 5.0, 100, np.random.default_rng(0))
    assert by_member.n == 100 and np.array_equal(by_name.edge_array, by_member.edge_array)
    with pytest.raises(ValueError, match="^unknown family 'marslink'"):
        sample_graph("marslink", 5.0, 100, np.random.default_rng(0))
    with pytest.raises(ValueError, match=re.escape("mean degree must lie in [0, n-1], got 500.0")):
        sample_graph(Family.ERDOS_RENYI, 500.0, 100, np.random.default_rng(0))
    check_family(Family.ERDOS_RENYI, 0.5, 100)
    assert sample_graph(Family.ERDOS_RENYI, 0.5, 100, np.random.default_rng(0)).n == 100


def test_rewire_reaches_clustering_and_preserves_degrees():
    rng = np.random.default_rng(5)
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 600, rng)
    # simple view degrees (loops and parallels dropped before rewiring)
    simple = set()
    for u, v in g.edge_array.tolist():
        if u != v:
            simple.add((min(u, v), max(u, v)))
    want = np.zeros(g.n, dtype=int)
    for u, v in simple:
        want[u] += 1
        want[v] += 1

    rewired = rewire_to_clustering(g, 0.2, rng)
    assert np.array_equal(np.asarray(rewired.degrees()), want)
    assert clustering_stats(rewired)[0] >= 0.2


def test_mean_clustering_brute_force_small():
    g = MultiGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    # triangle 0-1-2 plus pendant 3: locals are 1, 1, 1/3, 0
    assert clustering_stats(g)[0] == pytest.approx((1 + 1 + 1 / 3 + 0) / 4)


def test_rewire_state_annotations_resolve():
    from typing import get_type_hints

    from netsize.generators import _RewireState

    assert set(get_type_hints(_RewireState.__init__)) == {"n", "edges"}


@st.composite
def multigraphs(draw):
    """A small multigraph with loops and parallel edges, and at least n of them:
    with fewer, a pick that never took the last neighbor passed 2 rewiring runs of 80."""
    n = draw(st.integers(2, 12))
    vertex = st.integers(0, n - 1)
    return MultiGraph(n, draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=40)))


def _simple_view(g):
    return {(min(u, v), max(u, v)) for u, v in g.edge_array.tolist() if u != v}


def _degrees(n, pairs):
    degrees = [0] * n
    for u, v in pairs:
        degrees[u] += 1
        degrees[v] += 1
    return degrees


# The rewiring tests draw the swap limits with each example, so that a
# failure shrinks them too and each shrink step reruns a short rewiring.
swap_limits = st.integers(1, 50)
check_intervals = st.integers(1, 10)


@settings(max_examples=150, deadline=None)
@given(g=multigraphs(), seed=st.integers(0, 2**32 - 1), max_swaps=swap_limits)
def test_rewire_keeps_degrees_and_triangle_counts(g, seed, max_swaps):
    if not any(d >= 2 for d in _degrees(g.n, _simple_view(g))):
        return
    states = []

    class Recorded(generators._RewireState):
        def __init__(self, n, edges):
            super().__init__(n, edges)
            states.append(self)

    with mock.patch.object(generators, "_RewireState", Recorded), \
            mock.patch.object(generators, "_MAX_SWAPS", max_swaps):
        rewired = rewire_to_clustering(g, 1.0, np.random.default_rng(seed))
    edges = [tuple(e) for e in rewired.edge_array.tolist()]
    assert edges == sorted(set(edges)) and all(u < v for u, v in edges)
    assert rewired.degrees().tolist() == _degrees(g.n, _simple_view(g))
    assert states[0].tri == triangle_counts(g.n, rewired.edge_array).tolist()


@settings(max_examples=150, deadline=None)
@given(g=multigraphs(), seed=st.integers(0, 2**32 - 1))
def test_rewire_state_keeps_triangles_current(g, seed):
    state = generators._RewireState(g.n, g.edge_array)
    pairs = _simple_view(g)
    degrees = _degrees(g.n, pairs)
    rng = np.random.default_rng(seed)
    for _ in range(20 if pairs else 0):
        edges = sorted(pairs)
        (v, a), (w, b) = (edges[i] for i in rng.integers(len(edges), size=2))
        if rng.random() < 0.5:
            v, a = a, v
        if len({v, a, w, b}) < 4 or {(min(v, w), max(v, w)), (min(a, b), max(a, b))} & pairs:
            continue
        common = tuple(set(state.adj[x]).intersection(state.adj[y]) for x, y in ((v, a), (w, b), (v, w), (a, b)))
        state.swap(v, a, w, b, common)
        pairs -= {(min(v, a), max(v, a)), (min(w, b), max(w, b))}
        pairs |= {(min(v, w), max(v, w)), (min(a, b), max(a, b))}
    assert {(u, x) for u in range(g.n) for x in state.adj[u] if u < x} == pairs
    assert [len(row) for row in state.adj] == degrees
    assert state.tri == triangle_counts(g.n, sorted(pairs)).tolist()


# The rewiring as it was written on one flat slot list: row v is
# slots[start[v]:start[v] + fill[v]], and a swap recounts its common neighbors.
# It draws one rng.random() per pick and is the reference for the rewired
# graph and the random stream of rewire_to_clustering.

class _ReferenceRewireState:
    def __init__(self, n, edges):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        edges = edges[edges[:, 0] != edges[:, 1]]
        keys = np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1])
        simple = edges[np.sort(np.unique(keys, return_index=True)[1])]
        ends = simple.ravel()
        self.degrees = np.bincount(ends, minlength=n)
        self.start = (np.cumsum(self.degrees) - self.degrees).tolist()
        self.fill = self.degrees.tolist()
        self.slots = simple[:, ::-1].ravel()[np.argsort(ends, kind="stable")].tolist()
        self.tri = triangle_counts(n, simple).tolist()

    def row(self, v):
        return self.slots[self.start[v]:self.start[v] + self.fill[v]]

    def has_edge(self, u, v):
        return v in self.row(u)

    def common(self, u, v):
        return set(self.row(u)).intersection(self.row(v))

    def swap(self, v, a, w, b):
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
                    slots[slots.index(q, start[p], end)] = slots[end - 1]
                else:
                    slots[end] = q
                fill[p] += step

    def edge_array(self):
        pairs = np.stack([np.repeat(np.arange(len(self.degrees)), self.degrees), self.slots], axis=1)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _reference_rewire(g, target, rng):
    state = _ReferenceRewireState(g.n, g.edge_array)
    draw = ScalarUniforms(rng)
    eligible = np.flatnonzero(state.degrees >= 2).tolist()
    swaps = attempts = next_check = 0
    while attempts < generators._MAX_SWAPS * 20:
        if swaps >= next_check:
            if mean_local_clustering(state.degrees, state.tri) >= target:
                break
            next_check = swaps + generators._CHECK_EVERY
        if swaps >= generators._MAX_SWAPS:
            break
        attempts += 1
        u = eligible[int(draw() * len(eligible))]
        slots, first = state.slots, state.start[u]
        for t in range(2):  # a partial Fisher-Yates shuffle of u's row, in place
            pick = t + int(draw() * (state.fill[u] - t))
            slots[first + t], slots[first + pick] = slots[first + pick], slots[first + t]
        v, w = slots[first], slots[first + 1]
        if state.has_edge(v, w):
            continue
        a = state.row(v)[int(draw() * state.fill[v])]
        b = state.row(w)[int(draw() * state.fill[w])]
        if a in (u, w) or b in (u, v) or a == b or state.has_edge(a, b):
            continue
        gain = len(state.common(v, w)) + len(state.common(a, b))
        loss = len(state.common(v, a)) + len(state.common(w, b))
        if gain + 1 <= loss:
            continue
        state.swap(v, a, w, b)
        swaps += 1
    draw.close()
    reached = mean_local_clustering(state.degrees, state.tri)
    warnings = [f"rewiring stopped at mean clustering {reached:.6g}, short of the target {target:.6g}, "
                f"after {swaps} swaps in {attempts} attempts"] if reached < target else []
    return state.edge_array(), warnings


@contextlib.contextmanager
def _warnings():
    """The messages the ``netsize`` logger emits inside the block (caplog is
    function-scoped, which a hypothesis test cannot use)."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("netsize")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def _assert_same_rewiring(g, target, seed):
    """The rewired edges, the warnings and the generator's next draw against the reference; returns the warnings."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with _warnings() as warned:
        rewired = rewire_to_clustering(g, target, rng).edge_array
    edges, expected = _reference_rewire(g, target, ref_rng)
    assert (rewired.dtype, rewired.tobytes()) == (edges.dtype, edges.tobytes())
    assert warned == expected
    assert rng.random() == ref_rng.random()
    return warned


@settings(max_examples=150, deadline=None)
@given(g=multigraphs(), target=st.sampled_from([0.0, 0.2, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1),
       max_swaps=swap_limits, check_every=check_intervals)
def test_rewire_matches_the_flat_slot_reference(g, target, seed, max_swaps, check_every):
    if not any(d >= 2 for d in _degrees(g.n, _simple_view(g))):
        return
    with mock.patch.object(generators, "_MAX_SWAPS", max_swaps), \
            mock.patch.object(generators, "_CHECK_EVERY", check_every):
        _assert_same_rewiring(g, target, seed)


def test_rewire_matches_the_flat_slot_reference_on_a_poisson_graph():
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 600, np.random.default_rng(5))
    for seed in range(2):
        assert _assert_same_rewiring(g, 0.2, seed) == []
    with mock.patch.object(generators, "_MAX_SWAPS", 200):  # gives up far short of the target
        assert len(_assert_same_rewiring(g, 0.9, 1)) == 1


@pytest.mark.parametrize("block", [1, 3, 7])
def test_rewire_matches_the_flat_slot_reference_across_block_ends(block):
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 300, np.random.default_rng(6))
    with mock.patch.object(graph, "_UNIFORM_BLOCK", block):
        _assert_same_rewiring(g, 0.15, block)


def test_rewire_reads_the_generator_only_in_whole_blocks():
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 600, np.random.default_rng(5))
    patch, used = counting_uniforms(generators)
    rng = CountingGenerator(np.random.default_rng(1))
    with patch:
        rewire_to_clustering(g, 0.2, rng)
    assert used[0] > 0
    assert rng.calls == {"random": math.ceil(used[0] / graph._UNIFORM_BLOCK)}


@pytest.mark.parametrize("target", [float("nan"), -0.1, 1.5, float("inf")])
def test_rewire_rejects_a_target_outside_the_unit_interval_before_drawing(target):
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 300, np.random.default_rng(5))
    rng = CountingGenerator(np.random.default_rng(1))
    with pytest.raises(ValueError, match=re.escape(f"target clustering must lie in [0, 1], got {target}")):
        rewire_to_clustering(g, target, rng)
    assert rng.calls == {}


def test_rewire_rejects_a_graph_with_no_vertex_of_two_neighbors_before_drawing():
    matching = MultiGraph(6, [(0, 1), (2, 3), (4, 5)])
    rng = CountingGenerator(np.random.default_rng(1))
    with pytest.raises(ValueError, match="^graph has no vertex with two distinct neighbors$"):
        rewire_to_clustering(matching, 0.2, rng)
    assert rng.calls == {}


def test_rewire_warns_when_it_stops_short_of_the_target(caplog):
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 600, np.random.default_rng(5))
    with caplog.at_level(logging.DEBUG, "netsize"):
        rewire_to_clustering(g, 0.2, np.random.default_rng(1))
        assert caplog.records == []  # the target is met
        with mock.patch.object(generators, "_MAX_SWAPS", 30):
            rewired = rewire_to_clustering(g, 0.5, np.random.default_rng(1))
    [record] = caplog.records
    assert record.name == "netsize" and record.levelno == logging.WARNING
    reached = mean_local_clustering(rewired.degrees(), triangle_counts(g.n, rewired.edge_array))
    assert reached < 0.5
    assert re.fullmatch(f"rewiring stopped at mean clustering {reached:.6g}, short of the target 0.5, "
                        r"after 30 swaps in \d+ attempts", record.getMessage())


# Reference generators: the scalar constructions the array-native ones replace.
# Each must give the same edge array, and the configuration reference must also
# leave the generator in the same state (erdos_renyi makes no promise about
# where it leaves it).  _reference_barabasi_albert is the reference for the BA law only.

def _reference_pair_from_index(t, n):
    disc = (2 * n - 1) * (2 * n - 1) - 8 * (t + 1)
    i = (2 * n - 1 - math.isqrt(disc) - 1) // 2
    while i * (2 * n - i - 1) // 2 > t:
        i -= 1
    while (i + 1) * (2 * n - i - 2) // 2 <= t:
        i += 1
    j = i + 1 + (t - i * (2 * n - i - 1) // 2)
    return i, j


def _reference_erdos_renyi(lam, n, rng):
    p = lam / (n - 1)
    if p == 0.0:
        return MultiGraph(n, [])
    total_pairs = n * (n - 1) // 2
    if p == 1.0:
        return MultiGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    edges = []
    t = -1
    while True:
        t += int(rng.geometric(p))
        if t >= total_pairs:
            break
        edges.append(_reference_pair_from_index(t, n))
    return MultiGraph(n, edges)


def _reference_configuration_graph(degrees, rng):
    degrees = np.asarray(degrees, dtype=np.int64).copy()
    if int(degrees.sum()) % 2 == 1:
        degrees[rng.integers(len(degrees))] += 1
    stubs = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    rng.shuffle(stubs)
    return MultiGraph(len(degrees), [(int(u), int(v)) for u, v in stubs.reshape(-1, 2)])


def _reference_barabasi_albert(lam, n, rng):
    m0 = math.ceil(lam)
    base = math.floor(lam / 2.0)
    p_low = 1.0 + base - lam / 2.0
    edges = []
    endpoints = []
    for u in range(m0):
        for v in range(u + 1, m0):
            edges.append((u, v))
            endpoints.append(u)
            endpoints.append(v)
    for i in range(m0, n):
        delta = min(base if rng.random() < p_low else base + 1, i)
        picked = []
        chosen = set()
        total_weight = i + 2 * len(edges)
        while len(picked) < delta:
            if rng.random() * total_weight < i:
                w = int(rng.integers(i))
            else:
                w = endpoints[int(rng.integers(len(endpoints)))]
            if w not in chosen:
                chosen.add(w)
                picked.append(w)
        for w in picked:
            edges.append((i, w))
            endpoints.append(i)
            endpoints.append(w)
    return MultiGraph(n, edges)


def _reference_sample_graph(family, lam, n, rng):
    if family is Family.BARABASI_ALBERT:
        return _reference_barabasi_albert(lam, n, rng)
    if family is Family.ERDOS_RENYI:
        return _reference_erdos_renyi(lam, n, rng)
    return _reference_configuration_graph(sample_degrees(family, lam, n, rng), rng)


def _assert_same_draws(got, want, *rngs):
    """Same edge arrays and, given the two generators, the same next draw."""
    assert got.edge_array.dtype == want.edge_array.dtype == np.int64
    assert got.edge_array.shape == want.edge_array.shape
    assert np.array_equal(got.edge_array, want.edge_array)
    if rngs:
        assert rngs[0].random() == rngs[1].random()


# Barabasi-Albert draws its picks as candidates in blocks, so it has no
# byte-identical scalar reference; see the BA tests below.
@pytest.mark.parametrize("family", [f for f in Family if f is not Family.BARABASI_ALBERT])
@pytest.mark.parametrize("lam", [2.0, 3.0, 6.0, 10.0])
@pytest.mark.parametrize("n", [12, 300, 3000])
def test_generators_match_scalar_references(family, lam, n):
    for seed in range(2):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_graph(family, lam, n, rng)
        want = _reference_sample_graph(family, lam, n, reference_rng)
        rngs = () if family is Family.ERDOS_RENYI else (rng, reference_rng)
        _assert_same_draws(got, want, *rngs)


@pytest.mark.parametrize("n, lam", [(2, 1.0), (10, 9.0), (7, 0.5), (1000, 0.01), (100, 1e-4), (50, 0.0),
                                    (40, 38.5), (100000, 3.0)])
def test_erdos_renyi_edge_cases_match_reference(n, lam):
    for seed in range(3):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = erdos_renyi(lam, n, rng)
        _assert_same_draws(got, _reference_erdos_renyi(lam, n, reference_rng))


@pytest.mark.parametrize("block", [1, 2, 7, 100])
def test_erdos_renyi_gap_blocks_match_reference(block):
    # many blocks per graph, and a walk that ends on a block boundary
    with mock.patch.object(generators, "_GAP_BLOCK", block):
        for n, lam, seed in [(60, 4.0, 0), (60, 4.0, 1), (300, 0.9, 2), (30, 28.0, 3)]:
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = erdos_renyi(lam, n, rng)
            _assert_same_draws(got, _reference_erdos_renyi(lam, n, reference_rng))


@pytest.mark.parametrize("n", [13, 1000, 65_536, 10**6, generators._MAX_ER_N])
def test_pairs_from_indices_match_isqrt_reference(n):
    total = n * (n - 1) // 2
    rng = np.random.default_rng(n)
    rows = rng.integers(1, n - 1, size=1000)
    row_starts = rows * (2 * n - rows - 1) // 2  # the first and last pairs of a row sit on the rounding edge
    t = np.concatenate([rng.integers(total, size=2000), row_starts, row_starts - 1,
                        [0, 1, n - 2, n - 1, total - 2, total - 1]])
    want = [_reference_pair_from_index(x, n) for x in t.tolist()]
    assert [tuple(pair) for pair in _pairs_from_indices(t, n).tolist()] == want


def test_erdos_renyi_rejects_sizes_beyond_int64_pair_arithmetic():
    n = generators._MAX_ER_N + 1
    with pytest.raises(ValueError, match="n <= "):
        erdos_renyi(0.0, n, np.random.default_rng(0))


# Barabasi-Albert as a copy model.  The same-candidates oracle replays the
# candidate blocks the generator drew through the first-valid rule one slot at
# a time; the law is checked against _reference_barabasi_albert above.

def _recorded_barabasi_albert(lam, n, seed):
    """The graph and every (slots, candidates, bounds) block the generator drew, in order."""
    blocks = []
    _draw_candidates = generators._draw_candidates

    def record(rng, slots, high, count):
        slot_of, candidates = _draw_candidates(rng, slots, high, count)
        bound = dict(zip(slots.tolist(), high.tolist()))
        blocks.append((slot_of.tolist(), candidates.tolist(), [bound[s] for s in slot_of.tolist()]))
        return slot_of, candidates

    with mock.patch.object(generators, "_draw_candidates", wraps=record):
        g = barabasi_albert(lam, n, np.random.default_rng(seed))
    return g, blocks


def _replay_barabasi_albert(lam, n, seed, blocks):
    """Each slot takes its first candidate, in draw order, whose target its node has not picked.

    Node i's candidates must have been drawn on [0, i + the pool length).
    """
    candidates, bounds = {}, {}
    for slots, values, highs in blocks:
        for slot, x, high in zip(slots, values, highs):
            candidates.setdefault(slot, []).append(x)
            bounds.setdefault(slot, set()).add(high)
    m0 = math.ceil(lam)
    base = math.floor(lam / 2.0)
    p_low = 1.0 + base - lam / 2.0
    low = np.random.default_rng(seed).random(n - m0) < p_low
    pool = [v for u in range(m0) for w in range(u + 1, m0) for v in (u, w)]
    slot = 0
    for i in range(m0, n):
        picked = []
        for _ in range(min(base if low[i - m0] else base + 1, i)):
            assert bounds[slot] == {i + len(pool)}
            picked.append(next(w for w in (x if x < i else pool[x - i] for x in candidates[slot])
                               if w not in picked))
            slot += 1
        for w in picked:
            pool.extend((i, w))
    assert slot == len(candidates)
    return np.array(pool, dtype=np.int64).reshape(-1, 2)


_BA_CASES = [(2.0, 3), (2.5, 4), (3.0, 60), (3.0, 2000), (6.0, 700), (7.3, 300), (10.0, 300),
             (10.0, 3000), (30.0, 200)]


@pytest.mark.parametrize("lam, n", _BA_CASES)
def test_barabasi_albert_takes_each_slots_first_valid_candidate(lam, n):
    for seed in range(3):
        g, blocks = _recorded_barabasi_albert(lam, n, seed)
        assert np.array_equal(g.edge_array, _replay_barabasi_albert(lam, n, seed, blocks))


@pytest.mark.parametrize("lam, n", [case for case in _BA_CASES if case[1] > 100])
def test_barabasi_albert_first_valid_rule_across_extensions_and_block_edges(lam, n):
    # one candidate per slot and 7-slot blocks: rejected slots draw again and
    # pointers cross block boundaries on every graph
    with mock.patch.object(generators, "_CANDIDATES", 1), mock.patch.object(generators, "_SLOT_BLOCK", 7):
        for seed in range(3):
            g, blocks = _recorded_barabasi_albert(lam, n, seed)
            seen, extended = set(), 0
            for slots, _, _ in blocks:
                extended += slots[0] in seen
                seen.update(slots)
            assert extended and len(blocks) - extended > 1
            assert np.array_equal(g.edge_array, _replay_barabasi_albert(lam, n, seed, blocks))


def _ba_statistics(lam, n, make, seeds):
    """Per graph: the sum of squared degrees, the maximum degree, the first ten
    degrees and the share of vertices at each of the 11 lowest possible degrees
    and above."""
    bins = math.floor(lam / 2.0) + np.arange(12)
    rows = {"sum of squared degrees": [], "maximum degree": [], "first ten degrees": [], "degree histogram": []}
    for seed in seeds:
        degrees = np.asarray(make(lam, n, np.random.default_rng([7, seed])).degrees())
        rows["sum of squared degrees"].append(float((degrees ** 2).sum()))
        rows["maximum degree"].append(float(degrees.max()))
        rows["first ten degrees"].append(degrees[:10])
        rows["degree histogram"].append(np.bincount(np.minimum(degrees, bins[-1]), minlength=bins[-1] + 1)[bins] / n)
    return {name: np.array(values, dtype=float) for name, values in rows.items()}


@pytest.mark.parametrize("lam", [3.0, 10.0])
def test_barabasi_albert_has_the_law_of_the_sequential_process(lam):
    got = _ba_statistics(lam, 1000, barabasi_albert, range(60))
    want = _ba_statistics(lam, 1000, _reference_barabasi_albert, range(60, 120))
    for name, a in got.items():
        b = want[name]
        se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
        assert (np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4 * se).all(), name


@pytest.mark.parametrize("lam", [2.0, 2.5, 7.3])
def test_barabasi_albert_smallest_graphs(lam):
    m0, base = math.ceil(lam), math.floor(lam / 2.0)
    for seed in range(20):
        g = barabasi_albert(lam, m0 + 1, np.random.default_rng(seed))
        low = np.random.default_rng(seed).random() < 1.0 + base - lam / 2.0  # the one node's pick count
        edges = [tuple(sorted(e)) for e in g.edge_array.tolist()]
        assert len(edges) == len(set(edges)) and all(u != v for u, v in edges)
        assert len(edges) == m0 * (m0 - 1) // 2 + (base if low else base + 1)


def test_barabasi_albert_needs_no_more_memory_than_a_configuration_graph():
    def peak(make, seed):
        return traced_peak(lambda: make(10.0, 40_000, np.random.default_rng(seed)),
                           warm_up=lambda: make(10.0, 500, np.random.default_rng(0)))[0]

    def poisson(lam, n, rng):
        return sample_graph(Family.CONFIG_POISSON, lam, n, rng)

    with mock.patch.object(generators, "_CANDIDATES", 1):
        for seed in range(10):
            assert peak(barabasi_albert, seed) <= peak(poisson, seed)


@pytest.mark.parametrize("family", list(Family))
def test_building_a_graph_needs_at_most_a_quarter_more_memory_than_the_graph_holds(family):
    # The traced peak of a draw, set against the bytes of edge_array, the CSR
    # offsets and targets and degrees().  Barabasi-Albert at lam = 3 is left
    # out: there its 2**14-slot block arrays, whose size is part of its random
    # stream, outweigh a 60k-edge graph, and the peak reads about 2.5 times it.
    peak, g = traced_peak(lambda: sample_graph(family, 10.0, 40_000, np.random.default_rng(1)),
                          warm_up=lambda: sample_graph(family, 10.0, 500, np.random.default_rng(0)))
    offsets, targets = g.adjacency
    held = g.edge_array.nbytes + offsets.nbytes + targets.nbytes + g.degrees().nbytes
    assert peak <= 1.25 * held


def test_counting_triangles_needs_at_most_five_times_the_bytes_of_the_edges():
    # The traced peak against the edge array, on a graph of several wedge
    # blocks: 4.0 times at n = 10k, where 2**20-wedge blocks, with the
    # fault-check arrays kept through the ranking, read 8.0.
    n = 10_000
    edges = erdos_renyi(8.0, n, np.random.default_rng(1)).edge_array
    degrees = np.bincount(edges.ravel(), minlength=n)
    order = degrees * n + np.arange(n)  # the (degree, id) order that orients each edge
    out = np.bincount(np.where(order[edges[:, 0]] < order[edges[:, 1]], edges[:, 0], edges[:, 1]), minlength=n)
    peak, _ = traced_peak(lambda: triangle_counts(n, edges))
    assert peak <= 5 * edges.nbytes
    assert (out * (out - 1) // 2).sum() > 4 * graph._WEDGE_BLOCK


def test_rewiring_needs_at_most_nine_times_the_bytes_of_the_simple_edges():
    # 7.5 times at n = 5k, where the state read 17.8 when it counted the
    # triangles after building its rows, held one int object per row entry
    # and lived on while the rewired graph was built.
    g = sample_graph(Family.CONFIG_POISSON, 8.0, 5_000, np.random.default_rng(1))
    with mock.patch.object(generators, "_MAX_SWAPS", 100):  # the peak is set before and after the swaps
        peak, _ = traced_peak(lambda: rewire_to_clustering(g, 0.1, np.random.default_rng(2)))
    assert peak <= 9 * 16 * len(_simple_view(g))


@pytest.mark.parametrize("family, lam, n, message", [
    (Family.BARABASI_ALBERT, 0.5, 100, "mean degree must be >= 2, got 0.5"),
    (Family.BARABASI_ALBERT, 3.0, 3, "need n > lam, got n=3, lam=3.0"),
    (Family.ERDOS_RENYI, 500.0, 100, "mean degree must lie in [0, n-1], got 500.0"),
    (Family.CONFIG_LOGNORMAL, 1.0, 100, "lognormal degrees need a target mean degree > 1"),
    (Family.CONFIG_LOGNORMAL, 0.5, 100, "target mean degree must be >= 1, got 0.5"),
    (Family.CONFIG_POISSON, 0.5, 100, "target mean degree must be >= 1, got 0.5"),
    (Family.CONFIG_EXPONENTIAL, 0.99, 100, "target mean degree must be >= 1, got 0.99"),
    (Family.CONFIG_POISSON, float("nan"), 100, "mean degree must be finite, got nan"),
    # an int past the float range
    pytest.param(Family.BARABASI_ALBERT, 10**400, 100, f"need n > lam, got n=100, lam={10**400}", id="ba-10**400"),
    pytest.param(Family.CONFIG_POISSON, 10**400, 100, f"mean degree {10**400} on 100 vertices puts the expected "
                 "stub total past the 64-bit range", id="poisson-10**400"),
    pytest.param(Family.ERDOS_RENYI, 10**400, 100, f"mean degree must lie in [0, n-1], got {10**400}",
                 id="er-10**400"),
    # ints past Python's int-to-str limit, given in 4 significant digits
    pytest.param(Family.BARABASI_ALBERT, 10**5000, 100, "need n > lam, got n=100, lam=1.000e+5000",
                 id="ba-10**5000"),
    pytest.param(Family.BARABASI_ALBERT, -10**5000, 100, "mean degree must be >= 2, got -1.000e+5000",
                 id="ba--10**5000"),
    pytest.param(Family.CONFIG_POISSON, 10**5000, 100, "mean degree 1.000e+5000 on 100 vertices puts the "
                 "expected stub total past the 64-bit range", id="poisson-10**5000"),
    pytest.param(Family.CONFIG_EXPONENTIAL, -10**5000, 100, "target mean degree must be >= 1, got -1.000e+5000",
                 id="exponential--10**5000"),
    pytest.param(Family.ERDOS_RENYI, 2**20000 - 1, 100, "mean degree must lie in [0, n-1], got 3.980e+6020",
                 id="er-2**20000-1"),
])
def test_a_mean_degree_the_family_cannot_generate_is_rejected_before_drawing(family, lam, n, message):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    checks = [lambda: check_family(family, lam, n), lambda: sample_graph(family, lam, n, rng)]
    if family in generators._CONFIG_FAMILIES:
        checks.append(lambda: sample_degrees(family, lam, n, rng))
    for check in checks:
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            check()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("family, n, message", [
    (Family.ERDOS_RENYI, 1, "need at least two vertices"),
    (Family.BARABASI_ALBERT, 2, "need at least three vertices"),
    (Family.BARABASI_ALBERT, -4, "need at least three vertices"),
    (Family.ERDOS_RENYI, 2**31, "Erdos-Renyi graphs need n <= 2147483647, got 2147483648"),
    (Family.CONFIG_POISSON, 0, "need at least one vertex"),
    (Family.CONFIG_LOGNORMAL, -4, "need at least one vertex"),
    (Family.ERDOS_RENYI, 10**11, "graphs need n <= 3037000499, got 100000000000"),
    (Family.CONFIG_POISSON, 10**11, "graphs need n <= 3037000499, got 100000000000"),
    (Family.CONFIG_EXPONENTIAL, 3_037_000_500, "graphs need n <= 3037000499, got 3037000500"),
    (Family.BARABASI_ALBERT, 10**11, "graphs need n <= 3037000499, got 100000000000"),
])
def test_a_size_the_family_cannot_generate_is_rejected_whatever_the_mean_degree(family, n, message):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for check in (lambda: check_size(family, n), lambda: check_family(family, float("nan"), n),
                  lambda: sample_graph(family, 0.5, n, rng)):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            check()
    assert rng.bit_generator.state == state


def test_the_checks_take_a_family_by_its_plan_name():
    for check in (lambda: check_size("poisson", 0), lambda: check_family("poisson", 0.5, 0)):
        with pytest.raises(ValueError, match="^need at least one vertex$"):
            check()
    with pytest.raises(ValueError, match="^target mean degree must be >= 1, got 0.5$"):
        check_family("poisson", 0.5, 100)
    check_family("er", 0.5, 100)
    with pytest.raises(ValueError, match="^unknown family 'marslink'"):
        check_family("marslink", 3.0, 100)



def _lexsorted_edges(state):
    """The rewiring state's edges (u, v), u < v, ordered by ``np.lexsort`` as before."""
    heads = np.fromiter(itertools.chain.from_iterable(state.adj), np.int64, int(state.degrees.sum()))
    pairs = np.stack([np.repeat(np.arange(len(state.degrees)), state.degrees), heads], axis=1)
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _layout(edges):
    return edges.dtype, edges.shape, edges.flags.c_contiguous, edges.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.data())
def test_rewired_edges_come_in_lexsort_order(n, data):
    vertex = st.integers(0, n - 1)
    state = generators._RewireState(n, np.array(data.draw(st.lists(st.tuples(vertex, vertex), max_size=80)),
                                                dtype=np.int64).reshape(-1, 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for row in state.adj:
        rng.shuffle(row)
    assert _layout(state.edge_array()) == _layout(_lexsorted_edges(state))


def test_a_rewired_graph_lists_its_edges_in_lexsort_order():
    g = sample_graph(Family.CONFIG_POISSON, 8.0, 20_000, np.random.default_rng(4))
    states = []

    class Recorded(generators._RewireState):
        def __init__(self, n, edges):
            super().__init__(n, edges)
            states.append(self)

    with mock.patch.object(generators, "_RewireState", Recorded):
        rewired = rewire_to_clustering(g, 0.05, np.random.default_rng(5))
    want = _lexsorted_edges(states[0])
    assert _layout(states[0].edge_array()) == _layout(want)
    assert rewired.edge_array.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["lognormal", "poisson", "exponential"])
@pytest.mark.parametrize("lam, n", [(1e300, 6), (1e19, 1), (4e18, 3)])
def test_a_configuration_family_rejects_a_mean_degree_past_the_int64_stub_total(family, lam, n):
    message = f"mean degree {lam} on {n} vertices puts the expected stub total past the 64-bit range"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        check_family(Family(family), lam, n)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        sample_graph(Family(family), lam, n, np.random.default_rng(0))
    check_family(Family(family), 1e18, 9)  # 9e18 stubs fit


class _FixedDraws:
    """A generator stand-in whose draws are given values."""

    def __init__(self, values):
        self.values = values

    def poisson(self, *args, **kwargs):
        return np.asarray(self.values, dtype=np.int64)

    def exponential(self, *args, **kwargs):
        return np.asarray(self.values, dtype=np.float64)

    lognormal = exponential


@pytest.mark.parametrize("family, draws", [
    ("poisson", [3, INT64_MAX]),            # 1 + X wraps
    ("exponential", [2.0, 9.3e18]),         # past 2**63 once rounded
    ("exponential", [2.0, 2.0**63 - 1.5]),  # rounds to 2**63
    ("lognormal", [float("inf"), 2.0]),
    ("lognormal", [float("nan"), 2.0]),
])
def test_sample_degrees_rejects_a_draw_past_int64(family, draws):
    message = f"a degree drawn for the {family} family at mean degree 2.0 does not fit in 64 bits"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        sample_degrees(Family(family), 2.0, len(draws), _FixedDraws(draws))


@pytest.mark.parametrize("family, draws", [
    ("poisson", [INT64_MAX // 2, INT64_MAX // 2, 5]),
    ("exponential", [5e18, 5e18, 1.0]),
    ("lognormal", [5e18, 5e18, 1.0]),
])
def test_sample_degrees_rejects_degrees_that_sum_past_int64(family, draws):
    message = f"{family} degrees drawn at mean degree 2.0 on 3 vertices sum past the 64-bit range"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        sample_degrees(Family(family), 2.0, 3, _FixedDraws(draws))


def test_degrees_that_just_fit_are_kept():
    assert sample_degrees(Family.CONFIG_POISSON, 2.0, 1, _FixedDraws([INT64_MAX - 1])).tolist() == [INT64_MAX]
    assert sample_degrees(Family.CONFIG_EXPONENTIAL, 2.0, 2, _FixedDraws([2.0**40, 0.2])).tolist() == [
        2**40 + 1, 1]


def test_huge_means_that_pass_the_bound_draw_or_fail_cleanly():
    # n * lam fits, yet the draws may not: numpy's Poisson refuses a mean this close to 2**63,
    # and an exponential draw passes 2**63 with probability exp(-1.02)
    with pytest.raises(ValueError, match="^a degree drawn for the poisson family at mean degree 9.223372036854774e\\+18 "):
        sample_degrees(Family.CONFIG_POISSON, float(2**63 - 2048), 1, np.random.default_rng(0))
    outcomes = set()
    for seed in range(12):
        try:
            degrees = sample_degrees(Family.CONFIG_EXPONENTIAL, 9e18, 1, np.random.default_rng(seed))
        except ValueError as exc:
            assert str(exc) == "a degree drawn for the exponential family at mean degree 9e+18 does not fit in 64 bits"
            outcomes.add("rejected")
        else:
            assert 1 <= degrees[0] <= INT64_MAX
            outcomes.add("kept")
    assert outcomes == {"rejected", "kept"}


# ---------------------------------------------------------------------------
# the key sorts of the rewiring state and of the copy model against the calls they replace


@settings(max_examples=150, deadline=None)
@given(g=multigraphs())
@example(g=MultiGraph(3, [(0, 0), (1, 1), (1, 1)]))  # every edge a loop: no simple edge is left
@example(g=MultiGraph(2, []))
@example(g=MultiGraph(4, [(2, 3), (0, 1), (1, 0), (3, 2), (0, 1), (1, 1)]))  # first copies out of key order
def test_the_rewire_state_starts_as_the_unique_first_copy_construction(g):
    state = generators._RewireState(g.n, g.edge_array)
    reference = _ReferenceRewireState(g.n, g.edge_array)  # np.unique(return_index=True), a stable argsort
    assert state.adj == [reference.row(v) for v in range(g.n)]
    assert state.degrees.tolist() == reference.degrees.tolist()
    assert state.tri == reference.tri


@pytest.mark.parametrize("lam, n, seed", [(10.0, 40, 0), (6.0, 20, 3), (3.0, 30, 4)])
def test_barabasi_albert_merges_redrawn_candidates_as_the_stable_argsort_does(lam, n, seed):
    merges = []

    def stable_argsort(values):
        merges.append(len(values))
        return np.argsort(values, kind="stable")

    with mock.patch.object(generators, "stable_order", stable_argsort):
        want = barabasi_albert(lam, n, np.random.default_rng(seed)).edge_array
    assert merges  # this draw redraws the candidates of an exhausted slot
    assert barabasi_albert(lam, n, np.random.default_rng(seed)).edge_array.tobytes() == want.tobytes()
