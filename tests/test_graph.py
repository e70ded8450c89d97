import random
import re
from collections import Counter
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsize.generators import Family, sample_graph
from netsize.graph import (
    INT64_MAX,
    INT64_MIN,
    MAX_VERTICES,
    MultiGraph,
    cross_seed_matches,
    free_ends,
    free_neighborhood,
    harmonic_mean,
    harmonic_mean_degree,
    matches,
    mean_degree,
    stable_order,
)

K3 = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
STAR = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])  # center 0
# vertices 1..4 in a ring, implemented 0-based as 0-1-2-3-0
CYCLE4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_degree_triangle_and_star():
    assert all(K3.degree(v) == 2 for v in range(3))
    assert STAR.degree(0) == 3
    assert STAR.degree(2) == 1


def test_degree_self_loop_counts_twice():
    g = MultiGraph(2, [(0, 0)])
    assert g.degree(0) == 2
    assert g.degree(1) == 0
    assert sorted(g.neighbors(0).items()) == [(0, 2)]


@st.composite
def _multigraph_inputs(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=30))  # loops and repeats allowed
    return n, edges


@settings(max_examples=300, deadline=None)
@given(_multigraph_inputs())
def test_neighbor_rows_are_sorted_endpoint_occurrences(inputs):
    n, edges = inputs
    g = MultiGraph(n, edges)
    assert g.edge_array.tolist() == [list(e) for e in edges]
    ends = [u for e in edges for u in e]
    assert g.degrees().tolist() == [ends.count(v) for v in range(n)]
    for v in range(n):
        row = g.neighbor_ids(v).tolist()
        assert row == sorted(row)
        occurrences = Counter(b for a, b in edges if a == v) + Counter(a for a, b in edges if b == v)
        assert Counter(row) == occurrences
        assert g.neighbors(v) == occurrences


def _reference_csr(n, edges):
    """The CSR of ``edges`` as ``MultiGraph`` built it from full-size temporaries."""
    u, v = edges[:, 0], edges[:, 1]
    sources, targets = np.divmod(np.sort(np.r_[u * n + v, v * n + u]), n)
    degrees = np.bincount(sources, minlength=n)
    return np.r_[0, np.cumsum(degrees)], targets, degrees


def _edge_layouts(edges):
    """``edges`` as the caller may hand them over: copies of other dtypes and non-contiguous views."""
    twice = np.repeat(edges, 2, axis=0)
    return {
        "int64": edges,
        "int32": edges.astype(np.int32),
        "uint64": edges.astype(np.uint64),
        "every other row": twice[::2],
        "column-reversed": edges[:, ::-1].copy()[:, ::-1],
        "Fortran order": np.asfortranarray(edges),
    }


@st.composite
def _csr_inputs(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, draw(st.integers(0, n - 1)))  # few distinct ends make loops and parallels
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=50))
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(_csr_inputs())
@example((1, np.empty((0, 2), dtype=np.int64)))
@example((1, np.zeros((3, 2), dtype=np.int64)))  # one vertex, three parallel loops
@example((5, np.array([[4, 4], [0, 4], [4, 0], [2, 2]])))
def test_the_csr_build_matches_the_full_size_reference(inputs):
    n, edges = inputs
    want = _reference_csr(n, edges)
    for layout, arr in _edge_layouts(edges).items():
        before = arr.copy()
        g = MultiGraph(n, arr)
        got = (*g.adjacency, g.degrees())
        for name, a, b in zip(("offsets", "targets", "degrees"), got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), (layout, name)
        assert np.array_equal(g.edge_array, edges) and g.edge_array.dtype == np.int64, layout
        assert arr.dtype == before.dtype and np.array_equal(arr, before), layout


@settings(max_examples=200, deadline=None)
@given(_csr_inputs())
@example((3, np.array([[1, 1], [1, 1], [0, 1], [1, 0]])))  # parallel loops, parallel edges, vertex 2 isolated
def test_the_csr_is_the_networkx_multigraph_of_its_edges(inputs):
    # networkx as an outside reference: a loop adds 2 to its vertex's degree and
    # appears twice in its row, a parallel edge once per copy
    n, edges = inputs
    g = MultiGraph(n, edges)
    reference = nx.MultiGraph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(edges.tolist())
    assert g.degrees().tolist() == [reference.degree(v) for v in range(n)]
    offsets, targets = g.adjacency
    for v in range(n):
        row = [w for w, keys in reference.adj[v].items() for _ in range(len(keys) * (1 + (w == v)))]
        assert targets[offsets[v]:offsets[v + 1]].tolist() == sorted(row)


def test_vertex_count_bounds():
    g = MultiGraph(0, [])
    assert g.num_edges == 0 and len(g.degrees()) == 0
    # the largest key, n**2 - 1, fits in int64 at MAX_VERTICES and not one above
    assert MAX_VERTICES**2 - 1 <= INT64_MAX < (MAX_VERTICES + 1)**2 - 1
    with pytest.raises(ValueError, match="n <= 3037000499"):
        # the top vertex's loop key, n**2 - 1, would not fit in int64
        MultiGraph(MAX_VERTICES + 1, [(MAX_VERTICES, MAX_VERTICES)])
    assert MultiGraph(np.int64(3), [(0, 1)]).n == 3


@pytest.mark.parametrize("n", [
    pytest.param(3.0, id="float"), pytest.param(np.float64(3.0), id="np.float64"), pytest.param(True, id="bool"),
])
def test_a_vertex_count_that_is_not_an_int_is_rejected(n):
    with pytest.raises(ValueError, match=f"^vertex count must be an integer, got {re.escape(repr(n))}$"):
        MultiGraph(n, [(0, 0)])


def test_edge_endpoints_must_be_integers():
    with pytest.raises(ValueError, match="^edge endpoints must be integers, got float64 values$"):
        MultiGraph(3, [(0.7, 1.2), (1, 2)])
    with pytest.raises(ValueError, match="^edge endpoints must be integers"):
        MultiGraph(3, np.array([[0.0, 1.0]]))
    for edges in ([], np.empty((0, 2)), ()):
        assert MultiGraph(3, edges).num_edges == 0
    for edges in ([(0, 1), (1, 2)], np.array([[0, 1], [1, 2]], dtype=np.uint8)):
        g = MultiGraph(3, edges)
        assert g.edge_array.dtype == np.int64 and g.edge_array.tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("n, edges, message", [
    (-1, [], "vertex count must be non-negative"),
    (3, [(0, 1, 2)], "edges must be (u, v) pairs"),
    (3, [0, 1], "edges must be (u, v) pairs"),
    (3, [(0, 1), (2, 3)], "edge endpoint out of range for n=3"),
    (3, [(-1, 0)], "edge endpoint out of range for n=3"),
])
def test_a_multigraph_rejects_a_bad_vertex_count_or_edge_list(n, edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MultiGraph(n, edges)


@pytest.mark.parametrize("edges", [[(0, True)], [(np.True_, 2)], ((1, 2), (False, 0)), iter([(0, 1), (True, 2)])])
def test_a_multigraph_rejects_a_bool_endpoint_next_to_ints(edges):
    with pytest.raises(ValueError, match="^edge endpoints must be integers, got bool values$"):
        MultiGraph(3, edges)


def test_a_multigraph_reads_pair_lists_of_any_integer_type():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    for edges in ([(np.int64(0), 1), (1, np.uint8(2))], list(g.edge_array), iter([[0, 1], [1, 2]])):
        assert MultiGraph(3, edges).edge_array.tobytes() == g.edge_array.tobytes()


def test_a_multigraph_repr_reads_back_as_an_equal_graph():
    g = MultiGraph(4, [(0, 0), (2, 1), (2, 1), (3, 0)])  # a loop and a parallel edge
    assert repr(g) == "MultiGraph(4, [[0, 0], [2, 1], [2, 1], [3, 0]])"
    for graph in (g, MultiGraph(0, []), MultiGraph(3, [])):
        back = eval(repr(graph), {"MultiGraph": MultiGraph})
        assert back.n == graph.n
        assert back.edge_array.shape == graph.edge_array.shape
        assert back.edge_array.tobytes() == graph.edge_array.tobytes()


def test_neighbor_bags_are_fresh_copies():
    bag = K3.neighbors(0)
    bag[5] += 1
    assert sorted(K3.neighbors(0).items()) == [(1, 1), (2, 1)]


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        K3.degree(3)


def test_mean_degree():
    assert mean_degree(STAR, [0, 1, 2, 3]) == pytest.approx(1.5)
    assert mean_degree(K3, [0, 1, 2]) == pytest.approx(2.0)
    assert mean_degree(STAR, [0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        mean_degree(K3, [])


def test_harmonic_mean_degree():
    # 4 / (1/3 + 1 + 1 + 1) = 1.2
    assert harmonic_mean_degree(STAR, [0, 1, 2, 3]) == pytest.approx(1.2)
    assert harmonic_mean_degree(K3, [0, 1, 2]) == pytest.approx(2.0)
    lonely = MultiGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        harmonic_mean_degree(lonely, [0, 1])
    with pytest.raises(ValueError, match="^harmonic mean of an empty collection is undefined$"):
        harmonic_mean([])


FOREST3 = ((0, 1), (0, 3), (1, 2))  # referral edges of the forced single-seed trace


def test_free_neighborhood_cycle_traces():
    # both of vertex 0's edges are referral edges
    assert sorted(free_neighborhood(CYCLE4, 0, [(0, 1), (0, 3)]).items()) == []
    # one referral edge at vertex 3 leaves the tie to 2
    assert sorted(free_neighborhood(CYCLE4, 3, [(0, 3)]).items()) == [(2, 1)]
    # no removals: the full bag, one entry per incident edge
    bag = free_neighborhood(CYCLE4, 1, [])
    assert bag.total() == CYCLE4.degree(1)


def test_free_neighborhood_rejects_absent_edge():
    with pytest.raises(ValueError):
        free_neighborhood(CYCLE4, 0, [(0, 2)])


def test_free_ends_cycle():
    assert free_ends(CYCLE4, [0, 1, 2, 3], FOREST3).total() == 2
    assert free_ends(CYCLE4, [], FOREST3).total() == 0
    # no forest: every edge contributes both end occurrences
    assert free_ends(CYCLE4, [0, 1, 2, 3], []).total() == 2 * CYCLE4.num_edges


def test_matches_examples():
    assert matches(CYCLE4, [0, 1, 2, 3], FOREST3).total() == 2
    assert matches(K3, [0, 1], []).total() == 2
    # in-sample matches come in pairs on a loop-free simple graph
    rng = np.random.default_rng(3)
    g = sample_graph(Family.ERDOS_RENYI, 4.0, 60, rng)
    for r in (10, 25, 60):
        subjects = list(rng.choice(60, size=r, replace=False))
        assert matches(g, subjects, []).total() % 2 == 0


def test_matches_cap_parallel_edges():
    # 0 and 1 joined twice: the neighbor occurs twice in the bag but the
    # sample carries multiplicity 1
    g = MultiGraph(2, [(0, 1), (0, 1)])
    assert free_ends(g, [0, 1], []).total() == 4
    assert matches(g, [0, 1], []).total() == 2


def test_cross_seed_matches_cycle():
    seed_of = {0: 0, 1: 0, 3: 0, 2: 2}
    forest = [(0, 1), (0, 3)]
    x_seed0 = cross_seed_matches(CYCLE4, [0, 1, 2, 3], forest, seed_of, 0)
    x_seed2 = cross_seed_matches(CYCLE4, [0, 1, 2, 3], forest, seed_of, 2)
    assert x_seed0.total() == 2
    assert x_seed2.total() == 2
    with pytest.raises(ValueError):
        cross_seed_matches(CYCLE4, [0, 1, 2, 3], forest, seed_of, 1)


def test_cross_seed_no_edges_between_components():
    g = MultiGraph(4, [(0, 1), (2, 3)])
    seed_of = {0: 0, 1: 0, 2: 2, 3: 2}
    forest = [(0, 1), (2, 3)]
    assert cross_seed_matches(g, range(4), forest, seed_of, 0).total() == 0
    assert cross_seed_matches(g, range(4), forest, seed_of, 2).total() == 0


@pytest.mark.parametrize("family,lam", [(Family.CONFIG_POISSON, 5.0), (Family.ERDOS_RENYI, 6.0)])
def test_handshake_on_generated_graphs(family, lam):
    for seed in range(5):
        g = sample_graph(family, lam, 300, np.random.default_rng(seed))
        assert int(np.sum(g.degrees())) == 2 * g.num_edges


def test_pooled_quantities_consistency():
    rng = np.random.default_rng(11)
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 200, rng)
    subjects = [int(v) for v in rng.choice(200, size=60, replace=False)]
    r_bag = free_ends(g, subjects, [])
    m_bag = matches(g, subjects, [])
    # R(S, empty) pools exactly the degrees
    assert r_bag.total() == sum(g.degree(v) for v in subjects)
    # matches are a sub-multiset of the free ends
    assert m_bag <= r_bag


@pytest.mark.parametrize("seed", range(5))
def test_pooled_bags_obey_the_multiset_algebra(seed):
    # random multigraphs with parallel edges and loops on 8 vertices
    rng = random.Random(seed)
    for _ in range(100):
        edges = [tuple(rng.choices(range(8), k=2)) for _ in range(rng.randrange(0, 14))]
        g = MultiGraph(8, edges)
        subjects = rng.sample(range(8), rng.randrange(0, 9))
        cut = rng.randrange(0, len(subjects) + 1)
        r_bag = free_ends(g, subjects, [])
        m_bag = matches(g, subjects, [])
        # pooling over disjoint samples adds
        assert r_bag == free_ends(g, subjects[:cut], []) + free_ends(g, subjects[cut:], [])
        # matches are a sub-multiset of the free ends and land inside the sample
        assert m_bag <= r_bag and set(m_bag) <= set(subjects)
        # removing one incident edge and adding its ends back restores the bag
        for a, b in edges[:3]:
            restored = Counter([b, a] if a == b else [b])
            assert free_neighborhood(g, a, [(a, b)]) + restored == g.neighbors(a)
        # no zero or negative count is stored anywhere
        for bag in (r_bag, m_bag, *(free_neighborhood(g, a, [(a, b)]) for a, b in edges[:3])):
            assert all(count > 0 for count in bag.values())


def test_cross_seed_matches_bounded_by_matches():
    rng = np.random.default_rng(12)
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 200, rng)
    subjects = [int(v) for v in rng.choice(200, size=50, replace=False)]
    half = len(subjects) // 2
    seed_of = {v: subjects[0] if i < half else subjects[half] for i, v in enumerate(subjects)}
    total_cross = sum(
        cross_seed_matches(g, subjects, [], seed_of, s).total()
        for s in (subjects[0], subjects[half])
    )
    assert total_cross <= matches(g, subjects, []).total()


# ---------------------------------------------------------------------------
# stable_order: one default sort of distinct keys in place of a stable argsort


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(0, 2**20), st.integers(INT64_MIN, INT64_MAX)),
                max_size=40))
@example([])
@example([7])
@example([2, 2, 2])
@example([INT64_MAX, INT64_MIN, 0, INT64_MAX, INT64_MIN])
def test_stable_order_is_the_stable_argsort(values):
    values = np.array(values, dtype=np.int64)
    got = stable_order(values)
    assert got.tolist() == np.argsort(values, kind="stable").tolist()


@pytest.mark.parametrize("values, keyed", [
    ([], False),                              # nothing to key: the argsort of nothing
    ([INT64_MIN], True),                      # one value spans 1
    ([5, 5, 5, 5], True),
    ([2**62 - 1, 0, 2**62 - 1], False),       # span 2**62 times 3 values passes 2**63
    ([2**62 - 1, 0], True),                   # span 2**62 times 2 values is 2**63: the last key is 2**63 - 1
    ([2**62, 0], False),                      # one more passes int64
    ([INT64_MAX, INT64_MIN, INT64_MAX], False),
])
def test_stable_order_keys_only_what_fits_in_int64(values, keyed):
    values = np.array(values, dtype=np.int64)
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        got = stable_order(values)
    assert argsort.called is not keyed
    assert got.tolist() == np.argsort(values, kind="stable").tolist()
