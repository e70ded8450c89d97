import itertools

import numpy as np
import pytest

from netsize.generators import (
    DegreeDistribution,
    DegreeKind,
    Family,
    GraphFamily,
    _pair_from_index,
    average_clustering,
    barabasi_albert,
    configuration_graph,
    erdos_renyi,
    rewire_to_clustering,
    sample_degrees,
    sample_graph,
)


def test_poisson_lam1_degenerate():
    dist = DegreeDistribution(DegreeKind.POISSON, 1.0)
    degrees = sample_degrees(dist, 500, np.random.default_rng(0))
    assert (degrees == 1).all()


def test_poisson_mean_matches_target():
    dist = DegreeDistribution(DegreeKind.POISSON, 3.0)
    degrees = sample_degrees(dist, 100_000, np.random.default_rng(1))
    assert degrees.mean() == pytest.approx(3.0, abs=0.05)
    assert degrees.min() >= 1


def test_explicit_passthrough():
    dist = DegreeDistribution(DegreeKind.EXPLICIT, explicit_degrees=(2, 2, 2))
    assert sample_degrees(dist, 3, np.random.default_rng(0)).tolist() == [2, 2, 2]


def test_continuous_kinds_have_integer_degrees_near_target():
    for kind in (DegreeKind.LOGNORMAL, DegreeKind.EXPONENTIAL):
        degrees = sample_degrees(DegreeDistribution(kind, 5.0), 100_000, np.random.default_rng(2))
        assert degrees.dtype.kind == "i"
        assert degrees.min() >= 1
        assert degrees.mean() == pytest.approx(5.0, rel=0.02)


def test_invalid_lambda_rejected():
    with pytest.raises(ValueError):
        DegreeDistribution(DegreeKind.POISSON, 0.5)
    with pytest.raises(ValueError):
        sample_degrees(DegreeDistribution(DegreeKind.LOGNORMAL, 1.0), 10, np.random.default_rng(0))


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
    g = configuration_graph([1, 1, 1], np.random.default_rng(3))
    realized = sorted(g.degrees())
    assert realized in ([1, 1, 2],)
    assert sum(realized) == 4


def test_configuration_rejects_empty():
    with pytest.raises(ValueError):
        configuration_graph([], np.random.default_rng(0))


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
    for n in (2, 3, 5, 11):
        expected = list(itertools.combinations(range(n), 2))
        got = [_pair_from_index(t, n) for t in range(n * (n - 1) // 2)]
        assert got == expected


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


def test_graph_family_wrapper():
    fam = GraphFamily(Family.ERDOS_RENYI, 5.0, 100)
    g = fam.sample(np.random.default_rng(0))
    assert g.n == 100
    with pytest.raises(ValueError):
        GraphFamily(Family.ERDOS_RENYI, 0.5, 100)


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
    adj = [set() for _ in range(rewired.n)]
    for u, v in rewired.edge_array.tolist():
        adj[u].add(v)
        adj[v].add(u)
    assert average_clustering(adj) >= 0.2


def test_average_clustering_brute_force_small():
    adj = [set() for _ in range(4)]
    for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
        adj[u].add(v)
        adj[v].add(u)
    # triangle 0-1-2 plus pendant 3: locals are 1, 1, 1/3, 0
    assert average_clustering(adj) == pytest.approx((1 + 1 + 1 / 3 + 0) / 4)


def test_rewire_state_annotations_resolve():
    from typing import get_type_hints

    from netsize.generators import _RewireState

    assert set(get_type_hints(_RewireState.__init__)) == {"n", "edges"}
