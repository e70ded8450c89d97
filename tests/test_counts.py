"""Property tests: the sample's numpy counts against the Multiset definitions.

``graph.free_ends``, ``graph.matches`` and ``graph.cross_seed_matches`` follow
the paper's text; ``Sample.counts`` must agree with them on every capture,
and with a direct ``mintersect`` computation under non-injective codes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsize.graph import MultiGraph, cross_seed_matches, free_ends, harmonic_mean, matches
from netsize.hashing import collision_prob, hashed_view, m_hat, x_hat
from netsize.multiset import Multiset, mintersect
from netsize.sampling import RdsConfig, Sample, as_sample_view, rds_capture

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def captures(draw):
    """A small multigraph with loops and parallel edges, and a sample of it."""
    n = draw(st.integers(2, 10))
    vertex = st.integers(0, n - 1)
    g = MultiGraph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=25)))
    if draw(st.booleans()):
        return g, as_sample_view(g, draw(st.lists(vertex, min_size=1, max_size=n, unique=True)))
    r = draw(st.integers(1, n))
    law = draw(st.sampled_from([((2, 0.9), (1, 0.1)), ((3, 1.0),), ((1, 1.0),)]))
    cfg = RdsConfig(target_size=r, num_seeds=draw(st.integers(1, r)), recruit_law=law)
    return g, rds_capture(g, cfg, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@st.composite
def coded_samples(draw):
    """A sample whose subject and alter codes collide freely."""
    k = draw(st.integers(1, 8))

    def column(values):
        return draw(st.lists(values, min_size=k, max_size=k))

    return Sample(
        codes=column(st.integers(0, 4)),
        degrees=column(st.integers(1, 6)),
        alter_codes=[draw(st.lists(st.integers(0, 5), max_size=6)) for _ in range(k)],
        components=column(st.integers(0, 2)),
    )


def _bags(sample):
    return [Multiset(sample.alters(i).tolist()) for i in range(sample.size)]


def _reference_matches(sample):
    """(M, X per component label) by mintersect over the subject-code bags."""
    codes, comps = sample.codes.tolist(), sample.components.tolist()
    bags = _bags(sample)
    subjects = Multiset(codes)
    m = sum(mintersect(bag, subjects).cardinality() for bag in bags)
    x = {}
    for label in dict.fromkeys(comps):
        outside = Multiset(c for c, comp in zip(codes, comps) if comp != label)
        x[label] = sum(mintersect(bag, outside).cardinality()
                       for bag, comp in zip(bags, comps) if comp == label)
    return m, x


@SETTINGS
@given(captures())
def test_counts_equal_graph_definitions(capture):
    g, sample = capture
    subjects, forest = sample.order, sample.forest
    counts = sample.counts
    assert counts.free == free_ends(g, subjects, forest.edges).cardinality()
    assert counts.matches == matches(g, subjects, forest.edges).cardinality()
    # components open in seed order, so the k-th component is the k-th seed's
    per_seed = [cross_seed_matches(g, subjects, forest.edges, forest.seed_of, s).cardinality()
                for s in forest.seeds]
    assert counts.cross.tolist() == per_seed
    assert counts.comp_size.sum() == sample.size


@SETTINGS
@given(coded_samples())
def test_counts_equal_mintersect_under_colliding_codes(sample):
    m, x = _reference_matches(sample)
    assert sample.counts.matches == m
    assert dict(zip(sample.counts.labels.tolist(), sample.counts.cross.tolist())) == x


@SETTINGS
@given(captures(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_hashed_view_counts_equal_mintersect(capture, omega, seed):
    g, sample = capture
    hs = hashed_view(sample, np.random.default_rng(seed).integers(0, omega, size=g.n))
    m, x = _reference_matches(hs)
    assert hs.counts.matches == m
    assert hs.counts.cross.tolist() == list(x.values())
    assert hs.counts.free == sample.counts.free


def _per_code_mass(sample, bags_against, n_prime, omega):
    """sum over matched codes of multiplicity * sum of collision_prob over subjects."""
    d_tilde = harmonic_mean(sample.degrees.tolist())
    total = 0.0
    for bag, against in bags_against:
        for code, mult in mintersect(bag, Multiset(c for c, _ in against)).items():
            total += mult * sum(collision_prob(n_prime, omega, d_tilde, d) for c, d in against if c == code)
    return total


@SETTINGS
@given(coded_samples(), st.floats(1.0, 1e6), st.integers(1, 10**6))
def test_grouped_mass_equals_per_code_sum(sample, n_prime, omega):
    codes, degrees = sample.codes.tolist(), sample.degrees.tolist()
    comps = sample.components.tolist()
    bags = _bags(sample)
    everyone = list(zip(codes, degrees))
    direct = _per_code_mass(sample, [(bag, everyone) for bag in bags], n_prime, omega)
    assert m_hat(sample, n_prime, omega) == pytest.approx(direct, rel=1e-12, abs=0.0)
    for label in set(comps):
        outside = [(c, d) for c, d, comp in zip(codes, degrees, comps) if comp != label]
        pairs = [(bag, outside) for bag, comp in zip(bags, comps) if comp == label]
        direct = _per_code_mass(sample, pairs, n_prime, omega)
        assert x_hat(sample, label, n_prime, omega) == pytest.approx(direct, rel=1e-12, abs=0.0)
