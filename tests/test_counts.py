"""Property tests: the sample's numpy counts against the Counter definitions.

``graph.free_ends``, ``graph.matches`` and ``graph.cross_seed_matches`` follow
the paper's text; ``Sample.counts`` must agree with them on every capture,
and with a direct ``Counter`` intersection under non-injective codes.
Metamorphic tests then change what no count may depend on (the code values,
the component labels, a trip through a dump) and require the same counts
and the same five estimates.  Last, the match lookup's code table and its
sorted search must give the same counts.
"""

import dataclasses
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsize import graph, sampling
from netsize.estimators import (
    EstimateResult, collision_prob, estimate_n1, estimate_n2, estimate_n2_hashed, estimate_n3, estimate_n3_hashed,
    m_hat, x_hat,
)
from netsize.graph import (
    INT64_MAX, INT64_MIN, MultiGraph, cross_seed_matches, free_ends, harmonic_mean, matches,
)
from netsize.generators import Family, sample_graph
from netsize.hashing import HashSpace, assign_hashes, hashed_view
from netsize.sampling import (
    Counts, RdsConfig, Sample, as_sample_view, rds_capture, read_sample_dump, write_sample_dump,
)

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
    """A sample whose subject and alter codes collide freely.

    The codes sit near one or two of 0, -40 and the two ends of the int64
    range, so the match lookup meets both its code table and its search.
    Component labels may already run 0, 1, 2, ... in order of first appearance
    (as in a capture) or be negative, gapped or out of that order; degrees may
    span a few values or more than 2**16.  So the counts meet both sides of
    each relabelling shortcut.
    """
    k = draw(st.integers(1, 8))
    bases = st.sampled_from(draw(st.lists(st.sampled_from([0, -40, INT64_MIN, INT64_MAX - 30]),
                                          min_size=1, max_size=2, unique=True)))

    def codes(top):
        return st.tuples(bases, st.integers(0, top)).map(sum)

    def column(values):
        return draw(st.lists(values, min_size=k, max_size=k))

    components = column(st.integers(-2, 2))
    layout = draw(st.sampled_from(["as drawn", "first appearance", "gapped"]))
    if layout == "first appearance":
        components = [list(dict.fromkeys(components)).index(c) for c in components]
    elif layout == "gapped":
        components = [c * 2**40 + 7 for c in components]
    wide = draw(st.booleans())
    subject_codes = column(codes(4))
    degrees = column(st.sampled_from([1, 2, 6, 2**16, 2**16 + 1, 2**20]) if wide else st.integers(1, 6))
    alters = [draw(st.lists(codes(5), max_size=6)) for _ in range(k)]
    return Sample(
        codes=subject_codes,
        degrees=[max(d, len(bag)) for d, bag in zip(degrees, alters)],  # a degree covers its alters
        alter_codes=alters,
        components=components,
    )


@pytest.mark.parametrize("components", [[0, -1], [0, 2, 1], [1, 0], [0, 0, 1, 0, 2], [-1, -1], [0, 2**63 - 1, 1]])
def test_components_are_labelled_in_order_of_first_appearance(components):
    k = len(components)
    counts = Sample(codes=range(k), degrees=[1] * k, alter_codes=[[]] * k, components=components).counts
    labels = list(dict.fromkeys(components))
    assert counts.labels.tolist() == labels
    assert counts.comp_size.tolist() == [components.count(label) for label in labels]


@pytest.mark.parametrize("degrees", [[3, 1, 3, 2], [5], [2**16 + 1, 1, 2**16 + 1], [0, 2**40, 7]])
def test_mass_degrees_are_the_sorted_distinct_degrees(degrees):
    k = len(degrees)
    counts = Sample(codes=[0] * k, degrees=degrees, alter_codes=[[]] * (k - 1) + [[0]], components=[0] * k).counts
    assert counts.mass_degrees.tolist() == sorted(set(degrees))
    assert counts.match_mass.tolist() == [degrees.count(d) for d in sorted(set(degrees))]


def _bags(sample):
    return [Counter(sample.alters(i).tolist()) for i in range(sample.size)]


def _reference_matches(sample):
    """(M, X per component label) by intersecting each bag with the subject-code bag."""
    codes, comps = sample.codes.tolist(), sample.components.tolist()
    bags = _bags(sample)
    subjects = Counter(codes)
    m = sum((bag & subjects).total() for bag in bags)
    x = {}
    for label in dict.fromkeys(comps):
        outside = Counter(c for c, comp in zip(codes, comps) if comp != label)
        x[label] = sum((bag & outside).total()
                       for bag, comp in zip(bags, comps) if comp == label)
    return m, x


@SETTINGS
@given(captures())
def test_counts_equal_graph_definitions(capture):
    g, sample = capture
    subjects, forest = sample.order, sample.forest
    counts = sample.counts
    assert counts.free == free_ends(g, subjects, forest.edges).total()
    assert counts.matches == matches(g, subjects, forest.edges).total()
    # components open in seed order, so the k-th component is the k-th seed's
    per_seed = [cross_seed_matches(g, subjects, forest.edges, forest.seed_of, s).total()
                for s in forest.seeds]
    assert counts.cross.tolist() == per_seed
    assert counts.comp_size.sum() == sample.size


@SETTINGS
@given(coded_samples())
def test_counts_equal_counter_intersection_under_colliding_codes(sample):
    m, x = _reference_matches(sample)
    assert sample.counts.matches == m
    assert dict(zip(sample.counts.labels.tolist(), sample.counts.cross.tolist())) == x


@SETTINGS
@given(captures(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_hashed_view_counts_equal_counter_intersection(capture, omega, seed):
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
        for code, mult in (bag & Counter(c for c, _ in against)).items():
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


# ---------------------------------------------------------------------------
# metamorphic tests

_ONE_COMPONENT = "cross-seed estimation needs more than one referral component"


def _estimates(sample, omega):
    """Each estimator's result on the sample, or the message of the error it raises."""
    calls = {
        "n1": lambda: estimate_n1(sample),
        "n2": lambda: estimate_n2(sample),
        "n3": lambda: estimate_n3(sample),
        "n2psi": lambda: estimate_n2_hashed(sample, omega),
        "n3psi": lambda: estimate_n3_hashed(sample, omega),
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call()
        except ValueError as exc:  # the one caller error these samples can meet
            assert name in ("n3", "n3psi") and str(exc) == _ONE_COMPONENT and len(sample.counts.labels) == 1
            out[name] = str(exc)
        else:
            assert isinstance(out[name], EstimateResult)
    return out


def _assert_same_counts(a, b, labels=None):
    """Field by field, dtypes, shapes and bytes; ``labels`` replaces ``a``'s component labels."""
    for field in dataclasses.fields(Counts):
        left, right = getattr(a, field.name), getattr(b, field.name)
        if field.name == "labels" and labels is not None:
            left = np.asarray(labels, dtype=left.dtype)
        if isinstance(left, np.ndarray):
            assert (left.dtype, left.shape, left.tobytes()) == (right.dtype, right.shape, right.tobytes()), field.name
        else:
            assert type(left) is type(right) and left == right, field.name


def _distinct_int64(data, count):
    return data.draw(st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=count, max_size=count, unique=True))


_SAMPLES = st.one_of(captures().map(lambda capture: capture[1]), coded_samples())


@SETTINGS
@given(_SAMPLES, st.integers(1, 50), st.data())
def test_a_bijective_recoding_of_every_code_changes_no_count_or_estimate(sample, omega, data):
    universe = np.unique(np.concatenate([sample.codes, sample.alter_codes]))
    image = np.array(_distinct_int64(data, len(universe)), dtype=np.int64)

    def recode(column):
        return image[np.searchsorted(universe, column)]

    recoded = dataclasses.replace(sample, codes=recode(sample.codes), alter_codes=recode(sample.alter_codes))
    _assert_same_counts(sample.counts, recoded.counts)
    assert _estimates(recoded, omega) == _estimates(sample, omega)


@SETTINGS
@given(_SAMPLES, st.integers(1, 50), st.data())
def test_relabelling_the_components_changes_no_count_or_estimate(sample, omega, data):
    # an injective relabelling keeps the order in which components first appear
    labels = sample.counts.labels.tolist()
    new = _distinct_int64(data, len(labels))
    relabel = dict(zip(labels, new))
    relabelled = dataclasses.replace(sample, components=[relabel[c] for c in sample.components.tolist()])
    _assert_same_counts(sample.counts, relabelled.counts, labels=new)
    assert _estimates(relabelled, omega) == _estimates(sample, omega)


@SETTINGS
@given(captures(), st.one_of(st.none(), st.integers(1, 6)), st.integers(1, 50), st.integers(0, 2**32 - 1))
def test_a_dump_written_and_read_back_changes_no_count_or_estimate(capture, code_space, omega, seed):
    g, sample = capture
    if code_space is not None:  # a hashed dump, whose codes collide
        sample = hashed_view(sample, np.random.default_rng(seed).integers(0, code_space, size=g.n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.csv"
        write_sample_dump(sample, path)
        read = read_sample_dump(path)
    _assert_same_counts(sample.counts, read.counts)
    assert _estimates(read, omega) == _estimates(sample, omega)


# ---------------------------------------------------------------------------
# the match lookup of Sample.counts: the code table and the sorted search


def _counts_on_both_paths(sample):
    """The counts of ``sample`` with the code lookup and the degree ranking forced onto their
    tables, and off them (the search and ``np.unique``)."""
    with mock.patch.object(sampling, "TABLE_MIN", 2**62), mock.patch.object(graph, "TABLE_MIN", 2**62):
        table = sampling._count(sample)
    with mock.patch.object(sampling, "TABLE_MIN", 0), mock.patch.object(graph, "TABLE_MIN", 0):
        search = sampling._count(sample)
    return table, search


@settings(max_examples=200, deadline=None)
@given(coded_samples())
@example(Sample(codes=[], degrees=[], alter_codes=[], components=[]))
@example(Sample(codes=[INT64_MIN, INT64_MAX], degrees=[2, 2], alter_codes=[[INT64_MAX, 0], [INT64_MIN, INT64_MIN]],
                components=[0, 1]))
def test_the_code_table_and_the_search_count_alike(sample):
    table, search = _counts_on_both_paths(sample)
    _assert_same_counts(table, search)
    _assert_same_counts(sample.counts, search)


def test_the_lookup_uses_the_table_up_to_its_bound():
    # a miss names some valid index, and the two paths name different ones:
    # the table reads the entry of the clipped query, the search its insertion point
    codes, queries = np.array([0, 9], dtype=np.int64), np.array([5, 9, -3, 12], dtype=np.int64)
    with mock.patch.object(sampling, "TABLE_MIN", 10):
        assert sampling._lookup(codes, queries).tolist() == [0, 1, 0, 1]  # span 10: the table
    with mock.patch.object(sampling, "TABLE_MIN", 9):
        assert sampling._lookup(codes, queries).tolist() == [1, 1, 0, 1]  # one past the bound: the search
    assert sampling._lookup(codes, queries[:0]).tolist() == []


def test_codes_across_the_whole_int64_range_take_the_search():
    # the span, 2**64, is a Python int: in int64 it would wrap to 0 and pick the table
    codes = np.array([INT64_MIN, -1, INT64_MAX], dtype=np.int64)
    queries = np.array([INT64_MAX, INT64_MIN, 0, -1], dtype=np.int64)
    assert sampling._lookup(codes, queries).tolist() == [2, 0, 2, 1]  # the miss, 0, at its insertion point


@pytest.mark.parametrize("omega", [1, 2, 2000, 32000, 256000, 2**63])
def test_hashed_and_plaintext_counts_agree_on_both_paths(omega):
    g = sample_graph(Family.CONFIG_POISSON, 10.0, 3000, np.random.default_rng(3))
    for r, seed in ((250, 1), (750, 2)):
        sample = rds_capture(g, RdsConfig(target_size=r), np.random.default_rng(seed))
        hashed = hashed_view(sample, assign_hashes(g.n, HashSpace(omega), np.random.default_rng(seed)))
        for s in (sample, hashed):
            table, search = _counts_on_both_paths(s)  # codes spanning past 2**62 take the search twice
            _assert_same_counts(table, search)
            _assert_same_counts(s.counts, search)
