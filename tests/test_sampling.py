import collections
import itertools
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsize import graph, sampling
from netsize.cli import main
from netsize.generators import Family, sample_graph
from netsize.graph import INT64_MAX, INT64_MIN, MultiGraph, harmonic_mean
from netsize.hashing import HashSpace, assign_hashes, hashed_view, telefunken_encode
from netsize.sampling import (
    RdsConfig,
    Sample,
    as_sample_view,
    rds_capture,
    read_sample_dump,
    rows_to_sample,
    sample_to_rows,
    uniform_sample,
    write_sample_dump,
)

CYCLE4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.mark.parametrize("call, message", [
    (lambda rng: sample_graph("poisson", 4.0, 2.5, rng), "vertex count must be an integer, got 2.5"),
    (lambda rng: sample_graph("poisson", 4.0, True, rng), "vertex count must be an integer, got True"),
    (lambda rng: sample_graph("ba", 4.0, 10.5, rng), "vertex count must be an integer, got 10.5"),
    (lambda rng: sample_graph("er", 4.0, 10.0, rng), "vertex count must be an integer, got 10.0"),
    (lambda rng: sample_graph("poisson", True, 10, rng), "a mean degree must be an int or a float, got True"),
    (lambda rng: sample_graph("er", "4", 10, rng), "a mean degree must be an int or a float, got '4'"),
    (lambda rng: uniform_sample(CYCLE4, True, rng), "sample size must be an integer, got True"),
    (lambda rng: uniform_sample(CYCLE4, 2.0, rng), "sample size must be an integer, got 2.0"),
    (lambda rng: assign_hashes(2.5, HashSpace(10), rng), "identity count must be an integer, got 2.5"),
    (lambda rng: assign_hashes(-1, HashSpace(10), rng), "identity count must be non-negative, got -1"),
    (lambda rng: telefunken_encode("12345", True), "digit count must be an integer, got True"),
])
def test_public_draws_name_a_bad_count(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(np.random.default_rng(0))


def test_uniform_sample_extremes():
    g = sample_graph(Family.ERDOS_RENYI, 3.0, 25, np.random.default_rng(0))
    assert sorted(uniform_sample(g, 25, np.random.default_rng(1))) == list(range(25))
    assert uniform_sample(g, 0, np.random.default_rng(1)) == ()
    for r in (26, -3):
        with pytest.raises(ValueError, match=f"^cannot sample {r} vertices from 25$"):
            uniform_sample(g, r, np.random.default_rng(1))


def test_uniform_sample_is_uniform():
    g = MultiGraph(10, [(i, (i + 1) % 10) for i in range(10)])
    rng = np.random.default_rng(7)
    counts = np.zeros(10)
    draws = 100_000
    for _ in range(draws):
        counts[uniform_sample(g, 1, rng)[0]] += 1
    freqs = counts / draws
    assert np.all(np.abs(freqs - 0.1) < 0.01)


def test_rds_forced_single_seed_trace():
    cfg = RdsConfig(target_size=4, num_seeds=1, recruit_law=((2, 1.0),), seeds=(0,))
    sample = rds_capture(CYCLE4, cfg, np.random.default_rng(3))
    assert sample.order in ((0, 1, 3, 2), (0, 3, 1, 2))
    assert len(sample.forest.edges) == 3
    assert sample.forest.seeds == (0,)
    assert all(sample.forest.seed_of[v] == 0 for v in sample.order)


def test_the_forest_is_built_on_each_read_and_not_kept():
    sample = rds_capture(CYCLE4, RdsConfig(target_size=4, num_seeds=2), np.random.default_rng(3))
    first, second = sample.forest, sample.forest
    assert (first, first.seed_of) == (second, second.seed_of)
    assert "forest" not in vars(sample)


@pytest.mark.parametrize("columns", [
    dict(codes=(4, 4), degrees=(2, 2), alter_codes=(4, 4), alter_offsets=(0, 1, 2), components=(0, 1)),
    dict(codes=(4, 7, 4), degrees=(2, 2, 2), alter_codes=(), alter_offsets=(0, 0, 0, 0), components=(0, 0, 1),
         recruiters=(-1, 0, -1)),
], ids=["two-seeds", "seed-recruit-seed"])
def test_a_sample_whose_codes_collide_has_no_forest(columns):
    sample = Sample(**columns)
    assert sample.counts.matches >= 0  # the counts are defined on colliding codes
    with pytest.raises(ValueError, match="^the referral forest needs distinct subject codes$"):
        sample.forest


def test_rds_isolated_graph_pure_reseeding():
    g = MultiGraph(5, [])
    cfg = RdsConfig(target_size=3, num_seeds=2)
    sample = rds_capture(g, cfg, np.random.default_rng(0))
    assert sample.size == 3
    assert len(sample.forest.edges) == 0
    assert len(sample.forest.seeds) == 3  # third vertex entered via reseed
    assert all(sample.forest.seed_of[v] == v for v in sample.order)


def test_rds_forest_identity_and_no_repeats():
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 500, np.random.default_rng(1))
    cfg = RdsConfig(target_size=150)
    for seed in range(5):
        sample = rds_capture(g, cfg, np.random.default_rng(seed))
        assert len(set(sample.order)) == len(sample.order)
        assert len(sample.forest.edges) == sample.size - len(sample.forest.seeds)
        # components partition the sample; recruiters stay in their component
        assert sample.counts.comp_size.sum() == sample.size
        assert len(sample.counts.labels) == len(sample.forest.seeds)
        for recruiter, recruit in sample.forest.edges:
            assert sample.forest.seed_of[recruiter] == sample.forest.seed_of[recruit]


def test_rds_alter_bags_exclude_referral_ties():
    cfg = RdsConfig(target_size=4, num_seeds=1, recruit_law=((2, 1.0),), seeds=(0,))
    sample = rds_capture(CYCLE4, cfg, np.random.default_rng(3))
    tree_degree = collections.Counter()
    for a, b in sample.forest.edges:
        tree_degree[a] += 1
        tree_degree[b] += 1
    for i, v in enumerate(sample.order):
        assert len(sample.alters(i)) == sample.degrees[i] - tree_degree[v]


def test_rds_overshoot_bounded():
    g = sample_graph(Family.CONFIG_POISSON, 8.0, 400, np.random.default_rng(2))
    cfg = RdsConfig(target_size=101)
    sample = rds_capture(g, cfg, np.random.default_rng(5))
    assert 101 <= sample.size <= 102  # max recruit count is 2


def test_rds_determinism():
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 300, np.random.default_rng(4))
    cfg = RdsConfig(target_size=80)
    a = rds_capture(g, cfg, np.random.default_rng(9))
    b = rds_capture(g, cfg, np.random.default_rng(9))
    assert a.order == b.order
    assert a.forest.edges == b.forest.edges


def test_rds_target_exceeds_population():
    with pytest.raises(ValueError):
        rds_capture(CYCLE4, RdsConfig(target_size=5, num_seeds=1), np.random.default_rng(0))


def test_rds_config_validation():
    with pytest.raises(ValueError):
        RdsConfig(target_size=5, num_seeds=6)
    with pytest.raises(ValueError, match="^recruit law probabilities sum to 0.9"):
        RdsConfig(target_size=10, recruit_law=((2, 0.5), (1, 0.4)))
    for law in (((2, 1.5), (1, -0.5)), ((2, float("nan")),), ((2, 0.5), (1, float("nan")))):
        with pytest.raises(ValueError, match="^recruit law probabilities must lie in \\[0, 1\\]"):
            RdsConfig(target_size=10, recruit_law=law)
    for law in (((1.5, 1.0),), ((2, 0.5), (-1, 0.5)), (("2", 1.0),), ((2.0, 1.0),)):
        with pytest.raises(ValueError, match=re.escape(f"recruit counts must be integers >= 0, got {law}")):
            RdsConfig(target_size=5, num_seeds=1, recruit_law=law, seeds=(0,))
    assert RdsConfig(target_size=10, recruit_law=((np.int64(2), 1.0),)).recruit_law[0][0] == 2


@pytest.mark.parametrize("num_seeds, seeds, message", [
    (2, (1, 1), "explicit seeds must be distinct"),
    (3, (1, 2), "explicit seeds must match num_seeds"),
    (2, (-1, 2), "seed -1 out of range"),
])
def test_rds_config_checks_explicit_seeds_at_construction(num_seeds, seeds, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        RdsConfig(target_size=5, num_seeds=num_seeds, seeds=seeds)


_TWO_SUBJECTS = dict(codes=(0, 1), degrees=(1, 1), alter_codes=(), alter_offsets=(0, 0, 0))


@pytest.mark.parametrize("build, message", [
    (lambda: RdsConfig(target_size=0), "target size must be >= 1"),
    (lambda: RdsConfig(target_size=5, num_seeds=1, recruit_law=()), "recruit law must have at least one outcome"),
    (lambda: Sample(**_TWO_SUBJECTS, components=(0,)), "per-subject columns must have equal length"),
    (lambda: Sample(**_TWO_SUBJECTS, components=(0, 0), recruiters=(1, -1)),
     "a recruiter must be an earlier subject of the same component"),
    (lambda: Sample(**_TWO_SUBJECTS, components=(0, 1), recruiters=(-1, 0)),
     "a recruiter must be an earlier subject of the same component"),
    (lambda: Sample(**_TWO_SUBJECTS, components=(0, 0), recruiters=(-2, 0)),
     "a recruiter must be an earlier subject of the same component"),
    (lambda: as_sample_view(CYCLE4, [0, 0]), "subjects must be distinct"),
    (lambda: as_sample_view(CYCLE4, [CYCLE4.n]), "vertex out of range for n=4"),
], ids=["target-size-0", "no-recruit-outcome", "unequal-columns", "later-recruiter", "other-component-recruiter",
        "recruiter-minus-2", "repeated-subject", "subject-past-the-graph"])
def test_a_capture_or_sample_rejects_arguments_its_rules_forbid(build, message):
    assert Sample(**_TWO_SUBJECTS, components=(0, 0), recruiters=(-1, 0)).size == 2  # the rows themselves are valid
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_rds_capture_rejects_an_explicit_seed_past_the_population():
    cfg = RdsConfig(target_size=4, num_seeds=2, seeds=(1, 4))
    with pytest.raises(ValueError, match="^seed 4 out of range$"):
        rds_capture(CYCLE4, cfg, np.random.default_rng(0))


@pytest.mark.parametrize("seeds, kind", [((1.5, 3), "float64"), ((True,), "bool"), ((True, 3), "bool"),
                                         ((np.float64(2.0), 3), "float64")])
def test_explicit_seeds_must_be_integers(seeds, kind):
    with pytest.raises(ValueError, match=f"^explicit seeds must be integers, got {kind} values$"):
        RdsConfig(target_size=5, num_seeds=len(seeds), seeds=seeds)


# numpy makes [2**63] uint64, but [1, 2**63] and (0, 2**63) float64 and [2**64] object values
@pytest.mark.parametrize("ids", [[2**63], np.array([2**63], dtype=np.uint64), [1, 2**63], [2**64], [-2**63 - 1]])
def test_ids_past_int64_are_rejected_not_wrapped(ids):
    with pytest.raises(ValueError, match="^subjects must fit in int64$"):
        as_sample_view(MultiGraph(10, []), ids)
    with pytest.raises(ValueError, match="^explicit seeds must fit in int64$"):
        RdsConfig(target_size=5, num_seeds=1, seeds=ids)
    with pytest.raises(ValueError, match="^edge endpoints must fit in int64$"):
        MultiGraph(10, [(ids[-1], ids[-1])])
    with pytest.raises(ValueError, match="^edge endpoints must fit in int64$"):
        MultiGraph(10, [(0, ids[-1])])


@pytest.mark.parametrize("ids", [[(1, 2)], [[3], [4]], np.array([[1, 2]]), np.array(3)])
def test_subjects_and_seeds_must_be_flat(ids):
    with pytest.raises(ValueError, match="^subjects must be a flat sequence of ints$"):
        as_sample_view(MultiGraph(10, []), ids)
    with pytest.raises(ValueError, match="^explicit seeds must be a flat sequence of ints$"):
        RdsConfig(target_size=5, num_seeds=1, seeds=ids)


def test_explicit_seeds_are_kept_as_a_tuple_of_python_ints():
    g = MultiGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    for seeds in (iter([3, 5]), [3, 5], (np.int64(3), np.uint8(5)), np.array([3, 5]), range(3, 6, 2)):
        cfg = RdsConfig(target_size=6, num_seeds=2, seeds=seeds)
        assert cfg.seeds == (3, 5) and all(type(v) is int for v in cfg.seeds)
        sample = rds_capture(g, cfg, np.random.default_rng(0))  # a one-shot iterable is not used up
        assert sample.codes[:2].tolist() == [3, 5]


def test_integer_seeds_of_any_integer_type_still_work():
    g = MultiGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    for seeds in ((np.int64(1), 4), (np.uint8(1), 4), (1, 4)):
        sample = rds_capture(g, RdsConfig(target_size=6, num_seeds=2, seeds=seeds), np.random.default_rng(0))
        assert sample.codes[:2].tolist() == [1, 4]


class ScalarUniforms:
    """The scalar replay of ``graph.uniforms``: one ``rng.random()`` per uniform."""

    def __init__(self, rng):
        self.rng, self.used = rng, 0

    def __call__(self):
        self.used += 1
        return self.rng.random()

    def close(self):
        """Advance ``rng`` to the end of the block the last uniform came from."""
        self.rng.random(-self.used % graph._UNIFORM_BLOCK)


# The capture as it was written before MultiGraph kept its neighbor rows
# sorted: a discovered set, a row dict, sorted set differences and a key sort.
# It draws one rng.random() per pick and is the reference for the samples and
# the random stream of rds_capture.

def _reference_free_alters(g, vertices, recruiters):
    offsets, targets = g.neighbor_lists(vertices)
    keys = np.sort(np.repeat(np.arange(len(vertices)), np.diff(offsets)) * g.n + targets)
    recruit = np.flatnonzero(recruiters >= 0)
    if len(recruit):
        rec = recruiters[recruit]
        used = np.sort(np.r_[rec * g.n + vertices[recruit], recruit * g.n + vertices[rec]])
        rank = np.arange(len(keys)) - np.searchsorted(keys, keys)
        keys = keys[rank >= np.searchsorted(used, keys, "right") - np.searchsorted(used, keys)]
    rows, alters = np.divmod(keys, g.n)
    return np.r_[0, np.cumsum(np.bincount(rows, minlength=len(vertices)))], alters


def _reference_fresh_seed(g, discovered, draw):
    for _ in range(64):
        v = int(draw() * g.n)
        if v not in discovered and g.degree(v) > 0:
            return v
    tied = [v for v in range(g.n) if v not in discovered and g.degree(v) > 0]
    if tied:
        return tied[int(draw() * len(tied))]
    remaining = sorted(set(range(g.n)) - discovered)
    return remaining[int(draw() * len(remaining))]


def _reference_recruit_count(law, u):
    """The first count whose cumulative probability exceeds ``u``; the last count
    when rounding leaves the total at or below ``u``."""
    bounds = itertools.accumulate(prob for _, prob in law)
    return next((count for (count, _), bound in zip(law, bounds) if u < bound), law[-1][0])


def _reference_capture(g, cfg, rng):
    draw = ScalarUniforms(rng)
    order, discovered, row_of = [], set(), {}
    components, recruiters, frontier = [], [], []
    next_component = 0

    def add_seed(seed):
        nonlocal next_component
        row_of[seed] = len(order)
        order.append(seed)
        discovered.add(seed)
        components.append(next_component)
        recruiters.append(-1)
        next_component += 1
        frontier.append(seed)

    for i in range(cfg.num_seeds):
        add_seed(cfg.seeds[i] if cfg.seeds is not None else _reference_fresh_seed(g, discovered, draw))
    while len(order) < cfg.target_size:
        if not frontier:
            add_seed(_reference_fresh_seed(g, discovered, draw))
            continue
        idx = int(draw() * len(frontier))
        x = frontier[idx]
        frontier[idx] = frontier[-1]
        frontier.pop()
        candidates = sorted({int(w) for w in g.neighbor_ids(x)} - discovered)
        if candidates:
            m = len(candidates)
            k = min(_reference_recruit_count(cfg.recruit_law, draw()), m)
            pool = list(candidates)
            if k < m:  # a partial Fisher-Yates shuffle
                for t in range(k):
                    pick = t + int(draw() * (m - t))
                    pool[t], pool[pick] = pool[pick], pool[t]
            x_row = row_of[x]
            for v in pool[:k]:
                row_of[v] = len(order)
                order.append(v)
                discovered.add(v)
                components.append(components[x_row])
                recruiters.append(x_row)
                frontier.append(v)
    draw.close()
    vertices = np.array(order, dtype=np.int64)
    rec = np.array(recruiters, dtype=np.int64)
    offsets, alters = _reference_free_alters(g, vertices, rec)
    return Sample(codes=vertices, degrees=g.degrees()[vertices], alter_codes=alters,
                  components=components, recruiters=rec, alter_offsets=offsets)


_COLUMNS = ("codes", "degrees", "components", "recruiters", "alter_codes", "alter_offsets")


def _assert_same_capture(g, cfg, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sample, reference = rds_capture(g, cfg, rng), _reference_capture(g, cfg, ref_rng)
    for name in _COLUMNS:
        column, expected = getattr(sample, name), getattr(reference, name)
        assert (column.dtype, column.tobytes()) == (expected.dtype, expected.tobytes()), name
    assert rng.random() == ref_rng.random()


LAWS = [((2, 0.9), (1, 0.1)), ((0, 1.0),), ((1, 1.0),), ((4, 1.0),), ((0, 0.3), (2, 0.3), (4, 0.4))]


@st.composite
def capture_plans(draw):
    """A multigraph with loops, parallel edges and isolated vertices, and a capture plan.

    At least n edges, so that recruits are often picked from several candidates:
    with fewer, a pick that never took the last candidate passed 2 runs of 10."""
    n = draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1)
    g = MultiGraph(n, draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=3 * n)))
    r = draw(st.integers(1, n))
    num_seeds = draw(st.integers(1, r))
    seeds = None
    if draw(st.booleans()):
        seeds = tuple(draw(st.lists(vertex, min_size=num_seeds, max_size=num_seeds, unique=True)))
    law = draw(st.sampled_from(LAWS))
    return g, RdsConfig(target_size=r, num_seeds=num_seeds, recruit_law=law, seeds=seeds)


@settings(max_examples=200, deadline=None)
@given(capture_plans(), st.integers(0, 2**32 - 1))
def test_rds_capture_matches_the_reference_on_small_multigraphs(plan, seed):
    _assert_same_capture(*plan, seed)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("lam", [3.0, 10.0])
def test_rds_capture_matches_the_reference(family, lam):
    g = sample_graph(family, lam, 1500, np.random.default_rng([7, int(lam)]))
    for r in (60, 250, 750):
        for seed in range(3):
            _assert_same_capture(g, RdsConfig(target_size=r), seed)
    _assert_same_capture(g, RdsConfig(target_size=250, num_seeds=3, seeds=(5, 0, 9)), 3)
    subjects = uniform_sample(g, 250, np.random.default_rng(5))
    view = as_sample_view(g, subjects)
    offsets, alters = _reference_free_alters(g, np.array(subjects), np.full(len(subjects), -1))
    assert np.array_equal(view.alter_offsets, offsets) and np.array_equal(view.alter_codes, alters)


def test_rds_capture_matches_the_reference_through_both_reseed_fallbacks():
    # six tied vertices among 200: rejection mostly misses them, and once they
    # are all discovered every fresh seed comes from the isolated remainder
    g = MultiGraph(200, [(0, 1), (1, 2), (2, 0), (5, 5), (7, 8), (7, 8)])
    for law in LAWS:
        for seed in range(6):
            _assert_same_capture(g, RdsConfig(target_size=200, num_seeds=1, recruit_law=law), seed)
            _assert_same_capture(g, RdsConfig(target_size=60, num_seeds=2, recruit_law=law, seeds=(7, 0)), seed)


def test_rds_capture_matches_the_reference_with_larger_recruit_counts():
    # counts above two take the partial Fisher-Yates branch
    g = sample_graph(Family.CONFIG_POISSON, 10.0, 1500, np.random.default_rng(3))
    law = ((5, 0.4), (3, 0.4), (0, 0.2))
    for seed in range(4):
        _assert_same_capture(g, RdsConfig(target_size=400, recruit_law=law), seed)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_rds_capture_matches_the_reference_across_block_ends(block):
    g = sample_graph(Family.CONFIG_LOGNORMAL, 3.0, 800, np.random.default_rng(4))
    with mock.patch.object(graph, "_UNIFORM_BLOCK", block):
        for seed in range(3):
            _assert_same_capture(g, RdsConfig(target_size=200), seed)


def test_an_index_from_the_largest_uniform_stays_below_m():
    u = float(np.nextafter(1.0, 0.0))
    assert all(int(u * m) < m for m in range(1, 2**20 + 1))
    for k in range(1, 54):
        for m in (2**k - 1, 2**k, 2**k + 1):
            assert int(u * m) < m, m


class CountingGenerator:
    """A numpy generator that counts the calls made on it, by method name."""

    def __init__(self, rng):
        self.rng, self.calls = rng, collections.Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


def counting_uniforms(module):
    """Patch ``module.uniforms`` to count the uniforms taken; returns the patch and the count."""
    used = [0]
    real = graph.uniforms

    def counted(rng):
        for u in real(rng):
            used[0] += 1
            yield u
    return mock.patch.object(module, "uniforms", counted), used


def test_rds_capture_reads_the_generator_only_in_whole_blocks():
    g = sample_graph(Family.CONFIG_POISSON, 10.0, 5000, np.random.default_rng(2))
    patch, used = counting_uniforms(sampling)
    for seed in range(3):
        rng = CountingGenerator(np.random.default_rng(seed))
        used[0] = 0
        with patch:
            rds_capture(g, RdsConfig(target_size=250), rng)
        assert used[0] > 0
        assert rng.calls == {"random": math.ceil(used[0] / graph._UNIFORM_BLOCK)}


_SPLIT_LAW = ((0, 0.3), (2, 0.3), (4, 0.4))
_SHORT_LAW = RdsConfig(target_size=1, num_seeds=1, recruit_law=((1, 0.5), (2, 0.4999999995))).recruit_law


@pytest.mark.parametrize("law, u, count", [
    (sampling.DEFAULT_RECRUIT_LAW, 0.0, 2),
    (sampling.DEFAULT_RECRUIT_LAW, float(np.nextafter(0.9, 0.0)), 2),
    (sampling.DEFAULT_RECRUIT_LAW, 0.9, 1),
    (sampling.DEFAULT_RECRUIT_LAW, float(np.nextafter(1.0, 0.0)), 1),
    (_SPLIT_LAW, float(np.nextafter(0.3, 0.0)), 0),
    (_SPLIT_LAW, 0.3, 2),
    (_SPLIT_LAW, float(np.nextafter(0.6, 0.0)), 2),
    (_SPLIT_LAW, 0.6, 4),
    (_SHORT_LAW, float(np.nextafter(0.5, 0.0)), 1),
    (_SHORT_LAW, 0.5, 2),
    (_SHORT_LAW, 0.9999999999, 2),  # at or past the total, 1 - 5e-10: the last outcome
])
def test_a_recruit_count_is_drawn_at_the_law_boundaries(law, u, count):
    assert sampling._draw_recruit_count(law, u) == _reference_recruit_count(law, u) == count


def test_pick_draws_every_ordered_pair_equally_often():
    # 20 ordered pairs of 5 items; 200,000 draws give each about 10,000, with a
    # standard deviation near 98, so a 5% band is about five deviations wide
    draw = graph.uniforms(np.random.default_rng(11)).__next__
    counts = collections.Counter(tuple(graph.pick(list(range(5)), 2, draw)) for _ in range(200_000))
    assert set(counts) == {(a, b) for a in range(5) for b in range(5) if a != b}
    assert all(abs(c - 10_000) < 500 for c in counts.values())


def test_pick_moves_its_picks_to_the_front_of_a_permutation():
    items = list(range(9))
    picks = graph.pick(items, 4, graph.uniforms(np.random.default_rng(3)).__next__)
    assert items[:4] == picks and sorted(items) == list(range(9))


def test_rds_capture_seeds_every_tied_vertex_when_there_are_too_few():
    # three tied vertices among 40: they are seeded first, then four isolated vertices
    g = MultiGraph(40, [(3, 17), (17, 29)])
    for seed in range(20):
        sample = rds_capture(g, RdsConfig(target_size=7, num_seeds=7), np.random.default_rng(seed))
        assert sample.size == 7 and (sample.recruiters == -1).all()
        assert set(sample.order[:3]) == {3, 17, 29}


def test_harmonic_degree_assumption_on_configuration_graph():
    # over many referral samples the harmonic mean of sampled degrees tracks
    # the population mean degree
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 10_000, np.random.default_rng(10))
    pop_mean = 2 * g.num_edges / g.n
    cfg = RdsConfig(target_size=500)
    ratios = []
    for seed in range(100):
        sample = rds_capture(g, cfg, np.random.default_rng(seed))
        harm = harmonic_mean(sample.degrees.tolist())
        ratios.append(harm / pop_mean)
    med = sorted(ratios)[len(ratios) // 2]
    assert abs(med - 1.0) < 0.10


def test_sample_view_wraps_uniform_sample():
    g = sample_graph(Family.CONFIG_POISSON, 4.0, 50, np.random.default_rng(0))
    subjects = uniform_sample(g, 12, np.random.default_rng(1))
    view = as_sample_view(g, subjects)
    assert view.order == subjects
    assert len(view.forest.edges) == 0
    assert all(len(view.alters(i)) == g.degree(v) for i, v in enumerate(subjects))


def test_a_uniform_sample_is_a_tuple_of_python_ints():
    g = MultiGraph(50, [])
    subjects = uniform_sample(g, 20, np.random.default_rng(4))
    assert type(subjects) is tuple and all(type(v) is int for v in subjects)
    assert subjects == tuple(int(v) for v in np.random.default_rng(4).choice(50, size=20, replace=False))


def test_a_uniform_view_reads_lists_tuples_ranges_and_arrays_alike():
    g = sample_graph(Family.CONFIG_POISSON, 4.0, 200, np.random.default_rng(2))
    subjects = [3, 17, 0, 199, 42]
    views = [as_sample_view(g, s) for s in (subjects, tuple(subjects), np.array(subjects, dtype=np.uint32),
                                             iter(subjects), [np.int64(v) for v in subjects])]
    views.append(as_sample_view(g, range(0, 200, 40)))
    for view in views[1:-1]:
        for name in _COLUMNS:
            assert np.array_equal(getattr(view, name), getattr(views[0], name)), name
    assert views[-1].codes.tolist() == [0, 40, 80, 120, 160]
    assert as_sample_view(g, []).size == as_sample_view(g, np.array([])).size == 0


@pytest.mark.parametrize("subjects, kind", [
    ([1.5, 2.9, 7], "float64"), ([1.0, 2], "float64"), ([True], "bool"), ([True, 2], "bool"),
    ([np.True_, 2], "bool"), (np.array([1.5, 3.0]), "float64"), (np.array([True]), "bool"),
    (["1", 2], "<U21"), ([1.5, 2**63], "float64"),
])
def test_a_uniform_view_rejects_non_integer_subjects(subjects, kind):
    g = MultiGraph(10, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=f"^subjects must be integers, got {kind} values$"):
        as_sample_view(g, subjects)


def test_dump_round_trip(tmp_path):
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 200, np.random.default_rng(6))
    sample = rds_capture(g, RdsConfig(target_size=60), np.random.default_rng(7))
    path = tmp_path / "sample.csv"
    write_sample_dump(sample_to_rows(sample), path, header_comment="round trip")
    back = rows_to_sample(read_sample_dump(path))
    assert back.order == sample.order
    for column in ("degrees", "components", "recruiters", "alter_codes", "alter_offsets"):
        assert np.array_equal(getattr(back, column), getattr(sample, column)), column
    assert back.forest.seed_of == sample.forest.seed_of
    assert sorted(back.forest.edges) == sorted(sample.forest.edges)


def test_rows_to_sample_rejects_duplicate_codes():
    hashed = Sample(codes=(4, 4), degrees=(1, 1), alter_codes=(4, 4), alter_offsets=(0, 1, 2), components=(0, 1))
    with pytest.raises(ValueError, match="duplicate"):
        rows_to_sample(hashed)


DUMP_HEADER = "# a comment\nsubject_code,recruiter_code,component_id,reported_degree,alter_codes\n"


@pytest.mark.parametrize("body, message", [
    ("5,SEED,0,2,7;8\n6,SEED,0,x,5\n", "non-integer"),
    ("5,SEED,0,2,7;8\n6,SEED,0,2,5;y\n", "non-integer"),
    ("5,SEED,0,2,7;8\n6,SEED,0,-1,\n", "negative reported degree"),
    ("5,SEED,0,2,7;8\n6,SEED,0,1,5;7\n", "exceed the reported degree"),
    ("5,SEED,0,2,7;8\n6,9,0,2,5\n", "not an earlier subject"),
    ("5,SEED,0,2,7;8\n6,5,1,2,5\n", "not an earlier subject"),
    ("5,6,0,2,7;8\n6,SEED,0,2,5\n", "not an earlier subject"),
    (f"5,SEED,0,2,7;8\n{2**63},SEED,0,1,5\n", f"subject code {2**63} out of the 64-bit range"),
    (f"5,SEED,0,2,7;8\n6,SEED,0,{2**63},5\n", f"reported degree {2**63} out of the 64-bit range"),
    (f"5,SEED,0,2,7;8\n6,SEED,0,2,5;{2**63}\n", f"alter code {2**63} out of the 64-bit range"),
    (f"5,SEED,0,2,7;8\n6,SEED,0,2,{-2**63 - 1}\n", f"alter code {-2**63 - 1} out of the 64-bit range"),
])
def test_dump_reader_rejects_malformed_rows(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(DUMP_HEADER + body)
    bad_line = 4 if body.startswith("5,SEED") else 3
    with pytest.raises(ValueError, match=f"{path}:{bad_line}: .*{message}"):
        read_sample_dump(path)


@pytest.mark.parametrize("text", ["", "# comment\n", "# comment", "# one\n# two"])
def test_a_dump_of_only_comments_is_an_empty_sample_dump(tmp_path, text):
    # "# comment" with no final newline leaves the fast parse at its last comment line
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty sample dump$"):
        read_sample_dump(path)


def test_dump_reader_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    # a lone CR ends line 3 in the line scan, so the bad byte is on line 4
    path.write_bytes(DUMP_HEADER.encode() + b"5,SEED,0,2,7;8\r6,SEED,1,1,\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: byte 0xff is not UTF-8 "
                                         r"\(invalid start byte\)$"):
        read_sample_dump(path)


def test_dump_reader_accepts_the_whole_int64_range(tmp_path):
    low, high = -2**63, 2**63 - 1
    path = tmp_path / "wide.csv"
    # the second row reports degree 0: the degrees' sum must stay inside int64 too
    path.write_text(DUMP_HEADER + f"{low},SEED,{high},{high},{low};{high}\n{high},{low},{high},0,\n")
    sample = read_sample_dump(path)
    assert sample.codes.tolist() == [low, high]
    assert sample.alter_codes.tolist() == [low, high]
    assert sample.recruiters.tolist() == [-1, 0]


def test_dump_reader_names_the_row_where_the_degree_total_leaves_int64(tmp_path):
    big = 10**18 - 1  # 18 digits, which the numpy reader parses; ten of them pass 2**63 - 1
    rows = [f"{i},SEED,{i},{big},\n" for i in range(10)]
    path = tmp_path / "heavy.csv"
    path.write_text(DUMP_HEADER + "".join(rows))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:12: the reported degrees sum past the 64-bit range$"):
        read_sample_dump(path)
    path.write_text(DUMP_HEADER + "".join(rows[:9]))
    assert read_sample_dump(path).degrees.tolist() == [big] * 9


_INT64_EDGES = st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64])
_DUMP_INTS = st.one_of(st.integers(0, 4), st.integers(-2**64, 2**64), _INT64_EDGES).map(str)
_DUMP_DEGREES = st.one_of(st.integers(0, 4), st.integers(0, 2**64), _INT64_EDGES).map(str)
_DUMP_TOKENS = st.one_of(_DUMP_INTS, st.sampled_from(["SEED", "", "x", "1.5", "+2", "1_0", " 3"]))
_DUMP_ROWS = st.one_of(
    # integer rows of the right shape, so that the range and linkage checks are reached
    st.tuples(_DUMP_INTS, st.one_of(st.just("SEED"), _DUMP_INTS), _DUMP_INTS, _DUMP_DEGREES,
              st.lists(_DUMP_INTS, max_size=3).map(";".join)).map(",".join),
    st.lists(_DUMP_TOKENS, max_size=6).map(",".join),
    st.text(alphabet=",;#\r 0123456789SEDx-", max_size=12),
)


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(_DUMP_ROWS, max_size=8), header=st.sampled_from([True, True, True, False]))
def test_dump_reader_fuzz_gives_sample_or_located_error(rows, header):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_text((DUMP_HEADER if header else "") + "\n".join(rows))
        try:
            sample = read_sample_dump(path)
        except ValueError as exc:
            assert re.match(re.escape(str(path)) + r"(:\d+: |: unexpected dump columns |: empty sample dump$)",
                            str(exc)), str(exc)
            return
    assert sample.size == len(sample.degrees) == len(sample.alter_offsets) - 1


def test_dump_reader_links_recruiters_by_code(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text(DUMP_HEADER + "5,SEED,3,2,7\n6,5,3,2,5\n7,SEED,1,1,\n8,6,3,3,5;6\n")
    sample = read_sample_dump(path)
    assert sample.recruiters.tolist() == [-1, 0, -1, 1]
    assert sample.recruiter_codes == [None, 5, None, 6]
    assert sample.counts.labels.tolist() == [3, 1]


_INT64 = st.integers(-2**63, 2**63 - 1)
_WIDE = st.integers(-10**18 + 1, 10**18 - 1)  # at most 18 digits
_JUNK = ["+2", "1_0", " 3", "-0", "007", "-", "1-2", "--3", "", ",", "1,2", "SEED", "x", "\r",
         str(2**63), str(2**63 - 1), str(-2**63), str(-2**63 - 1),
         "9" * 18, "-" + "9" * 18, "1" + "0" * 18, "0" * 18 + "5"]


@st.composite
def _random_samples(draw):
    """A ``Sample`` with distinct codes, or with codes from a tiny space that
    collide inside and across components."""
    k = draw(st.integers(0, 9))
    hashed = draw(st.booleans())
    pool = st.integers(0, 3) if hashed else st.one_of(st.integers(0, 40), _WIDE, _INT64)
    codes = draw(st.lists(pool, min_size=k, max_size=k, unique=not hashed))
    components = draw(st.lists(st.one_of(st.integers(0, 2), _WIDE, _INT64), min_size=k, max_size=k))
    recruiters = []
    for i, comp in enumerate(components):
        earlier = [j for j in range(i) if components[j] == comp]
        recruiters.append(draw(st.sampled_from([-1] + earlier)))
    bags = [draw(st.lists(st.one_of(pool, _WIDE), max_size=4)) for _ in range(k)]
    degrees = [len(bag) + draw(st.one_of(st.integers(0, 2), _WIDE.map(abs))) for bag in bags]
    return Sample(codes=codes, degrees=degrees, components=components, recruiters=recruiters,
                  alter_codes=[code for bag in bags for code in bag],
                  alter_offsets=np.cumsum([0] + [len(bag) for bag in bags]))


@st.composite
def _dump_texts(draw):
    """What ``write_sample_dump`` writes for a random sample, then edited: comment
    lines, empty fields and alter tokens, blank lines, junk tokens, CRLF, a lone CR,
    no final newline."""
    lines = sampling.sample_dump_lines(draw(_random_samples()), draw(st.sampled_from([None, "c", "c\rd"])))
    head = lines.index(",".join(sampling.DUMP_COLUMNS)) + 1
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(head, len(lines)))
        edit = draw(st.sampled_from(["token", "token", "empty field", "empty alter", "insert"]))
        if edit == "insert" or at == len(lines):
            lines.insert(at, draw(st.sampled_from(["", "# note", "  ", "\r"])))
            continue
        fields = lines[at].split(",")
        field = draw(st.integers(0, len(fields) - 1))
        if edit == "empty field":
            fields[field] = ""
        elif edit == "empty alter":
            fields[-1] += draw(st.sampled_from([";", ";;"]))
        else:
            tokens = fields[field].split(";")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_JUNK))
            fields[field] = ";".join(tokens)
        lines[at] = ",".join(fields)
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return text.replace("\n", "\r\n") if draw(st.integers(0, 9)) == 0 else text


def _read_outcome(reader, path):
    try:
        sample = reader(path)
    except ValueError as exc:
        return str(exc)
    return [(name, getattr(sample, name).dtype, getattr(sample, name).tolist()) for name in _COLUMNS]


@settings(max_examples=600, deadline=None)
@given(text=_dump_texts())
def test_dump_reader_matches_the_line_scan(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.csv"
        path.write_bytes(text.encode())
        assert _read_outcome(read_sample_dump, path) == _read_outcome(sampling._scan_sample_dump, path)


@pytest.mark.parametrize("field", range(5))
@pytest.mark.parametrize("junk", _JUNK)
def test_dump_reader_matches_the_line_scan_on_each_junk_token(tmp_path, field, junk):
    row = ["6", "5", "0", "3", "5;9"]
    row[field] = junk + ";9" if field == 4 else junk
    path = tmp_path / "junk.csv"
    path.write_bytes((DUMP_HEADER + "5,SEED,0,2,7;8\n" + ",".join(row) + "\n-7,SEED,1,1,6\n").encode())
    assert _read_outcome(read_sample_dump, path) == _read_outcome(sampling._scan_sample_dump, path)


@st.composite
def _degree_rows(draw):
    """Dump rows of seeds whose reported degrees may be negative or short of their alter count."""
    rows = []
    for code in range(draw(st.integers(1, 5))):
        alters = draw(st.lists(st.integers(0, 4), max_size=5))
        degree = draw(st.one_of(st.integers(-2, 6), st.just(len(alters)), st.just(len(alters) - 1)))
        rows.append((code, degree, alters))
    return rows


@settings(max_examples=100, deadline=None)
@given(rows=_degree_rows())
@example(rows=[(5, 1, [6] * 10), (6, 2, [5])])
@example(rows=[(0, 1, [1]), (1, -1, [0, 0])])
def test_a_sample_rejects_the_degrees_the_dump_reader_rejects(rows):
    text = DUMP_HEADER + "".join(f"{code},SEED,{code},{degree},{';'.join(map(str, alters))}\n"
                                 for code, degree, alters in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.csv"
        path.write_text(text)
        try:
            scanned = sampling._scan_sample_dump(path)
            want = None
        except ValueError as exc:
            want = re.sub(r"^.*?:\d+: ", "", str(exc))  # the reader's wording, without its location
    columns = dict(codes=[r[0] for r in rows], degrees=[r[1] for r in rows], components=[r[0] for r in rows],
                   alter_codes=[a for r in rows for a in r[2]],
                   alter_offsets=np.cumsum([0] + [len(r[2]) for r in rows]))
    if want is None:
        sample = Sample(**columns)
        assert sample.alter_codes.tolist() == scanned.alter_codes.tolist()
    else:
        with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
            Sample(**columns)


def _reference_forest(sample):
    """The forest read off the columns: a (recruiter code, recruit code) edge per recruited
    row in row order, the codes of the rows without a recruiter, and each row's code mapped
    to the code of the row its chain of recruiters ends at."""
    codes, recruiters = sample.codes.tolist(), sample.recruiters.tolist()
    edges = tuple((codes[r], codes[i]) for i, r in enumerate(recruiters) if r >= 0)
    seeds = tuple(code for code, r in zip(codes, recruiters) if r == -1)
    seed_of = {}
    for i, code in enumerate(codes):
        root = i
        while recruiters[root] >= 0:
            root = recruiters[root]
        seed_of[code] = codes[root]
    return edges, seeds, seed_of


@settings(max_examples=300, deadline=None)
@given(_random_samples())
def test_the_forest_matches_the_columns_directly_and_through_a_dump(sample):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dump.csv"
        write_sample_dump(sample, path)
        back = read_sample_dump(path)
    for built in (sample, back):
        if len(set(built.order)) < built.size:
            with pytest.raises(ValueError, match="^the referral forest needs distinct subject codes$"):
                built.forest
            continue
        forest = built.forest
        assert (forest.edges, forest.seeds, forest.seed_of) == _reference_forest(sample)


def test_written_dumps_read_back_without_the_line_scan(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} fell back to the line scan")

    monkeypatch.setattr(sampling, "_scan_sample_dump", refuse)
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 2000, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for r in (1, 250):
        captures = [rds_capture(g, RdsConfig(target_size=r, num_seeds=1), rng),
                    as_sample_view(g, uniform_sample(g, r, rng))]
        hashed = [hashed_view(s, assign_hashes(g.n, HashSpace(omega), rng))
                  for s in captures for omega in (3, 4096)]
        for sample in captures + hashed:
            for comment in (None, "header"):
                path = tmp_path / "dump.csv"
                write_sample_dump(sample, path, header_comment=comment)
                back = read_sample_dump(path)
                for column in ("codes", "degrees", "components", "alter_codes", "alter_offsets"):
                    assert np.array_equal(getattr(back, column), getattr(sample, column)), column
                assert back.recruiter_codes == sample.recruiter_codes


def _small_capture():
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 300, np.random.default_rng(8))
    return rds_capture(g, RdsConfig(target_size=40, num_seeds=2), np.random.default_rng(9))


@pytest.mark.parametrize("comment, head", [
    ("a\nb", ["# a", "# b"]), ("a\r\nb\rc", ["# a", "# b", "# c"]), ("end\n", ["# end", "# "]),
])
def test_a_header_comment_with_line_breaks_keeps_the_dump_readable(tmp_path, comment, head):
    sample = _small_capture()
    lines = sampling.sample_dump_lines(sample, header_comment=comment)
    assert lines[:len(head) + 1] == head + [",".join(sampling.DUMP_COLUMNS)]
    path = tmp_path / "dump.csv"
    write_sample_dump(sample, path, header_comment=comment)
    assert _read_outcome(read_sample_dump, path) == _read_outcome(lambda p: sample, path)


def test_a_byte_order_mark_reads_as_the_same_dump(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_sample_dump(_small_capture(), plain, header_comment="exported")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert _read_outcome(read_sample_dump, marked) == _read_outcome(read_sample_dump, plain)
    no_comment = DUMP_HEADER.split("\n", 1)[1] + "5,SEED,0,1,7\n"
    marked.write_text("\ufeff" + no_comment)
    assert read_sample_dump(marked).codes.tolist() == [5]


@pytest.mark.parametrize("place", ["café", "日本", "\U0001f642"])
def test_a_non_ascii_header_comment_keeps_the_dump_off_the_line_scan(tmp_path, monkeypatch, place):
    sample = _small_capture()
    plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
    write_sample_dump(sample, plain, header_comment="sampled from /data/cafe/g.txt")
    write_sample_dump(sample, other, header_comment=f"sampled from /data/{place}/g.txt")
    want = _read_outcome(read_sample_dump, plain)
    monkeypatch.setattr(sampling, "_scan_sample_dump", mock.Mock(side_effect=AssertionError("scanned")))
    assert _read_outcome(read_sample_dump, other) == want


def test_sample_from_a_non_ascii_path_writes_dumps_estimate_reads_without_the_scan(tmp_path, monkeypatch,
                                                                                   capsys):
    folder = tmp_path / "café"
    folder.mkdir()
    edges = folder / "g.txt"
    assert main(["generate", "--family", "er", "--lambda", "8", "--n", "300", "--rng-seed", "3",
                 "--out", str(edges)]) == 0
    dumps = tmp_path / "s.csv", tmp_path / "h.csv"
    argv = ["sample", "--edges", str(edges), "--size", "80", "--rng-seed", "1", "--out"]
    assert main(argv + [str(dumps[0])]) == 0
    assert main(argv + [str(dumps[1]), "--omega", "4096"]) == 0
    assert all("café" in path.read_text() for path in dumps)
    capsys.readouterr()
    monkeypatch.setattr(sampling, "_scan_sample_dump", mock.Mock(side_effect=AssertionError("scanned")))
    assert main(["estimate", "--estimator", "n2", "--sample", str(dumps[0])]) == 0
    assert main(["estimate", "--estimator", "n2psi", "--omega", "4096", "--sample", str(dumps[1])]) == 0
    assert capsys.readouterr().out.count("failed=false") == 2


def test_a_header_comment_that_is_not_utf8_fails_with_its_line(tmp_path):
    path = tmp_path / "dump.csv"
    write_sample_dump(_small_capture(), path, header_comment="exported")
    path.write_bytes(b"# caf\xe9\n" + path.read_bytes())
    assert sampling._parse_dump(path.read_bytes()) is None
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: byte 0xe9 is not UTF-8"):
        read_sample_dump(path)


_ROW_CODES = st.one_of(st.integers(-2, 2), st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
                       st.integers(0, 2**63 - 1), st.integers(INT64_MIN, INT64_MAX))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_ROW_CODES, max_size=8), min_size=1, max_size=8))
@example([[5, 5, 5, -1]])
@example([[7]])
@example([[], [3, 1], [], [2, 2, 2], []])
@example([[INT64_MAX, INT64_MIN, 0, INT64_MAX, INT64_MIN]])
@example([[INT64_MAX, 0], [INT64_MAX, INT64_MAX - 1]])
def test_the_row_sort_matches_lexsort(rows):
    """The sort of each row's alters gives the values of the lexsort it replaces."""
    values = np.array([code for row in rows for code in row], dtype=np.int64)
    lengths = [len(row) for row in rows]
    row = np.repeat(np.arange(len(rows)), lengths)
    want = values[np.lexsort((values, row))]
    got = sampling._sort_within_rows(values, row)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
    k = len(rows)
    sample = Sample(codes=np.arange(k), degrees=lengths, alter_codes=values,
                    components=np.zeros(k, dtype=np.int64), alter_offsets=np.r_[0, np.cumsum(lengths)])
    assert (sample.alter_codes.dtype, sample.alter_codes.tobytes()) == (want.dtype, want.tobytes())


@pytest.mark.parametrize("rows, keyed", [
    ([[3, 1, 2], [2, -1]], True),
    ([[INT64_MAX - 1, 0]], True),               # one row spanning 2**63 - 1: the key fits
    ([[INT64_MAX, 0]], False),                  # spanning 2**63: the span itself does not
    ([[2**62 - 2, 0], [1, 0]], True),           # two rows times a span of 2**62 - 1 stay below 2**63
    ([[2**62 - 1, 0], [1, 0]], False),          # two rows times a span of 2**62 reach it: the values are ranked
    ([[INT64_MIN, INT64_MAX], [INT64_MAX, INT64_MIN, -1]], False),
])
def test_the_row_sort_keys_only_what_fits_in_int64(rows, keyed):
    values = np.array([code for row in rows for code in row], dtype=np.int64)
    row = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        got = sampling._sort_within_rows(values, row)
    assert unique.called is not keyed
    assert got.tobytes() == values[np.lexsort((values, row))].tobytes()


@pytest.mark.parametrize("omega", [1, 2, 4096, 2**63])
def test_hashed_view_rows_match_lexsort(omega):
    g = sample_graph(Family.CONFIG_POISSON, 8.0, 2000, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for sample in (rds_capture(g, RdsConfig(target_size=250), rng), as_sample_view(g, range(0, 2000, 7))):
        assignment = assign_hashes(g.n, HashSpace(omega), rng)
        mapped = assignment[sample.alter_codes]
        row = np.repeat(np.arange(sample.size), np.diff(sample.alter_offsets))
        want = mapped[np.lexsort((mapped, row))]
        assert hashed_view(sample, assignment).alter_codes.tobytes() == want.tobytes()


def test_codes_whose_difference_wraps_are_still_sorted_and_counted():
    # -1 - INT64_MIN and 5 - (-1) are positive, and 5 - INT64_MIN wraps: no subtraction shows the row unsorted
    sample = Sample(codes=[5, 6], degrees=[4, 1], alter_codes=[5, INT64_MIN, -1, 5, 5], components=[0, 1],
                    alter_offsets=[0, 4, 5])
    assert sample.alters(0).tolist() == [INT64_MIN, -1, 5, 5]
    assert sample.counts.matches == 2  # min(2, 1) for row 0, min(1, 1) for row 1


def test_alter_offsets_whose_differences_wrap_are_rejected():
    with pytest.raises(ValueError, match="alter offsets must run from 0"):
        Sample(codes=[1, 2, 3], degrees=[1, 1, 1], alter_codes=[1, 2, 3], components=[0, 1, 2],
               alter_offsets=[0, INT64_MAX, INT64_MIN + 4, 3])


@pytest.mark.parametrize("degrees, offsets", [
    ((2, 1), (0, 1)),
    ((2, 1), (0, 1, 2, 2)),
    ((2, 1), (1, 1, 2)),
    ((2, 1), (0, 2, 1)),
    ((2, 1), (0, 1, 1)),
    ((3, 3), (0, 1, 3)),
    ((2**62, 1), (0, 2**62, 2**62)),
], ids=["one-short", "one-over", "not-from-0", "falling", "short-of-the-count", "past-the-count",
        "far-past-the-count"])
def test_sample_rejects_alter_offsets_that_do_not_run_from_0_to_the_alter_count(degrees, offsets):
    # every row is within its degree, so only the offsets are at fault
    with pytest.raises(ValueError, match="^alter offsets must run from 0 to the alter count, one per subject$"):
        Sample(codes=(0, 1), degrees=degrees, alter_codes=(1, 0), alter_offsets=offsets, components=(0, 1))


_VALID_COLUMNS = {"codes": [0, 1], "degrees": [2, 1], "alter_codes": [1, 0], "components": [0, 1],
                  "recruiters": [-1, -1], "alter_offsets": [0, 1, 2]}


@pytest.mark.parametrize("name", sorted(_VALID_COLUMNS))
@pytest.mark.parametrize("bad, message", [
    (lambda column: [v + 0.25 for v in column], "must be integers, got float64 values"),
    (lambda column: [True, *column[1:]], "must be integers, got bool values"),
    (lambda column: [[v] for v in column], "must be a flat sequence of ints"),
], ids=["float", "bool", "2-D"])
def test_sample_rejects_a_column_that_is_not_flat_ints(name, bad, message):
    assert Sample(**_VALID_COLUMNS).counts.matches == 2
    with pytest.raises(ValueError, match=f"^{name} {message}$"):
        Sample(**{**_VALID_COLUMNS, name: bad(_VALID_COLUMNS[name])})


def test_a_sample_is_built_only_from_flat_alter_codes_with_their_offsets():
    with pytest.raises(TypeError, match="alter_offsets"):
        Sample(codes=(5, 6), degrees=(1, 1), alter_codes=(6, 5), components=(0, 1))
    for rows in (([6], [5]), (collections.Counter([6]), collections.Counter([5]))):  # never flattened
        with pytest.raises(ValueError, match="^alter_codes must be "):
            Sample(codes=(5, 6), degrees=(1, 1), alter_codes=rows, alter_offsets=(0, 1, 2), components=(0, 1))


def test_sample_does_not_truncate_float_codes_into_matches():
    with pytest.raises(ValueError, match="^codes must be integers"):
        Sample(codes=[0.9, 1.2], degrees=[2.7, 1], alter_codes=[1.9, 0.2], alter_offsets=[0, 1, 2],
               components=[0, 1])
