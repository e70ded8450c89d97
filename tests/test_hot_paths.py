"""The capture loop, the match lookup, the uniform views and the rewiring loop
against the forms they replaced.

``_previous_capture`` and ``_previous_rewire`` are the earlier loops, kept
verbatim (the rewiring with the earlier ``common`` and ``swap``).  Both read
the generator through ``sampling._uniforms``, so a sample or a rewired graph
must match to the byte, and the generator must stand at the same draw after.
"""

import contextlib
import dataclasses
import itertools
import logging
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsize import generators, sampling
from netsize.generators import Family, rewire_to_clustering, sample_graph
from netsize.graph import INT64_MAX, INT64_MIN, MultiGraph
from netsize.hashing import HashSpace, assign_hashes, hashed_view
from netsize.sampling import (
    RdsConfig,
    Sample,
    _draw_fresh_seed,
    _draw_recruit_count,
    _pick,
    _plaintext_sample,
    _uniforms,
    as_sample_view,
    rds_capture,
    uniform_sample,
)

SETTINGS = settings(max_examples=200, deadline=None)


def _previous_capture(g: MultiGraph, cfg: RdsConfig, rng: np.random.Generator) -> Sample:
    n = g.n
    r = cfg.target_size
    if r > n:
        raise ValueError(f"target size {r} exceeds population {n}")

    if cfg.seeds is not None:
        seeds = [int(v) for v in cfg.seeds]
        if len(set(seeds)) != len(seeds):
            raise ValueError("explicit seeds must be distinct")
        if len(seeds) != cfg.num_seeds:
            raise ValueError("explicit seeds must match num_seeds")
        for v in seeds:
            if not 0 <= v < n:
                raise ValueError(f"seed {v} out of range")
    draw = _uniforms(rng).__next__  # every pick, seeds included, reads the generator through blocks

    row_of: list[int] = [-1] * n  # each vertex's row, -1 while undiscovered
    order: list[int] = []
    components: list[int] = []
    recruiters: list[int] = []  # the recruiter's row; -1 marks a seed, which opens a new component
    frontier: list[int] = []
    new_component = itertools.count()

    def enroll(subjects: Sequence[int], recruiter: int) -> None:
        for v in subjects:
            row_of[v] = len(order)
            order.append(v)
            components.append(next(new_component) if recruiter < 0 else components[recruiter])
            recruiters.append(recruiter)
            frontier.append(v)

    if cfg.seeds is not None:
        enroll(seeds, -1)
    else:
        for _ in range(cfg.num_seeds):
            enroll([_draw_fresh_seed(g, row_of, draw)], -1)

    while len(order) < r:
        if not frontier:
            enroll([_draw_fresh_seed(g, row_of, draw)], -1)
            continue
        idx = int(draw() * len(frontier))
        x = frontier[idx]
        frontier[idx] = frontier[-1]
        frontier.pop()

        ids = g.neighbor_ids(x).tolist()  # sorted: a repeated neighbor follows its first occurrence
        candidates = [w for w, prev in zip(ids, [-1] + ids) if w != prev and row_of[w] < 0]
        if candidates:
            m = len(candidates)
            k = min(_draw_recruit_count(cfg.recruit_law, draw()), m)
            enroll(candidates if k == m else _pick(candidates, k, draw), row_of[x])

    return _plaintext_sample(g, np.array(order, dtype=np.int64), components,
                             np.array(recruiters, dtype=np.int64))


_COLUMNS = ("codes", "degrees", "alter_codes", "components", "recruiters", "alter_offsets")


def _assert_same_capture(g, cfg, seed):
    rng, previous_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sample, previous = rds_capture(g, cfg, rng), _previous_capture(g, cfg, previous_rng)
    for name in _COLUMNS:
        column, expected = getattr(sample, name), getattr(previous, name)
        assert column.dtype == expected.dtype and column.tobytes() == expected.tobytes(), name
    assert rng.random() == previous_rng.random()


LAWS = [((2, 0.9), (1, 0.1)), ((0, 1.0),), ((1, 1.0),), ((4, 1.0),), ((0, 0.3), (2, 0.3), (4, 0.4))]


@st.composite
def captures(draw):
    """A multigraph with loops, parallel edges and isolated vertices, and a capture plan."""
    n = draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1)
    g = MultiGraph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)))
    r = draw(st.integers(1, n))
    num_seeds = draw(st.integers(1, r))
    seeds = None
    if draw(st.booleans()):
        seeds = tuple(draw(st.lists(vertex, min_size=num_seeds, max_size=num_seeds, unique=True)))
    law = draw(st.sampled_from(LAWS))
    return g, RdsConfig(target_size=r, num_seeds=num_seeds, recruit_law=law, seeds=seeds)


@SETTINGS
@given(captures(), st.integers(0, 2**32 - 1))
def test_the_capture_matches_the_previous_loop(capture, seed):
    g, cfg = capture
    _assert_same_capture(g, cfg, seed)


def test_the_capture_matches_the_previous_loop_through_reseeds():
    # a triangle, a loop and a doubled edge among 120 mostly isolated vertices: most seeds are reseeds
    g = MultiGraph(120, [(0, 1), (1, 2), (2, 0), (5, 5), (7, 8), (7, 8)])
    for law in LAWS:
        for seed in range(4):
            _assert_same_capture(g, RdsConfig(target_size=120, num_seeds=1, recruit_law=law), seed)
            _assert_same_capture(g, RdsConfig(target_size=60, num_seeds=2, recruit_law=law, seeds=(7, 0)), seed)


# ---------------------------------------------------------------------------
# the match lookup of Sample.counts: the code table and the sorted search


def _assert_same_counts(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), field.name
        else:
            assert type(x) is type(y) and x == y, field.name


def _counts_on_both_paths(sample):
    """The counts of ``sample`` with the lookup forced onto the table, and onto the search."""
    with mock.patch.object(sampling, "_TABLE_MIN", 2**62):
        table = sampling._count(sample)
    with mock.patch.object(sampling, "_TABLE_MIN", 0):
        search = sampling._count(sample)
    return table, search


@st.composite
def coded_samples(draw):
    """A sample whose codes collide and sit anywhere in a window of the int64 range."""
    k = draw(st.integers(0, 10))
    base = draw(st.sampled_from([0, -40, INT64_MIN, INT64_MAX - 30]))
    code = st.integers(0, 30).map(lambda c: base + c)
    alters = [draw(st.lists(code, max_size=6)) for _ in range(k)]
    return Sample(
        codes=draw(st.lists(code, min_size=k, max_size=k)),
        degrees=[len(bag) + draw(st.integers(0, 3)) for bag in alters],
        alter_codes=alters,
        components=draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)),
    )


@SETTINGS
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
    with mock.patch.object(sampling, "_TABLE_MIN", 10):
        assert sampling._lookup(codes, queries).tolist() == [0, 1, 0, 1]  # span 10: the table
    with mock.patch.object(sampling, "_TABLE_MIN", 9):
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


# ---------------------------------------------------------------------------
# uniform views


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


@pytest.mark.parametrize("edges", [[(0, True)], [(np.True_, 2)], ((1, 2), (False, 0)), iter([(0, 1), (True, 2)])])
def test_a_multigraph_rejects_a_bool_endpoint_next_to_ints(edges):
    with pytest.raises(ValueError, match="^edge endpoints must be integers, got bool values$"):
        MultiGraph(3, edges)


def test_a_multigraph_reads_pair_lists_of_any_integer_type():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    for edges in ([(np.int64(0), 1), (1, np.uint8(2))], list(g.edge_array), iter([[0, 1], [1, 2]])):
        assert MultiGraph(3, edges).edge_array.tobytes() == g.edge_array.tobytes()


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


# ---------------------------------------------------------------------------
# the rewiring loop


class _PreviousRewireState(generators._RewireState):
    def common(self, u: int, v: int) -> set[int]:
        return set(self.adj[u]).intersection(self.adj[v])

    def swap(self, v: int, a: int, w: int, b: int, common: tuple[set[int], ...]) -> None:
        adj, tri = self.adj, self.tri
        c_va, c_wb, c_vw, c_ab = common
        for x, y, step, shared in ((v, a, -1, c_va), (w, b, -1, c_wb),
                                   (v, w, 1, c_vw - {a, b}), (a, b, 1, c_ab - {v, w})):
            for z in shared:
                tri[z] += step
            tri[x] += step * len(shared)
            tri[y] += step * len(shared)
            for p, q in ((x, y), (y, x)):
                row = adj[p]
                if step < 0:
                    row[row.index(q)] = row[-1]  # the row's last neighbor fills the freed place
                    row.pop()
                else:
                    row.append(q)


def _previous_rewire(g: MultiGraph, target: float, rng: np.random.Generator) -> MultiGraph:
    _MAX_SWAPS, _CHECK_EVERY = generators._MAX_SWAPS, generators._CHECK_EVERY
    if not 0 <= target <= 1:  # NaN fails too; mean clustering never exceeds 1
        raise ValueError(f"target clustering must lie in [0, 1], got {target}")
    n = g.n
    state = _PreviousRewireState(n, g.edge_array)
    adj = state.adj
    draw = _uniforms(rng).__next__

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
        v, w = _pick(adj[u], 2, draw)  # permutes u's row, whose order nothing relies on
        if w in adj[v]:
            continue
        a = adj[v][int(draw() * len(adj[v]))]
        b = adj[w][int(draw() * len(adj[w]))]
        if a in (u, w) or b in (u, v) or a == b or b in adj[a]:
            continue
        # accept moves whose new pairs share at least as many neighbors as the removed ones
        lost = state.common(v, a), state.common(w, b)
        made = state.common(v, w), state.common(a, b)
        if len(made[0]) + len(made[1]) < len(lost[0]) + len(lost[1]):
            continue
        state.swap(v, a, w, b, lost + made)
        swaps += 1

    reached = state.mean_clustering()
    if reached < target:
        logging.getLogger("netsize").warning(
            "rewiring stopped at mean clustering %.6g, short of the target %.6g, after %d swaps in %d attempts",
            reached, target, swaps, attempts)
    return MultiGraph(n, state.edge_array())


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
    rng, previous_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with _warnings() as warned:
        rewired = rewire_to_clustering(g, target, rng)
    with _warnings() as previous_warned:
        previous = _previous_rewire(g, target, previous_rng)
    assert rewired.edge_array.dtype == previous.edge_array.dtype
    assert rewired.edge_array.tobytes() == previous.edge_array.tobytes()
    assert warned == previous_warned
    assert rng.random() == previous_rng.random()
    return warned


@st.composite
def rewirable(draw):
    """A small multigraph with loops and parallel edges and at least one vertex of two distinct neighbors."""
    n = draw(st.integers(3, 16))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=2, max_size=4 * n))
    return MultiGraph(n, edges + [(0, 1), (1, 2)])


@settings(max_examples=150, deadline=None)
@given(rewirable(), st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.integers(0, 2**32 - 1))
def test_the_rewiring_matches_the_previous_loop(g, target, seed):
    with mock.patch.object(generators, "_MAX_SWAPS", 30), mock.patch.object(generators, "_CHECK_EVERY", 4):
        _assert_same_rewiring(g, target, seed)


def test_the_rewiring_matches_the_previous_loop_when_it_gives_up():
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 400, np.random.default_rng(8))
    with mock.patch.object(generators, "_MAX_SWAPS", 200):
        warned = _assert_same_rewiring(g, 0.9, 1)
    assert len(warned) == 1 and warned[0].startswith("rewiring stopped at mean clustering ")
