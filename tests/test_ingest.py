import itertools
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsize import graph, ingest
from netsize.generators import Family, average_clustering, sample_graph
from netsize.graph import MultiGraph, triangle_counts
from netsize.ingest import EdgeListSpec, clustering_stats, load_edge_list, write_edge_list

SETTINGS = settings(max_examples=150, deadline=None)


def _write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_symmetrize_dedupe_collapses_reciprocal(tmp_path):
    path = _write(tmp_path, "0 1\n1 0\n")
    g, id_map, report = load_edge_list(EdgeListSpec(path, directed=True, dedupe=True))
    assert g.n == 2 and g.num_edges == 1
    assert report.duplicates_collapsed == 1
    assert id_map == {0: 0, 1: 1}


def test_directed_collapses_reciprocal_arcs(tmp_path):
    path = _write(tmp_path, "0 1\n1 0\n")
    g, _, report = load_edge_list(EdgeListSpec(path, directed=True))
    assert g.num_edges == 1
    assert report.duplicates_collapsed == 1


def test_undirected_keeps_reciprocal_lines_as_parallel_edges(tmp_path):
    path = _write(tmp_path, "0 1\n1 0\n")
    g, _, report = load_edge_list(EdgeListSpec(path))
    assert g.edge_array.tolist() == [[0, 1], [0, 1]]
    assert report.duplicates_collapsed == 0


def test_endpoint_beyond_int64_reports_line(tmp_path):
    path = _write(tmp_path, f"0 1\n1 {2**63}\n")
    with pytest.raises(ValueError, match=r":2: endpoint out of the 64-bit range"):
        load_edge_list(EdgeListSpec(path))
    g, id_map, _ = load_edge_list(EdgeListSpec(_write(tmp_path, f"{-2**63} {2**63 - 1}\n", "e2.txt")))
    assert g.edge_array.tolist() == [[0, 1]]
    assert id_map == {-2**63: 0, 2**63 - 1: 1}


_TOKENS = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.integers(0, 5).map(str),
    st.sampled_from(["#", "x", "1.5", "0x1", "1_0", "+3", "-0", "nan"]),
    st.text(alphabet=" \t\r#0123456789-+_ax", max_size=5),
)
_LINES = st.lists(st.lists(_TOKENS, max_size=3).map(" ".join), max_size=12)


@SETTINGS
@given(lines=_LINES, directed=st.booleans(), dedupe=st.booleans(), drop_loops=st.booleans())
def test_parser_fuzz_gives_graph_or_located_error(lines, directed, dedupe, drop_loops):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.txt"
        path.write_text("\n".join(lines))
        spec = EdgeListSpec(path, directed=directed, dedupe=dedupe, drop_loops=drop_loops)
        try:
            g, id_map, report = load_edge_list(spec)
        except ValueError as exc:
            assert re.match(re.escape(str(path)) + r"(:\d+: |: no edges survived ingestion$)", str(exc)), str(exc)
            return
    assert g.n == len(id_map) == len(np.unique(g.edge_array))
    assert report.edges == g.num_edges >= 1


def test_drop_loops(tmp_path):
    path = _write(tmp_path, "0 1\n2 2\n")
    g, _, report = load_edge_list(EdgeListSpec(path, drop_loops=True))
    assert g.num_edges == 1
    assert report.loops_dropped == 1
    # vertex 2 had only the loop, so it is gone entirely
    assert g.n == 2


def test_malformed_line_reports_number(tmp_path):
    path = _write(tmp_path, "0 1\nnonsense\n")
    with pytest.raises(ValueError, match=":2"):
        load_edge_list(EdgeListSpec(path))
    path2 = _write(tmp_path, "0 1\n2 3 4\n", name="e2.txt")
    with pytest.raises(ValueError, match=":2"):
        load_edge_list(EdgeListSpec(path2))


def test_edge_list_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_bytes(b"# caf\xc3\xa9\n0 1\n1 2\xff\n2 3\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(edges))}:3: byte 0xff is not UTF-8 "
                                         r"\(invalid start byte\)$"):
        load_edge_list(EdgeListSpec(edges))


def test_node_filter_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    keep = tmp_path / "keep.txt"
    keep.write_bytes(b"0\n1\n# \xe9t\xe9\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(keep))}:3: byte 0xe9 is not UTF-8 "
                                         r"\(invalid continuation byte\)$"):
        load_edge_list(EdgeListSpec(_write(tmp_path, "0 1\n"), node_filter=keep))


def test_comments_and_relabeling(tmp_path):
    path = _write(tmp_path, "# header\n10 30\n30 20\n")
    g, id_map, _ = load_edge_list(EdgeListSpec(path))
    assert g.n == 3
    assert id_map == {10: 0, 20: 1, 30: 2}
    assert sorted(map(tuple, g.edge_array.tolist())) == [(0, 2), (1, 2)]


def test_node_filter_drops_edges_to_excluded(tmp_path):
    edges = _write(tmp_path, "0 1\n1 2\n2 3\n")
    keep = _write(tmp_path, "0\n1\n2\n", name="keep.txt")
    g, id_map, report = load_edge_list(EdgeListSpec(edges, node_filter=keep))
    assert g.n == 3 and g.num_edges == 2
    assert report.filtered_out == 1
    assert 3 not in id_map


def test_empty_graph_rejected(tmp_path):
    path = _write(tmp_path, "# nothing\n")
    with pytest.raises(ValueError):
        load_edge_list(EdgeListSpec(path))


@pytest.mark.parametrize("block", [1, 3, 1 << 14])
def test_write_edge_list_formats_each_edge_once_in_order(tmp_path, block):
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 120, np.random.default_rng(0))
    path, empty = tmp_path / "g.txt", tmp_path / "empty.txt"
    with mock.patch.object(ingest, "_WRITE_BLOCK", block):
        write_edge_list(g, path, comments=["a", "b"])
        write_edge_list(MultiGraph(3, []), empty)
    assert path.read_text() == "# a\n# b\n" + "".join(f"{u} {v}\n" for u, v in g.edge_array)
    assert empty.read_text() == ""


def test_round_trip_generated_graph(tmp_path):
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 120, np.random.default_rng(0))
    path = tmp_path / "gen.txt"
    write_edge_list(g, path, comments=["generated for round trip"])
    loaded, id_map, _ = load_edge_list(EdgeListSpec(path))
    # compare edge multisets through the persisted id map
    original = sorted(
        tuple(sorted((id_map[int(u)], id_map[int(v)]))) for u, v in g.edge_array
        if int(u) in id_map and int(v) in id_map
    )
    loaded_edges = sorted(tuple(sorted((int(u), int(v)))) for u, v in loaded.edge_array)
    assert original == loaded_edges
    # all vertices with at least one edge survive
    assert loaded.n == len(id_map)


def test_clustering_stats_triangle_and_star():
    k3 = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert clustering_stats(k3) == (1.0, 1.0)
    star = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert clustering_stats(star) == (0.0, 0.0)


def test_clustering_stats_requires_simple_graph():
    with pytest.raises(ValueError):
        clustering_stats(MultiGraph(2, [(0, 1), (0, 1)]))
    with pytest.raises(ValueError):
        clustering_stats(MultiGraph(2, [(0, 0)]))


def test_simple_graph_check_names_the_first_fault():
    with pytest.raises(ValueError, match="loop-free"):
        clustering_stats(MultiGraph(3, [(0, 0), (0, 1), (1, 0)]))
    with pytest.raises(ValueError, match="parallel"):
        clustering_stats(MultiGraph(3, [(0, 1), (1, 0), (2, 2)]))


def _brute_force_stats(g: MultiGraph):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edge_array.tolist():
        adj[u].add(v)
        adj[v].add(u)
    triangles = sum(
        1 for a, b, c in itertools.combinations(range(g.n), 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )
    local = []
    triples = 0
    for v in range(g.n):
        d = len(adj[v])
        if d < 2:
            local.append(0.0)
            continue
        triples += d * (d - 1) // 2
        links = sum(1 for x, y in itertools.combinations(sorted(adj[v]), 2) if y in adj[x])
        local.append(links / (d * (d - 1) / 2))
    avg = sum(local) / g.n
    trans = 3 * triangles / triples if triples else 0.0
    return avg, trans


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(0, 14))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return MultiGraph(n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen])


def _complete(n):
    return MultiGraph(n, list(itertools.combinations(range(n), 2)))


@SETTINGS
@given(g=simple_graphs())
@example(g=MultiGraph(0, []))
@example(g=MultiGraph(5, []))
@example(g=_complete(7))
@example(g=MultiGraph(6, [(0, v) for v in range(1, 6)]))
def test_triangle_counter_and_clustering_match_brute_force(g):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edge_array.tolist():
        adj[u].add(v)
        adj[v].add(u)
    want = [0] * g.n
    for a, b, c in itertools.combinations(range(g.n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            for x in (a, b, c):
                want[x] += 1
    assert triangle_counts(g.n, g.edge_array).tolist() == want
    with mock.patch.object(graph, "_WEDGE_BLOCK", 2):  # many small wedge batches
        assert triangle_counts(g.n, g.edge_array).tolist() == want
    avg, trans = _brute_force_stats(g) if g.n else (0.0, 0.0)
    assert clustering_stats(g) == pytest.approx((avg, trans), abs=1e-15)
    assert average_clustering(adj) == pytest.approx(avg, abs=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_clustering_stats_matches_brute_force(seed):
    g = sample_graph(Family.ERDOS_RENYI, 6.0, 120, np.random.default_rng(seed))
    fast = clustering_stats(g)
    slow = _brute_force_stats(g)
    assert fast[0] == pytest.approx(slow[0])
    assert fast[1] == pytest.approx(slow[1])
