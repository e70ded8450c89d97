import errno
import io
import itertools
import os
import re
import stat
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsize import cli, graph, harness, ingest, sampling
from netsize.cli import main
from netsize.generators import Family, rewire_to_clustering, sample_graph
from netsize.graph import INT64_MAX, INT64_MIN, MultiGraph, triangle_counts
from netsize.ingest import EdgeListSpec, clustering_stats, load_edge_list, write_edge_list

SETTINGS = settings(max_examples=150, deadline=None)


def _write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_dedupe_collapses_reciprocal_arcs(tmp_path):
    path = _write(tmp_path, "0 1\n1 0\n")
    g, id_map, report = load_edge_list(EdgeListSpec(path, dedupe=True))
    assert g.n == 2 and g.num_edges == 1
    assert report.duplicates_collapsed == 1
    assert id_map == {0: 0, 1: 1}


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
@given(lines=_LINES, dedupe=st.booleans(), drop_loops=st.booleans())
def test_parser_fuzz_gives_graph_or_located_error(lines, dedupe, drop_loops):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.txt"
        path.write_text("\n".join(lines))
        spec = EdgeListSpec(path, dedupe=dedupe, drop_loops=drop_loops)
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


def _reference_load(spec: EdgeListSpec):
    """``load_edge_list`` as a Python loop over the lines, deduplicating row pairs:
    the reference for the numpy parse and the one numpy clean-up step."""
    keep = None
    if spec.node_filter is not None:
        keep = set()
        with open(spec.node_filter, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if line:
                    try:
                        keep.add(int(line))
                    except ValueError:
                        raise ValueError(f"{spec.node_filter}:{lineno}: bad node id {line!r}") from None
    pairs, lines_read, loops, filtered = [], 0, 0, 0
    with open(spec.path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise ValueError(f"{spec.path}:{lineno}: expected 'u v', got {stripped!r}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ValueError(f"{spec.path}:{lineno}: non-integer endpoint in {stripped!r}") from None
            if not (INT64_MIN <= u <= INT64_MAX and INT64_MIN <= v <= INT64_MAX):
                raise ValueError(f"{spec.path}:{lineno}: endpoint out of the 64-bit range in {stripped!r}")
            lines_read += 1
            if keep is not None and (u not in keep or v not in keep):
                filtered += 1
            elif u == v and spec.drop_loops:
                loops += 1
            else:
                pairs.append((min(u, v), max(u, v)))
    if not pairs:
        raise ValueError(f"{spec.path}: no edges survived ingestion")
    unique = sorted(set(pairs)) if spec.dedupe else pairs
    ids = sorted({x for pair in unique for x in pair})
    id_map = {x: i for i, x in enumerate(ids)}
    g = MultiGraph(len(ids), np.array([(id_map[u], id_map[v]) for u, v in unique], dtype=np.int64))
    report = ingest.IngestReport(lines_read, g.n, g.num_edges, loops, len(pairs) - len(unique), filtered)
    return g, id_map, report


def _outcome(load, spec):
    try:
        g, id_map, report = load(spec)
    except ValueError as exc:
        return str(exc)
    return g.edge_array.dtype, g.edge_array.shape, g.edge_array.tobytes(), id_map, report


def _scan_outcome(spec):
    with mock.patch.object(ingest, "_parse_edges", lambda data: None):
        return _outcome(load_edge_list, spec)


_SMALL = [str(i) for i in range(6)] * 3  # small ids: loops and repeated pairs
_INSIDE = [str(2**63 - 1), str(-2**63), "0" * 20 + "7", "-0", "007"]
_OUTSIDE = [str(2**63), str(-2**63 - 1), "9" * 19, "-" + "9" * 19]
_NODE = st.sampled_from(_SMALL + _INSIDE + _OUTSIDE)
_SEP = st.sampled_from([" ", "\t", "  ", " \t "])
_PAD = st.sampled_from(["", " ", "\t"])
_CLEAN_LINE = st.one_of(st.tuples(_PAD, st.sampled_from(_SMALL + _INSIDE), _SEP,
                                  st.sampled_from(_SMALL + _INSIDE), _PAD).map("".join),
                        st.sampled_from(["# c", "#", "## twice", "# \x00\x0b\x1c", "", " \t"]))
_ODD_LINES = ["1 2 # note", "1 2 3", "1", "1_0 2", "\uff11 2", "1\x0c2", "1\u20032", "+3 4", "1- 2",
              "- 2", "--1 2", "1-2 3", "  # indented", "# caf\u00e9", "x y"]
_LINE = st.one_of(st.tuples(_PAD, _NODE, _SEP, _NODE, _PAD).map("".join), _CLEAN_LINE,
                  st.sampled_from(_ODD_LINES))
_THREE_COLUMNS = st.lists(_NODE, min_size=3, max_size=3).map(" ".join)


@st.composite
def _edge_texts(draw):
    """Either a file in the numpy grammar: edge lines of small ids (loops and
    repeats) or ids at the int64 ends, comments and blank lines.  Or one that
    adds ids past int64, lines that only the scan can judge, files whose every
    line holds three values, CRLF or a lone CR, a byte-order mark.  Either may
    lack its final newline."""
    kind = draw(st.sampled_from(["clean", "clean", "mixed", "mixed", "three"]))
    lines = draw(st.lists({"clean": _CLEAN_LINE, "mixed": _LINE, "three": _THREE_COLUMNS}[kind],
                          min_size=kind == "three", max_size=4 if kind == "three" else 10))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    if kind == "clean":
        return text
    text = draw(st.sampled_from(["", "\ufeff", "# head\n"])) + text
    return text.replace("\n", draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])))


_CLEAN_FILTER_LINES = st.sampled_from(_SMALL + _INSIDE + ["", "# keep", " 3\t"])
_FILTER_LINES = st.one_of(_NODE, _NODE, st.sampled_from(["", "# keep", "  3", "4 # note", "1 2", "1_0", "x",
                                                         "\uff13", str(2**64), "  # indented"]))


@settings(max_examples=300, deadline=None)
@given(text=_edge_texts(), dedupe=st.booleans(), drop_loops=st.booleans(),
       keep=st.one_of(st.none(), st.lists(_CLEAN_FILTER_LINES, max_size=6),
                      st.lists(_FILTER_LINES, max_size=6)))
@example(text="0 1\n1 0\n2 2\n1 0\n", dedupe=True, drop_loops=True, keep=["0", "1"])
@example(text="", dedupe=False, drop_loops=False, keep=None)
@example(text="# a\r5 7\n0 1\n", dedupe=False, drop_loops=False, keep=None)
@example(text="0 1 # note\n", dedupe=False, drop_loops=False, keep=["0", "1 # c"])
def test_edge_list_reader_matches_the_line_scan(text, dedupe, drop_loops, keep):
    with tempfile.TemporaryDirectory() as tmp:
        path, node_filter = Path(tmp) / "edges.txt", None
        path.write_bytes(text.encode())
        if keep is not None:
            node_filter = Path(tmp) / "keep.txt"
            node_filter.write_bytes("\n".join(keep).encode())
        spec = EdgeListSpec(path, node_filter=node_filter, dedupe=dedupe, drop_loops=drop_loops)
        fast = _outcome(load_edge_list, spec)
        assert fast == _scan_outcome(spec)
        assert fast == _outcome(_reference_load, spec)


def test_a_file_in_the_fast_grammar_skips_the_line_scan(tmp_path, monkeypatch):
    edges = _write(tmp_path, f"# c\n#\n 5\t-3 \n\n007  -0\n-3 5\n5 5\n{10**17} 5", "edges.txt")
    monkeypatch.setattr(ingest, "_scan_edge_list", mock.Mock(side_effect=AssertionError("scanned")))
    monkeypatch.setattr(ingest, "read_lines", mock.Mock(side_effect=AssertionError("read as text")))
    g, id_map, report = load_edge_list(EdgeListSpec(edges, dedupe=True))
    assert g.edge_array.tolist() == [[0, 2], [1, 3], [2, 2], [2, 4]]
    assert id_map == {-3: 0, 0: 1, 5: 2, 7: 3, 10**17: 4}
    assert report == ingest.IngestReport(5, 5, 4, 0, 1, 0)


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n \t\n"])
def test_a_file_without_values_fails_without_a_numpy_warning(tmp_path, text):
    edges = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no edges survived ingestion"):
            load_edge_list(EdgeListSpec(edges))


def _families_and_rewired():
    rng = np.random.default_rng(5)
    graphs = [sample_graph(family, 4.0, 300, rng) for family in Family]
    return graphs + [rewire_to_clustering(sample_graph(Family.CONFIG_POISSON, 6.0, 400, rng), 0.15, rng)]


def test_written_edge_lists_read_back_without_the_line_scan(tmp_path, monkeypatch, capsys):
    written = []
    for i, g in enumerate(_families_and_rewired()):
        path = tmp_path / f"g{i}.txt"
        write_edge_list(g, path, comments=[f"graph {i}", "two\nlines"])
        written.append(path)
    for family in Family:
        path = tmp_path / f"{family.value}.txt"
        argv = ["generate", "--family", family.value, "--lambda", "4", "--n", "300", "--rng-seed", "2"]
        assert main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        printed = tmp_path / f"{family.value}-stdout.txt"
        printed.write_text(capsys.readouterr().out)
        normalized = tmp_path / f"{family.value}-n.txt"
        assert main(["ingest", "--edges", str(path), "--dedupe", "--out", str(normalized)]) == 0
        written += [path, printed, normalized]
    expected = [_reference_load(EdgeListSpec(path)) for path in written]
    monkeypatch.setattr(ingest, "_scan_edge_list", mock.Mock(side_effect=AssertionError("scanned")))
    for path, want in zip(written, expected):
        assert _outcome(load_edge_list, EdgeListSpec(path)) == _outcome(lambda spec: want, None), path


@pytest.mark.parametrize("comment, head", [
    ("a\nb", "# a\n# b\n"), ("a\r\nb\rc", "# a\n# b\n# c\n"), ("end\n", "# end\n# \n"),
    ("\n", "# \n# \n"), ("x\x0cy\x85z", "# x\x0cy\x85z\n"),
])
def test_a_comment_with_line_breaks_keeps_the_edge_list_readable(tmp_path, comment, head):
    g = sample_graph(Family.ERDOS_RENYI, 3.0, 50, np.random.default_rng(1))
    path = tmp_path / "g.txt"
    write_edge_list(g, path, comments=[comment, "after"])
    assert path.read_bytes().decode().startswith(head + "# after\n")
    assert _outcome(load_edge_list, EdgeListSpec(path)) == _outcome(_reference_load, EdgeListSpec(path))
    assert load_edge_list(EdgeListSpec(path))[2].lines_read == g.num_edges


def test_ingest_out_from_a_path_with_a_line_break_reads_back(tmp_path, capsys):
    weird = tmp_path / "we\nird"
    weird.mkdir()
    raw = _write(weird, "0 1\n1 2\n2 0\n", "g.txt")
    out = tmp_path / "n.txt"
    assert main(["ingest", "--edges", str(raw), "--out", str(out)]) == 0
    assert out.read_text().startswith(f"# normalized from {tmp_path}/we\n# ird/g.txt\n")
    assert load_edge_list(EdgeListSpec(out))[0].edge_array.tolist() == [[0, 1], [1, 2], [0, 2]]


@pytest.mark.parametrize("text", ["# c\n5 7\n7 9\n", "5 7\r\n\t7  9\r\n# c\r\n"])
def test_a_byte_order_mark_reads_as_the_same_edge_list_and_filter(tmp_path, text):
    plain = _write(tmp_path, text, "plain.txt")
    marked = _write(tmp_path, "\ufeff" + text, "marked.txt")
    keep, keep_marked = _write(tmp_path, "5\n7\n", "keep.txt"), _write(tmp_path, "\ufeff5\n7\n", "keep2.txt")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert _outcome(load_edge_list, EdgeListSpec(marked)) == _outcome(load_edge_list, EdgeListSpec(plain))
    want = _outcome(load_edge_list, EdgeListSpec(plain, node_filter=keep))
    assert want[-1].filtered_out == 1
    assert _outcome(load_edge_list, EdgeListSpec(marked, node_filter=keep_marked)) == want


def test_a_filter_id_outside_int64_matches_no_endpoint(tmp_path):
    edges = _write(tmp_path, f"0 1\n1 2\n{2**63 - 1} 0\n")
    keep = _write(tmp_path, f"0\n1\n{2**63}\n{2**63 - 1}\n{-2**64}\n", "keep.txt")
    _, id_map, report = load_edge_list(EdgeListSpec(edges, node_filter=keep))
    assert id_map == {0: 0, 1: 1, 2**63 - 1: 2} and report.filtered_out == 1


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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                                    max_size=12).map(lambda edges: (n, edges))))
@example((3, [(0, 0), (0, 1), (1, 0)]))   # a loop before the repeat
@example((3, [(0, 1), (2, 2), (1, 0)]))
@example((3, [(0, 1), (1, 0), (2, 2)]))   # a repeat before the loop
@example((3, [(1, 2), (0, 1), (2, 1), (0, 0)]))
def test_the_simple_graph_check_names_the_first_fault_in_edge_order(inputs):
    n, edges = inputs
    seen, want = set(), None
    for u, v in edges:
        if u == v:
            want = "loop-free"
            break
        if (min(u, v), max(u, v)) in seen:
            want = "parallel edges"
            break
        seen.add((min(u, v), max(u, v)))
    g = MultiGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    if want is None:
        assert len(clustering_stats(g)) == 2
    else:
        with pytest.raises(ValueError, match=want):
            clustering_stats(g)


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


@pytest.mark.parametrize("seed", range(4))
def test_clustering_stats_matches_brute_force(seed):
    g = sample_graph(Family.ERDOS_RENYI, 6.0, 120, np.random.default_rng(seed))
    fast = clustering_stats(g)
    slow = _brute_force_stats(g)
    assert fast[0] == pytest.approx(slow[0])
    assert fast[1] == pytest.approx(slow[1])


@pytest.mark.parametrize("place", ["café", "日本", "\U0001f642"])
def test_a_non_ascii_comment_keeps_the_edge_list_off_the_line_scan(tmp_path, monkeypatch, place):
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 2000, np.random.default_rng(2))
    plain, other = tmp_path / "plain.txt", tmp_path / "other.txt"
    write_edge_list(g, plain, comments=["normalized from /data/cafe/g.txt"])
    write_edge_list(g, other, comments=[f"normalized from /data/{place}/g.txt"])
    folder = tmp_path / place
    folder.mkdir()
    raw = _write(folder, "0 1\n1 2\n2 0\n", "g.txt")
    normalized = tmp_path / "n.txt"
    assert main(["ingest", "--edges", str(raw), "--out", str(normalized)]) == 0
    assert place in normalized.read_text()
    want = _outcome(load_edge_list, EdgeListSpec(plain)), _outcome(_reference_load, EdgeListSpec(normalized))
    monkeypatch.setattr(ingest, "_scan_edge_list", mock.Mock(side_effect=AssertionError("scanned")))
    assert _outcome(load_edge_list, EdgeListSpec(other)) == want[0]
    assert _outcome(load_edge_list, EdgeListSpec(normalized)) == want[1]


def test_a_comment_that_is_not_utf8_fails_with_its_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1\n# caf\xe9\n1 2\n")
    assert ingest._parse_edges(path.read_bytes()) is None
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: byte 0xe9 is not UTF-8"):
        load_edge_list(EdgeListSpec(path))


@pytest.mark.parametrize("bad_line", [5, 2000])
def test_a_byte_that_is_not_utf8_fails_before_an_earlier_malformed_row(tmp_path, bad_line):
    # the file is decoded before any row is read, however far in the byte is
    lines = [f"{i} {i + 1}".encode() for i in range(3000)]
    lines[1] = b"1 2 3"
    lines[bad_line - 1] += b" \xff"
    path = tmp_path / "g.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert bad_line == 5 or len(b"\n".join(lines[:bad_line - 1])) > 8192  # past a text reader's first chunk
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{bad_line}: byte 0xff is not UTF-8"):
        load_edge_list(EdgeListSpec(path))


# ---------------------------------------------------------------------------
# every input is read once, so a pipe reads as a regular file does

def _dump_columns(path):
    sample = sampling.read_sample_dump(path)
    return [getattr(sample, name).tolist()
            for name in ("codes", "recruiters", "components", "degrees", "alter_codes", "alter_offsets")]


def _filtered(path, tmp_path):
    edges = tmp_path / "filtered-edges.txt"
    edges.write_text("0 1\n1 2\n2 0\n")
    return load_edge_list(EdgeListSpec(edges, node_filter=path))[1:]


# each input's reader as (a call on the input's path, how it locates a line,
# a valid text outside the fast grammar, the same with a malformed line 3, the same with a bad byte on line 3)
_DUMP = ",".join(sampling.DUMP_COLUMNS).encode()
INPUTS = {
    "edge list": (lambda path, tmp_path: load_edge_list(EdgeListSpec(path))[1:], "{path}:{line}",
                  b"0 1\r\n1 2\r\n2 0\r\n", b"0 1\r\n1 2\r\n2 x\r\n", b"0 1\r\n1 2\r\n# \xff\r\n2 0\r\n"),
    "node filter": (_filtered, "{path}:{line}",
                    b"0\r\n  # c\r\n1\r\n", b"0\r\n1\r\nx\r\n", b"0\r\n1\r\n# \xff\r\n"),
    "sample dump": (lambda path, tmp_path: _dump_columns(path), "{path}:{line}",
                    _DUMP + b"\r\n5,SEED,0,2,7\r\n7,5,0,1,5\r\n", _DUMP + b"\r\n5,SEED,0,2,7\r\n7,9,0,1,5\r\n",
                    _DUMP + b"\r\n5,SEED,0,2,7\r\n# \xff\r\n7,5,0,1,5\r\n"),
    "plan": (lambda path, tmp_path: harness.load_plan(path), "plan line {line}",
             b"families = er\r\nlambdas = 3\r\nsizes = 100\r\nr = 10\r\nestimators = n1\r\n",
             b"families = er\r\nlambdas = 3\r\nsizes = x\r\nr = 10\r\nestimators = n1\r\n",
             b"families = er\r\nlambdas = 3\r\n# \xff\r\nsizes = 100\r\nr = 10\r\nestimators = n1\r\n"),
}
KINDS = ("valid", "malformed", "bad byte")


def _input(name, kind):
    read, where, *texts = INPUTS[name]
    return read, where, texts[KINDS.index(kind)]


def _input_outcome(read, path, tmp_path):
    try:
        return read(path, tmp_path)
    except ValueError as exc:
        return str(exc).replace(str(path), "{path}")


@pytest.fixture
def piped():
    """``piped(data)``: a path that reads ``data`` through a pipe, as ``/dev/stdin`` reads a
    shell pipe.  Opened a second time, it reads nothing more."""
    ends = []

    def pipe(data: bytes) -> str:
        read_end, write_end = os.pipe()
        ends.append(read_end)
        os.write(write_end, data)  # well within a pipe's buffer, so the write does not block
        os.close(write_end)
        return f"/dev/fd/{read_end}"

    yield pipe
    for end in ends:
        os.close(end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", INPUTS)
def test_an_input_reads_through_a_pipe_as_from_a_file(tmp_path, piped, name, kind):
    read, where, data = _input(name, kind)
    path = tmp_path / "input"
    path.write_bytes(data)
    from_file = _input_outcome(read, path, tmp_path)
    assert _input_outcome(read, piped(data), tmp_path) == from_file
    if kind == "valid":
        assert not isinstance(from_file, str), from_file
    else:
        assert from_file.startswith(where.format(path="{path}", line=3) + ": "), from_file


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", INPUTS)
def test_each_reader_opens_its_input_once(tmp_path, monkeypatch, name, kind):
    read, _, data = _input(name, kind)
    path = tmp_path / "input"
    path.write_bytes(data)
    opened = []
    real_open = open
    monkeypatch.setattr("builtins.open", lambda file, *args, **kwargs:
                        opened.append(file) or real_open(file, *args, **kwargs))
    _input_outcome(read, path, tmp_path)
    assert opened.count(path) == 1


# ---------------------------------------------------------------------------
# networkx as an outside reference for triangles, clustering and the cleaned graph


def _nx_graph(g: MultiGraph) -> nx.Graph:
    graph_ = nx.Graph()
    graph_.add_nodes_from(range(g.n))
    graph_.add_edges_from(g.edge_array.tolist())
    return graph_


@settings(max_examples=100, deadline=None)
@given(g=simple_graphs().filter(lambda g: g.n > 0))
@example(g=_complete(7))
@example(g=MultiGraph(6, [(0, v) for v in range(1, 6)]))
def test_triangles_and_clustering_match_networkx(g):
    reference = _nx_graph(g)
    triangles = nx.triangles(reference)
    assert triangle_counts(g.n, g.edge_array).tolist() == [triangles[v] for v in range(g.n)]
    average, transitivity = clustering_stats(g)
    assert average == pytest.approx(nx.average_clustering(reference), rel=1e-12, abs=1e-15)
    assert transitivity == nx.transitivity(reference)


_NX_IDS = st.one_of(st.integers(0, 6), st.integers(-3, 3), st.sampled_from([INT64_MIN, INT64_MAX, 2**40]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_NX_IDS, _NX_IDS), max_size=12))
@example([(INT64_MAX, INT64_MIN), (INT64_MIN, 0), (0, INT64_MAX), (5, 5)])
@example([(3, 3), (4, 4)])
def test_a_cleaned_edge_list_is_the_networkx_graph_of_its_lines(lines):
    reference = nx.Graph(lines)
    reference.remove_edges_from(list(nx.selfloop_edges(reference)))
    reference.remove_nodes_from(list(nx.isolates(reference)))
    relabel = {node: i for i, node in enumerate(sorted(reference))}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in lines))
        spec = EdgeListSpec(path, dedupe=True, drop_loops=True)
        if not reference.number_of_edges():
            with pytest.raises(ValueError, match="no edges survived ingestion"):
                load_edge_list(spec)
            return
        g, id_map, _ = load_edge_list(spec)
    assert id_map == relabel
    assert g.n == reference.number_of_nodes()
    edges = g.edge_array.tolist()
    assert len(edges) == reference.number_of_edges()
    assert {tuple(sorted(e)) for e in edges} == {tuple(sorted((relabel[u], relabel[v]))) for u, v in reference.edges}


@pytest.mark.parametrize("lines, ids", [
    ([(INT64_MAX, INT64_MIN), (INT64_MIN, 0), (0, INT64_MAX)], [INT64_MIN, 0, INT64_MAX]),  # past the table
    ([(7, -2**15), (7, 9)], [-2**15, 7, 9]),                                              # inside it
])
def test_the_relabel_maps_ids_at_both_int64_ends_in_sorted_order(tmp_path, lines, ids):
    path = _write(tmp_path, "".join(f"{u} {v}\n" for u, v in lines))
    g, id_map, _ = load_edge_list(EdgeListSpec(path))
    place = {x: i for i, x in enumerate(ids)}
    assert id_map == place
    assert g.edge_array.tolist() == [sorted((place[u], place[v])) for u, v in lines]


# Every output file goes through ``ingest.open_written``, as each writer's module names it.
WRITERS = ["sample dump", "csv", "edge list", "id map"]


@pytest.mark.parametrize("owner, name", [(ingest.os, "fstat"), (ingest, "open")], ids=["fstat", "open"])
def test_open_written_closes_its_descriptor_when_setting_up_the_file_fails(tmp_path, owner, name):
    opened, real_open = [], os.open

    def spied_open(*args):
        opened.append(real_open(*args))
        return opened[-1]

    with mock.patch.object(ingest.os, "open", spied_open), \
            mock.patch.object(ingest.os, "close", wraps=os.close) as close, \
            mock.patch.object(owner, name, side_effect=OSError(errno.EIO, "injected"), create=True):
        with pytest.raises(OSError, match="injected"):
            with ingest.open_written(tmp_path / "out.txt"):
                pass
    close.assert_called_once_with(opened[0])
    with pytest.raises(OSError) as caught:
        os.fstat(opened[0])
    assert caught.value.errno == errno.EBADF


@pytest.fixture(scope="module")
def writers(tmp_path_factory):
    """Each writer as (the module whose ``open_written`` it calls, a call that writes ``path``)."""
    g = sample_graph(Family.ERDOS_RENYI, 3.0, 40, np.random.default_rng(1))
    edges = tmp_path_factory.mktemp("writers") / "edges.txt"
    edges.write_text("".join(f"{u} {v}\n" for u, v in g.edge_array.tolist()))

    def id_map(path):
        """``netsize ingest --id-map``; the error it prints is raised again as an ``OSError``."""
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["ingest", "--edges", str(edges), "--id-map", os.fsdecode(path)])
        if code:
            printed = err.getvalue()
            assert printed.startswith("error: ") and printed.endswith("\n"), printed
            raise OSError(printed[len("error: "):-1])

    return {
        "sample dump": (sampling, lambda path: sampling.write_sample_dump(
            sampling.as_sample_view(g, range(12)), path, header_comment="a dump")),
        "csv": (harness, lambda path: harness.write_csv(["a,b", "1,2", "3,4"], path)),
        "edge list": (ingest, lambda path: write_edge_list(g, path, comments=["an edge list"])),
        "id map": (cli, id_map),
    }


def _fresh(write, tmp_path):
    """The bytes ``write`` puts in a file that did not exist."""
    path = tmp_path / "fresh"
    write(path)
    return path.read_bytes()


@pytest.mark.parametrize("old", ["longer", "shorter", "one byte", "empty"])
@pytest.mark.parametrize("name", WRITERS)
def test_a_rewritten_file_holds_what_a_fresh_write_holds(writers, tmp_path, name, old):
    write = writers[name][1]
    fresh = _fresh(write, tmp_path)
    size = {"longer": 2 * len(fresh) + 5, "shorter": len(fresh) // 2, "one byte": 1, "empty": 0}[old]
    path = tmp_path / "out"
    path.write_bytes(b"\xff" * size)  # a byte no writer writes
    write(path)
    assert path.read_bytes() == fresh


class _CutShort:
    """A written file that takes ``budget`` characters, then fails as a full disk does."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, text):
        self.fh.write(text[:self.budget])
        if len(text) > self.budget:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.budget -= len(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("share", [0, 0.5])
@pytest.mark.parametrize("name", WRITERS)
def test_a_write_cut_short_leaves_exactly_the_bytes_written(writers, tmp_path, monkeypatch, name, share):
    module, write = writers[name]
    fresh = _fresh(write, tmp_path)
    budget = int(len(fresh) * share)
    opened = ingest.open_written

    @contextmanager
    def cut_short(path):
        with opened(path) as fh:
            yield _CutShort(fh, budget)

    path = tmp_path / "out"
    path.write_bytes(b"\xff" * (len(fresh) + 100))
    monkeypatch.setattr(module, "open_written", cut_short)
    with pytest.raises(OSError, match="No space left on device"):
        write(path)
    assert path.read_bytes() == fresh[:budget]


@pytest.mark.parametrize("name", WRITERS)
def test_a_writer_writes_through_a_symlink(writers, tmp_path, name):
    write = writers[name][1]
    fresh = _fresh(write, tmp_path)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"\xff" * (len(fresh) + 100))
    link.symlink_to(target)
    write(link)
    assert link.is_symlink() and link.readlink() == target
    assert target.read_bytes() == fresh


@pytest.mark.parametrize("umask", [0o022, 0o077, 0])
@pytest.mark.parametrize("name", WRITERS)
def test_a_new_file_gets_the_mode_open_gives_it(writers, tmp_path, name, umask):
    before = os.umask(umask)
    try:
        writers[name][1](tmp_path / "new")
        open(tmp_path / "by open", "w").close()
    finally:
        os.umask(before)
    mode = stat.S_IMODE((tmp_path / "new").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "by open").stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("name", WRITERS)
def test_a_writer_writes_to_the_null_device(writers, name):
    writers[name][1](os.devnull)


@pytest.mark.parametrize("target", ["a directory", "a missing parent"])
@pytest.mark.parametrize("name", WRITERS)
def test_a_writer_fails_as_open_does(writers, tmp_path, name, target):
    path = tmp_path if target == "a directory" else tmp_path / "missing" / "out"
    with pytest.raises(OSError) as expected:
        open(path, "w")
    with pytest.raises(OSError) as got:
        writers[name][1](path)
    assert str(got.value) == str(expected.value)


def test_rewriting_a_dump_never_truncates_it_to_zero(writers, tmp_path, monkeypatch):
    """A file truncated to zero is flushed to disk when it is closed, which made
    each rewrite cost several times the write itself."""
    write = writers["sample dump"][1]
    path = tmp_path / "dump.csv"
    write(path)
    size = path.stat().st_size
    opened, cut = [], []
    real_open, real_ftruncate = os.open, os.ftruncate
    monkeypatch.setattr(ingest.os, "open", lambda file, flags, *args, **kwargs:
                        opened.append(flags) or real_open(file, flags, *args, **kwargs))
    monkeypatch.setattr(ingest.os, "ftruncate", lambda fd, length: cut.append(length) or real_ftruncate(fd, length))
    write(path)
    assert len(opened) == 1 and not opened[0] & os.O_TRUNC
    assert cut == [1, size] and path.stat().st_size == size
