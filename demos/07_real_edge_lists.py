"""Ingesting a real edge list and estimating from samples of it.

Edge lists arrive as "u v" lines (SNAP-style, # comments allowed), often
as arcs, with duplicates and loops.  Ingestion keeps one tie per pair
joined either way, drops loops, relabels ids contiguously, and reports
what it did; the result can be sampled and estimated like any synthetic
graph.  Point BRIGHTKITE at a
local copy of a large friendship network to reproduce the same flow at
scale.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from netsize import (
    EdgeListSpec,
    Family,
    RdsConfig,
    clustering_stats,
    estimate_n3,
    load_edge_list,
    rds_capture,
    sample_graph,
    write_edge_list,
)

BRIGHTKITE = os.environ.get("NETSIZE_BRIGHTKITE", "data/brightkite_edges.txt")

with tempfile.TemporaryDirectory() as tmp:
    # fabricate a "collected" file of arcs with duplicates and a loop
    raw = Path(tmp) / "collected.txt"
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 2000, np.random.default_rng(8))
    lines = ["# fabricated collection dump"]
    for u, v in g.edge_array.tolist():
        lines.append(f"{u} {v}")
        lines.append(f"{v} {u}")          # reciprocal duplicates
    lines.append("17 17")                  # a stray self-loop
    raw.write_text("\n".join(lines) + "\n")

    spec = EdgeListSpec(raw, dedupe=True, drop_loops=True)
    graph, id_map, report = load_edge_list(spec)
    print("ingestion report:", report.describe())

    avg, trans = clustering_stats(graph)
    print(f"clustering: average={avg:.4f} transitivity={trans:.4f}")

    sample = rds_capture(graph, RdsConfig(target_size=300), np.random.default_rng(1))
    res = estimate_n3(sample)
    print(f"referral sample of 300 -> cross-component estimate {res.value:.0f} "
          f"(true population {graph.n})")

    # round-trip: the normalized file reloads to the same graph
    norm = Path(tmp) / "normalized.txt"
    write_edge_list(graph, norm, comments=["normalized"])
    again, _, _ = load_edge_list(EdgeListSpec(norm))
    print(f"round trip: {again.n} nodes, {again.num_edges} edges "
          f"(match: {again.num_edges == graph.num_edges})")

if os.path.exists(BRIGHTKITE):
    spec = EdgeListSpec(BRIGHTKITE, dedupe=True, drop_loops=True)
    graph, _, report = load_edge_list(spec)
    print("\nlarge network:", report.describe())
    avg, trans = clustering_stats(graph)
    print(f"clustering: average={avg:.4f} transitivity={trans:.5f}")
else:
    print(f"\n(no large network at {BRIGHTKITE}; set NETSIZE_BRIGHTKITE to try one)")
