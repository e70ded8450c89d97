"""Command-line surface: generate graphs, draw samples, estimate, run plans.

Subcommands
    generate    emit a random graph from one of the five families
    sample      capture a referral or uniform sample from an edge list
    estimate    apply an estimator to a sample dump
    experiment  run a plan file and write raw + summary CSVs
    ingest      load/clean an edge list, write the normalized version
    stats       clustering statistics of the simple graph of an edge list
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import estimate_n2, estimate_n2_hashed, estimate_n3, estimate_n3_hashed
# ESTIMATORS and perfbench/spans.py use the old name; ROADMAP item 12 removes the alias
from .estimators import estimate_n1 as estimate_n1_from_view
from .generators import Family, sample_graph
from .harness import ESTIMATORS, load_plan, raw_csv_lines, run_plan, summary_csv_lines, write_csv
from .hashing import HashMode, HashSpace, assign_hashes, hashed_view
from .ingest import EdgeListSpec, clustering_stats, load_edge_list, open_written, write_edge_list, write_edges
from .sampling import (
    RdsConfig,
    as_sample_view,
    rds_capture,
    read_sample_dump,
    rows_to_sample,
    sample_dump_lines,
    uniform_sample,
    write_sample_dump,
)

def _header(command: str, shown: dict) -> str:
    """The reproducibility line; a command that draws leads it with ``seed=``."""
    params = " ".join(f"{key}={value}" for key, value in shown.items())
    return f"netsize {__version__} | {command} | {params}"


def _cmd_generate(args: argparse.Namespace) -> int:
    family = Family(args.family)
    rng = np.random.default_rng(args.rng_seed)
    g = sample_graph(family, args.lam, args.n, rng)
    header = _header("generate", {"seed": args.rng_seed, "family": args.family, "lambda": args.lam,
                                  "n": args.n})
    if args.out:
        write_edge_list(g, args.out, comments=[header, f"nodes={g.n} edges={g.num_edges}"])
        print(header)
        print(f"wrote {g.n} nodes / {g.num_edges} edges to {args.out}")
    else:
        sys.stdout.write(f"# {header}\n")
        write_edges(g, sys.stdout)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.hash_mode is not None and args.omega is None:
        raise ValueError("--hash-mode needs --omega")
    space = None if args.omega is None else HashSpace(args.omega, args.hash_mode or "random")
    g, _, _ = load_edge_list(EdgeListSpec(args.edges))
    rng = np.random.default_rng(args.rng_seed)
    if args.mode == "uniform":
        sample = as_sample_view(g, uniform_sample(g, args.size, rng))
    else:
        cfg = RdsConfig(target_size=args.size, num_seeds=args.num_seeds)
        sample = rds_capture(g, cfg, rng)

    extras = {"seed": args.rng_seed, "mode": args.mode, "size": args.size, "graph": args.edges}
    if space is not None:
        sample = hashed_view(sample, assign_hashes(g.n, space, rng))
        extras.update({"omega": args.omega, "hash_mode": space.mode.value})

    header = _header("sample", extras)
    if args.out:
        write_sample_dump(sample, args.out, header_comment=header)
        print(header)
        print(f"wrote {sample.size} subjects to {args.out}")
    else:
        for line in sample_dump_lines(sample, header_comment=header):
            print(line)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    name = args.estimator
    function, reads = ESTIMATORS[name]
    if reads == "hashed" and args.omega is None:
        raise ValueError("hashed estimators need --omega")
    if reads != "hashed" and args.omega is not None:
        raise ValueError(f"{name} takes no --omega")
    sample = read_sample_dump(args.sample)
    estimate = globals()[function]  # by name in this module: see harness.ESTIMATORS
    result = estimate(sample, args.omega) if reads == "hashed" else estimate(rows_to_sample(sample))
    print(_header("estimate", {"estimator": name, "sample": args.sample, "omega": args.omega}))
    if result.failed:
        print(f"estimator={name} estimate= failed=true cause={result.failure_cause.value}")
    else:
        print(f"estimator={name} estimate={result.value!r} failed=false cause=")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    plan = load_plan(args.plan)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(_header("experiment", {"plan": args.plan, "runs": plan.run_count(),
                                 "threads": args.threads, "plan_seed": plan.seed}))
    raw, summaries = run_plan(plan, workers=args.threads)
    raw_path = out_dir / "raw.csv"
    summary_path = out_dir / "summary.csv"
    write_csv(raw_csv_lines(raw), raw_path)
    write_csv(summary_csv_lines(summaries), summary_path)
    print(f"wrote {len(raw)} raw rows to {raw_path}")
    print(f"wrote {len(summaries)} summary rows to {summary_path}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    spec = EdgeListSpec(args.edges, node_filter=args.filter, dedupe=args.dedupe, drop_loops=args.drop_loops)
    g, id_map, report = load_edge_list(spec)
    print(_header("ingest", {"edges": args.edges}))
    print(report.describe())
    if args.out:
        write_edge_list(g, args.out, comments=[f"normalized from {args.edges}"])
        print(f"wrote normalized edge list to {args.out}")
    if args.id_map:
        with open_written(args.id_map) as fh:
            fh.write("# original_id new_id\n")
            for orig, new in sorted(id_map.items()):
                fh.write(f"{orig} {new}\n")
        print(f"wrote id map to {args.id_map}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    # clustering is defined on the simple graph, so every edge list is read as one
    spec = EdgeListSpec(args.edges, node_filter=args.filter, dedupe=True, drop_loops=True)
    g, _, report = load_edge_list(spec)
    print(_header("stats", {"edges": args.edges}))
    print(report.describe())
    avg, trans = clustering_stats(g)
    print(f"average_clustering={avg:.6f} transitivity={trans:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netsize", description=__doc__)
    parser.add_argument("--version", action="version", version=f"netsize {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a random graph as an edge list")
    p.add_argument("--family", choices=sorted(fam.value for fam in Family), required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="target mean degree")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--rng-seed", type=int, default=0, help="master random seed")
    p.add_argument("--out", type=str, default=None, help="output path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sample", help="draw a sample from an edge-list graph")
    p.add_argument("--edges", required=True, help="edge-list file")
    p.add_argument("--mode", choices=("rds", "uniform"), default="rds")
    p.add_argument("--size", type=int, required=True, help="target sample size")
    p.add_argument("--num-seeds", type=int, default=7)
    p.add_argument("--omega", type=int, default=None, help="hash space size (enables hashed dump)")
    p.add_argument("--hash-mode", choices=[m.value for m in HashMode], default=None,
                   help="needs --omega (default random); telefunken takes its digit count "
                        "from --omega, a power of 4")
    p.add_argument("--rng-seed", type=int, default=0, help="master random seed")
    p.add_argument("--out", type=str, default=None, help="output path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="apply an estimator to a sample dump")
    p.add_argument("--estimator", choices=tuple(ESTIMATORS), required=True)
    p.add_argument("--sample", required=True, help="sample dump CSV")
    p.add_argument("--omega", type=int, default=None, help="hash space size (n2psi and n3psi only)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a plan file")
    p.add_argument("--plan", required=True, help="plan file (key=value lines)")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("ingest", help="load and normalize an edge list")
    p.add_argument("--edges", required=True)
    p.add_argument("--dedupe", action="store_true", help="keep one edge per pair joined in either direction")
    p.add_argument("--drop-loops", action="store_true", help="remove self-loops")
    p.add_argument("--filter", type=str, default=None, help="file of node ids to keep")
    p.add_argument("--id-map", type=str, default=None, help="write original->new id map")
    p.add_argument("--out", type=str, default=None, help="output path")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="clustering statistics of the simple graph of an edge list")
    p.add_argument("--edges", required=True)
    p.add_argument("--filter", type=str, default=None, help="file of node ids to keep")
    p.set_defaults(func=_cmd_stats)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
