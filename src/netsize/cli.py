"""Command-line surface: generate graphs, draw samples, estimate, run plans.

Subcommands
    generate    emit a random graph from one of the five families
    sample      capture a referral or uniform sample from an edge list
    estimate    apply an estimator to a sample dump
    experiment  run a plan file and write raw + summary CSVs
    ingest      load/clean an edge list, write the normalized version
    stats       clustering statistics of an ingested edge list
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import estimate_n1_from_view, estimate_n2, estimate_n3
from .generators import Family, sample_graph
from .harness import ESTIMATORS, load_plan, raw_csv_lines, run_plan, summary_csv_lines, write_csv
from .hashing import (
    HashMode,
    HashSpace,
    assign_hashes,
    estimate_n2_hashed,
    estimate_n3_hashed,
    hashed_view,
)
from .ingest import EdgeListSpec, clustering_stats, load_edge_list, write_edge_list, write_edges
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

def _header(command: str, args: argparse.Namespace, extras: dict) -> str:
    shown = {"seed": args.rng_seed, **extras}
    params = " ".join(f"{key}={value}" for key, value in shown.items())
    return f"netsize {__version__} | {command} | {params}"


def _cmd_generate(args: argparse.Namespace) -> int:
    family = Family(args.family)
    rng = np.random.default_rng(args.rng_seed)
    g = sample_graph(family, args.lam, args.n, rng)
    header = _header("generate", args, {"family": args.family, "lambda": args.lam, "n": args.n})
    if args.out:
        write_edge_list(g, args.out, comments=[header, f"nodes={g.n} edges={g.num_edges}"])
        print(header)
        print(f"wrote {g.n} nodes / {g.num_edges} edges to {args.out}")
    else:
        sys.stdout.write(f"# {header}\n")
        write_edges(g, sys.stdout)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    g, _, _ = load_edge_list(EdgeListSpec(args.edges))
    rng = np.random.default_rng(args.rng_seed)
    if args.mode == "uniform":
        sample = as_sample_view(g, uniform_sample(g, args.size, rng))
    else:
        cfg = RdsConfig(target_size=args.size, num_seeds=args.num_seeds)
        sample = rds_capture(g, cfg, rng)

    extras = {"mode": args.mode, "size": args.size, "graph": args.edges}
    if args.omega is not None:
        mode = HashMode(args.hash_mode)
        k = args.telefunken_digits
        space = HashSpace(args.omega, mode, telefunken_digits=k)
        sample = hashed_view(sample, assign_hashes(g.n, space, rng))
        extras.update({"omega": args.omega, "hash_mode": args.hash_mode})

    header = _header("sample", args, extras)
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
    print(_header("estimate", args, {"estimator": name, "sample": args.sample, "omega": args.omega}))
    if result.failed:
        print(f"estimator={name} estimate= failed=true cause={result.failure_cause.value}")
    else:
        print(f"estimator={name} estimate={result.value!r} failed=false cause=")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    if args.rng_seed is not None:
        from dataclasses import replace

        plan = replace(plan, seed=args.rng_seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(_header("experiment", args, {"plan": args.plan, "runs": plan.run_count(),
                                       "threads": args.threads, "plan_seed": plan.seed}))
    raw, summaries = run_plan(plan, workers=args.threads)
    raw_path = out_dir / "raw.csv"
    summary_path = out_dir / "summary.csv"
    write_csv(raw_csv_lines(raw), raw_path)
    write_csv(summary_csv_lines(summaries), summary_path)
    print(f"wrote {len(raw)} raw rows to {raw_path}")
    print(f"wrote {len(summaries)} summary rows to {summary_path}")
    return 0


def _ingest_spec(args: argparse.Namespace) -> EdgeListSpec:
    return EdgeListSpec(
        path=args.edges,
        directed=args.directed,
        node_filter=args.filter,
        dedupe=args.dedupe,
        drop_loops=args.drop_loops,
    )


def _cmd_ingest(args: argparse.Namespace) -> int:
    g, id_map, report = load_edge_list(_ingest_spec(args))
    print(_header("ingest", args, {"edges": args.edges}))
    print(report.describe())
    if args.out:
        write_edge_list(g, args.out, comments=[f"normalized from {args.edges}"])
        print(f"wrote normalized edge list to {args.out}")
    if args.id_map:
        with open(args.id_map, "w") as fh:
            fh.write("# original_id new_id\n")
            for orig, new in sorted(id_map.items()):
                fh.write(f"{orig} {new}\n")
        print(f"wrote id map to {args.id_map}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    g, _, report = load_edge_list(_ingest_spec(args))
    print(_header("stats", args, {"edges": args.edges}))
    print(report.describe())
    avg, trans = clustering_stats(g)
    print(f"average_clustering={avg:.6f} transitivity={trans:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netsize", description=__doc__)
    parser.add_argument("--version", action="version", version=f"netsize {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_seed: int | None = 0) -> None:
        p.add_argument("--rng-seed", type=int, default=default_seed, help="master random seed")

    p = sub.add_parser("generate", help="emit a random graph as an edge list")
    p.add_argument("--family", choices=sorted(fam.value for fam in Family), required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="target mean degree")
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    common(p)
    p.add_argument("--out", type=str, default=None, help="output path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sample", help="draw a sample from an edge-list graph")
    p.add_argument("--edges", required=True, help="edge-list file")
    p.add_argument("--mode", choices=("rds", "uniform"), default="rds")
    p.add_argument("--size", type=int, required=True, help="target sample size")
    p.add_argument("--num-seeds", type=int, default=7)
    p.add_argument("--omega", type=int, default=None, help="hash space size (enables hashed dump)")
    p.add_argument("--hash-mode", choices=[m.value for m in HashMode], default="random")
    p.add_argument("--telefunken-digits", type=int, default=0)
    common(p)
    p.add_argument("--out", type=str, default=None, help="output path")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="apply an estimator to a sample dump")
    p.add_argument("--estimator", choices=tuple(ESTIMATORS), required=True)
    p.add_argument("--sample", required=True, help="sample dump CSV")
    p.add_argument("--omega", type=int, default=None, help="hash space size (n2psi and n3psi only)")
    common(p, default_seed=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("experiment", help="run a plan file")
    p.add_argument("--plan", required=True, help="plan file (key=value lines)")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--rng-seed", type=int, default=None, help="override the plan's seed")
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)

    for name, func, help_text in (
        ("ingest", _cmd_ingest, "load and normalize an edge list"),
        ("stats", _cmd_stats, "clustering statistics of an edge list"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--edges", required=True)
        p.add_argument("--directed", action="store_true",
                       help="read lines as arcs; keep one edge per pair joined either way")
        p.add_argument("--dedupe", action="store_true", help="collapse duplicate edges")
        p.add_argument("--drop-loops", action="store_true", help="remove self-loops")
        p.add_argument("--filter", type=str, default=None, help="file of node ids to keep")
        if name == "ingest":
            p.add_argument("--id-map", type=str, default=None, help="write original->new id map")
            p.add_argument("--out", type=str, default=None, help="output path")
        common(p, default_seed=None)
        p.set_defaults(func=func)
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


if __name__ == "__main__":
    sys.exit(main())
