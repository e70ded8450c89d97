"""The benchmark's workloads: inputs built from the seed, and one pass of fixed work.

A pass is the work a run repeats and times.  Each seed defines ``SETS``
distinct input sets, and a run makes whole rounds of passes, one pass per
set in each round, so every set counts equally in its medians however many
rounds fit in its time.  A replayed set must reproduce its earlier output
byte for byte.

Every call into netsize goes through the module attribute (``harness.run_plan``,
``sampling.rds_capture``, ...) so that the traced run, which patches those
attributes, times exactly the calls the untraced run makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

import netsize.cli as cli
import netsize.estimators as estimators
import netsize.generators as generators
import netsize.harness as harness
import netsize.hashing as hashing
import netsize.ingest as ingest
import netsize.sampling as sampling
from netsize.generators import Family
from netsize.graph import MultiGraph

SETS = 2
# Estimates from one graph share its realisation; few graphs make the accuracy metric swing by seed.
CAPTURES_PER_GRAPH = 10
HASHED = harness.HASHED_ESTIMATORS


@dataclass(frozen=True)
class DumpSpec:
    """Captures written as sample dumps and estimated through ``netsize estimate``.

    ``graph`` is (family, mean degree, n) of the graphs generated in the pass,
    a fresh one for every ``CAPTURES_PER_GRAPH`` captures, or None to capture
    from the workload's own graph (``field``).
    """

    r: int
    captures: int
    estimators: tuple[str, ...]
    omega: Optional[int] = None
    graph: Optional[tuple[str, float, int]] = None


@dataclass(frozen=True)
class PlanSpec:
    """A ``run_plan`` workload (``grid`` and ``hashed``)."""

    families: tuple[str, ...]
    lambdas: tuple[float, ...]
    sizes: tuple[int, ...]
    sample_sizes: tuple[int, ...]
    estimators: tuple[str, ...]
    sample_replicates: int
    headline: str
    dump: DumpSpec
    omegas: tuple[int, ...] = ()
    graph_replicates: int = 1


@dataclass(frozen=True)
class FieldSpec:
    """The file-based analyst path: ingest, clustering, rewiring, dumps, CLI."""

    n: int
    lam: float
    duplicate_share: float
    loops: int
    target: float
    headline: str
    dump: DumpSpec


SPECS = {
    # The shape of the criterion-9 grid: generation and capture dominate.
    "grid": PlanSpec(
        families=tuple(f.value for f in Family),
        lambdas=(3.0, 10.0),
        sizes=(5_000, 40_000),
        sample_sizes=(250, 750),
        estimators=("n1", "n2", "n3"),
        sample_replicates=3,
        headline="n2",
        dump=DumpSpec(r=250, captures=100, estimators=("n2",), graph=("poisson", 10.0, 5_000)),
    ),
    # Small graphs, many code spaces: hashed views and the hashed root solve dominate.
    # Two graph replicates, for the same reason as CAPTURES_PER_GRAPH.
    "hashed": PlanSpec(
        families=("poisson", "lognormal"),
        lambdas=(6.0, 10.0),
        sizes=(5_000,),
        sample_sizes=(250, 750),
        estimators=("n2psi", "n3psi"),
        omegas=(2_000, 32_000, 256_000),
        graph_replicates=2,
        sample_replicates=2,
        headline="n3psi",
        dump=DumpSpec(r=250, captures=100, estimators=("n3psi",), omega=32_000,
                      graph=("poisson", 10.0, 5_000)),
    ),
    # n2 collapses on a clustered graph by design, so n3 is the headline.
    "field": FieldSpec(
        n=20_000,
        lam=8.0,
        duplicate_share=0.01,
        loops=200,
        target=0.1,
        headline="n3",
        dump=DumpSpec(r=250, captures=150, estimators=("n3", "n3psi"), omega=256_000),
    ),
}


@dataclass
class Inputs:
    """What setup builds from the seed; passes only read it."""

    spec: PlanSpec | FieldSpec
    seed: int
    workdir: Path
    plans: list = field(default_factory=list)       # one ExperimentPlan per input set
    edge_list: Optional[Path] = None


@dataclass
class CliCall:
    """One in-process ``netsize estimate`` call and the rows its dump holds."""

    estimator: str
    n: int
    omega: Optional[int]
    rows: list
    start: float        # perf_counter readings around the call
    end: float
    code: int
    stdout: str
    stderr: str
    seconds: float = 0.0  # speed-corrected latency, filled in by the runner


@dataclass
class PassOutput:
    """Everything a pass produced, checked after the timed region."""

    estimates: list = field(default_factory=list)   # (estimator, n, EstimateResult)
    cli_calls: list = field(default_factory=list)
    expected_rows: int = 0
    files: list = field(default_factory=list)       # output files, in digest order
    clustering_target: Optional[float] = None
    clustering_reached: Optional[float] = None


def set_seed(seed: int, set_index: int) -> int:
    """Master seed of one input set; distinct for every (seed, set) pair."""
    return seed * SETS + set_index


def setup(name: str, seed: int, workdir: Path, spec=None) -> Inputs:
    """Build the workload's inputs from the seed (plans, or the edge-list file)."""
    spec = spec if spec is not None else SPECS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(spec=spec, seed=seed, workdir=workdir)
    if isinstance(spec, PlanSpec):
        inputs.plans = [
            harness.ExperimentPlan(
                families=tuple(Family(family) for family in spec.families), lambdas=spec.lambdas,
                sizes=spec.sizes, sample_sizes=spec.sample_sizes, estimators=spec.estimators,
                omegas=spec.omegas, graph_replicates=spec.graph_replicates,
                sample_replicates=spec.sample_replicates, seed=set_seed(seed, j),
            )
            for j in range(SETS)
        ]
    else:
        inputs.edge_list = _write_field_edge_list(spec, seed, workdir / "field_edges.txt")
    return inputs


def _write_field_edge_list(spec: FieldSpec, seed: int, path: Path) -> Path:
    """A configuration graph plus reversed duplicate lines and self-loops."""
    rng = np.random.default_rng([seed, 1])
    base = generators.sample_graph(Family.CONFIG_POISSON, spec.lam, spec.n, rng)
    edges = base.edge_array
    dup = edges[rng.choice(len(edges), size=int(spec.duplicate_share * len(edges)), replace=False)]
    loop_at = rng.choice(spec.n, size=spec.loops, replace=False)
    dirty = MultiGraph(
        spec.n, np.concatenate([edges, dup[:, ::-1], np.stack([loop_at, loop_at], axis=1)])
    )
    ingest.write_edge_list(dirty, path, comments=[f"benchmark field graph seed={seed}"])
    return path


def run_pass(inputs: Inputs, set_index: int, tracer) -> PassOutput:
    """One pass of the workload's fixed work on input set ``set_index``."""
    out = PassOutput()
    rng = np.random.default_rng([inputs.seed, set_index, 2])
    passdir = inputs.workdir / "pass"
    passdir.mkdir(exist_ok=True)
    spec = inputs.spec
    if isinstance(spec, PlanSpec):
        plan = inputs.plans[set_index]
        tracer.task = "plan"
        raw, summaries = harness.run_plan(plan, workers=1)
        tracer.task = "csv"
        raw_path, summary_path = passdir / "raw.csv", passdir / "summary.csv"
        harness.write_csv(harness.raw_csv_lines(raw), raw_path)
        harness.write_csv(harness.summary_csv_lines(summaries), summary_path)
        out.files = [raw_path, summary_path]
        out.estimates = [(row.estimator, row.n, row.result) for row in raw]
        out.expected_rows = plan.run_count()
        family, lam, n = spec.dump.graph
        for first in range(0, spec.dump.captures, CAPTURES_PER_GRAPH):
            tracer.task = f"dump-graph:{first // CAPTURES_PER_GRAPH}"
            g = generators.sample_graph(Family(family), lam, n, rng)
            captures = min(CAPTURES_PER_GRAPH, spec.dump.captures - first)
            out.cli_calls += _dump_stage(g, spec.dump, captures, rng, passdir, tracer)
        return out
    tracer.task = "field"
    g, _, _ = ingest.load_edge_list(ingest.EdgeListSpec(inputs.edge_list, dedupe=True, drop_loops=True))
    ingest.clustering_stats(g)
    rewired = generators.rewire_to_clustering(g, spec.target, rng)
    rewired_path = passdir / "rewired.txt"
    ingest.write_edge_list(rewired, rewired_path)
    g, _, _ = ingest.load_edge_list(ingest.EdgeListSpec(rewired_path))
    out.clustering_target = spec.target
    out.clustering_reached, _ = ingest.clustering_stats(g)
    out.files = [rewired_path]
    out.cli_calls = _dump_stage(g, spec.dump, spec.dump.captures, rng, passdir, tracer)
    return out


def _dump_stage(g, dump: DumpSpec, captures: int, rng, passdir: Path, tracer) -> list[CliCall]:
    """Capture, write plaintext and/or hashed dumps, estimate each through the CLI."""
    plain = [name for name in dump.estimators if name not in HASHED]
    hashed = [name for name in dump.estimators if name in HASHED]
    calls = []
    stage = tracer.task
    for c in range(captures):
        tracer.task = f"{stage}/capture:{c}"
        sample = sampling.rds_capture(g, sampling.RdsConfig(target_size=dump.r), rng)
        if plain:
            rows = sampling.sample_to_rows(sample)
            path = passdir / "plain.csv"
            sampling.write_sample_dump(rows, path)
            calls += [_estimate_cli(name, path, g.n, None, rows) for name in plain]
        if hashed:
            assignment = hashing.assign_hashes(g.n, hashing.HashSpace(dump.omega), rng)
            hs = hashing.hashed_view(sample, assignment)
            recruiter_of = {b: a for a, b in sample.forest.edges}
            recruiter_codes = [int(assignment[recruiter_of[u]]) if u in recruiter_of else None
                               for u in sample.order]
            rows = hashing.hashed_to_rows(hs, recruiter_codes)
            path = passdir / "hashed.csv"
            sampling.write_sample_dump(rows, path)
            calls += [_estimate_cli(name, path, g.n, dump.omega, rows) for name in hashed]
    return calls


def _estimate_cli(name: str, path: Path, n: int, omega: Optional[int], rows) -> CliCall:
    argv = ["estimate", "--estimator", name, "--sample", str(path)]
    if omega is not None:
        argv += ["--omega", str(omega)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        code = cli.main(argv)
        end = perf_counter()
    return CliCall(name, n, omega, rows, start, end, code, stdout.getvalue(), stderr.getvalue())


def digest(out: PassOutput) -> str:
    """Hash of every output a pass leaves: CSV/edge-list bytes and CLI output."""
    h = hashlib.sha256()
    for path in out.files:
        h.update(Path(path).read_bytes())
    for call in out.cli_calls:
        h.update(f"{call.code}\n{call.stdout}\n{call.stderr}\n".encode())
    return h.hexdigest()


def library_estimate(call: CliCall):
    """The library's estimate on the same rows the CLI read back from the dump."""
    if call.estimator in HASHED:
        hs = hashing.rows_to_hashed(call.rows)
        solve = hashing.estimate_n2_hashed if call.estimator == "n2psi" else hashing.estimate_n3_hashed
        return solve(hs, call.omega)
    sample = sampling.rows_to_sample(call.rows)
    return estimators.estimate_n2(sample) if call.estimator == "n2" else estimators.estimate_n3(sample)
