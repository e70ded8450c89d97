"""Monte-Carlo experiment driver over the graph-family grid.

A plan enumerates families, mean degrees, population sizes, sample sizes,
code-space sizes, and estimators; the driver generates the graph and sample
replicates, applies every requested estimator, and emits one raw row per
run plus per-cell summaries (Tukey-hinge quartiles over the successful
estimates, failure rate over all runs).

Every run draws from its own generator, derived by hashing the master seed
with the run coordinates, so results are identical no matter how work is
scheduled or how many workers execute it.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .estimators import EstimateResult, estimate_n1_from_view, estimate_n2, estimate_n3
from .generators import Family, sample_graph
from .hashing import HashMode, HashSpace, assign_hashes, estimate_n2_hashed, estimate_n3_hashed, hashed_view
from .sampling import DEFAULT_RECRUIT_LAW, RdsConfig, as_sample_view, rds_capture, uniform_sample

# name -> (its function's name in this module, the sample it reads: "uniform",
# "rds", or "hashed", the capture's hashed view, which also takes ω and runs once
# per ω).  raw.csv lists a sample's rows in this order.  Callers look the function
# up in their own module per call, so patching one module reaches only its path.
ESTIMATORS = {
    "n1": ("estimate_n1_from_view", "uniform"),
    "n2": ("estimate_n2", "rds"),
    "n3": ("estimate_n3", "rds"),
    "n2psi": ("estimate_n2_hashed", "hashed"),
    "n3psi": ("estimate_n3_hashed", "hashed"),
}
HASHED_ESTIMATORS = tuple(name for name, (_, reads) in ESTIMATORS.items() if reads == "hashed")
RAW_COLUMNS = (
    "family", "lambda", "n", "r", "omega", "estimator",
    "graph_idx", "sample_idx", "estimate", "failed", "failure_cause",
)
SUMMARY_COLUMNS = (
    "family", "lambda", "n", "r", "omega", "estimator",
    "count", "median", "q1", "q3", "min", "max", "failure_rate",
)


def derive_rng(master_seed: int, *coords) -> np.random.Generator:
    """Deterministic per-run stream from the master seed and run coordinates."""
    words = [master_seed & 0xFFFFFFFF, (master_seed >> 32) & 0xFFFFFFFF]
    for part in coords:
        digest = hashlib.blake2b(repr(part).encode(), digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        words.append(value & 0xFFFFFFFF)
        words.append(value >> 32)
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass(frozen=True)
class ExperimentPlan:
    families: tuple[Family, ...]
    lambdas: tuple[float, ...]
    sizes: tuple[int, ...]
    sample_sizes: tuple[int, ...]
    estimators: tuple[str, ...]
    omegas: tuple[int, ...] = ()
    graph_replicates: int = 1
    sample_replicates: int = 1
    seed: int = 0
    num_seeds: int = 7
    recruit_law: tuple[tuple[int, float], ...] = DEFAULT_RECRUIT_LAW

    def __post_init__(self):
        if not self.families or not self.lambdas or not self.sizes or not self.sample_sizes:
            raise ValueError("families, lambdas, sizes, and sample sizes must be non-empty")
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise ValueError(f"unknown estimator {name!r}")
        if self.graph_replicates < 1 or self.sample_replicates < 1:
            raise ValueError("replicate counts must be >= 1")
        if any(name in HASHED_ESTIMATORS for name in self.estimators) and not self.omegas:
            raise ValueError("hashed estimators need at least one code-space size")
        if any(r > min(self.sizes) for r in self.sample_sizes):
            raise ValueError("sample sizes must not exceed the smallest population")
        if self.needs_rds() and any(r < self.num_seeds for r in self.sample_sizes):
            raise ValueError("sample sizes must be >= the seed count")

    def needs_rds(self) -> bool:
        return any(ESTIMATORS[name][1] != "uniform" for name in self.estimators)

    def omegas_of(self, name: str) -> tuple:
        """The code-space sizes an estimator runs at; ``(None,)`` for a plaintext one."""
        return self.omegas if name in HASHED_ESTIMATORS else (None,)

    def run_count(self) -> int:
        per_sample = sum(len(self.omegas_of(name)) for name in self.estimators)
        cells = len(self.families) * len(self.lambdas) * len(self.sizes) * len(self.sample_sizes)
        return cells * self.graph_replicates * self.sample_replicates * per_sample


@dataclass(frozen=True)
class RawRow:
    family: str
    lam: float
    n: int
    r: int
    omega: Optional[int]
    estimator: str
    graph_idx: int
    sample_idx: int
    result: EstimateResult


@dataclass(frozen=True)
class SummaryRow:
    family: str = ""
    lam: float = 0.0
    n: int = 0
    r: int = 0
    omega: Optional[int] = None
    estimator: str = ""
    count: int = 0
    median: Optional[float] = None
    q1: Optional[float] = None
    q3: Optional[float] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    failure_rate: float = 0.0


def _median(values: Sequence[float]) -> float:
    k = len(values)
    mid = k // 2
    if k % 2 == 1:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def summarize(results: Sequence[EstimateResult], **cell) -> SummaryRow:
    """Tukey-hinge summary: quartiles are medians of the sorted halves,
    excluding the overall median when the count is odd."""
    if not results:
        raise ValueError("cannot summarize an empty cell")
    values = sorted(res.value for res in results if not res.failed)
    failures = sum(1 for res in results if res.failed)
    row = SummaryRow(count=len(results), failure_rate=failures / len(results), **cell)
    if not values:
        return row
    med = _median(values)
    k = len(values)
    if k == 1:
        q1 = q3 = med
    else:
        half = k // 2
        q1 = _median(values[:half])
        q3 = _median(values[half + (k % 2):])
    return replace(row, median=med, q1=q1, q3=q3, minimum=values[0], maximum=values[-1])


def _graph_tasks(plan: ExperimentPlan) -> list[tuple[Family, float, int, int]]:
    return [
        (family, lam, n, graph_idx)
        for family in plan.families
        for lam in plan.lambdas
        for n in plan.sizes
        for graph_idx in range(plan.graph_replicates)
    ]


def _run_graph_task(args: tuple[ExperimentPlan, Family, float, int, int]) -> list[RawRow]:
    plan, family, lam, n, graph_idx = args
    g = sample_graph(family, lam, n, derive_rng(plan.seed, "graph", family.value, lam, n, graph_idx))
    wanted = [(name, *entry) for name, entry in ESTIMATORS.items() if name in plan.estimators]
    reads = {kind for _, _, kind in wanted}
    rows: list[RawRow] = []
    for r in plan.sample_sizes:
        for sample_idx in range(plan.sample_replicates):
            coords = (family.value, lam, n, graph_idx, r, sample_idx)
            samples = {}
            if "uniform" in reads:
                rng = derive_rng(plan.seed, "uniform", *coords)
                samples["uniform"] = as_sample_view(g, uniform_sample(g, r, rng))
            if plan.needs_rds():
                cfg = RdsConfig(target_size=r, num_seeds=plan.num_seeds, recruit_law=plan.recruit_law)
                samples["rds"] = rds_capture(g, cfg, derive_rng(plan.seed, "rds", *coords))
            for omega in (None, *(plan.omegas if "hashed" in reads else ())):
                if omega is not None:
                    hash_rng = derive_rng(plan.seed, "hash", *coords, omega)
                    assignment = assign_hashes(n, HashSpace(omega, HashMode.RANDOM_FUNCTION), hash_rng)
                    samples["hashed"] = hashed_view(samples["rds"], assignment)
                for name, function, kind in wanted:
                    if (kind == "hashed") == (omega is not None):
                        estimate = globals()[function]
                        result = estimate(samples[kind]) if omega is None else estimate(samples[kind], omega)
                        rows.append(RawRow(family.value, lam, n, r, omega, name, graph_idx, sample_idx, result))
    return rows


def run_plan(plan: ExperimentPlan, workers: int = 1) -> tuple[list[RawRow], list[SummaryRow]]:
    """Execute every run of the plan; output is independent of worker count."""
    tasks = [(plan, *task) for task in _graph_tasks(plan)]
    if workers <= 1 or len(tasks) <= 1:
        per_task = [_run_graph_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(_run_graph_task, tasks, chunksize=1))
    raw: list[RawRow] = [row for rows in per_task for row in rows]
    return raw, summarize_rows(plan, raw)


def summarize_rows(plan: ExperimentPlan, raw: Sequence[RawRow]) -> list[SummaryRow]:
    """Per-cell summaries in canonical plan order."""
    cells: dict[tuple, list[EstimateResult]] = {}
    for row in raw:
        key = (row.family, row.lam, row.n, row.r, row.omega, row.estimator)
        cells.setdefault(key, []).append(row.result)
    summaries = []
    for family in plan.families:
        for lam in plan.lambdas:
            for n in plan.sizes:
                for r in plan.sample_sizes:
                    for name in plan.estimators:
                        for omega in plan.omegas_of(name):
                            key = (family.value, lam, n, r, omega, name)
                            if key not in cells:
                                continue
                            summaries.append(
                                summarize(
                                    cells[key],
                                    family=family.value, lam=lam, n=n, r=r,
                                    omega=omega, estimator=name,
                                )
                            )
    return summaries


def failure_curve(summaries: Iterable[SummaryRow], estimator: str, r: int) -> list[tuple[int, float]]:
    """Mean failure rate per population size, across families and degrees."""
    by_n: dict[int, list[float]] = {}
    for row in summaries:
        if row.estimator == estimator and row.r == r:
            by_n.setdefault(row.n, []).append(row.failure_rate)
    return [(n, sum(rates) / len(rates)) for n, rates in sorted(by_n.items())]


# ---------------------------------------------------------------------------
# plan files and CSV emission

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def raw_csv_lines(rows: Iterable[RawRow]) -> list[str]:
    lines = [",".join(RAW_COLUMNS)]
    for row in rows:
        res = row.result
        lines.append(",".join([
            row.family, _fmt(row.lam), str(row.n), str(row.r), _fmt(row.omega),
            row.estimator, str(row.graph_idx), str(row.sample_idx),
            _fmt(res.value), "true" if res.failed else "false",
            res.failure_cause.value if res.failed else "",
        ]))
    return lines


def summary_csv_lines(rows: Iterable[SummaryRow]) -> list[str]:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        lines.append(",".join([
            row.family, _fmt(row.lam), str(row.n), str(row.r), _fmt(row.omega),
            row.estimator, str(row.count), _fmt(row.median), _fmt(row.q1), _fmt(row.q3),
            _fmt(row.minimum), _fmt(row.maximum), _fmt(row.failure_rate),
        ]))
    return lines


def write_csv(lines: Sequence[str], path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_PLAN_KEYS = {
    "families", "lambdas", "sizes", "r", "sample_sizes", "omegas", "estimators",
    "graph_replicates", "sample_replicates", "seed", "num_seeds",
}


def parse_plan(text: str) -> ExperimentPlan:
    """Parse a line-oriented key=value plan (lists are comma-separated).

    A value that does not parse fails with a ``plan line N: key:`` message.
    """
    fields: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"plan line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PLAN_KEYS:
            raise ValueError(f"plan line {lineno}: unknown key {key!r}")
        fields[key] = value
        line_of[key] = lineno

    for key in ("families", "lambdas", "sizes", "estimators"):
        if key not in fields:
            raise ValueError(f"plan is missing required key {key!r}")
    if "r" not in fields and "sample_sizes" not in fields:
        raise ValueError("plan is missing required key 'r'")

    def parse(key: str, convert: Callable[[str], Any], default: Any = None) -> Any:
        if key not in fields:
            return default
        try:
            return convert(fields[key])
        except ValueError as exc:
            raise ValueError(f"plan line {line_of[key]}: {key}: {exc}") from None

    def listed(convert: Callable[[str], Any]) -> Callable[[str], tuple]:
        return lambda value: tuple(convert(tok.strip()) for tok in value.split(",") if tok.strip())

    return ExperimentPlan(
        families=parse("families", listed(Family)),
        lambdas=parse("lambdas", listed(float)),
        sizes=parse("sizes", listed(int)),
        sample_sizes=parse("r" if "r" in fields else "sample_sizes", listed(int)),
        estimators=parse("estimators", listed(str)),
        omegas=parse("omegas", listed(int), ()),
        graph_replicates=parse("graph_replicates", int, 1),
        sample_replicates=parse("sample_replicates", int, 1),
        seed=parse("seed", int, 0),
        num_seeds=parse("num_seeds", int, 7),
    )


def load_plan(path) -> ExperimentPlan:
    with open(path) as fh:
        return parse_plan(fh.read())
