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
import itertools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from statistics import median
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .estimators import EstimateResult, estimate_n2, estimate_n2_hashed, estimate_n3, estimate_n3_hashed
# ESTIMATORS and perfbench/spans.py use the old name; ROADMAP item 12 removes the alias
from .estimators import estimate_n1 as estimate_n1_from_view
from .generators import Family, check_family, check_size, sample_graph
from .graph import check_int, is_int
from .hashing import HashSpace, assign_hashes, hashed_view
from .ingest import open_text, open_written
from .sampling import RdsConfig, as_sample_view, rds_capture, uniform_sample

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
CROSS_COMPONENT_ESTIMATORS = ("n3", "n3psi")  # they count matches across referral components
RAW_COLUMNS = (
    "family", "lambda", "n", "r", "omega", "estimator",
    "graph_idx", "sample_idx", "estimate", "failed", "failure_cause",
)
_CELL_FIELDS = ("family", "lam", "n", "r", "omega", "estimator")  # of RawRow and SummaryRow
SUMMARY_COLUMNS = (
    "family", "lambda", "n", "r", "omega", "estimator",
    "count", "median", "q1", "q3", "min", "max", "failure_rate",
)


def _check_seed(seed) -> None:
    if not (is_int(seed) and 0 <= seed < 2**64):  # derive_rng keeps 64 bits, so a wider seed would alias
        raise ValueError(f"the master seed must be an int in [0, 2**64), got {seed!r}")


def derive_rng(master_seed: int, *coords) -> np.random.Generator:
    """Deterministic per-run stream from the master seed, an int in [0, 2**64), and run coordinates."""
    _check_seed(master_seed)
    words = [master_seed & 0xFFFFFFFF, (master_seed >> 32) & 0xFFFFFFFF]
    for part in coords:
        if isinstance(part, np.generic):  # a numpy scalar draws the stream of the Python scalar it equals
            part = part.item()
        digest = hashlib.blake2b(repr(part).encode(), digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        words.append(value & 0xFFFFFFFF)
        words.append(value >> 32)
    return np.random.default_rng(np.random.SeedSequence(words))


class PlanError(ValueError):
    """A plan rule that failed; ``key`` names the plan field it blames."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@contextmanager
def _blame(key: str, prefix: str = ""):
    """Raise a ``ValueError`` from the block as a ``PlanError`` on ``key``."""
    try:
        yield
    except ValueError as exc:
        raise PlanError(key, prefix + str(exc)) from None


@dataclass(frozen=True)
class ExperimentPlan:
    """A plan grid; ``__post_init__`` states only the plan's own rules, asks ``check_size``/``check_family``,
    ``HashSpace``, ``RdsConfig`` and the seed check of ``derive_rng`` for the rest, and raises ``PlanError``.
    A plan keeps its numbers as Python floats (λ) and ints, however they were given."""

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

    def __post_init__(self):
        for name in ("families", "lambdas", "sizes", "sample_sizes"):
            if not getattr(self, name):
                raise PlanError(name, "families, lambdas, sizes, and sample sizes must be non-empty")
        with _blame("families"):  # a family may be given by its plan name
            object.__setattr__(self, "families", tuple(map(Family, self.families)))
        if not self.estimators:
            raise PlanError("estimators", "at least one estimator is required")
        with _blame("sample_sizes"):
            for r in self.sample_sizes:
                check_int(r, "a sample size")
        for name in ("graph_replicates", "sample_replicates", "num_seeds"):
            with _blame(name):
                check_int(getattr(self, name), name)
        with _blame("seed"):
            _check_seed(self.seed)
        for name in self.estimators:
            if name not in ESTIMATORS:
                raise PlanError("estimators", f"unknown estimator {name!r}")
        for family, n in itertools.product(self.families, self.sizes):
            with _blame("sizes", f"{family.value} graphs on {n} vertices: "):
                check_size(family, n)
        for lam, family, n in itertools.product(self.lambdas, self.families, self.sizes):
            with _blame("lambdas", f"{family.value} graphs on {n} vertices: "):
                check_family(family, lam, n)
        for omega in self.omegas:
            with _blame("omegas"):
                HashSpace(omega)  # at least one code, and the codes a run draws must fit in int64
        for name in ("families", "lambdas", "sizes", "sample_sizes", "estimators", "omegas"):
            values = getattr(self, name)
            for i, value in enumerate(values):
                if value in values[:i]:  # a family is shown by its plan name
                    raise PlanError(name, f"{getattr(value, 'value', value)!r} is listed more than once")
        for name in ("graph_replicates", "sample_replicates"):
            if getattr(self, name) < 1:
                raise PlanError(name, "replicate counts must be >= 1")
            if getattr(self, name) > sys.maxsize:  # a run index must fit in a C ssize_t
                raise PlanError(name, f"replicate counts must be <= {sys.maxsize}")
        hashed = any(name in HASHED_ESTIMATORS for name in self.estimators)
        if hashed and not self.omegas:
            raise PlanError("estimators", "hashed estimators need at least one code-space size")
        if self.omegas and not hashed:
            raise PlanError("omegas", "code-space sizes need at least one hashed estimator")
        if min(self.sample_sizes) < 1:
            raise PlanError("sample_sizes", f"sample sizes must be >= 1, got {min(self.sample_sizes)}")
        if any(r > min(self.sizes) for r in self.sample_sizes):
            raise PlanError("sample_sizes", "sample sizes must not exceed the smallest population")
        if self.needs_rds():
            # every seed opens a referral component, and n3/n3psi need two
            if any(name in CROSS_COMPONENT_ESTIMATORS for name in self.estimators) and self.num_seeds < 2:
                raise PlanError("num_seeds", f"cross-component estimators need num_seeds >= 2, "
                                             f"got {self.num_seeds}")
            for r in self.sample_sizes:
                with _blame("num_seeds"):
                    RdsConfig(target_size=r, num_seeds=self.num_seeds)
        # the run streams hash each value's repr, so every value is kept as the Python number it equals
        for name, number in (("lambdas", float), ("sizes", int), ("sample_sizes", int), ("omegas", int)):
            object.__setattr__(self, name, tuple(map(number, getattr(self, name))))
        for name in ("graph_replicates", "sample_replicates", "seed", "num_seeds"):
            object.__setattr__(self, name, int(getattr(self, name)))

    def needs_rds(self) -> bool:
        return any(ESTIMATORS[name][1] != "uniform" for name in self.estimators)

    def cells(self) -> list[tuple]:
        """Every summary cell ``(family, lam, n, r, omega, estimator)`` in canonical plan order:
        estimators in plan order, a hashed one once per ω, a plaintext one with ω ``None``."""
        per_sample = [(omega, name) for name in self.estimators
                      for omega in (self.omegas if name in HASHED_ESTIMATORS else (None,))]
        grid = itertools.product(self.families, self.lambdas, self.sizes, self.sample_sizes)
        return [(family.value, lam, n, r, *cell) for family, lam, n, r in grid for cell in per_sample]

    def run_count(self) -> int:
        return len(self.cells()) * self.graph_replicates * self.sample_replicates


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
    med = median(values)
    half = len(values) // 2
    q1, q3 = (median(values[:half]), median(values[-half:])) if half else (med, med)
    return replace(row, median=med, q1=q1, q3=q3, minimum=values[0], maximum=values[-1])


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
                cfg = RdsConfig(target_size=r, num_seeds=plan.num_seeds)
                samples["rds"] = rds_capture(g, cfg, derive_rng(plan.seed, "rds", *coords))
            for omega in (None, *(plan.omegas if "hashed" in reads else ())):
                if omega is not None:
                    hash_rng = derive_rng(plan.seed, "hash", *coords, omega)
                    assignment = assign_hashes(n, HashSpace(omega), hash_rng)
                    samples["hashed"] = hashed_view(samples["rds"], assignment)
                for name, function, kind in wanted:
                    if (kind == "hashed") == (omega is not None):
                        estimate = globals()[function]
                        result = estimate(samples[kind]) if omega is None else estimate(samples[kind], omega)
                        rows.append(RawRow(family.value, lam, n, r, omega, name, graph_idx, sample_idx, result))
    return rows


def run_plan(plan: ExperimentPlan, workers: int = 1) -> tuple[list[RawRow], list[SummaryRow]]:
    """Execute every run of the plan on ``workers`` >= 1 processes; output is independent of their count."""
    check_int(workers, "workers")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    grid = itertools.product(plan.families, plan.lambdas, plan.sizes, range(plan.graph_replicates))
    tasks = [(plan, *task) for task in grid]
    if workers == 1 or len(tasks) == 1:
        per_task = [_run_graph_task(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # importing netsize loads no multiprocessing

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            per_task = list(pool.map(_run_graph_task, tasks, chunksize=1))
    raw: list[RawRow] = [row for rows in per_task for row in rows]
    return raw, summarize_rows(plan, raw)


def summarize_rows(plan: ExperimentPlan, raw: Sequence[RawRow]) -> list[SummaryRow]:
    """Per-cell summaries in canonical plan order; a row outside the plan raises ``ValueError``."""
    cells: dict[tuple, list[EstimateResult]] = {cell: [] for cell in plan.cells()}
    for row in raw:
        key = (row.family, row.lam, row.n, row.r, row.omega, row.estimator)
        if key not in cells:
            raise ValueError(f"raw row of cell {key} is not in the plan")
        cells[key].append(row.result)
    return [summarize(results, **dict(zip(_CELL_FIELDS, cell))) for cell, results in cells.items() if results]


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
    with open_written(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _listed(convert: Callable[[str], Any]) -> Callable[[str], tuple]:
    return lambda value: tuple(convert(tok.strip()) for tok in value.split(",") if tok.strip())


# plan key -> the converter of its value; ``r`` fills ``ExperimentPlan.sample_sizes``
_PLAN_KEYS: dict[str, Callable[[str], Any]] = {
    "families": _listed(Family), "lambdas": _listed(float), "sizes": _listed(int),
    "r": _listed(int), "estimators": _listed(str),
    "omegas": _listed(int), "graph_replicates": int, "sample_replicates": int,
    "seed": int, "num_seeds": int,
}


def parse_plan(text: str) -> ExperimentPlan:
    """Parse a line-oriented key=value plan (lists are comma-separated).

    The parser only converts values; ``ExperimentPlan`` checks the plan.
    Every error names its line as ``plan line N: key: ...``, except a
    missing required key.
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
        if key in fields:
            raise ValueError(f"plan line {lineno}: {key}: already given on line {line_of[key]}")
        fields[key] = value
        line_of[key] = lineno
    for key in ("families", "lambdas", "sizes", "estimators", "r"):
        if key not in fields:
            raise ValueError(f"plan is missing required key {key!r}")

    given: dict[str, Any] = {}
    try:
        for key, value in fields.items():  # in line order, so the first bad line is named
            with _blame(key):
                given["sample_sizes" if key == "r" else key] = _PLAN_KEYS[key](value)
        return ExperimentPlan(**given)
    except PlanError as exc:
        key = "r" if exc.key == "sample_sizes" else exc.key  # blame the key the plan wrote
        raise ValueError(f"plan line {line_of[key]}: {key}: {exc}") from None


def load_plan(path) -> ExperimentPlan:
    with open_text(path, "plan line {line}") as fh:
        return parse_plan(fh.read())
