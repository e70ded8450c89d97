"""The sample record, uniform vertex sampling, and the referral-capture simulator.

The referral process mirrors field practice: a handful of uniformly chosen
seeds receive coupons, each interviewed subject recruits a random count of
still-undiscovered neighbors (two with probability 0.9, one otherwise, by
default), and a fresh seed is drawn whenever recruitment stalls before the
target size is reached.  The resulting sample records exactly what a field
study would see: discovery order, who recruited whom, each subject's
reported degree, and each subject's non-referral alters.

Every sample is one columnar ``Sample``.  A plaintext capture or uniform
view uses vertex ids as codes (the identity code assignment), a hashed view
maps every code through a code assignment, and a field dump is read into
the same record.  Each sample counts its free ends, matches and
cross-component matches once, in numpy (``Sample.counts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .graph import MultiGraph, ReferralForest
from .multiset import Multiset

DEFAULT_RECRUIT_LAW = ((2, 0.9), (1, 0.1))


@dataclass(frozen=True)
class RdsConfig:
    """Parameters of one referral capture."""

    target_size: int
    num_seeds: int = 7
    recruit_law: tuple[tuple[int, float], ...] = DEFAULT_RECRUIT_LAW
    seeds: Optional[tuple[int, ...]] = None  # explicit seed vertices (testing/repro)
    seed: Optional[int] = None               # rng seed when no generator is passed

    def __post_init__(self):
        if self.target_size < 1:
            raise ValueError("target size must be >= 1")
        if not 1 <= self.num_seeds <= self.target_size:
            raise ValueError("need 1 <= num_seeds <= target_size")
        if not self.recruit_law:
            raise ValueError("recruit law must have at least one outcome")
        total = sum(p for _, p in self.recruit_law)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"recruit law probabilities sum to {total}, not 1")
        if any(k < 0 for k, _ in self.recruit_law):
            raise ValueError("recruit counts must be non-negative")


@dataclass(frozen=True, eq=False)
class Sample:
    """A captured sample as columns: everything the estimators may see.

    Row i is the i-th subject in discovery order.  ``recruiters[i]`` is the
    row of subject i's recruiter, an earlier row of the same component, or
    -1 for a seed (the default for every row).  Row i's alter codes are
    ``alter_codes[alter_offsets[i]:alter_offsets[i + 1]]``, which construction
    sorts.  Without ``alter_offsets``, ``alter_codes`` is one bag of codes per row.
    """

    codes: np.ndarray
    degrees: np.ndarray
    alter_codes: np.ndarray
    components: np.ndarray
    recruiters: Optional[np.ndarray] = None
    alter_offsets: Optional[np.ndarray] = None

    def __post_init__(self):
        k = len(self.codes)
        alters, offsets = self.alter_codes, self.alter_offsets
        if offsets is None:
            bags = [list(Multiset(bag).elements()) for bag in alters]
            offsets = np.cumsum([0] + [len(bag) for bag in bags])
            alters = [code for bag in bags for code in bag]
        columns = {
            "codes": self.codes, "degrees": self.degrees, "components": self.components,
            "recruiters": np.full(k, -1) if self.recruiters is None else self.recruiters,
            "alter_codes": alters, "alter_offsets": offsets,
        }
        for name, column in columns.items():
            object.__setattr__(self, name, np.asarray(column, dtype=np.int64).reshape(-1))
        if not len(self.degrees) == len(self.components) == len(self.recruiters) == k:
            raise ValueError("per-subject columns must have equal length")
        offsets = self.alter_offsets
        if len(offsets) != k + 1 or offsets[0] != 0 or offsets[-1] != len(self.alter_codes) \
                or np.any(np.diff(offsets) < 0):
            raise ValueError("alter offsets must run from 0 to the alter count, one per subject")
        row = np.repeat(np.arange(k), np.diff(offsets))
        if np.any((np.diff(self.alter_codes) < 0) & (np.diff(row) == 0)):
            object.__setattr__(self, "alter_codes", self.alter_codes[np.lexsort((self.alter_codes, row))])
        recruit = np.flatnonzero(self.recruiters >= 0)
        rec = self.recruiters[recruit]
        if np.any(self.recruiters < -1) or np.any(rec >= recruit) \
                or np.any(self.components[rec] != self.components[recruit]):
            raise ValueError("a recruiter must be an earlier subject of the same component")

    @property
    def size(self) -> int:
        return len(self.codes)

    @property
    def order(self) -> tuple[int, ...]:
        """Subject codes in discovery order (vertex ids for a plaintext sample)."""
        return tuple(self.codes.tolist())

    def alters(self, i: int) -> np.ndarray:
        """Row i's alter codes, sorted."""
        return self.alter_codes[self.alter_offsets[i]:self.alter_offsets[i + 1]]

    @property
    def recruiter_codes(self) -> list[Optional[int]]:
        """Each subject's recruiter code, None for a seed."""
        codes = self.codes.tolist()
        return [None if r < 0 else codes[r] for r in self.recruiters.tolist()]

    @cached_property
    def forest(self) -> ReferralForest:
        """The referral forest over subject codes (vertex ids for a plaintext sample).

        Defined for distinct codes; colliding hash codes make ReferralForest raise.
        """
        codes = self.codes.tolist()
        seed_row: list[int] = []
        edges = []
        for i, r in enumerate(self.recruiters.tolist()):
            seed_row.append(i if r < 0 else seed_row[r])
            if r >= 0:
                edges.append((codes[r], codes[i]))
        seeds = tuple(codes[i] for i, s in enumerate(seed_row) if s == i)
        seed_of = {codes[i]: codes[s] for i, s in enumerate(seed_row)}
        return ReferralForest(edges=tuple(edges), seeds=seeds, seed_of=seed_of)

    @cached_property
    def counts(self) -> Counts:
        return _count(self)


@dataclass(frozen=True)
class Counts:
    """Free ends R, matches M and cross-component matches X of one sample.

    A matched (subject i, code c) pair counts min(a_i(c), s(c)): a_i(c) is
    c's multiplicity among i's alters and s(c) the number of subjects coded
    c, or for X only those outside i's component.  The matched mass is also
    grouped by the degree d of the subject it lands on, so that under a
    true-match weight w the expected true mass is m(n') = sum_d C_d w(n', d).
    """

    labels: np.ndarray        # component labels, in order of first appearance
    comp_size: np.ndarray     # subjects per component
    comp_degree: np.ndarray   # summed reported degree per component
    comp_free: np.ndarray     # R per component
    matches: int              # M
    cross: np.ndarray         # X per component
    mass_degrees: np.ndarray  # the distinct subject degrees d
    match_mass: np.ndarray    # C_d behind M
    cross_mass: np.ndarray    # C_d behind X, one row per component

    @property
    def free(self) -> int:
        return int(self.comp_free.sum())


def _count(s: Sample) -> Counts:
    k = s.size
    labels, first, comp = np.unique(s.components, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    comp = np.argsort(by_first)[comp]
    n_comp = len(labels)
    row = np.repeat(np.arange(k), np.diff(s.alter_offsets))
    # rows are ascending and codes sorted within a row, so equal pairs are adjacent
    alters = s.alter_codes
    change = np.ones(len(alters), dtype=bool)
    change[1:] = (row[1:] != row[:-1]) | (alters[1:] != alters[:-1])
    starts = np.flatnonzero(change)
    mult = np.diff(np.r_[starts, len(alters)])
    pair_row, pair_code = row[starts], alters[starts]
    # look every pair's code up among the subject codes; misses match nothing
    by_code = np.argsort(s.codes, kind="stable")
    codes, code_start, code_count = np.unique(s.codes[by_code], return_index=True, return_counts=True)
    j = np.minimum(np.searchsorted(codes, pair_code), len(codes) - 1)
    hit = np.flatnonzero(codes[j] == pair_code)
    pair_row, mult, j = pair_row[hit], mult[hit], j[hit]
    # expand each matched pair over the subjects that carry its code
    reps = code_count[j]
    pair = np.repeat(np.arange(len(hit)), reps)
    within = np.arange(len(pair)) - np.repeat(np.cumsum(reps) - reps, reps)
    subject = by_code[np.repeat(code_start[j], reps) + within]
    pair_comp = comp[pair_row]
    other = comp[subject] != pair_comp[pair]
    outside = np.bincount(pair[other], minlength=len(hit))
    m_pair = np.minimum(mult, reps)
    x_pair = np.minimum(mult, outside)
    mass_degrees, degree_index = np.unique(s.degrees, return_inverse=True)
    n_deg = len(mass_degrees)
    cross_key = pair_comp[pair[other]] * n_deg + degree_index[subject[other]]
    return Counts(
        labels=labels[by_first],
        comp_size=np.bincount(comp, minlength=n_comp),
        comp_degree=np.bincount(comp, weights=s.degrees, minlength=n_comp).astype(np.int64),
        comp_free=np.bincount(comp[row], minlength=n_comp),
        matches=int(m_pair.sum()),
        cross=np.bincount(pair_comp, weights=x_pair, minlength=n_comp).astype(np.int64),
        mass_degrees=mass_degrees,
        match_mass=np.bincount(degree_index[subject], weights=m_pair[pair], minlength=n_deg),
        cross_mass=np.bincount(cross_key, weights=x_pair[pair[other]],
                               minlength=n_comp * n_deg).reshape(n_comp, n_deg),
    )


def uniform_sample(g: MultiGraph, r: int, rng: np.random.Generator) -> tuple[int, ...]:
    """A uniformly random r-subset of the vertices, without replacement."""
    if r > g.n:
        raise ValueError(f"cannot sample {r} vertices from {g.n}")
    if r == 0:
        return ()
    return tuple(int(v) for v in rng.choice(g.n, size=r, replace=False))


def _free_alters(g: MultiGraph, vertices: np.ndarray, recruiters: np.ndarray):
    """CSR (offsets, alter ids): each subject's neighbor occurrences, sorted,
    less one occurrence per referral edge at the subject."""
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


def as_sample_view(g: MultiGraph, subjects: Iterable[int]) -> Sample:
    """Wrap a uniform sample as a degenerate referral sample (all seeds, no edges).

    Every subject reports their full neighbor bag, which is what the
    uniform-sampling estimator consumes.
    """
    vertices = np.array([int(v) for v in subjects], dtype=np.int64)
    if len(np.unique(vertices)) != len(vertices):
        raise ValueError("subjects must be distinct")
    recruiters = np.full(len(vertices), -1)
    offsets, alters = _free_alters(g, vertices, recruiters)
    return Sample(codes=vertices, degrees=g.degrees()[vertices], alter_codes=alters,
                  components=np.arange(len(vertices)), recruiters=recruiters, alter_offsets=offsets)


def _draw_recruit_count(law: Sequence[tuple[int, float]], rng: np.random.Generator) -> int:
    u = rng.random()
    acc = 0.0
    for count, prob in law:
        acc += prob
        if u < acc:
            return count
    return law[-1][0]


def _draw_fresh_seed(g: MultiGraph, discovered: set[int], rng: np.random.Generator) -> int:
    """Uniform undiscovered vertex, preferring those with at least one tie.

    A seed is recruited through community contacts, so isolated vertices
    only become seeds when nothing else is left.
    """
    # rejection is cheap while the sample is small relative to the graph
    for _ in range(64):
        v = int(rng.integers(g.n))
        if v not in discovered and g.degree(v) > 0:
            return v
    tied = [v for v in range(g.n) if v not in discovered and g.degree(v) > 0]
    if tied:
        return tied[int(rng.integers(len(tied)))]
    remaining = sorted(set(range(g.n)) - discovered)
    return remaining[int(rng.integers(len(remaining)))]


def _draw_initial_seeds(g: MultiGraph, count: int, rng: np.random.Generator) -> list[int]:
    tied = np.flatnonzero(np.asarray(g.degrees()) > 0)
    if len(tied) >= count:
        return [int(v) for v in rng.choice(tied, size=count, replace=False)]
    seeds = [int(v) for v in tied]
    isolated = np.flatnonzero(np.asarray(g.degrees()) == 0)
    extra = rng.choice(isolated, size=count - len(seeds), replace=False)
    return seeds + [int(v) for v in extra]


def rds_capture(
    g: MultiGraph,
    cfg: RdsConfig,
    rng: Optional[np.random.Generator] = None,
) -> Sample:
    """Run one referral capture until the target sample size is reached.

    Recruitment picks a uniform member of the current frontier, who recruits
    up to ``k ~ recruit_law`` of their undiscovered neighbors (all of them
    when fewer are available).  When the frontier empties short of the
    target, a fresh seed is drawn uniformly from the unsampled vertices and
    opens a new referral component.  No vertex is ever recruited twice.

    Seeds are recruited through community contacts, so selection prefers
    vertices with at least one tie; isolated vertices are seeded only once
    no tied vertex remains.  Recruits always have a tie (their recruiter),
    so samples contain zero-degree subjects only in that degenerate case.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
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
    else:
        seeds = _draw_initial_seeds(g, cfg.num_seeds, rng)

    order: list[int] = list(seeds)
    discovered: set[int] = set(seeds)
    row_of: dict[int, int] = {s: i for i, s in enumerate(seeds)}
    components: list[int] = list(range(len(seeds)))
    recruiters: list[int] = [-1] * len(seeds)
    frontier: list[int] = list(seeds)
    next_component = len(seeds)

    while len(order) < r:
        if not frontier:
            fresh = _draw_fresh_seed(g, discovered, rng)
            row_of[fresh] = len(order)
            order.append(fresh)
            discovered.add(fresh)
            components.append(next_component)
            recruiters.append(-1)
            next_component += 1
            frontier.append(fresh)
            continue
        idx = int(rng.integers(len(frontier)))
        x = frontier[idx]
        frontier[idx] = frontier[-1]
        frontier.pop()

        candidates = sorted({int(w) for w in g.neighbor_ids(x)} - discovered)
        if candidates:
            k = min(_draw_recruit_count(cfg.recruit_law, rng), len(candidates))
            if k == len(candidates):
                recruits = candidates
            elif k == 1:
                recruits = [candidates[int(rng.integers(len(candidates)))]]
            elif k == 2:
                m = len(candidates)
                i = int(rng.integers(m))
                j = int(rng.integers(m - 1))
                if j >= i:
                    j += 1
                recruits = [candidates[i], candidates[j]]
            else:
                picks = rng.choice(len(candidates), size=k, replace=False)
                recruits = [candidates[int(i)] for i in picks]
            x_row = row_of[x]
            for v in recruits:
                row_of[v] = len(order)
                order.append(v)
                discovered.add(v)
                components.append(components[x_row])
                recruiters.append(x_row)
                frontier.append(v)

    vertices = np.array(order, dtype=np.int64)
    rec = np.array(recruiters, dtype=np.int64)
    offsets, alters = _free_alters(g, vertices, rec)
    return Sample(codes=vertices, degrees=g.degrees()[vertices], alter_codes=alters,
                  components=components, recruiters=rec, alter_offsets=offsets)


# ---------------------------------------------------------------------------
# sample dumps: one CSV layout shared by simulated, hashed, and field data

DUMP_COLUMNS = ("subject_code", "recruiter_code", "component_id", "reported_degree", "alter_codes")
SEED_MARK = "SEED"


def sample_to_rows(sample: Sample) -> Sample:
    """The sample itself: a ``Sample`` is already the dump's row layout.

    Kept because ``perfbench/workloads.py`` calls it.
    """
    return sample


def rows_to_sample(rows: Sample) -> Sample:
    """``rows`` as a plaintext sample; rejects duplicate subject codes.

    ``perfbench/workloads.py`` and the CLI call it on dumps read back.
    """
    if len(np.unique(rows.codes)) != rows.size:
        raise ValueError("duplicate subject ids; hashed dumps cannot be read as plaintext")
    return rows


def sample_dump_lines(sample: Sample, header_comment: str | None = None) -> list[str]:
    lines = [f"# {header_comment}"] if header_comment else []
    lines.append(",".join(DUMP_COLUMNS))
    alters = [str(code) for code in sample.alter_codes.tolist()]
    bounds = sample.alter_offsets.tolist()
    columns = zip(sample.codes.tolist(), sample.recruiter_codes, sample.components.tolist(),
                  sample.degrees.tolist(), bounds, bounds[1:])
    for code, recruiter, comp, degree, lo, hi in columns:
        recruiter = SEED_MARK if recruiter is None else recruiter
        lines.append(f"{code},{recruiter},{comp},{degree},{';'.join(alters[lo:hi])}")
    return lines


def write_sample_dump(sample: Sample, path, header_comment: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(sample_dump_lines(sample, header_comment)) + "\n")


def read_sample_dump(path) -> Sample:
    """Read a sample dump; a malformed row fails with a ``path:line`` message.

    Every field must be an integer (or ``SEED``), the reported degree must be
    non-negative and at least the alter count, and a recruiter code must be
    the subject code of an earlier row in the same component.
    """
    codes, recruiters, components, degrees, alters, offsets = [], [], [], [], [], [0]
    row_of: dict[tuple[int, int], int] = {}  # (component, code) -> latest row
    header = None
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            record = line.rstrip("\r\n").split(",")
            if header is None:
                header = record
                if [c.strip() for c in header] != list(DUMP_COLUMNS):
                    raise ValueError(f"{path}: unexpected dump columns {header}")
                continue
            where = f"{path}:{lineno}"
            if len(record) != len(DUMP_COLUMNS):
                raise ValueError(f"{where}: expected {len(DUMP_COLUMNS)} fields")
            try:
                code, comp, degree = int(record[0]), int(record[2]), int(record[3])
                recruiter = None if record[1] == SEED_MARK else int(record[1])
                bag = [int(tok) for tok in record[4].split(";") if tok != ""]
            except ValueError:
                raise ValueError(f"{where}: non-integer field in {line.strip()!r}") from None
            if degree < 0:
                raise ValueError(f"{where}: negative reported degree {degree}")
            if len(bag) > degree:
                raise ValueError(f"{where}: {len(bag)} alter codes exceed the reported degree {degree}")
            if recruiter is not None and (comp, recruiter) not in row_of:
                raise ValueError(f"{where}: recruiter {recruiter} is not an earlier subject "
                                 f"of component {comp}")
            recruiters.append(-1 if recruiter is None else row_of[comp, recruiter])
            row_of[comp, code] = len(codes)
            codes.append(code)
            components.append(comp)
            degrees.append(degree)
            alters.extend(bag)
            offsets.append(len(alters))
    if header is None:
        raise ValueError(f"{path}: empty sample dump")
    return Sample(codes=codes, degrees=degrees, alter_codes=alters, components=components,
                  recruiters=recruiters, alter_offsets=offsets)
