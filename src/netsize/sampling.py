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

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .graph import (INT64_MAX, INT64_MIN, Edge, MultiGraph, check_int, degree_sums_fit, flat_ids, is_int,
                    lookup, pick, uniforms, unique_inverse)
from .ingest import comment_lines, open_written, read_lines

DEFAULT_RECRUIT_LAW = ((2, 0.9), (1, 0.1))


@dataclass(frozen=True)
class RdsConfig:
    """Parameters of one referral capture."""

    target_size: int
    num_seeds: int = 7
    recruit_law: tuple[tuple[int, float], ...] = DEFAULT_RECRUIT_LAW
    seeds: Optional[tuple[int, ...]] = None  # explicit seed vertices (testing/repro)

    def __post_init__(self):
        for name in ("target_size", "num_seeds"):
            check_int(getattr(self, name), name)
        if self.target_size < 1:
            raise ValueError("target size must be >= 1")
        if not 1 <= self.num_seeds <= self.target_size:
            raise ValueError(f"need between 1 and {self.target_size} seeds for {self.target_size} subjects, "
                             f"got {self.num_seeds}")
        if not self.recruit_law:
            raise ValueError("recruit law must have at least one outcome")
        if not all(0 <= p <= 1 for _, p in self.recruit_law):  # NaN fails too
            raise ValueError(f"recruit law probabilities must lie in [0, 1], got {self.recruit_law}")
        total = sum(p for _, p in self.recruit_law)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"recruit law probabilities sum to {total}, not 1")
        if not all(is_int(k) and k >= 0 for k, _ in self.recruit_law):
            raise ValueError(f"recruit counts must be integers >= 0, got {self.recruit_law}")
        if self.seeds is not None:  # stored converted, so a one-shot iterable is read once
            object.__setattr__(self, "seeds", tuple(flat_ids(self.seeds, "explicit seeds").tolist()))
            if len(set(self.seeds)) != len(self.seeds):
                raise ValueError("explicit seeds must be distinct")
            if len(self.seeds) != self.num_seeds:
                raise ValueError("explicit seeds must match num_seeds")
            if min(self.seeds) < 0:
                raise ValueError(f"seed {min(self.seeds)} out of range")


@dataclass(frozen=True)
class ReferralForest:
    """Who recruited whom in a sample, over its subject codes, as ``Sample.forest`` builds it."""

    edges: tuple[Edge, ...]          # (recruiter, recruit) pairs, in the recruits' row order
    seeds: tuple[int, ...]
    seed_of: dict[int, int] = field(compare=False)


@dataclass(frozen=True, eq=False, kw_only=True)
class Sample:
    """A captured sample as columns: everything the estimators may see.

    Row i is the i-th subject in discovery order.  ``recruiters[i]`` is the
    row of subject i's recruiter, an earlier row of the same component, or
    -1 for a seed (the default for every row).  Row i's alter codes are
    ``alter_codes[alter_offsets[i]:alter_offsets[i + 1]]``, which construction
    sorts: ``alter_codes`` is flat, and ``alter_offsets`` (k + 1 of them) is required.
    Each column must be a flat sequence of ints: a float, a bool or a nested column is
    rejected, never truncated.  As in a dump, a reported degree is non-negative and at
    least its row's alter count, and the reported degrees sum to at most 2**63 - 1.
    """

    codes: np.ndarray
    degrees: np.ndarray
    alter_codes: np.ndarray
    components: np.ndarray
    recruiters: Optional[np.ndarray] = None
    alter_offsets: np.ndarray

    def __post_init__(self):
        k = len(self.codes)
        columns = {
            "codes": self.codes, "degrees": self.degrees, "components": self.components,
            "recruiters": np.full(k, -1) if self.recruiters is None else self.recruiters,
            "alter_offsets": self.alter_offsets, "alter_codes": self.alter_codes,
        }
        for name, column in columns.items():
            object.__setattr__(self, name, flat_ids(column, name))
        degrees, offsets, alters = self.degrees, self.alter_offsets, self.alter_codes
        if not len(degrees) == len(self.components) == len(self.recruiters) == k:
            raise ValueError("per-subject columns must have equal length")
        # neighbors are compared, not subtracted: a difference of int64 values can wrap
        if len(offsets) != k + 1 or offsets[0] != 0 or offsets[-1] != len(alters) \
                or (offsets[1:] < offsets[:-1]).any():
            raise ValueError("alter offsets must run from 0 to the alter count, one per subject")
        # the dump reader's rules and wording
        sizes = offsets[1:] - offsets[:-1]
        faults = (sizes > degrees).nonzero()[0]  # every negative degree among them
        if len(faults):
            i = faults[0]
            if degrees[i] < 0:
                raise ValueError(f"negative reported degree {degrees[i]}")
            raise ValueError(f"{sizes[i]} alter codes exceed the reported degree {degrees[i]}")
        if not degree_sums_fit(degrees):
            raise ValueError("the reported degrees sum past the 64-bit range")
        falls = alters[1:] < alters[:-1]
        if falls.any():  # only then can a row be unsorted
            row = np.repeat(np.arange(k), sizes)
            if (falls & (row[1:] == row[:-1])).any():
                object.__setattr__(self, "alter_codes", _sort_within_rows(alters, row))
        recruit = (self.recruiters >= 0).nonzero()[0]
        rec = self.recruiters[recruit]
        if (self.recruiters < -1).any() or (rec >= recruit).any() \
                or (self.components[rec] != self.components[recruit]).any():
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

    @property
    def forest(self) -> ReferralForest:
        """The referral forest over subject codes (vertex ids for a plaintext sample).

        Built on each read, as it weighs about as much as the columns: hold it to reuse it.
        A forest over codes needs distinct codes: when two subjects share one (hash codes
        may collide), this raises ``ValueError``.
        """
        if _has_duplicates(self.codes):
            raise ValueError("the referral forest needs distinct subject codes")
        codes, recruiters = self.codes.tolist(), self.recruiters.tolist()
        seed_of: dict[int, int] = {}
        for code, r in zip(codes, recruiters):  # a recruiter's row comes first
            seed_of[code] = code if r < 0 else seed_of[codes[r]]
        edges = tuple((codes[r], codes[i]) for i, r in enumerate(recruiters) if r >= 0)
        seeds = tuple(code for code, r in zip(codes, recruiters) if r < 0)
        return ReferralForest(edges=edges, seeds=seeds, seed_of=seed_of)

    @cached_property
    def counts(self) -> Counts:
        return _count(self)


def _sort_within_rows(values: np.ndarray, row: np.ndarray) -> np.ndarray:
    """``values`` sorted within each run of equal ``row`` (non-negative,
    ascending rows): the values of ``values[np.lexsort((values, row))]``, from one plain sort.

    One sort of the keys ``row * span + (value - low)`` orders rows, then
    values, where the values span ``span`` from ``low``.  Where such a key
    could pass int64, each value is replaced by its rank among the distinct
    values, which keeps the key below the row count times the value count.
    """
    if not len(values):
        return values.copy()
    low = int(values.min())
    span = int(values.max()) - low + 1
    distinct = None
    if (int(row[-1]) + 1) * span >= 1 << 63:  # a key or the span itself could pass int64
        distinct, values = np.unique(values, return_inverse=True)
        low, span = 0, len(distinct)
    shift = row * span
    key = np.sort(shift + (values - low)) - shift + low
    return key if distinct is None else distinct[key]


def _has_duplicates(values: np.ndarray) -> bool:
    """Whether two of ``values`` are equal, by a sort (``np.unique`` without arguments hashes, which is slower)."""
    ascending = np.sort(values)
    return bool((ascending[1:] == ascending[:-1]).any())


@dataclass(frozen=True)
class Counts:
    """Free ends R, matches M and cross-component matches X of one sample.

    A matched (subject i, code c) pair counts min(a_i(c), s(c)): a_i(c) is
    c's multiplicity among i's alters and s(c) the number of subjects coded
    c, or for X only those outside i's component.  The matched mass is also
    grouped by the degree d of the subject it lands on, so that with a
    true-match chance w the expected true mass is m(n') = sum_d C_d w(n', d).
    With the mean reported degrees it is the one record every estimator reads.
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
    harmonic_degree: Optional[float]  # d~, None unless every reported degree is positive

    @property
    def free(self) -> int:
        return int(self.comp_free.sum())

    @property
    def mean_degree(self) -> float:
        return int(self.comp_degree.sum()) / int(self.comp_size.sum())


def _count(s: Sample) -> Counts:
    k = s.size
    labels, comp = _first_appearance(s.components)
    n_comp = len(labels)
    offsets, alters = s.alter_offsets, s.alter_codes
    row = np.repeat(np.arange(k), offsets[1:] - offsets[:-1])
    # rows are ascending and codes sorted within a row, so equal pairs are adjacent
    starts, mult = _runs(row, alters)
    pair_row, pair_code = row[starts], alters[starts]
    # look every pair's code up among the subject codes; misses match nothing
    by_code = np.argsort(s.codes, kind="stable")
    ordered = s.codes[by_code]
    code_start, code_count = _runs(ordered)
    codes = ordered[code_start]
    j = lookup(codes, pair_code)
    hit = (codes[j] == pair_code).nonzero()[0]
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
    mass_degrees, degree_index = unique_inverse(s.degrees)
    comp_degree = np.zeros(n_comp, dtype=np.int64)
    np.add.at(comp_degree, comp, s.degrees)  # exact, where float bincount weights round past 2**53
    n_deg = len(mass_degrees)
    cross_key = pair_comp[pair[other]] * n_deg + degree_index[subject[other]]
    return Counts(
        labels=labels,
        comp_size=np.bincount(comp, minlength=n_comp),
        comp_degree=comp_degree,
        comp_free=np.bincount(comp[row], minlength=n_comp),
        matches=int(m_pair.sum()),
        cross=np.bincount(pair_comp, weights=x_pair, minlength=n_comp).astype(np.int64),
        mass_degrees=mass_degrees,
        match_mass=np.bincount(degree_index[subject], weights=m_pair[pair], minlength=n_deg),
        cross_mass=np.bincount(cross_key, weights=x_pair[pair[other]],
                               minlength=n_comp * n_deg).reshape(n_comp, n_deg),
        # added in row order, as graph.harmonic_mean does
        harmonic_degree=float(k / np.cumsum(1.0 / s.degrees)[-1]) if k and s.degrees.min() > 0 else None,
    )


def _runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of entries equal in every one of ``keys`` starts, and its length."""
    total = len(keys[0])
    opens = np.zeros(total, dtype=bool)
    opens[:1] = True
    for key in keys:
        opens[1:] |= key[1:] != key[:-1]
    starts = opens.nonzero()[0]
    lengths = np.empty_like(starts)
    lengths[:-1] = starts[1:] - starts[:-1]
    lengths[-1:] = total - starts[-1:]
    return starts, lengths


def _first_appearance(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``labels`` in order of first appearance, and each label's index among them.

    Labels that already run 0, 1, 2, ... in that order (every capture, uniform
    view and written dump) are their own indices: each is non-negative and at
    most one above every label before it.  Others are ranked by ``np.unique``.
    """
    if len(labels) and labels[0] == 0 and labels.min() >= 0:
        top = np.maximum.accumulate(labels)
        if (labels[1:] <= top[:-1] + 1).all():
            return np.arange(int(top[-1]) + 1, dtype=labels.dtype), labels
    distinct, first, index = np.unique(labels, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    return distinct[by_first], np.argsort(by_first)[index]


def uniform_sample(g: MultiGraph, r: int, rng: np.random.Generator) -> tuple[int, ...]:
    """A uniformly random r-subset of the vertices, without replacement."""
    check_int(r, "sample size")
    if not 0 <= r <= g.n:
        raise ValueError(f"cannot sample {r} vertices from {g.n}")
    return tuple(rng.choice(g.n, size=r, replace=False).tolist())


def _plaintext_sample(g: MultiGraph, vertices: np.ndarray, components, recruiters: np.ndarray) -> Sample:
    """The sample of ``vertices`` in discovery order.  Each subject's alters are its neighbor
    occurrences less one per referral edge at it; ``g``'s rows are sorted, so the keys
    ``row * n + target`` ascend.  The referral keys are distinct and each occurs in ``keys``
    (a row's recruits are distinct, and its recruiter was discovered before any of them), so
    one lookup of the sorted referral keys finds each to drop, and each row's offset moves
    back by the referral edges at the rows before it."""
    offsets, targets = g.neighbor_lists(vertices)
    keys = np.repeat(np.arange(len(vertices)), offsets[1:] - offsets[:-1]) * g.n + targets
    recruit = (recruiters >= 0).nonzero()[0]
    rec = recruiters[recruit]
    used = np.concatenate((rec * g.n + vertices[recruit], recruit * g.n + vertices[rec]))
    keep = np.ones(len(keys), dtype=bool)
    keep[np.searchsorted(keys, np.sort(used))] = False
    dropped = np.zeros(len(offsets), dtype=np.int64)
    np.cumsum(np.bincount(np.concatenate((rec, recruit)), minlength=len(vertices)), out=dropped[1:])
    return Sample(codes=vertices, degrees=g.degrees()[vertices], alter_codes=targets[keep],
                  components=components, recruiters=recruiters, alter_offsets=offsets - dropped)


def as_sample_view(g: MultiGraph, subjects: Iterable[int]) -> Sample:
    """Wrap a uniform sample as a degenerate referral sample (all seeds, no edges).

    Every subject reports their full neighbor bag, which is what the
    uniform-sampling estimator consumes.
    """
    vertices = flat_ids(subjects, "subjects")
    if _has_duplicates(vertices):
        raise ValueError("subjects must be distinct")
    return _plaintext_sample(g, vertices, np.arange(len(vertices)), np.full(len(vertices), -1))


def _draw_recruit_count(law: Sequence[tuple[int, float]], u: float) -> int:
    """The recruit count that the uniform ``u`` selects from ``law``."""
    acc = 0.0
    for count, prob in law:
        acc += prob
        if u < acc:
            return count
    return law[-1][0]


def _draw_fresh_seed(g: MultiGraph, row_of: list[int], draw: Callable[[], float]) -> int:
    """The seed rule: a uniform undiscovered vertex (``row_of[v] < 0``) with at least one tie.

    A seed is recruited through community contacts, so isolated vertices
    only become seeds, uniformly, once no tied vertex is left.
    """
    # rejection is cheap while the sample is small relative to the graph
    for _ in range(64):
        v = int(draw() * g.n)
        if row_of[v] < 0 and g.degree(v) > 0:
            return v
    undiscovered = np.asarray(row_of) < 0
    tied = np.flatnonzero(undiscovered & (g.degrees() > 0))
    if len(tied):
        return int(tied[int(draw() * len(tied))])
    remaining = np.flatnonzero(undiscovered)
    return int(remaining[int(draw() * len(remaining))])


def rds_capture(g: MultiGraph, cfg: RdsConfig, rng: np.random.Generator) -> Sample:
    """Run one referral capture until the target sample size is reached.

    Recruitment picks a uniform member of the current frontier, who recruits
    a uniform subset of ``k ~ recruit_law`` of their undiscovered neighbors
    (all of them when fewer are available).  No vertex is ever recruited twice.
    The initial seeds, unless ``cfg.seeds`` gives them, and a fresh seed each
    time the frontier empties short of the target, opening a new referral
    component, all follow the one seed rule of ``_draw_fresh_seed``.  Recruits
    always have a tie (their recruiter), so samples contain zero-degree
    subjects only when no tied vertex is left to seed.
    """
    n = g.n
    r = cfg.target_size
    if r > n:
        raise ValueError(f"target size {r} exceeds population {n}")

    if cfg.seeds is not None and max(cfg.seeds) >= n:
        raise ValueError(f"seed {max(cfg.seeds)} out of range")
    draw = uniforms(rng).__next__  # every pick, seeds included, reads the generator through blocks

    row_of: list[int] = [-1] * n  # each vertex's row, -1 while undiscovered
    order: list[int] = []
    components: list[int] = []
    recruiters: list[int] = []  # the recruiter's row; -1 marks a seed, which opens a new component
    frontier: list[int] = []
    new_component = itertools.count()
    law = cfg.recruit_law
    offsets, targets = map(memoryview, g.adjacency)  # indexed as Python ints, not numpy scalars

    def enroll_seed(v: int) -> None:
        row_of[v] = len(order)
        order.append(v)
        components.append(next(new_component))
        recruiters.append(-1)
        frontier.append(v)

    if cfg.seeds is not None:
        for v in cfg.seeds:
            enroll_seed(v)
    else:
        for _ in range(cfg.num_seeds):
            enroll_seed(_draw_fresh_seed(g, row_of, draw))

    while len(order) < r:
        if not frontier:
            enroll_seed(_draw_fresh_seed(g, row_of, draw))
            continue
        idx = int(draw() * len(frontier))
        x = frontier[idx]
        frontier[idx] = frontier[-1]
        frontier.pop()

        # x's row is sorted, so a repeated neighbor follows its first occurrence
        candidates = []
        prev = -1
        for w in targets[offsets[x]:offsets[x + 1]].tolist():
            if w != prev and row_of[w] < 0:
                candidates.append(w)
            prev = w
        if candidates:
            m = len(candidates)
            k = min(_draw_recruit_count(law, draw()), m)
            if k < m:
                candidates = pick(candidates, k, draw)
            recruiter = row_of[x]
            component = components[recruiter]
            for v in candidates:
                row_of[v] = len(order)
                order.append(v)
                components.append(component)
                recruiters.append(recruiter)
                frontier.append(v)

    return _plaintext_sample(g, np.array(order, dtype=np.int64), np.array(components, dtype=np.int64),
                             np.array(recruiters, dtype=np.int64))


# ---------------------------------------------------------------------------
# sample dumps: one CSV layout shared by simulated, hashed, and field data

DUMP_COLUMNS = ("subject_code", "recruiter_code", "component_id", "reported_degree", "alter_codes")
SEED_MARK = "SEED"


def sample_to_rows(sample: Sample) -> Sample:
    """The sample itself, already the dump's row layout; ``perfbench/workloads.py`` calls it."""
    return sample


def rows_to_sample(rows: Sample) -> Sample:
    """``rows`` as a plaintext sample, without duplicate subject codes; the
    CLI and ``perfbench/workloads.py`` call it on dumps read back."""
    if _has_duplicates(rows.codes):
        raise ValueError("duplicate subject ids; hashed dumps cannot be read as plaintext")
    return rows


def sample_dump_lines(sample: Sample, header_comment: str | None = None) -> list[str]:
    lines = comment_lines(header_comment) if header_comment else []
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
    with open_written(path) as fh:
        fh.write("\n".join(sample_dump_lines(sample, header_comment)) + "\n")


def read_sample_dump(path) -> Sample:
    """Read a sample dump; a malformed row fails with a ``path:line`` message.

    Every field must be a signed 64-bit integer (or ``SEED``), the reported
    degree must be non-negative and at least the alter count, the reported
    degrees must sum to at most 2**63 - 1, and a recruiter code must be the
    subject code of an earlier row in the same component.
    A dump in the writer's non-negative form (every capture and view netsize
    makes) is parsed in numpy; negative values, any other text, and every
    malformed row go through the line scan.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    sample = _parse_dump(data)
    return _scan_sample_dump(data, path) if sample is None else sample


_HEADER = ",".join(DUMP_COLUMNS).encode()
_SEED_FIELD = f",{SEED_MARK},".encode()
_COMMA, _SEMI, _NEWLINE, _ZERO = b",;\n0"
_MAX_DIGITS = 18  # any 18-digit value fits in int64


def _parse_dump(data: bytes) -> Optional[Sample]:
    """The sample in ``data``, or None unless every row is in the writer's grammar.

    The grammar: UTF-8 ``#`` lines, the exact header, then rows of ``[0-9]{1,18}``
    fields (``SEED`` for a seed's recruiter) with ``;``-joined alters, each row
    ending in a bare ``\n``, whose recruiters link and which ``Sample`` accepts.
    Anything else, valid or not, is left to the line scan, which also words
    every error.
    """
    if b"\r" in data:
        return None
    start = 0
    while data.startswith(b"#", start):
        start = data.find(b"\n", start) + 1
        if start == 0:
            return None
    if not data.startswith(_HEADER + b"\n", start):
        return None
    body = data[start + len(_HEADER) + 1:]
    if not body.endswith(b"\n"):
        return None
    swapped = body.replace(_SEED_FIELD, b",,")  # an empty recruiter field now means SEED
    seeds = (len(body) - len(swapped)) // (len(_SEED_FIELD) - 2)
    buf = np.frombuffer(swapped, dtype=np.uint8)
    value = buf - np.uint8(_ZERO)  # a digit's value; every other byte wraps to 10 or more
    sep = buf == _COMMA
    sep |= buf == _SEMI
    sep |= buf == _NEWLINE
    # each field is a token that ends at a separator; row i's fields are tokens first[i] + 0..3
    ends = sep.nonzero()[0]
    if len(ends) + np.count_nonzero(value < 10) != len(buf):
        return None  # a byte that is no separator or digit
    starts = _starts_after(ends)
    kind = buf[ends]
    last = (kind == _NEWLINE).nonzero()[0]
    first = _starts_after(last)
    if (last - first < 4).any():
        return None
    fields = first + np.arange(4)[:, None]
    if np.count_nonzero(kind == _COMMA) != fields.size or (kind[fields] != _COMMA).any():
        return None
    digits = ends - starts
    width = int(digits.max())
    if width > _MAX_DIGITS or (digits[fields[[0, 2, 3]]] == 0).any():
        return None
    recruited = digits[fields[1]] > 0
    if len(recruited) - np.count_nonzero(recruited) != seeds:  # an empty field that held no SEED
        return None
    # row j holds every token's j-th digit from the right, 0 past its first digit
    place = np.arange(width)[:, None]
    by_place = value[ends - 1 - place]
    by_place *= place < digits
    values = by_place[-1].astype(np.int64)
    for p in range(width - 2, -1, -1):  # Horner, from the most significant place down
        values *= 10
        values += by_place[p]
    alter = digits > 0
    alter[fields] = False
    offsets = np.zeros(len(last) + 1, dtype=np.int64)
    offsets[1:] = alter.cumsum()[last]
    codes, recruiter_codes, components, degrees = values[fields]
    try:  # the comments must decode, the recruiters link and Sample accept the degrees; the scan words why not
        data[:start].decode("utf-8")
        recruiters = _link_recruiters(codes, components, recruiter_codes, recruited)
        return Sample(codes=codes, degrees=degrees, alter_codes=values[alter], components=components,
                      recruiters=recruiters, alter_offsets=offsets)
    except ValueError:
        return None


def _starts_after(ends: np.ndarray) -> np.ndarray:
    """Where each token opens: 0, then one past each ``ends`` but the last."""
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    return starts


def _link_recruiters(codes, components, recruiter_codes, recruited) -> np.ndarray:
    """Row of each recruiter: the latest earlier row of the same component
    with that subject code (-1 for a seed); ``ValueError`` if one has no such row."""
    k = len(codes)
    query = recruited.nonzero()[0]
    # one entry per subject and per recruiter; at equal rows a query sorts
    # before the row's own subject, so it only sees strictly earlier rows
    comp = np.concatenate((components, components[query]))
    code = np.concatenate((codes, recruiter_codes[query]))
    when = np.concatenate((2 * np.arange(k) + 1, 2 * query))
    order = np.lexsort((when, code, comp))
    at = (order >= k).nonzero()[0]
    latest = np.arange(len(order))
    latest[at] = -1
    latest = np.maximum.accumulate(latest)
    found, asked = order[latest[at]], order[at]
    if not ((latest[at] >= 0) & (comp[found] == comp[asked]) & (code[found] == code[asked])).all():
        raise ValueError("a recruiter is not an earlier subject of its component")
    recruiters = np.full(k, -1)
    recruiters[query[asked - k]] = found
    return recruiters


def _scan_sample_dump(data: bytes, path) -> Sample:
    """The line-by-line reader of the sample in ``data``, read from ``path``:
    the reference for ``_parse_dump`` and the source of every error message."""
    codes, recruiters, components, degrees, alters, offsets = [], [], [], [], [], [0]
    total = 0  # of the reported degrees so far
    row_of: dict[tuple[int, int], int] = {}  # (component, code) -> latest row
    header = None
    for lineno, line in enumerate(read_lines(data, path), start=1):
        if line.startswith("#") or not line.strip():
            continue
        record = line.split(",")
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
        fields = [("subject code", code), ("component id", comp), ("reported degree", degree)]
        for name, value in fields + [("alter code", c) for c in bag]:
            if not INT64_MIN <= value <= INT64_MAX:
                raise ValueError(f"{where}: {name} {value} out of the 64-bit range")
        if degree < 0:
            raise ValueError(f"{where}: negative reported degree {degree}")
        if len(bag) > degree:
            raise ValueError(f"{where}: {len(bag)} alter codes exceed the reported degree {degree}")
        total += degree
        if total > INT64_MAX:
            raise ValueError(f"{where}: the reported degrees sum past the 64-bit range")
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
