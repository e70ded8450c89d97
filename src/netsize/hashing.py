"""Anonymity-preserving estimation via random identity hashing.

Subjects reveal only hash codes: their own, their alters', and their degree.
A many-to-one code space produces false matches; the expected true-match
mass among observed code matches, as a function of a hypothesized
population size, corrects for them.  The corrected estimators are the
fixed points of that correction, found by bracketed bisection (the
correction is monotone, so the bracket contains at most one root).

Includes the phone-digit codec: each of the last k digits of a phone
number contributes a (parity, low/high) bit pair, giving a 2k-bit code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .estimators import EstimateResult, Weight, _solve_n2, _solve_n3
from .graph import harmonic_mean
from .sampling import Sample


class HashMode(Enum):
    RANDOM_FUNCTION = "random"
    INJECTIVE = "injective"
    TELEFUNKEN = "telefunken"


@dataclass(frozen=True)
class HashSpace:
    """A code space and the rule for assigning codes to identities."""

    size: int
    mode: HashMode = HashMode.RANDOM_FUNCTION
    telefunken_digits: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("hash space must contain at least one code")
        if self.mode is HashMode.TELEFUNKEN:
            k = self.telefunken_digits
            if k < 1 or self.size != 4**k:
                raise ValueError("telefunken mode needs size == 4**digits")


def telefunken_encode(digits: str, k: int) -> int:
    """Encode the last k digits (last to first) as parity/low-high bit pairs."""
    if k < 1:
        raise ValueError("need at least one digit")
    if len(digits) < k:
        raise ValueError(f"need at least {k} digits, got {len(digits)!r}")
    tail = digits[-k:]
    if not tail.isdigit():
        raise ValueError(f"non-digit characters in {tail!r}")
    code = 0
    for ch in reversed(tail):
        d = ord(ch) - ord("0")
        code = (code << 2) | ((d & 1) << 1) | (1 if d >= 5 else 0)
    return code


def assign_hashes(n: int, space: HashSpace, rng: np.random.Generator) -> np.ndarray:
    """Assign one code per identity 0..n-1 under the space's rule."""
    if space.mode is HashMode.RANDOM_FUNCTION:
        return rng.integers(0, space.size, size=n, dtype=np.int64)
    if space.mode is HashMode.INJECTIVE:
        if space.size < n:
            raise ValueError(f"injective assignment impossible: {n} ids, {space.size} codes")
        # sparse Fisher-Yates: the first n entries of a uniform permutation
        state: dict[int, int] = {}
        out = np.empty(n, dtype=np.int64)
        for i in range(n):
            j = int(rng.integers(i, space.size))
            out[i] = state.get(j, j)
            state[j] = state.get(i, i)
        return out
    if space.mode is HashMode.TELEFUNKEN:
        k = space.telefunken_digits
        digits = rng.integers(0, 10, size=(n, k))
        codes = np.zeros(n, dtype=np.int64)
        for col in range(k - 1, -1, -1):  # last digit ends up most significant
            d = digits[:, col]
            codes = (codes << 2) | ((d & 1) << 1) | (d >= 5)
        return codes
    raise ValueError(f"unknown hash mode {space.mode}")  # pragma: no cover


# The hashed view of a sample is a ``Sample`` whose codes are hash codes.
HashedSample = Sample


def hashed_view(sample: Sample, assignment: np.ndarray) -> Sample:
    """Map every code column of a sample through a code assignment.

    The assignment must cover every subject and every reported alter.
    """
    assignment = np.asarray(assignment)
    for column in (sample.codes, sample.alter_codes):
        missing = column[(column < 0) | (column >= len(assignment))]
        if len(missing):
            raise ValueError(f"identity {missing[0]} has no assigned code")
    return replace(sample, codes=assignment[sample.codes], alter_codes=assignment[sample.alter_codes])


def collision_prob(n_prime: float, omega: int, d_tilde_s: float, d_w):
    """Probability that a code match against a sampled subject is the true alter.

    ``d_w`` is one subject degree or an array of them.  Degree-1 subjects
    have no free ends, so they can never be the match (the formula's limit
    as d_w -> 1).
    """
    _check_omega(omega)
    d_w = np.asarray(d_w, dtype=float)
    live = d_w > 1
    prob = np.zeros(d_w.shape)
    prob[live] = 1.0 / ((n_prime - 1.0) / omega * d_tilde_s / (d_w[live] - 1.0) + 1.0)
    return prob if prob.ndim else float(prob)


def _check_omega(omega: int) -> None:
    if omega < 1:
        raise ValueError(f"the code space size omega must be at least 1, got {omega}")


def _collision_weight(omega: int) -> Weight:
    _check_omega(omega)
    return lambda n_prime, d_tilde_s, degrees: collision_prob(n_prime, omega, d_tilde_s, degrees)


def _true_mass(hs: Sample, mass: np.ndarray, n_prime: float, omega: int) -> float:
    d_tilde = harmonic_mean(hs.degrees.tolist())
    return float(mass @ collision_prob(n_prime, omega, d_tilde, hs.counts.mass_degrees))


def m_hat(hs: Sample, n_prime: float, omega: int) -> float:
    """Expected true-match mass among all observed code matches."""
    return _true_mass(hs, hs.counts.match_mass, n_prime, omega)


def x_hat(hs: Sample, component_label: int, n_prime: float, omega: int) -> float:
    """Expected true cross-component match mass for one referral component."""
    index = np.flatnonzero(hs.counts.labels == component_label)
    if not len(index):
        raise ValueError(f"no referral component labelled {component_label}")
    return _true_mass(hs, hs.counts.cross_mass[index[0]], n_prime, omega)


def estimate_n2_hashed(hs: Sample, omega: int) -> EstimateResult:
    """Collision-corrected referral estimator on hashed data.

    Solves n' = [(d(S)-1)/d~(S)] * |S| * <R> / m_hat(n').
    """
    return _solve_n2(hs, _collision_weight(omega))


def estimate_n3_hashed(hs: Sample, omega: int) -> EstimateResult:
    """Collision-corrected cross-component estimator on hashed data."""
    return _solve_n3(hs, _collision_weight(omega))


# ---------------------------------------------------------------------------
# dump adapters (same CSV layout as plaintext samples)

def hashed_to_rows(hs: Sample, recruiter_codes: Sequence[Optional[int]] | None = None) -> Sample:
    """The hashed sample itself, ready for ``write_sample_dump``.

    Kept because ``perfbench/workloads.py`` calls it; ``recruiter_codes``, when
    given, must agree with the sample's own recruiter column.
    """
    if recruiter_codes is not None and list(recruiter_codes) != hs.recruiter_codes:
        raise ValueError("recruiter codes disagree with the sample's recruiters")
    return hs


def rows_to_hashed(rows: Sample) -> Sample:
    """The sample itself; kept because ``perfbench/workloads.py`` calls it."""
    return rows
