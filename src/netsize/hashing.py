"""Anonymity-preserving estimation via random identity hashing: code assignment.

Subjects reveal only hash codes: their own, their alters', and their degree.
This module owns the code spaces, the code assignment and the hashed view
of a sample.  A many-to-one code space produces false matches; their
correction (``collision_prob``, ``m_hat``, ``x_hat`` and the ψ entry points)
is estimator math and lives in ``estimators``.  Only the ψ entry points
``estimate_n2_hashed``/``estimate_n3_hashed`` are still re-exported here,
because ``perfbench/workloads.py`` calls them through this module.

Includes the phone-digit codec: each of the last k digits of a phone
number contributes a (parity, low/high) bit pair, giving a 2k-bit code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .estimators import estimate_n2_hashed, estimate_n3_hashed  # noqa: F401  perfbench calls them here
from .graph import is_int
from .sampling import Sample


class HashMode(Enum):
    RANDOM_FUNCTION = "random"
    INJECTIVE = "injective"
    TELEFUNKEN = "telefunken"


@dataclass(frozen=True)
class HashSpace:
    """A code space and the rule for assigning codes to identities (a ``HashMode`` or its plan name)."""

    size: int
    mode: HashMode = HashMode.RANDOM_FUNCTION

    def __post_init__(self):
        object.__setattr__(self, "mode", HashMode(self.mode))
        if not is_int(self.size):
            raise ValueError(f"hash space size must be an integer, got {self.size!r}")
        if self.size < 1:
            raise ValueError(f"hash space must contain at least one code, got {self.size}")
        if self.size > 2**63:  # every code in [0, size) is an int64
            raise ValueError(f"hash space must contain at most 2**63 codes, got {self.size}")
        if self.mode is HashMode.TELEFUNKEN:
            k = self.telefunken_digits
            if k < 1 or self.size != 4**k:
                raise ValueError("telefunken mode needs size == 4**digits")

    @property
    def telefunken_digits(self) -> int:
        """floor(log4(size)): a telefunken space of size 4**k codes the last k phone digits."""
        return (int(self.size).bit_length() - 1) // 2


def telefunken_encode(digits: str, k: int) -> int:
    """Encode the last k digits (last to first) as parity/low-high bit pairs."""
    if not 1 <= k <= 31:  # 4**31 is the largest telefunken space with int64 codes
        raise ValueError(f"need 1 to 31 digits, got {k}")
    if len(digits) < k:
        raise ValueError(f"need at least {k} digits, got {len(digits)!r}")
    tail = digits[-k:]
    if not (tail.isascii() and tail.isdigit()):
        raise ValueError(f"non-digit characters in {tail!r}")
    return int(_phone_codes(np.array([int(ch) for ch in tail], dtype=np.int64)))


def _phone_codes(d: np.ndarray) -> np.ndarray:
    """Codes of int64 digit rows: digit j of a row gives the bits (parity, >= 5) at weight 4**j."""
    return ((d & 1) << 1 | (d >= 5)) @ 4 ** np.arange(d.shape[-1], dtype=np.int64)


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
    return _phone_codes(rng.integers(0, 10, size=(n, space.telefunken_digits)))  # telefunken


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


# ---------------------------------------------------------------------------
# dump adapters (same CSV layout as plaintext samples)

def hashed_to_rows(hs: Sample, recruiter_codes: Sequence[Optional[int]] | None = None) -> Sample:
    """The hashed sample itself, ready for ``write_sample_dump``; ``perfbench/workloads.py``
    calls it.  ``recruiter_codes``, when given, must match the sample's recruiters."""
    if recruiter_codes is not None and list(recruiter_codes) != hs.recruiter_codes:
        raise ValueError("recruiter codes disagree with the sample's recruiters")
    return hs


def rows_to_hashed(rows: Sample) -> Sample:
    """The sample itself; kept because ``perfbench/workloads.py`` calls it."""
    return rows
