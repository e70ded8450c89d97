"""The one-step population-size estimators.

Each estimator is a ratio of pooled free ends to matched mass, scaled to
undo the sampling bias: n1 for uniform samples, n2 for referral samples,
and n3, which only counts matches across referral components.  The
anonymous forms n2psi/n3psi (``hashing``) are n2/n3 with each observed
match weighted by the chance w(n', d) that it is the true alter, where d is
the degree of the subject it lands on.  Both are the fixed point
n' = numerator / m(n') with m(n') = sum_d C_d w(n', d) over the sample's
degree-grouped match counts; with w = 1 (plaintext) m is constant and the
fixed point is the closed form.  Zero denominators are reported as failure
values rather than exceptions so an experiment driver can tally failure
rates alongside the estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

import numpy as np

from .graph import MultiGraph, harmonic_mean
from .sampling import Sample, as_sample_view

BRACKET_CEILING = 1e12
ROOT_RTOL = 1e-9

# w(n', d~, degrees): chance that a match landing on a subject of each degree is true
Weight = Callable[[float, float, np.ndarray], np.ndarray]


class FailureCause(Enum):
    ZERO_MATCHES = "ZeroMatches"
    ZERO_CROSS_MATCHES = "ZeroCrossMatches"
    DEGENERATE_DEGREES = "DegenerateDegrees"
    NO_ROOT = "NoRoot"


@dataclass(frozen=True)
class EstimateResult:
    """Either a finite positive estimate or an explicit failure."""

    value: Optional[float] = None
    failure_cause: Optional[FailureCause] = None

    def __post_init__(self):
        if (self.value is None) == (self.failure_cause is None):
            raise ValueError("exactly one of value / failure_cause must be set")

    @property
    def failed(self) -> bool:
        return self.failure_cause is not None

    @classmethod
    def success(cls, value: float) -> "EstimateResult":
        value = float(value)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"an estimate must be finite and positive, got {value!r}")
        return cls(value=value)

    @classmethod
    def failure(cls, cause: FailureCause) -> "EstimateResult":
        return cls(failure_cause=cause)


def estimate_n1_from_view(sample: Sample) -> EstimateResult:
    """Uniform-sample estimator on an already materialized sample view."""
    if sample.size == 0:
        raise ValueError("cannot estimate from an empty sample")
    counts = sample.counts
    if counts.matches == 0:
        return EstimateResult.failure(FailureCause.ZERO_MATCHES)
    return EstimateResult.success(sample.size * counts.free / counts.matches)


def estimate_n1(g: MultiGraph, subjects: Iterable[int]) -> EstimateResult:
    """Population size from a uniform vertex sample: |T| * <R(T)> / <M(T)>."""
    return estimate_n1_from_view(as_sample_view(g, subjects))


def _mean_degrees(sample: Sample) -> Optional[tuple[float, float]]:
    """(arithmetic, harmonic) mean reported degree, or None when degenerate."""
    degrees = sample.degrees.tolist()
    if min(degrees) <= 0:
        return None
    mean = sum(degrees) / len(degrees)
    if mean <= 1.0:
        return None
    return mean, harmonic_mean(degrees)


def _solve_fixed_point(f: Callable[[float], float], sample_size: int) -> Optional[float]:
    """Unique root of f(x) = x above the sample size, if a bracket exists.

    f is increasing in x, so g(x) = f(x) - x crosses zero at most once in
    the bracket; the upper bound doubles from 10x the sample size until the
    sign changes or the search ceiling is hit.
    """

    def g(x: float) -> float:
        return f(x) - x

    lo = float(max(sample_size, 1))
    g_lo = g(lo)
    if not math.isfinite(g_lo):
        return None
    if g_lo == 0.0:
        return lo
    hi = 10.0 * max(sample_size, 1)
    while True:
        if hi > BRACKET_CEILING:
            return None
        g_hi = g(hi)
        if not math.isfinite(g_hi):
            return None
        if (g_hi > 0) != (g_lo > 0):
            break
        hi *= 2.0

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= ROOT_RTOL * max(mid, 1.0):
            return mid
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _fixed_point(numerator: float, mass: np.ndarray, degrees: np.ndarray,
                 weight: Optional[Weight], harm_deg: float, size: int) -> EstimateResult:
    """n' = numerator / m(n') with m(n') = sum_d mass_d * w(n', d); w = 1 when weight is None."""
    if weight is None:
        # n3's numerator is zero when every component with free ends faces a
        # complement of mean degree 1
        value = numerator / mass.sum()
        return EstimateResult.success(value) if value > 0 else \
            EstimateResult.failure(FailureCause.DEGENERATE_DEGREES)

    def f(n_prime: float) -> float:
        m = float(mass @ weight(n_prime, harm_deg, degrees))
        return numerator / m if m > 0 else math.inf

    root = _solve_fixed_point(f, size)
    if root is None or not math.isfinite(root) or root <= 0:
        return EstimateResult.failure(FailureCause.NO_ROOT)
    return EstimateResult.success(root)


def _solve_n2(sample: Sample, weight: Optional[Weight] = None) -> EstimateResult:
    """Referral estimator n' = [(d(S)-1)/d~(S)] * |S| * <R(S,F)> / m(n').

    m is the matched mass sum_d C_d (M itself for distinct plaintext codes)
    when weight is None, and the expected true-match mass under ``weight``
    for hashed codes.
    """
    if sample.size == 0:
        raise ValueError("cannot estimate from an empty sample")
    stats = _mean_degrees(sample)
    if stats is None:
        return EstimateResult.failure(FailureCause.DEGENERATE_DEGREES)
    mean_deg, harm_deg = stats
    counts = sample.counts
    if counts.matches == 0:
        return EstimateResult.failure(FailureCause.ZERO_MATCHES)
    numerator = (mean_deg - 1.0) / harm_deg * sample.size * counts.free
    return _fixed_point(numerator, counts.match_mass, counts.mass_degrees, weight, harm_deg, sample.size)


def _solve_n3(sample: Sample, weight: Optional[Weight] = None) -> EstimateResult:
    """Cross-component estimator: discounts matches inside a referral tree.

    Each component contributes its free ends scaled by its complement's size
    and mean degree; the denominator is the cross-component match count X
    (weight None) or its expected true mass under ``weight``.  Requires more
    than one referral component; anything less is a caller error, not an
    estimation failure.
    """
    counts = sample.counts
    if len(counts.labels) <= 1:
        raise ValueError("cross-seed estimation needs more than one referral component")
    stats = _mean_degrees(sample)
    if stats is None:
        return EstimateResult.failure(FailureCause.DEGENERATE_DEGREES)
    _, harm_deg = stats
    if counts.cross.sum() == 0:
        return EstimateResult.failure(FailureCause.ZERO_CROSS_MATCHES)
    total_degree = sum(counts.comp_degree.tolist())
    numerator = 0.0
    for size, degree, free in zip(counts.comp_size.tolist(), counts.comp_degree.tolist(),
                                  counts.comp_free.tolist()):
        rest = sample.size - size
        numerator += ((total_degree - degree) / rest - 1.0) / harm_deg * rest * free
    mass = counts.cross_mass.sum(axis=0)
    return _fixed_point(numerator, mass, counts.mass_degrees, weight, harm_deg, sample.size)


def estimate_n2(sample: Sample) -> EstimateResult:
    """Referral-sample estimator: [(d(S)-1)/d~(S)] * |S| * <R(S,F)> / <M(S,F)>."""
    return _solve_n2(sample)


def estimate_n3(sample: Sample) -> EstimateResult:
    """Cross-component estimator on plaintext codes (see ``_solve_n3``)."""
    return _solve_n3(sample)
