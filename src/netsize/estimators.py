"""The one-step population-size estimators: all of the estimator math.

Each estimator is a ratio of pooled free ends to matched mass, scaled to
undo the sampling bias: n1 for uniform samples, n2 for referral samples,
and n3, which only counts matches across referral components; none takes a
code-space size.  n2psi/n3psi (``estimate_n2_hashed``/``estimate_n3_hashed``)
are n2/n3 on hash codes from a space of omega codes, a finite real of at least
1, with each match weighted by the chance ``collision_prob`` that it is the
true alter (``m_hat``, ``x_hat``).  Every estimator reads the sample's
``Counts`` and ends in one solve, n' = numerator / m(n'): m is the matched
mass (a closed form) in plaintext, else its expected true mass.  Each entry
point is ``f(sample)`` or ``f(sample, omega)``.  ``hashing`` owns code spaces
and re-exports only the ψ entry points, which the benchmark calls there.
Zero denominators are failure values, not exceptions, so an experiment loop
can tally failure rates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .graph import check_int, is_int
from .sampling import Counts, Sample

BRACKET_CEILING = 1e12
ROOT_RTOL = 1e-9


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


def estimate_n1(sample: Sample) -> EstimateResult:
    """Population size from a uniform vertex sample: |T| * <R(T)> / <M(T)>."""
    if sample.size == 0:
        raise ValueError("cannot estimate from an empty sample")
    counts = sample.counts
    if counts.matches == 0:
        return EstimateResult.failure(FailureCause.ZERO_MATCHES)
    # M itself: the degree-grouped mass counts a colliding code once per subject carrying it
    return _fixed_point(sample.size * counts.free, np.array([counts.matches]), counts, None, sample.size)


def _at_least_one(value: float, what: str) -> None:
    """The rule of the ψ math's two sizes, omega and n': an int or a float, not a bool, in [1, the largest float]."""
    if not ((is_int(value) or isinstance(value, (float, np.floating))) and 1 <= value <= sys.float_info.max):
        raise ValueError(f"{what} must be a finite number of at least 1, got {value!r}")  # NaN fails the bounds


def collision_prob(n_prime: float, omega: float, d_tilde_s: float, d_w):
    """Probability that a code match against a sampled subject is the true alter.

    ``n_prime`` and ``omega`` are ints or floats, not bools, from 1 to the
    largest float.  ``d_w`` is one finite non-negative subject degree or an
    array of them.  Degree-1 subjects have no free ends, so they can never be
    the match (the formula's limit as d_w -> 1).
    """
    _at_least_one(omega, "the code space size omega")
    _at_least_one(n_prime, "n_prime")
    if not 0 < d_tilde_s <= sys.float_info.max:  # NaN fails too
        raise ValueError(f"d_tilde_s must be positive and finite, got {d_tilde_s!r}")
    try:
        d_w = np.asarray(d_w, dtype=float)
    except OverflowError:  # an int past the float range
        raise ValueError("d_w must be finite and non-negative, got a value past the float range") from None
    bad = ~((0 <= d_w) & (d_w < math.inf))  # NaN fails too
    if bad.any():
        raise ValueError(f"d_w must be finite and non-negative, got {float(d_w[bad][0])!r}")
    live = d_w > 1
    prob = np.zeros(d_w.shape)
    prob[live] = _live_prob(n_prime, omega, d_tilde_s, d_w[live] - 1.0)
    return prob if prob.ndim else float(prob)


def _live_prob(n_prime: float, omega: float, d_tilde_s: float, d_minus_1):
    """``collision_prob`` of subjects of degree d_w > 1, given d_w - 1."""
    return 1.0 / ((n_prime - 1.0) / omega * d_tilde_s / d_minus_1 + 1.0)


def _true_mass_of(counts: Counts, mass: np.ndarray, omega: float) -> Callable[[float], float]:
    """n' -> the expected true mass sum_d mass_d * collision_prob(n', omega, d~, d) of
    degree-grouped match counts (``mass`` is a row over ``counts.mass_degrees``),
    with the degrees read once.

    Each call computes the probabilities of the live degrees (d > 1) as
    ``collision_prob`` does, and the dead ones carry weight 0.0 in place of
    probability 0.0, so the dot product sees the same products in the same
    places and the root solve reaches the same roots.
    """
    if counts.harmonic_degree is None:
        raise ValueError("harmonic mean requires strictly positive values")
    _at_least_one(omega, "the code space size omega")
    d_w = counts.mass_degrees.astype(float)
    live = d_w > 1
    weight = np.where(live, mass, 0.0)
    d_minus_1 = np.where(live, d_w - 1.0, 1.0)
    d_tilde = counts.harmonic_degree
    return lambda n_prime: float(weight @ _live_prob(n_prime, omega, d_tilde, d_minus_1))


def m_hat(hs: Sample, n_prime: float, omega: float) -> float:
    """Expected true-match mass among all observed code matches; n_prime and omega obey collision_prob's rule."""
    _at_least_one(n_prime, "n_prime")
    return _true_mass_of(hs.counts, hs.counts.match_mass, omega)(n_prime)


def x_hat(hs: Sample, component_label: int, n_prime: float, omega: float) -> float:
    """Expected true cross-component match mass for one referral component;
    n_prime and omega obey collision_prob's rule."""
    _at_least_one(n_prime, "n_prime")
    check_int(component_label, "a component label")
    index = np.flatnonzero(hs.counts.labels == component_label)
    if not len(index):
        raise ValueError(f"no referral component labelled {component_label}")
    return _true_mass_of(hs.counts, hs.counts.cross_mass[index[0]], omega)(n_prime)


def _solve_fixed_point(f: Callable[[float], float], sample_size: int) -> Optional[float]:
    """Unique root of f(x) = x above the sample size, if a bracket exists.

    f is concave (a harmonic mean of affine terms), so f(x) - x changes sign
    once between bracket ends of opposite sign.  The upper end doubles from
    10x the sample size until the sign changes or the search ceiling is hit.
    Illinois regula falsi (Dowell and Jarratt, BIT 11, 168, 1971) then
    narrows the bracket to ROOT_RTOL of its midpoint, in about eight
    evaluations of f in all.
    """
    lo = float(max(sample_size, 1))
    g_lo = f(lo) - lo
    if not math.isfinite(g_lo):
        return None
    if g_lo == 0.0:
        return lo
    hi = 10.0 * max(sample_size, 1)
    while True:
        if hi > BRACKET_CEILING:
            return None
        g_hi = f(hi) - hi
        if not math.isfinite(g_hi):
            return None
        if (g_hi > 0) != (g_lo > 0):
            break
        lo, g_lo = hi, g_hi
        hi *= 2.0

    kept, g_kept, last, g_last = lo, g_lo, hi, g_hi
    for _ in range(200):
        lo, hi = min(kept, last), max(kept, last)
        mid = 0.5 * (lo + hi)
        if hi - lo <= ROOT_RTOL * max(mid, 1.0):
            return mid
        x = last - g_last * (last - kept) / (g_last - g_kept)
        if not lo < x < hi:
            x = mid
        g_x = f(x) - x
        if g_x == 0.0:
            return x
        if (g_x > 0) == (g_last > 0):
            g_kept *= 0.5  # the Illinois step: the kept end's weight halves each time it stays
        else:
            kept, g_kept = last, g_last
        last, g_last = x, g_x
    return 0.5 * (kept + last)


def _fixed_point(numerator: float, mass: np.ndarray, counts: Counts, omega: Optional[float],
                 size: int) -> EstimateResult:
    """n' = numerator / m(n'): m is mass.sum() in plaintext (omega None), else the expected true mass."""
    # n3's numerator is zero when every component with free ends faces a complement of mean degree 1
    if numerator <= 0:
        return EstimateResult.failure(FailureCause.DEGENERATE_DEGREES)
    if omega is None:
        return EstimateResult.success(numerator / mass.sum())

    m_of = _true_mass_of(counts, mass, omega)

    def f(n_prime: float) -> float:
        m = m_of(n_prime)
        return numerator / m if m > 0 else math.inf

    root = _solve_fixed_point(f, size)
    if root is None or not math.isfinite(root) or root <= 0:
        return EstimateResult.failure(FailureCause.NO_ROOT)
    return EstimateResult.success(root)


def estimate_n2(sample: Sample) -> EstimateResult:
    """Referral estimator n' = [(d(S)-1)/d~(S)] * |S| * <R(S,F)> / M(S), M the matched mass."""
    return _n2(sample, None)


def estimate_n2_hashed(hs: Sample, omega: float) -> EstimateResult:
    """n2 on codes from a space of omega codes: n' = [(d(S)-1)/d~(S)] * |S| * <R> / m_hat(n')."""
    _at_least_one(omega, "the code space size omega")
    return _n2(hs, omega)


def _n2(sample: Sample, omega: Optional[float]) -> EstimateResult:
    if sample.size == 0:
        raise ValueError("cannot estimate from an empty sample")
    counts = sample.counts
    mean, harm = counts.mean_degree, counts.harmonic_degree
    if harm is None or mean <= 1.0:
        return EstimateResult.failure(FailureCause.DEGENERATE_DEGREES)
    if counts.matches == 0:
        return EstimateResult.failure(FailureCause.ZERO_MATCHES)
    numerator = (mean - 1.0) / harm * sample.size * counts.free
    return _fixed_point(numerator, counts.match_mass, counts, omega, sample.size)


def estimate_n3(sample: Sample) -> EstimateResult:
    """Cross-component estimator: each referral component's free ends, scaled by its
    complement's size and mean degree, over the cross-component match count X.
    Fewer than two components is a caller error, not an estimation failure."""
    return _n3(sample, None)


def estimate_n3_hashed(hs: Sample, omega: float) -> EstimateResult:
    """n3 on codes from a space of omega codes: X becomes its expected true mass, the x_hat sum."""
    _at_least_one(omega, "the code space size omega")
    return _n3(hs, omega)


def _n3(sample: Sample, omega: Optional[float]) -> EstimateResult:
    counts = sample.counts
    if len(counts.labels) <= 1:
        raise ValueError("cross-seed estimation needs more than one referral component")
    if counts.harmonic_degree is None or counts.mean_degree <= 1.0:
        return EstimateResult.failure(FailureCause.DEGENERATE_DEGREES)
    if counts.cross.sum() == 0:
        return EstimateResult.failure(FailureCause.ZERO_CROSS_MATCHES)
    # summed in component order, one addition at a time; a Python float keeps the solve scalar
    rest = sample.size - counts.comp_size
    rest_mean = (counts.comp_degree.sum() - counts.comp_degree) / rest
    numerator = float(np.cumsum((rest_mean - 1.0) / counts.harmonic_degree * rest * counts.comp_free)[-1])
    return _fixed_point(numerator, counts.cross_mass.sum(axis=0), counts, omega, sample.size)
