"""Estimating population size when subjects only reveal hash codes.

Subjects are unwilling to identify themselves or their contacts, so every
identity is replaced by a code from a small space (a random hash, or the
phone-digit parity codec).  Small code spaces produce false matches; the
hashed estimators solve for the population size at which the expected
true-match mass equals what was observed.
"""

import numpy as np

from netsize import (
    Family,
    HashMode,
    HashSpace,
    RdsConfig,
    assign_hashes,
    collision_prob,
    estimate_n2,
    estimate_n2_hashed,
    estimate_n3_hashed,
    hashed_view,
    m_hat,
    rds_capture,
    sample_graph,
    telefunken_encode,
)

rng = np.random.default_rng(31)

# --- the phone-digit codec ---------------------------------------------------

print("phone-digit codec: one (parity, low/high) bit pair per digit, last digit first")
for number in ("555-0127", "555-0100"):
    digits = number.replace("-", "")
    code = telefunken_encode(digits, 4)
    print(f"  {number} -> {code:08b} (4 digits -> 8 bits, 256 codes)")

# --- codes collide, and the correction knows how often ----------------------

print("\nchance a code match is the true contact, by space size "
      "(population 5000, harmonic mean degree 3, subject degree 4):")
for omega in (256, 4096, 65_536, 10**9):
    print(f"  |codes|={omega:>10} -> {collision_prob(5000, omega, 3.0, 4):.4f}")

# --- anonymized estimation end to end ----------------------------------------

n = 10_000
g = sample_graph(Family.CONFIG_POISSON, 8.0, n, rng)
sample = rds_capture(g, RdsConfig(target_size=500), rng)
plain = estimate_n2(sample)
print(f"\nground truth {n}; plaintext referral estimate {plain.value:.0f}")

print("hashed estimates as the code space shrinks:")
for omega in (10**9, 256_000, 32_000, 2_000):
    codes = assign_hashes(n, HashSpace(omega), rng)
    hs = hashed_view(sample, codes)
    r2 = estimate_n2_hashed(hs, omega)
    r3 = estimate_n3_hashed(hs, omega)
    raw_matches = hs.counts.matches
    corrected = m_hat(hs, n, omega)
    print(f"  |codes|={omega:>10}: observed matches {raw_matches:>5} "
          f"(expected true mass at n'={n}: {corrected:6.1f})  "
          f"n2-hashed={r2.value:7.0f}  n3-hashed={r3.value:7.0f}")

# injective codes remove false matches entirely; the residual gap is the
# collision term n/|codes|, which vanishes as the space grows
codes = assign_hashes(n, HashSpace(10**9, HashMode.INJECTIVE), rng)
r2 = estimate_n2_hashed(hashed_view(sample, codes), 10**9)
gap = abs(r2.value - plain.value) / plain.value
print(f"\ninjective codes reduce to plaintext: {r2.value:.1f} vs {plain.value:.1f} "
      f"(relative gap {gap:.1e})")
