"""Simulating a peer-referral (coupon) sample.

Seven seeds get coupons; each interviewed subject recruits two of their
not-yet-recruited contacts with probability 0.9 (one otherwise), and a new
seed is drawn whenever the chains die out early.  The capture records what
a field team would record: who referred whom, each subject's reported
degree, and their non-referral alters.
"""

import numpy as np

from netsize import Family, RdsConfig, rds_capture, sample_graph, uniform_sample
from netsize.graph import harmonic_mean
from netsize.sampling import sample_dump_lines

rng = np.random.default_rng(99)
g = sample_graph(Family.CONFIG_POISSON, 5.0, 10_000, rng)

cfg = RdsConfig(target_size=500)
sample = rds_capture(g, cfg, rng)

print(f"captured {sample.size} subjects from {len(sample.forest.seeds)} seeds")
print(f"referral edges: {len(sample.forest.edges)} (= subjects - seeds)")

sizes = sorted(sample.counts.comp_size.tolist(), reverse=True)
print("referral-component sizes:", sizes)

# the harmonic mean of sampled degrees tracks the population mean degree,
# even though referral chains oversample well-connected people
pop_mean = 2 * g.num_edges / g.n
sampled = sample.degrees.tolist()
print(f"population mean degree:      {pop_mean:.3f}")
print(f"sampled arithmetic mean:     {np.mean(sampled):.3f}   <- inflated")
print(f"sampled harmonic mean:       {harmonic_mean(sampled):.3f}   <- close to the population")

# uniform sampling, for contrast
uniform = uniform_sample(g, 500, rng)
print(f"uniform sample mean degree:  {np.mean([g.degree(v) for v in uniform]):.3f}")

# the first few rows of the portable dump format
print("\nsample dump preview:")
for line in sample_dump_lines(sample)[:6]:
    print(" ", line)
