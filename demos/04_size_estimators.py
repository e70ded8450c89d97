"""The three plaintext population-size estimators.

All three generalize capture-recapture to one networked sample: the
"recapture" events are reported alters who turn out to be in the sample.
The uniform-sample estimator divides pooled alter reports by in-sample
matches; the referral variant corrects for degree-biased recruitment; the
cross-component variant additionally ignores matches inside a single
referral tree, which protects it against local clustering.
"""

import numpy as np

from netsize import (
    Family,
    RdsConfig,
    as_sample_view,
    estimate_n1,
    estimate_n2,
    estimate_n3,
    rds_capture,
    sample_graph,
    uniform_sample,
)
from netsize.generators import rewire_to_clustering

rng = np.random.default_rng(5)
n = 10_000
g = sample_graph(Family.CONFIG_POISSON, 8.0, n, rng)

print(f"hidden population size (ground truth): {n}")

uniform = uniform_sample(g, 500, rng)
print(f"uniform sample of 500  -> n1 = {estimate_n1(as_sample_view(g, uniform)).value:8.0f}")

sample = rds_capture(g, RdsConfig(target_size=500), rng)
print(f"referral sample of 500 -> n2 = {estimate_n2(sample).value:8.0f}")
print(f"                          n3 = {estimate_n3(sample).value:8.0f}")

# spread over repeated samples
vals2, vals3 = [], []
for seed in range(60):
    s = rds_capture(g, RdsConfig(target_size=500), np.random.default_rng(seed))
    r2, r3 = estimate_n2(s), estimate_n3(s)
    if not r2.failed:
        vals2.append(r2.value)
    if not r3.failed:
        vals3.append(r3.value)
print(f"\n60 referral samples: n2 median {np.median(vals2):8.0f}   n3 median {np.median(vals3):8.0f}")

# clustering breaks n2 (within-tree matches inflate the denominator) but
# the cross-component estimator holds up
clustered = rewire_to_clustering(sample_graph(Family.CONFIG_POISSON, 8.0, n, rng), 0.18, rng)
vals2, vals3 = [], []
for seed in range(60):
    s = rds_capture(clustered, RdsConfig(target_size=500), np.random.default_rng(seed))
    r2, r3 = estimate_n2(s), estimate_n3(s)
    if not r2.failed:
        vals2.append(r2.value)
    if not r3.failed:
        vals3.append(r3.value)
print(f"same, on a clustered graph: n2 median {np.median(vals2):8.0f}   "
      f"n3 median {np.median(vals3):8.0f}")

# estimators fail explicitly, never by exception
edgeless = sample_graph(Family.ERDOS_RENYI, 0.0, 50, rng)
res = estimate_n1(as_sample_view(edgeless, range(20)))
print(f"\nedgeless graph: failed={res.failed}, cause={res.failure_cause.value}")
