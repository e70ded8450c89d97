"""The five synthetic graph families and their mean-degree targets.

Three configuration-model families (Lognormal, Poisson, Exponential degree
draws, each 1 + X so every vertex has a tie), preferential attachment, and
Erdos-Renyi.  All are parameterized by a target mean degree, which the
realized graphs should hit closely.
"""

import numpy as np

from netsize import Family, configuration_graph, sample_degrees, sample_graph
from netsize.generators import rewire_to_clustering
from netsize.ingest import clustering_stats

rng = np.random.default_rng(2024)

n, lam = 5000, 5.0
print(f"target mean degree {lam}, n={n}")
for family in Family:
    g = sample_graph(family, lam, n, rng)
    mean_deg = 2 * g.num_edges / g.n
    loops = int(np.sum(g.edge_array[:, 0] == g.edge_array[:, 1]))
    print(f"  {family.value:<12} edges={g.num_edges:>6}  mean degree={mean_deg:5.2f}  loops={loops}")

# configuration sampling is exact about prescribed degrees (an odd stub
# total gets one degree bumped by 1 before pairing, so force it even here)
degrees = sample_degrees(Family.CONFIG_POISSON, 4.0, 2000, rng)
if degrees.sum() % 2 == 1:
    degrees[0] += 1
g = configuration_graph(degrees, rng)
print("\nconfiguration model: prescribed degrees realized exactly?",
      bool(np.array_equal(np.asarray(g.degrees()), degrees)))

# degree-1 floor: nobody is isolated in the parametric families
print("minimum sampled degree:", int(degrees.min()))

# a clustered variant for stress-testing estimators on transitive networks
base = sample_graph(Family.CONFIG_POISSON, 8.0, 3000, rng)
clustered = rewire_to_clustering(base, 0.18, rng)
print(f"\nrewired for transitivity: mean clustering {clustering_stats(clustered)[0]:.3f}, "
      f"edge count unchanged at {clustered.num_edges}")
