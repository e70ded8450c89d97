"""Counted multisets and the neighborhood quantities behind the estimators.

Every estimator in this library is a ratio of two multiset cardinalities:
pooled "free ends" (reported alters) over "matches" (alters that are
themselves in the sample).  A multiset here is a ``collections.Counter``:
``a + b`` adds counts, ``a & b`` keeps the smaller count, ``a - b`` clamps
at zero, ``x.total()`` is the cardinality and ``len(x)`` the support size.
This walkthrough builds those quantities by hand on graphs small enough to
check on paper.
"""

from collections import Counter

import numpy as np

from netsize import (
    MultiGraph,
    RdsConfig,
    free_ends,
    free_neighborhood,
    harmonic_mean_degree,
    matches,
    mean_degree,
    rds_capture,
)

# --- multiset algebra ------------------------------------------------------

a = Counter([1, 1, 2])
b = Counter([1, 2, 2])
print("a =", sorted(a.items()), "| b =", sorted(b.items()))
print("union (counts add)       :", sorted((a + b).items()))
print("intersection (min counts):", sorted((a & b).items()))
print("difference (clamped)     :", sorted((a - b).items()))

x = Counter([1, 1, 2, 8, 8, 8])
print(f"cardinality <x> = {x.total()}, support |x*| = {len(x)}")

# --- graphs with parallel edges and loops -----------------------------------

g = MultiGraph(3, [(0, 1), (0, 1), (2, 2)])  # double edge plus a self-loop
print("\ndegrees with a parallel pair and a loop:", [g.degree(v) for v in range(3)])
print("neighbor bag of 0:", sorted(g.neighbors(0).items()))
print("neighbor bag of 2 (loop counts twice):", sorted(g.neighbors(2).items()))

star = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
print("\nstar graph: mean degree =", mean_degree(star, range(4)),
      "| harmonic mean degree =", harmonic_mean_degree(star, range(4)))

# --- free ends and matches on a 4-cycle --------------------------------------

cycle = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
referrals = [(0, 1), (0, 3), (1, 2)]  # a referral tree covering the cycle
print("\n4-cycle sampled along referral edges", referrals)
for v in range(4):
    print(f"  free alters of {v}:", sorted(free_neighborhood(cycle, v, referrals).items()))

pooled = free_ends(cycle, range(4), referrals)
in_sample = matches(cycle, range(4), referrals)
print("pooled free ends <R> =", pooled.total())
print("in-sample matches <M> =", in_sample.total())
print("the one non-referral edge (2,3) is seen from both ends")

# --- the same counts, as the estimators take them from a captured sample ------

cfg = RdsConfig(target_size=4, num_seeds=1, recruit_law=((2, 1.0),), seeds=(0,))
sample = rds_capture(cycle, cfg, np.random.default_rng(3))
print("\nreferral capture of the 4-cycle, forest", list(sample.forest.edges))
print("sample.counts: <R> =", sample.counts.free, "| <M> =", sample.counts.matches)
