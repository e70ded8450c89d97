"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them live).

Statistical criteria run a few hundred Monte-Carlo replicates at a fixed
master seed, so every run of this suite is deterministic.  Criteria 2-7 and
9 run their cells through ``run_plan`` and read its ``SummaryRow``s, the
path ``netsize experiment`` takes.  Criteria 1, 8 and 10 build their own
captures (exactness oracles, rewired graphs, injective codes), and 11 compares
reruns of a small plan.  Every median and quartile is ``summarize``'s rule.
"""

import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import netsize as ns
from netsize.generators import rewire_to_clustering
from netsize.harness import (
    ExperimentPlan,
    derive_rng,
    failure_curve,
    raw_csv_lines,
    run_plan,
    summarize,
    summary_csv_lines,
)
from netsize.hashing import HashMode, HashSpace, assign_hashes, hashed_view
from netsize.ingest import EdgeListSpec, clustering_stats, load_edge_list
from netsize.sampling import RdsConfig, rds_capture

MASTER_SEED = 7
WORKERS = min(4, os.cpu_count() or 1)

BRIGHTKITE_PATH = os.environ.get(
    "NETSIZE_BRIGHTKITE", str(Path(__file__).resolve().parent.parent / "data" / "brightkite_edges.txt")
)


def _report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


def _summaries(family, lam, sample_sizes, estimators, omegas=()):
    """``run_plan``'s summary rows for one criterion's cells at n = 5000, 30
    graphs x 10 samples each, keyed by ``(r, omega, estimator)``."""
    plan = ExperimentPlan(
        families=(family,),
        lambdas=(lam,),
        sizes=(5000,),
        sample_sizes=sample_sizes,
        estimators=estimators,
        omegas=omegas,
        graph_replicates=30,
        sample_replicates=10,
        seed=MASTER_SEED,
    )
    _, summaries = run_plan(plan, workers=WORKERS)
    return {(row.r, row.omega, row.estimator): row for row in summaries}


# ---------------------------------------------------------------------------
# 1. exactness oracles

def test_criterion_1_exactness_oracles():
    k3 = ns.MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    cycle = ns.MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    ok = True
    n1 = ns.estimate_n1(ns.as_sample_view(k3, [0, 1])).value
    ok &= n1 == 4.0

    cfg = RdsConfig(target_size=4, num_seeds=1, recruit_law=((2, 1.0),), seeds=(0,))
    n2 = ns.estimate_n2(rds_capture(cycle, cfg, np.random.default_rng(3))).value
    ok &= n2 == 2.0

    cfg2 = RdsConfig(target_size=4, num_seeds=2, recruit_law=((2, 1.0),), seeds=(0, 2))
    n3 = ns.estimate_n3(rds_capture(cycle, cfg2, np.random.default_rng(5))).value
    ok &= n3 == 1.0

    prob = ns.collision_prob(101, 100, 2.0, 3)
    ok &= prob == 0.5

    hs = ns.HashedSample(codes=(1, 2, 3), degrees=(2, 2, 2),
                         alter_codes=(Counter([2, 9]), Counter(), Counter()),
                         components=(0, 0, 0))
    root = ns.estimate_n2_hashed(hs, 10).value
    ok &= abs(root - 6.0) <= 1e-9 * 6.0  # root solver converges to its stated tolerance

    assert _report("1 exactness", bool(ok),
                   f"n1={n1} n2={n2} n3={n3} prob={prob} root={root!r}")


# ---------------------------------------------------------------------------
# 2. n1 consistency on uniform samples

def test_criterion_2_n1_consistency():
    details = []
    ok = True
    for family in (ns.Family.ERDOS_RENYI, ns.Family.CONFIG_POISSON):
        cells = _summaries(family, 10.0, (250, 750), ("n1",))
        s250, s750 = cells[250, None, "n1"], cells[750, None, "n1"]
        iqr250, iqr750 = s250.q3 - s250.q1, s750.q3 - s750.q1
        ok &= abs(s750.median - 5000) / 5000 <= 0.05
        ok &= iqr750 < iqr250
        details.append(f"{family.value}: med750={s750.median:.0f} iqr750={iqr750:.0f} iqr250={iqr250:.0f}")
    assert _report("2 n1-consistency", bool(ok), "; ".join(details))


# ---------------------------------------------------------------------------
# 3. n1 small-sample bias direction

def test_criterion_3_n1_small_sample_bias():
    med = _summaries(ns.Family.CONFIG_EXPONENTIAL, 3.0, (250,), ("n1",))[250, None, "n1"].median
    offset = (med - 5000) / 5000
    ok = 0.05 <= offset <= 0.25
    assert _report("3 n1-bias", ok, f"median={med:.0f} offset={offset * 100:+.1f}% (required +5%..+25%)")


# ---------------------------------------------------------------------------
# 4. n2 consistency / dispersion shrink

def test_criterion_4_n2_iqr_shrink():
    cells = _summaries(ns.Family.CONFIG_POISSON, 3.0, (250, 750), ("n2",))
    s250, s750 = cells[250, None, "n2"], cells[750, None, "n2"]
    iqr250, iqr750 = s250.q3 - s250.q1, s750.q3 - s750.q1
    shrink = 1.0 - iqr750 / iqr250
    ok = shrink >= 0.40
    assert _report("4 n2-iqr", ok,
                   f"iqr250={iqr250:.0f} iqr750={iqr750:.0f} shrink={shrink * 100:.0f}% (need >=40%)")


# ---------------------------------------------------------------------------
# 5. n3 consistency / dispersion shrink

def test_criterion_5_n3_consistency():
    cells = _summaries(ns.Family.CONFIG_LOGNORMAL, 3.0, (250, 750), ("n3",))
    s250, s750 = cells[250, None, "n3"], cells[750, None, "n3"]
    shrink = 1.0 - (s750.q3 - s750.q1) / (s250.q3 - s250.q1)
    ok = abs(s750.median - 5000) / 5000 <= 0.10 and shrink >= 0.40
    assert _report("5 n3-consistency", ok,
                   f"med750={s750.median:.0f} shrink={shrink * 100:.0f}% (need med within 10%, shrink >=40%)")


# ---------------------------------------------------------------------------
# 6+7. hash-space tradeoff for the hashed estimators

@pytest.fixture(scope="module")
def hashed_medians():
    """Median hashed estimates on Lognormal lam=3, n=5000, r=500, keyed by (omega, estimator)."""
    cells = _summaries(ns.Family.CONFIG_LOGNORMAL, 3.0, (500,), ("n2psi", "n3psi"), omegas=(2_000, 256_000))
    return {(omega, name): row.median for (_, omega, name), row in cells.items()}


def test_criterion_6_n2_hashed_tradeoff(hashed_medians):
    small, large = hashed_medians[2_000, "n2psi"], hashed_medians[256_000, "n2psi"]
    ok = abs(large - 5000) < abs(small - 5000)
    ok &= 4400 <= small <= 5100 and 4400 <= large <= 5100
    assert _report("6 n2psi-tradeoff", bool(ok),
                   f"median@2k={small:.0f} median@256k={large:.0f}")


def test_criterion_7_n3_hashed_tradeoff(hashed_medians):
    small, large = hashed_medians[2_000, "n3psi"], hashed_medians[256_000, "n3psi"]
    ok = abs(large - 5000) < abs(small - 5000)
    ok &= 4400 <= small <= 5100 and 4400 <= large <= 5100
    assert _report("7 n3psi-tradeoff", bool(ok),
                   f"median@2k={small:.0f} median@256k={large:.0f}")


# ---------------------------------------------------------------------------
# 8. clustering correction

def test_criterion_8_clustering_correction():
    n, r, omega = 10_000, 500, 32_000
    r2, r3 = [], []
    clusterings = []
    for gi in range(4):
        rng = derive_rng(MASTER_SEED, "cluster-graph", gi)
        base = ns.sample_graph(ns.Family.CONFIG_POISSON, 8.0, n, rng)
        g = rewire_to_clustering(base, 0.16, rng)
        clusterings.append(clustering_stats(g)[0])
        for si in range(50):
            sample = rds_capture(g, RdsConfig(target_size=r),
                                 derive_rng(MASTER_SEED, "cluster-rds", gi, si))
            hs = hashed_view(sample, assign_hashes(
                n, HashSpace(omega), derive_rng(MASTER_SEED, "cluster-hash", gi, si)))
            r2.append(ns.estimate_n2_hashed(hs, omega))
            r3.append(ns.estimate_n3_hashed(hs, omega))
    med2, med3 = summarize(r2).median, summarize(r3).median
    ok = min(clusterings) >= 0.15
    ok &= med2 < 0.9 * n
    ok &= 0.8 * n <= med3 <= 1.2 * n
    assert _report("8 clustering-correction", bool(ok),
                   f"clustering>={min(clusterings):.3f} median n2psi={med2:.0f} n3psi={med3:.0f}")


def test_criterion_8b_brightkite_if_present():
    if not os.path.exists(BRIGHTKITE_PATH):
        print(f"ACCEPTANCE 8b brightkite: SKIP (no dataset at {BRIGHTKITE_PATH})")
        pytest.skip("dataset not present")
    g, _, report = load_edge_list(
        EdgeListSpec(BRIGHTKITE_PATH, dedupe=True, drop_loops=True))
    avg, trans = clustering_stats(g)
    ok = g.n == 58_228 and g.num_edges == 214_078
    ok &= abs(avg - 0.1723) <= 0.001 and abs(trans - 0.03979) <= 0.0005
    assert _report("8b brightkite", bool(ok),
                   f"nodes={g.n} edges={g.num_edges} clustering={avg:.4f} transitivity={trans:.5f}")


# ---------------------------------------------------------------------------
# 9. failure-rate inflection

@pytest.fixture(scope="module")
def failure_grid():
    plan = ExperimentPlan(
        families=tuple(ns.Family),
        lambdas=(3.0, 5.0, 10.0),
        sizes=(5_000, 10_000, 20_000, 40_000),
        sample_sizes=(250, 750),
        estimators=("n2",),
        graph_replicates=10,
        sample_replicates=10,
        seed=MASTER_SEED,
    )
    _, summaries = run_plan(plan, workers=WORKERS)
    return summaries


def test_criterion_9_failure_rates(failure_grid):
    curve250 = dict(failure_curve(failure_grid, "n2", 250))
    curve750 = dict(failure_curve(failure_grid, "n2", 750))
    slack = 0.015  # monotone within noise
    ok = curve250[5_000] <= 0.01
    ok &= curve250[40_000] >= 0.03
    ok &= curve250[5_000] <= curve250[10_000] + slack
    ok &= curve250[10_000] <= curve250[20_000] + slack
    ok &= curve250[20_000] <= curve250[40_000] + slack
    ok &= all(rate < 0.01 for rate in curve750.values())
    detail250 = " ".join(f"{n // 1000}k={curve250[n] * 100:.1f}%" for n in sorted(curve250))
    detail750 = " ".join(f"{n // 1000}k={curve750[n] * 100:.1f}%" for n in sorted(curve750))
    assert _report("9 failure-rates", bool(ok), f"r250: {detail250} | r750: {detail750}")


# ---------------------------------------------------------------------------
# 10. hashed estimators reduce to plaintext under injective codes

def test_criterion_10_injective_reduction():
    family, lam, n, r = ns.Family.CONFIG_POISSON, 10.0, 150, 50
    omega = 10**9
    checked = 0
    worst = 0.0
    ok = True
    for gi in range(10):
        g = ns.sample_graph(family, lam, n, derive_rng(MASTER_SEED, "red-graph", gi))
        for si in range(10):
            sample = rds_capture(g, RdsConfig(target_size=r),
                                 derive_rng(MASTER_SEED, "red-rds", gi, si))
            assignment = assign_hashes(n, HashSpace(omega, HashMode.INJECTIVE),
                                       derive_rng(MASTER_SEED, "red-hash", gi, si))
            hs = hashed_view(sample, assignment)
            for plain_est, hashed_est in (
                (ns.estimate_n2, ns.estimate_n2_hashed),
                (ns.estimate_n3, ns.estimate_n3_hashed),
            ):
                plain = plain_est(sample)
                hashed = hashed_est(hs, omega)
                if plain.failed:
                    ok &= hashed.failed
                    continue
                rel = abs(hashed.value - plain.value) / plain.value
                worst = max(worst, rel)
                ok &= rel <= 1e-6
                checked += 1
    assert _report("10 injective-reduction", bool(ok),
                   f"{checked} comparisons, worst relative gap {worst:.2e} (need <=1e-6)")


# ---------------------------------------------------------------------------
# 11. determinism of the experiment harness

def test_criterion_11_determinism():
    plan = ExperimentPlan(
        families=(ns.Family.ERDOS_RENYI, ns.Family.CONFIG_LOGNORMAL),
        lambdas=(5.0,),
        sizes=(400,),
        sample_sizes=(60,),
        estimators=("n1", "n2", "n3", "n2psi", "n3psi"),
        omegas=(512,),
        graph_replicates=2,
        sample_replicates=3,
        seed=MASTER_SEED,
    )
    raw1, sum1 = run_plan(plan, workers=1)
    raw2, sum2 = run_plan(plan, workers=2)
    raw3, sum3 = run_plan(plan, workers=1)
    ok = raw_csv_lines(raw1) == raw_csv_lines(raw2) == raw_csv_lines(raw3)
    ok &= summary_csv_lines(sum1) == summary_csv_lines(sum2) == summary_csv_lines(sum3)
    assert _report("11 determinism", bool(ok),
                   f"{len(raw1)} raw rows byte-stable across reruns and worker counts")
