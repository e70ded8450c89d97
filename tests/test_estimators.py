import numpy as np
import pytest

from netsize.estimators import FailureCause, estimate_n1, estimate_n2, estimate_n3
from netsize.generators import Family, sample_graph
from netsize.graph import MultiGraph
from netsize.sampling import RdsConfig, rds_capture

K3 = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
CYCLE4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_n1_whole_population_is_exact():
    assert estimate_n1(K3, [0, 1, 2]).value == 3.0


def test_n1_two_of_three():
    # R = 4 free-end occurrences, M = 2 matches, so 2 * 4 / 2
    assert estimate_n1(K3, [0, 1]).value == 4.0


def test_n1_edgeless_fails():
    g = MultiGraph(4, [])
    res = estimate_n1(g, [0, 1, 2])
    assert res.failed and res.failure_cause is FailureCause.ZERO_MATCHES


def test_n1_exact_on_simple_loop_free_graphs():
    for seed in range(5):
        g = sample_graph(Family.ERDOS_RENYI, 5.0, 120, np.random.default_rng(seed))
        assert estimate_n1(g, range(120)).value == pytest.approx(120.0)


def _forced_cycle_sample(rng_seed=3):
    cfg = RdsConfig(target_size=4, num_seeds=1, recruit_law=((2, 1.0),), seeds=(0,))
    return rds_capture(CYCLE4, cfg, np.random.default_rng(rng_seed))


def test_n2_cycle_trace():
    # (d(S)-1)/d~(S) * |S| * R/M = (1/2) * 4 * 2/2 = 2
    assert estimate_n2(_forced_cycle_sample()).value == 2.0


def test_n2_regular_graph_prefactor():
    # on a d-regular sample the prefactor is (d-1)/d
    g = MultiGraph(6, [(i, (i + 1) % 6) for i in range(6)])  # 2-regular ring
    cfg = RdsConfig(target_size=6, num_seeds=1, recruit_law=((2, 1.0),), seeds=(0,))
    sample = rds_capture(g, cfg, np.random.default_rng(1))
    res = estimate_n2(sample)
    free = sum(len(sample.alters(i)) for i in range(sample.size))
    matched = free  # whole ring sampled: every free alter is in-sample
    assert res.value == pytest.approx((2 - 1) / 2 * 6 * free / matched)


def test_n2_zero_matches():
    # path graph sampled completely from one end: referral tree uses every
    # edge, so no free in-sample ties remain
    path = MultiGraph(3, [(0, 1), (1, 2)])
    cfg = RdsConfig(target_size=3, num_seeds=1, recruit_law=((2, 1.0),), seeds=(0,))
    sample = rds_capture(path, cfg, np.random.default_rng(0))
    res = estimate_n2(sample)
    assert res.failed and res.failure_cause is FailureCause.ZERO_MATCHES


def test_n2_degenerate_degrees():
    g = MultiGraph(4, [])
    cfg = RdsConfig(target_size=2, num_seeds=2)
    sample = rds_capture(g, cfg, np.random.default_rng(0))
    res = estimate_n2(sample)
    assert res.failed and res.failure_cause is FailureCause.DEGENERATE_DEGREES


def _forced_two_seed_sample():
    cfg = RdsConfig(target_size=4, num_seeds=2, recruit_law=((2, 1.0),), seeds=(0, 2))
    return rds_capture(CYCLE4, cfg, np.random.default_rng(5))


def test_n3_cycle_two_seed_trace():
    # numerator (1/2*1*2) + (1/2*3*2) = 4, denominator 2 + 2 = 4
    sample = _forced_two_seed_sample()
    assert len(sample.forest.seeds) == 2
    assert estimate_n3(sample).value == 1.0


def test_n3_single_component_is_caller_error():
    with pytest.raises(ValueError):
        estimate_n3(_forced_cycle_sample())


def test_n3_zero_cross_matches():
    g = MultiGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])  # two disjoint paths
    cfg = RdsConfig(target_size=6, num_seeds=2, recruit_law=((2, 1.0),), seeds=(0, 3))
    sample = rds_capture(g, cfg, np.random.default_rng(0))
    res = estimate_n3(sample)
    assert res.failed and res.failure_cause is FailureCause.ZERO_CROSS_MATCHES


def test_n3_symmetric_components():
    # two identical squares joined by a symmetric pair of cross edges
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (2, 6)]
    g = MultiGraph(8, edges)
    cfg = RdsConfig(target_size=8, num_seeds=2, recruit_law=((3, 1.0),), seeds=(1, 5))
    sample = rds_capture(g, cfg, np.random.default_rng(2))
    comps: dict[int, list[int]] = {}
    for v, seed in sample.forest.seed_of.items():
        comps.setdefault(seed, []).append(v)
    if set(map(tuple, map(sorted, comps.values()))) == {(0, 1, 2, 3), (4, 5, 6, 7)}:
        # both seed terms identical by symmetry
        res = estimate_n3(sample)
        assert not res.failed


def test_estimate_result_exclusivity():
    from netsize.estimators import EstimateResult

    with pytest.raises(ValueError):
        EstimateResult(value=2.0, failure_cause=FailureCause.NO_ROOT)
    with pytest.raises(ValueError):
        EstimateResult()


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_estimate_result_success_rejects_non_finite_or_non_positive(value):
    from netsize.estimators import EstimateResult

    with pytest.raises(ValueError):
        EstimateResult.success(value)
    assert EstimateResult.success(2).value == 2.0


def test_n2_median_tracks_population_small():
    # cut-down consistency check; the acceptance suite runs the full grid
    g = sample_graph(Family.CONFIG_POISSON, 10.0, 2000, np.random.default_rng(0))
    vals = []
    for seed in range(60):
        sample = rds_capture(g, RdsConfig(target_size=300), np.random.default_rng(seed))
        res = estimate_n2(sample)
        if not res.failed:
            vals.append(res.value)
    med = sorted(vals)[len(vals) // 2]
    assert abs(med - 2000) / 2000 < 0.15


def test_clustering_depresses_n2_but_not_n3():
    from netsize.generators import rewire_to_clustering

    rng = np.random.default_rng(9)
    n = 3000
    g = rewire_to_clustering(sample_graph(Family.CONFIG_POISSON, 8.0, n, rng), 0.18, rng)
    v2, v3 = [], []
    for seed in range(40):
        sample = rds_capture(g, RdsConfig(target_size=300), np.random.default_rng(seed))
        r2, r3 = estimate_n2(sample), estimate_n3(sample)
        if not r2.failed:
            v2.append(r2.value)
        if not r3.failed:
            v3.append(r3.value)
    med2 = sorted(v2)[len(v2) // 2]
    med3 = sorted(v3)[len(v3) // 2]
    assert med2 < med3 <= 1.2 * n
    assert med2 < 0.9 * n


def test_n3_zero_numerator_is_a_failure_not_a_zero_estimate():
    # subject 0 reports subject 1, but both other components have mean degree 1
    from netsize.hashing import estimate_n3_hashed
    from netsize.sampling import Sample

    sample = Sample(codes=(0, 1, 2), degrees=(5, 1, 1), alter_codes=([1], [], []), components=(0, 1, 2))
    assert estimate_n3(sample).failure_cause is FailureCause.DEGENERATE_DEGREES
    assert estimate_n3_hashed(sample, 10**9).failure_cause is FailureCause.NO_ROOT
