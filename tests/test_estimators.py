import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netsize import estimators
from netsize.estimators import (
    EstimateResult, FailureCause, collision_prob, estimate_n1, estimate_n2, estimate_n2_hashed, estimate_n3,
    estimate_n3_hashed, m_hat, x_hat,
)
from netsize.generators import Family, sample_graph
from netsize.graph import MultiGraph, harmonic_mean
from netsize.harness import ExperimentPlan, run_plan
from netsize.hashing import HashSpace, assign_hashes, hashed_view
from netsize.sampling import Counts, RdsConfig, Sample, as_sample_view, rds_capture
from test_counts import SETTINGS, captures, coded_samples

K3 = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
CYCLE4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_n1_whole_population_is_exact():
    assert estimate_n1(as_sample_view(K3, [0, 1, 2])).value == 3.0


def test_n1_two_of_three():
    # R = 4 free-end occurrences, M = 2 matches, so 2 * 4 / 2
    assert estimate_n1(as_sample_view(K3, [0, 1])).value == 4.0


@pytest.mark.parametrize("estimate", [estimate_n1, estimate_n2, lambda sample: estimate_n2_hashed(sample, 10)],
                         ids=["n1", "n2", "n2psi"])
def test_estimators_reject_an_empty_sample(estimate):
    empty = Sample(codes=(), degrees=(), alter_codes=(), alter_offsets=(0,), components=())
    with pytest.raises(ValueError, match="^cannot estimate from an empty sample$"):
        estimate(empty)


def test_n1_edgeless_fails():
    g = MultiGraph(4, [])
    res = estimate_n1(as_sample_view(g, [0, 1, 2]))
    assert res.failed and res.failure_cause is FailureCause.ZERO_MATCHES


def test_n1_exact_on_simple_loop_free_graphs():
    for seed in range(5):
        g = sample_graph(Family.ERDOS_RENYI, 5.0, 120, np.random.default_rng(seed))
        assert estimate_n1(as_sample_view(g, range(120))).value == pytest.approx(120.0)


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
    # a cause may be given by its value, as the CSV writes it, and only by a value the enum has
    assert EstimateResult(failure_cause="ZeroMatches").failure_cause is FailureCause.ZERO_MATCHES
    with pytest.raises(ValueError, match="'Zero' is not a valid FailureCause"):
        EstimateResult(failure_cause="Zero")


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


def test_n1_overestimates_on_average_on_small_uniform_samples():
    """n1 = r * R / M is biased upward at small r (Jensen's inequality on 1/M),
    while its median sits near n, so acceptance criterion 3's median band
    does not read this.  At seed 202, 150 graphs x 10 samples of Exponential
    lam=3, n=5000, r=250 give a mean offset of +5.82% with a standard error
    of 0.70%, so the bound at 0 lies more than 8 standard errors away."""
    plan = ExperimentPlan(
        families=(Family.CONFIG_EXPONENTIAL,), lambdas=(3.0,), sizes=(5000,), sample_sizes=(250,),
        estimators=("n1",), graph_replicates=150, sample_replicates=10, seed=202,
    )
    raw, _ = run_plan(plan)
    offsets = [row.result.value / 5000 - 1 for row in raw if not row.result.failed]
    assert len(offsets) == 1500
    assert sum(offsets) / len(offsets) > 0


def test_n3_zero_numerator_is_a_failure_not_a_zero_estimate():
    # subject 0 reports subject 1, but both other components have mean degree 1
    sample = Sample(codes=(0, 1, 2), degrees=(5, 1, 1), alter_codes=(1,), alter_offsets=(0, 1, 1, 1),
                    components=(0, 1, 2))
    injective = hashed_view(sample, assign_hashes(3, HashSpace(10**9, "injective"), np.random.default_rng(0)))
    assert estimate_n3(sample).failure_cause is FailureCause.DEGENERATE_DEGREES
    for hs in (sample, injective):  # the psi estimator reduces to plaintext under injective codes
        assert estimate_n3_hashed(hs, 10**9).failure_cause is FailureCause.DEGENERATE_DEGREES


# ---------------------------------------------------------------------------
# the shared core: degree means in ``Counts`` and one solve for every estimator

def _loop_mean_degrees(sample):
    """(arithmetic, harmonic) mean degree in plain Python, or None when degenerate."""
    degrees = sample.degrees.tolist()
    if min(degrees) <= 0:
        return None
    mean = sum(degrees) / len(degrees)
    if mean <= 1.0:
        return None
    return mean, harmonic_mean(degrees)


def _loop_n3_numerator(sample, harm_deg):
    """n3's numerator summed one component at a time in plain Python."""
    counts = sample.counts
    total_degree = sum(counts.comp_degree.tolist())
    numerator = 0.0
    for size, degree, free in zip(counts.comp_size.tolist(), counts.comp_degree.tolist(),
                                  counts.comp_free.tolist()):
        rest = sample.size - size
        numerator += ((total_degree - degree) / rest - 1.0) / harm_deg * rest * free
    return numerator


def _solve_numerators(solve, sample, *args):
    """The numerators ``solve`` hands to the shared ``_fixed_point``."""
    with mock.patch.object(estimators, "_fixed_point", wraps=estimators._fixed_point) as spy:
        solve(sample, *args)
    return [call.args[0] for call in spy.call_args_list]


def _check_core_against_loops(sample):
    counts = sample.counts
    degrees = sample.degrees.tolist()
    assert counts.mean_degree == sum(degrees) / len(degrees)
    if min(degrees) <= 0:
        assert counts.harmonic_degree is None
    else:
        assert counts.harmonic_degree == harmonic_mean(degrees)
    stats = _loop_mean_degrees(sample)
    if stats is None or len(counts.labels) <= 1 or counts.cross.sum() == 0:
        return
    mean, harm = stats
    assert (counts.mean_degree, counts.harmonic_degree) == (mean, harm)
    expected = [_loop_n3_numerator(sample, harm)]
    assert _solve_numerators(estimate_n3, sample) == expected
    assert _solve_numerators(estimate_n3_hashed, sample, 7) == expected


@SETTINGS
@given(st.one_of(captures().map(lambda capture: capture[1]), coded_samples()))
def test_counts_degree_means_and_n3_numerator_equal_the_loop_forms(sample):
    _check_core_against_loops(sample)


@pytest.mark.parametrize("family", list(Family))
def test_core_equals_the_loop_forms_on_many_components(family):
    # dozens of components: a pairwise sum would round differently from the loop
    g = sample_graph(family, 3.0, 2000, np.random.default_rng(5))
    for seed in range(3):
        sample = rds_capture(g, RdsConfig(target_size=300, num_seeds=60), np.random.default_rng(seed))
        assert len(sample.counts.labels) >= 60
        _check_core_against_loops(sample)
        _check_core_against_loops(hashed_view(sample, np.random.default_rng(seed).integers(0, 500, g.n)))


def test_every_estimator_ends_in_the_shared_solve():
    g = sample_graph(Family.CONFIG_POISSON, 6.0, 400, np.random.default_rng(2))
    sample = rds_capture(g, RdsConfig(target_size=120), np.random.default_rng(3))
    counts = sample.counts
    assert _solve_numerators(estimate_n1, sample) == [sample.size * counts.free]
    assert _solve_numerators(estimate_n2, sample) == _solve_numerators(estimate_n2_hashed, sample, 900)
    assert len(_solve_numerators(estimate_n3, sample)) == 1


def test_harmonic_degree_is_none_with_a_zero_degree_subject():
    sample = Sample(codes=(0, 1, 2), degrees=(2, 0, 3), alter_codes=(1, 2, 0), alter_offsets=(0, 2, 2, 3),
                    components=(0, 1, 1))
    assert sample.counts.harmonic_degree is None
    assert sample.counts.mean_degree == 5 / 3
    for call in (lambda: m_hat(sample, 10.0, 50), lambda: x_hat(sample, 0, 10.0, 50)):
        with pytest.raises(ValueError, match="harmonic mean requires strictly positive values"):
            call()
    assert estimate_n2(sample).failure_cause is FailureCause.DEGENERATE_DEGREES


def test_the_psi_math_is_exported_from_estimators_and_only_its_entry_points_from_hashing():
    import netsize
    from netsize import hashing

    for name in ("collision_prob", "m_hat", "x_hat", "estimate_n2_hashed", "estimate_n3_hashed"):
        assert getattr(netsize, name) is getattr(estimators, name), name
    for name in ("collision_prob", "m_hat", "x_hat"):
        assert not hasattr(hashing, name), name
    for name in ("estimate_n2_hashed", "estimate_n3_hashed"):  # the benchmark calls them through hashing
        assert getattr(hashing, name) is getattr(estimators, name), name


def test_plaintext_estimators_take_no_omega():
    sample = Sample(codes=(0, 1, 2), degrees=(2, 2, 2), alter_codes=(1, 2, 0), alter_offsets=(0, 1, 2, 3),
                    components=(0, 1, 1))
    for solve in (estimate_n2, estimate_n3):
        assert not solve(sample).failed
        with pytest.raises(TypeError):
            solve(sample, 2000)
        with pytest.raises(TypeError):
            solve(sample, omega=2000)


def test_degree_sums_are_exact_past_float_precision():
    big = 2**53 + 1  # float64 bincount weights would round this sum
    sample = Sample(codes=(0, 1, 2, 3), degrees=(big, 3, 3, 2), alter_codes=(1, 0, 2, 1),
                    alter_offsets=(0, 1, 3, 4, 4), components=(0, 0, 0, 1))
    counts = sample.counts
    assert counts.comp_degree.tolist() == [big + 6, 2]
    mean, harm = _loop_mean_degrees(sample)
    assert (counts.mean_degree, counts.harmonic_degree) == (mean, harm)
    assert _solve_numerators(estimate_n2, sample) == [(mean - 1.0) / harm * sample.size * counts.free]


@pytest.mark.parametrize("degrees, fits", [
    ((2**62, 2**62, 3, 2), False),            # wrapped to -2**63 and read as degenerate degrees
    ((2**62, 2**62 - 6, 3, 2), True),         # sums to 2**63 - 1
    ((2**62, 2**62, 0, 0), False),            # each component fits; the total does not
    ((-2**62, -2**62, -1, 0), False),
    ((2**63 - 1, -5, 4, 1), False),           # some of them sum past the range
])
def test_a_sample_rejects_degrees_whose_sums_leave_int64(degrees, fits):
    def build():
        return Sample(codes=(0, 1, 2, 3), degrees=degrees, alter_codes=(), alter_offsets=(0, 0, 0, 0, 0),
                      components=(0, 0, 1, 1))

    if fits:
        assert build().counts.comp_degree.tolist() == [degrees[0] + degrees[1], degrees[2] + degrees[3]]
    else:
        negative = [d for d in degrees if d < 0]  # a negative degree is rejected before any sum
        message = f"negative reported degree {negative[0]}" if negative else "the reported degrees sum past the 64-bit range"
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


_OMEGAS = st.sampled_from([1, 2000, 2**63])


def _grouped(degrees, mass, harmonic_degree):
    """Counts that hold only what the hashed solve reads: degrees, their mass and d~."""
    mass = np.array(mass, dtype=float)
    return Counts(labels=np.array([0]), comp_size=np.array([1]), comp_degree=np.array([1]),
                  comp_free=np.array([1]), matches=1, cross=np.array([1]),
                  mass_degrees=np.array(degrees, dtype=np.int64), match_mass=mass, cross_mass=mass[None, :],
                  harmonic_degree=harmonic_degree)


@st.composite
def grouped_counts(draw):
    degrees = sorted(draw(st.sets(st.one_of(st.integers(0, 40), st.integers(0, 10**12)), min_size=1, max_size=12)))
    mass = [draw(st.one_of(st.just(0), st.integers(0, 50))) for _ in degrees]
    return _grouped(degrees, mass, draw(st.floats(0.5, 100.0)))


def _reference_fixed_point(numerator, mass, counts, omega, size):
    """The solve with the expected true mass rebuilt from ``collision_prob`` at every step."""
    def f(n_prime):
        m = float(mass @ collision_prob(n_prime, omega, counts.harmonic_degree, counts.mass_degrees))
        return numerator / m if m > 0 else math.inf

    root = estimators._solve_fixed_point(f, size)
    if root is None or not math.isfinite(root) or root <= 0:
        return EstimateResult.failure(FailureCause.NO_ROOT)
    return EstimateResult.success(root)


@settings(max_examples=300, deadline=None)
@given(grouped_counts(), _OMEGAS, st.floats(1e-3, 1e15), st.integers(1, 5000))
@example(_grouped([0, 1], [3, 4], 1.0), 2000, 500.0, 10)       # every match on a dead degree: NoRoot
@example(_grouped([0, 1, 5], [2, 2, 0], 2.0), 1, 100.0, 10)    # the live degree carries no mass: NoRoot
@example(_grouped([1, 3, 9], [1, 2, 3], 2.5), 2000, 1e15, 2)   # the root lies past the bracket ceiling
@example(_grouped([2, 3, 10**12], [1, 0, 7], 3.0), 2**63, 5e4, 250)
def test_the_set_up_once_solve_returns_the_reference_roots(counts, omega, numerator, size):
    for mass in (counts.match_mass, counts.cross_mass[0]):
        got = estimators._fixed_point(numerator, mass, counts, omega, size)
        assert got == _reference_fixed_point(numerator, mass, counts, omega, size)


def _bisection(f, sample_size):
    """The bracketed bisection the ψ solve used before Illinois regula falsi."""

    def g(x):
        return f(x) - x

    lo = float(max(sample_size, 1))
    g_lo = g(lo)
    if not math.isfinite(g_lo):
        return None
    if g_lo == 0.0:
        return lo
    hi = 10.0 * max(sample_size, 1)
    while True:
        if hi > estimators.BRACKET_CEILING:
            return None
        g_hi = g(hi)
        if not math.isfinite(g_hi):
            return None
        if (g_hi > 0) != (g_lo > 0):
            break
        hi *= 2.0

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= estimators.ROOT_RTOL * max(mid, 1.0):
            return mid
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@settings(max_examples=300, deadline=None)
@given(grouped_counts(), _OMEGAS, st.floats(1e-3, 1e15), st.integers(1, 5000))
@example(_grouped([0, 1], [3, 4], 1.0), 2000, 500.0, 10)       # every match on a dead degree: NoRoot
@example(_grouped([0, 1, 5], [2, 2, 0], 2.0), 1, 100.0, 10)    # the live degree carries no mass: NoRoot
@example(_grouped([1, 3, 9], [1, 2, 3], 2.5), 2000, 1e15, 2)   # the root lies past the bracket ceiling
@example(_grouped([2, 3, 10**12], [1, 0, 7], 3.0), 2**63, 5e4, 250)
def test_the_root_is_bisections_to_within_the_root_tolerance(counts, omega, numerator, size):
    for mass in (counts.match_mass, counts.cross_mass[0]):
        got = estimators._fixed_point(numerator, mass, counts, omega, size)
        with mock.patch.object(estimators, "_solve_fixed_point", _bisection):
            want = estimators._fixed_point(numerator, mass, counts, omega, size)
        assert got.failure_cause is want.failure_cause
        if not want.failed:
            assert abs(got.value - want.value) <= estimators.ROOT_RTOL * want.value


def test_a_hashed_root_takes_at_most_ten_evaluations_on_average():
    """Evaluations of f per ψ solve of n2ψ and n3ψ on Poisson 5k graphs (λ = 10),
    r in {250, 750} and ω in {2000, 32000, 256000}: bisection took 34."""
    evaluations = []
    solve = estimators._solve_fixed_point

    def counted_solve(f, sample_size):
        def counted(x):
            evaluations[-1] += 1
            return f(x)

        evaluations.append(0)
        return solve(counted, sample_size)

    with mock.patch.object(estimators, "_solve_fixed_point", counted_solve):
        for gi in range(2):
            g = sample_graph(Family.CONFIG_POISSON, 10.0, 5000, np.random.default_rng([5, gi]))
            for r in (250, 750):
                sample = rds_capture(g, RdsConfig(target_size=r), np.random.default_rng([5, gi, r]))
                for omega in (2000, 32000, 256000):
                    codes = assign_hashes(g.n, HashSpace(omega), np.random.default_rng([5, gi, r, omega]))
                    hs = hashed_view(sample, codes)
                    estimate_n2_hashed(hs, omega)
                    estimate_n3_hashed(hs, omega)
    assert len(evaluations) == 24
    assert sum(evaluations) / len(evaluations) <= 10


def test_the_reference_examples_include_no_root():
    dead = _grouped([0, 1], [3, 4], 1.0)
    assert estimators._fixed_point(500.0, dead.match_mass, dead, 2000, 10).failure_cause is FailureCause.NO_ROOT
    far = _grouped([1, 3, 9], [1, 2, 3], 2.5)
    assert estimators._fixed_point(1e15, far.match_mass, far, 2000, 2).failure_cause is FailureCause.NO_ROOT


def test_no_root_when_the_expected_true_mass_is_zero_at_the_upper_bracket_end():
    # d~ near the float maximum: (n' - 1) / omega * d~ overflows at n' = 10, so every match's probability is 0 there
    counts = _grouped([2], [1], 1e308)
    assert estimators._true_mass_of(counts, counts.match_mass, 1)(10.0) == 0.0
    assert estimators._solve_fixed_point(lambda x: 100.0 if x < 10.0 else math.inf, 1) is None
    assert estimators._fixed_point(100.0, counts.match_mass, counts, 1, 1).failure_cause is FailureCause.NO_ROOT


def test_the_solver_takes_the_midpoint_when_the_secant_point_lands_on_a_bracket_end():
    # f(10) - 10 is exactly 0.0, so the first secant point is the upper end itself
    points = []

    def f(x):
        points.append(x)
        return 10.0

    root = estimators._solve_fixed_point(f, 1)
    assert points[:3] == [1.0, 10.0, 5.5]
    assert abs(root - 10.0) <= estimators.ROOT_RTOL * 10.0


@settings(max_examples=150, deadline=None)
@given(captures(), _OMEGAS, st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.lists(st.floats(1.0, 1e12), min_size=1, max_size=4))
def test_m_hat_and_x_hat_equal_the_per_degree_formula(capture, omega, code_space, seed, points):
    g, sample = capture
    hs = hashed_view(sample, assign_hashes(g.n, HashSpace(code_space), np.random.default_rng(seed)))
    counts = hs.counts
    assume(counts.harmonic_degree is not None)
    for n_prime in points:
        prob = collision_prob(n_prime, omega, counts.harmonic_degree, counts.mass_degrees)
        assert m_hat(hs, n_prime, omega) == float(counts.match_mass @ prob)
        for i, label in enumerate(counts.labels.tolist()):
            assert x_hat(hs, label, n_prime, omega) == float(counts.cross_mass[i] @ prob)
