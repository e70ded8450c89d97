import numpy as np
import pytest

from netsize.estimators import FailureCause, estimate_n2, estimate_n3
from netsize.generators import Family, sample_graph
from netsize.hashing import (
    HashMode,
    HashSpace,
    HashedSample,
    assign_hashes,
    collision_prob,
    estimate_n2_hashed,
    estimate_n3_hashed,
    hashed_to_rows,
    hashed_view,
    m_hat,
    rows_to_hashed,
    telefunken_encode,
    x_hat,
)
from netsize.multiset import Multiset
from netsize.sampling import RdsConfig, rds_capture, read_sample_dump, write_sample_dump
from netsize.graph import MultiGraph

CYCLE4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


# --- codec ---------------------------------------------------------------

def test_telefunken_examples():
    # digit 7 -> (odd, high) = bits 11; digit 2 -> (even, low) = 00
    assert telefunken_encode("27", 2) == 0b1100
    assert telefunken_encode("00", 2) == 0b0000
    assert telefunken_encode("5", 1) == 0b11
    # longer strings use only the last k digits
    assert telefunken_encode("555527", 2) == 0b1100


def test_telefunken_rejects_bad_input():
    with pytest.raises(ValueError):
        telefunken_encode("2x", 2)
    with pytest.raises(ValueError):
        telefunken_encode("7", 2)
    with pytest.raises(ValueError):
        HashSpace(16, HashMode.TELEFUNKEN, telefunken_digits=3)  # 4**3 != 16


# --- assignment ----------------------------------------------------------

def test_single_code_space():
    codes = assign_hashes(20, HashSpace(1), np.random.default_rng(0))
    assert (codes == 0).all()


def test_injective_permutation():
    codes = assign_hashes(5, HashSpace(5, HashMode.INJECTIVE), np.random.default_rng(1))
    assert sorted(codes.tolist()) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        assign_hashes(6, HashSpace(5, HashMode.INJECTIVE), np.random.default_rng(1))


def test_injective_huge_space_distinct():
    codes = assign_hashes(5000, HashSpace(10**9, HashMode.INJECTIVE), np.random.default_rng(2))
    assert len(set(codes.tolist())) == 5000


def test_random_function_load_concentration():
    codes = assign_hashes(100_000, HashSpace(1000), np.random.default_rng(3))
    loads = np.bincount(codes, minlength=1000)
    # ~ +/- 4 sigma around the mean load of 100
    assert loads.min() >= 60 and loads.max() <= 140


def test_telefunken_assignment_matches_scalar_codec():
    k = 3
    space = HashSpace(4**k, HashMode.TELEFUNKEN, telefunken_digits=k)
    rng = np.random.default_rng(4)
    codes = assign_hashes(500, space, rng)
    # regenerate the same digit matrix and encode row by row
    rng2 = np.random.default_rng(4)
    digits = rng2.integers(0, 10, size=(500, k))
    for i in range(500):
        text = "".join(str(d) for d in digits[i])
        assert telefunken_encode(text, k) == codes[i]
    assert codes.max() < 4**k


# --- hashed views --------------------------------------------------------

def _cycle_sample():
    cfg = RdsConfig(target_size=4, num_seeds=1, recruit_law=((2, 1.0),), seeds=(0,))
    return rds_capture(CYCLE4, cfg, np.random.default_rng(3))


def test_hashed_view_injective_equals_plaintext():
    sample = _cycle_sample()
    assignment = assign_hashes(4, HashSpace(10**6, HashMode.INJECTIVE), np.random.default_rng(0))
    hs = hashed_view(sample, assignment)
    assert hs.counts.matches == 2  # plaintext hand trace
    assert hs.counts.free == 2
    assert hs.counts.comp_size.sum() == 4


def test_hashed_view_single_code_all_match():
    g = sample_graph(Family.CONFIG_POISSON, 5.0, 100, np.random.default_rng(1))
    sample = rds_capture(g, RdsConfig(target_size=30), np.random.default_rng(2))
    hs = hashed_view(sample, assign_hashes(100, HashSpace(1), np.random.default_rng(0)))
    assert hs.counts.matches == hs.counts.free


def test_hashed_to_rows_rejects_other_recruiters():
    hs = hashed_view(_cycle_sample(), np.arange(4))
    assert hashed_to_rows(hs, hs.recruiter_codes) is hs
    with pytest.raises(ValueError):
        hashed_to_rows(hs, [None] * hs.size)


def test_hashed_view_missing_assignment():
    sample = _cycle_sample()
    with pytest.raises(ValueError):
        hashed_view(sample, np.array([0, 1]))


# --- collision correction ------------------------------------------------

def test_collision_prob_substitution():
    assert collision_prob(101, 100, 2.0, 3) == 0.5
    assert collision_prob(101, 100, 2.0, 1) == 0.0
    assert collision_prob(5000, 10**12, 3.0, 4) == pytest.approx(1.0, abs=1e-6)


def _single_match_sample() -> HashedSample:
    # three degree-2 subjects; one reported alter code collides with a
    # subject code, one does not
    return HashedSample(
        codes=(1, 2, 3),
        degrees=(2, 2, 2),
        alter_codes=(Multiset([2, 9]), Multiset(), Multiset()),
        components=(0, 0, 0),
    )


def test_m_hat_closed_form():
    hs = _single_match_sample()
    for n_prime in (1.0, 6.0, 11.0, 101.0):
        assert m_hat(hs, n_prime, 10) == pytest.approx(1.0 / (1.0 + (n_prime - 1.0) / 5.0))


def test_m_hat_strictly_decreasing():
    hs = _single_match_sample()
    values = [m_hat(hs, x, 10) for x in (1, 5, 25, 125, 625)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_m_hat_no_matches_zero():
    hs = HashedSample(codes=(1, 2), degrees=(3, 3),
                      alter_codes=(Multiset([7]), Multiset([8])), components=(0, 0))
    assert m_hat(hs, 50.0, 10) == 0.0


def test_n2_hashed_closed_form_root():
    # numerator 3 with m_hat(n') = 1/(1+(n'-1)/5) solves 3(1+(n'-1)/5) = n'
    hs = _single_match_sample()
    res = estimate_n2_hashed(hs, 10)
    assert res.value == pytest.approx(6.0, rel=1e-9)


@pytest.mark.parametrize("omega", [0, -5])
def test_hashed_estimators_reject_omega_below_one(omega):
    hs = _single_match_sample()
    for solve in (estimate_n2_hashed, estimate_n3_hashed):
        with pytest.raises(ValueError, match=f"omega must be at least 1, got {omega}"):
            solve(hs, omega)


@pytest.mark.parametrize("omega", [0, -5])
def test_public_omega_functions_reject_omega_below_one(omega):
    hs = _single_match_sample()
    calls = (
        lambda: m_hat(hs, 10.0, omega),
        lambda: x_hat(hs, 0, 10.0, omega),
        lambda: collision_prob(10.0, omega, 2.0, 3),
        lambda: collision_prob(10.0, omega, 2.0, np.array([1, 3])),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"omega must be at least 1, got {omega}"):
            call()


def test_n2_hashed_zero_matches():
    hs = HashedSample(codes=(1, 2), degrees=(3, 3),
                      alter_codes=(Multiset([7]), Multiset([8])), components=(0, 0))
    res = estimate_n2_hashed(hs, 10)
    assert res.failed and res.failure_cause is FailureCause.ZERO_MATCHES


def test_n2_hashed_no_root_when_matched_degrees_are_one():
    # the only matched subject has degree 1: the correction mass is zero
    hs = HashedSample(
        codes=(1, 2, 3),
        degrees=(1, 2, 2),
        alter_codes=(Multiset(), Multiset([1]), Multiset()),
        components=(0, 0, 0),
    )
    res = estimate_n2_hashed(hs, 10)
    assert res.failed and res.failure_cause is FailureCause.NO_ROOT


def _rds_on_config(seed=1, n=150, lam=8.0, r=50):
    g = sample_graph(Family.CONFIG_POISSON, lam, n, np.random.default_rng(seed))
    return g, rds_capture(g, RdsConfig(target_size=r), np.random.default_rng(seed + 1))


def test_injective_reduction_n2():
    g, sample = _rds_on_config()
    plain = estimate_n2(sample)
    assignment = assign_hashes(g.n, HashSpace(10**9, HashMode.INJECTIVE), np.random.default_rng(5))
    hashed = estimate_n2_hashed(hashed_view(sample, assignment), 10**9)
    assert abs(hashed.value - plain.value) <= 1e-6 * plain.value


def test_injective_reduction_n3():
    g, sample = _rds_on_config(seed=7)
    plain = estimate_n3(sample)
    assignment = assign_hashes(g.n, HashSpace(10**9, HashMode.INJECTIVE), np.random.default_rng(8))
    hashed = estimate_n3_hashed(hashed_view(sample, assignment), 10**9)
    assert abs(hashed.value - plain.value) <= 1e-6 * plain.value


def test_x_hat_injective_matches_plaintext_cross_counts():
    cfg = RdsConfig(target_size=4, num_seeds=2, recruit_law=((2, 1.0),), seeds=(0, 2))
    sample = rds_capture(CYCLE4, cfg, np.random.default_rng(5))
    assignment = assign_hashes(4, HashSpace(10**9, HashMode.INJECTIVE), np.random.default_rng(0))
    hs = hashed_view(sample, assignment)
    for label, cross in zip(hs.counts.labels, hs.counts.cross):
        assert cross == 2  # plaintext hand trace
        assert x_hat(hs, label, 4.0, 10**9) == pytest.approx(2.0, rel=1e-6)


def test_x_hat_no_cross_edges():
    hs = HashedSample(
        codes=(1, 2, 3, 4),
        degrees=(2, 2, 2, 2),
        alter_codes=(Multiset([2]), Multiset([1]), Multiset([4]), Multiset([3])),
        components=(0, 0, 1, 1),
    )
    assert x_hat(hs, 0, 10.0, 100) == 0.0
    res = estimate_n3_hashed(hs, 100)
    assert res.failed and res.failure_cause is FailureCause.ZERO_CROSS_MATCHES


def test_n3_hashed_single_component_is_caller_error():
    hs = _single_match_sample()
    with pytest.raises(ValueError):
        estimate_n3_hashed(hs, 10)


def test_hashed_dump_round_trip(tmp_path):
    g, sample = _rds_on_config(seed=11)
    assignment = assign_hashes(g.n, HashSpace(4096), np.random.default_rng(12))
    hs = hashed_view(sample, assignment)
    path = tmp_path / "hashed.csv"
    write_sample_dump(hashed_to_rows(hs), path)
    back = rows_to_hashed(read_sample_dump(path))
    for column in ("codes", "degrees", "components", "alter_codes", "alter_offsets"):
        assert np.array_equal(getattr(back, column), getattr(hs, column)), column
    assert back.recruiter_codes == hs.recruiter_codes
    # estimates agree on the round-tripped view
    a = estimate_n2_hashed(hs, 4096)
    b = estimate_n2_hashed(back, 4096)
    assert a.value == b.value
