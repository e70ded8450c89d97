import math
import re

import numpy as np
import pytest

from netsize.estimators import (
    FailureCause, collision_prob, estimate_n2, estimate_n2_hashed, estimate_n3, estimate_n3_hashed, m_hat, x_hat,
)
from netsize.generators import Family, sample_graph
from netsize.hashing import (
    HashMode,
    HashSpace,
    HashedSample,
    assign_hashes,
    hashed_to_rows,
    hashed_view,
    rows_to_hashed,
    telefunken_encode,
)
from netsize.sampling import RdsConfig, Sample, rds_capture, read_sample_dump, write_sample_dump
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
    for k in (0, 32):  # a code of 32 digits no longer fits an int64
        with pytest.raises(ValueError, match=f"^need 1 to 31 digits, got {k}$"):
            telefunken_encode("1" * 40, k)
    for text in ("\u0663\u0664", "1\u00b2"):  # Arabic-Indic and superscript digits
        with pytest.raises(ValueError, match="^non-digit characters"):
            telefunken_encode(text, 2)
    for size in (1, 8):  # 4**0 codes no digit; 8 is no power of 4
        with pytest.raises(ValueError, match=r"^telefunken mode needs size == 4\*\*digits$"):
            HashSpace(size, HashMode.TELEFUNKEN)


def test_hash_space_holds_at_most_2_63_codes():
    # every code in [0, size) must be an int64
    codes = assign_hashes(1000, HashSpace(2**63), np.random.default_rng(0))
    assert codes.dtype == np.int64 and (codes >= 0).all()
    assert HashSpace(4**31, HashMode.TELEFUNKEN).telefunken_digits == 31
    for size, mode in ((2**63 + 1, HashMode.RANDOM_FUNCTION), (4**32, HashMode.TELEFUNKEN)):
        with pytest.raises(ValueError, match=rf"^hash space must contain at most 2\*\*63 codes, got {size}$"):
            HashSpace(size, mode)


@pytest.mark.parametrize("mode", list(HashMode), ids=lambda mode: mode.value)
def test_a_hash_space_takes_its_mode_by_plan_name(mode):
    space = HashSpace(4**5, mode.value)
    assert space == HashSpace(4**5, mode) and space.mode is mode
    codes = assign_hashes(50, space, np.random.default_rng(4))
    assert codes.tolist() == assign_hashes(50, HashSpace(4**5, mode), np.random.default_rng(4)).tolist()
    with pytest.raises(ValueError, match="^'bogus' is not a valid HashMode$"):
        HashSpace(16, "bogus")
    with pytest.raises(ValueError, match=r"^telefunken mode needs size == 4\*\*digits$"):
        HashSpace(8, "telefunken")


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
    space = HashSpace(4**k, HashMode.TELEFUNKEN)
    assert space.telefunken_digits == k
    rng = np.random.default_rng(4)
    codes = assign_hashes(500, space, rng)
    # regenerate the same digit matrix and encode row by row
    rng2 = np.random.default_rng(4)
    digits = rng2.integers(0, 10, size=(500, k))
    for i in range(500):
        text = "".join(str(d) for d in digits[i])
        assert telefunken_encode(text, k) == codes[i]
    assert codes.max() < 4**k


def _reference_telefunken(text: str) -> int:
    """The scalar rule: digits last to first, each shifting in its (parity, >= 5) bits."""
    code = 0
    for ch in reversed(text):
        d = int(ch)
        code = (code << 2) | ((d & 1) << 1) | (d >= 5)
    return code


@pytest.mark.parametrize("k", [1, 3, 8, 31])
def test_telefunken_codes_follow_the_scalar_rule(k):
    codes = assign_hashes(300, HashSpace(4**k, HashMode.TELEFUNKEN), np.random.default_rng(k))
    digits = np.random.default_rng(k).integers(0, 10, size=(300, k))
    for row, code in zip(digits, codes):
        text = "".join(map(str, row))
        assert telefunken_encode("5" + text, k) == _reference_telefunken(text) == code
    assert telefunken_encode("9" * k, k) == 4**k - 1


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
    # a negative code would wrap to the assignment's last entries
    for codes, alters in (((-3, 1), (1,)), ((0, 1), (-3,))):
        sample = Sample(codes=codes, degrees=(1, 1), alter_codes=alters, alter_offsets=(0, 1, 1), components=(0, 1))
        with pytest.raises(ValueError, match="identity -3 has no assigned code"):
            hashed_view(sample, np.arange(4))


@pytest.mark.parametrize("assignment, message", [
    (np.arange(4.0), "code assignment must be integers, got float64 values"),
    ([True, False, True, True], "code assignment must be integers, got bool values"),
    (np.arange(4).reshape(2, 2), "code assignment must be a flat sequence of ints"),
])
def test_hashed_view_names_a_bad_assignment(assignment, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        hashed_view(_cycle_sample(), assignment)


# --- collision correction ------------------------------------------------

def test_collision_prob_substitution():
    assert collision_prob(101, 100, 2.0, 3) == 0.5
    assert collision_prob(101, 100, 2.0, 1) == collision_prob(101, 100, 2.0, 0) == 0.0
    assert collision_prob(101, 100, 2.0, [0, 1, 3, 2**62]).tolist() == [0.0, 0.0, 0.5, 1.0]
    assert collision_prob(5000, 10**12, 3.0, 4) == pytest.approx(1.0, abs=1e-6)


def _single_match_sample() -> HashedSample:
    # three degree-2 subjects; one reported alter code collides with a
    # subject code, one does not
    return HashedSample(
        codes=(1, 2, 3),
        degrees=(2, 2, 2),
        alter_codes=(2, 9),
        alter_offsets=(0, 2, 2, 2),
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
                      alter_codes=(7, 8), alter_offsets=(0, 1, 2), components=(0, 0))
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
        with pytest.raises(ValueError, match=f"omega must be a finite number of at least 1, got {omega}"):
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
        with pytest.raises(ValueError, match=f"omega must be a finite number of at least 1, got {omega}"):
            call()


@pytest.mark.parametrize("n_prime", [-1.0, 0.5, 0.0, 0, math.nan, -math.inf, pytest.param(10**400, id="10**400"),
                                     math.inf, True, "5"])
def test_public_psi_functions_reject_n_prime_below_one(n_prime):
    hs = _single_match_sample()
    calls = (
        lambda: m_hat(hs, n_prime, 10),
        lambda: x_hat(hs, 0, n_prime, 10),
        lambda: collision_prob(n_prime, 10, 2.0, 3),
        lambda: collision_prob(n_prime, 1, 1.0, np.array([2, 3])),
    )
    message = f"n_prime must be a finite number of at least 1, got {n_prime!r}"
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize("d_tilde", [-2.0, 0.0, math.nan, math.inf, pytest.param(10**400, id="10**400")])
def test_collision_prob_rejects_a_harmonic_degree_that_is_not_positive_and_finite(d_tilde):
    with pytest.raises(ValueError, match=f"^d_tilde_s must be positive and finite, got {d_tilde!r}$"):
        collision_prob(10.0, 10, d_tilde, 3)


@pytest.mark.parametrize("omega", [True, False, np.True_, math.nan, math.inf, pytest.param(10**400, id="10**400"),
                                   None, "5"])
def test_omega_must_be_a_finite_number_and_not_a_bool(omega):
    hs = _single_match_sample()
    calls = (
        lambda: estimate_n2_hashed(hs, omega),
        lambda: estimate_n3_hashed(hs, omega),
        lambda: m_hat(hs, 10.0, omega),
        lambda: x_hat(hs, 0, 10.0, omega),
        lambda: collision_prob(10.0, omega, 2.0, 3),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"omega must be a finite number of at least 1, got {omega!r}")):
            call()


@pytest.mark.parametrize("d_w", [math.nan, math.inf, -3, -0.5, [3, math.nan, math.inf], np.array([[2, -1]]),
                                 pytest.param([10**400], id="[10**400]")])
def test_collision_prob_rejects_a_subject_degree_that_is_not_finite_and_non_negative(d_w):
    with pytest.raises(ValueError, match="^d_w must be finite and non-negative, got "):
        collision_prob(10, 10, 2.0, d_w)


@pytest.mark.parametrize("label", [True, False, np.True_, 0.0, 1.0, "0", None])
def test_x_hat_takes_only_an_int_component_label(label):
    hs = HashedSample(codes=(1, 2, 3, 4), degrees=(2, 2, 2, 2),
                      alter_codes=(3, 1, 1, 3), alter_offsets=(0, 1, 2, 3, 4), components=(0, 0, 1, 1))
    with pytest.raises(ValueError, match=f"^a component label must be an integer, got {re.escape(repr(label))}$"):
        x_hat(hs, label, 10.0, 100)
    assert x_hat(hs, np.int64(1), 10.0, 100) == x_hat(hs, 1, 10.0, 100) > 0


@pytest.mark.parametrize("label", [2, -1])
def test_x_hat_rejects_a_label_of_no_component(label):
    hs = HashedSample(codes=(1, 2, 3, 4), degrees=(2, 2, 2, 2),
                      alter_codes=(3, 1, 1, 3), alter_offsets=(0, 1, 2, 3, 4), components=(0, 0, 1, 1))
    with pytest.raises(ValueError, match=f"^no referral component labelled {label}$"):
        x_hat(hs, label, 10.0, 100)


def test_an_all_degree_one_sample_with_a_match_has_degenerate_degrees():
    # two degree-1 seeds that name each other: the match must not hide the degrees
    hs = Sample(codes=(1, 2), degrees=(1, 1), alter_codes=(2, 1), alter_offsets=(0, 1, 2), components=(0, 1))
    assert hs.counts.matches == 2
    for result in (estimate_n2(hs), estimate_n3(hs), estimate_n2_hashed(hs, 1000), estimate_n3_hashed(hs, 1000)):
        assert result.failure_cause is FailureCause.DEGENERATE_DEGREES


def test_n2_hashed_zero_matches():
    hs = HashedSample(codes=(1, 2), degrees=(3, 3),
                      alter_codes=(7, 8), alter_offsets=(0, 1, 2), components=(0, 0))
    res = estimate_n2_hashed(hs, 10)
    assert res.failed and res.failure_cause is FailureCause.ZERO_MATCHES


def test_n2_hashed_no_root_when_matched_degrees_are_one():
    # the only matched subject has degree 1: the correction mass is zero
    hs = HashedSample(
        codes=(1, 2, 3),
        degrees=(1, 2, 2),
        alter_codes=(1,),
        alter_offsets=(0, 0, 1, 1),
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
        alter_codes=(2, 1, 4, 3),
        alter_offsets=(0, 1, 2, 3, 4),
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


@pytest.mark.parametrize("omega", [0, -5, None])  # None once meant plaintext: n2/n3 with no correction
def test_hashed_estimators_check_omega_before_anything_else(omega):
    empty = Sample(codes=(), degrees=(), alter_codes=(), alter_offsets=(0,), components=())
    zero_degree = Sample(codes=(0, 1), degrees=(0, 2), alter_codes=(0,), alter_offsets=(0, 0, 1), components=(0, 1))
    one_component = Sample(codes=(0, 1), degrees=(2, 2), alter_codes=(1, 0), alter_offsets=(0, 1, 2), components=(0, 0))
    for sample in (empty, zero_degree, one_component):
        for solve in (estimate_n2_hashed, estimate_n3_hashed):
            with pytest.raises(ValueError, match=f"omega must be a finite number of at least 1, got {omega}"):
                solve(sample, omega)
