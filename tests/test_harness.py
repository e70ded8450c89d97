import re
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsize.estimators import EstimateResult, FailureCause
from netsize import harness
from netsize.generators import Family
from netsize.harness import (
    ExperimentPlan,
    derive_rng,
    failure_curve,
    parse_plan,
    raw_csv_lines,
    run_plan,
    summarize,
    summarize_rows,
    summary_csv_lines,
)

OK = EstimateResult.success
FAIL = EstimateResult.failure


def test_summarize_tukey_hinges():
    row = summarize([OK(v) for v in (3, 1, 5, 2, 4)])
    assert (row.median, row.q1, row.q3) == (3, 1.5, 4.5)
    assert (row.minimum, row.maximum) == (1, 5)
    assert row.failure_rate == 0.0


def test_summarize_single_value():
    row = summarize([OK(7.0)])
    assert row.median == row.q1 == row.q3 == 7.0


def test_summarize_even_count():
    row = summarize([OK(v) for v in (1, 2, 3, 4)])
    assert (row.median, row.q1, row.q3) == (2.5, 1.5, 3.5)


def test_summarize_failures_excluded_from_quartiles():
    results = [OK(v) for v in range(1, 8)] + [FAIL(FailureCause.ZERO_MATCHES)] * 3
    row = summarize(results)
    assert row.count == 10
    assert row.failure_rate == pytest.approx(0.3)
    assert row.median == 4  # over the 7 successes


def test_summarize_all_failed():
    row = summarize([FAIL(FailureCause.ZERO_MATCHES)] * 4)
    assert row.failure_rate == 1.0
    assert row.median is None and row.q1 is None and row.q3 is None


TINY = ExperimentPlan(
    families=(Family.ERDOS_RENYI,),
    lambdas=(6.0,),
    sizes=(120,),
    sample_sizes=(30,),
    estimators=("n2",),
    graph_replicates=2,
    sample_replicates=3,
    seed=5,
)


def test_plan_row_counts():
    raw, summaries = run_plan(TINY)
    assert len(raw) == 6  # 1 family x 1 lam x 1 n x 1 r x 2 graphs x 3 samples
    assert len(summaries) == 1
    assert summaries[0].count == 6
    assert TINY.run_count() == 6


def test_paper_scale_run_count():
    plan = ExperimentPlan(
        families=tuple(Family),
        lambdas=(3.0, 5.0, 10.0),
        sizes=(5000, 10_000, 20_000, 40_000),
        sample_sizes=(250, 500, 750),
        estimators=("n1", "n2"),
        graph_replicates=30,
        sample_replicates=30,
        seed=0,
    )
    assert plan.run_count() == 324_000


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan(families=(), lambdas=(3.0,), sizes=(100,), sample_sizes=(10,),
                       estimators=("n1",))
    with pytest.raises(ValueError):
        ExperimentPlan(families=(Family.ERDOS_RENYI,), lambdas=(3.0,), sizes=(100,),
                       sample_sizes=(10,), estimators=("bogus",))
    with pytest.raises(ValueError):  # hashed estimator without code-space sizes
        ExperimentPlan(families=(Family.ERDOS_RENYI,), lambdas=(3.0,), sizes=(100,),
                       sample_sizes=(10,), estimators=("n2psi",))
    with pytest.raises(ValueError):  # sample larger than the population
        ExperimentPlan(families=(Family.ERDOS_RENYI,), lambdas=(3.0,), sizes=(100,),
                       sample_sizes=(200,), estimators=("n1",))


SCRAMBLED = ExperimentPlan(
    families=(Family.CONFIG_POISSON,),
    lambdas=(6.0,),
    sizes=(150,),
    sample_sizes=(25,),
    estimators=("n3psi", "n1", "n3", "n2psi", "n2"),
    omegas=(500, 4096),
    sample_replicates=2,
    seed=3,
)


def test_raw_rows_follow_the_table_order_whatever_the_plan_order():
    raw, _ = run_plan(SCRAMBLED)
    per_sample = [("n1", None), ("n2", None), ("n3", None), ("n2psi", 500), ("n3psi", 500),
                  ("n2psi", 4096), ("n3psi", 4096)]
    assert [(row.estimator, row.omega) for row in raw] == per_sample * 2
    assert [row.sample_idx for row in raw] == [0] * 7 + [1] * 7
    assert SCRAMBLED.run_count() == len(raw)


def test_summaries_follow_the_plan_order_with_omega_inside_each_name():
    _, summaries = run_plan(SCRAMBLED)
    assert [(row.estimator, row.omega) for row in summaries] == [
        ("n3psi", 500), ("n3psi", 4096), ("n1", None), ("n3", None),
        ("n2psi", 500), ("n2psi", 4096), ("n2", None),
    ]
    assert all(row.count == 2 for row in summaries)


def test_runs_deterministic_and_order_free():
    raw1, sum1 = run_plan(TINY)
    raw2, sum2 = run_plan(TINY)
    assert raw_csv_lines(raw1) == raw_csv_lines(raw2)
    assert summary_csv_lines(sum1) == summary_csv_lines(sum2)


def test_workers_do_not_change_output():
    plan = ExperimentPlan(
        families=(Family.ERDOS_RENYI, Family.CONFIG_POISSON),
        lambdas=(5.0,),
        sizes=(150,),
        sample_sizes=(25,),
        estimators=("n1", "n2", "n2psi"),
        omegas=(64, 4096),
        graph_replicates=2,
        sample_replicates=2,
        seed=11,
    )
    raw1, sum1 = run_plan(plan, workers=1)
    raw2, sum2 = run_plan(plan, workers=2)
    assert raw_csv_lines(raw1) == raw_csv_lines(raw2)
    assert summary_csv_lines(sum1) == summary_csv_lines(sum2)


def test_summaries_recomputable_from_raw():
    raw, summaries = run_plan(TINY)
    assert summarize_rows(TINY, raw) == summaries


def test_derive_rng_is_stable_and_distinct():
    a = derive_rng(1, "graph", "er", 3.0, 100, 0).integers(0, 2**32, 4)
    b = derive_rng(1, "graph", "er", 3.0, 100, 0).integers(0, 2**32, 4)
    c = derive_rng(1, "graph", "er", 3.0, 100, 1).integers(0, 2**32, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_failure_curve_aggregates_over_cells():
    plan = ExperimentPlan(
        families=(Family.ERDOS_RENYI,),
        lambdas=(4.0, 8.0),
        sizes=(80, 160),
        sample_sizes=(20,),
        estimators=("n2",),
        graph_replicates=1,
        sample_replicates=4,
        seed=3,
    )
    _, summaries = run_plan(plan)
    curve = failure_curve(summaries, "n2", 20)
    assert [n for n, _ in curve] == [80, 160]
    for _, rate in curve:
        assert 0.0 <= rate <= 1.0


def test_parse_plan_round_trip():
    text = """
    # demo plan
    families = er, poisson
    lambdas = 3, 10
    sizes = 500
    r = 50, 100
    estimators = n1, n2, n2psi
    omegas = 2000
    graph_replicates = 2
    sample_replicates = 3
    seed = 9
    """
    plan = parse_plan(text)
    assert plan.families == (Family.ERDOS_RENYI, Family.CONFIG_POISSON)
    assert plan.lambdas == (3.0, 10.0)
    assert plan.sample_sizes == (50, 100)
    assert plan.omegas == (2000,)
    assert plan.seed == 9


def test_parse_plan_errors():
    with pytest.raises(ValueError):
        parse_plan("families = er\nlambdas = 3\nsizes = 100\nestimators = n1\nbogus = 1\nr = 10")
    with pytest.raises(ValueError):
        parse_plan("families = er\nlambdas = 3\nsizes = 100\nestimators = n1")  # missing r
    with pytest.raises(ValueError):
        parse_plan("families = marslink\nlambdas = 3\nsizes = 100\nr = 10\nestimators = n1")


_VALID_PLAN = "families = er\nlambdas = 3\nsizes = 100\nr = 10\nestimators = n1\n"


@pytest.mark.parametrize("line, message", [
    ("lambdas = x", "plan line 6: lambdas: could not convert string to float: 'x'"),
    ("sizes = 1e3", "plan line 6: sizes: invalid literal for int"),
    ("graph_replicates = two", "plan line 6: graph_replicates: invalid literal for int"),
    ("seed =", "plan line 6: seed: invalid literal for int"),
    ("omegas = 2000, 3.5", "plan line 6: omegas: invalid literal for int"),
    ("families = er, marslink", "plan line 6: families: unknown family 'marslink'"),
])
def test_parse_plan_names_the_line_of_a_bad_value(line, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        parse_plan(_VALID_PLAN + line)


_PLAN_VALUES = st.one_of(
    st.lists(st.one_of(
        st.integers(-5, 2**70).map(str),
        st.sampled_from(["er", "poisson", "ba", "n1", "n2", "n3psi", "3.5", "1e3", "x", "nan", "-inf"]),
        st.text(alphabet=" ,.-+_e0123456789", max_size=4),
    ), max_size=3).map(", ".join),
    st.text(max_size=6),
)
_PLAN_LINES = st.lists(st.one_of(
    st.tuples(st.sampled_from(sorted(harness._PLAN_KEYS) + ["bogus"]), _PLAN_VALUES).map(" = ".join),
    st.text(alphabet="=#, \tab1", max_size=6),
), max_size=14)


@settings(max_examples=400, deadline=None)
@given(lines=_PLAN_LINES, valid_first=st.booleans())
def test_parse_plan_fuzz_gives_plan_or_located_error(lines, valid_first):
    text = (_VALID_PLAN if valid_first else "") + "\n".join(lines)
    try:
        plan = parse_plan(text)
    except ValueError as exc:
        # a value that does not parse names its line; the rest is plan-wide
        located = re.match(r"plan line \d+: |plan is missing required key ", str(exc))
        frames = traceback.extract_tb(exc.__traceback__)
        assert located or frames[-1].name == "__post_init__", str(exc)
        return
    assert isinstance(plan, ExperimentPlan)


def test_raw_csv_layout():
    raw, _ = run_plan(TINY)
    lines = raw_csv_lines(raw)
    assert lines[0] == "family,lambda,n,r,omega,estimator,graph_idx,sample_idx,estimate,failed,failure_cause"
    first = lines[1].split(",")
    assert first[0] == "er" and first[5] == "n2"
    assert first[4] == ""  # no code space for a plaintext estimator
