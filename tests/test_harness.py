import concurrent.futures
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsize.estimators import EstimateResult, FailureCause
from netsize import harness
from netsize.generators import Family, check_family, check_size
from netsize.graph import MAX_VERTICES
from netsize.hashing import HashMode, HashSpace
from netsize.harness import (
    ExperimentPlan,
    PlanError,
    RawRow,
    derive_rng,
    failure_curve,
    load_plan,
    parse_plan,
    raw_csv_lines,
    run_plan,
    summarize,
    summarize_rows,
    summary_csv_lines,
)
from netsize.sampling import RdsConfig

OK = EstimateResult.success
FAIL = EstimateResult.failure


def test_summarize_tukey_hinges():
    row = summarize([OK(v) for v in (3, 1, 5, 2, 4)])
    assert (row.median, row.q1, row.q3) == (3, 1.5, 4.5)
    assert (row.minimum, row.maximum) == (1, 5)
    assert row.failure_rate == 0.0


def test_summarize_rejects_an_empty_cell():
    with pytest.raises(ValueError, match="^cannot summarize an empty cell$"):
        summarize([])


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


@pytest.mark.parametrize("field, values, shown", [
    ("families", (Family.ERDOS_RENYI, Family.ERDOS_RENYI), "'er'"),
    ("lambdas", (6.0, 6), "6"),
    ("sizes", (120, 150, 120), "120"),
    ("sample_sizes", (30, 30), "30"),
    ("estimators", ("n2", "n2"), "'n2'"),
    ("omegas", (500, 500), "500"),
])
def test_plan_rejects_a_repeated_value(field, values, shown):
    base = dict(families=(Family.ERDOS_RENYI,), lambdas=(6.0,), sizes=(120,), sample_sizes=(30,),
                estimators=("n2", "n2psi"), omegas=(500,))
    with pytest.raises(PlanError, match=f"^{re.escape(shown)} is listed more than once$") as caught:
        ExperimentPlan(**{**base, field: values})
    assert caught.value.key == field


@pytest.mark.parametrize("field, values, message", [
    ("lambdas", (3.0, float("nan")), "er graphs on 100 vertices: mean degree must be finite, got nan"),
    ("lambdas", (-0.5,), "er graphs on 100 vertices: mean degree must lie in [0, n-1], got -0.5"),
    ("lambdas", (float("-inf"),), "er graphs on 100 vertices: mean degree must be finite, got -inf"),
    ("omegas", (512, -5), "hash space must contain at least one code, got -5"),
    pytest.param("lambdas", (10**400,), f"er graphs on 100 vertices: mean degree must lie in [0, n-1], "
                 f"got {10**400}", id="lambdas-10**400"),
    pytest.param("lambdas", (10**5000,), "er graphs on 100 vertices: mean degree must lie in [0, n-1], "
                 "got 1.000e+5000", id="lambdas-10**5000"),
])
def test_experiment_plan_rejects_out_of_range_lambdas_and_omegas(field, values, message):
    base = dict(families=(Family.ERDOS_RENYI,), lambdas=(3.0,), sizes=(100,), sample_sizes=(10,),
                estimators=("n2", "n2psi"), omegas=(512,))
    with pytest.raises(PlanError, match="^" + re.escape(message) + "$") as caught:
        ExperimentPlan(**{**base, field: values})
    assert caught.value.key == field


def _raised(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return exc
    return None


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(Family),
       lam=st.one_of(st.integers(-5, 200), st.floats(-5, 200), st.sampled_from([math.nan, math.inf, -math.inf]),
                     st.booleans(), st.text(max_size=3), st.integers(2**1024, 2**1100)),
       n=st.one_of(st.integers(-3, 300), st.floats(-3, 300), st.booleans(),
                   st.sampled_from([0, 1, MAX_VERTICES, MAX_VERTICES + 1, 10**20])))
def test_a_plan_rejects_a_graph_exactly_when_its_owner_does(family, lam, n):
    # the plan states no rule of its own on λ or n: it reports the owner's message and blames sizes for check_size
    owner = _raised(check_family, family, lam, n)
    with_size = _raised(check_size, family, n)
    try:
        ExperimentPlan(families=(family,), lambdas=(lam,), sizes=(n,), sample_sizes=(1,), estimators=("n1",))
    except PlanError as exc:
        assert owner is not None
        assert exc.key == ("sizes" if with_size else "lambdas")
        assert str(exc) == f"{family.value} graphs on {n} vertices: {owner}"
    else:
        assert owner is None


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(Family),
       n=st.one_of(st.integers(-3, 300), st.sampled_from([MAX_VERTICES, MAX_VERTICES + 1])))
def test_check_size_is_exactly_the_rules_of_check_family_on_n_alone(family, n):
    # a size check_size accepts fits some mean degree, so a plan that fails on λ blames lambdas rightly
    witness = {Family.BARABASI_ALBERT: 2, Family.ERDOS_RENYI: 0}.get(family, 2.0)
    with_size = _raised(check_size, family, n)
    owner = _raised(check_family, family, witness, n)
    if with_size:
        assert str(owner) == str(with_size)
    else:
        assert owner is None


@pytest.mark.parametrize("n", [-4, 0, 1, 2])
def test_a_plan_blames_sizes_for_a_ba_size_below_three(n):
    message = f"plan line 3: sizes: ba graphs on {n} vertices: need at least three vertices"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        parse_plan(f"families = ba\nlambdas = 3\nsizes = {n}\nr = 1\nestimators = n1\n")


@pytest.mark.parametrize("family, lam, n, message", [
    ("ba", "0.5", "100", "ba graphs on 100 vertices: mean degree must be >= 2, got 0.5"),
    ("ba", "3", "3", "ba graphs on 3 vertices: need n > lam, got n=3, lam=3.0"),
    ("er", "500", "100", "er graphs on 100 vertices: mean degree must lie in [0, n-1], got 500.0"),
])
def test_a_plan_rejects_a_mean_degree_its_family_cannot_generate(family, lam, n, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        ExperimentPlan(families=(Family(family), Family.CONFIG_POISSON), lambdas=(float(lam),),
                       sizes=(int(n),), sample_sizes=(2,), estimators=("n1",))
    text = f"families = {family}\nlambdas = {lam}\nsizes = {n}\nr = 2\nestimators = n1\n"
    with pytest.raises(ValueError, match="^" + re.escape("plan line 2: lambdas: " + message) + "$"):
        parse_plan(text)


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


def test_the_field_name_sample_sizes_is_not_a_plan_key():
    plan = _VALID_PLAN.replace("r = 10", "sample_sizes = 10")
    with pytest.raises(ValueError, match="^" + re.escape("plan line 4: unknown key 'sample_sizes'") + "$"):
        parse_plan(plan)


def test_run_plan_starts_no_more_workers_than_graphs(monkeypatch):
    started = []

    class RecordingPool:  # runs the tasks in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)  # run_plan imports it on use
    plan = ExperimentPlan(families=(Family.ERDOS_RENYI,), lambdas=(4.0,), sizes=(60,), sample_sizes=(10,),
                          estimators=("n1",), graph_replicates=2)
    raw, _ = run_plan(plan, workers=500)
    assert started == [2]
    assert raw_csv_lines(raw) == raw_csv_lines(run_plan(plan)[0])


def test_summaries_recomputable_from_raw():
    raw, summaries = run_plan(TINY)
    assert summarize_rows(TINY, raw) == summaries


def test_a_raw_row_outside_the_plan_raises():
    raw, _ = run_plan(TINY)
    stray = RawRow("er", 6.0, 120, 30, None, "n1", 0, 0, OK(120.0))
    message = "raw row of cell ('er', 6.0, 120, 30, None, 'n1') is not in the plan"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        summarize_rows(TINY, [*raw, stray])


@pytest.mark.parametrize("workers", [0, -3])
def test_run_plan_needs_at_least_one_worker(workers):
    with pytest.raises(ValueError, match=f"^need at least one worker, got {workers}$"):
        run_plan(TINY, workers=workers)


def _tiny(**changes):
    return ExperimentPlan(**{**dataclasses.asdict(TINY), **changes})


@pytest.mark.parametrize("build, key, message", [
    (lambda: _tiny(seed=1.5), "seed", "the master seed must be an int in [0, 2**64), got 1.5"),
    (lambda: _tiny(seed=True), "seed", "the master seed must be an int in [0, 2**64), got True"),
    (lambda: _tiny(graph_replicates=1.5), "graph_replicates", "graph_replicates must be an integer, got 1.5"),
    (lambda: _tiny(sample_replicates=True), "sample_replicates", "sample_replicates must be an integer, got True"),
    (lambda: _tiny(num_seeds=2.0), "num_seeds", "num_seeds must be an integer, got 2.0"),
    (lambda: _tiny(sizes=(50.0,)), "sizes",
     "er graphs on 50.0 vertices: vertex count must be an integer, got 50.0"),
    (lambda: _tiny(sample_sizes=(10.0,)), "sample_sizes", "a sample size must be an integer, got 10.0"),
    (lambda: _tiny(estimators=("n2psi",), omegas=(True,)), "omegas", "hash space size must be an integer, got True"),
    (lambda: _tiny(lambdas=(True,)), "lambdas",
     "er graphs on 120 vertices: a mean degree must be an int or a float, got True"),
    (lambda: _tiny(lambdas=("6",)), "lambdas",
     "er graphs on 120 vertices: a mean degree must be an int or a float, got '6'"),
    (lambda: RdsConfig(target_size=2.5, num_seeds=1), None, "target_size must be an integer, got 2.5"),
    (lambda: RdsConfig(target_size=True, num_seeds=1), None, "target_size must be an integer, got True"),
    (lambda: RdsConfig(target_size=5, num_seeds=2.0), None, "num_seeds must be an integer, got 2.0"),
    (lambda: RdsConfig(target_size=10, num_seeds=0), None,
     "need between 1 and 10 seeds for 10 subjects, got 0"),
    (lambda: RdsConfig(target_size=10, recruit_law=((True, 1.0),)), None,
     "recruit counts must be integers >= 0, got ((True, 1.0),)"),
    (lambda: HashSpace(2.5), None, "hash space size must be an integer, got 2.5"),
    (lambda: HashSpace(True), None, "hash space size must be an integer, got True"),
    (lambda: run_plan(TINY, workers=2.5), None, "workers must be an integer, got 2.5"),
    (lambda: run_plan(TINY, workers=True), None, "workers must be an integer, got True"),
])
def test_an_integer_setting_rejects_floats_and_bools_at_construction(build, key, message):
    with pytest.raises(PlanError if key else ValueError, match="^" + re.escape(message) + "$") as caught:
        build()
    assert getattr(caught.value, "key", None) == key


def test_an_integer_setting_takes_numpy_integers():
    plan = _tiny(sizes=(np.int64(120),), sample_sizes=(np.uint16(30),), lambdas=(np.int64(6), 6.5, np.float32(7)),
                 graph_replicates=np.int8(1), seed=np.uint64(2**64 - 1), num_seeds=np.int32(3))
    assert plan.run_count() == 9
    assert RdsConfig(target_size=np.int64(5), num_seeds=np.uint8(2)).target_size == 5
    assert HashSpace(np.int64(4096)).size == 4096
    assert HashSpace(np.int64(16), HashMode.TELEFUNKEN).telefunken_digits == 2
    assert len(run_plan(TINY, workers=np.int64(1))[0]) == 6


@st.composite
def _small_plans(draw):
    def axis(values, min_size=1):
        return tuple(draw(st.lists(st.sampled_from(values), min_size=min_size, max_size=2, unique=True)))

    estimators = tuple(draw(st.permutations(list(harness.ESTIMATORS)))[:draw(st.integers(1, 5))])
    hashed = any(name in harness.HASHED_ESTIMATORS for name in estimators)
    return ExperimentPlan(
        families=axis(list(Family)), lambdas=axis([2.5, 4.0]), sizes=axis([40, 80]),
        sample_sizes=axis([8, 12]), estimators=estimators, omegas=axis([3, 500, 4096]) if hashed else (),
        graph_replicates=draw(st.integers(1, 2)), sample_replicates=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 99)),
    )


@settings(max_examples=60, deadline=None)
@given(plan=_small_plans())
def test_every_run_lands_in_a_plan_cell_in_plan_order(plan):
    expected = [
        (family.value, lam, n, r, omega, name)
        for family in plan.families for lam in plan.lambdas for n in plan.sizes for r in plan.sample_sizes
        for name in plan.estimators
        for omega in (plan.omegas if name in harness.HASHED_ESTIMATORS else (None,))
    ]
    assert plan.cells() == expected
    raw, summaries = run_plan(plan)
    assert plan.run_count() == len(raw)
    assert [(s.family, s.lam, s.n, s.r, s.omega, s.estimator) for s in summaries] == expected
    assert all(s.count == plan.graph_replicates * plan.sample_replicates for s in summaries)


def test_a_plan_draws_the_same_streams_however_its_numbers_are_typed():
    spellings = [
        dict(lambdas=(3.0,), sizes=(120,), sample_sizes=(30,), omegas=(500,), graph_replicates=2,
             sample_replicates=2, seed=5, num_seeds=3),
        dict(lambdas=(3,), sizes=(120,), sample_sizes=(30,), omegas=(500,), graph_replicates=2,
             sample_replicates=2, seed=5, num_seeds=3),
        dict(lambdas=(np.float64(3.0),), sizes=(np.int64(120),), sample_sizes=(np.int32(30),), omegas=(np.int64(500),),
             graph_replicates=np.int64(2), sample_replicates=np.uint8(2), seed=np.uint64(5), num_seeds=np.int16(3)),
        dict(lambdas=(np.int64(3),), sizes=(np.uint16(120),), sample_sizes=(np.int64(30),), omegas=(np.uint64(500),),
             graph_replicates=np.int8(2), sample_replicates=np.int64(2), seed=np.int64(5), num_seeds=np.uint32(3)),
    ]
    outputs = []
    for numbers in spellings:
        plan = ExperimentPlan(families=(Family.ERDOS_RENYI,), estimators=("n1", "n2", "n3psi"), **numbers)
        raw, summaries = run_plan(plan)
        outputs.append((raw_csv_lines(raw), summary_csv_lines(summaries)))
    assert all(output == outputs[0] for output in outputs)
    assert outputs[0][0][1].startswith("er,3.0,120,30,,n1,0,0,")


@pytest.mark.parametrize("seed", [-5, -1, 2**64, 2**64 + 3, 1.5, 3.0, True, np.True_, "1", None])
def test_derive_rng_takes_only_an_int_seed_in_64_bits(seed):
    # it keeps a seed's low 64 bits, so -5 and 2**64 - 5 once drew the same stream
    with pytest.raises(ValueError, match=re.escape(f"the master seed must be an int in [0, 2**64), got {seed!r}")):
        derive_rng(seed, "graph")


def test_derive_rng_streams_of_valid_seeds_are_pinned():
    pinned = {
        0: [3922595970, 1702729520, 859294302],
        1: [3935446291, 1949093549, 1418062006],
        7: [3936054871, 3612703478, 3039063077],
        2**64 - 1: [2370602860, 3389894545, 2732128363],
    }
    for seed, head in pinned.items():
        for spelling in (seed, np.uint64(seed)):
            assert derive_rng(spelling, "graph", "er", 3.0, 100, 0).integers(0, 2**32, 3).tolist() == head
    assert derive_rng(np.int64(7), "graph", "er", 3.0, 100, 0).integers(0, 2**32, 3).tolist() == pinned[7]


@pytest.mark.parametrize("python, numpy_spellings, head", [
    (3.0, (np.float64(3.0),), [66, 39, 69]),
    (3, (np.int64(3), np.int32(3), np.uint8(3)), [78, 67, 38]),
    (True, (np.True_,), [90, 96, 14]),
])
def test_derive_rng_draws_one_stream_for_equal_python_and_numpy_coordinates(python, numpy_spellings, head):
    # a numpy scalar's repr ("np.float64(3.0)") is not its Python value's, so the stream hashes the value
    assert derive_rng(1, "graph", python).integers(0, 100, 3).tolist() == head
    for spelling in numpy_spellings:
        assert derive_rng(1, "graph", spelling).integers(0, 100, 3).tolist() == head


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
    ("seed = -5", "plan line 6: seed: the master seed must be an int in [0, 2**64), got -5"),
    ("seed = 18446744073709551616",
     "plan line 6: seed: the master seed must be an int in [0, 2**64), got 18446744073709551616"),
    ("omegas = 2000, 3.5", "plan line 6: omegas: invalid literal for int"),
    ("families = er, marslink", "plan line 6: families: unknown family 'marslink'"),
    ("lambdas = nan", "plan line 6: lambdas: er graphs on 100 vertices: mean degree must be finite, got nan"),
    ("lambdas = -3",
     "plan line 6: lambdas: er graphs on 100 vertices: mean degree must lie in [0, n-1], got -3.0"),
    ("lambdas = 3, inf", "plan line 6: lambdas: er graphs on 100 vertices: mean degree must be finite, got inf"),
    ("omegas = -5", "plan line 6: omegas: hash space must contain at least one code, got -5"),
    ("omegas = 99999999999999999999",
     "plan line 6: omegas: hash space must contain at most 2**63 codes, got 99999999999999999999"),
    ("estimators =", "plan line 6: estimators: at least one estimator is required"),
    ("estimators = n9", "plan line 6: estimators: unknown estimator 'n9'"),
    ("estimators = n2, n2", "plan line 6: estimators: 'n2' is listed more than once"),
    ("estimators = n2psi", "plan line 6: estimators: hashed estimators need at least one code-space size"),
    ("sizes = 1", "plan line 6: sizes: er graphs on 1 vertices: need at least two vertices"),
    ("sizes = 100, 100", "plan line 6: sizes: 100 is listed more than once"),
    ("r = 101", "plan line 6: r: sample sizes must not exceed the smallest population"),
    ("r = 0", "plan line 6: r: sample sizes must be >= 1, got 0"),
    ("r = -3", "plan line 6: r: sample sizes must be >= 1, got -3"),
    ("r = 10, 10", "plan line 6: r: 10 is listed more than once"),
    ("sample_replicates = 0", "plan line 6: sample_replicates: replicate counts must be >= 1"),
    ("sample_replicates = 9223372036854775808",
     "plan line 6: sample_replicates: replicate counts must be <= 9223372036854775807"),
])
def test_parse_plan_names_the_line_of_a_bad_value(line, message):
    # the valid plan's own line for the key becomes a comment, so the key is given once
    key = line.split("=")[0].strip()
    valid = re.sub(f"(?m)^{key} =", f"# {key} =", _VALID_PLAN)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        parse_plan(valid + line)


def test_plan_seeds_span_the_64_bits_the_run_streams_keep():
    # derive_rng keeps a seed's low 64 bits, so a seed outside them would share its streams
    for seed in (0, 2**64 - 1):
        assert parse_plan(f"{_VALID_PLAN}seed = {seed}").seed == seed


@pytest.mark.parametrize("lines, message", [
    ("seed = 1\nseed = 2", "plan line 7: seed: already given on line 6"),
    ("r = 20", "plan line 6: r: already given on line 4"),
])
def test_parse_plan_names_the_later_line_of_a_repeated_key(lines, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        parse_plan(_VALID_PLAN + lines)


@pytest.mark.parametrize("text, message", [
    (_VALID_PLAN.replace("n1", "n2") + "num_seeds = 0",
     "plan line 6: num_seeds: need between 1 and 10 seeds for 10 subjects, got 0"),
    (_VALID_PLAN.replace("n1", "n2") + "num_seeds = 11",
     "plan line 6: num_seeds: need between 1 and 10 seeds for 10 subjects, got 11"),
    (_VALID_PLAN.replace("n1", "n1, n3") + "num_seeds = 1",
     "plan line 6: num_seeds: cross-component estimators need num_seeds >= 2, got 1"),
    (_VALID_PLAN.replace("n1", "n2, n3psi") + "omegas = 50\nnum_seeds = 1",
     "plan line 7: num_seeds: cross-component estimators need num_seeds >= 2, got 1"),
    (_VALID_PLAN.replace("r = 10", "r = 101"),
     "plan line 4: r: sample sizes must not exceed the smallest population"),
    (_VALID_PLAN.replace("n1", "n1, n2") + "omegas = 2000",
     "plan line 6: omegas: code-space sizes need at least one hashed estimator"),
])
def test_parse_plan_names_the_line_of_a_rule_across_keys(text, message):
    # each plan would otherwise fail inside run_plan, after graphs are drawn, or ignore a setting
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        parse_plan(text)


def test_a_plan_error_names_its_field_and_keeps_its_message():
    with pytest.raises(PlanError, match="^sample sizes must be >= 1, got 0$") as caught:
        ExperimentPlan(families=(Family.ERDOS_RENYI,), lambdas=(3.0,), sizes=(100,), sample_sizes=(0,),
                       estimators=("n1",))
    assert caught.value.key == "sample_sizes"
    assert isinstance(caught.value, ValueError)
    # a family may be given by its plan name
    grid = dict(lambdas=(3.0,), sizes=(100,), sample_sizes=(10,), estimators=("n1",))
    assert ExperimentPlan(families=("er", Family.CONFIG_POISSON), **grid).families == (
        Family.ERDOS_RENYI, Family.CONFIG_POISSON)
    with pytest.raises(PlanError, match="^unknown family 'marslink'") as caught:
        ExperimentPlan(families=("marslink",), **grid)
    assert caught.value.key == "families"
    with pytest.raises(PlanError, match="^'er' is listed more than once$") as caught:
        ExperimentPlan(families=("er", Family.ERDOS_RENYI), **grid)
    assert caught.value.key == "families"


def test_two_seeds_are_enough_for_the_cross_component_estimators():
    plan = ExperimentPlan(families=(Family.ERDOS_RENYI,), lambdas=(3.0,), sizes=(100,), sample_sizes=(2, 10),
                          estimators=("n3", "n3psi"), omegas=(50,), num_seeds=2, sample_replicates=5)
    raw, _ = run_plan(plan)
    assert len(raw) == 20


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
        assert re.match(r"plan line \d+: |plan is missing required key ", str(exc)), str(exc)
        return
    assert isinstance(plan, ExperimentPlan)


def test_raw_csv_layout():
    raw, _ = run_plan(TINY)
    lines = raw_csv_lines(raw)
    assert lines[0] == "family,lambda,n,r,omega,estimator,graph_idx,sample_idx,estimate,failed,failure_cause"
    first = lines[1].split(",")
    assert first[0] == "er" and first[5] == "n2"
    assert first[4] == ""  # no code space for a plaintext estimator


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_plan():
    text = README.read_text()
    return re.search(r"```\n(# tiny\.plan\n.*?)```", text, re.S).group(1), text


def test_the_readme_plan_parses():
    text = _readme_plan()[0]
    for key in harness._PLAN_KEYS:  # the example names every key once
        assert len(re.findall(rf"(?m)^{key} *=", text)) == 1, key
    plan = parse_plan(text)
    assert plan.estimators == ("n1", "n2", "n3", "n2psi", "n3psi")
    assert plan.sample_sizes == (250, 750) and plan.num_seeds == 7 and plan.seed == 1


def test_every_plan_error_the_readme_quotes_is_the_one_parse_plan_raises():
    plan, text = _readme_plan()
    rows = re.findall(r"^\| `(\w+) = ([^`]*)` \| `(plan line [^`]*)` \|$", text, re.M)
    assert len(rows) >= 10
    for key, value, message in rows:
        changed, count = re.subn(rf"(?m)^{key} *=.*$", f"{key} = {value}", plan)
        assert count == 1, key
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            parse_plan(changed)
    quoted = "plan is missing required key 'r'"
    assert f"`{quoted}`" in text
    with pytest.raises(ValueError, match="^" + re.escape(quoted) + "$"):
        parse_plan(re.sub(r"(?m)^r *=.*$", "", plan))


def test_a_byte_order_mark_reads_as_the_same_plan(tmp_path):
    text = "families = er\nlambdas = 3\nsizes = 100\nr = 10\nestimators = n1\n"
    path = tmp_path / "exported.plan"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_plan(path) == parse_plan(text)


@pytest.mark.parametrize("family", ["lognormal", "poisson", "exponential"])
def test_a_plan_blames_its_lambdas_line_for_a_mean_degree_whose_stubs_overflow(family):
    message = (f"{family} graphs on 6 vertices: mean degree 1e+300 on 6 vertices puts the expected "
               "stub total past the 64-bit range")
    text = f"families = {family}\nlambdas = 3, 1e300\nsizes = 6\nr = 2\nestimators = n1\n"
    with pytest.raises(ValueError, match="^" + re.escape("plan line 2: lambdas: " + message) + "$"):
        parse_plan(text)
