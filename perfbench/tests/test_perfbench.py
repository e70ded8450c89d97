"""Tiny-scale tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import PER_LAYER, NullTracer, Tracer, layer_metrics  # noqa: E402

workloads = run._import_workloads()
from netsize.estimators import EstimateResult  # noqa: E402

TINY = {
    "grid": workloads.PlanSpec(
        families=("lognormal", "poisson", "exponential", "ba", "er"),
        lambdas=(3.0,), sizes=(300,), sample_sizes=(40,), estimators=("n1", "n2", "n3"),
        sample_replicates=1, headline="n2",
        dump=workloads.DumpSpec(r=40, captures=12, estimators=("n2",), graph=("poisson", 6.0, 300)),
    ),
    "hashed": workloads.PlanSpec(
        families=("poisson",), lambdas=(6.0,), sizes=(300,), sample_sizes=(40,),
        estimators=("n2psi", "n3psi"), omegas=(2_000,), sample_replicates=1, headline="n3psi",
        dump=workloads.DumpSpec(r=40, captures=3, estimators=("n3psi",), omega=2_000,
                                graph=("poisson", 6.0, 300)),
    ),
    "field": workloads.FieldSpec(
        n=400, lam=6.0, duplicate_share=0.02, loops=5, target=0.05, headline="n3",
        dump=workloads.DumpSpec(r=40, captures=3, estimators=("n3", "n3psi"), omega=4_000),
    ),
}


@pytest.fixture(autouse=True)
def state_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path / "state")
    return tmp_path / "state"


def tiny_run(name, trace, seed=5):
    return run.measure(name, seed, seconds=0, trace=trace, spec=TINY[name], probes=0)


def benchmark_json():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    spec = benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SPECS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(capsys, trace):
    spec = benchmark_json()
    result = run.report("grid", 5, 0, trace, tiny_run("grid", trace))
    lines = capsys.readouterr().out.splitlines()
    printed = {line.split(" ")[0]: line.split(" ")[2] for line in lines if line.count(" ") >= 2}
    for metric in spec["end_to_end"] + (spec["per_layer"] if trace else []):
        assert printed[metric["name"]] == metric["unit"], metric["name"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "error_share" in printed


def _corrupt_value(monkeypatch):
    original = workloads.harness.estimate_n2
    monkeypatch.setattr(workloads.harness, "estimate_n2",
                        lambda sample: EstimateResult(value=-abs(original(sample).value or 1.0)))


def _corrupt_cli(monkeypatch):
    original = workloads.cli.estimate_n2

    def skewed(sample):
        result = original(sample)
        return result if result.failed else EstimateResult.success(result.value * 1.01)

    monkeypatch.setattr(workloads.cli, "estimate_n2", skewed)


@pytest.mark.parametrize("corrupt, message", [
    (_corrupt_value, "not finite and positive"),
    (_corrupt_cli, "but library gives"),
])
def test_output_check_trips_on_corrupted_estimate(monkeypatch, corrupt, message):
    corrupt(monkeypatch)
    checks = tiny_run("grid", trace=False).checks
    assert checks.failed > 0
    assert any(message in m for m in checks.messages)


@pytest.mark.parametrize("name", list(TINY))
def test_traced_and_untraced_outputs_identical(tmp_path, name):
    inputs = workloads.setup(name, 7, tmp_path / "inputs", TINY[name])
    plain = workloads.digest(workloads.run_pass(inputs, 0, NullTracer()))
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.digest(workloads.run_pass(inputs, 0, tracer))
    finally:
        tracer.uninstall()
    assert tracer.spans and traced == plain
    assert tiny_run(name, trace=True).checks.failed == 0


def test_every_input_set_runs_equally_often(monkeypatch):
    monkeypatch.setattr(run, "MIN_ROUNDS", 2)
    traced = tiny_run("hashed", trace=True)
    assert [p.set_index for p in traced.passes] == list(range(workloads.SETS)) * 2
    assert traced.checks.failed == 0


def test_replay_check_trips_when_a_replay_differs(monkeypatch):
    monkeypatch.setattr(run, "MIN_ROUNDS", 2)
    original = workloads.harness.write_csv
    written = []

    def drifting(lines, path):
        written.append(path)
        original([*lines, f"# write {len(written)}"], path)

    monkeypatch.setattr(workloads.harness, "write_csv", drifting)
    checks = tiny_run("grid", trace=False).checks
    replays = [m for m in checks.messages if "replay of input set" in m]
    assert len(replays) == workloads.SETS
    assert checks.failed == len(replays)


def test_grid_makes_no_hashing_or_ingest_calls():
    traced = tiny_run("grid", trace=True)
    names = {span.name for span in traced.tracer.spans}
    assert not any(name.startswith(("hashing.", "ingest.")) for name in names)
    assert {"generators.sample_graph", "sampling.rds_capture", "cli.estimate"} <= names
    for metric, value in traced.per_layer.items():
        if metric.startswith(("hashing.", "ingest.")):
            assert value == 0, metric
    assert traced.per_layer["generators.sample_graph.calls"] > 0


def test_field_exercises_ingest_and_rewiring():
    values = tiny_run("field", trace=True).per_layer
    assert values["ingest.load_edge_list.busy_s"] > 0 and values["ingest.lines_per_s"] > 0
    assert values["generators.rewire.clustering_reached"] >= TINY["field"].target
    assert values["cli.estimate.calls"] == 2 * TINY["field"].dump.captures


def test_layer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20_000)))
    outer = tracer.wrap("harness.run_plan", lambda: [inner() for _ in range(3)])
    outer()
    values = layer_metrics(tracer, passes=1, overhead_s=0.0, clustering_reached=0.0)
    wall = values["harness.run_plan.wall_s"]
    assert 0 <= values["harness.self_s"] < wall
    children = sum(s.end - s.start for s in tracer.spans if s.name == "inner")
    assert values["harness.self_s"] == pytest.approx(wall - children)


def test_compare_verdicts():
    import compare

    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    assert compare.verdict(parent, faster, pairs(faster), "lower", 0.1)["verdict"] == "gain"
    assert compare.verdict(parent, slower, pairs(slower), "lower", 0.1)["verdict"] == "regression"
    assert compare.verdict(parent, parent, pairs(parent), "lower", 0.1)["verdict"] == "within-bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, pairs(noisy), "lower", 0.1)["verdict"] == "unresolved"


def test_compare_leaves_unresolved_a_claim_the_raw_clock_contradicts():
    import compare

    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    corrected = compare.verdict(parent, faster, list(zip(parent, faster)), "lower", 0.1)
    # the raw clock saw the change's runs take longer: the gain rests on the correction alone
    raw_slower = {"parent_median": 10.0, "change_median": 10.5, "verdict": "within-bound"}
    raw_faster = {"parent_median": 10.0, "change_median": 8.5, "verdict": "gain"}
    assert compare.reconcile(corrected, raw_slower, "lower")["verdict"] == "unresolved"
    row = compare.reconcile(corrected, raw_faster, "lower")
    assert row["verdict"] == "gain" and row["raw_verdict"] == "gain"


def _write_side(directory, walls, started):
    directory.mkdir()
    for seed, (wall, at) in enumerate(zip(walls, started)):
        record = {"workload": "grid", "trace": 0, "seed": seed, "started_at": at, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
        (directory / f"grid-seed{seed}-trace0.json").write_text(json.dumps(record))


@pytest.mark.parametrize("order, verdict", [("alternating", "gain"), ("blocks", "unresolved")])
def test_compare_claims_only_from_alternated_runs(tmp_path, order, verdict):
    import compare

    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    if order == "alternating":  # pair by pair, the parent first in even pairs
        p_at = [2 * k + (k % 2) for k in range(10)]
        c_at = [2 * k + 1 - (k % 2) for k in range(10)]
    else:
        p_at, c_at = list(range(10)), list(range(10, 20))
    _write_side(tmp_path / "parent", parent, p_at)
    _write_side(tmp_path / "change", [v * 0.8 for v in parent], c_at)
    rows = compare.compare(tmp_path / "parent", tmp_path / "change", benchmark_json(), {"wall_s": "lower"})
    by_metric = {row["metric"]: row["verdict"] for row in rows}
    assert by_metric["runs.alternated"] == ("yes" if order == "alternating" else "no")
    assert by_metric["wall_s"] == verdict


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_speed_clock_scales_by_tick_speed_and_drops_its_own_time():
    from clock import REFERENCE_S, SpeedClock

    clock = SpeedClock()
    clock.starts, clock.loops = [0.0, 1.0, 2.0], [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    clock.ticks = [3 * loop for loop in clock.loops]
    # one tick inside, at half the reference speed: half the time counts
    assert clock.corrected(0.5, 1.5) == pytest.approx((1.0 - 6 * REFERENCE_S) * 0.5)
    # no tick inside: the latest tick before the interval sets the speed
    assert clock.corrected(0.2, 0.4) == pytest.approx(0.2)
    with SpeedClock() as live:
        sum(range(2_000_000))
    assert live.loops and all(0 < loop < tick for loop, tick in zip(live.loops, live.ticks))
