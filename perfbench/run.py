"""Run one netsize benchmark workload, or compare two sets of result files.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

A run builds the workload's inputs from the seed and repeats the workload's
fixed work (a pass) in rounds: each round runs one pass per input set, so
every set counts equally in the medians.  It makes at least ``MIN_ROUNDS``
rounds, and more while the passes add up to less than ``--seconds`` on the
speed-corrected clock (see clock.py).  It checks every output and prints
each metric by name with its unit.  The last line of standard output is one
JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` the
run then replays the same passes with spans around every call into
netsize, checks that they produce byte-identical output, and reports the
per-layer metrics instead of the end-to-end ones.

Result files (machine facts, every metric with its unit) and span files go
to ``.perfbench/results/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, time

from clock import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
MIN_ROUNDS = 1
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("estimate_p50_ms", "ms", "lower"),
    ("estimate_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("median_abs_rel_err", "ratio", "lower"),
]


class Checks:
    """Output checks; ``attempted`` and ``failed`` give ``error_share``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok


@dataclass
class Pass:
    """What the metrics keep of one checked pass."""

    set_index: int
    wall_s: float                   # speed-corrected, see clock.py
    digest: str
    estimates: int                  # estimates returned, successes and explicit failures
    latencies: list[float]          # corrected seconds of each headline CLI estimate
    raw_latencies: list[float]
    clustering_reached: float | None
    errors: list[float] = field(default_factory=list)  # |estimate/n - 1|, first pass of a set only
    raw_wall_s: float = 0.0


@dataclass
class Run:
    """What one benchmark run measured and checked."""

    checks: Checks
    passes: list[Pass]
    setup_samples: list[float]
    raw_setup_samples: list[float]
    end_to_end: dict
    latency_count: int
    beyond_p90: int
    started_at: float = 0.0                     # epoch seconds; --compare checks that sides alternated
    raw: dict = field(default_factory=dict)      # the same timings on the uncorrected wall clock
    per_layer: dict = field(default_factory=dict)
    tracer: object = None


def _import_workloads():
    if not (SRC / "netsize" / "__init__.py").is_file():
        raise SystemExit(f"error: no netsize sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workloads = importlib.import_module("workloads")
    netsize_file = Path(sys.modules["netsize"].__file__).resolve()
    if SRC.resolve() not in netsize_file.parents:
        raise SystemExit(f"error: netsize was imported from {netsize_file}, not from {SRC}")
    return workloads


def _timed_setup(name: str, seed: int, workdir: Path, spec=None):
    """Import the package and build the inputs.

    Returns (workloads, inputs, (corrected seconds, raw seconds)).
    """
    with SpeedClock() as clock:
        start = perf_counter()
        workloads = _import_workloads()
        inputs = workloads.setup(name, seed, workdir, spec)
        end = perf_counter()
    return workloads, inputs, (clock.corrected(start, end), end - start)


def _probe_setup(name: str, seed: int) -> tuple[float, float]:
    """(corrected, raw) set-up seconds of the same workload in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    corrected, raw = done.stdout.strip().splitlines()[-1].split()
    return float(corrected), float(raw)


def _workdir(kind: str, name: str, seed: int) -> Path:
    return STATE / f"{kind}-{name}-{seed}-{os.getpid()}"


def check_estimate(checks: Checks, label: str, result) -> bool:
    """An estimate is finite and positive, or an explicit failure."""
    from netsize.estimators import FailureCause

    if result.failure_cause is not None:
        return checks.expect(isinstance(result.failure_cause, FailureCause) and result.value is None,
                             f"{label}: malformed failure {result!r}")
    value = result.value
    return checks.expect(isinstance(value, float) and math.isfinite(value) and value > 0,
                         f"{label}: estimate {value!r} is not finite and positive")


def parse_cli_estimate(stdout: str) -> dict:
    """Fields of the ``estimator=... estimate=... failed=... cause=...`` line."""
    lines = stdout.strip().splitlines()
    if not lines:
        return {}
    return dict(part.split("=", 1) for part in lines[-1].split(" ") if "=" in part)


def check_cli_call(checks: Checks, workloads, label: str, call):
    """The CLI's estimate equals the library's on the same dump rows.

    Returns the CLI's value (None for an explicit failure or a failed check).
    """
    fields = parse_cli_estimate(call.stdout)
    expected = workloads.library_estimate(call)
    check_estimate(checks, f"{label} library", expected)
    if call.code != 0 or fields.get("estimator") != call.estimator:
        checks.expect(False, f"{label}: exit {call.code}, output {call.stdout!r} {call.stderr!r}")
        return None
    if expected.failed:
        checks.expect(fields.get("failed") == "true" and fields.get("cause") == expected.failure_cause.value,
                      f"{label}: CLI {fields} but library failed with {expected.failure_cause.value}")
        return None
    try:
        value = float(fields.get("estimate", ""))
    except ValueError:
        value = None
    ok = checks.expect(fields.get("failed") == "false" and value == expected.value,
                       f"{label}: CLI {fields} but library gives {expected.value!r}")
    return value if ok else None


def _check_pass(checks: Checks, workloads, headline: str, index: int, set_index: int,
                wall_s: float, out, first_digest: dict) -> Pass:
    """Check one pass's outputs and keep only what the metrics need."""
    headline_calls = [call for call in out.cli_calls if call.estimator == headline]
    p = Pass(set_index, wall_s, workloads.digest(out), len(out.estimates) + len(out.cli_calls),
             latencies=[call.seconds for call in headline_calls],
             raw_latencies=[call.end - call.start for call in headline_calls],
             clustering_reached=out.clustering_reached)
    if set_index in first_digest:
        # a replay must reproduce the set's first pass, which was checked in full
        checks.expect(p.digest == first_digest[set_index],
                      f"pass {index}: replay of input set {set_index} changed its output")
        return p
    first_digest[set_index] = p.digest
    if out.expected_rows:
        checks.expect(len(out.estimates) == out.expected_rows,
                      f"pass {index}: {len(out.estimates)} raw rows, plan has {out.expected_rows} runs")
    made = []
    for k, (estimator, n, result) in enumerate(out.estimates):
        ok = check_estimate(checks, f"pass {index} row {k} {estimator}", result)
        made.append((estimator, n, result.value if ok else None))
    for k, call in enumerate(out.cli_calls):
        value = check_cli_call(checks, workloads, f"pass {index} cli {k} {call.estimator}", call)
        made.append((call.estimator, call.n, value))
    if out.clustering_target is not None:
        checks.expect(out.clustering_reached >= out.clustering_target,
                      f"pass {index}: clustering {out.clustering_reached} below target {out.clustering_target}")
    p.errors = [abs(value / n - 1.0) for estimator, n, value in made
                if estimator == headline and value is not None]
    return p


def _timed_pass(workloads, inputs, set_index: int, tracer):
    """Run one pass; returns its output, corrected and raw wall seconds."""
    gc.collect()  # start every pass from the same heap, outside the timed region
    with SpeedClock() as clock:
        begin = perf_counter()
        out = workloads.run_pass(inputs, set_index, tracer)
        end = perf_counter()
    for call in out.cli_calls:
        call.seconds = clock.corrected(call.start, call.end)
    return out, clock.corrected(begin, end), end - begin


def _run_passes(workloads, inputs, checks: Checks, seconds: float, between) -> list[Pass]:
    """Untraced rounds of one pass per input set, at least ``MIN_ROUNDS`` of them,
    more while the passes add up to less than ``seconds``.

    ``between()`` runs before each pass, outside the timed region.
    """
    from spans import NullTracer

    passes: list[Pass] = []
    first_digest: dict = {}
    while len(passes) < MIN_ROUNDS * workloads.SETS or sum(p.wall_s for p in passes) < seconds:
        for set_index in range(workloads.SETS):
            between()
            out, wall, raw_wall = _timed_pass(workloads, inputs, set_index, NullTracer())
            p = _check_pass(checks, workloads, inputs.spec.headline, len(passes), set_index, wall, out,
                            first_digest)
            p.raw_wall_s = raw_wall
            passes.append(p)
    return passes


def _replay_traced(workloads, inputs, checks: Checks, passes: list[Pass]):
    """The same passes again with spans; each must reproduce its untraced output."""
    from spans import Tracer

    tracer = Tracer()
    walls, reached = [], []
    for index, p in enumerate(passes):
        tracer.install()
        try:
            out, wall, _ = _timed_pass(workloads, inputs, p.set_index, tracer)
        finally:
            tracer.uninstall()
        walls.append(wall)
        if out.clustering_reached is not None:
            reached.append(out.clustering_reached)
        checks.expect(workloads.digest(out) == p.digest,
                      f"traced pass {index}: output differs from the untraced pass")
    return tracer, walls, reached


def _decile(values: list[float], k: int) -> float:
    """The k-th decile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[k - 1]


def measure(name: str, seed: int, seconds: float, trace: bool, spec=None, probes: int = SETUP_PROBES) -> Run:
    """Set up, run and check one workload; optionally replay it traced."""
    workdir = _workdir("work", name, seed)
    started_at = time()
    try:
        workloads, inputs, first_setup = _timed_setup(name, seed, workdir, spec)
        setups = [first_setup]

        def probe():
            # spread over the run, so one stretch of a slow machine does not set the median
            if len(setups) <= probes:
                setups.append(_probe_setup(name, seed))

        checks = Checks()
        passes = _run_passes(workloads, inputs, checks, seconds, between=probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setups) <= probes:
            probe()
        setup_samples = [corrected for corrected, _ in setups]

        errors = [e for p in passes for e in p.errors]
        latencies = [t for p in passes for t in p.latencies]
        p90 = _decile(latencies, 9)
        e2e = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "runs_per_s": statistics.median(p.estimates / p.wall_s for p in passes),
            "estimate_p50_ms": 1000 * statistics.median(latencies),
            "estimate_p90_ms": 1000 * p90,
            "peak_rss_mb": peak_rss_mb,
            "median_abs_rel_err": statistics.median(errors),
        }
        run = Run(checks, passes, setup_samples, [raw for _, raw in setups], e2e,
                  len(latencies), sum(t > p90 for t in latencies), started_at)
        raw_latencies = [t for p in passes for t in p.raw_latencies]
        run.raw = {
            "setup_s": statistics.median(run.raw_setup_samples),
            "wall_s": statistics.median(p.raw_wall_s for p in passes),
            "runs_per_s": statistics.median(p.estimates / p.raw_wall_s for p in passes),
            "estimate_p50_ms": 1000 * statistics.median(raw_latencies),
            "estimate_p90_ms": 1000 * _decile(raw_latencies, 9),
        }
        if trace:
            from spans import layer_metrics

            tracer, walls, reached = _replay_traced(workloads, inputs, checks, passes)
            run.per_layer = layer_metrics(
                tracer, len(walls),
                overhead_s=statistics.median(walls) - e2e["wall_s"],
                clustering_reached=statistics.median(reached) if reached else 0.0,
            )
            run.tracer = tracer
        return run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(ROOT),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, read from .git; "unknown" without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def report(name: str, seed: int, seconds: float, trace: bool, run: Run) -> dict:
    """Print every metric with its unit; write the result file; return the final JSON object."""
    facts = machine_facts()
    checks = run.checks
    error_share = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"netsize benchmark | workload={name} seed={seed} trace={int(trace)} "
          f"seconds={seconds:g} passes={len(run.passes)}")
    print("machine | " + " ".join(f"{key}={value}" for key, value in facts.items()))
    e2e = {metric: {"value": run.end_to_end[metric], "unit": unit} for metric, unit, _ in END_TO_END}
    notes = {
        "setup_s": f"median of {len(run.setup_samples)} set-ups; raw wall clock {run.raw['setup_s']:.4f} s",
        "wall_s": f"median of {len(run.passes)} passes; raw wall clock {run.raw['wall_s']:.4f} s",
        "runs_per_s": f"estimates returned per second of pass wall time; raw wall clock {run.raw['runs_per_s']:.4f}",
        "estimate_p50_ms": f"{run.latency_count} CLI calls; raw wall clock {run.raw['estimate_p50_ms']:.4f} ms",
        "estimate_p90_ms": f"{run.latency_count} CLI calls, {run.beyond_p90} beyond p90; "
                           f"raw wall clock {run.raw['estimate_p90_ms']:.4f} ms",
    }
    for metric, entry in e2e.items():
        print(f"{metric} {entry['value']!r} {entry['unit']}" + (f" ({notes[metric]})" if metric in notes else ""))
    print(f"error_share {error_share!r} share ({checks.failed} of {checks.attempted} operations failed)")
    for message in checks.messages[:20]:
        print(f"check failed: {message}")
    metrics = e2e
    if trace:
        from spans import PER_LAYER

        metrics = {metric: {"value": run.per_layer[metric], "unit": unit} for metric, unit, _ in PER_LAYER}
        for metric, entry in metrics.items():
            print(f"{metric} {entry['value']!r} {entry['unit']}")

    STATE.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = STATE / "results" / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds, "started_at": run.started_at,
        "machine": facts,
        "passes": [{"set": p.set_index, "wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s} for p in run.passes],
        "raw_wall_clock": {metric: {"value": value, "unit": e2e[metric]["unit"]}
                           for metric, value in run.raw.items()},
        "setup_samples_s": run.setup_samples, "raw_setup_samples_s": run.raw_setup_samples,
        "attempted": checks.attempted, "failed": checks.failed,
        "error_share": {"value": error_share, "unit": "share"}, "check_failures": checks.messages,
        "end_to_end": e2e, "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if run.tracer is not None:
        run.tracer.write(stem.with_suffix(".spans.jsonl"))
    print(f"result file {os.path.relpath(stem.with_suffix('.json'), ROOT)}")
    return {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("grid", "hashed", "field"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two directories of result files")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        from spans import PER_LAYER

        direction = {metric: better for metric, _, better in END_TO_END + PER_LAYER}
        return compare.main(*args.compare, benchmark=ROOT / "BENCHMARK.json", direction=direction)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        workdir = _workdir("probe", args.workload, args.seed)
        try:
            _, _, (corrected, raw) = _timed_setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{corrected!r} {raw!r}")
        return 0
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print("error: the benchmark run did not complete", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, args.seconds, bool(args.trace), run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
