"""Compare two sets of benchmark result files, one (metric, workload) pair at a time.

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>-seed<seed>-trace<t>.json`` files that
runs leave in ``.perfbench/results/``.  Runs of the two sides are paired by
workload, seed and trace flag.  For every metric the verdict follows the
rule for comparing two commits on a small, noisy machine:

* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile spread, in the better direction;
* ``unresolved``: the parent's spread, as a share of its median, is wider
  than the metric's bound, and not every change run beats every parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``within-bound``: none of these.

Timings are read on the speed-corrected clock (clock.py).  Result files
also keep the same timings on the raw wall clock, and each of those gets a
verdict by the same rule.  When the corrected verdict is ``gain`` or
``regression`` but the raw medians moved the other way, the verdict becomes
``unresolved``: the claim then rests on the correction alone, which assumes
the change's code slows down with the machine as much as the clock's probe
loop does.

The two sides must also have run in alternation: each seed's parent and
change runs back to back, with each side first in some of the pairs.  Runs
made side by side in two blocks compare two stretches of the machine as
much as two commits, so without alternation every ``gain`` or
``regression`` becomes ``unresolved``.

Per-layer metrics have no bound; they get ``gain`` or ``no-claim``.  Error
shares (failed over attempted operations) are compared per workload.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load_results(directory: str | Path) -> dict:
    """{(workload, trace): {seed: record}} for every result file in the directory."""
    grouped: dict = defaultdict(dict)
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text())
        grouped[(record["workload"], record["trace"])][record["seed"]] = record
    return grouped


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> dict:
    """The comparison of one (metric, workload) pair."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = _quartiles(parent)
    _, c_med, _ = _quartiles(change)
    spread = p_q3 - p_q1
    improvement = sign * (c_med - p_med)
    row = {
        "parent_median": p_med, "change_median": c_med, "parent_iqr": spread,
        "pairs": len(pairs), "wins": wins, "losses": losses,
    }
    if pairs and wins >= 0.9 * len(pairs) and improvement > spread:
        row["verdict"] = "gain"
    elif bound is None:
        row["verdict"] = "no-claim"
    elif p_med and spread / abs(p_med) > bound and not _all_better(parent, change, sign):
        row["verdict"] = "unresolved"
    elif p_med and -improvement / abs(p_med) > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "within-bound"
    return row


def reconcile(row: dict, raw: dict, better: str) -> dict:
    """Add the raw wall clock's verdict; a corrected claim the raw medians contradict is unresolved."""
    sign = 1.0 if better == "higher" else -1.0
    raw_move = sign * (raw["change_median"] - raw["parent_median"])
    contradicted = ((row["verdict"] == "gain" and raw_move <= 0)
                    or (row["verdict"] == "regression" and raw_move >= 0))
    return {**row, "raw_parent_median": raw["parent_median"], "raw_change_median": raw["change_median"],
            "raw_verdict": raw["verdict"], "verdict": "unresolved" if contradicted else row["verdict"]}


def alternated(parent: dict, change: dict, seeds: list) -> bool:
    """Whether the paired runs ran back to back, pair by pair, each side first in some pair."""
    runs = sorted((side[s].get("started_at", float("nan")), name, s)
                  for name, side in (("parent", parent), ("change", change)) for s in seeds)
    pairs = [runs[i:i + 2] for i in range(0, len(runs), 2)]
    if any(a[2] != b[2] or a[1] == b[1] or not a[0] < b[0] for a, b in pairs):
        return False
    return len({a[1] for a, _ in pairs}) == 2


def _all_better(parent: list[float], change: list[float], sign: float) -> bool:
    if not parent or not change:
        return False
    if sign > 0:
        return min(change) > max(parent)
    return max(change) < min(parent)


def compare(parent_dir, change_dir, benchmark: dict, direction: dict) -> list[dict]:
    """Rows of verdicts; ``direction`` maps each metric name to "higher" or "lower"."""
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    parent, change = load_results(parent_dir), load_results(change_dir)
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        p_runs, c_runs = list(parent[key].values()), list(change[key].values())
        paired_in_turn = alternated(parent[key], change[key], seeds)
        rows.append({"workload": workload, "trace": trace, "metric": "runs.alternated",
                     "verdict": "yes" if paired_in_turn else "no"})
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            rows.append({"workload": workload, "trace": trace, "metric": f"error_share.{side}",
                         "verdict": f"{failed}/{attempted}"})
        for metric in p_runs[0]["metrics"]:
            if metric not in direction:
                continue
            row = _verdict_of(parent[key], change[key], seeds, "metrics", metric, direction[metric],
                              bounds.get(metric))
            if all(metric in r.get("raw_wall_clock", {}) for r in p_runs + c_runs):
                raw = _verdict_of(parent[key], change[key], seeds, "raw_wall_clock", metric,
                                  direction[metric], bounds.get(metric))
                row = reconcile(row, raw, direction[metric])
            if not paired_in_turn and row["verdict"] in ("gain", "regression"):
                row["verdict"] = "unresolved"
            rows.append({"workload": workload, "trace": trace, "metric": metric,
                         "unit": p_runs[0]["metrics"][metric]["unit"], **row})
    return rows


def _verdict_of(parent: dict, change: dict, seeds: list, section: str, metric: str,
                better: str, bound: float | None) -> dict:
    """verdict() over one section ("metrics" or "raw_wall_clock") of two sides' result records."""
    def values(runs):
        return [r[section][metric]["value"] for r in runs.values() if metric in r[section]]

    pairs = [(parent[s][section][metric]["value"], change[s][section][metric]["value"])
             for s in seeds if metric in change[s][section]]
    return verdict(values(parent), values(change), pairs, better, bound)


def main(parent_dir: str, change_dir: str, benchmark: Path, direction: dict) -> int:
    rows = compare(parent_dir, change_dir, json.loads(Path(benchmark).read_text()), direction)
    if not rows:
        print("no workload has result files on both sides")
        return 1
    for row in rows:
        if "parent_median" not in row:
            print(f"{row['workload']:7} trace={row['trace']} {row['metric']:40} {row['verdict']}")
            continue
        print(f"{row['workload']:7} trace={row['trace']} {row['metric']:40} "
              f"parent {row['parent_median']:.6g} (iqr {row['parent_iqr']:.3g}) "
              f"change {row['change_median']:.6g} {row['unit']} "
              f"wins {row['wins']}/{row['pairs']} -> {row['verdict']}"
              + (f" (raw wall clock: parent {row['raw_parent_median']:.6g} change "
                 f"{row['raw_change_median']:.6g} -> {row['raw_verdict']})" if "raw_verdict" in row else ""))
    print(json.dumps({"rows": rows}))
    return 0
