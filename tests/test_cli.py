import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netsize import cli
from netsize.cli import main
from netsize.harness import ESTIMATORS, parse_plan, run_plan
from netsize.ingest import EdgeListSpec, load_edge_list


def _generate_edges(tmp_path, name="g.txt", n=200, lam=6.0, seed=3, family="er"):
    path = tmp_path / name
    assert main(["generate", "--family", family, "--lambda", str(lam), "--n", str(n),
                 "--rng-seed", str(seed), "--out", str(path)]) == 0
    return path


def test_generate_emits_handshake_valid_graph(tmp_path, capsys):
    path = _generate_edges(tmp_path)
    g, _, _ = load_edge_list(EdgeListSpec(path))
    assert int(np.sum(g.degrees())) == 2 * g.num_edges
    out = capsys.readouterr().out
    assert "netsize" in out and "seed=3" in out


def test_generate_stdout_lists_the_same_edges_as_out(tmp_path, capsys):
    path = _generate_edges(tmp_path, family="ba")
    capsys.readouterr()
    assert main(["generate", "--family", "ba", "--lambda", "6.0", "--n", "200", "--rng-seed", "3"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("# ") and not any(line.startswith("#") for line in printed[1:])
    assert printed[1:] == [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_generate_deterministic(tmp_path):
    a = _generate_edges(tmp_path, name="a.txt")
    b = _generate_edges(tmp_path, name="b.txt")
    # first comment line embeds the output path, so compare data lines only
    data_a = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    data_b = [l for l in b.read_text().splitlines() if not l.startswith("#")]
    assert data_a == data_b


def test_sample_then_estimate_plaintext(tmp_path, capsys):
    edges = _generate_edges(tmp_path, n=300, lam=8.0)
    dump = tmp_path / "sample.csv"
    assert main(["sample", "--edges", str(edges), "--mode", "rds", "--size", "80",
                 "--rng-seed", "1", "--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--estimator", "n2", "--sample", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "estimator=n2" in out and "failed=false" in out
    assert main(["estimate", "--estimator", "n3", "--sample", str(dump)]) == 0


def test_sample_then_estimate_hashed(tmp_path, capsys):
    edges = _generate_edges(tmp_path, n=300, lam=8.0)
    dump = tmp_path / "hashed.csv"
    assert main(["sample", "--edges", str(edges), "--mode", "rds", "--size", "80",
                 "--omega", "4096", "--rng-seed", "1", "--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--estimator", "n2psi", "--omega", "4096",
                 "--sample", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "estimator=n2psi" in out and "failed=false" in out


def test_estimate_hashed_requires_omega(tmp_path, capsys):
    edges = _generate_edges(tmp_path)
    dump = tmp_path / "s.csv"
    main(["sample", "--edges", str(edges), "--size", "40", "--rng-seed", "2",
          "--out", str(dump)])
    assert main(["estimate", "--estimator", "n2psi", "--sample", str(dump)]) == 1


@pytest.mark.parametrize("omega", ["0", "-5"])
def test_estimate_rejects_omega_below_one(tmp_path, capsys, omega):
    edges = _generate_edges(tmp_path)
    dump = tmp_path / "h.csv"
    assert main(["sample", "--edges", str(edges), "--size", "40", "--omega", "64",
                 "--rng-seed", "2", "--out", str(dump)]) == 0
    capsys.readouterr()
    for name in ("n2psi", "n3psi"):
        assert main(["estimate", "--estimator", name, "--omega", omega, "--sample", str(dump)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the code space size omega must be at least 1, got {omega}\n"


@pytest.mark.parametrize("name", ["n1", "n2", "n3"])
def test_estimate_plaintext_rejects_omega(tmp_path, capsys, name):
    edges = _generate_edges(tmp_path)
    dump = tmp_path / "s.csv"
    assert main(["sample", "--edges", str(edges), "--size", "40", "--rng-seed", "2",
                 "--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--estimator", name, "--omega", "0", "--sample", str(dump)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} takes no --omega\n"


@pytest.mark.parametrize("argv", [
    ["estimate", "--estimator", "n2", "--sample", "s.csv", "--out", "x"],
    ["stats", "--edges", "g.txt", "--out", "x"],
])
def test_estimate_and_stats_take_no_out(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --out x" in capsys.readouterr().err


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    """One dump per kind of sample an estimator reads."""
    tmp = tmp_path_factory.mktemp("dumps")
    edges = _generate_edges(tmp, n=400, lam=8.0)
    made = {"uniform": ["--mode", "uniform"], "rds": [], "hashed": ["--omega", "4096"]}
    for kind, flags in made.items():
        assert main(["sample", "--edges", str(edges), "--size", "100", "--rng-seed", "1",
                     "--out", str(tmp / f"{kind}.csv"), *flags]) == 0
    return tmp


@pytest.mark.parametrize("name", list(ESTIMATORS))
def test_every_table_estimator_runs_in_a_plan_and_on_the_command_line(dumps, capsys, name):
    plan = parse_plan(f"families = er\nlambdas = 6\nsizes = 120\nr = 30\nestimators = {name}\n"
                      "omegas = 4096\nsample_replicates = 2\n")
    raw, summaries = run_plan(plan)
    assert {row.estimator for row in raw} == {name} and len(raw) == plan.run_count() == 2
    assert [row.estimator for row in summaries] == [name]

    _, reads = ESTIMATORS[name]
    omega = ["--omega", "4096"] if reads == "hashed" else []
    capsys.readouterr()
    assert main(["estimate", "--estimator", name, "--sample", str(dumps / f"{reads}.csv"), *omega]) == 0
    assert f"estimator={name} estimate=" in capsys.readouterr().out


def test_uniform_sample_estimate_n1(tmp_path, capsys):
    edges = _generate_edges(tmp_path, n=400, lam=9.0)
    dump = tmp_path / "u.csv"
    assert main(["sample", "--edges", str(edges), "--mode", "uniform", "--size", "150",
                 "--rng-seed", "4", "--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--estimator", "n1", "--sample", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "failed=false" in out


def test_experiment_plan_determinism(tmp_path):
    plan = tmp_path / "tiny.plan"
    plan.write_text(
        "families = er\nlambdas = 6\nsizes = 120\nr = 30\n"
        "estimators = n1,n2\ngraph_replicates = 2\nsample_replicates = 2\nseed = 5\n"
    )
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["experiment", "--plan", str(plan), "--out", str(out1)]) == 0
    assert main(["experiment", "--plan", str(plan), "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "raw.csv").read_bytes() == (out2 / "raw.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


def test_ingest_and_stats(tmp_path, capsys):
    path = tmp_path / "raw.txt"
    path.write_text("# comment\n0 1\n1 0\n1 2\n2 2\n")
    norm = tmp_path / "norm.txt"
    idmap = tmp_path / "ids.txt"
    assert main(["ingest", "--edges", str(path), "--directed", "--dedupe", "--drop-loops",
                 "--out", str(norm), "--id-map", str(idmap)]) == 0
    out = capsys.readouterr().out
    assert "kept 3 nodes / 2 edges" in out
    assert idmap.read_text().count("\n") == 4  # header + 3 ids

    assert main(["stats", "--edges", str(norm)]) == 0
    out = capsys.readouterr().out
    assert "average_clustering=" in out and "transitivity=" in out


def test_stats_on_triangle(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    assert main(["stats", "--edges", str(path)]) == 0
    out = capsys.readouterr().out
    assert "average_clustering=1.000000" in out
    assert "transitivity=1.000000" in out


def test_missing_file_errors(tmp_path, capsys):
    assert main(["estimate", "--estimator", "n2", "--sample", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_flags_exit_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "weird", "--lambda", "3", "--n", "10"])
    assert exc.value.code != 0


SRC = Path(cli.__file__).resolve().parents[1]


def _python(argv, cwd=None):
    """A fresh interpreter with netsize on its path: (exit code, stdout, stderr)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def _run_here(args, capsys):
    """The same call through this process's ``main`` and its one parser."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_on_first_call_not_at_import():
    probe = "import netsize.cli as c; print(c._parser.cache_info().currsize)"
    assert _python(["-c", probe]) == (0, "0\n", "")
    assert cli._parser() is cli._parser()


def test_reused_parser_prints_what_fresh_processes_print(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _generate_edges(tmp_path, name="g.txt", n=300, lam=8.0)
    assert main(["sample", "--edges", "g.txt", "--size", "80", "--rng-seed", "1", "--out", "p.csv"]) == 0
    assert main(["sample", "--edges", "g.txt", "--size", "80", "--omega", "4096",
                 "--rng-seed", "1", "--out", "h.csv"]) == 0
    capsys.readouterr()
    calls = [
        ["estimate", "--estimator", "n2psi", "--omega", "4096", "--rng-seed", "5", "--sample", "h.csv"],
        ["estimate", "--estimator", "n2", "--sample", "p.csv"],
        ["estimate", "--estimator", "n3psi", "--sample", "h.csv"],
        ["estimate", "--estimator", "n9", "--sample", "p.csv"],
        ["estimate", "--estimator", "n3psi", "--omega", "0", "--sample", "h.csv"],
        ["generate", "--family", "ba", "--lambda", "4", "--n", "30", "--rng-seed", "2"],
        ["estimate", "--estimator", "n1", "--sample", "p.csv"],
    ]
    here = [_run_here(args, capsys) for args in calls]
    assert [code for code, _, _ in here] == [0, 0, 1, 2, 1, 0, 0]
    assert "omega=None" in here[1][1] and "seed=None" in here[1][1]
    assert here == [_python(["-m", "netsize", *args], cwd=tmp_path) for args in calls]
