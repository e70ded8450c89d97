import argparse
import ast
import hashlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netsize import cli
from netsize.cli import main
from netsize.harness import ESTIMATORS, parse_plan, run_plan
from netsize.hashing import HashMode, HashSpace, assign_hashes, hashed_view
from netsize.ingest import EdgeListSpec, load_edge_list
from netsize.sampling import RdsConfig, Sample, rds_capture, sample_dump_lines, write_sample_dump


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


@pytest.mark.parametrize("args, message", [
    (["--omega", str(2**64 + 5)], f"hash space must contain at most 2**63 codes, got {2**64 + 5}"),
    (["--mode", "uniform", "--size", "-3"], "cannot sample -3 vertices from "),
])
def test_sample_names_a_bad_size(tmp_path, capsys, args, message):
    edges = _generate_edges(tmp_path)
    capsys.readouterr()
    assert main(["sample", "--edges", str(edges), "--size", "40", *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_sample_checks_the_code_space_before_reading_the_graph(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["sample", "--edges", str(missing), "--size", "40", "--omega", str(2**64)]) == 1
    assert capsys.readouterr().err.startswith(f"error: hash space must contain at most 2**63 codes, got {2**64}")


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


def test_sample_from_a_path_with_a_line_break_writes_dumps_estimate_reads(tmp_path, capsys):
    weird = tmp_path / "we\nird"
    weird.mkdir()
    edges = _generate_edges(weird, n=300, lam=8.0)
    dump, printed = tmp_path / "s.csv", tmp_path / "printed.csv"
    argv = ["sample", "--edges", str(edges), "--size", "80", "--rng-seed", "1"]
    assert main(argv + ["--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    printed.write_text(capsys.readouterr().out)
    for path in (dump, printed):
        assert path.read_text().splitlines()[1] == "# ird/g.txt"
        assert main(["estimate", "--estimator", "n2", "--sample", str(path)]) == 0
        assert "failed=false" in capsys.readouterr().out


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


def test_sample_telefunken_takes_its_digit_count_from_omega(tmp_path, capsys):
    edges = _generate_edges(tmp_path, n=300, lam=8.0)
    dump = tmp_path / "t.csv"
    assert main(["sample", "--edges", str(edges), "--size", "80", "--omega", "256",
                 "--hash-mode", "telefunken", "--rng-seed", "1", "--out", str(dump)]) == 0
    rows = dump.read_text().split("\n", 1)[1]  # the header names the graph's path
    # the library path with a four-digit telefunken space gives the same rows
    g, _, _ = load_edge_list(EdgeListSpec(edges))
    rng = np.random.default_rng(1)
    sample = rds_capture(g, RdsConfig(target_size=80), rng)
    space = HashSpace(256, HashMode.TELEFUNKEN)
    assert space.telefunken_digits == 4
    assert rows == "\n".join(sample_dump_lines(hashed_view(sample, assign_hashes(g.n, space, rng)))) + "\n"
    assert hashlib.sha256(rows.encode()).hexdigest() == \
        "0d356a05c86c66f938d20739eb56e022fb9e92d4b2a8db702b9bbdc1e4f4c0d0"
    with pytest.raises(SystemExit):
        main(["sample", "--edges", str(edges), "--size", "80", "--omega", "256",
              "--hash-mode", "telefunken", "--telefunken-digits", "4"])


def test_sample_telefunken_rejects_omega_off_the_powers_of_four(tmp_path, capsys):
    edges = _generate_edges(tmp_path)
    capsys.readouterr()
    assert main(["sample", "--edges", str(edges), "--size", "40", "--omega", "100",
                 "--hash-mode", "telefunken", "--out", str(tmp_path / "t.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: telefunken mode needs size == 4**digits\n"


def test_estimate_help_says_a_telefunken_dump_reads_low(capsys):
    # the ψ correction assumes equally likely codes, which telefunken codes are not
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--help"])
    assert exc.value.code == 0
    shown = " ".join(capsys.readouterr().out.split())
    assert "a telefunken dump is estimated at this nominal size and reads low" in shown


@pytest.mark.parametrize("mode", ["telefunken", "injective", "random"])
def test_sample_hash_mode_needs_omega(tmp_path, capsys, mode):
    edges = _generate_edges(tmp_path, n=60)
    capsys.readouterr()
    dump = tmp_path / "h.csv"
    assert main(["sample", "--edges", str(edges), "--size", "20", "--hash-mode", mode,
                 "--rng-seed", "1", "--out", str(dump)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --hash-mode needs --omega\n"
    assert not dump.exists()


def test_sample_omega_alone_means_random_codes(tmp_path, capsys):
    edges = _generate_edges(tmp_path)
    argv = ["sample", "--edges", str(edges), "--size", "40", "--omega", "64", "--rng-seed", "2"]
    capsys.readouterr()
    assert main(argv) == 0
    alone = capsys.readouterr().out
    assert main(argv + ["--hash-mode", "random"]) == 0
    assert capsys.readouterr().out == alone
    assert alone.startswith("# ") and alone.splitlines()[0].endswith(" omega=64 hash_mode=random")


def test_estimate_hashed_requires_omega(tmp_path, capsys):
    edges = _generate_edges(tmp_path)
    dump = tmp_path / "s.csv"
    main(["sample", "--edges", str(edges), "--size", "40", "--rng-seed", "2",
          "--out", str(dump)])
    assert main(["estimate", "--estimator", "n2psi", "--sample", str(dump)]) == 1


@pytest.mark.parametrize("omega", ["0", "-5", "1" + "0" * 400], ids=["0", "-5", "10**400"])
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
        assert captured.err == f"error: the code space size omega must be a finite number of at least 1, got {omega}\n"


@pytest.mark.parametrize("name", ["n1", "n2", "n3"])
def test_estimate_plaintext_rejects_a_dump_with_duplicate_subject_codes(tmp_path, capsys, name):
    dump = tmp_path / "hashed.csv"
    write_sample_dump(Sample(codes=(4, 4), degrees=(2, 2), alter_codes=(4, 4), alter_offsets=(0, 1, 2),
                             components=(0, 1)), dump)
    assert main(["estimate", "--estimator", name, "--sample", str(dump)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate subject ids; hashed dumps cannot be read as plaintext\n"


def test_estimate_reports_a_failure_and_exits_0_on_a_dump_with_no_matches(tmp_path, capsys):
    dump = tmp_path / "unmatched.csv"
    write_sample_dump(Sample(codes=(1, 2), degrees=(2, 2), alter_codes=(5, 6), alter_offsets=(0, 1, 2),
                             components=(0, 1)), dump)
    assert main(["estimate", "--estimator", "n2", "--sample", str(dump)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "estimator=n2 estimate= failed=true cause=ZeroMatches"


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
    omegas = "omegas = 4096\n" if ESTIMATORS[name][1] == "hashed" else ""
    plan = parse_plan(f"families = er\nlambdas = 6\nsizes = 120\nr = 30\nestimators = {name}\n"
                      f"{omegas}sample_replicates = 2\n")
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


@pytest.mark.parametrize("family, lam, n", [("ba", "0.5", "100"), ("ba", "3", "3"), ("er", "500", "100")])
def test_experiment_rejects_a_mean_degree_its_family_cannot_generate_before_running(tmp_path, capsys,
                                                                                    family, lam, n):
    plan = tmp_path / "bad.plan"
    plan.write_text(f"families = {family}\nlambdas = {lam}\nsizes = {n}\nr = 2\nestimators = n1\n")
    assert main(["experiment", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: plan line 2: lambdas: {family} graphs on {n} vertices: ")


def test_experiment_rejects_a_replicate_count_past_the_index_range(tmp_path, capsys):
    plan = tmp_path / "huge.plan"
    plan.write_text("families = er\nlambdas = 3\nsizes = 100\nr = 10\nestimators = n1\n"
                    "graph_replicates = 99999999999999999999\n")
    assert main(["experiment", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: plan line 6: graph_replicates: replicate counts must be "
                            f"<= {sys.maxsize}\n")


def test_experiment_names_the_plan_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    plan = tmp_path / "latin1.plan"
    plan.write_bytes(b"families = er\nlambdas = 3\n# na\xefve\nsizes = 100\nr = 10\nestimators = n1\n")
    assert main(["experiment", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: plan line 3: byte 0xef is not UTF-8 (invalid continuation byte)\n"


def test_ingest_and_stats(tmp_path, capsys):
    path = tmp_path / "raw.txt"
    path.write_text("# comment\n0 1\n1 0\n1 2\n2 2\n")
    norm = tmp_path / "norm.txt"
    idmap = tmp_path / "ids.txt"
    assert main(["ingest", "--edges", str(path), "--dedupe", "--drop-loops",
                 "--out", str(norm), "--id-map", str(idmap)]) == 0
    out = capsys.readouterr().out
    assert "kept 3 nodes / 2 edges" in out
    assert idmap.read_text().count("\n") == 4  # header + 3 ids

    assert main(["stats", "--edges", str(norm)]) == 0
    out = capsys.readouterr().out
    assert "average_clustering=" in out and "transitivity=" in out


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _options(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """Each command's flags, without ``--help``."""
    return {name: {flag for action in command._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, command in _commands(parser).items()}


def _reads(function, name: str = "args") -> set[str]:
    """The attributes of ``name`` that ``function`` reads as ``name.<attr>``, with
    those read by each function of the cli module that it passes ``name`` to."""
    reads = set()
    for node in ast.walk(ast.parse(inspect.getsource(function))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == name:
            reads.add(node.attr)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        helper = getattr(cli, node.func.id, None)
        if inspect.isfunction(helper) and helper.__module__ == cli.__name__ and helper is not function:
            params = list(inspect.signature(helper).parameters)
            passed = [params[i] for i, arg in enumerate(node.args) if isinstance(arg, ast.Name) and arg.id == name]
            passed += [kw.arg for kw in node.keywords if isinstance(kw.value, ast.Name) and kw.value.id == name]
            for param in passed:
                reads |= _reads(helper, param)
    return reads


def test_every_flag_is_read_by_its_command():
    unread = {}
    for name, command in _commands(cli.build_parser()).items():
        dests = {action.dest for action in command._actions if not isinstance(action, argparse._HelpAction)}
        unread[name] = sorted(dests - _reads(command.get_default("func")))
    assert unread == {name: [] for name in unread}


def test_ingest_and_stats_take_the_flags_the_readme_documents():
    shared, extra = re.search(r"`ingest` and `stats` take (.*?); `ingest` also takes (.*?)\.\n", README, re.S).groups()
    documented = {"stats": set(re.findall(r"`(--[a-z-]+)`", shared))}
    documented["ingest"] = documented["stats"] | set(re.findall(r"`(--[a-z-]+)`", extra))
    options = _options(cli.build_parser())
    for name, flags in documented.items():
        assert options[name] == flags, name


def test_every_readme_command_line_parses():
    lines = [line for block in re.findall(r"```bash\n(.*?)```", README, re.S)
             for line in block.splitlines() if line.startswith("netsize ")]
    assert lines
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])  # a flag the CLI lacks exits 2


def test_only_the_commands_that_draw_take_a_seed(tmp_path, capsys, monkeypatch):
    options = _options(cli.build_parser())
    assert {name for name, flags in options.items() if "--rng-seed" in flags} == {"generate", "sample"}
    monkeypatch.chdir(tmp_path)
    _generate_edges(tmp_path, name="g.txt", n=120, lam=6.0)
    assert main(["sample", "--edges", "g.txt", "--size", "20", "--out", "s.csv"]) == 0
    (tmp_path / "tiny.plan").write_text("families = er\nlambdas = 6\nsizes = 120\nr = 20\nestimators = n2\n")
    runs = {
        "estimate": ["--estimator", "n2", "--sample", "s.csv"],
        "experiment": ["--plan", "tiny.plan", "--out", "out"],
        "ingest": ["--edges", "g.txt"],
        "stats": ["--edges", "g.txt"],
    }
    capsys.readouterr()
    for name, args in runs.items():
        assert main([name, *args]) == 0
        version, command, params = capsys.readouterr().out.splitlines()[0].split(" | ")
        assert (version, command) == (f"netsize {cli.__version__}", name)
        assert "seed" not in dict(field.split("=", 1) for field in params.split()), name
        with pytest.raises(SystemExit) as exc:
            main([name, *args, "--rng-seed", "1"])
        assert exc.value.code == 2


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


def _python(argv, cwd=None, env=None):
    """A fresh interpreter with netsize on its path and ``env`` set: (exit code, stdout, stderr)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env={**os.environ, **(env or {}), "PYTHONPATH": path},
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


def test_importing_the_cli_loads_no_process_pool_or_logging():
    # run_plan imports the pool only for several workers, and rewiring imports logging only to warn
    probe = ("import sys, netsize.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures.process', 'logging'} & set(sys.modules)))")
    assert _python(["-c", probe]) == (0, "[]\n", "")


_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _locale_is_ascii():
    probe = "import locale; print(locale.getpreferredencoding(False))"
    return _python(["-c", probe], env=_ASCII_LOCALE)[1].strip().lower() in ("ansi_x3.4-1968", "ascii", "us-ascii")


def test_writers_write_utf8_under_an_ascii_locale(tmp_path):
    if not _locale_is_ascii():
        pytest.skip("the C locale is not ASCII here")
    probe = "\n".join([
        "from netsize.graph import MultiGraph",
        "from netsize.ingest import EdgeListSpec, load_edge_list, write_edge_list",
        "from netsize.sampling import as_sample_view, read_sample_dump, write_sample_dump",
        "g = MultiGraph(3, [(0, 1), (1, 2)])",
        "comment = 'from /data/Z\\u00fcrich/edges.txt'",
        "write_sample_dump(as_sample_view(g, [0, 2]), 's.csv', header_comment=comment)",
        "write_edge_list(g, 'g.txt', comments=[comment])",
        "print(read_sample_dump('s.csv').order, load_edge_list(EdgeListSpec('g.txt'))[0].num_edges)",
    ])
    assert _python(["-c", probe], cwd=tmp_path, env=_ASCII_LOCALE) == (0, "(0, 2) 2\n", "")
    for name in ("s.csv", "g.txt"):
        assert (tmp_path / name).read_bytes().startswith("# from /data/Zürich/edges.txt\n".encode())


def test_ingest_writes_a_path_the_locale_cannot_decode_back_byte_for_byte(tmp_path):
    if not _locale_is_ascii():
        pytest.skip("the C locale is not ASCII here")
    edges = tmp_path / "Zürich" / "g.txt"
    edges.parent.mkdir()
    edges.write_text("5 7\n7 9\n")
    argv = ["-m", "netsize", "ingest", "--edges", str(edges), "--out", "out.txt", "--id-map", "ids.txt"]
    code, _, err = _python(argv, cwd=tmp_path, env=_ASCII_LOCALE)
    assert (code, err) == (0, "")
    assert (tmp_path / "out.txt").read_bytes().startswith(b"# normalized from " + os.fsencode(edges) + b"\n")
    g, _, _ = load_edge_list(EdgeListSpec(tmp_path / "out.txt"))
    assert g.num_edges == 2
    assert (tmp_path / "ids.txt").read_text(encoding="utf-8").startswith("# original_id new_id\n5 0\n")


def test_reused_parser_prints_what_fresh_processes_print(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _generate_edges(tmp_path, name="g.txt", n=300, lam=8.0)
    assert main(["sample", "--edges", "g.txt", "--size", "80", "--rng-seed", "1", "--out", "p.csv"]) == 0
    assert main(["sample", "--edges", "g.txt", "--size", "80", "--omega", "4096",
                 "--rng-seed", "1", "--out", "h.csv"]) == 0
    capsys.readouterr()
    calls = [
        ["sample", "--edges", "g.txt", "--size", "20", "--rng-seed", "5"],
        ["sample", "--edges", "g.txt", "--size", "20"],
        ["estimate", "--estimator", "n2psi", "--omega", "4096", "--sample", "h.csv"],
        ["estimate", "--estimator", "n2", "--sample", "p.csv"],
        ["estimate", "--estimator", "n3psi", "--sample", "h.csv"],
        ["estimate", "--estimator", "n9", "--sample", "p.csv"],
        ["estimate", "--estimator", "n3psi", "--omega", "0", "--sample", "h.csv"],
        ["generate", "--family", "ba", "--lambda", "4", "--n", "30", "--rng-seed", "2"],
        ["estimate", "--estimator", "n1", "--sample", "p.csv"],
    ]
    here = [_run_here(args, capsys) for args in calls]
    assert [code for code, _, _ in here] == [0, 0, 0, 0, 1, 2, 1, 0, 0]
    assert "| sample | seed=5 " in here[0][1] and "| sample | seed=0 " in here[1][1]
    assert "omega=None" in here[3][1]
    assert here == [_python(["-m", "netsize", *args], cwd=tmp_path) for args in calls]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_experiment_rejects_fewer_than_one_thread_before_the_header(tmp_path, capsys, threads):
    plan = tmp_path / "tiny.plan"
    plan.write_text("families = er\nlambdas = 6\nsizes = 120\nr = 30\nestimators = n1\n")
    out = tmp_path / "out"
    assert main(["experiment", "--plan", str(plan), "--threads", threads, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --threads must be at least 1, got {threads}\n"
    assert not out.exists()


def test_generate_rejects_a_size_no_graph_can_have_without_a_traceback():
    argv = ["-m", "netsize", "generate", "--family", "poisson", "--lambda", "3", "--n", "100000000000"]
    assert _python(argv) == (1, "", "error: graphs need n <= 3037000499, got 100000000000\n")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 745. GiB"), "error: out of memory: Unable to allocate 745. GiB\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_a_memory_error_becomes_an_error_line(capsys, monkeypatch, exc, message):
    def sample_graph(*args):
        raise exc

    monkeypatch.setattr(cli, "sample_graph", sample_graph)
    assert main(["generate", "--family", "poisson", "--lambda", "3", "--n", "1000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


@pytest.mark.parametrize("text, report", [
    ("0 1\n1 2\n2 2\n0 2\n", "kept 3 nodes / 3 edges (read 4 edge lines, dropped 1 loops, collapsed 0 duplicates"),
    ("0 1\n1 2\n2 1\n2 0\n", "kept 3 nodes / 3 edges (read 4 edge lines, dropped 0 loops, collapsed 1 duplicates"),
], ids=["loop", "reciprocal arcs"])
def test_stats_measures_the_simple_graph_of_a_file_with_loops_or_parallel_edges(tmp_path, capsys, text, report):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["stats", "--edges", str(path)]) == 0
    _, kept, measured = capsys.readouterr().out.splitlines()
    assert kept.startswith(report)
    assert measured == "average_clustering=1.000000 transitivity=1.000000"


def test_stats_reads_a_generated_configuration_graph_as_ingest_cleans_it(tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert main(["generate", "--family", "poisson", "--lambda", "4", "--n", "300", "--out", str(path)]) == 0
    assert main(["ingest", "--edges", str(path), "--dedupe", "--drop-loops"]) == 0
    report = capsys.readouterr().out.splitlines()[-1]
    assert "dropped 0 loops" not in report and "collapsed 0 duplicates" not in report
    assert main(["stats", "--edges", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == report


@pytest.mark.parametrize("family", ["lognormal", "poisson", "exponential"])
def test_generate_rejects_a_mean_degree_whose_stubs_overflow(capsys, family):
    assert main(["generate", "--family", family, "--lambda", "1e300", "--n", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: mean degree 1e+300 on 6 vertices puts the expected stub total "
                            "past the 64-bit range\n")
