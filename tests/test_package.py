"""The package's public surface: what ``from netsize import *`` exports, and no
module-level name that nothing uses."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import netsize
from netsize import cli, estimators, harness, ingest

SOURCES = sorted(Path(netsize.__file__).resolve().parent.glob("*.py"))

# nothing in src/ calls these three, but perfbench/workloads.py does; they go
# when the benchmark stops calling them (ROADMAP item 8)
CALLED_BY_THE_BENCHMARK = {"sample_to_rows", "hashed_to_rows", "rows_to_hashed"}


def test_every_exported_name_is_listed_once_and_resolves():
    assert len(netsize.__all__) == len(set(netsize.__all__))
    assert [name for name in netsize.__all__ if not hasattr(netsize, name)] == []


def _defined_names(statement):
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def unused_names(sources):
    """Each module-level function, class and assigned name of ``sources`` that no
    other top-level statement of theirs reads, as ``module.name``.  Imports do not
    count as reads, so a name only re-exported must be listed in ``__all__``."""
    defined, readers = [], {}
    for path in sources:
        for statement in ast.parse(path.read_text()).body:
            defined += [(path.stem, name, statement) for name in _defined_names(statement)]
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add(id(statement))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(id(statement))
    return [f"{module}.{name}" for module, name, statement in defined
            if not name.startswith("__") and not readers.get(name, set()) - {id(statement)}]


def test_every_module_level_name_is_used_or_exported():
    unused = [name for name in unused_names(SOURCES)
              if name.split(".")[1] not in set(netsize.__all__) | CALLED_BY_THE_BENCHMARK]
    assert unused == []


def test_each_name_excused_for_the_benchmark_is_still_called_by_it():
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    called = {node.func.attr for node in ast.walk(ast.parse(workloads.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert CALLED_BY_THE_BENCHMARK - called == set()


def test_only_graph_words_the_integer_rule():
    # graph.check_int raises "<what> must be an integer, got <value>" for every module
    wording = {path.stem for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and isinstance(node.value, str) and "must be an integer" in node.value}
    assert wording == {"graph"}


def test_one_function_words_the_size_rule_of_the_psi_math():
    # omega and n' share estimators' one rule; n' once had a check of its own
    wording = [(path.stem, function.name) for path in SOURCES for function in ast.walk(ast.parse(path.read_text()))
               if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
               for node in ast.walk(function) if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and "must be a finite number of at least 1" in node.value]
    assert len(wording) == 1 and wording[0][0] == "estimators"
    assert not hasattr(estimators, "_check_n_prime")


def test_only_graph_imports_counter():
    # Counter is the type of graph's reference definitions; a Sample's columns are flat int arrays
    importers = {path.stem for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Import) and any(alias.name == "collections" for alias in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "collections"
                 and any(alias.name == "Counter" for alias in node.names)}
    assert importers == {"graph"}


def test_only_ingest_sets_a_line_end_rule():
    # every writer ends lines in \n and every reader reads universal newlines, whatever the caller
    setters = {path.stem for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and any(kw.arg == "newline" for kw in node.keywords)}
    assert setters <= {"ingest"}
    for helper in (ingest.read_lines, ingest.open_written):
        assert "newline" not in inspect.signature(helper).parameters


def _opens_bytes(call):
    return (len(call.args) == 2 and not call.keywords
            and isinstance(call.args[1], ast.Constant) and call.args[1].value == "rb")


def test_only_ingest_decodes_input_text():
    # every other reader opens its input once, in binary, and hands the bytes to ingest.read_lines
    opens = [(path.stem, node) for path in SOURCES if path.stem != "ingest"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"]
    assert opens
    assert [f"{stem}:{node.lineno}" for stem, node in opens if not _opens_bytes(node)] == []


def test_hashing_imports_no_private_name_of_estimators():
    # the benchmark calls these two through hashing; the rest of the ψ math is imported from estimators
    tree = ast.parse(Path(netsize.__file__).resolve().parent.joinpath("hashing.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module in ("estimators", "netsize.estimators") for alias in node.names]
    assert sorted(imported) == ["estimate_n2_hashed", "estimate_n3_hashed"]


# each module imports only the modules before it; a helper two of them need lives in the lower one
LAYERS = ("graph", "ingest", "generators", "sampling", "estimators", "hashing", "harness", "cli")


def netsize_imports(path):
    """``(module, name)`` for each name that ``path`` imports from a netsize module, with
    name None where the module itself is imported; the package itself is ``__init__``."""
    modules = {source.stem for source in SOURCES}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name.split(".")[1], None) for alias in node.names
                        if alias.name.startswith("netsize."))
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "netsize"):
            module = (node.module or "").removeprefix("netsize").lstrip(".") or "__init__"
            for alias in node.names:
                yield (alias.name, None) if module == "__init__" and alias.name in modules else (module, alias.name)


def test_no_module_imports_a_private_name_of_another():
    reached = [f"{path.stem} <- {module}.{name}" for path in SOURCES for module, name in netsize_imports(path)
               if name and name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
    assert reached == []


def test_each_module_imports_only_the_modules_before_it():
    assert {path.stem for path in SOURCES} - {"__init__", "__main__"} == set(LAYERS)
    upward = [f"{path.stem} <- {module}" for path in SOURCES if path.stem in LAYERS
              for module in dict.fromkeys(module for module, _ in netsize_imports(path))
              if module in LAYERS and LAYERS.index(module) >= LAYERS.index(path.stem)]
    assert upward == []


def test_every_dispatch_table_entry_is_its_estimator_in_estimators():
    # harness and cli look each function up by name in their own module (ESTIMATORS)
    expected = {
        "n1": estimators.estimate_n1,
        "n2": estimators.estimate_n2,
        "n3": estimators.estimate_n3,
        "n2psi": estimators.estimate_n2_hashed,
        "n3psi": estimators.estimate_n3_hashed,
    }
    assert set(harness.ESTIMATORS) == set(expected)
    for name, (function, _) in harness.ESTIMATORS.items():
        assert getattr(harness, function) is expected[name]
        assert getattr(cli, function) is expected[name]


def test_a_failing_hypothesis_test_reports_as_one_failure(tmp_path):
    """Under the repo's pytest config, where every warning is an error, a
    falsifying example is reported as a failure, not an ``INTERNALERROR``."""
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_falsified(x):\n    assert x < 1\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
                           "test_falsified.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout and "INTERNALERROR" not in done.stdout + done.stderr
