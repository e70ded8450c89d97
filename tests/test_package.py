"""The package's public surface: what ``from netsize import *`` exports, and no
module-level name that nothing uses."""

import ast
from pathlib import Path

import netsize
from netsize import cli, estimators, harness

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


def test_hashing_imports_no_private_name_of_estimators():
    # the benchmark calls these two through hashing; the rest of the ψ math is imported from estimators
    tree = ast.parse(Path(netsize.__file__).resolve().parent.joinpath("hashing.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module in ("estimators", "netsize.estimators") for alias in node.names]
    assert sorted(imported) == ["estimate_n2_hashed", "estimate_n3_hashed"]


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
