"""Every checked paper-bench table has a producer.

``benchmarks/out/*.txt`` are exact-count goldens: CI re-runs the paper benches
and fails on ``git diff -- benchmarks/out``.  A table whose bench was deleted
is never rewritten, so that diff cannot notice it.  This test can: each
table's stem must be named by a ``record_table(...)`` call in a
``benchmarks/bench_*.py`` file (an f-string name counts for its literal
prefix), and each literal name must have its table.
"""

import ast
import pathlib

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def _recorded_names():
    """(exact names, f-string prefixes) passed to ``record_table``."""
    exact, prefixes = set(), set()
    for path in sorted(BENCHMARKS.glob("bench_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "record_table"
                and node.args
            ):
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                exact.add(name.value)
            elif isinstance(name, ast.JoinedStr):
                prefix = ""
                for part in name.values:
                    if not isinstance(part, ast.Constant):
                        break
                    prefix += part.value
                assert prefix, f"{path.name}: record_table name has no literal prefix"
                prefixes.add(prefix)
            else:
                raise AssertionError(f"{path.name}: unreadable record_table name")
    return exact, prefixes


def test_every_recorded_table_has_a_producer():
    exact, prefixes = _recorded_names()
    orphans = [
        path.name
        for path in sorted((BENCHMARKS / "out").glob("*.txt"))
        if path.stem not in exact
        and not any(path.stem.startswith(prefix) for prefix in prefixes)
    ]
    assert not orphans, f"tables no bench records: {orphans}"


def test_every_literal_table_name_is_checked_in():
    exact, _ = _recorded_names()
    missing = sorted(
        name for name in exact if not (BENCHMARKS / "out" / f"{name}.txt").exists()
    )
    assert not missing, f"recorded tables missing from benchmarks/out: {missing}"
