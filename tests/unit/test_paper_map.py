"""Every pin in ``docs/PAPER_MAP.md`` names a test or bench that exists.

The map's "Pinned by" column is where a reader goes to find the test behind
a claim of the paper, so a pin must stay a name (or glob) defined under
``tests/`` or ``benchmarks/``: a module, function or class.  A test renamed
or deleted without updating the map fails here.
"""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PAPER_MAP = ROOT / "docs" / "PAPER_MAP.md"


def defined_names() -> set:
    names = set()
    for folder in ("tests", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            names.add(path.stem)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.add(node.name)
    return names


def pins() -> list:
    found = []
    for line in PAPER_MAP.read_text().splitlines():
        cells = line.split("|")
        if len(cells) < 3 or cells[-2].strip() in ("Pinned by", "---"):
            continue
        found.extend(re.findall(r"`([^`]+)`", cells[-2]))
    return found


def test_every_pin_names_a_test_or_bench():
    names = defined_names()
    pinned = pins()
    assert len(pinned) > 40  # the table was read, not skipped
    unresolved = [
        pin for pin in pinned if not any(fnmatchcase(name, pin) for name in names)
    ]
    assert not unresolved, unresolved
