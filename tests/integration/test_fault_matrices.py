"""Golden fault matrices: every cell of ``repro chaos`` and ``repro diff``.

The CLI runs of both matrices only report pass/fail, so a change on a fault
path (retransmission, duplicate suppression, gap repair) that still passes
would move rounds and message counts unseen.  ``tests/golden/fault_matrices.json``
pins each cell as the CLI tables print it, keyed by case name: the chaos
matrix per (seed, plan) and the differential matrix per (seed, workload),
seeds 0-7 as in CI.

A change that moves a cell on purpose re-records the file (run this module:
``PYTHONPATH=src python -m tests.integration.test_fault_matrices``) and says
per plan why in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.cases import (
    chaos_cases,
    chaos_row,
    compare_backends,
    diff_cases,
    diff_row,
    run_case,
)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "fault_matrices.json"
SEEDS = range(8)


def chaos_rows() -> dict:
    return {case.name: chaos_row(run_case(case)) for case in chaos_cases(SEEDS)}


def differential_rows() -> dict:
    return {case.name: diff_row(compare_backends(case)) for case in diff_cases(SEEDS)}


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_chaos_matrix_matches_its_golden_rows():
    assert chaos_rows() == golden()["chaos"]


def test_differential_matrix_matches_its_golden_rows():
    assert differential_rows() == golden()["differential"]


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    # One cell per line, so a re-record's diff names exactly the cells moved.
    sections = [
        f' "{name}": {{\n'
        + ",\n".join(f"  {json.dumps(key)}: {json.dumps(row)}" for key, row in rows.items())
        + "\n }"
        for name, rows in (("chaos", chaos_rows()), ("differential", differential_rows()))
    ]
    GOLDEN_PATH.write_text(
        f'{{\n "recorded_at": "{commit}",\n' + ",\n".join(sections) + "\n}\n"
    )
