"""Golden fault matrices: every cell of ``repro chaos`` and ``repro diff``.

The CLI runs of both matrices only report pass/fail, so a change on a fault
path (retransmission, duplicate suppression, gap repair) that still passes
would move rounds and message counts unseen.  ``tests/golden/fault_matrices.json``
pins each cell as the CLI tables print it: the chaos matrix per (seed, plan)
and the differential matrix per (seed, workload), seeds 0-7 as in CI.

A change that moves a cell on purpose re-records the file (run this module:
``PYTHONPATH=src python -m tests.integration.test_fault_matrices``) and says
per plan why in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.chaos import run_chaos_matrix
from repro.harness.differential import run_differential_matrix

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "fault_matrices.json"
SEEDS = range(8)


def chaos_rows() -> dict:
    return {
        f"{result.seed}/{result.plan}": {
            "safe": result.safety_ok,
            "collected": result.collected,
            "rounds": result.rounds_to_collect,
            "dropped": result.dropped,
            "dup": result.duplicated,
            "retrans": result.retransmits,
            "suppressed": result.dup_suppressed,
        }
        for result in run_chaos_matrix(SEEDS)
    }


def differential_rows() -> dict:
    rows = {}
    for result in run_differential_matrix(SEEDS):
        bt, tm = result.runs["backtrace"], result.runs["termination"]
        rows[f"{result.seed}/{result.workload}"] = {
            "garbage": result.expected_garbage,
            "bt_rounds": bt.rounds_to_clear,
            "term_rounds": tm.rounds_to_clear,
            "gap": result.latency_gap,
            "agree": result.agreed,
        }
    return rows


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
