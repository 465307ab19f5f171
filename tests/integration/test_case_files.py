"""Committed case files: each one re-runs to the row it was recorded for.

A case file is what ``python -m repro replay`` takes (CI replays every file
in ``tests/cases/``).  ``diff-4-hypertext.json`` is differential cell
``4/hypertext``: both backends clear it in 4 rounds, but a trace answered
Live there still leaves frames waiting at sites that never replied, and
their timers fire in a fault-free run (ROADMAP item 19).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.cases import Case, compare_backends, diff_case, diff_row, run_case
from repro.metrics import names

from .test_fault_matrices import golden

CASES_DIR = Path(__file__).resolve().parents[1] / "cases"
CASE_FILES = sorted(CASES_DIR.glob("*.json"))


def load(path: Path) -> Case:
    return Case.from_json(json.loads(path.read_text()))


@pytest.mark.parametrize("path", CASE_FILES, ids=[path.name for path in CASE_FILES])
def test_case_file_round_trips(path):
    data = json.loads(path.read_text())
    assert load(path).to_json() == data


def test_diff_4_hypertext_replays_its_golden_row():
    case = load(CASES_DIR / "diff-4-hypertext.json")
    assert case == diff_case(4, "hypertext")
    row = diff_row(compare_backends(case))
    assert row == golden()["differential"]["4/hypertext"]
    assert (row["bt_rounds"], row["term_rounds"]) == (4, 4)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 19: a trace answered Live leaves frames waiting at "
    "sites that never replied, and their own timers fire",
)
def test_diff_4_hypertext_back_traces_never_time_out():
    run = run_case(load(CASES_DIR / "diff-4-hypertext.json"), "backtrace")
    assert not run.violations
    # Fault-free: every call gets its reply and every outcome its report.
    assert run.metrics.count(names.BACKTRACE_FRAME_TIMEOUTS) == 0
    assert run.metrics.count(names.BACKTRACE_OUTCOME_TIMEOUTS) == 0
