"""Smoke tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.harness.cases import FAULT_START, chaos_case
from repro.net.faults import FaultPlan

CASES = Path(__file__).resolve().parents[1] / "cases"


def test_demo_exits_zero(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "collected after" in out


def test_figures_runs(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out and "Figure 3" in out


def test_stress_short_run(capsys):
    assert main(["--seed", "1", "stress", "--duration", "600"]) == 0
    out = capsys.readouterr().out
    assert "zero residual garbage" in out


def test_chaos_matrix_passes(capsys):
    assert main(["chaos"]) == 0
    assert "56/56 cases passed" in capsys.readouterr().out


def test_differential_matrix_agrees(capsys):
    assert main(["diff"]) == 0
    assert "24/24 cells agreed" in capsys.readouterr().out


def test_replay_prints_the_row_of_a_committed_case(capsys):
    assert main(["replay", str(CASES / "diff-4-hypertext.json")]) == 0
    out = capsys.readouterr().out
    assert "Replay of 4/hypertext" in out
    [row] = [line for line in out.splitlines() if "hypertext" in line and "yes" in line]
    assert row.split() == ["4", "hypertext", "40", "4", "4", "+0.00", "yes"]


def test_replay_under_one_backend(capsys):
    path = str(CASES / "diff-4-hypertext.json")
    assert main(["replay", path, "--backend", "termination"]) == 0
    assert "Replay of 4/hypertext under termination" in capsys.readouterr().out


def test_replay_exits_nonzero_with_the_first_violation(tmp_path, capsys):
    plan = FaultPlan.loss(1.0, start=FAULT_START)  # never heals
    path = tmp_path / "case.json"
    path.write_text(json.dumps(chaos_case(1, plan, n_sites=3, garbage_rings=1).to_json()))
    assert main(["replay", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[1/loss100] plan never heals" in out
    assert "0/1 passed" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_seed_flag_replays_identically(capsys):
    main(["--seed", "7", "demo"])
    first = capsys.readouterr().out
    main(["--seed", "7", "demo"])
    second = capsys.readouterr().out
    assert first == second
