"""Smoke tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


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


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_seed_flag_replays_identically(capsys):
    main(["--seed", "7", "demo"])
    first = capsys.readouterr().out
    main(["--seed", "7", "demo"])
    second = capsys.readouterr().out
    assert first == second
