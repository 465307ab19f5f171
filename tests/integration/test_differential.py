"""Differential cells: backtrace vs termination must agree, oracle-audited.

The acceptance bar of the second-backend work: across the full seed x
workload matrix both collectors reclaim **exactly** the oracle's garbage
set -- same objects, nothing live, nothing left behind -- differing only in
the round they reclaim it.  These tests run the same matrix the CI step runs
(``python -m repro diff``), in full.
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.harness.cases import (
    BACKENDS,
    BUILDERS,
    WORKLOADS,
    chaos_case,
    compare_backends,
    diff_case,
    diff_cases,
    standard_plans,
)


SEEDS = range(8)


@pytest.fixture(scope="module")
def matrix():
    return [compare_backends(case) for case in diff_cases(SEEDS)]


def test_matrix_shape(matrix):
    assert len(matrix) == len(SEEDS) * len(WORKLOADS)
    assert len(WORKLOADS) == 3


def test_every_cell_agrees(matrix):
    failures = [(c.case.name, c.failures) for c in matrix if c.failures]
    assert not failures, failures


def test_matrix_exercises_real_garbage(matrix):
    # Agreement on empty cells is vacuous; the matrix must contain real
    # collection work in every workload flavour.
    for workload in WORKLOADS:
        cells = [c for c in matrix if c.case.builder == workload]
        assert any(c.runs["backtrace"].garbage for c in cells), workload
    assert sum(1 for c in matrix if c.runs["backtrace"].garbage) >= len(matrix) // 2


def test_nonempty_cells_fully_reclaim_and_report_latency(matrix):
    for comparison in matrix:
        garbage = comparison.runs["backtrace"].garbage
        if not garbage:
            continue
        for name in BACKENDS:
            run = comparison.runs[name]
            assert run.collected, comparison.case.name
            assert run.reclaimed == garbage
            assert not run.violations
        assert comparison.latency_gap is not None


def test_reclaim_sets_match_across_backends(matrix):
    for comparison in matrix:
        bt, tm = (comparison.runs[name] for name in BACKENDS)
        assert bt.reclaimed == tm.reclaimed, comparison.case.name


def test_unknown_workload_rejected():
    with pytest.raises(ConfigError, match="unknown builder"):
        diff_case(0, "nonsense")


def test_twin_builds_that_differ_are_flagged(monkeypatch):
    # A build that depends on the backend breaks the premise of the
    # comparison; the cell must say so rather than diff two populations.
    def backend_dependent_rings(sim, sites, garbage, **args):
        extra = sim.config.gc.collector == "termination"
        return BUILDERS["rings"](sim, sites, garbage=garbage + extra, **args)

    monkeypatch.setitem(BUILDERS, "lopsided", backend_dependent_rings)
    case = replace(diff_case(0, "rings"), builder="lopsided")
    comparison = compare_backends(case)
    assert comparison.violations[0].startswith("non-identical twin builds")


def test_backends_agree_on_a_faulty_case_with_timed_cuts():
    # Garbage cut loose inside a storm and partly reclaimed before the drain
    # is still one backend-independent set, which both runs reclaim.
    storm = standard_plans([f"s{i}" for i in range(6)])[4]
    case = replace(chaos_case(3, storm), agrees=True)
    comparison = compare_backends(case)
    assert not comparison.failures, comparison.failures
    bt, tm = (comparison.runs[name] for name in BACKENDS)
    assert len(bt.garbage) == 18 and bt.reclaimed == tm.reclaimed == bt.garbage
