"""Experiment harness: scenario builders, runners, and report formatting."""

from .scenarios import (
    FigureScenario,
    build_figure1,
    build_figure2,
    build_figure3,
    build_figure5,
)
from .report import Table
from .chaos import ChaosResult, run_chaos_case, run_chaos_matrix, standard_plans
from .differential import (
    DifferentialResult,
    run_differential_case,
    run_differential_matrix,
)

__all__ = [
    "ChaosResult",
    "run_chaos_case",
    "run_chaos_matrix",
    "standard_plans",
    "DifferentialResult",
    "run_differential_case",
    "run_differential_matrix",
    "FigureScenario",
    "build_figure1",
    "build_figure2",
    "build_figure3",
    "build_figure5",
    "Table",
]
