"""Experiment harness: the Table 1 regeneration and the supplementary
measurements indexed in DESIGN.md."""

from repro.experiments.ablation import AblationPoint, run_ablation
from repro.experiments.bench import ChurnProtocol, Measurement, run_section
from repro.experiments.convergence import SeriesPoint, run_convergence
from repro.experiments.exact_times import ExactTimePoint, run_exact_times
from repro.experiments.full_report import build_report
from repro.experiments.lower_bounds import BoundCheck, default_checks
from repro.experiments.recovery import RecoveryPoint, run_recovery
from repro.experiments.report import bullet_list, check_mark, render_table
from repro.experiments.scaling import ScalePoint, run_scaling
from repro.experiments.time_study import (
    PowerLawFit,
    fit_power_law,
    run_time_study,
)
from repro.experiments.tradeoffs import TradeoffRow, run_tradeoffs
from repro.experiments.table1 import Table1Row, render_rows, run_table1

__all__ = [
    "AblationPoint",
    "BoundCheck",
    "ChurnProtocol",
    "ExactTimePoint",
    "Measurement",
    "PowerLawFit",
    "RecoveryPoint",
    "ScalePoint",
    "SeriesPoint",
    "Table1Row",
    "TradeoffRow",
    "build_report",
    "bullet_list",
    "check_mark",
    "default_checks",
    "fit_power_law",
    "render_rows",
    "render_table",
    "run_ablation",
    "run_convergence",
    "run_exact_times",
    "run_recovery",
    "run_scaling",
    "run_section",
    "run_table1",
    "run_time_study",
    "run_tradeoffs",
]
