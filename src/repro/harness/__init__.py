"""Experiment harnesses and result reporting."""

from repro.harness.experiments import (
    CentralRunStats,
    quantile_queries,
    run_processor,
    run_systems,
    tumbling_queries,
)
from repro.harness.reporting import fmt_bytes, fmt_ms, fmt_rate, print_table

__all__ = [
    "CentralRunStats",
    "fmt_bytes",
    "fmt_ms",
    "fmt_rate",
    "print_table",
    "quantile_queries",
    "run_processor",
    "run_systems",
    "tumbling_queries",
]
