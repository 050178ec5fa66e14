"""Conformance: randomized differential fuzzing across every engine.

The subsystem (DESIGN.md §10) generates seeded
:class:`~repro.conformance.scenario.Scenario` descriptions over the full
knob cross-product — stream shape, query mix, disorder bound, topology,
fault plan, batching, checkpointing, punctuation mode — runs
each through every applicable executor (single-node engine, baselines,
Desis/Disco/Centralized clusters), checks equivalence against the naive
oracle and a web of byte-identical and metamorphic relations, and shrinks
any failure to a minimal standalone repro via delta debugging.

Entry points::

    python -m repro conformance --seed 7 --runs 25 --out conformance-out

    from repro.conformance import run_conformance
    report = run_conformance(seed=7, runs=25)
"""

from repro.conformance.check import (
    check_duplicate_query_invariance,
    check_fault_goodput,
    check_reshard_invariance,
    compare_results,
    evaluate_scenario,
)
from repro.conformance.executors import (
    ExecutionResult,
    canonical_rows,
    executor_matrix,
    in_order_streams,
    run_executor,
)
from repro.conformance.oracle import (
    EXACT,
    FLOAT_FOLD_FUNCTIONS,
    OracleWindow,
    TolerancePolicy,
    naive_results,
    naive_value,
    naive_windows,
    tolerance_for,
    values_match,
)
from repro.conformance.runner import (
    publish_conformance_counters,
    render_conformance_summary,
    run_conformance,
    run_scenario,
)
from repro.conformance.scenario import (
    CrashSpec,
    FaultSpec,
    QuerySpec,
    Scenario,
    ScenarioGenerator,
)
from repro.conformance.shrink import (
    ShrinkResult,
    shrink_scenario,
    write_repro_script,
)

__all__ = [
    "CrashSpec",
    "EXACT",
    "ExecutionResult",
    "FLOAT_FOLD_FUNCTIONS",
    "FaultSpec",
    "OracleWindow",
    "QuerySpec",
    "Scenario",
    "ScenarioGenerator",
    "ShrinkResult",
    "TolerancePolicy",
    "canonical_rows",
    "check_duplicate_query_invariance",
    "check_fault_goodput",
    "check_reshard_invariance",
    "compare_results",
    "evaluate_scenario",
    "executor_matrix",
    "in_order_streams",
    "naive_results",
    "naive_value",
    "naive_windows",
    "publish_conformance_counters",
    "render_conformance_summary",
    "run_conformance",
    "run_executor",
    "run_scenario",
    "shrink_scenario",
    "tolerance_for",
    "values_match",
    "write_repro_script",
]
