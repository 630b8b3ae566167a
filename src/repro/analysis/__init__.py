"""Analysis, auditing and experiment orchestration.

* :mod:`repro.analysis.audit` -- constraint-violation audits of integral
  solutions and checks of the paper's approximation guarantees;
* :mod:`repro.analysis.metrics` -- cost/reliability metrics and cross-
  algorithm comparisons;
* :mod:`repro.analysis.tables` -- plain-text / CSV table formatting used by
  the benchmark harness and EXPERIMENTS.md;
* :mod:`repro.analysis.runner` -- the experiment-orchestration subsystem:
  scenario registry, multiprocess executor, the versioned ``BenchRecord``
  result schema and the baseline drift classification CI gates on;
* :mod:`repro.analysis.scenarios` -- the registered scenario catalogue (one
  spec per paper table/figure experiment).
"""

from repro.analysis.audit import GuaranteeCheck, SolutionAudit, audit_solution, check_paper_guarantees
from repro.analysis.metrics import (
    compare_designs,
    cost_breakdown,
    cost_ratio,
    reliability_metrics,
)
from repro.analysis.tables import format_table
from repro.analysis.runner import (
    BenchRecord,
    ComparisonReport,
    MetricDrift,
    MetricPolicy,
    ScenarioSpec,
    compare_records,
    execute_tasks,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_ids,
)

__all__ = [
    "BenchRecord",
    "ComparisonReport",
    "GuaranteeCheck",
    "MetricDrift",
    "MetricPolicy",
    "ScenarioSpec",
    "SolutionAudit",
    "audit_solution",
    "check_paper_guarantees",
    "compare_designs",
    "compare_records",
    "cost_breakdown",
    "cost_ratio",
    "execute_tasks",
    "format_table",
    "get_scenario",
    "register_scenario",
    "reliability_metrics",
    "run_scenario",
    "scenario_ids",
]
