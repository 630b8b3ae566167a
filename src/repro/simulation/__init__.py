"""Packet-level streaming simulation.

The paper evaluates designs analytically (loss probabilities combine by the
rules of Section 1.3).  A deployed system, however, is judged by the *measured
post-reconstruction loss* at each edgeserver: the fraction of packets that no
reflector path delivered in time.  This subpackage simulates exactly that
process for any :class:`repro.core.OverlaySolution`:

* :mod:`repro.simulation.packets` -- packet-window bookkeeping;
* :mod:`repro.simulation.failures` -- injected events (ISP outages, node and
  regional failures, congestion) plus correlated failure samplers;
* :mod:`repro.simulation.montecarlo` -- path tables and the packed trial
  kernel: a block of trials over many demands as bit-packed numpy arrays;
  the shared source->reflector draw is broadcast to every path behind a
  reflector, and the edgeserver's reconstruction (a packet survives if
  *any* copy arrives) is a bitwise fold over each demand's paths;
* :mod:`repro.simulation.streaming` -- the Monte-Carlo engine
  (:func:`run_monte_carlo`): tiles the demands x trials plane, runs the
  kernel per tile and folds it into exact accumulators, flat memory in
  the trial count;
* :mod:`repro.simulation.traces` -- diurnal :class:`LoadTrace` catalogue
  (arrival/departure processes) for trace-driven replay through the fold;
* :mod:`repro.simulation.scenarios` -- the registered failure-scenario
  catalogue (:func:`evaluate_design` sweeps a design across it);
* :mod:`repro.simulation.dsl` -- the composable scenario DSL: YAML/JSON
  documents compiled into catalogue entries (the shipped ``*.json`` files
  under ``repro/simulation/scenarios/`` auto-register on first catalogue
  access; see ``docs/scenarios.md``).

The engine is the empirical cross-check for the analytic reliability claims
and the workhorse of the C1/R2/R3 benchmarks; see ``docs/simulation.md``
for the design and the RNG/determinism contract.
"""

from repro.simulation.dsl import (
    ScenarioValidationError,
    SpecIssue,
    compile_scenario,
    load_scenario_file,
    normalize_scenario_spec,
    register_scenario_file,
    shipped_scenario_paths,
)
from repro.simulation.failures import (
    FailureEvent,
    FailureSchedule,
    sample_flash_crowd_congestion,
    sample_isp_outage_schedule,
    sample_regional_outage_schedule,
)
from repro.simulation.montecarlo import (
    PathTable,
    compile_path_table,
    slice_path_table,
)
from repro.simulation.scenarios import (
    FailureScenario,
    ScenarioContext,
    ScenarioRealization,
    evaluate_design,
    evaluate_design_streaming,  # noqa: F401 -- kept for perfbench, not exported
    failure_scenario_names,
    get_failure_scenario,
    realize_scenario,
    reflector_betweenness,
    register_failure_scenario,
    scenario_stream_key,
    top_betweenness_reflectors,
)
from repro.simulation.streaming import (
    MonteCarloConfig,
    MonteCarloReport,
    StreamingAccumulator,
    StreamingMemoryError,
    TraceReport,
    run_monte_carlo,
)
from repro.simulation.traces import (
    LoadTrace,
    SessionActivity,
    get_load_trace,
    load_trace_names,
    register_load_trace,
)

__all__ = [
    "FailureEvent",
    "FailureScenario",
    "FailureSchedule",
    "LoadTrace",
    "MonteCarloConfig",
    "MonteCarloReport",
    "PathTable",
    "ScenarioContext",
    "ScenarioRealization",
    "ScenarioValidationError",
    "SessionActivity",
    "StreamingAccumulator",
    "StreamingMemoryError",
    "SpecIssue",
    "TraceReport",
    "compile_path_table",
    "compile_scenario",
    "evaluate_design",
    "failure_scenario_names",
    "get_failure_scenario",
    "get_load_trace",
    "load_scenario_file",
    "load_trace_names",
    "normalize_scenario_spec",
    "realize_scenario",
    "reflector_betweenness",
    "register_failure_scenario",
    "register_load_trace",
    "register_scenario_file",
    "run_monte_carlo",
    "scenario_stream_key",
    "shipped_scenario_paths",
    "top_betweenness_reflectors",
    "sample_flash_crowd_congestion",
    "sample_isp_outage_schedule",
    "sample_regional_outage_schedule",
    "slice_path_table",
]
