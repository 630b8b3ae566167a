"""Shared helpers for the benchmark harness.

Every ``bench_*.py`` file is now a thin pytest wrapper around a registered
:class:`~repro.analysis.runner.ScenarioSpec` (see
:mod:`repro.analysis.scenarios`): it runs the scenario through the parallel
executor, asserts the spec's paper-shape thresholds, and persists both the
plain-text table and the machine-readable ``BENCH_<ID>.json`` record under
``benchmarks/results/``.  The same artifacts are produced without pytest by
``repro bench``.

Environment knobs (all optional):

* ``REPRO_BENCH_SMOKE=1`` -- CI-sized seed blocks / draw counts / sizes;
* ``REPRO_BENCH_JOBS=N|auto`` -- worker processes per scenario (default 1);
* ``REPRO_BENCH_SEED=N`` -- master seed (default 0);
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis import format_table
from repro.analysis.runner import BenchRecord, get_scenario, run_scenario

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")
JOBS = os.environ.get("REPRO_BENCH_JOBS", "1")
MASTER_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))


def record_experiment(name: str, text: str) -> None:
    """Print an experiment's table and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def run_and_record(scenario_id: str) -> BenchRecord:
    """Run one registered scenario, persist its artifacts, assert thresholds."""
    spec = get_scenario(scenario_id)
    record = run_scenario(spec, jobs=JOBS, master_seed=MASTER_SEED, smoke=SMOKE)
    record.save(RESULTS_DIR / f"BENCH_{record.bench_id}.json")
    record_experiment(
        spec.artifact_stem,
        format_table(record.rows, columns=spec.columns, title=record.title),
    )
    if spec.validate is not None:
        failures = spec.validate(record)
        assert not failures, "; ".join(failures)
    return record
