"""The Monte-Carlo fold: determinism contract, tiling, memory and plumbing tests.

The anchors:

* **the determinism contract** -- ``jobs``, tile scheduling order, and a
  ``max_memory`` bound that leaves the tile grid unchanged never change a
  result; only ``(seed, packets, window, loss model, failures, grid)`` do;
* **flat memory** -- peak traced working set must stay (near-)constant along
  a trial ladder, the property that lets the fold audit million-demand
  instances;
* **exactness** lives in ``tests/test_montecarlo.py``: the link-keyed oracle
  differential and the per-trial reference of the accumulators.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.simulation.scenarios as scenarios_module
from repro.api import (
    DesignRequest,
    EvaluationSpec,
    evaluation_spec_from_dict,
    evaluation_spec_to_dict,
    run_request,
)
from repro.core.serialization import DocumentError
from repro.core.solution import OverlaySolution
from repro.simulation import (
    MonteCarloConfig,
    StreamingMemoryError,
    compile_path_table,
    evaluate_design,
    failure_scenario_names,
    get_load_trace,
    load_trace_names,
    run_monte_carlo,
)
from repro.simulation.streaming import (
    StreamingAccumulator,
    plan_tiles,
    resolve_tiling,
    threshold_budget_counts,
    window_sizes,
    worst_window_scale,
)
from repro.workloads import RandomInstanceConfig, random_problem
from repro.workloads.tiny import build_tiny_problem

_ACC_FIELDS = (
    "trial_counts",
    "loss_sum",
    "loss_sq_sum",
    "loss_max",
    "meets",
    "duplicates_sum",
    "worst_sum",
    "worst_max",
    "loss_histogram",
    "trial_loss_sum",
)


def _workload(seed: int = 5):
    problem = random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=8, num_sinks=16), rng=seed
    )
    return problem, run_request(DesignRequest(problem=problem, strategy="greedy")).solution


def _assert_accumulators_equal(a: StreamingAccumulator, b: StreamingAccumulator) -> None:
    for name in _ACC_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ---------------------------------------------------------------------------
# The determinism contract
# ---------------------------------------------------------------------------


class TestDeterminismContract:
    def test_repeat_runs_are_identical(self):
        problem, solution = _workload()
        config = MonteCarloConfig(
            num_packets=200, trials=5, window=64, seed=9, demand_tile=3, trial_tile=2
        )
        first = run_monte_carlo(problem, solution, config)
        second = run_monte_carlo(problem, solution, config)
        assert first.plan == second.plan
        _assert_accumulators_equal(first.accumulator, second.accumulator)

    def test_jobs_never_change_results(self):
        problem, solution = _workload()
        config = MonteCarloConfig(
            num_packets=200, trials=4, window=64, seed=7, demand_tile=4, trial_tile=2
        )
        serial = run_monte_carlo(problem, solution, config, traces=("diurnal",))
        parallel = run_monte_carlo(
            problem, solution, config, traces=("diurnal",), jobs=2
        )
        assert serial.plan.num_tiles > 1
        _assert_accumulators_equal(serial.accumulator, parallel.accumulator)
        for name in ("active_cells", "lost_packets", "rebuffer_cells"):
            assert np.array_equal(
                getattr(serial.traces["diurnal"].accumulator, name),
                getattr(parallel.traces["diurnal"].accumulator, name),
            )

    def test_max_memory_with_unchanged_grid_changes_nothing(self):
        problem, solution = _workload()
        base = MonteCarloConfig(
            num_packets=200, trials=4, window=64, seed=7, demand_tile=4, trial_tile=2
        )
        bounded = MonteCarloConfig(
            num_packets=200,
            trials=4,
            window=64,
            seed=7,
            demand_tile=4,
            trial_tile=2,
            max_memory=2**40,
        )
        table = compile_path_table(
            problem, solution, base.failures, base.num_packets, None
        )
        assert resolve_tiling(table, base) == resolve_tiling(table, bounded)
        _assert_accumulators_equal(
            run_monte_carlo(problem, solution, base).accumulator,
            run_monte_carlo(problem, solution, bounded).accumulator,
        )

    def test_extending_trials_preserves_the_prefix(self):
        # Appending trial tiles must not disturb earlier tiles' streams: the
        # first 4 trials of an 8-trial run equal the 4-trial run exactly.
        problem, solution = _workload()

        def run(trials):
            return run_monte_carlo(
                problem,
                solution,
                MonteCarloConfig(
                    num_packets=200,
                    trials=trials,
                    window=64,
                    seed=13,
                    demand_tile=10**9,
                    trial_tile=4,
                ),
            )

        short, long = run(4), run(8)
        assert np.array_equal(
            short.accumulator.trial_loss_sum, long.accumulator.trial_loss_sum[:4]
        )

    def test_trace_activity_is_grid_independent(self):
        # Session windows come from their own SeedSequence stream, realized
        # once per run -- so active-session counts cannot depend on the grid.
        problem, solution = _workload()

        def active_cells(demand_tile, trial_tile):
            report = run_monte_carlo(
                problem,
                solution,
                MonteCarloConfig(
                    num_packets=200,
                    trials=4,
                    window=64,
                    seed=21,
                    demand_tile=demand_tile,
                    trial_tile=trial_tile,
                ),
                traces=("metro-diurnal",),
            )
            return report.traces["metro-diurnal"].accumulator.active_cells

        assert np.array_equal(active_cells(10**9, 10**9), active_cells(3, 2))


# ---------------------------------------------------------------------------
# Tiling and the memory bound
# ---------------------------------------------------------------------------


class TestTiling:
    def test_plan_partitions_the_plane(self):
        problem, solution = _workload()
        config = MonteCarloConfig(num_packets=200, trials=7, window=64, demand_tile=3, trial_tile=2)
        table = compile_path_table(problem, solution, config.failures, 200, None)
        plan = plan_tiles(table, config)
        served = len(table.demand_keys)
        covered = [d for d0, d1 in plan.demand_ranges for d in range(d0, d1)]
        assert covered == list(range(served))
        assert sum(chunk for _, chunk in plan.trial_offsets) == config.trials
        assert plan.num_tiles == len(plan.demand_ranges) * len(plan.trial_offsets)

    def test_max_memory_shrinks_trial_tile_first(self):
        problem, solution = _workload()
        config = MonteCarloConfig(num_packets=400, trials=32, window=100)
        table = compile_path_table(problem, solution, config.failures, 400, None)
        free_demand, free_trial = resolve_tiling(table, config)
        # Tighten until the grid changes; the demand tile must be the last
        # thing to give.
        grids = []
        for exponent in range(30, 9, -1):
            bounded = MonteCarloConfig(
                num_packets=400, trials=32, window=100, max_memory=2**exponent
            )
            try:
                demand_tile, trial_tile = resolve_tiling(table, bounded)
            except StreamingMemoryError:
                break
            grids.append((bounded, (demand_tile, trial_tile)))
            assert demand_tile <= free_demand and trial_tile <= free_trial
            if demand_tile < free_demand:
                assert trial_tile == 1
        assert any(grid != (free_demand, free_trial) for _, grid in grids)
        # Determinism: the same bound always resolves the same grid.
        tightest, grid = grids[-1]
        assert resolve_tiling(table, tightest) == grid

    def test_impossible_bound_raises_streaming_memory_error(self):
        problem, solution = _workload()
        config = MonteCarloConfig(num_packets=400, trials=4, window=100, max_memory=1)
        with pytest.raises(StreamingMemoryError, match="single demand row"):
            run_monte_carlo(problem, solution, config)

    def test_peak_memory_is_flat_along_a_trial_ladder(self):
        # Peak traced allocation must not grow with the trial count (a
        # run holding every per-trial array would grow linearly).
        problem = random_problem(
            RandomInstanceConfig(num_streams=2, num_reflectors=10, num_sinks=250), rng=7
        )
        solution = run_request(DesignRequest(problem=problem, strategy="greedy")).solution
        table = compile_path_table(problem, solution, MonteCarloConfig().failures, 240, None)
        peaks = {}
        for trials in (4, 16, 48):
            config = MonteCarloConfig(
                num_packets=240,
                trials=trials,
                window=80,
                seed=1,
                demand_tile=64,
                trial_tile=4,
            )
            tracemalloc.start()
            try:
                report = run_monte_carlo(problem, solution, config, table=table)
                _, peaks[trials] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.trials == trials
        assert max(peaks.values()) <= 64 * 2**20
        assert max(peaks.values()) / min(peaks.values()) <= 2.0, peaks


# ---------------------------------------------------------------------------
# Accumulator algebra
# ---------------------------------------------------------------------------


class TestAccumulatorAlgebra:
    def test_threshold_budget_counts_match_float_semantics(self):
        num_packets = 417
        thresholds = np.asarray([0.0, 0.5, 0.9, 0.99, 0.999, 1.0])
        budget = (1.0 - thresholds) + 1e-12
        counts = threshold_budget_counts(thresholds, num_packets)
        for budget_value, count in zip(budget, counts):
            assert count / num_packets <= budget_value
            if count < num_packets:
                assert (count + 1) / num_packets > budget_value

    def test_worst_window_scale_covers_the_tail(self):
        sizes = window_sizes(420, 100)
        assert sizes.tolist() == [100, 100, 100, 100, 20]
        scale, weights = worst_window_scale(420, 100)
        assert scale % 100 == 0 and scale % 20 == 0
        assert np.array_equal(weights * sizes, np.full(5, scale))


# ---------------------------------------------------------------------------
# Unserved demands and trace replay
# ---------------------------------------------------------------------------


class TestUnservedAndTraces:
    def test_unserved_demand_counts_as_total_loss(self):
        problem = build_tiny_problem()
        solution = OverlaySolution.from_assignments(problem, {("d1", "s"): ["r1"]})
        report = run_monte_carlo(
            problem,
            solution,
            MonteCarloConfig(num_packets=200, trials=3, window=64, seed=0),
            traces=("diurnal",),
        )
        row = report.demand_index(("d2", "s"))
        assert float(report.mean_loss_per_demand[row]) == 1.0
        assert float(report.max_loss_per_demand[row]) == 1.0
        assert float(report.worst_window_max[row]) == 1.0
        assert float(report.meets_threshold_fraction[row]) == 0.0
        assert int(report.paths[row]) == 0
        # The analytic unserved fold reaches the trace too: its sessions are
        # always rebuffering while active.
        trace = report.traces["diurnal"]
        assert trace.rebuffer_session_fraction >= 1.0 / report.num_demands

    def test_trace_replay_reports_per_window_metrics(self):
        problem, solution = _workload()
        report = run_monte_carlo(
            problem,
            solution,
            MonteCarloConfig(num_packets=420, trials=4, window=100, seed=2),
            traces=("diurnal", "metro-diurnal"),
        )
        assert set(report.traces) == {"diurnal", "metro-diurnal"}
        for trace in report.traces.values():
            assert trace.num_windows == 5
            rows = trace.rows()
            assert len(rows) == trace.num_windows
            summary = trace.summary()
            assert summary["peak_active_sessions"] > 0
            assert np.all(trace.active_sessions <= report.num_demands)
            assert np.all((trace.window_loss_rate >= 0) & (trace.window_loss_rate <= 1))
            assert np.all((trace.rebuffer_fraction >= 0) & (trace.rebuffer_fraction <= 1))
            assert 0.0 <= trace.rebuffer_session_fraction <= 1.0
        # Different traces realize different load curves.
        assert not np.array_equal(
            report.traces["diurnal"].accumulator.active_cells,
            report.traces["metro-diurnal"].accumulator.active_cells,
        )

    def test_trace_catalogue_and_unknown_names(self):
        names = load_trace_names()
        assert {"diurnal", "flash-crowd", "metro-diurnal"} <= set(names)
        assert get_load_trace("diurnal").name == "diurnal"
        with pytest.raises(KeyError):
            get_load_trace("no-such-trace")


# ---------------------------------------------------------------------------
# Catalogue sweep + EvaluationSpec plumbing
# ---------------------------------------------------------------------------


class TestStreamingEvaluation:
    def test_sweep_is_subset_insensitive_and_carries_trace_metrics(self):
        problem, solution = _workload()
        names = failure_scenario_names()[:2]
        kwargs = dict(trials=2, num_packets=200, window=64, seed=4, traces=("diurnal",))
        both = evaluate_design(problem, solution, names, **kwargs)
        alone = evaluate_design(problem, solution, [names[1]], **kwargs)
        assert both[names[1]] == alone[names[1]]
        row = both[names[0]]
        assert 0.0 <= row["mean_loss"] <= 1.0
        assert "trace:diurnal:peak_window_loss" in row
        assert "trace:diurnal:rebuffer_session_fraction" in row
        assert {"num_tiles", "demand_tile", "trial_tile"} <= set(row)

    def test_sweep_runs_the_engine_through_the_scenarios_module(self, monkeypatch):
        # The benchmark harness records kernel spans by patching this name.
        problem, solution = _workload()
        calls = []
        engine = scenarios_module.run_monte_carlo

        def counting(problem, solution, config, *args, **kwargs):
            calls.append(config.seed)
            return engine(problem, solution, config, *args, **kwargs)

        monkeypatch.setattr(scenarios_module, "run_monte_carlo", counting)
        names = failure_scenario_names()[:3]
        evaluate_design(problem, solution, names, trials=2, num_packets=200, window=64)
        assert len(calls) == len(names)

    def test_names_kept_for_the_benchmark_harness(self):
        import repro.simulation as simulation
        import repro.simulation.montecarlo as montecarlo
        import repro.simulation.streaming as streaming

        assert simulation.evaluate_design_streaming is evaluate_design
        assert streaming.run_streaming_monte_carlo is run_monte_carlo
        assert scenarios_module.run_monte_carlo is run_monte_carlo
        assert streaming.compile_path_table is montecarlo.compile_path_table
        assert callable(montecarlo.estimate_trial_bytes)
        assert callable(scenarios_module.realize_scenario)

    def test_spec_roundtrip_preserves_streaming_fields(self):
        spec = EvaluationSpec(
            scenarios=("baseline",),
            trials=5,
            traces=("diurnal", "metro-diurnal"),
            max_memory=1 << 20,
        )
        assert evaluation_spec_from_dict(evaluation_spec_to_dict(spec)) == spec

    def test_default_spec_dict_is_byte_stable(self):
        # Optional fields are additive: a default spec's document must not
        # grow new keys (old documents stay byte-identical across builds).
        data = evaluation_spec_to_dict(EvaluationSpec())
        assert set(data) == {"scenarios", "trials", "num_packets", "window", "seed"}
        legacy = evaluation_spec_from_dict(dict(data))
        assert legacy == EvaluationSpec()

    @pytest.mark.parametrize("mode", ["batched", "streaming"])
    def test_legacy_mode_is_read_and_never_written(self, mode):
        data = {"trials": 4, "mode": mode, "traces": ["diurnal"]}
        spec = evaluation_spec_from_dict(data)
        assert spec == EvaluationSpec(trials=4, traces=("diurnal",))
        assert "mode" not in evaluation_spec_to_dict(spec)

    def test_spec_validation(self):
        with pytest.raises(DocumentError, match="evaluation.mode"):
            evaluation_spec_from_dict({"mode": "tiled"})
        with pytest.raises(ValueError, match="max_memory"):
            EvaluationSpec(max_memory=0)
        with pytest.raises(ValueError, match="rebuffer_loss"):
            MonteCarloConfig(rebuffer_loss=0.0)
        with pytest.raises(ValueError, match="trial_tile"):
            MonteCarloConfig(trial_tile=0)
