"""The Monte-Carlo engine: unit and differential tests.

The differential tests against the per-demand oracle (``tests/sim_oracle.py``)
are the engine's correctness anchor:

* with a link-keyed loss model (every link's mask a pure function of the
  link) the tiled fold must reproduce the oracle *exactly* on a grid that
  splits both the demand and the trial axis: loss counts and their squares,
  duplicates, threshold hits, path counts and the worst window, failures
  included;
* with the paper's Bernoulli model the two draw in different orders, so their
  per-demand means must agree inside joint confidence bounds.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from sim_oracle import (
    LinkKeyedLossModel,
    per_trial_statistics,
    simulate_solution,
    windowed_loss_matrix,
)

from repro.api import DesignRequest, get_designer, run_request
from repro.core.solution import OverlaySolution
from repro.network.loss import BernoulliLossModel, GilbertElliottLossModel
from repro.simulation import (
    FailureEvent,
    FailureSchedule,
    MonteCarloConfig,
    compile_path_table,
    run_monte_carlo,
)
from repro.simulation.montecarlo import (
    _window_counts_packed,
    estimate_trial_bytes,
    path_count_groups,
    simulate_trial_block,
)
from repro.simulation.scenarios import realize_scenario
from repro.simulation.streaming import _per_demand_trial_bytes, threshold_budget_counts
from repro.workloads import (
    AkamaiLikeConfig,
    RandomInstanceConfig,
    generate_akamai_like_topology,
    random_problem,
)


def _workload(seed: int):
    problem = random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=6, num_sinks=6), rng=seed
    )
    return problem, run_request(DesignRequest(problem=problem, strategy="greedy")).solution


def _row(report, key) -> int:
    return report.demand_index(key)


def _exact_case(seed: int):
    """Instance, design and session for one exact-differential case.

    A random instance with ISP-colored reflectors and its greedy design with
    one demand left unserved; a reflector crash plus an ISP outage whose
    ``node_isp`` also homes some sinks in the failed ISP; windows alternate
    between byte-aligned and unaligned, session lengths between whole and
    partial bytes.
    """
    rng = np.random.default_rng(seed)
    problem = random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=6, num_sinks=15, num_colors=2),
        rng=seed,
    )
    greedy = get_designer("greedy").design(DesignRequest(problem=problem)).solution
    assignments = dict(greedy.assignments)
    del assignments[problem.demands[seed % problem.num_demands].key]
    solution = OverlaySolution.from_assignments(problem, assignments)
    packets = 600 if seed % 2 else 613
    window = (64, 60, 75)[seed % 3]
    crashed = sorted(solution.built_reflectors)[seed % len(solution.built_reflectors)]
    node_isp = {r: problem.color(r) for r in problem.reflectors}
    node_isp.update({sink: problem.color(crashed) for sink in problem.sinks[::3]})
    start, length = int(rng.integers(0, packets // 2)), int(rng.integers(1, packets))
    schedule = FailureSchedule(
        [
            FailureEvent("reflector_crash", crashed, start, start + length),
            FailureEvent("isp_outage", problem.color(crashed), length // 2, length),
        ]
    )
    return problem, solution, packets, window, schedule, node_isp


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(num_packets=0)
        with pytest.raises(ValueError):
            MonteCarloConfig(trials=0)
        with pytest.raises(ValueError):
            MonteCarloConfig(window=0)

    def test_default_seed_is_zero(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        config = dict(num_packets=200, trials=3, window=40)
        default = run_monte_carlo(tiny_problem, solution, MonteCarloConfig(**config))
        zero = run_monte_carlo(tiny_problem, solution, MonteCarloConfig(**config, seed=0))
        assert default.seed == 0
        assert np.array_equal(default.accumulator.loss_sum, zero.accumulator.loss_sum)

    def test_seed_none_draws_fresh_entropy_once_per_run(self, tiny_problem):
        solution = OverlaySolution.from_assignments(
            tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1"]}
        )
        config = dict(num_packets=400, trials=6, window=80, trial_tile=2)
        first = run_monte_carlo(tiny_problem, solution, MonteCarloConfig(**config, seed=None))
        second = run_monte_carlo(tiny_problem, solution, MonteCarloConfig(**config, seed=None))
        assert first.seed != second.seed
        # The drawn seed is recorded: replaying it reproduces the run exactly.
        replay = run_monte_carlo(
            tiny_problem, solution, MonteCarloConfig(**config, seed=first.seed)
        )
        assert np.array_equal(first.accumulator.loss_sum, replay.accumulator.loss_sum)
        assert np.array_equal(first.accumulator.trial_loss_sum, replay.accumulator.trial_loss_sum)


class TestPathTable:
    def test_structure(self, tiny_problem):
        solution = OverlaySolution.from_assignments(
            tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1"]}
        )
        table = compile_path_table(tiny_problem, solution, FailureSchedule(), 100, {})
        assert table.demand_keys == [("d1", "s"), ("d2", "s")]
        assert table.demand_num_paths.tolist() == [2, 1]
        assert table.demand_path_starts.tolist() == [0, 2]
        assert table.num_paths == 3
        # r1 serves both demands through one shared first-hop draw.
        assert table.num_first_hops == 2
        assert table.path_first_hop.tolist()[0] == table.path_first_hop.tolist()[2]

    def test_unserved_demand_excluded_from_table(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        table = compile_path_table(tiny_problem, solution, FailureSchedule(), 100, {})
        assert table.demand_keys == [("d1", "s")]


class TestExactDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_with_link_keyed_losses(self, seed):
        """Loss counts, duplicates, paths and worst windows equal the oracle's.

        The grid splits both axes (4 demands x 2 trials per tile), so the
        first-hop broadcast, the outage overlay and the fold's merges all
        cross tile boundaries.
        """
        problem, solution, packets, window, schedule, node_isp = _exact_case(seed)
        model = LinkKeyedLossModel(salt=seed)
        trials = 3
        report = run_monte_carlo(
            problem,
            solution,
            MonteCarloConfig(
                num_packets=packets,
                trials=trials,
                window=window,
                loss_model=model,
                failures=schedule,
                seed=seed,
                demand_tile=4,
                trial_tile=2,
            ),
            node_isp=node_isp,
        )
        oracle = simulate_solution(
            problem,
            solution,
            packets,
            np.random.default_rng(seed),
            window=window,
            loss_model=model,
            failures=schedule,
            node_isp=node_isp,
        )
        served = int(np.count_nonzero(report.paths))
        assert report.plan.demand_tile < served and report.plan.trial_tile < trials
        assert sorted(row.demand_key for row in oracle) == sorted(report.demand_keys)
        assert any(row.paths == 0 for row in oracle)
        acc = report.accumulator
        budgets = threshold_budget_counts(report.thresholds, packets)
        for expected in oracle:
            row = report.demand_index(expected.demand_key)
            lost = round(expected.loss_rate * packets)
            assert int(report.paths[row]) == expected.paths
            # Every trial sees the same link-keyed masks.
            assert int(acc.loss_sum[row]) == trials * lost
            assert int(acc.loss_max[row]) == lost
            assert int(acc.loss_sq_sum[row]) == trials * lost * lost
            assert int(acc.duplicates_sum[row]) == trials * expected.duplicates_discarded
            assert int(acc.meets[row]) == trials * int(lost <= budgets[row])
            assert report.loss_std(row) == 0.0
            # The two window formulas (lost / size vs 1 - received / size)
            # may differ in the last ulp.
            assert abs(float(report.worst_window_max[row]) - expected.worst_window_loss) <= 1e-12


class TestPerTrialReference:
    """The fold's exact statistics against the per-trial arrays it reduces."""

    @pytest.mark.parametrize(
        "trials,demand_tile,trial_tile", [(1, 5, 4), (7, 5, 3), (12, 64, 32)]
    )
    def test_accumulators_equal_the_per_trial_arrays(self, trials, demand_tile, trial_tile):
        problem, solution = _workload(4)
        assignments = dict(solution.assignments)
        del assignments[problem.demands[0].key]
        solution = OverlaySolution.from_assignments(problem, assignments)
        config = MonteCarloConfig(
            num_packets=420,
            trials=trials,
            window=100,
            seed=17,
            demand_tile=demand_tile,
            trial_tile=trial_tile,
        )
        report = run_monte_carlo(problem, solution, config)
        reference = per_trial_statistics(problem, solution, config)
        assert reference["demand_keys"] == report.demand_keys
        loss = reference["loss"]
        acc = report.accumulator
        assert np.array_equal(acc.loss_sum, loss.sum(axis=1))
        assert np.array_equal(acc.loss_sq_sum, (loss * loss).sum(axis=1))
        assert np.array_equal(acc.loss_max, loss.max(axis=1))
        assert np.array_equal(acc.duplicates_sum, reference["duplicates"].sum(axis=1))
        assert np.array_equal(acc.trial_loss_sum, loss.sum(axis=0))
        # The scaled-integer worst window reproduces max_w(count_w / b_w)
        # bit for bit, including the short tail window (420 = 4 x 100 + 20).
        assert np.array_equal(report.worst_window_max, reference["worst_window"].max(axis=1))
        budget = (1.0 - report.thresholds) + 1e-12
        meets = (loss / config.num_packets <= budget[:, None]).mean(axis=1)
        assert np.array_equal(report.meets_threshold_fraction, meets)

    @pytest.mark.parametrize("trials", [1, 2, 9, 40])
    def test_loss_std_matches_numpy(self, trials):
        problem, solution = _workload(2)
        config = MonteCarloConfig(num_packets=500, trials=trials, window=100, seed=3)
        report = run_monte_carlo(problem, solution, config)
        fractions = per_trial_statistics(problem, solution, config)["loss"] / 500
        for row in range(report.num_demands):
            got = report.loss_std(row)
            if trials == 1:
                assert got == 0.0
                continue
            expected = float(np.std(fractions[row], ddof=1))
            assert abs(got - expected) <= 1e-12 * expected, (row, got, expected)


class TestDifferential:
    @pytest.mark.parametrize("seed", range(10))
    def test_mean_matches_oracle(self, seed):
        """Ten seeded workloads: engine vs oracle per-demand means within CI."""
        problem, solution = _workload(seed)
        trials, legacy_runs, packets = 120, 30, 500
        report = run_monte_carlo(
            problem,
            solution,
            MonteCarloConfig(num_packets=packets, trials=trials, window=100, seed=seed),
        )
        rng = np.random.default_rng(seed + 1000)
        legacy_losses: dict = {d.key: [] for d in problem.demands}
        for _ in range(legacy_runs):
            for row in simulate_solution(problem, solution, packets, rng, window=100):
                legacy_losses[row.demand_key].append(row.loss_rate)
        for demand in problem.demands:
            row = _row(report, demand.key)
            legacy = np.asarray(legacy_losses[demand.key])
            joint_se = np.sqrt(
                report.loss_std(row) ** 2 / trials + legacy.var(ddof=1) / legacy_runs
            )
            # 5 sigma + a floor for near-zero variance cells; with ~60
            # demand-cells per run a 4-sigma bound would flake.
            tolerance = 5.0 * joint_se + 3.0 / packets
            mean = float(report.mean_loss_per_demand[row])
            assert abs(mean - legacy.mean()) <= tolerance, demand.key

    def test_mean_matches_analytic(self):
        problem, solution = _workload(3)
        trials = 300
        report = run_monte_carlo(
            problem,
            solution,
            MonteCarloConfig(num_packets=1000, trials=trials, window=100, seed=0),
        )
        for demand in problem.demands:
            row = _row(report, demand.key)
            mean = float(report.mean_loss_per_demand[row])
            if report.paths[row] == 0:
                assert mean == 1.0
                continue
            analytic = solution.failure_probability(demand)
            se = max(report.loss_std(row) / np.sqrt(trials), 1e-5)
            assert abs(mean - analytic) <= 5.0 * se + 1e-3

    def test_differential_under_failure_schedule(self, tiny_problem):
        solution = OverlaySolution.from_assignments(
            tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1"]}
        )
        schedule = FailureSchedule([FailureEvent("reflector_crash", "r1", 0, 400)])
        trials, legacy_runs, packets = 150, 40, 800
        report = run_monte_carlo(
            tiny_problem,
            solution,
            MonteCarloConfig(
                num_packets=packets, trials=trials, window=100, failures=schedule, seed=2
            ),
        )
        rng = np.random.default_rng(5)
        legacy = [
            np.mean(
                [
                    row.loss_rate
                    for row in simulate_solution(
                        tiny_problem, solution, packets, rng, window=100, failures=schedule
                    )
                ]
            )
            for _ in range(legacy_runs)
        ]
        joint_se = np.sqrt(
            np.var(report.trial_mean_loss, ddof=1) / trials
            + np.var(legacy, ddof=1) / legacy_runs
        )
        assert abs(report.mean_loss - np.mean(legacy)) <= 5.0 * joint_se + 1e-3
        # The crash covers half the session, so the worst window saturates.
        assert report.worst_window_max[_row(report, ("d2", "s"))] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "config",
        [{}, {"num_regions": 4, "colos_per_region": 6, "num_streams": 4}],
        ids=["akamai-default", "akamai-large"],
    )
    def test_session_mean_z_score_on_akamai(self, config):
        """Engine means agree within 4 standard errors on akamai-like designs."""
        topology, _registry = generate_akamai_like_topology(AkamaiLikeConfig(**config), rng=0)
        problem = topology.to_problem()
        solution = get_designer("greedy").design(DesignRequest(problem=problem)).solution
        packets, legacy_runs = 1000, 12
        report = run_monte_carlo(
            problem,
            solution,
            MonteCarloConfig(num_packets=packets, trials=100, window=200, seed=1),
        )
        rng = np.random.default_rng(0)
        legacy = [
            np.mean([row.loss_rate for row in simulate_solution(problem, solution, packets, rng)])
            for _ in range(legacy_runs)
        ]
        legacy_se = np.std(legacy, ddof=1) / np.sqrt(legacy_runs)
        engine_se = np.std(report.trial_mean_loss, ddof=1) / np.sqrt(report.trials)
        z_score = (report.mean_loss - np.mean(legacy)) / max(np.hypot(legacy_se, engine_se), 1e-12)
        assert abs(z_score) <= 4.0

    def test_gilbert_elliott_dense_fallback(self, tiny_problem):
        """Non-Bernoulli models route through the packed dense fallback."""
        solution = OverlaySolution.from_assignments(
            tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1", "r3"]}
        )
        report = run_monte_carlo(
            tiny_problem,
            solution,
            MonteCarloConfig(
                num_packets=2000,
                trials=60,
                window=200,
                loss_model=GilbertElliottLossModel(),
                seed=4,
            ),
        )
        for demand in tiny_problem.demands:
            analytic = solution.failure_probability(demand)
            mean = report.mean_loss_per_demand[_row(report, demand.key)]
            assert mean == pytest.approx(analytic, abs=0.02)


class TestEngineBehaviour:
    def test_unserved_demand_loses_everything(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        report = run_monte_carlo(
            tiny_problem,
            solution,
            MonteCarloConfig(num_packets=200, trials=4, window=40, seed=0),
        )
        row = _row(report, ("d2", "s"))
        assert report.paths[row] == 0
        assert report.mean_loss_per_demand[row] == 1.0
        assert report.max_loss_per_demand[row] == 1.0
        assert report.worst_window_max[row] == 1.0
        assert report.meets_threshold_fraction[row] == 0.0
        assert report.loss_std(row) == 0.0

    def test_determinism(self, tiny_problem):
        solution = OverlaySolution.from_assignments(
            tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1"]}
        )
        config = dict(num_packets=500, trials=16, window=56, seed=9)
        a = run_monte_carlo(tiny_problem, solution, MonteCarloConfig(**config))
        b = run_monte_carlo(tiny_problem, solution, MonteCarloConfig(**config))
        assert np.array_equal(a.accumulator.loss_sum, b.accumulator.loss_sum)
        assert np.array_equal(a.accumulator.trial_loss_sum, b.accumulator.trial_loss_sum)

    def test_report_accessors(self, tiny_problem):
        solution = OverlaySolution.from_assignments(
            tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1"]}
        )
        report = run_monte_carlo(
            tiny_problem,
            solution,
            MonteCarloConfig(num_packets=400, trials=8, window=80, seed=1),
        )
        assert report.mean_loss_per_demand.shape == (2,)
        assert report.trial_mean_loss.shape == (8,)
        assert 0.0 <= report.mean_loss <= report.max_loss <= 1.0
        assert report.mean_loss_ci_halfwidth >= 0.0
        summary = report.summary()
        assert summary["trials"] == 8 and summary["num_demands"] == 2
        with pytest.raises(KeyError):
            report.demand_index(("missing", "s"))

    def test_window_counts_packed_matches_unpacked(self):
        rng = np.random.default_rng(0)
        for packets, window in ((256, 64), (250, 64), (250, 60), (100, 8), (97, 16)):
            lost = rng.random((3, 5, packets)) < 0.2
            packed = np.packbits(lost, axis=-1, bitorder="little")
            counts = _window_counts_packed(packed, packets, window)
            expected = windowed_loss_matrix(lost, window)
            sizes = np.diff(
                np.append(np.arange(0, packets, window), packets)
            )
            assert np.array_equal(counts, (expected * sizes).round().astype(np.int64))

    def test_non_byte_aligned_window(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        report = run_monte_carlo(
            tiny_problem,
            solution,
            MonteCarloConfig(num_packets=500, trials=6, window=125, seed=3),
        )
        assert report.worst_window_max[_row(report, ("d1", "s"))] <= 1.0


class TestMemoryModel:
    """``row_trial_bytes`` is the engine's one memory model."""

    @staticmethod
    def _table(num_packets: int, scenario: str = "isp-outage"):
        problem = random_problem(
            RandomInstanceConfig(num_streams=2, num_reflectors=10, num_sinks=120), rng=7
        )
        solution = get_designer("greedy").design(DesignRequest(problem=problem)).solution
        realization = realize_scenario(
            scenario, problem, num_packets, np.random.default_rng(3), solution=solution
        )
        table = compile_path_table(problem, solution, realization.failures, num_packets, None)
        return table, realization.loss_model

    @pytest.mark.parametrize(
        "scenario", ["baseline", "isp-outage", "bursty-links", "perfect-storm"]
    )
    @pytest.mark.parametrize("num_packets,chunk", [(2000, 6), (613, 3), (240, 16)])
    def test_kernel_peak_stays_within_the_estimate(self, scenario, num_packets, chunk):
        table, loss_model = self._table(num_packets, scenario)
        estimate = chunk * estimate_trial_bytes(table, loss_model, num_packets)
        tracemalloc.start()
        try:
            groups = path_count_groups(table)
            rng = np.random.default_rng(0)
            simulate_trial_block(table, loss_model, chunk, num_packets, 200, groups, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= estimate, (type(loss_model).__name__, peak, estimate)

    @pytest.mark.parametrize(
        "loss_model", [BernoulliLossModel(), GilbertElliottLossModel(), LinkKeyedLossModel()]
    )
    def test_per_demand_estimate_bounds_the_table_estimate(self, loss_model):
        table, _ = self._table(2000)
        per_demand = _per_demand_trial_bytes(table, loss_model, 2000)
        assert per_demand.shape == (len(table.demand_keys),)
        assert per_demand.sum() >= estimate_trial_bytes(table, loss_model, 2000)
