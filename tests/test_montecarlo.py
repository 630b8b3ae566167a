"""The batched Monte-Carlo engine: unit and differential tests.

The differential tests against the per-demand oracle (``tests/sim_oracle.py``)
are the engine's correctness anchor:

* with a link-keyed loss model (every link's mask a pure function of the
  link) the engine must reproduce the oracle *exactly*: loss counts,
  duplicates, path counts and the worst window, failures included;
* with the paper's Bernoulli model the two draw in different orders, so their
  per-demand means must agree inside joint confidence bounds.
"""

from __future__ import annotations

import numpy as np
import pytest
from sim_oracle import LinkKeyedLossModel, simulate_solution, windowed_loss_matrix

from repro.api import DesignRequest, get_designer
from repro.baselines import greedy_design
from repro.core.solution import OverlaySolution
from repro.network.loss import GilbertElliottLossModel
from repro.simulation import (
    FailureEvent,
    FailureSchedule,
    MonteCarloConfig,
    compile_path_table,
    run_monte_carlo,
)
from repro.simulation.montecarlo import _window_counts_packed
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
    return problem, greedy_design(problem)


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
        with pytest.raises(ValueError):
            MonteCarloConfig(max_batch_bytes=0)


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
        """Loss counts, duplicates, paths and worst windows equal the oracle's."""
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
        assert [row.demand_key for row in oracle] == [d.demand_key for d in report.demands]
        assert any(row.paths == 0 for row in oracle)
        for expected, got in zip(oracle, report.demands):
            assert got.paths == expected.paths
            lost = np.rint(got.loss * packets).astype(np.int64)
            assert lost.tolist() == [round(expected.loss_rate * packets)] * trials
            assert got.duplicates.tolist() == [expected.duplicates_discarded] * trials
            # The two window formulas (lost / size vs 1 - received / size)
            # may differ in the last ulp.
            assert np.abs(got.worst_window - expected.worst_window_loss).max() <= 1e-12


class TestDifferential:
    @pytest.mark.parametrize("seed", range(10))
    def test_batched_mean_matches_legacy(self, seed):
        """Ten seeded workloads: batched vs oracle per-demand means within CI."""
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
            batched = report.result_for(demand.key)
            legacy = np.asarray(legacy_losses[demand.key])
            joint_se = np.sqrt(
                batched.loss_std**2 / trials + legacy.var(ddof=1) / legacy_runs
            )
            # 5 sigma + a floor for near-zero variance cells; with ~60
            # demand-cells per run a 4-sigma bound would flake.
            tolerance = 5.0 * joint_se + 3.0 / packets
            assert abs(batched.mean_loss - legacy.mean()) <= tolerance, demand.key

    def test_batched_mean_matches_analytic(self):
        problem, solution = _workload(3)
        trials = 300
        report = run_monte_carlo(
            problem,
            solution,
            MonteCarloConfig(num_packets=1000, trials=trials, window=100, seed=0),
        )
        for demand in problem.demands:
            result = report.result_for(demand.key)
            if result.paths == 0:
                assert result.mean_loss == 1.0
                continue
            analytic = solution.failure_probability(demand)
            se = max(result.loss_std / np.sqrt(trials), 1e-5)
            assert abs(result.mean_loss - analytic) <= 5.0 * se + 1e-3

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
        assert report.result_for(("d2", "s")).worst_window.max() == pytest.approx(1.0)

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
        batched_se = np.std(report.trial_mean_loss, ddof=1) / np.sqrt(report.trials)
        z_score = (report.mean_loss - np.mean(legacy)) / max(np.hypot(legacy_se, batched_se), 1e-12)
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
            result = report.result_for(demand.key)
            assert result.mean_loss == pytest.approx(analytic, abs=0.02)


class TestEngineBehaviour:
    def test_unserved_demand_loses_everything(self, tiny_problem):
        solution = OverlaySolution.from_assignments(tiny_problem, {("d1", "s"): ["r1"]})
        report = run_monte_carlo(
            tiny_problem,
            solution,
            MonteCarloConfig(num_packets=200, trials=4, window=40, seed=0),
        )
        missing = report.result_for(("d2", "s"))
        assert missing.paths == 0
        assert missing.loss.tolist() == [1.0] * 4
        assert missing.worst_window.tolist() == [1.0] * 4
        assert missing.meets_threshold_fraction == 0.0

    def test_determinism_and_chunking(self, tiny_problem):
        solution = OverlaySolution.from_assignments(
            tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1"]}
        )
        config = dict(num_packets=500, trials=16, window=56, seed=9)
        a = run_monte_carlo(tiny_problem, solution, MonteCarloConfig(**config))
        b = run_monte_carlo(tiny_problem, solution, MonteCarloConfig(**config))
        assert np.array_equal(a.loss_matrix, b.loss_matrix)
        # A tiny batch budget forces many chunks; results stay valid (but are
        # a different random stream -- chunk layout is part of the contract).
        tiny_batches = run_monte_carlo(
            tiny_problem,
            solution,
            MonteCarloConfig(**config, max_batch_bytes=10_000),
        )
        assert tiny_batches.loss_matrix.shape == a.loss_matrix.shape
        assert 0.0 <= tiny_batches.mean_loss <= 1.0

    def test_chunk_boundaries_shift_the_random_stream(self, tiny_problem):
        # Regression pinning the documented max_batch_bytes caveat: the same
        # seed under a different chunk layout is a *different* random stream.
        # (The streaming engine is immune -- per-tile SeedSequence streams --
        # see tests/test_streaming.py::TestDeterminismContract.)
        solution = OverlaySolution.from_assignments(
            tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1"]}
        )
        config = dict(num_packets=500, trials=16, window=56, seed=9)
        one_chunk = run_monte_carlo(
            tiny_problem, solution, MonteCarloConfig(**config, max_batch_bytes=2**40)
        )
        many_chunks = run_monte_carlo(
            tiny_problem, solution, MonteCarloConfig(**config, max_batch_bytes=10_000)
        )
        assert not np.array_equal(one_chunk.loss_matrix, many_chunks.loss_matrix)

    def test_report_accessors(self, tiny_problem):
        solution = OverlaySolution.from_assignments(
            tiny_problem, {("d1", "s"): ["r1", "r2"], ("d2", "s"): ["r1"]}
        )
        report = run_monte_carlo(
            tiny_problem,
            solution,
            MonteCarloConfig(num_packets=400, trials=8, window=80, seed=1),
        )
        assert report.loss_matrix.shape == (2, 8)
        assert report.trial_mean_loss.shape == (8,)
        assert 0.0 <= report.mean_loss <= report.max_loss <= 1.0
        assert report.mean_loss_ci_halfwidth >= 0.0
        summary = report.summary()
        assert summary["trials"] == 8 and summary["num_demands"] == 2
        with pytest.raises(KeyError):
            report.result_for(("missing", "s"))

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
        assert (report.result_for(("d1", "s")).worst_window <= 1.0).all()
