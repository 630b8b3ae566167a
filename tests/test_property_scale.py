"""Hypothesis property tests for the sharded pipeline's invariants.

The contracts under test (see ``docs/scaling.md``):

* the partitioner covers every sink exactly once, for every partitioner and
  shard-count combination;
* per-demand delivered weight never gets *worse* through stitching: the
  merged design's weight fraction is at least ``min(shard value, 1.0)`` for
  every demand (so weight violations are bounded by the worst shard);
* the stitcher's fanout reconciliation never makes the union worse, and when
  no load-bearing copy pins an overloaded reflector it bounds the merged
  violation by the worst single shard's (or the bound itself);
* with repair enabled, every demand is satisfied post-stitch on feasible
  instances;
* the merged design is a pure function of (problem, seed): ``jobs=1`` and
  ``jobs=N`` produce bit-identical solutions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DesignRequest, get_designer
from repro.core.algorithm import DesignParameters
from repro.core.solution import OverlaySolution
from repro.scale import build_partition, extract_shard_problem, stitch_assignments
from repro.workloads import (
    InternetScaleConfig,
    RandomInstanceConfig,
    generate_internet_scale_problem,
    random_problem,
)

#: Workload-shaped instances: enough fanout headroom that reconciliation has
#: room to work with (the generators enforce feasibility either way).
def _random_instance(seed: int, sinks: int, reflectors: int):
    return random_problem(
        RandomInstanceConfig(
            num_streams=2,
            num_reflectors=reflectors,
            num_sinks=sinks,
            fanout_range=(6, 14),
            num_colors=3,
        ),
        rng=seed,
    )


def _scale_instance(seed: int, sinks: int):
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=sinks, sinks_per_metro=10), rng=seed
    )
    return problem


@st.composite
def problems(draw):
    """A small workload-shaped instance from either generator family."""
    seed = draw(st.integers(0, 1_000))
    if draw(st.booleans()):
        return _scale_instance(seed, sinks=draw(st.integers(20, 60)))
    return _random_instance(
        seed,
        sinks=draw(st.integers(8, 24)),
        reflectors=draw(st.integers(5, 10)),
    )


@st.composite
def partitioned_problems(draw):
    problem = draw(problems())
    partitioner = draw(st.sampled_from(["auto", "metro", "isp", "hash"]))
    shards = draw(st.one_of(st.just("auto"), st.integers(1, 6)))
    return problem, partitioner, shards


class TestPartitionProperties:
    @settings(max_examples=25, deadline=None)
    @given(partitioned_problems())
    def test_shards_cover_all_sinks_exactly_once(self, case):
        problem, partitioner, shards = case
        plan = build_partition(problem, partitioner=partitioner, shards=shards)
        placed = [sink for shard in plan.shards for sink in shard.sinks]
        assert sorted(placed) == sorted(problem.sinks)
        keys = [key for shard in plan.shards for key in shard.demand_keys]
        assert sorted(keys) == sorted(d.key for d in problem.demands)

    @settings(max_examples=15, deadline=None)
    @given(partitioned_problems())
    def test_shard_problems_are_self_contained_and_feasible(self, case):
        problem, partitioner, shards = case
        plan = build_partition(problem, partitioner=partitioner, shards=shards)
        for shard in plan.shards:
            subproblem = extract_shard_problem(problem, shard.sinks, name=shard.shard_id)
            subproblem.validate()
            assert subproblem.feasibility_report() == []


class TestStitchProperties:
    @settings(max_examples=15, deadline=None)
    @given(problems(), st.integers(2, 5), st.integers(0, 10_000))
    def test_stitch_bounds_violations_by_the_worst_shard(
        self, problem, shards, seed
    ):
        plan = build_partition(problem, shards=shards)
        solutions = []
        shard_weight_fraction: dict[tuple[str, str], float] = {}
        shard_max_factor = 0.0
        for index, shard in enumerate(plan.shards):
            subproblem = extract_shard_problem(problem, shard.sinks, name=shard.shard_id)
            result = get_designer("greedy").design(
                DesignRequest(
                    problem=subproblem,
                    parameters=DesignParameters(seed=seed + index),
                )
            )
            solutions.append(result.solution)
            for demand in subproblem.demands:
                shard_weight_fraction[demand.key] = result.solution.weight_satisfaction(
                    demand
                )
            shard_max_factor = max(
                shard_max_factor, result.solution.max_fanout_factor()
            )
        shard_maps = [dict(solution.assignments) for solution in solutions]
        union = {key: list(refl) for shard_map in shard_maps for key, refl in shard_map.items()}
        merged_factor = OverlaySolution.from_assignments(problem, union).max_fanout_factor()
        stitched, report = stitch_assignments(problem, plan, shard_maps)

        # Weight: stitching never makes a demand worse than its shard design
        # (repair may only improve it).
        for demand in problem.demands:
            assert stitched.weight_satisfaction(demand) >= (
                min(shard_weight_fraction[demand.key], 1.0) - 1e-9
            )

        # Fanout: the stitcher never makes the union worse, and when every
        # overload was resolvable (no load-bearing copy pinned an overloaded
        # reflector) the merged violation is bounded by the worst single
        # shard (or the bound itself); the global repair pass may then use
        # the documented repair slack, never more.
        assert stitched.max_fanout_factor() <= max(merged_factor, 1.0) + 1e-9
        limit = max(1.0, shard_max_factor)
        if report.demands_repaired:
            limit = max(limit, 4.0)
        if report.unresolved_overloads == 0:
            assert stitched.max_fanout_factor() <= limit + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(problems(), st.integers(0, 10_000))
    def test_every_demand_satisfied_post_stitch(self, problem, seed):
        result = get_designer("sharded:greedy").design(
            DesignRequest(
                problem=problem,
                strategy="sharded:greedy",
                parameters=DesignParameters(seed=seed),
                options={"shards": 3},
            )
        )
        assert result.audit.unserved_demands == 0
        assert result.audit.min_weight_fraction >= 1.0 - 1e-9

    @settings(max_examples=8, deadline=None)
    @given(problems(), st.integers(0, 10_000), st.sampled_from([2, 3]))
    def test_jobs_are_invisible_in_the_merged_solution(self, problem, seed, jobs):
        def run(n):
            return get_designer("sharded:greedy").design(
                DesignRequest(
                    problem=problem,
                    strategy="sharded:greedy",
                    parameters=DesignParameters(seed=seed),
                    options={"shards": 3, "jobs": n},
                )
            ).solution

        serial, parallel = run(1), run(jobs)
        assert serial.assignments == parallel.assignments
        assert serial.built_reflectors == parallel.built_reflectors
        assert serial.stream_deliveries == parallel.stream_deliveries
