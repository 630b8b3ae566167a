"""Tests for the hierarchical sharded design pipeline (repro.scale)."""

from __future__ import annotations

import math

import pytest

import index_oracle as oracle
from repro.api import DesignRequest, get_designer, result_from_dict, result_to_dict
from repro.core.algorithm import DesignParameters
from repro.core.solution import OverlaySolution
from repro.scale import (
    StitchReport,
    build_partition,
    extract_shard_problem,
    get_partitioner,
    rebalance_fanout,
    resolve_shard_count,
    shard_seed,
    stitch_assignments,
)
from repro.scale.partition import rebind_partition
from repro.workloads import (
    InternetScaleConfig,
    RandomInstanceConfig,
    generate_internet_scale_problem,
    random_problem,
)
from repro.workloads.tiny import build_tiny_problem
from test_index_differential import _partition_corpus


def _cut(problem, shard):
    """The shard's subproblem, as the sharded pipeline cuts it."""
    return extract_shard_problem(problem, shard.sinks, name=f"{problem.name}/{shard.shard_id}")


@pytest.fixture(scope="module")
def scale_problem():
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=200, sinks_per_metro=25), rng=7
    )
    return problem


# ---------------------------------------------------------------------------
# Workload generator
# ---------------------------------------------------------------------------


class TestInternetScaleWorkload:
    def test_structure_and_feasibility(self, scale_problem):
        assert scale_problem.num_sinks == 200
        assert scale_problem.num_demands == 200  # one demand per sink
        assert scale_problem.num_reflectors == 8 * 2
        assert scale_problem.feasibility_report() == []

    def test_deterministic_given_seed(self):
        config = InternetScaleConfig(num_sinks=60, sinks_per_metro=20)
        a, _ = generate_internet_scale_problem(config, rng=3)
        b, _ = generate_internet_scale_problem(config, rng=3)
        assert a.sinks == b.sinks
        assert [d.key for d in a.demands] == [d.key for d in b.demands]
        assert [d.success_threshold for d in a.demands] == [
            d.success_threshold for d in b.demands
        ]
        assert a.delivery_link_data() == b.delivery_link_data()

    def test_names_carry_metro_prefix_and_isp_colors(self, scale_problem):
        assert all("-" in name for name in scale_problem.sinks)
        colors = {scale_problem.color(r) for r in scale_problem.reflectors}
        assert colors and None not in colors

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="candidates_per_sink"):
            InternetScaleConfig(candidates_per_sink=1)
        with pytest.raises(ValueError, match="quality_mix"):
            InternetScaleConfig(quality_mix=(0.5, 0.5, 0.5))


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


class TestPartition:
    def test_metro_partitioner_covers_all_sinks_exactly_once(self, scale_problem):
        plan = build_partition(scale_problem, partitioner="metro", shards="auto")
        assert plan.partitioner == "metro"
        placed = [sink for shard in plan.shards for sink in shard.sinks]
        assert sorted(placed) == sorted(scale_problem.sinks)

    def test_demand_keys_partition_the_demands(self, scale_problem):
        plan = build_partition(scale_problem, shards=4)
        keys = [key for shard in plan.shards for key in shard.demand_keys]
        assert sorted(keys) == sorted(d.key for d in scale_problem.demands)

    def test_explicit_shard_count_is_honoured(self, scale_problem):
        plan = build_partition(scale_problem, shards=3)
        assert plan.num_shards == 3
        sizes = [len(shard.sinks) for shard in plan.shards]
        # Metro groups are dealt largest-first, so the split stays balanced.
        assert max(sizes) - min(sizes) <= 25

    def test_subproblem_preserves_demand_candidates_and_weights(self, scale_problem):
        plan = build_partition(scale_problem, shards=4)
        subproblem = _cut(scale_problem, plan.shards[0])
        for demand in subproblem.demands:
            original = next(
                d for d in scale_problem.demands if d.key == demand.key
            )
            assert demand.success_threshold == original.success_threshold
            assert subproblem.candidate_reflectors(demand) == (
                scale_problem.candidate_reflectors(original)
            )
            for reflector in subproblem.candidate_reflectors(demand):
                assert subproblem.edge_weight(demand, reflector) == (
                    scale_problem.edge_weight(original, reflector)
                )
                assert subproblem.assignment_cost(demand, reflector) == (
                    scale_problem.assignment_cost(original, reflector)
                )

    def test_subproblem_reflector_attributes_copied(self, scale_problem):
        plan = build_partition(scale_problem, shards=2)
        subproblem = _cut(scale_problem, plan.shards[0])
        for reflector in subproblem.reflectors:
            ours = subproblem.reflector_info(reflector)
            theirs = scale_problem.reflector_info(reflector)
            assert (ours.cost, ours.fanout, ours.color, ours.capacity) == (
                theirs.cost,
                theirs.fanout,
                theirs.color,
                theirs.capacity,
            )

    def test_isp_partitioner_groups_by_color(self, scale_problem):
        groups = get_partitioner("isp").group_sinks(scale_problem)
        assert len(groups) > 1
        assert sorted(s for sinks in groups.values() for s in sinks) == sorted(
            scale_problem.sinks
        )

    def test_hash_partitioner_balances_unstructured_names(self):
        problem = random_problem(
            RandomInstanceConfig(num_streams=2, num_reflectors=6, num_sinks=12), rng=0
        )
        plan = build_partition(problem, partitioner="hash", shards=3)
        assert plan.partitioner == "hash"
        sizes = sorted(len(shard.sinks) for shard in plan.shards)
        assert sum(sizes) == problem.num_sinks
        assert sizes[-1] - sizes[0] <= 1

    def test_auto_partitioner_prefers_metro_clusters(self, scale_problem):
        assert build_partition(scale_problem, partitioner="auto").partitioner == "metro"

    def test_unknown_partitioner_raises(self, scale_problem):
        with pytest.raises(KeyError, match="unknown partitioner 'bogus'"):
            build_partition(scale_problem, partitioner="bogus")

    def test_resolve_shard_count(self, scale_problem):
        assert resolve_shard_count(1, scale_problem) == 1
        assert resolve_shard_count("4", scale_problem) == 4
        auto = resolve_shard_count("auto", scale_problem)
        assert 1 <= auto <= 64
        # Never more shards than sinks.
        assert resolve_shard_count(10_000, scale_problem) == scale_problem.num_sinks
        with pytest.raises(ValueError, match="shards must be >= 1"):
            resolve_shard_count(0, scale_problem)

    def test_a_rebind_keeps_untouched_shards_and_leaves_its_input_alone(self, scale_problem):
        plan = build_partition(scale_problem, shards=4)
        before = [(shard.sinks, list(shard.demand_keys)) for shard in plan.shards]
        changed = plan.shards[1].sinks[0]
        rebound = rebind_partition(plan, scale_problem, changed_sinks=[changed])
        assert [shard is old for shard, old in zip(rebound.shards, plan.shards)] == [
            True,
            False,
            True,
            True,
        ]
        assert rebound == plan
        assert [(shard.sinks, shard.demand_keys) for shard in plan.shards] == before


# ---------------------------------------------------------------------------
# The bulk cut: extract_shard_problem against the add_* oracle
# ---------------------------------------------------------------------------

#: The problem's memos, which neither build sets the same way.
MEMOS = ("_digest", "_index", "_index_origin")


def _tables(problem) -> list:
    """Every attribute but the memos, each dict as its list of items (order counts)."""

    def ordered(value):
        if isinstance(value, dict):
            return [(key, ordered(item)) for key, item in value.items()]
        if isinstance(value, list):
            return [ordered(item) for item in value]
        return value

    return [(name, ordered(value)) for name, value in vars(problem).items() if name not in MEMOS]


class TestBulkCut:
    def test_every_cut_equals_the_add_oracle_table_for_table(self):
        """The partition corpus, every shard of two plans and a residual with overrides."""
        for problem in _partition_corpus():
            for partitioner, shards in (("isp", 4), ("auto", "auto")):
                plan = build_partition(problem, partitioner=partitioner, shards=shards)
                for shard in plan.shards:
                    cut = extract_shard_problem(problem, shard.sinks, name="shard")
                    reference = oracle.extract_shard_problem(problem, shard.sinks, name="shard")
                    assert _tables(cut) == _tables(reference)
                    assert cut._canonical is False
            keys = set(plan.shards[0].demand_keys[::2])
            reflectors = problem.reflectors[::3]
            overrides = {
                "demand_keys": keys,
                "fanout_overrides": dict.fromkeys(reflectors, 1),
                "reflector_cost_overrides": dict.fromkeys(reflectors, 0.0),
                "stream_edge_cost_overrides": {
                    (edge.stream, edge.reflector): 0.0 for edge in problem.stream_edges()[::2]
                },
            }
            sinks = sorted({sink for sink, _stream in keys})
            cut = extract_shard_problem(problem, sinks, name="residual", **overrides)
            reference = oracle.extract_shard_problem(problem, sinks, name="residual", **overrides)
            assert _tables(cut) == _tables(reference)

    def test_a_cut_shares_immutable_rows_and_copies_reflector_records(self, scale_problem):
        shard = build_partition(scale_problem, shards=4).shards[0]
        cut = _cut(scale_problem, shard)
        for key, demand in cut._demands.items():
            assert demand is scale_problem._demands[key]
        for key, link in cut._delivery_links.items():
            assert link is scale_problem._delivery_links[key]
        for reflector, info in cut._reflectors.items():
            assert info == scale_problem._reflectors[reflector]
            assert info is not scale_problem._reflectors[reflector]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"fanout_overrides": {"r2": 0}},
            {"fanout_overrides": {"r2": -1}},
            {"fanout_overrides": {"r2": 1.5}},
            {"fanout_overrides": {"r2": True}},
            {"reflector_cost_overrides": {"r3": -1.0}},
            {"reflector_cost_overrides": {"r3": math.inf}},
            {"stream_edge_cost_overrides": {("s", "r1"): -0.5}},
            {"stream_edge_cost_overrides": {("s", "r1"): math.nan}},
            # Adding the rows meets the reflectors before the stream edges.
            {
                "stream_edge_cost_overrides": {("s", "r1"): -0.5},
                "reflector_cost_overrides": {"r3": -1.0},
            },
        ],
    )
    def test_a_bad_override_raises_the_add_error(self, overrides):
        problem = build_tiny_problem()
        with pytest.raises((ValueError, TypeError)) as expected:
            oracle.extract_shard_problem(problem, problem.sinks, name="bad", **overrides)
        with pytest.raises(expected.type) as raised:
            extract_shard_problem(problem, problem.sinks, name="bad", **overrides)
        assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Stitching
# ---------------------------------------------------------------------------


def _pinned_problem(fanout: int):
    """Two sinks, each demanding stream ``s`` through the one reflector ``r``.

    One copy through ``r`` satisfies either demand, and the plan puts each
    sink in its own shard, so both shards load ``r`` once.
    """
    from repro.core.problem import OverlayDesignProblem
    from repro.scale.partition import PartitionPlan, Shard

    problem = OverlayDesignProblem(name="pinned")
    problem.add_stream("s")
    problem.add_reflector("r", cost=10.0, fanout=fanout)
    problem.add_stream_edge("s", "r", loss_probability=0.01, cost=1.0)
    for sink in ("a", "b"):
        problem.add_sink(sink)
        problem.add_delivery_edge("r", sink, loss_probability=0.05, cost=0.5)
        problem.add_demand(sink, "s", success_threshold=0.9)
    plan = PartitionPlan(partitioner="hash", requested_shards=2)
    for index, sink in enumerate(("a", "b")):
        plan.shards.append(Shard(shard_id=f"shard{index}", sinks=[sink], demand_keys=[(sink, "s")]))
    return problem, plan


class TestStitch:
    def test_stitch_rejects_duplicate_demand_keys(self, scale_problem):
        plan = build_partition(scale_problem, shards=2)
        demand = scale_problem.demands[0]
        reflector = scale_problem.candidate_reflectors(demand)[0]
        part = {demand.key: [reflector]}
        with pytest.raises(ValueError, match="more than one shard"):
            stitch_assignments(scale_problem, plan, [part, part])

    def test_stitch_pays_shared_builds_once(self):
        problem, plan = _pinned_problem(fanout=2)
        maps = [{("a", "s"): ["r"]}, {("b", "s"): ["r"]}]
        stitched, report = stitch_assignments(problem, plan, maps)
        shard_costs = [
            OverlaySolution.from_assignments(problem, assignments).total_cost()
            for assignments in maps
        ]
        assert stitched.assignments == {("a", "s"): ["r"], ("b", "s"): ["r"]}
        assert stitched.built_reflectors == {"r"}
        # The build (10) and the stream edge (1) are paid once, not per shard.
        assert stitched.total_cost() == pytest.approx(sum(shard_costs) - 11.0)
        assert report.demands_repaired == 0

    def test_rebalance_sheds_redundant_overload(self):
        # Two demands, each assigned to both reflectors; r0 has fanout 1, so
        # the merged load of 2 must be shed by dropping redundant copies.
        problem = build_tiny_problem()
        demands = problem.demands[:2]
        candidates = [set(problem.candidate_reflectors(d)) for d in demands]
        shared = sorted(candidates[0] & candidates[1])
        assert len(shared) >= 2
        r_small, r_other = shared[0], shared[1]
        solution = OverlaySolution.from_assignments(
            problem,
            {d.key: [r_small, r_other] for d in demands},
        )
        report = StitchReport()
        # Pretend no shard used r_small more than once.
        rebalanced = rebalance_fanout(
            problem, solution, {r_small: 1, r_other: 2}, report
        )
        load = rebalanced.fanout_used(r_small)
        assert load <= max(problem.fanout(r_small), 1)

    def test_stitch_repairs_cross_shard_shortfall(self, scale_problem):
        plan = build_partition(scale_problem, shards=4)
        # Underserve every demand: one candidate each (likely below premium
        # requirements), then let the stitch repair pass top them up globally.
        solutions = []
        for shard in plan.shards:
            subproblem = _cut(scale_problem, shard)
            assignments = {}
            for demand in subproblem.demands:
                assignments[demand.key] = [subproblem.candidate_reflectors(demand)[0]]
            solutions.append(OverlaySolution.from_assignments(subproblem, assignments))
        stitched, report = stitch_assignments(
            scale_problem, plan, [dict(s.assignments) for s in solutions]
        )
        assert report.num_shards == 4
        assert report.demands_repaired > 0
        audit_fractions = [
            stitched.weight_satisfaction(d) for d in scale_problem.demands
        ]
        assert min(audit_fractions) >= min(
            min(
                sol.weight_satisfaction(d)
                for sol in solutions
                for d in sol.problem.demands
            ),
            1.0,
        )

    def test_stitch_wrong_map_count_raises(self, scale_problem):
        plan = build_partition(scale_problem, shards=3)
        with pytest.raises(ValueError, match="shard assignment maps"):
            stitch_assignments(scale_problem, plan, [])

    def test_stitch_sheds_only_down_to_the_worst_shard_load(self):
        # Shard 0 already puts three copies on the fanout-2 reflector ``r``;
        # shard 1 adds a fourth.  Every demand also holds a copy on ``alt``,
        # which alone satisfies it, so each ``r`` copy is redundant.  The
        # rebalance sheds the merged load back to max(F_r, worst shard) = 3,
        # not to F_r = 2.
        from repro.core.problem import OverlayDesignProblem
        from repro.scale.partition import PartitionPlan, Shard

        problem = OverlayDesignProblem(name="worst-shard")
        problem.add_stream("s")
        for reflector, fanout in (("alt", 10), ("r", 2)):
            problem.add_reflector(reflector, cost=10.0, fanout=fanout)
            problem.add_stream_edge("s", reflector, loss_probability=0.01, cost=1.0)
        layout = (["a", "b", "c"], ["d"])
        for sinks in layout:
            for sink in sinks:
                problem.add_sink(sink)
                for reflector in ("alt", "r"):
                    problem.add_delivery_edge(reflector, sink, loss_probability=0.05, cost=0.5)
                problem.add_demand(sink, "s", success_threshold=0.9)
        plan = PartitionPlan(partitioner="hash", requested_shards=2)
        for index, sinks in enumerate(layout):
            plan.shards.append(
                Shard(
                    shard_id=f"shard{index}",
                    sinks=sinks,
                    demand_keys=[(sink, "s") for sink in sinks],
                )
            )
        maps = [{(sink, "s"): ["alt", "r"] for sink in sinks} for sinks in layout]

        stitched, report = stitch_assignments(problem, plan, maps)
        assert report.overloaded_reflectors == 1
        assert report.assignments_dropped == 1
        assert report.unresolved_overloads == 0
        assert stitched.fanout_used("r") == 3
        assert stitched.assignments[("a", "s")] == ["alt"]
        assert report.shard_max_fanout_factor == pytest.approx(1.5)

    def test_stitch_counts_unresolved_overloads(self):
        # Two shards each pin their only demand on the same fanout-1
        # reflector; neither copy is droppable (the demand would go
        # unserved) and there is no alternative candidate, so the merged
        # load of 2 cannot be shed.  Weight wins over fanout: the overload
        # stays in place and is counted, bounded by the merged load.  No
        # demand falls short, so the repair pass has nothing to do.
        problem, plan = _pinned_problem(fanout=1)
        maps = [{("a", "s"): ["r"]}, {("b", "s"): ["r"]}]

        stitched, report = stitch_assignments(problem, plan, maps)
        assert report.overloaded_reflectors == 1
        assert report.unresolved_overloads == 1
        assert report.assignments_dropped == 0
        assert report.assignments_moved == 0
        assert report.demands_repaired == 0
        assert report.as_metadata()["stitch_unresolved_overloads"] == 1
        # Both demands stay served; the fanout violation is exactly the
        # merged load over the bound and never exceeds it.
        assert stitched.fanout_used("r") == 2
        assert stitched.max_fanout_factor() == pytest.approx(2.0)
        for demand in problem.demands:
            assert stitched.weight_satisfaction(demand) >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# The sharded designer
# ---------------------------------------------------------------------------


class TestShardedDesigner:
    def test_registry_resolves_and_caches(self):
        designer = get_designer("sharded:greedy")
        assert designer.name == "sharded:greedy"
        assert designer.produces_solution
        assert not designer.in_comparisons
        assert get_designer("sharded:greedy") is designer

    def test_unknown_inner_strategy(self):
        with pytest.raises(KeyError, match="unknown inner strategy 'bogus'"):
            get_designer("sharded:bogus")

    def test_bound_only_inner_strategy_rejected(self):
        with pytest.raises(ValueError, match="bound only"):
            get_designer("sharded:lp-bound")

    def test_nested_sharding_rejected(self):
        with pytest.raises(KeyError, match="exactly one"):
            get_designer("sharded:sharded:spaa03")
        with pytest.raises(KeyError):
            get_designer("sharded:")

    def test_unknown_option_rejected(self, tiny_problem):
        with pytest.raises(ValueError, match="for strategy 'sharded:greedy'"):
            get_designer("sharded:greedy").design(
                DesignRequest(
                    problem=tiny_problem,
                    strategy="sharded:greedy",
                    options={"typo": 1},
                )
            )

    def test_shard_seed_derivation(self):
        assert shard_seed(None, 3) is None
        seeds = {shard_seed(7, index) for index in range(10)}
        assert len(seeds) == 10  # independent streams per shard
        assert shard_seed(7, 3) == shard_seed(7, 3)  # stable across calls

    def test_sharded_design_serves_everything(self, scale_problem):
        result = get_designer("sharded:spaa03").design(
            DesignRequest(
                problem=scale_problem,
                strategy="sharded:spaa03",
                parameters=DesignParameters(seed=11, repair_shortfall=True),
                options={"shards": 4},
            )
        )
        assert result.strategy == "sharded:spaa03"
        assert result.audit is not None
        assert result.audit.unserved_demands == 0
        assert result.audit.min_weight_fraction >= 1.0 - 1e-9
        assert result.metadata["num_shards"] == 4
        assert set(result.stage_seconds) == {
            "partition",
            "design_shards",
            "stitch",
            "audit",
        }
        # Bound-free: the sum of shard LP bounds is metadata, not a bound.
        assert result.lower_bound is None
        assert result.metadata["shard_bound_sum"] > 0

    def test_jobs_do_not_change_the_design(self, scale_problem):
        def run(jobs):
            return get_designer("sharded:greedy").design(
                DesignRequest(
                    problem=scale_problem,
                    strategy="sharded:greedy",
                    parameters=DesignParameters(seed=5),
                    options={"shards": 4, "jobs": jobs},
                )
            )

        serial, parallel = run(1), run(2)
        assert serial.solution.assignments == parallel.solution.assignments
        assert serial.solution.built_reflectors == parallel.solution.built_reflectors
        assert serial.total_cost == parallel.total_cost

    def test_result_round_trips_through_json(self, scale_problem):
        result = get_designer("sharded:greedy").design(
            DesignRequest(
                problem=scale_problem,
                strategy="sharded:greedy",
                options={"shards": 3},
                request_id="scale-1",
            )
        )
        restored = result_from_dict(result_to_dict(result), scale_problem)
        assert restored.strategy == "sharded:greedy"
        assert restored.request_id == "scale-1"
        assert restored.solution.assignments == result.solution.assignments
        assert restored.metadata["num_shards"] == 3

    def test_sharded_requests_resolve_in_batch_workers(self, tiny_problem):
        # Worker processes resolve 'sharded:' names dynamically (they are not
        # part of the imported catalogue), so a parallel batch must work.
        from repro.api import design_batch

        requests = [
            DesignRequest(
                problem=tiny_problem,
                strategy="sharded:greedy",
                parameters=DesignParameters(seed=seed),
                options={"shards": 2},
                request_id=f"req-{seed}",
            )
            for seed in (0, 1)
        ]
        results = design_batch(requests, jobs=2)
        assert [r.strategy for r in results] == ["sharded:greedy"] * 2
        assert [r.request_id for r in results] == ["req-0", "req-1"]
        assert all(r.audit.unserved_demands == 0 for r in results)

    def test_single_shard_degenerates_gracefully(self, tiny_problem):
        result = get_designer("sharded:greedy").design(
            DesignRequest(
                problem=tiny_problem,
                strategy="sharded:greedy",
                options={"shards": 1},
            )
        )
        assert result.metadata["num_shards"] == 1
        assert result.audit.unserved_demands == 0


# ---------------------------------------------------------------------------
# In-process shards: no documents between a plan and its designer
# ---------------------------------------------------------------------------


def _comparable(result) -> dict:
    document = result_to_dict(result)
    document.pop("stage_seconds")
    return document


def test_design_batch_gives_one_result_for_jobs_1_and_2(scale_problem):
    """In process the designer gets the shard objects; workers get pickles back."""
    from repro.api import design_batch

    plan = build_partition(scale_problem, shards=3)
    requests = [
        DesignRequest(
            problem=subproblem,
            parameters=DesignParameters(seed=seed),
            strategy=strategy,
            request_id=f"{shard.shard_id}-{strategy}",
        )
        for seed, (shard, subproblem) in enumerate(
            (shard, _cut(scale_problem, shard)) for shard in plan.shards
        )
        for strategy in ("spaa03", "greedy")
    ]
    serial, parallel = design_batch(requests, jobs=1), design_batch(requests, jobs=2)
    for request, one, two in zip(requests, serial, parallel):
        assert _comparable(one) == _comparable(two)
        for result in (one, two):
            assert result.solution.problem is request.problem
            assert result.report is None and result.shard_state is None


def _solution_designers() -> list[str]:
    from repro.api import registered_designers

    names = [designer.name for designer in registered_designers() if designer.produces_solution]
    return [*names, "sharded:spaa03", "sharded:greedy"]


@pytest.mark.parametrize("name", _solution_designers())
def test_a_designer_leaves_its_requests_problem_unchanged(name):
    """A designer reads its request's problem and never writes to it."""
    from repro.core.serialization import problem_digest, problem_to_dict

    problem = random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=6, num_sinks=10, num_colors=2), rng=3
    )
    before, digest = problem_to_dict(problem), problem_digest(problem)
    get_designer(name).design(
        DesignRequest(problem=problem, parameters=DesignParameters(seed=1), options={})
    )
    assert problem_to_dict(problem) == before
    assert problem_digest(problem) == digest
