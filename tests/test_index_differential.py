"""The index-backed consumers against the scalar code they replaced.

``tests/index_oracle.py`` keeps the audit, the ``OverlaySolution``
accessors, the repair pass, the stitch's weight passes and the feasibility
report as they read the problem before it had an index.  While the corpus
below is designed, every call the program makes to the audit, the repair,
the stitch and ``feasibility_report`` is recorded and re-run through the
oracle on the same inputs, and the two must agree with ``==`` (canonical
digests first, so a failing comparison reports fast):
``audit_to_dict`` (plus every demand's ``weight_satisfaction`` and the
solution's ``max_fanout_factor``), the repaired assignments, the stitched
assignments with ``StitchReport.as_metadata()``, and the feasibility issues.
A sharded round reads its audit off the state its stitch leaves, so every
round of the shard loop is recorded too, its audit against the oracle's
audit of its design.  The partition's ISP grouping and shard extraction are
compared directly.

The corpus:

* the three golden workloads, designed by ``spaa03`` with repair and by
  ``sharded:greedy``;
* the twelve stitch-oracle designs of ``tests/test_stitch_differential.py``;
* a 50-event ``DesignSession`` stream shaped like perfbench's churn-session
  (``sharded:spaa03`` on ``internet_scale``, alternating 1% sink churn and
  2% flash crowd; 500 sinks here);
* an instance with arc capacities (``spaa03-extended`` with rows (7') on),
  also designed by ``sharded:spaa03`` and streamed through a 10-event
  ``DesignSession``;
* a colour-constrained ``spaa03-extended`` design (``as_geo``, whose
  reflectors carry carrier colours) and a greedy design of that instance.

The old repair summed a demand's weights in hash order and the program sums
them in list order; no repair input in the corpus has a demand whose
decision could depend on that order (``index_oracle.repair_decision_ties``).
"""

from __future__ import annotations

from typing import Any

import index_oracle as oracle
import numpy as np
import pytest
from test_golden_designs import GOLDEN_SEED, WORKLOADS
from stitch_oracle import carried_maps
from test_stitch_differential import INNER, INSTANCES

import repro.analysis.audit as audit_module
import repro.api.designers as designers_module
import repro.api.pipeline as pipeline_module
import repro.incremental.engine as engine_module
import repro.scale.pipeline as shard_loop_module
import repro.scale.stitch as stitch_module
from repro.api import DesignPipeline, DesignRequest, get_designer
from repro.api.types import audit_to_dict
from repro.core.algorithm import DesignParameters
from repro.core.extensions import color_constrained_parameters
from repro.core.formulation import ExtensionOptions
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.core.serialization import canonical_digest, problem_to_dict
from repro.incremental import SinkChurnConfig, flash_crowd_delta, sample_sink_churn
from repro.scale.partition import _isp_groups, build_partition, extract_shard_problem
from repro.serve import DesignSession
from repro.workloads import (
    AsGeoConfig,
    InternetScaleConfig,
    RandomInstanceConfig,
    generate_as_geo_problem,
    generate_internet_scale_problem,
    random_problem,
)

STREAM_SINKS = 500
STREAM_EVENTS = 50
ARC_EVENTS = 10


class Recorder:
    """Program and oracle results of every recorded call, pairwise."""

    def __init__(self) -> None:
        self.audits: list[tuple[dict, dict]] = []
        self.round_audits: list[tuple[dict, dict]] = []
        self.accessors: list[tuple[list, list]] = []
        self.repairs: list[tuple[dict, dict]] = []
        self.repair_added: list[int] = []
        self.ties: list[tuple[str, str]] = []
        self.stitches: list[tuple[dict, dict]] = []
        self.reports: list[tuple[dict, dict]] = []
        self.feasibility: list[tuple[str, str]] = []

    def install(self, patch: pytest.MonkeyPatch) -> None:
        audit, shard_round, repair, top_up, stitch = (
            audit_module.audit_solution,
            shard_loop_module.run_shard_loop,
            pipeline_module.repair_weight_shortfalls,
            stitch_module.top_up_demands,
            stitch_module.stitch_assignments,
        )
        report = OverlayDesignProblem.feasibility_report

        def record(audits, problem, solution, result) -> None:
            audits.append(
                (audit_to_dict(result), audit_to_dict(oracle.audit_solution(problem, solution)))
            )
            demands = solution.problem.demands
            self.accessors.append(
                (
                    [solution.max_fanout_factor()]
                    + [solution.weight_satisfaction(d) for d in demands],
                    [oracle.max_fanout_factor(solution)]
                    + [oracle.weight_satisfaction(solution, d) for d in demands],
                )
            )

        def audited(problem, solution):
            result = audit(problem, solution)
            record(self.audits, problem, solution, result)
            return result

        def rounded(problem, *args, **kwargs):
            # A round's audit is read off the stitched state; the oracle
            # audits the whole design.
            result, shard_results = shard_round(problem, *args, **kwargs)
            record(self.round_audits, problem, result.solution, result.audit)
            return result, shard_results

        def repaired(problem, solution, fanout_slack=4.0):
            result = repair(problem, solution, fanout_slack=fanout_slack)
            reference = oracle.repair_weight_shortfalls(problem, solution, fanout_slack)
            self.repairs.append((result.assignments, reference.assignments))
            self.repair_added.append(
                sum(map(len, result.assignments.values()))
                - sum(map(len, solution.assignments.values()))
            )
            self.ties.extend(oracle.repair_decision_ties(problem, solution, fanout_slack))
            return result

        def topped(problem, assignments, load, demands, delivered, fanout_slack=4.0):
            # The stitch tops up the demands it keeps short; the oracle
            # repairs the whole merged design and must agree.
            before = OverlaySolution.from_assignments(problem, dict(assignments))
            grown = top_up(problem, assignments, load, demands, delivered, fanout_slack)
            reference = oracle.repair_weight_shortfalls(problem, before, fanout_slack)
            after = {key: sorted(set(reflectors)) for key, reflectors in assignments.items()}
            self.repairs.append((after, reference.assignments))
            added = sum(map(len, after.values())) - sum(map(len, before.assignments.values()))
            self.repair_added.append(added)
            self.ties.extend(oracle.repair_decision_ties(problem, before, fanout_slack))
            return grown

        def stitched(problem, plan, shard_assignments, fanout_slack=4.0, standing=None):
            merged, merged_report = stitch(
                problem, plan, shard_assignments, fanout_slack=fanout_slack, standing=standing
            )
            full = carried_maps(plan, shard_assignments, standing)
            reference, reference_report = oracle.stitch_assignments(
                problem, plan, full, fanout_slack
            )
            self.stitches.append((merged.assignments, reference.assignments))
            self.reports.append((merged_report.as_metadata(), reference_report.as_metadata()))
            return merged, merged_report

        def reported(problem):
            issues = report(problem)
            self.feasibility.append((repr(issues), repr(oracle.feasibility_report(problem))))
            return issues

        for module in (pipeline_module, designers_module):
            patch.setattr(module, "audit_solution", audited)
        for module in (shard_loop_module, engine_module):
            patch.setattr(module, "run_shard_loop", rounded)
        patch.setattr(pipeline_module, "repair_weight_shortfalls", repaired)
        patch.setattr(stitch_module, "top_up_demands", topped)
        patch.setattr(shard_loop_module, "stitch_assignments", stitched)
        patch.setattr(OverlayDesignProblem, "feasibility_report", reported)


def _design(problem, strategy, parameters, options=None):
    return get_designer(strategy).design(
        DesignRequest(problem=problem, parameters=parameters, options=options or {})
    )


def _golden_designs() -> None:
    for build in WORKLOADS.values():
        problem = build()
        problem.feasibility_report()
        _design(problem, "spaa03", DesignParameters(seed=GOLDEN_SEED, repair_shortfall=True))
        _design(
            problem,
            "sharded:greedy",
            DesignParameters(seed=GOLDEN_SEED),
            {"shards": 3, "jobs": 1},
        )


def _stitch_oracle_designs() -> None:
    for generate, config, sinks, seed in INSTANCES.values():
        problem = generate(config(num_sinks=sinks), rng=seed)[0]
        for inner in INNER:
            _design(problem, f"sharded:{inner}", DesignParameters(seed=0))


def _churn_stream() -> None:
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=STREAM_SINKS), rng=1
    )
    session = DesignSession(problem, parameters=DesignParameters(seed=1), options={"jobs": 1})
    session.ensure_design()
    rng = np.random.default_rng(11)
    for event in range(STREAM_EVENTS):
        if event % 2 == 0:
            delta = sample_sink_churn(session.problem, SinkChurnConfig(fraction=0.01), rng)
        else:
            delta = flash_crowd_delta(session.problem, rng, hot_fraction=0.02)
        session.apply_delta(delta)


def _arc_capacity_problem() -> OverlayDesignProblem:
    """A random instance whose every other delivery link has capacity 1."""
    base = random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=8, num_sinks=30), rng=7
    )
    problem = OverlayDesignProblem("arc-capacities")
    for stream in base.streams:
        problem.add_stream(stream)
    for reflector in base.reflectors:
        info = base.reflector_info(reflector)
        problem.add_reflector(reflector, cost=info.cost, fanout=info.fanout)
    for sink in base.sinks:
        problem.add_sink(sink)
    for edge in base.stream_edges():
        problem.add_stream_edge(edge.stream, edge.reflector, edge.loss_probability, edge.cost)
    for number, (reflector, sink, loss, cost) in enumerate(base.delivery_link_data()):
        capacity = 1.0 if number % 2 else None
        problem.add_delivery_edge(reflector, sink, loss, cost, capacity=capacity)
    for demand in base.demands:
        problem.add_demand(demand.sink, demand.stream, demand.success_threshold)
    return problem


def _arc_capacity_design() -> None:
    problem = _arc_capacity_problem()
    parameters = DesignParameters(
        seed=3,
        repair_shortfall=True,
        extensions=ExtensionOptions(use_arc_capacities=True),
    )
    DesignPipeline.extended().run(problem, parameters)


def _arc_capacity_sharded() -> None:
    """A sharded design and a 10-event session on the arc-capacity instance."""
    problem = _arc_capacity_problem()
    parameters = DesignParameters(seed=3)
    _design(problem, "sharded:spaa03", parameters, {"shards": 3, "jobs": 1})
    session = DesignSession(problem, parameters=parameters, options={"shards": 3, "jobs": 1})
    session.ensure_design()
    rng = np.random.default_rng(13)
    for event in range(ARC_EVENTS):
        if event % 2 == 0:
            delta = sample_sink_churn(session.problem, SinkChurnConfig(fraction=0.1), rng)
        else:
            delta = flash_crowd_delta(session.problem, rng, hot_fraction=0.1)
        session.apply_delta(delta)


def _colour_constrained_design() -> None:
    problem, _registry = generate_as_geo_problem(AsGeoConfig(num_sinks=150), rng=0)
    parameters = color_constrained_parameters(DesignParameters(seed=4, repair_shortfall=True))
    _design(problem, "spaa03-extended", parameters)
    _design(problem, "greedy", DesignParameters(seed=4))


@pytest.fixture(scope="module")
def recorded() -> Recorder:
    recorder = Recorder()
    with pytest.MonkeyPatch.context() as patch:
        recorder.install(patch)
        _golden_designs()
        _stitch_oracle_designs()
        _churn_stream()
        _arc_capacity_design()
        _arc_capacity_sharded()
        _colour_constrained_design()
    return recorder


def _differing(program: Any, reference: Any) -> list:
    """The first keys (or positions) at which two recorded values differ."""
    if isinstance(program, dict) and isinstance(reference, dict):
        keys = sorted(program.keys() | reference.keys(), key=repr)
        return [key for key in keys if program.get(key) != reference.get(key)][:5]
    if isinstance(program, list) and isinstance(reference, list):
        pairs = enumerate(zip(program, reference))
        return [at for at, (one, other) in pairs if one != other][:5] or ["length"]
    return [program, reference]


def _same(program: Any, reference: Any) -> None:
    """``program == reference``, their canonical digests compared first.

    pytest explains a failing ``==`` of two whole documents by diffing
    their values, a cost that grows with their size; a failing digest
    comparison reports two short strings and where the values differ.
    """
    assert canonical_digest(program) == canonical_digest(reference), _differing(
        program, reference
    )
    assert program == reference


def test_audits_match_the_scalar_audit(recorded):
    assert len(recorded.audits) > 100
    for program, reference in recorded.audits:
        _same(program, reference)


def test_every_sharded_rounds_audit_matches_the_scalar_audit(recorded):
    assert len(recorded.round_audits) > 70
    for program, reference in recorded.round_audits:
        _same(program, reference)


def test_solution_accessors_match(recorded):
    for program, reference in recorded.accessors:
        _same(program, reference)


def test_repairs_match_the_scalar_repair(recorded):
    assert len(recorded.repairs) > 50
    for program, reference in recorded.repairs:
        _same(program, reference)


def test_no_repair_decision_depends_on_the_summation_order(recorded):
    assert recorded.ties == []


def test_stitches_match_the_scalar_stitch(recorded):
    assert len(recorded.stitches) > 60
    for program, reference in recorded.stitches:
        _same(program, reference)
    for program, reference in recorded.reports:
        _same(program, reference)


def test_feasibility_reports_match(recorded):
    assert len(recorded.feasibility) > 50
    for program, reference in recorded.feasibility:
        _same(program, reference)
    assert any(program != "[]" for program, _reference in recorded.feasibility)


def test_the_corpus_exercises_every_branch(recorded):
    for records in (recorded.audits, recorded.round_audits):
        audits = [program for program, _reference in records]
        assert any(audit["arc_capacity_factor"] for audit in audits)
        assert any(audit["color_violations"] for audit in audits)
    reports = [program for program, _reference in recorded.reports]
    assert any(r["stitch_assignments_moved"] and r["stitch_assignments_dropped"] for r in reports)
    assert any(r["stitch_demands_repaired"] for r in reports)
    assert any(recorded.repair_added)


def _partition_corpus() -> list[OverlayDesignProblem]:
    problems = [build() for build in WORKLOADS.values()]
    problems += [
        generate(config(num_sinks=sinks), rng=seed)[0]
        for generate, config, sinks, seed in INSTANCES.values()
    ]
    problems.append(generate_as_geo_problem(AsGeoConfig(num_sinks=150), rng=0)[0])
    problems.append(
        random_problem(RandomInstanceConfig(num_colors=3, num_sinks=40, num_reflectors=9), rng=2)
    )
    return problems


def test_partition_matches_the_scalar_partition():
    """ISP groups, every shard and a residual with overrides, entry for entry."""
    for problem in _partition_corpus():
        assert list(_isp_groups(problem).items()) == list(oracle.isp_groups(problem).items())
        plan = build_partition(problem, partitioner="isp", shards=4)
        for shard in plan.shards:
            extracted = extract_shard_problem(problem, shard.sinks, name="shard")
            reference = oracle.extract_shard_problem(problem, shard.sinks, name="shard")
            assert problem_to_dict(extracted) == problem_to_dict(reference)
        shard = plan.shards[0]
        keys = set(shard.demand_keys[::2])
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
        extracted = extract_shard_problem(problem, sinks, name="residual", **overrides)
        reference = oracle.extract_shard_problem(problem, sinks, name="residual", **overrides)
        assert problem_to_dict(extracted) == problem_to_dict(reference)


def _summary_corpus():
    """Thirty designs: ``internet_scale`` at 30, 150 and 1,000 sinks, three seeds,
    by ``sharded:spaa03``, ``greedy`` and ``random``; ``as_geo`` by ``spaa03``."""
    for sinks in (30, 150, 1000):
        for seed in (0, 1, 2):
            problem, _registry = generate_internet_scale_problem(
                InternetScaleConfig(num_sinks=sinks), rng=seed
            )
            for strategy in ("sharded:spaa03", "greedy", "random"):
                yield _design(problem, strategy, DesignParameters(seed=seed)).solution
    for seed in (0, 1, 2):
        problem, _registry = generate_as_geo_problem(AsGeoConfig(num_sinks=120), rng=seed)
        yield _design(problem, "spaa03", DesignParameters(seed=seed)).solution


def test_summaries_match_the_scalar_summary():
    """``OverlaySolution.summary`` reads the index; the oracle prices every demand."""
    count = 0
    for solution in _summary_corpus():
        program, reference = solution.summary(), oracle.summary(solution)
        assert program == reference
        assert [type(value) for value in program.values()] == [
            type(value) for value in reference.values()
        ]
        count += 1
    assert count == 30
