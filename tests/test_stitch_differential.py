"""The one stitch against the solution-level stitch it replaced.

Every sharded design and every incremental update now stitches plain
per-shard assignment maps with :func:`repro.scale.stitch.stitch_assignments`.
``tests/stitch_oracle.py`` keeps the stitch the sharded pipeline used to run
over shard :class:`OverlaySolution` objects.  Over twelve sharded designs
(``internet_scale`` at 150 sinks, seeds 0-2, and 1,000 sinks; ``as_geo`` at
300 sinks, seeds 0-1; inner ``spaa03`` and ``greedy``) both stitches, and the
registered ``sharded:*`` designer, must give the same design bit for bit and
the same stitch report.  The ``as_geo`` greedy designs overload shared
reflectors, so the rebalance both moves and drops assignments there.

An update's stitch carries the clean shards from the standing design's
state, and the round's audit is read off the state the stitch leaves.  Over
a 50-event churn session at 1,000 sinks, each stitch must equal the
whole-problem stitch the carried one replaced (``stitch_oracle.full_stitch``)
and each round's audit a full ``audit_solution``; and at one dirty shard,
the stitch and audit seconds may grow at most 3x from 1,000 to 10,000 sinks.
"""

from __future__ import annotations

import numpy as np
import pytest
from stitch_oracle import carried_maps, full_stitch, stitch_solutions

import repro.incremental.engine as engine
import repro.scale.pipeline as shard_loop
from repro.analysis.audit import audit_solution
from repro.api import DesignRequest, design_batch, get_designer
from repro.api.types import audit_to_dict, parameters_from_dict, parameters_to_dict
from repro.core.algorithm import DesignParameters
from repro.core.serialization import solution_digest
from repro.incremental import (
    ProblemDelta,
    SinkChurnConfig,
    apply_delta,
    design_incremental,
    flash_crowd_delta,
    sample_sink_churn,
)
from repro.scale import build_partition, extract_shard_problem, shard_seed, stitch_assignments
from repro.serve import DesignSession
from repro.workloads import InternetScaleConfig, generate_internet_scale_problem
from repro.workloads.as_geo import AsGeoConfig, generate_as_geo_problem

SEED = 0

_INTERNET = (generate_internet_scale_problem, InternetScaleConfig)
_AS_GEO = (generate_as_geo_problem, AsGeoConfig)
#: name -> (generator, config, sinks, seed)
INSTANCES = {
    **{f"internet_scale-150-{seed}": (*_INTERNET, 150, seed) for seed in (0, 1, 2)},
    "internet_scale-1000-0": (*_INTERNET, 1000, 0),
    **{f"as_geo-300-{seed}": (*_AS_GEO, 300, seed) for seed in (0, 1)},
}
INNER = ("spaa03", "greedy")


@pytest.fixture(scope="module")
def problems():
    return {
        name: generate(config(num_sinks=sinks), rng=seed)[0]
        for name, (generate, config, sinks, seed) in INSTANCES.items()
    }


def _shard_solutions(problem, plan, inner):
    """Each shard designed whole, with the seeds the sharded pipeline gives it."""
    base = parameters_to_dict(DesignParameters(seed=SEED))
    requests = []
    for index, shard in enumerate(plan.shards):
        parameters = {**base, "rounding": {**base["rounding"], "seed": shard_seed(SEED, index)}}
        requests.append(
            DesignRequest(
                problem=extract_shard_problem(problem, shard.sinks, name=shard.shard_id),
                parameters=parameters_from_dict(parameters),
                strategy=inner,
            )
        )
    return [result.solution for result in design_batch(requests)]


@pytest.fixture(scope="module")
def stitched(problems):
    """``(instance, inner) -> (oracle, one stitch, designer)`` designs and reports."""
    out = {}
    for name, problem in problems.items():
        plan = build_partition(problem)
        for inner in INNER:
            solutions = _shard_solutions(problem, plan, inner)
            oracle = stitch_solutions(problem, plan, solutions)
            one = stitch_assignments(problem, plan, [dict(s.assignments) for s in solutions])
            designed = get_designer(f"sharded:{inner}").design(
                DesignRequest(problem=problem, parameters=DesignParameters(seed=SEED))
            )
            out[name, inner] = oracle, one, designed
    return out


@pytest.mark.parametrize("inner", INNER)
@pytest.mark.parametrize("instance", list(INSTANCES))
def test_one_stitch_matches_the_solution_level_stitch(stitched, instance, inner):
    (oracle, oracle_report), (one, one_report), designed = stitched[instance, inner]
    assert solution_digest(one) == solution_digest(oracle)
    assert one.assignments == oracle.assignments
    assert one_report.as_metadata() == oracle_report.as_metadata()
    assert solution_digest(designed.solution) == solution_digest(oracle)
    stitch_metadata = {
        key: value for key, value in designed.metadata.items() if key in one_report.as_metadata()
    }
    assert stitch_metadata == one_report.as_metadata()


def test_the_differential_exercises_the_rebalance(stitched):
    reports = [one_report for _oracle, (_one, one_report), _designed in stitched.values()]
    assert any(r.assignments_moved > 0 and r.assignments_dropped > 0 for r in reports)
    assert any(r.demands_repaired > 0 for r in reports)


# ---------------------------------------------------------------------------
# Updates: a stitch that carries the clean shards, and an audit off its state
# ---------------------------------------------------------------------------

CHURN_SINKS = 1000
CHURN_EVENTS = 50


def _churn_delta(problem, rng, event):
    if event % 2 == 0:
        return sample_sink_churn(problem, SinkChurnConfig(fraction=0.01), rng)
    return flash_crowd_delta(problem, rng, hot_fraction=0.02)


@pytest.fixture(scope="module")
def churn_rounds():
    """Each stitch and audit of a 50-event churn session, beside the whole-problem ones.

    ``stitches`` holds ``(carried, design, metadata, report, oracle design,
    oracle report)`` per stitch, the oracle being :func:`stitch_oracle.full_stitch`
    over the maps the clean shards would hold; ``audits`` holds ``(carried,
    the round's audit, full audit)`` per round of the shard loop.
    """
    stitch, shard_round = shard_loop.stitch_assignments, shard_loop.run_shard_loop
    stitches, audits = [], []

    def stitched(problem, plan, shard_assignments, fanout_slack=4.0, standing=None):
        design, report = stitch(
            problem, plan, shard_assignments, fanout_slack=fanout_slack, standing=standing
        )
        maps = carried_maps(plan, shard_assignments, standing)
        reference, reference_report = full_stitch(problem, plan, maps, fanout_slack)
        carried = any(assignments is None for assignments in shard_assignments)
        stitches.append(
            (carried, design, dict(design.metadata), report, reference, reference_report)
        )
        return design, report

    def audited(problem, *args, standing=None, **kwargs):
        result, shard_results = shard_round(problem, *args, standing=standing, **kwargs)
        full = audit_solution(problem, result.solution)
        audits.append((standing is not None, result.audit, full))
        return result, shard_results

    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=CHURN_SINKS), rng=6
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shard_loop, "stitch_assignments", stitched)
        for module in (shard_loop, engine):
            patch.setattr(module, "run_shard_loop", audited)
        session = DesignSession(problem, parameters=DesignParameters(seed=6), options={"jobs": 1})
        session.ensure_design()
        rng = np.random.default_rng(16)
        for event in range(CHURN_EVENTS):
            session.apply_delta(_churn_delta(session.problem, rng, event))
    return stitches, audits


def test_a_dirty_shard_stitch_matches_the_whole_problem_stitch(churn_rounds):
    stitches, _audits = churn_rounds
    assert sum(carried for carried, *_rest in stitches) == CHURN_EVENTS
    for _carried, design, metadata, report, reference, reference_report in stitches:
        assert design.assignments == reference.assignments
        assert design.built_reflectors == reference.built_reflectors
        assert design.stream_deliveries == reference.stream_deliveries
        assert metadata == reference.metadata
        assert report.as_metadata() == reference_report.as_metadata()
        assert solution_digest(design) == solution_digest(reference)
    assert any(report.demands_repaired for *_rest, report, _ref, _ref_report in stitches)


def test_every_rounds_audit_matches_the_full_audit(churn_rounds):
    _stitches, audits = churn_rounds
    assert len(audits) == CHURN_EVENTS + 1
    assert sum(carried for carried, *_rest in audits) == CHURN_EVENTS
    for _carried, audit, reference in audits:
        assert audit.summary() == reference.summary()
        assert audit_to_dict(audit) == audit_to_dict(reference)
        assert audit.fanout_factor == reference.fanout_factor
        assert audit.weight_fraction == reference.weight_fraction


def test_a_carried_stitch_needs_the_standing_state(problems):
    problem = problems["internet_scale-150-0"]
    plan = build_partition(problem)
    with pytest.raises(ValueError, match="keeps the standing design"):
        stitch_assignments(problem, plan, [None] * plan.num_shards)


def _one_dirty_shard_seconds(sinks: int):
    """A sharded design's updates, one re-thresholded demand (one dirty shard) each."""
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=sinks), rng=1
    )
    parameters = DesignParameters(seed=3)
    result = get_designer("sharded:spaa03").design(
        DesignRequest(problem=problem, parameters=parameters, options={"jobs": 1})
    )
    rng = np.random.default_rng(5)
    while True:
        demand = problem.demands[int(rng.integers(problem.num_demands))]
        threshold = 0.5 * (demand.success_threshold + 1.0)
        delta = ProblemDelta(demands_changed={demand.key: (demand.success_threshold, threshold)})
        problem = apply_delta(problem, delta)
        result = design_incremental(result, problem, parameters, options={"jobs": 1}, delta=delta)
        assert result.metadata["incremental_dirty_shards"] == 1
        yield result.stage_seconds["stitch"] + result.stage_seconds["audit"]


def test_stitch_and_audit_at_one_dirty_shard_grow_at_most_3x_from_1000_to_10000_sinks():
    """The clean shards cost numpy passes and dict copies, not Python work per demand.

    Events alternate between the two sizes so that drift in the machine's
    speed hits both; each size's median over 24 events is compared.
    """
    small, large = _one_dirty_shard_seconds(1000), _one_dirty_shard_seconds(10000)
    seconds = {1000: [], 10000: []}
    for _event in range(26):
        seconds[1000].append(next(small))
        seconds[10000].append(next(large))
    ratio = np.median(seconds[10000][2:]) / np.median(seconds[1000][2:])
    assert ratio <= 3.0, seconds
