"""Standing designs without a carried shard state take the carried path.

Every incremental update starts from the standing design's
:class:`repro.scale.stitch.ShardState`.  A sharded or incremental result
carries one; a bare :class:`OverlaySolution`, a result decoded from its
document or served from the cache, and a monolithic design do not, and the
update builds one first (``ShardState.of``, one pass over the design's
lists).  Each such update must equal the same update from a carried state:
the sharded design's own result, or, for the monolithic design, a state
built entry by entry with the scalar accessors.  A built state's fields, and
the audit read off it, must equal the scalar ones.  A session whose initial
design is a cache hit must stream the same results as one whose initial
design it computed; an empty delta's result reuses the state the standing
result carries and carries it on, so neither it nor the next event builds
one; and a first design stitches from the empty design's state whether or
not the caller passes it.
"""

from __future__ import annotations

import json
from dataclasses import replace

import index_oracle as oracle
import numpy as np
import pytest

from repro.api import DesignRequest, get_designer
from repro.api.types import DesignResult, audit_to_dict, result_from_dict, result_to_dict
from repro.core.algorithm import DesignParameters
from repro.core.index import ProblemIndex, problem_index
from repro.core.serialization import solution_digest
from repro.incremental import (
    ProblemDelta,
    SinkChurnConfig,
    apply_delta,
    design_incremental,
    flash_crowd_delta,
    sample_sink_churn,
)
from repro.scale import build_partition, stitch_assignments
from repro.scale.stitch import ShardState
from repro.serve import ArtifactCache, DesignSession
from repro.workloads import InternetScaleConfig, generate_internet_scale_problem

SINKS = 1000
MONOLITHIC_SINKS = 300
OPTIONS = {"jobs": 1}
DELTAS = ("sink-churn", "flash-crowd")


def _delta(problem, rng, kind):
    if kind == "sink-churn":
        return sample_sink_churn(problem, SinkChurnConfig(fraction=0.01), rng)
    return flash_crowd_delta(problem, rng, hot_fraction=0.02)


def _document(result) -> str:
    document = result_to_dict(result)
    for key in ("stage_seconds", "cache"):
        document.pop(key)
    return json.dumps(document, sort_keys=True)


def _scalar_state(problem, solution) -> ShardState:
    """The state of ``solution``, entry by entry, through the scalar accessors."""
    index = problem_index(problem)
    entries = [
        (index.demand_code[key], index.reflector_code[name])
        for key, reflectors in solution.assignments.items()
        for name in reflectors
    ]
    segment, reflector = (np.array(column, dtype=np.int64) for column in zip(*entries))
    width = len(index.reflectors)
    return ShardState(
        solution=solution,
        index=index,
        segment=segment,
        reflector=reflector,
        loads=np.bincount(reflector, minlength=width),
        delivered=np.array([solution.delivered_weight(d) for d in problem.demands]),
        fractions=np.array([solution.weight_satisfaction(d) for d in problem.demands]),
        pair_count=np.bincount(
            index.demand_stream[segment] * width + reflector,
            minlength=len(index.streams) * width,
        ),
        unserved_demands=len(solution.unserved_demands()),
        color_violations=len(oracle.color_violations(solution)),
    )


def _same_state(state: ShardState, reference: ShardState) -> None:
    assert state.solution.assignments == reference.solution.assignments
    assert state.solution.built_reflectors == reference.solution.built_reflectors
    assert state.solution.stream_deliveries == reference.solution.stream_deliveries
    assert sorted(zip(state.segment.tolist(), state.reflector.tolist())) == sorted(
        zip(reference.segment.tolist(), reference.reflector.tolist())
    )
    for name in ("loads", "delivered", "fractions", "pair_count"):
        assert np.array_equal(getattr(state, name), getattr(reference, name)), name
    assert state.unserved_demands == reference.unserved_demands
    assert state.color_violations == reference.color_violations
    # The audit read off the state is the scalar audit of its design.
    audit = state.solution_audit()
    problem = reference.solution.problem
    expected = oracle.audit_solution(problem, reference.solution)
    assert audit_to_dict(audit) == audit_to_dict(expected)
    assert audit.fanout_factor == expected.fanout_factor
    assert dict(audit.weight_fraction) == expected.weight_fraction


@pytest.fixture(scope="module")
def sharded():
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=SINKS), rng=2
    )
    parameters = DesignParameters(seed=2)
    result = get_designer("sharded:spaa03").design(
        DesignRequest(problem=problem, parameters=parameters, options=OPTIONS)
    )
    return problem, parameters, result


@pytest.fixture(scope="module")
def monolithic():
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=MONOLITHIC_SINKS), rng=2
    )
    parameters = DesignParameters(seed=2)
    result = get_designer("spaa03").design(DesignRequest(problem=problem, parameters=parameters))
    assert result.shard_state is None
    return problem, parameters, result


def _update(standing, problem, parameters, kind):
    delta = _delta(problem, np.random.default_rng(21), kind)
    return design_incremental(
        standing,
        apply_delta(problem, delta),
        parameters,
        strategy="spaa03",
        options=OPTIONS,
        previous_problem=problem,
        delta=delta,
    )


@pytest.mark.parametrize("kind", DELTAS)
@pytest.mark.parametrize("form", ["bare solution", "decoded result"])
def test_an_update_without_a_carried_state_matches_the_carried_update(sharded, form, kind):
    problem, parameters, result = sharded
    standing = (
        result.solution
        if form == "bare solution"
        else result_from_dict(json.loads(json.dumps(result_to_dict(result))), problem)
    )
    assert getattr(standing, "shard_state", None) is None
    update = _update(standing, problem, parameters, kind)
    carried = _update(result, problem, parameters, kind)
    assert _document(update) == _document(carried)
    assert solution_digest(update.solution) == solution_digest(carried.solution)
    assert isinstance(update.shard_state, ShardState)


@pytest.mark.parametrize("kind", DELTAS)
def test_an_update_of_a_monolithic_design_matches_one_from_a_scalar_state(monolithic, kind):
    problem, parameters, result = monolithic
    carried = DesignResult(
        strategy=result.strategy,
        solution=result.solution,
        audit=result.audit,
        shard_state=_scalar_state(problem, result.solution),
    )
    update = _update(result, problem, parameters, kind)
    reference = _update(carried, problem, parameters, kind)
    assert _document(update) == _document(reference)
    assert solution_digest(update.solution) == solution_digest(reference.solution)


def test_the_built_state_equals_the_scalar_state(sharded, monolithic):
    for problem, _parameters, result in (sharded, monolithic):
        reference = _scalar_state(problem, result.solution)
        _same_state(ShardState.of(problem, result.solution), reference)


def test_the_built_state_equals_the_stitched_one(sharded):
    problem, _parameters, result = sharded
    _same_state(ShardState.of(problem, result.solution), result.shard_state)
    decoded = result_from_dict(json.loads(json.dumps(result_to_dict(result))), problem)
    _same_state(ShardState.of(problem, decoded.solution), result.shard_state)
    assert audit_to_dict(result.shard_state.solution_audit()) == audit_to_dict(result.audit)


def test_building_a_state_makes_one_pass_over_the_design(sharded, monkeypatch):
    problem, _parameters, result = sharded
    entries, passes = ProblemIndex.entries, []

    def counted(index, keys, lists):
        passes.append(len(keys))
        return entries(index, keys, lists)

    monkeypatch.setattr(ProblemIndex, "entries", counted)
    ShardState.of(problem, result.solution).solution_audit()
    assert passes == [problem.num_demands]


def test_a_cache_hit_session_streams_the_carried_sessions_results(sharded):
    problem, parameters, _result = sharded
    cache = ArtifactCache()
    computed = DesignSession(
        problem, parameters=parameters, options=OPTIONS, cache=cache, session_id="s"
    )
    served = DesignSession(
        problem, parameters=parameters, options=OPTIONS, cache=cache, session_id="s"
    )
    assert computed.ensure_design().cache["served_from_cache"] is False
    initial = served.ensure_design()
    assert initial.cache["served_from_cache"] is True
    assert initial.shard_state is None
    rng = np.random.default_rng(31)
    for event in range(10):
        delta = _delta(computed.problem, rng, DELTAS[event % 2])
        expected, result = computed.apply_delta(delta), served.apply_delta(delta)
        assert _document(result) == _document(expected), event
        assert solution_digest(result.solution) == solution_digest(expected.solution)
        assert isinstance(result.shard_state, ShardState)
        assert result.shard_state.solution is result.solution


def test_a_first_design_stitches_from_the_empty_state(sharded):
    problem, _parameters, result = sharded
    plan = build_partition(problem)
    lists = result.solution.assignments
    maps = [{key: lists[key] for key in shard.demand_keys if key in lists} for shard in plan.shards]
    empty = ShardState.empty(problem)
    assert not empty.solution.assignments
    assert empty.unserved_demands == problem.num_demands and empty.color_violations == 0
    default, _report = stitch_assignments(problem, plan, maps)
    explicit, _report = stitch_assignments(problem, plan, maps, standing=empty)
    assert default.assignments == explicit.assignments
    assert solution_digest(default) == solution_digest(explicit)


def test_an_empty_delta_carries_its_state_to_the_next_event(sharded, monkeypatch):
    """A session alternating empty deltas with 1% sink churn builds no state after set-up.

    Its results equal, document for document, those of a session whose empty
    events build the standing state with ``ShardState.of`` (the carried state
    dropped first), which is what every empty event did before it reused it.
    """
    problem, parameters, _result = sharded

    def play(session, before_empty=None):
        session.ensure_design()
        rng = np.random.default_rng(41)
        for event in range(8):
            if event % 2 == 0:
                if before_empty is not None:
                    before_empty(session)
                result = session.apply_delta(ProblemDelta())
                assert result.metadata["incremental_identity"] is True
                assert set(result.stage_seconds) == {"diff", "audit"}
                assert result.shard_state.solution is result.solution
                assert audit_to_dict(result.audit) == audit_to_dict(
                    oracle.audit_solution(session.problem, result.solution)
                )
            else:
                result = session.apply_delta(_delta(session.problem, rng, "sink-churn"))
            yield result

    def drop_state(session):
        session._result = replace(session._result, shard_state=None)

    # One session id, so both sessions' results carry the same request ids.
    reference = DesignSession(problem, parameters=parameters, options=OPTIONS, session_id="empty")
    expected = [_document(result) for result in play(reference, drop_state)]

    session = DesignSession(problem, parameters=parameters, options=OPTIONS, session_id="empty")
    session.ensure_design()
    built, of = [], ShardState.of.__func__

    def counted(cls, *args, **kwargs):
        built.append(len(session.events))
        return of(cls, *args, **kwargs)

    monkeypatch.setattr(ShardState, "of", classmethod(counted))
    standing = session.result
    standing_metadata = dict(standing.solution.metadata)
    documents = []
    for result in play(session):
        documents.append(_document(result))
        if result.metadata.get("incremental_identity"):
            # The identity design shares the standing lists, never its metadata.
            assert result.solution is not standing.solution
            assert standing.solution.metadata == standing_metadata
        standing = result
        standing_metadata = dict(result.solution.metadata)
    assert built == []
    assert documents == expected
