"""The declared codecs against the hand-written ones they replaced.

``tests/codec_oracle.py`` holds the old request, parameters, evaluation,
audit, result, problem, solution and delta codecs.  On a corpus of real
documents -- every golden design (three workloads, every strategy and
``sharded:spaa03``), the deltas and results of a 50-event churn session, the
``repro serve --self-test`` requests and Hypothesis-drawn problems -- the
declarations in :mod:`repro.core.schema` must:

* decode every document to the same objects as the old decoders (compared
  through their old encodings and digests);
* encode every object to the same JSON text, key order included;
* leave ``request_digest`` and ``problem_digest`` unchanged.
"""

from __future__ import annotations

import json

import codec_oracle as oracle
import pytest
from hypothesis import given
from test_digest import build, specs
from test_golden_designs import EXTRA_STRATEGIES, GOLDEN_SEED, WORKLOADS

from repro.api import (
    DesignRequest,
    EvaluationSpec,
    designer_names,
    get_designer,
    request_from_dict,
    request_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.api.types import (
    audit_from_dict,
    audit_to_dict,
    evaluation_spec_from_dict,
    evaluation_spec_to_dict,
    parameters_from_dict,
    parameters_to_dict,
)
from repro.core.algorithm import DesignParameters
from repro.core.serialization import (
    problem_digest,
    problem_from_dict,
    problem_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from repro.incremental import SinkChurnConfig, churn_stream, delta_from_dict, delta_to_dict
from repro.serve.cache import request_digest
from repro.serve.session import DesignSession
from repro.workloads.random_instances import RandomInstanceConfig, random_problem


def _text(document) -> str:
    """The JSON text a document is written as (key order kept)."""
    return json.dumps(document)


def _round_trip(document):
    return json.loads(json.dumps(document))


def _golden_pairs():
    for workload, factory in WORKLOADS.items():
        for strategy in [*designer_names(), *EXTRA_STRATEGIES]:
            problem = factory()
            request = DesignRequest(
                problem=problem,
                parameters=DesignParameters(seed=GOLDEN_SEED),
                strategy=strategy,
                request_id=f"{workload}/{strategy}",
            )
            yield request, get_designer(strategy).design(request)


def _self_test_requests():
    problem = random_problem(
        RandomInstanceConfig(num_reflectors=12, num_sinks=24, num_streams=2), rng=1307
    )
    parameters = DesignParameters(seed=17)
    for strategy, request_id, evaluation in (
        ("spaa03", "fresh", None),
        ("greedy", "mixed", None),
        ("spaa03", "evaluated", EvaluationSpec(scenarios=("baseline", "isp-outage"), trials=2)),
    ):
        yield DesignRequest(
            problem=problem,
            parameters=parameters,
            strategy=strategy,
            evaluation=evaluation,
            request_id=request_id,
        )


@pytest.fixture(scope="module")
def golden():
    return list(_golden_pairs())


@pytest.fixture(scope="module")
def churn_session():
    """The deltas and results of a 50-event churn stream through one session."""
    problem = random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=8, num_sinks=20), rng=11
    )
    script = ["sink-churn", "flash-crowd"] * 25
    session = DesignSession(problem, strategy="sharded:spaa03", parameters=DesignParameters(seed=5))
    results = [session.ensure_design()]
    deltas = []
    stream = churn_stream(problem, script, seed=3, churn_config=SinkChurnConfig(fraction=0.1))
    for _event, delta, new_problem in stream:
        deltas.append(delta)
        results.append((session.apply_delta(delta), new_problem))
    return problem, deltas, results


def _same_request(request: DesignRequest) -> None:
    document = request_to_dict(request)
    assert _text(document) == _text(oracle.request_to_dict(request))
    parsed = _round_trip(document)
    new, old = request_from_dict(parsed), oracle.request_from_dict(parsed)
    assert _text(oracle.request_to_dict(new)) == _text(oracle.request_to_dict(old))
    assert request_digest(new) == request_digest(old) == request_digest(request)
    assert problem_digest(new.problem) == problem_digest(old.problem)
    assert problem_digest(new.problem) == problem_digest(request.problem)
    for name in ("strategy", "request_id", "options", "parameters", "evaluation"):
        assert getattr(new, name) == getattr(old, name), name


def _same_result(result, problem) -> None:
    document = result_to_dict(result)
    assert _text(document) == _text(oracle.result_to_dict(result))
    parsed = _round_trip(document)
    new, old = result_from_dict(parsed, problem), oracle.result_from_dict(parsed, problem)
    assert _text(oracle.result_to_dict(new)) == _text(oracle.result_to_dict(old))
    assert new.audit == old.audit
    solution = _round_trip(solution_to_dict(result.solution))
    assert _text(solution) == _text(oracle.solution_to_dict(result.solution))
    assert _text(oracle.solution_to_dict(solution_from_dict(solution, problem))) == _text(
        oracle.solution_to_dict(oracle.solution_from_dict(solution, problem))
    )


def _same_problem(problem) -> None:
    document = problem_to_dict(problem)
    assert _text(document) == _text(oracle.problem_to_dict(problem))
    parsed = _round_trip(document)
    new, old = problem_from_dict(parsed), oracle.problem_from_dict(parsed)
    assert _text(oracle.problem_to_dict(new)) == _text(oracle.problem_to_dict(old))
    assert problem_digest(new) == problem_digest(old) == problem_digest(problem)


def test_golden_documents_match_the_oracle(golden):
    assert len(golden) == 3 * (len(designer_names()) + len(EXTRA_STRATEGIES))
    for request, result in golden:
        _same_request(request)
        _same_problem(request.problem)
        _same_result(result, request.problem)
        if result.audit is not None:
            assert _text(audit_to_dict(result.audit)) == _text(oracle.audit_to_dict(result.audit))


def test_churn_session_documents_match_the_oracle(churn_session):
    problem, deltas, results = churn_session
    assert len(deltas) == 50
    for delta in deltas:
        document = delta_to_dict(delta)
        assert _text(document) == _text(oracle.delta_to_dict(delta))
        parsed = _round_trip(document)
        assert delta_from_dict(parsed) == oracle.delta_from_dict(parsed) == delta
    _same_result(results[0], problem)
    for result, new_problem in results[1:]:
        _same_result(result, new_problem)
        _same_problem(new_problem)


def test_self_test_requests_match_the_oracle():
    for request in _self_test_requests():
        _same_request(request)
        spec = request.evaluation
        if spec is not None:
            document = evaluation_spec_to_dict(spec)
            assert _text(document) == _text(oracle.evaluation_spec_to_dict(spec))
            assert evaluation_spec_from_dict(document) == oracle.evaluation_spec_from_dict(document)


def test_optional_evaluation_fields_are_written_only_when_set():
    spec = EvaluationSpec(traces=("diurnal",), max_memory=1 << 20, scenario_files=("a.json",))
    for value in (EvaluationSpec(), spec):
        assert _text(evaluation_spec_to_dict(value)) == _text(
            oracle.evaluation_spec_to_dict(value)
        )


def test_legacy_keys_are_read_and_ignored():
    parameters = parameters_to_dict(DesignParameters(seed=4))
    legacy = {**parameters, "solver_backend": "highs-mip"}
    assert parameters_from_dict(legacy) == oracle.parameters_from_dict(legacy)
    evaluation = {**evaluation_spec_to_dict(EvaluationSpec()), "mode": "streaming"}
    assert evaluation_spec_from_dict(evaluation) == oracle.evaluation_spec_from_dict(evaluation)


def test_an_empty_audit_document_decodes_to_the_defaults():
    assert audit_from_dict({}) == oracle.audit_from_dict({})


@given(specs())
def test_generated_problems_match_the_oracle(spec):
    _same_problem(build(spec))


@given(specs(rich=True))
def test_generated_rich_problems_match_the_oracle(spec):
    problem = build(spec)
    request = DesignRequest(problem=problem, parameters=DesignParameters(seed=1))
    _same_problem(problem)
    _same_request(request)
