"""A patched problem's index is derived from its parent's, array for array a fresh one.

``repro.incremental.apply_delta`` leaves an ``IndexOrigin`` on the problem it
makes when the parent's index is built, and ``problem_index`` then derives
the child's index from the parent's (``ProblemIndex.derived``) instead of
building it from the tables.  Over 50-event sink-churn / flash-crowd streams
at 1,000 and 10,000 sinks, and over a delta that touches every table of a
problem with per-stream costs and arc capacities, every derived index must
equal a fresh ``ProblemIndex`` of the same problem: every array (dtype,
shape and bits), every name table and every code map, in order.  A churn
session must never build the full problem's index from scratch, also when
its initial design was served from the cache.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_delta_documents import FUZZ_PROBLEM, _valid_delta

import repro.core.index as index_module
from repro.core.algorithm import DesignParameters
from repro.core.index import ProblemIndex, problem_index
from repro.core.serialization import problem_from_dict, problem_to_dict
from repro.incremental import (
    ProblemDelta,
    SinkChurnConfig,
    apply_delta,
    flash_crowd_delta,
    sample_sink_churn,
)
from repro.serve import ArtifactCache, DesignSession
from repro.workloads import InternetScaleConfig, generate_internet_scale_problem

EVENTS = 50


def assert_same_index(derived: ProblemIndex, fresh: ProblemIndex) -> None:
    """Every table of ``fresh``, held by ``derived`` to the bit and in order."""
    for name, value in vars(fresh).items():
        other = vars(derived)[name]
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and other.shape == value.shape, name
            assert other.tobytes() == value.tobytes(), name
            assert not other.flags.writeable, name
        else:
            assert other == value, name
            if isinstance(value, dict):
                assert list(other) == list(value), name


def _churn(problem, rng, event: int) -> ProblemDelta:
    if event % 2 == 0:
        return sample_sink_churn(problem, SinkChurnConfig(fraction=0.01), rng)
    return flash_crowd_delta(problem, rng, hot_fraction=0.02)


@pytest.mark.parametrize("sinks", [1000, 10000])
def test_a_churn_streams_indexes_are_derived_and_equal_fresh_ones(sinks):
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=sinks), rng=2
    )
    problem_index(problem)
    rng = np.random.default_rng(7)
    for event in range(EVENTS):
        child = apply_delta(problem, _churn(problem, rng, event))
        assert child._index_origin is not None
        derived = problem_index(child)
        assert child._index_origin is None
        assert derived.codes_in(problem_index(problem)) is derived._parent_demand
        assert_same_index(derived, ProblemIndex(child))
        problem = child


def test_a_delta_touching_every_table_derives_the_fresh_index():
    """Stream edges, per-stream costs and arc capacities change too."""
    problem_index(FUZZ_PROBLEM)
    child = apply_delta(FUZZ_PROBLEM, ProblemDelta(**_valid_delta()))
    assert child._index_origin.stream_edges
    assert_same_index(problem_index(child), ProblemIndex(child))
    # A canonical parent: the derivation shares its untouched tables.
    again = apply_delta(child, ProblemDelta(demands_changed={("d2", "s"): (0.95, 0.9)}))
    derived = problem_index(again)
    assert_same_index(derived, ProblemIndex(again))
    assert derived.stream_edge is problem_index(child).stream_edge


def test_an_unbuilt_parent_leaves_no_origin():
    problem, _registry = generate_internet_scale_problem(InternetScaleConfig(num_sinks=60), rng=3)
    child = apply_delta(problem, flash_crowd_delta(problem, np.random.default_rng(1)))
    assert child._index_origin is None


@pytest.mark.parametrize("served", [False, True], ids=["computed", "served"])
def test_no_session_event_builds_the_full_problems_index_from_scratch(monkeypatch, served):
    problem, _registry = generate_internet_scale_problem(
        InternetScaleConfig(num_sinks=1000), rng=4
    )
    parameters, cache = DesignParameters(seed=5), ArtifactCache()
    session = DesignSession(problem, parameters=parameters, options={"jobs": 1}, cache=cache)
    session.ensure_design()
    if served:
        # A served initial design leaves its freshly parsed problem unindexed.
        copy = problem_from_dict(problem_to_dict(problem))
        session = DesignSession(copy, parameters=parameters, options={"jobs": 1}, cache=cache)
        assert session.ensure_design().cache["served_from_cache"]
    built: list[int] = []
    fresh = index_module.ProblemIndex.__init__

    def counted(self, problem):
        built.append(id(problem))
        fresh(self, problem)

    monkeypatch.setattr(index_module.ProblemIndex, "__init__", counted)
    rng = np.random.default_rng(9)
    for event in range(12):
        session.apply_delta(_churn(session.problem, rng, event))
        assert id(session.problem) not in built
        assert session.problem._index is not None
    # The shard subproblems still build their own (small) indexes.
    assert built
