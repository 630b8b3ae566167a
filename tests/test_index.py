"""The problem index (``repro.core.index``) against the scalar accessors.

Every number the index holds must be the scalar path's number bit for bit:
candidate lists, capped edge weights, delivery costs and demand weights, and
the per-demand sums the index returns.  A Hypothesis
property draws problems with the edge cases of the weight transform --
zero-loss hops (the weight is the cap), loss-1 hops (the weight is -0.0 or
one ulp from it), thresholds at both ends of (0, 1) -- plus per-stream cost
overrides, colours, arc capacities and demands with more than eight
assignments, where a pairwise sum would regroup the terms.  The memo tests
pin when the index is built, cleared and shared.
"""

from __future__ import annotations

import copy
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import index_oracle as oracle
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.audit import audit_solution
from repro.api.types import audit_to_dict
from repro.core.algorithm import repair_weight_shortfalls
import repro.core.index as index_module
from repro.core.index import ProblemIndex, builtin_sums, problem_index
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.workloads import AsGeoConfig, generate_as_geo_problem

#: Losses at the edges of the weight transform, mixed into uniform draws.
EDGE_LOSSES = [0.0, 1e-21, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]
#: Thresholds at both ends of (0, 1): 1e-17 rounds 1 - Phi to 1.0 (W = -0.0).
EDGE_THRESHOLDS = [1e-17, 1e-9, 0.5, 0.999999, 1.0 - 1e-12, 1.0 - 2.0**-53]


def bits(value: float) -> str:
    return float(value).hex()


@st.composite
def problems(draw) -> tuple[OverlayDesignProblem, dict[tuple[str, str], list[str]]]:
    """A problem plus, per demand, an assignment list (a shuffled candidate subset)."""
    loss = st.one_of(st.sampled_from(EDGE_LOSSES), st.floats(0.0, 1.0))
    threshold = st.one_of(st.sampled_from(EDGE_THRESHOLDS), st.floats(1e-9, 1.0 - 1e-9))
    cost = st.floats(0.0, 100.0)
    streams = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    reflectors = [f"r{i}" for i in range(draw(st.integers(1, 14)))]
    sinks = [f"k{i}" for i in range(draw(st.integers(1, 3)))]
    problem = OverlayDesignProblem("property")
    for stream in streams:
        problem.add_stream(stream)
    # Register reflectors out of name order, so codes and names disagree.
    for reflector in draw(st.permutations(reflectors)):
        problem.add_reflector(
            reflector,
            cost=draw(cost),
            fanout=draw(st.integers(1, 6)),
            color=draw(st.sampled_from([None, "a", "b", 1])),
        )
    for sink in sinks:
        problem.add_sink(sink)
    for stream in streams:
        for reflector in reflectors:
            if draw(st.integers(0, 9)) < 8:
                problem.add_stream_edge(stream, reflector, draw(loss), draw(cost))
    for reflector in draw(st.permutations(reflectors)):
        for sink in sinks:
            if draw(st.integers(0, 9)) < 8:
                overrides = {s: draw(cost) for s in streams if draw(st.booleans())}
                problem.add_delivery_edge(
                    reflector,
                    sink,
                    draw(loss),
                    draw(cost),
                    stream_costs=overrides or None,
                    capacity=draw(st.one_of(st.none(), st.floats(0.5, 4.0))),
                )
    for sink in sinks:
        for stream in streams:
            if draw(st.booleans()):
                problem.add_demand(sink, stream, draw(threshold))
    assignments = {}
    for demand in problem.demands:
        candidates = problem.candidate_reflectors(demand)
        chosen = draw(st.lists(st.sampled_from(candidates), unique=True)) if candidates else []
        if chosen:
            assignments[demand.key] = chosen
    return problem, assignments


@given(problems())
def test_index_matches_the_scalar_accessors_bit_for_bit(drawn):
    problem, assignments = drawn
    index = problem_index(problem)
    assert index.keys == [demand.key for demand in problem.demands]
    assert index.demands == problem.demands
    for code, demand in enumerate(problem.demands):
        candidates = problem.candidate_reflectors(demand)
        assert index.candidates(code) == candidates
        assert bits(index.demand_weight[code]) == bits(problem.demand_weight(demand))
        start = int(index.candidate_ptr[code])
        for position, reflector in enumerate(candidates, start):
            assert index.position(code, reflector) == position
            assert bits(index.candidate_weight[position]) == bits(
                problem.edge_weight(demand, reflector)
            )
            assert bits(index.candidate_cost[position]) == bits(
                problem.assignment_cost(demand, reflector)
            )


@given(problems())
def test_index_backed_sums_equal_the_builtin_sum(drawn):
    problem, assignments = drawn
    index = problem_index(problem)
    solution = OverlaySolution(problem, assignments=assignments)
    lists = [assignments.get(key, []) for key in index.keys]
    delivered = index.delivered(index.keys, lists)
    for code, demand in enumerate(problem.demands):
        expected = oracle.delivered_weight(solution, demand)
        assert bits(solution.delivered_weight(demand)) == bits(expected)
        assert bits(delivered[code]) == bits(expected)
        assert bits(solution.weight_satisfaction(demand)) == bits(
            oracle.weight_satisfaction(solution, demand)
        )
    for reflector in problem.reflectors:
        assert solution.fanout_used(reflector) == oracle.fanout_used(solution, reflector)
    assert bits(solution.max_fanout_factor()) == bits(oracle.max_fanout_factor(solution))
    assert audit_to_dict(audit_solution(problem, solution)) == audit_to_dict(
        oracle.audit_solution(problem, solution)
    )
    assert repr(problem.feasibility_report()) == repr(oracle.feasibility_report(problem))
    if not oracle.repair_decision_ties(problem, solution):
        assert (
            repair_weight_shortfalls(problem, solution).assignments
            == oracle.repair_weight_shortfalls(problem, solution).assignments
        )


def _long_demand_problem(losses: list[float]) -> OverlayDesignProblem:
    """One demand whose candidates carry weights -log(loss), uncapped."""
    problem = OverlayDesignProblem("long")
    problem.add_stream("s")
    problem.add_sink("k")
    for i, loss in enumerate(losses):
        problem.add_reflector(f"r{i:02d}", cost=1.0, fanout=4)
        problem.add_stream_edge("s", f"r{i:02d}", 0.0, 1.0)
        problem.add_delivery_edge(f"r{i:02d}", "k", loss, 0.5)
    problem.add_demand("k", "s", 1.0 - 1e-9)
    return problem


#: Twelve losses whose weights sum differently pairwise (``np.add.reduce``)
#: and one by one; 0.662 and 0.806 are values where numpy's vectorised log
#: and libm's disagree in the last bit on an AVX-512 host.
LONG_LOSSES = [0.61, 0.39, 0.99, 0.97, 0.662, 0.65, 0.68, 0.39, 0.14, 0.806, 0.52, 0.31]


def test_long_assignment_lists_sum_in_list_order():
    problem = _long_demand_problem(LONG_LOSSES)
    (demand,) = problem.demands
    reflectors = problem.candidate_reflectors(demand)
    weights = [problem.edge_weight(demand, reflector) for reflector in reflectors]
    index = problem_index(problem)
    assert index.candidate_weight.tolist() == weights
    assert bits(index.delivered([demand.key], [reflectors])[0]) == bits(sum(weights))
    solution = OverlaySolution(problem, assignments={demand.key: reflectors})
    assert bits(solution.delivered_weight(demand)) == bits(sum(weights))
    assert audit_solution(problem, solution).weight_fraction[demand.key] == (
        sum(weights) / problem.demand_weight(demand)
    )


@pytest.mark.parametrize("sequential", [True, False])
def test_builtin_sums_follow_the_builtin_sum(monkeypatch, sequential):
    # Both branches must give the builtin's sums on the running Python.
    sequential = sequential and sys.version_info < (3, 12)
    monkeypatch.setattr(index_module, "_SUM_IS_SEQUENTIAL", sequential)
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 1, 400) ** 7
    segment = rng.integers(0, 20, 400)
    sums = builtin_sums(segment, values, 21)
    for row in range(21):
        assert bits(sums[row]) == bits(sum(values[segment == row].tolist()))


def test_missing_candidates_raise_the_scalar_paths_errors():
    problem = _long_demand_problem([0.1, 0.2])
    problem.add_reflector("lonely", cost=1.0, fanout=1)
    problem.add_stream_edge("s", "lonely", 0.1, 1.0)
    (demand,) = problem.demands
    for reflector in ("lonely", "unknown"):
        with pytest.raises(KeyError) as scalar:
            problem.edge_weight(demand, reflector)
        solution = OverlaySolution(problem, assignments={demand.key: ["r00", reflector]})
        for call in (
            lambda: solution.delivered_weight(demand),
            lambda: audit_solution(problem, solution),
            lambda: repair_weight_shortfalls(problem, solution),
        ):
            with pytest.raises(KeyError) as indexed:
                call()
            assert indexed.value.args == scalar.value.args


# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------


def test_the_index_is_memoised_and_every_add_clears_it():
    problem = _long_demand_problem([0.1, 0.2])
    index = problem_index(problem)
    assert problem_index(problem) is index
    for method, args in [
        ("add_stream", ("s2",)),
        ("add_reflector", ("r9", 1.0, 2)),
        ("add_sink", ("k2",)),
        ("add_stream_edge", ("s2", "r9", 0.1, 1.0)),
        ("add_delivery_edge", ("r9", "k2", 0.1, 1.0)),
        ("add_demand", ("k2", "s2", 0.9)),
    ]:
        assert problem_index(problem) is not None
        getattr(problem, method)(*args)
        assert problem._index is None, method
    assert problem_index(problem).candidates(1) == ["r9"]


def test_pickles_and_copies_leave_the_index_out():
    problem = _long_demand_problem([0.1, 0.2])
    problem_index(problem)
    for clone in (pickle.loads(pickle.dumps(problem)), copy.copy(problem), copy.deepcopy(problem)):
        assert clone._index is None
        assert problem_index(clone).candidate_weight.tolist() == (
            problem_index(problem).candidate_weight.tolist()
        )
    assert b"candidate_weight" not in pickle.dumps(problem)


def test_the_scalar_accessors_never_build_the_index():
    problem = _long_demand_problem([0.1, 0.2])
    (demand,) = problem.demands
    problem.candidate_reflectors(demand)
    problem.edge_weight(demand, "r00")
    problem.demand_weight(demand)
    problem.path_failure(demand, "r01")
    problem.assignment_cost(demand, "r01")
    assert problem._index is None


def test_index_arrays_are_read_only():
    index = problem_index(_long_demand_problem([0.1, 0.2]))
    with pytest.raises(ValueError):
        index.candidate_weight[0] = 1.0


def test_threads_indexing_one_problem_agree():
    problem, _registry = generate_as_geo_problem(AsGeoConfig(num_sinks=300), rng=0)
    expected = ProblemIndex(problem)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(problem_index, problem) for _ in range(32)]
            indexes = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for index in [*indexes, problem_index(problem)]:
        for name, value in vars(expected).items():
            if isinstance(value, np.ndarray):
                nan = value.dtype.kind == "f"
                assert np.array_equal(getattr(index, name), value, equal_nan=nan), name
        assert index.keys == expected.keys
    assert problem_index(problem) in indexes


def test_index_size_is_reported():
    problem, _registry = generate_as_geo_problem(AsGeoConfig(num_sinks=300), rng=0)
    index = problem_index(problem)
    candidates = index.candidate_reflector.size
    assert candidates == sum(len(problem.candidate_reflectors(demand)) for demand in problem.demands)
    assert 0 < index.nbytes < 100 * (candidates + index.num_demands) + 10**5
