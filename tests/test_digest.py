"""Tests for the problem digest (``repro.core.serialization.problem_digest``).

The digest is written in one pass over the problem's tables.  The encoder it
replaced lives on in ``tests/digest_oracle.py``; the differential tests hold
the two to the same hex wherever the old encoder's unrounded decisions agree
with rounded ones, and to the oracle's rounded mode everywhere.
"""

from __future__ import annotations

import copy
import json
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest
from digest_oracle import oracle_problem_digest, rounding_agrees
from hypothesis import given
from hypothesis import strategies as st
from test_golden_designs import WORKLOADS

import repro.core.serialization as serialization
from repro.api import DesignRequest, request_to_dict
from repro.core.algorithm import DesignParameters
from repro.core.problem import OverlayDesignProblem
from repro.core.serialization import problem_digest
from repro.incremental import SinkChurnConfig, churn_stream
from repro.serve import ArtifactCache, DesignService, DesignSession, run_request_cached
from repro.workloads import (
    AkamaiLikeConfig,
    AsGeoConfig,
    FlashCrowdConfig,
    InternetScaleConfig,
    RandomInstanceConfig,
    build_tiny_problem,
    generate_akamai_like_topology,
    generate_as_geo_problem,
    generate_flash_crowd_scenario,
    generate_internet_scale_problem,
    random_problem,
    small_example_problem,
)

# ---------------------------------------------------------------------------
# Problems as plain specs, so one spec can be built in any order
# ---------------------------------------------------------------------------
#
# A spec holds one list per add_* method, each entry the method's arguments:
#   streams      (name, bandwidth)
#   reflectors   (name, cost, fanout, color, capacity)
#   sinks        (name,)
#   stream_edges (stream, reflector, loss, cost)
#   links        (reflector, sink, loss, cost, stream_costs, capacity)
#   demands      (sink, stream, threshold)

TABLES = ("streams", "reflectors", "sinks", "stream_edges", "links", "demands")


def add_calls(spec: dict) -> list[tuple[str, tuple]]:
    """The add_* calls that build ``spec``, in dependency order."""
    methods = {
        "streams": "add_stream",
        "reflectors": "add_reflector",
        "sinks": "add_sink",
        "stream_edges": "add_stream_edge",
        "links": "add_delivery_edge",
        "demands": "add_demand",
    }
    return [(methods[table], args) for table in TABLES for args in spec[table]]


def build(spec: dict, name: str = "spec") -> OverlayDesignProblem:
    problem = OverlayDesignProblem(name=name)
    for method, args in add_calls(spec):
        getattr(problem, method)(*args)
    return problem


NAME = st.text(alphabet='ab"\\é€ж\n', min_size=1, max_size=3)


def decimals(low: int, high: int) -> st.SearchStrategy[float]:
    """Floats with at most 6 decimals in [low, high] millionths."""
    return st.integers(low, high).map(lambda millionths: millionths / 10**6)


@st.composite
def specs(draw, rich: bool = False) -> dict:
    """A small problem spec.

    ``rich`` draws arbitrary finite floats (``add_*`` refuses infinite and
    NaN costs); otherwise every float has at most 6 decimals.
    """
    if rich:
        unit = st.floats(0.0, 1.0)
        cost = st.floats(0.0, 1e3)
        positive = st.floats(0.5, 1e3)
        threshold = st.floats(1e-6, 1 - 1e-6)
    else:
        unit = decimals(0, 10**6)
        cost = decimals(0, 10**8)
        positive = decimals(1, 10**8)
        threshold = decimals(1, 10**6 - 1)
    streams = draw(st.lists(NAME, min_size=1, max_size=3, unique=True))
    reflectors = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    sinks = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    spec: dict = {table: [] for table in TABLES}
    spec["streams"] = [(s, draw(positive)) for s in streams]
    spec["reflectors"] = [
        (
            r,
            draw(cost),
            draw(st.integers(1, 5)),
            draw(st.one_of(st.none(), NAME, st.integers(-3, 3))),
            draw(st.one_of(st.none(), st.integers(1, 5), positive)),
        )
        for r in reflectors
    ]
    spec["sinks"] = [(k,) for k in sinks]
    for s in streams:
        for r in reflectors:
            if draw(st.booleans()):
                spec["stream_edges"].append((s, r, draw(unit), draw(cost)))
    for r in reflectors:
        for k in sinks:
            if draw(st.booleans()):
                overrides = {s: draw(cost) for s in streams if draw(st.booleans())}
                capacity = draw(st.one_of(st.none(), positive))
                spec["links"].append((r, k, draw(unit), draw(cost), overrides or None, capacity))
    for k in sinks:
        for s in streams:
            if draw(st.booleans()):
                spec["demands"].append((k, s, draw(threshold)))
    return spec


# ---------------------------------------------------------------------------
# Differential: the one-pass encoder against the encoder it replaced
# ---------------------------------------------------------------------------


def _internet_scale(sinks: int, seed: int = 0) -> OverlayDesignProblem:
    config = InternetScaleConfig(num_sinks=sinks)
    return generate_internet_scale_problem(config, rng=seed)[0]


def _as_geo(sinks: int) -> OverlayDesignProblem:
    return generate_as_geo_problem(AsGeoConfig(num_sinks=sinks), rng=0)[0]


def _akamai(seed: int) -> OverlayDesignProblem:
    return generate_akamai_like_topology(AkamaiLikeConfig(), rng=seed)[0].to_problem()


def _random(seed: int) -> OverlayDesignProblem:
    return random_problem(RandomInstanceConfig(), rng=seed)


def _flash_crowd() -> OverlayDesignProblem:
    return generate_flash_crowd_scenario(FlashCrowdConfig(), rng=0)[0].to_problem()


INSTANCES = {
    **{f"internet_scale-{sinks}": partial(_internet_scale, sinks) for sinks in (150, 1000)},
    **{f"as_geo-{sinks}": partial(_as_geo, sinks) for sinks in (300, 600)},
    **{f"akamai-{seed}": partial(_akamai, seed) for seed in range(4)},
    **{f"random-{seed}": partial(_random, seed) for seed in range(4)},
    "flash_crowd": _flash_crowd,
    "tiny": build_tiny_problem,
    "small": small_example_problem,
    **{f"golden-{name}": make for name, make in WORKLOADS.items()},
}


@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_digest_matches_the_oracle_on_shipped_instances(instance):
    problem = INSTANCES[instance]()
    assert rounding_agrees(problem)
    assert problem_digest(problem) == oracle_problem_digest(problem)


def test_a_generated_rounding_tie_changes_only_the_order():
    # Here two of the 10,000 link costs round to the same 9-place value; the
    # old encoder ordered that pair by digits the digest then dropped.  (At
    # 10,000 sinks every seed checked has such pairs.)
    problem = _internet_scale(2000, seed=7)
    assert problem_digest(problem) == oracle_problem_digest(problem, rounded=True)
    assert problem_digest(problem) != oracle_problem_digest(problem)


@given(specs(rich=True))
def test_digest_matches_the_oracle_on_generated_problems(spec):
    problem = build(spec)
    assert problem_digest(problem) == oracle_problem_digest(problem, rounded=True)
    if rounding_agrees(problem):
        assert problem_digest(problem) == oracle_problem_digest(problem)


# ---------------------------------------------------------------------------
# Float noise: the 0.1 + 0.2 regression
# ---------------------------------------------------------------------------


def _two_link_problem(first_cost: float) -> OverlayDesignProblem:
    problem = OverlayDesignProblem()
    problem.add_stream("s")
    problem.add_reflector("r", cost=1.0, fanout=2)
    for sink in ("a", "b"):
        problem.add_sink(sink)
        problem.add_demand(sink, "s", success_threshold=0.9)
    problem.add_stream_edge("s", "r", loss_probability=0.01, cost=1.0)
    problem.add_delivery_edge("r", "a", loss_probability=0.1, cost=first_cost)
    problem.add_delivery_edge("r", "b", loss_probability=0.2, cost=0.3)
    return problem


def test_costs_that_round_alike_digest_alike():
    # 0.1 + 0.2 == 0.30000000000000004 rounds to 0.3.  Sorted by unrounded
    # text, that link moved behind the 0.3 link, so the old encoder gave the
    # two problems different digests.
    noisy, exact = _two_link_problem(0.1 + 0.2), _two_link_problem(0.3)
    assert problem_digest(noisy) == problem_digest(exact)
    assert oracle_problem_digest(noisy) != oracle_problem_digest(exact)


def test_a_value_crossing_a_rounding_boundary_changes_the_digest():
    below, above = _two_link_problem(0.1234567884999), _two_link_problem(0.1234567885001)
    assert problem_digest(below) != problem_digest(above)


# ---------------------------------------------------------------------------
# Properties of the digest contract
# ---------------------------------------------------------------------------


def _shuffled(spec: dict, rng: random.Random) -> dict:
    """``spec`` with every table, the streams included, in a new order."""
    return {table: rng.sample(spec[table], len(spec[table])) for table in TABLES}


def _nudge(value: float, step: float) -> float:
    """Move ``value`` by ``step`` towards 0.5, so probabilities stay valid."""
    return value + step if value < 0.5 else value - step


def _float_slots(spec: dict) -> list[tuple]:
    """Every float of a spec as ``(table, row, column, key)``."""
    slots = []
    for table in TABLES:
        for row, entry in enumerate(spec[table]):
            for column, value in enumerate(entry):
                if isinstance(value, float):
                    slots.append((table, row, column, None))
                elif isinstance(value, dict):
                    slots.extend((table, row, column, key) for key in value)
    return slots


def _unused(spec: dict, slot: tuple) -> bool:
    """A link's base cost is unused when every stream overrides it."""
    table, row, column, key = slot
    if (table, column, key) != ("links", 3, None):
        return False
    overrides = spec["links"][row][4] or {}
    return all(stream in overrides for stream, _bandwidth in spec["streams"])


def _with_value(spec: dict, slot: tuple, move) -> dict:
    table, row, column, key = slot
    entry = list(spec[table][row])
    if key is None:
        entry[column] = move(entry[column])
    else:
        entry[column] = {**entry[column], key: move(entry[column][key])}
    rows = list(spec[table])
    rows[row] = tuple(entry)
    return {**spec, table: rows}


@given(specs(), st.randoms(use_true_random=False))
def test_digest_ignores_order_name_and_noise_below_rounding(spec, rng):
    digest = problem_digest(build(spec))
    assert problem_digest(build(_shuffled(spec, rng), name="other")) == digest
    noisy = spec
    for slot in _float_slots(spec):
        noise = rng.uniform(0.0, 1e-12)
        noisy = _with_value(noisy, slot, lambda value: _nudge(value, noise))
    assert problem_digest(build(noisy)) == digest


@given(specs(), st.data())
def test_digest_changes_when_one_value_moves(spec, data):
    slots = [slot for slot in _float_slots(spec) if not _unused(spec, slot)]
    fanouts = [("reflectors", row, 2, None) for row in range(len(spec["reflectors"]))]
    slot = data.draw(st.sampled_from(slots + fanouts))
    if slot in fanouts:
        moved = _with_value(spec, slot, lambda fanout: fanout + 1)
    else:
        step = data.draw(st.integers(1, 1000)) * 1e-6
        moved = _with_value(spec, slot, lambda value: _nudge(value, step))
    assert problem_digest(build(moved)) != problem_digest(build(spec))


@given(specs(rich=True))
def test_memo_is_cleared_by_every_add_method(spec):
    calls = add_calls(spec)
    problem = OverlayDesignProblem()
    for count, (method, args) in enumerate(calls, start=1):
        getattr(problem, method)(*args)
        fresh = OverlayDesignProblem()
        for fresh_method, fresh_args in calls[:count]:
            getattr(fresh, fresh_method)(*fresh_args)
        assert problem_digest(problem) == problem_digest(fresh)


def test_stream_order_is_ignored_with_per_stream_costs():
    # A link's costs are written relative to the smallest stream name, not
    # to the first stream added.
    def build_with(streams):
        problem = OverlayDesignProblem()
        for stream in streams:
            problem.add_stream(stream)
        problem.add_reflector("r", cost=1.0, fanout=2)
        problem.add_sink("a")
        problem.add_delivery_edge("r", "a", 0.1, 1.0, stream_costs={"y": 2.0})
        return problem

    assert problem_digest(build_with(["x", "y"])) == problem_digest(build_with(["y", "x"]))


def test_pickles_and_copies_leave_the_memo_out():
    problem = build_tiny_problem()
    digest = problem_digest(problem)
    for other in (pickle.loads(pickle.dumps(problem)), copy.deepcopy(problem), copy.copy(problem)):
        assert other._digest is None
        assert problem_digest(other) == digest


def test_threads_digesting_one_problem_agree():
    problem = INSTANCES["as_geo-300"]()
    expected = oracle_problem_digest(problem)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(problem_digest, problem) for _ in range(32)]
            digests = {future.result(timeout=60) for future in futures}
    finally:
        sys.setswitchinterval(interval)
    assert digests == {expected}
    assert problem_digest(problem) == expected


# ---------------------------------------------------------------------------
# One digest per problem object on the serving paths
# ---------------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Problems whose digest was computed (not read from the memo), in order."""
    digested: list[OverlayDesignProblem] = []
    compute = serialization._problem_digest

    def counting(problem):
        digested.append(problem)
        return compute(problem)

    monkeypatch.setattr(serialization, "_problem_digest", counting)
    return digested


def _full_size(digested, problem) -> int:
    return sum(p.num_demands == problem.num_demands for p in digested)


def _serving_problem() -> OverlayDesignProblem:
    return random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=10, num_sinks=20), rng=42
    )


SHARDED = {"shards": 2, "jobs": 1}


def test_session_digests_its_problem_once_at_setup_and_never_per_event(counted):
    problem = _serving_problem()
    session = DesignSession(
        problem,
        strategy="sharded:spaa03",
        parameters=DesignParameters(seed=3),
        options=SHARDED,
    )
    session.ensure_design()
    assert _full_size(counted, problem) == 1

    # An event applies its delta and designs; nothing digests its problem.
    counted.clear()
    for _event, delta, _problem in churn_stream(
        problem,
        ["sink-churn", "flash-crowd", "sink-churn"],
        seed=1,
        churn_config=SinkChurnConfig(fraction=0.1),
    ):
        session.apply_delta(delta)
    assert len(session.events) == 3 and counted == []
    assert "problem_digest" not in session.result.cache
    assert session.problem._digest is None
    # Asked for, the standing problem's digest is a full pass over its content.
    digest = problem_digest(session.problem)
    assert digest == serialization._problem_digest(copy.deepcopy(session.problem))
    assert digest == oracle_problem_digest(session.problem, rounded=True)


def test_service_digests_each_request_problem_once(counted):
    request = DesignRequest(
        problem=_serving_problem(),
        parameters=DesignParameters(seed=3),
        strategy="sharded:spaa03",
        options=SHARDED,
    )
    document = request_to_dict(request)
    with DesignService(workers=1) as service:
        miss = service.submit(document).result(timeout=120)
        assert _full_size(counted, request.problem) == 1
        counted.clear()
        hit = service.submit(document).result(timeout=120)
        assert _full_size(counted, request.problem) == 1
    assert not miss.cache["served_from_cache"]
    assert hit.cache["served_from_cache"]


def test_cached_run_digests_the_problem_once(counted):
    request = DesignRequest(problem=_serving_problem(), parameters=DesignParameters(seed=3))
    run_request_cached(request, ArtifactCache())
    assert _full_size(counted, request.problem) == 1


# ---------------------------------------------------------------------------
# Float texts: the fixed-point path against the json path it stands in for
# ---------------------------------------------------------------------------


def _json_texts(values: list[float]) -> list[str]:
    return [json.dumps(round(value, 9)) for value in values]


#: Zeros and subnormals (the json path); both ends of the fixed-point range
#: and the floats beside them; values that round across an end; and values
#: halfway between two 9-place decimals, in decimal and exactly in binary.
FLOAT_TEXT_EDGES = [
    0.0,
    5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    5e-05,
    0.0001,
    0.00009999999995,
    math.nextafter(0.0001, 0.0),
    math.nextafter(0.0001, 1.0),
    999999.9999999996,
    math.nextafter(1e6, 0.0),
    1e6,
    1e16,
    0.1234567885,
    0.0009765625,
    1907.3486328125,
    0.5,
    1.0,
    123456.0,
]


def test_float_texts_match_the_json_path_on_edge_values():
    values = FLOAT_TEXT_EDGES + [-value for value in FLOAT_TEXT_EDGES]
    assert serialization._float_texts(values) == _json_texts(values)
    assert serialization._float_texts([-0.0]) == ["-0.0"]


@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(min_value=-2e6, max_value=2e6),
            # Near a tie between two 9-place decimals.
            st.integers(-(10**15), 10**15).map(lambda k: (k + 0.5) / 10**9),
        )
    )
)
def test_float_texts_match_the_json_path(values):
    assert serialization._float_texts(values) == _json_texts(values)
