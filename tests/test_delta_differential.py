"""``apply_delta`` against the rebuild it replaced (``tests/delta_oracle.py``).

``apply_delta`` copies the parent problem's tables and patches only the
entries a delta names; the oracle re-adds every entry through the ``add_*``
methods in sorted order.  For every valid delta below the two must leave
every table in the same insertion order -- ``_sink_reflectors`` is compared
by content, since only its key order may differ -- and the child must digest
as the oracle's problem does and as ``tests/digest_oracle.py`` does.  Each
delta is applied to a generator-ordered parent and to a canonical one
(itself an ``apply_delta`` result).
"""

from __future__ import annotations

import copy
import gc
import weakref
from functools import partial

import numpy as np
import pytest
from delta_oracle import oracle_apply_delta
from digest_oracle import oracle_problem_digest
from hypothesis import given
from hypothesis import strategies as st
from test_digest import NAME, build, decimals, specs

import repro.core.serialization as serialization
from repro.core.problem import OverlayDesignProblem
from repro.core.serialization import problem_digest, problem_from_dict, problem_to_dict
from repro.incremental import (
    DeliveryEdgeSpec,
    ProblemDelta,
    SinkAttachment,
    SinkChurnConfig,
    apply_delta,
    diff_problems,
    flash_crowd_delta,
    invert_delta,
    outage_delta,
    sample_sink_churn,
    sink_attachment,
)
from repro.workloads import (
    FlashCrowdConfig,
    InternetScaleConfig,
    RandomInstanceConfig,
    generate_flash_crowd_scenario,
    generate_internet_scale_problem,
    random_problem,
)


def tables(problem: OverlayDesignProblem) -> dict:
    """Every table of ``problem`` in insertion order (``_sink_reflectors`` by content)."""
    return {
        "name": problem.name,
        "streams": problem._streams,
        "stream_set": problem._stream_set,
        "bandwidth": list(problem._stream_bandwidth.items()),
        "reflectors": [(name, vars(info)) for name, info in problem._reflectors.items()],
        "reflector_order": list(problem._reflector_order.items()),
        "sinks": problem._sinks,
        "sink_set": problem._sink_set,
        "stream_edges": list(problem._stream_edges.items()),
        "links": list(problem._delivery_links.items()),
        "sink_reflectors": problem._sink_reflectors,
        "stream_costs": [
            (key, list(costs.items())) for key, costs in problem._delivery_stream_costs.items()
        ],
        "capacities": list(problem._arc_capacity.items()),
        "demands": list(problem._demands.items()),
    }


def assert_unshared(parent: OverlayDesignProblem, child: OverlayDesignProblem) -> None:
    """No table and no mutable entry of ``child`` is one of ``parent``'s."""
    for table in vars(child):
        if table.startswith("_") and isinstance(getattr(child, table), (list, dict, set)):
            assert getattr(child, table) is not getattr(parent, table, None), table
    for name, info in child._reflectors.items():
        assert info is not parent._reflectors.get(name)
    for key, costs in child._delivery_stream_costs.items():
        assert costs is not parent._delivery_stream_costs.get(key)
    for sink, reflectors in child._sink_reflectors.items():
        assert reflectors is not parent._sink_reflectors.get(sink)


def check(parent: OverlayDesignProblem, delta: ProblemDelta) -> OverlayDesignProblem:
    """Apply ``delta`` both ways; the tables and digests must agree."""
    expected = oracle_apply_delta(parent, delta)
    problem_digest(parent)
    child = apply_delta(parent, delta)
    assert tables(child) == tables(expected)
    assert_unshared(parent, child)
    digest = problem_digest(child)
    assert digest == serialization._problem_digest(expected)
    assert digest == oracle_problem_digest(expected, rounded=True)
    return child


# ---------------------------------------------------------------------------
# The churn adapters on shipped generators
# ---------------------------------------------------------------------------


def _internet_scale(sinks: int) -> OverlayDesignProblem:
    return generate_internet_scale_problem(InternetScaleConfig(num_sinks=sinks), rng=0)[0]


def _flash_crowd() -> OverlayDesignProblem:
    # Per-stream cost overrides on 249 links, and the event stream is added
    # after stream0-stream2, so the streams are not in name order.
    problem = generate_flash_crowd_scenario(FlashCrowdConfig(), rng=0)[0].to_problem()
    assert problem.delivery_stream_cost_overrides()
    assert problem.streams != sorted(problem.streams)
    return problem


def _random_with_capacities() -> OverlayDesignProblem:
    config = RandomInstanceConfig(num_streams=3, num_sinks=40, demands_per_sink=2, num_colors=3)
    document = problem_to_dict(random_problem(config, rng=3))
    rng = np.random.default_rng(3)
    for edge in document["delivery_edges"]:
        if rng.random() < 0.5:
            edge["capacity"] = float(rng.integers(1, 4))
    return problem_from_dict(document)


INSTANCES = {
    "internet_scale-300": partial(_internet_scale, 300),
    "internet_scale-1000": partial(_internet_scale, 1000),
    "flash_crowd": _flash_crowd,
    "random-capacities": _random_with_capacities,
}

ADAPTERS = {
    "sink-churn": lambda problem, seed: sample_sink_churn(
        problem, SinkChurnConfig(fraction=0.05), seed
    ),
    "flash-crowd": flash_crowd_delta,
    "regional-outage": partial(outage_delta, kind="regional"),
    "isp-outage": partial(outage_delta, kind="isp"),
}


@pytest.fixture(scope="module")
def parents():
    """Each instance as generated and as a canonical ``apply_delta`` copy."""
    made = {}
    for name, make in INSTANCES.items():
        generated = make()
        made[name, "generated"] = generated
        made[name, "canonical"] = apply_delta(generated, ProblemDelta())
    return made


@pytest.mark.parametrize("order", ["generated", "canonical"])
@pytest.mark.parametrize("adapter", sorted(ADAPTERS))
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_adapter_deltas_match_the_rebuild(instance, adapter, order, parents):
    parent = parents[instance, order]
    delta = ADAPTERS[adapter](parent, 7)
    assert not delta.is_empty
    child = check(parent, delta)
    # And back: the inverse patches the canonical child.
    assert problem_digest(check(child, invert_delta(delta))) == problem_digest(parent)


def _grouped_attachments(problem: OverlayDesignProblem) -> dict[str, SinkAttachment]:
    """Every sink's attachment from one grouping pass over the whole tables."""
    overrides, capacities = problem.delivery_stream_cost_overrides(), problem.arc_capacities()
    delivery: dict[str, list] = {}
    for reflector, sink, loss, cost in problem.delivery_link_data():
        key = (reflector, sink)
        costs = tuple(sorted((overrides.get(key) or {}).items()))
        spec = DeliveryEdgeSpec(loss, cost, costs, capacities.get(key))
        delivery.setdefault(sink, []).append((reflector, spec))
    demands: dict[str, list] = {}
    for demand in problem.demands:
        demands.setdefault(demand.sink, []).append((demand.stream, demand.success_threshold))
    return {
        sink: SinkAttachment(
            tuple(sorted(delivery.get(sink, ()))), tuple(sorted(demands.get(sink, ())))
        )
        for sink in problem.sinks
    }


@pytest.mark.parametrize("order", ["generated", "canonical"])
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_sink_attachment_equals_a_grouping_of_the_whole_tables(instance, order, parents):
    problem = parents[instance, order]
    attachments = {sink: sink_attachment(problem, sink) for sink in problem.sinks}
    assert attachments == _grouped_attachments(problem)


def test_the_canonical_parents_are_the_rebuild(parents):
    for name in INSTANCES:
        generated, canonical = parents[name, "generated"], parents[name, "canonical"]
        assert canonical._canonical and not generated._canonical
        assert tables(canonical) == tables(oracle_apply_delta(generated, ProblemDelta()))


def test_a_chain_of_children_digests_as_its_deep_copy():
    problem = _internet_scale(300)
    problem_digest(problem)
    current = problem
    for step in range(4):
        current = apply_delta(current, ADAPTERS["sink-churn"](current, step))
    digest = problem_digest(current)
    assert digest == serialization._problem_digest(copy.deepcopy(current))
    assert digest == oracle_problem_digest(current, rounded=True)


def test_an_add_call_drops_a_childs_digest_and_canonical_flag():
    parent = _internet_scale(300)
    child = apply_delta(parent, ADAPTERS["sink-churn"](parent, 2))
    before = problem_digest(child)
    child.add_sink("late-joiner")
    assert child._digest is None and not child._canonical
    assert problem_digest(child) == oracle_problem_digest(child, rounded=True) != before


def test_no_child_keeps_its_parent_alive():
    parent = _internet_scale(300)
    problem_digest(parent)
    child = apply_delta(parent, ADAPTERS["sink-churn"](parent, 3))
    alive = weakref.ref(parent)
    del parent
    gc.collect()
    assert alive() is None
    assert problem_digest(child) == oracle_problem_digest(child, rounded=True)


# ---------------------------------------------------------------------------
# Hypothesis: any valid delta between two generated problems
# ---------------------------------------------------------------------------


@st.composite
def spec_pairs(draw) -> tuple[dict, dict]:
    """A spec and a churned copy: same streams and reflectors, the rest redrawn."""
    spec = draw(specs())
    streams = [stream for stream, _bandwidth in spec["streams"]]
    reflectors = [reflector[0] for reflector in spec["reflectors"]]
    unit, cost, threshold = decimals(0, 10**6), decimals(0, 10**8), decimals(1, 10**6 - 1)
    capacity = st.none() | decimals(1, 10**8)
    sinks = [sink for (sink,) in spec["sinks"] if draw(st.booleans())]
    sinks += [s for s in draw(st.lists(NAME, max_size=2, unique=True)) if s not in sinks]

    def churned(rows, key_size, fresh_value, universe):
        """Each row kept, moved or dropped, and new rows from ``universe``."""
        kept = {}
        for row in rows:
            key = row[:key_size]
            if all(name in names for name, names in zip(key, universe)):
                action = draw(st.sampled_from(["keep", "move", "drop"]))
                if action == "keep":
                    kept[key] = row
                elif action == "move":
                    kept[key] = key + draw(fresh_value)
        for key in draw(st.lists(st.tuples(*map(st.sampled_from, universe)), max_size=3)):
            kept.setdefault(key, key + draw(fresh_value))
        return list(kept.values())

    edge_value = st.tuples(unit, cost)
    overrides = st.dictionaries(st.sampled_from(streams), cost, max_size=2).map(lambda d: d or None)
    link_value = st.tuples(unit, cost, overrides, capacity)
    other = dict(spec, sinks=[(sink,) for sink in sinks])
    other["stream_edges"] = churned(spec["stream_edges"], 2, edge_value, (streams, reflectors))
    if sinks:
        other["links"] = churned(spec["links"], 2, link_value, (reflectors, sinks))
        other["demands"] = churned(
            spec["demands"], 2, st.tuples(threshold), (sinks, streams)
        )
    else:
        other["links"] = other["demands"] = []
    return spec, other


@given(spec_pairs(), st.booleans())
def test_any_valid_delta_matches_the_rebuild(pair, canonical):
    spec, other = pair
    parent, target = build(spec), build(other)
    if canonical:
        parent = apply_delta(parent, ProblemDelta())
    delta = diff_problems(parent, target)
    expected = oracle_apply_delta(parent, delta)
    problem_digest(parent)
    child = apply_delta(parent, delta)
    assert tables(child) == tables(expected)
    assert_unshared(parent, child)
    assert problem_digest(child) == serialization._problem_digest(expected)
    assert problem_digest(child) == problem_digest(target)
