"""Delta documents at the boundary: every malformed one is a named error.

``delta_from_dict`` raises :class:`DocumentError` naming the field, and
``apply_delta`` raises ``KeyError`` for a well-typed delta naming a stream or
reflector the problem does not have.  ``repro update --delta`` turns either
into one ``error:`` line and exit 2, never a traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import replace

import pytest
from delta_oracle import oracle_apply_delta
from hypothesis import given
from hypothesis import strategies as st
from test_delta_differential import tables

from repro.api import DesignRequest, get_designer
from repro.cli import main
from repro.core.problem import OverlayDesignProblem
from repro.core.serialization import DocumentError, dump_problem, dump_solution
from repro.incremental import (
    DeliveryEdgeSpec,
    ProblemDelta,
    SinkAttachment,
    StreamEdgeSpec,
    apply_delta,
    delta_from_dict,
    delta_to_dict,
    sink_attachment,
)
from repro.workloads.tiny import build_tiny_problem

HEADER = {"kind": "problem-delta", "format_version": 1}


def _added_sink(delivery: dict | None = None, demand: dict | None = None) -> dict:
    """``sinks_added`` for a sink ``d9`` fed by ``r1``, demanding stream ``s``."""
    link = {"reflector": "r1", "loss_probability": 0.05, "cost": 1.0, **(delivery or {})}
    wanted = {"stream": "s", "success_threshold": 0.9, **(demand or {})}
    return {"d9": {"delivery": [link], "demands": [wanted]}}


#: (id, document body, exception type, message fragment).
CASES = [
    (
        "delivery-missing-reflector",
        {"delivery_changed": [{"sink": "x"}]},
        DocumentError,
        "delta.delivery_changed[0]: missing 'reflector'",
    ),
    (
        "demand-missing-stream",
        {"demands_changed": [{"sink": "t0"}]},
        DocumentError,
        "delta.demands_changed[0]: missing 'stream'",
    ),
    (
        "delivery-new-missing-cost",
        {
            "delivery_changed": [
                {"reflector": "r1", "sink": "d1", "old": None, "new": {"loss_probability": 0.1}}
            ]
        },
        DocumentError,
        "delta.delivery_changed[0].new: missing 'cost'",
    ),
    (
        "sinks-added-list",
        {"sinks_added": []},
        DocumentError,
        "delta.sinks_added must be an object, got list",
    ),
    ("structural-int", {"structural": 5}, DocumentError, "delta.structural must be a list"),
    (
        "delivery-changed-object",
        {"delivery_changed": {"a": 1}},
        DocumentError,
        "delta.delivery_changed must be a list, got dict",
    ),
    (
        "stream-edge-entry-int",
        {"stream_edges_changed": [5]},
        DocumentError,
        "delta.stream_edges_changed[0] must be an object, got int",
    ),
    (
        "string-loss-probability",
        {"sinks_added": _added_sink(delivery={"loss_probability": "0.05"})},
        DocumentError,
        "delta.sinks_added.d9.delivery[0].loss_probability must be a number, got str",
    ),
    (
        "unknown-reflector",
        {"sinks_added": _added_sink(delivery={"reflector": "r-missing"})},
        KeyError,
        "unknown reflector 'r-missing'",
    ),
    (
        "unknown-stream",
        {"sinks_added": _added_sink(demand={"stream": "s-missing"})},
        KeyError,
        "unknown stream 's-missing'",
    ),
]


@pytest.fixture
def standing_files(tmp_path):
    problem = build_tiny_problem()
    solution = get_designer("greedy").design(DesignRequest(problem=problem)).solution
    problem_path, solution_path = tmp_path / "problem.json", tmp_path / "solution.json"
    dump_problem(problem, str(problem_path))
    dump_solution(solution, str(solution_path))
    return problem, str(problem_path), str(solution_path)


def test_the_added_sink_fixture_applies():
    delta = delta_from_dict({**HEADER, "sinks_added": _added_sink()})
    assert "d9" in apply_delta(build_tiny_problem(), delta).sinks


@pytest.mark.parametrize("body,error,fragment", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_delta_is_a_named_error(
    body, error, fragment, standing_files, tmp_path, capsys
):
    problem, problem_path, solution_path = standing_files
    document = {**HEADER, **body}
    with pytest.raises(error) as excinfo:
        apply_delta(problem, delta_from_dict(document))
    message = excinfo.value.args[0]
    assert fragment in message

    delta_path = tmp_path / "delta.json"
    delta_path.write_text(json.dumps(document))
    argv = ["update", "--problem", problem_path, "--solution", solution_path]
    assert main(argv + ["--delta", str(delta_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_unreadable_delta_file_exits_2(standing_files, tmp_path, capsys):
    _problem, problem_path, solution_path = standing_files
    argv = ["update", "--problem", problem_path, "--solution", solution_path, "--delta"]
    assert main(argv + [str(tmp_path / "missing.json")]) == 2
    (tmp_path / "mangled.json").write_text("{not json")
    assert main(argv + [str(tmp_path / "mangled.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "Traceback" not in err


def test_resolve_flag_is_gone(standing_files, capsys):
    _problem, problem_path, solution_path = standing_files
    argv = ["update", "--problem", problem_path, "--solution", solution_path]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--event", "sink-churn", "--resolve", "full"])
    assert excinfo.value.code == 2
    assert "--resolve" in capsys.readouterr().err


_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_FIELDS = st.sampled_from(
    [
        "reflector",
        "sink",
        "stream",
        "old",
        "new",
        "loss_probability",
        "cost",
        "stream_costs",
        "capacity",
        "delivery",
        "demands",
        "success_threshold",
    ]
)
#: JSON values whose objects mostly use a delta document's field names.
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_FIELDS | st.text(max_size=3), children, max_size=5),
    max_leaves=24,
)
_SECTIONS = (
    "sinks_added",
    "sinks_removed",
    "delivery_changed",
    "stream_edges_changed",
    "demands_changed",
    "structural",
)
_DOCUMENTS = st.fixed_dictionaries(
    {"kind": st.just("problem-delta"), "format_version": st.just(1)},
    optional={section: _VALUES for section in _SECTIONS},
)


@given(st.one_of(_VALUES, _DOCUMENTS))
def test_any_json_value_decodes_or_raises_document_error(value):
    try:
        delta = delta_from_dict(value)
    except DocumentError:
        return
    assert isinstance(delta, ProblemDelta)


# ---------------------------------------------------------------------------
# Corrupted deltas: apply_delta raises what the rebuild raised
# ---------------------------------------------------------------------------


def _fuzz_problem() -> OverlayDesignProblem:
    """Two streams, overrides and an arc capacity: every check has a target."""
    problem = OverlayDesignProblem(name="fuzz")
    for stream in ("t", "s"):
        problem.add_stream(stream)
    for reflector, cost in (("r1", 6.0), ("r2", 5.0), ("r3", 4.0)):
        problem.add_reflector(reflector, cost=cost, fanout=4)
        problem.add_stream_edge("s", reflector, loss_probability=0.01, cost=1.0)
    problem.add_stream_edge("t", "r1", loss_probability=0.02, cost=1.5)
    problem.add_stream_edge("t", "r2", loss_probability=0.02, cost=1.5)
    for sink in ("d2", "d1", "d3"):
        problem.add_sink(sink)
        for reflector in ("r1", "r2"):
            problem.add_delivery_edge(reflector, sink, loss_probability=0.03, cost=0.5)
    problem.add_delivery_edge("r3", "d1", 0.05, 0.4, stream_costs={"t": 0.9}, capacity=2.0)
    for sink, stream in (("d1", "s"), ("d1", "t"), ("d2", "s"), ("d3", "t"), ("d3", "s")):
        problem.add_demand(sink, stream, success_threshold=0.9)
    return problem


FUZZ_PROBLEM = _fuzz_problem()
_LINK = DeliveryEdgeSpec(loss_probability=0.03, cost=0.5)


def _valid_delta() -> dict:
    """A delta touching every section, as mutable parts."""
    return {
        "sinks_removed": {"d3": sink_attachment(FUZZ_PROBLEM, "d3")},
        "sinks_added": {
            "d9": SinkAttachment(
                delivery=(("r1", _LINK), ("r3", DeliveryEdgeSpec(0.04, 0.6, (("t", 0.8),), 3.0))),
                demands=(("s", 0.9), ("t", 0.8)),
            )
        },
        "delivery_changed": {
            ("r1", "d1"): (_LINK, DeliveryEdgeSpec(0.06, 0.5)),
            ("r3", "d2"): (None, DeliveryEdgeSpec(0.05, 0.3, capacity=1.0)),
        },
        "stream_edges_changed": {("t", "r3"): (None, StreamEdgeSpec(0.02, 1.2))},
        "demands_changed": {("d2", "s"): (0.9, 0.95), ("d2", "t"): (None, 0.85)},
    }


#: Values each checked field must refuse.
_BAD = {
    "loss_probability": [-0.1, 1.5, math.nan],
    "cost": [-1.0, math.nan, math.inf],
    "capacity": [0.0, -2.0, math.nan, math.inf],
    "stream_cost": [-0.5, math.nan],
    "threshold": [0.0, 1.0, 1.2, -0.5, math.nan],
}


@st.composite
def corrupted_deltas(draw) -> ProblemDelta:
    """The valid delta with one to three corruptions."""
    parts = _valid_delta()
    added = parts["sinks_added"]["d9"]
    kinds = [
        "stale-link",
        "stale-edge",
        "stale-demand",
        "omit-link",
        "omit-demand",
        "unknown-stream",
        "unknown-reflector",
        "bad-link",
        "bad-edge",
        "bad-threshold",
        "re-add-sink",
        "remove-unknown-sink",
    ]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "stale-link":
            key = draw(st.sampled_from(sorted(parts["delivery_changed"])))
            before, after = parts["delivery_changed"][key]
            stale = DeliveryEdgeSpec(0.07, 0.5) if before is not None else _LINK
            parts["delivery_changed"][key] = (stale, after)
        elif kind == "stale-edge":
            parts["stream_edges_changed"][("s", "r1")] = (
                StreamEdgeSpec(0.5, 1.0),
                StreamEdgeSpec(0.02, 1.0),
            )
        elif kind == "stale-demand":
            parts["demands_changed"][("d1", draw(st.sampled_from(["s", "t"])))] = (0.5, 0.95)
        elif kind in ("omit-link", "omit-demand"):
            attachment = parts["sinks_removed"]["d3"]
            if kind == "omit-link" and attachment.delivery:
                at = draw(st.integers(0, len(attachment.delivery) - 1))
                delivery = attachment.delivery[:at] + attachment.delivery[at + 1 :]
                attachment = SinkAttachment(delivery, attachment.demands)
            elif kind == "omit-demand" and attachment.demands:
                at = draw(st.integers(0, len(attachment.demands) - 1))
                demands = attachment.demands[:at] + attachment.demands[at + 1 :]
                attachment = SinkAttachment(attachment.delivery, demands)
            parts["sinks_removed"]["d3"] = attachment
        elif kind == "unknown-stream":
            where = draw(st.sampled_from(["demand", "stream-cost", "edge", "changed-demand"]))
            if where == "demand":
                added = SinkAttachment(added.delivery, added.demands + (("zz", 0.9),))
            elif where == "stream-cost":
                spec = DeliveryEdgeSpec(0.04, 0.6, (("zz", 0.8),))
                added = SinkAttachment(added.delivery[:1] + (("r2", spec),), added.demands)
            elif where == "edge":
                parts["stream_edges_changed"][("zz", "r1")] = (None, StreamEdgeSpec(0.1, 1.0))
            else:
                parts["demands_changed"][("d1", "zz")] = (None, 0.9)
        elif kind == "unknown-reflector":
            where = draw(st.sampled_from(["added", "changed", "edge"]))
            if where == "added":
                added = SinkAttachment(added.delivery + (("zz", _LINK),), added.demands)
            elif where == "changed":
                parts["delivery_changed"][("zz", "d1")] = (None, _LINK)
            else:
                parts["stream_edges_changed"][("s", "zz")] = (None, StreamEdgeSpec(0.1, 1.0))
        elif kind == "bad-link":
            field = draw(st.sampled_from(["loss_probability", "cost", "capacity", "stream_cost"]))
            value = draw(st.sampled_from(_BAD[field]))
            if field == "stream_cost":
                spec = DeliveryEdgeSpec(0.04, 0.6, (("s", value),))
            else:
                spec = replace(_LINK, **{field: value})
            if draw(st.booleans()):
                added = SinkAttachment(added.delivery[:1] + (("r2", spec),), added.demands)
            else:
                parts["delivery_changed"][("r2", "d2")] = (_LINK, spec)
        elif kind == "bad-edge":
            field = draw(st.sampled_from(["loss_probability", "cost"]))
            value = draw(st.sampled_from(_BAD[field]))
            spec = replace(StreamEdgeSpec(0.02, 1.2), **{field: value})
            parts["stream_edges_changed"][("t", "r3")] = (None, spec)
        elif kind == "bad-threshold":
            value = draw(st.sampled_from(_BAD["threshold"]))
            if draw(st.booleans()):
                added = SinkAttachment(added.delivery, (("s", value),) + added.demands[1:])
            else:
                parts["demands_changed"][("d2", "s")] = (0.9, value)
        elif kind == "re-add-sink":
            parts["sinks_added"]["d1"] = SinkAttachment()
        else:
            parts["sinks_removed"]["gone"] = SinkAttachment()
    parts["sinks_added"]["d9"] = added
    return ProblemDelta(**parts)


def _outcome(apply, problem, delta):
    try:
        return apply(problem, delta)
    except (KeyError, ValueError) as error:
        return error


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    solution = get_designer("greedy").design(DesignRequest(problem=FUZZ_PROBLEM)).solution
    problem_path, solution_path = directory / "problem.json", directory / "solution.json"
    dump_problem(FUZZ_PROBLEM, str(problem_path))
    dump_solution(solution, str(solution_path))
    return directory, str(problem_path), str(solution_path)


def test_the_uncorrupted_delta_applies():
    delta = ProblemDelta(**_valid_delta())
    assert tables(apply_delta(FUZZ_PROBLEM, delta)) == tables(
        oracle_apply_delta(FUZZ_PROBLEM, delta)
    )


@given(corrupted_deltas())
def test_corrupted_deltas_raise_what_the_rebuild_raised(fuzz_files, delta):
    expected = _outcome(oracle_apply_delta, FUZZ_PROBLEM, delta)
    got = _outcome(apply_delta, FUZZ_PROBLEM, delta)
    if isinstance(expected, Exception):
        assert (type(got), got.args) == (type(expected), expected.args)
    else:
        assert tables(got) == tables(expected)

    # Through a document, the way `repro update --delta` reads it.
    document = json.loads(json.dumps(delta_to_dict(delta)))
    expected = _outcome(oracle_apply_delta, FUZZ_PROBLEM, delta_from_dict(document))
    if not isinstance(expected, Exception):
        return
    directory, problem_path, solution_path = fuzz_files
    delta_path = directory / "delta.json"
    delta_path.write_text(json.dumps(document))
    argv = ["update", "--problem", problem_path, "--solution", solution_path]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(argv + ["--delta", str(delta_path)]) == 2
    assert err.getvalue() == f"error: {expected.args[0]}\n"
