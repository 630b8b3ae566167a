"""Delta documents at the boundary: every malformed one is a named error.

``delta_from_dict`` raises :class:`DocumentError` naming the field, and
``apply_delta`` raises ``KeyError`` for a well-typed delta naming a stream or
reflector the problem does not have.  ``repro update --delta`` turns either
into one ``error:`` line and exit 2, never a traceback.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import DesignRequest, get_designer
from repro.cli import main
from repro.core.serialization import DocumentError, dump_problem, dump_solution
from repro.incremental import ProblemDelta, apply_delta, delta_from_dict
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
        "delta.delivery_changed[0]: missing 'cost'",
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
        "delta.stream_edges_changed[0]: entries must be objects, got int",
    ),
    (
        "string-loss-probability",
        {"sinks_added": _added_sink(delivery={"loss_probability": "0.05"})},
        DocumentError,
        "delta.sinks_added.d9: loss_probability must be a number, got str",
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
