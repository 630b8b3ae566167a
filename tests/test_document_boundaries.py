"""Named errors at every document boundary, derived from the declarations.

For each boundary -- request (with its parameters, evaluation and options),
result, problem, solution, delta, scenario DSL and the numeric CLI flags --
``tests/document_mutations.py`` lists every one-field mutation of a valid
document from its declaration.  Each mutation must decode or raise
:class:`DocumentError` whose message begins with the mutated field's path
(the DSL: a :class:`ScenarioValidationError` with an issue at that path), and
the decoder must refuse exactly where the hand-written decoder it replaced
(``tests/codec_oracle.py``) refused, except for the values the declarations
newly refuse (listed in CHANGES.md and in ``NEWLY_REFUSED`` below).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import urllib.error
import urllib.request

import codec_oracle as oracle
import pytest
from document_mutations import VALUES, declared_paths, mutated, mutations, render
from hypothesis import given, settings
from hypothesis import strategies as st
from test_delta_documents import FUZZ_PROBLEM, _valid_delta

from repro.api import (
    DesignRequest,
    EvaluationSpec,
    get_designer,
    request_from_dict,
    request_to_dict,
    result_from_dict,
    result_to_dict,
    run_request,
)
from repro.api.types import REQUEST, RESULT
from repro.cli import build_parser, main
from repro.core.algorithm import DesignParameters
from repro.core.schema import DocumentError
from repro.core.serialization import (
    PROBLEM,
    SOLUTION,
    dump_problem,
    dump_solution,
    problem_from_dict,
    problem_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from repro.incremental import ProblemDelta, delta_from_dict, delta_to_dict
from repro.incremental.delta import DELTA
from repro.serve import DesignServer, DesignService
from repro.simulation.dsl import (
    _PRIMITIVE_PARAMS,
    ScenarioValidationError,
    load_scenario_data,
    normalize_scenario_spec,
    shipped_scenario_paths,
)

PROBLEM_DOCUMENT = json.loads(json.dumps(problem_to_dict(FUZZ_PROBLEM)))


def _request(strategy: str, options: dict | None = None, **fields) -> dict:
    request = DesignRequest(
        problem=FUZZ_PROBLEM,
        parameters=DesignParameters(seed=3),
        strategy=strategy,
        options=options or {},
        request_id="base",
        **fields,
    )
    return json.loads(json.dumps(request_to_dict(request)))


REQUEST_DOCUMENT = _request(
    "spaa03",
    evaluation=EvaluationSpec(
        scenarios=("baseline",), trials=2, num_packets=64, window=8, traces=("diurnal",)
    ),
)

#: Base requests whose options each strategy declares.
OPTION_DOCUMENTS = [
    _request("greedy", {"fanout_slack": 1.5}),
    _request("naive-quality-first", {"fanout_slack": 1.5}),
    _request("single-tree", {"fanout_slack": 1.0, "prefer_cheap": True}),
    _request("random", {"seed": 4, "fanout_slack": 1.0}),
    _request("milp-exact", {"time_limit": 30.0, "mip_gap": 0.01, "symmetry_breaking": False}),
    _request(
        "sharded:greedy",
        {"shards": 2, "jobs": 1, "partitioner": "hash", "inner_options": {"fanout_slack": 1.0}},
    ),
]

_RESULT = get_designer("spaa03").design(request_from_dict(REQUEST_DOCUMENT))
RESULT_DOCUMENT = json.loads(json.dumps(result_to_dict(_RESULT)))
SOLUTION_DOCUMENT = json.loads(json.dumps(solution_to_dict(_RESULT.solution)))
DELTA_DOCUMENT = json.loads(json.dumps(delta_to_dict(ProblemDelta(**_valid_delta()))))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _request_newly_refused(path: tuple, value) -> bool:
    """The request values the declarations refuse and the old decoder read."""
    text = render("", path)
    if text in (
        "parameters.rounding.c",
        "parameters.rounding.delta",
        "parameters.repair_fanout_slack",
    ):
        return not _finite(value) and isinstance(value, float)
    if text == "parameters.max_rounding_attempts":
        return _is_int(value) and value < 1
    if text in ("parameters.rounding.seed", "evaluation.seed"):
        return _is_int(value) and value < 0
    if text == "request_id":
        return not isinstance(value, str) and value is not None
    return text == "problem.name" and not isinstance(value, str)


#: Per boundary, the mutated values the declarations refuse and the old
#: decoders accepted.  Each is listed in CHANGES.md.
NEWLY_REFUSED = {
    "request": _request_newly_refused,
    # The old result and solution decoders checked no field's type.
    "result": lambda path, value: True,
    "solution": lambda path, value: True,
    # The old delta decoder read an absent-or-empty ``stream_costs`` with
    # ``or {}`` and iterated ``delivery``/``demands`` without a type check.
    "delta": lambda path, value: (
        path[-1] in ("stream_costs", "delivery", "demands") and not value
    ),
    "problem": lambda path, value: path == ("name",) and not isinstance(value, str),
}


def _outcome(decode, document):
    try:
        decode(document)
    except Exception as error:  # noqa: BLE001 - the refusal is the outcome
        return error
    return None


def _table_paths(problem: dict, prefix: tuple = ()) -> dict[tuple, tuple]:
    """Each path inside a problem document's tables -> the path of its entry."""
    return {
        prefix + path: prefix + path[:2]
        for path, _codec in declared_paths(PROBLEM, problem)
        if len(path) >= 2
    }


def _assert_named(message: str, root: str, mutation: tuple, tables: dict) -> None:
    """``message`` begins with the mutated field's path.

    Inside a problem table a value ``add_*`` refuses is named by its entry
    (``problem.reflectors[0]: reflector cost must be ...``), a replaced entry
    by its table (``problem.streams: entries must be objects``), and a
    defined name removed or renamed by the entry that used it.
    """
    if mutation[0] == "root":
        assert message.startswith(root), (mutation, message)
        return
    path = mutation[1]
    if message.startswith(render(root, path)):
        return
    if mutation[0] == "delete" and message.startswith(render(root, path[:-1])):
        # A missing field or list entry is named by its parent:
        # ``delta.delivery_changed[0]: missing 'reflector'``.
        return
    if tables and re.search(r"unknown (stream|reflector|sink) ", message):
        return
    if "assignments" in path and path[-1] in ("sink", "stream"):
        # A demand key names its entry: the pair may name no demand, or a
        # demand its reflectors cannot serve.
        assert message.startswith(render(root, path[:-1])), (mutation, message)
        return
    entry = tables.get(path)
    assert entry is not None, (mutation, message)
    allowed = (f"{render(root, entry)}: ", f"{render(root, entry[:-1])}: entries must be")
    assert message.startswith(allowed), (mutation, message)


#: Each boundary: (path root, declaration, a valid document, decoder, the
#: old decoder, exceptions besides ``DocumentError`` the decoder may raise;
#: a result or solution naming a demand or reflector its problem lacks is a
#: ``DocumentError`` too).
BOUNDARIES = {
    "problem": (
        "problem",
        PROBLEM,
        PROBLEM_DOCUMENT,
        problem_from_dict,
        oracle.problem_from_dict,
        (),
    ),
    "request": ("", REQUEST, REQUEST_DOCUMENT, request_from_dict, oracle.request_from_dict, ()),
    "result": (
        "",
        RESULT,
        RESULT_DOCUMENT,
        lambda document: result_from_dict(document, FUZZ_PROBLEM),
        lambda document: oracle.result_from_dict(document, FUZZ_PROBLEM),
        (),
    ),
    "solution": (
        "solution",
        SOLUTION,
        SOLUTION_DOCUMENT,
        lambda document: solution_from_dict(document, FUZZ_PROBLEM),
        lambda document: oracle.solution_from_dict(document, FUZZ_PROBLEM),
        (),
    ),
    "delta": ("delta", DELTA, DELTA_DOCUMENT, delta_from_dict, oracle.delta_from_dict, ()),
}


def _decoded_or_named(name: str, mutation: tuple) -> Exception | None:
    """Decode ``mutation`` of the boundary's document: ``None``, or the refusal,
    which must be a :class:`DocumentError` naming the mutated field's path."""
    root, _codec, document, decode, _old, extra = BOUNDARIES[name]
    error = _outcome(decode, mutated(document, mutation))
    if isinstance(error, DocumentError):
        if root == "problem":
            tables = _table_paths(document)
        else:
            tables = _table_paths(document.get("problem", {}), ("problem",))
        _assert_named(str(error), root, mutation, tables)
    elif error is not None:
        assert isinstance(error, extra), (mutation, repr(error))
    return error


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_every_mutation_is_named_and_refused_where_the_oracle_refused(name):
    root, codec, document, _decode, old_decode, _extra = BOUNDARIES[name]
    for mutation in mutations(codec, document):
        new = _decoded_or_named(name, mutation)
        old = _outcome(old_decode, mutated(document, mutation))
        if (new is None) != (old is None):
            assert new is not None and mutation[0] == "set", (mutation, new, old)
            assert NEWLY_REFUSED[name](mutation[1], mutation[2]), (mutation, new)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
@given(data=st.data())
def test_a_mutated_document_decodes_or_names_the_field(name, data):
    _root, codec, document, *_ = BOUNDARIES[name]
    path = data.draw(st.sampled_from([path for path, _codec in declared_paths(codec, document)]))
    if data.draw(st.booleans()):
        mutation = ("delete", path)
    else:
        mutation = ("set", path, data.draw(st.sampled_from(VALUES) | _JSON))
    _decoded_or_named(name, mutation)


# ---------------------------------------------------------------------------
# Hypothesis: mutated requests decode or are named, and run or raise a named error
# ---------------------------------------------------------------------------


def _one_mutation(draw, document: dict, paths: list[tuple]) -> tuple[tuple, dict]:
    """A drawn one-field mutation of ``document`` at one of ``paths``."""
    path = draw(st.sampled_from(paths))
    if draw(st.booleans()):
        mutation = ("delete", path)
    else:
        mutation = ("set", path, draw(st.sampled_from(VALUES)))
    return mutation, mutated(document, mutation)


@st.composite
def mutated_requests(draw) -> tuple[tuple, dict]:
    document = draw(st.sampled_from([REQUEST_DOCUMENT, *OPTION_DOCUMENTS]))
    paths = [path for path, _codec in declared_paths(REQUEST, document)]
    paths += [("options", key) for key in document["options"]]
    return _one_mutation(draw, document, paths)


@settings(max_examples=80, deadline=None)
@given(mutated_requests())
def test_a_mutated_request_is_named_or_runs_to_a_named_error(case):
    mutation, document = case
    try:
        request = request_from_dict(document)
    except DocumentError as error:
        tables = _table_paths(document.get("problem", {}), ("problem",))
        _assert_named(str(error), "", mutation, tables)
        return
    try:
        run_request(request)
    except (ValueError, KeyError):
        pass


# ---------------------------------------------------------------------------
# The scenario DSL: an issue at the mutated path
# ---------------------------------------------------------------------------

SHIPPED = [load_scenario_data(path) for path in shipped_scenario_paths()]


def _dsl_paths(document: dict) -> list[tuple]:
    paths = [(key,) for key in document]
    for index, primitive in enumerate(document.get("primitives", [])):
        paths.append(("primitives", index))
        paths.extend(
            ("primitives", index, name)
            for name in _PRIMITIVE_PARAMS.get(primitive["kind"], {})
            if name in primitive
        )
    return paths


def _dsl_path(path: tuple) -> str:
    return render("$", path)


@st.composite
def mutated_scenarios(draw) -> tuple[tuple, dict]:
    document = draw(st.sampled_from(SHIPPED))
    return _one_mutation(draw, document, _dsl_paths(document))


@given(mutated_scenarios())
def test_a_mutated_scenario_names_the_field(case):
    mutation, document = case
    try:
        normalize_scenario_spec(document)
    except ScenarioValidationError as error:
        path = mutation[1] if mutation[0] == "set" else mutation[1][:-1]
        where = _dsl_path(path)
        assert any(issue.path.startswith(where) for issue in error.issues), (
            mutation,
            error.issues,
        )


def test_every_scenario_mutation_refuses_where_the_oracle_refuses():
    for document in SHIPPED:
        for path in _dsl_paths(document):
            for mutation in [("delete", path), *(("set", path, value) for value in VALUES)]:
                candidate = mutated(document, mutation)
                new = _outcome(normalize_scenario_spec, candidate)
                old = _outcome(oracle.normalize_scenario_spec, candidate)
                assert new is None or isinstance(new, ScenarioValidationError), (mutation, new)
                # The old checker crashed on an unhashable loss (TypeError);
                # it refused, without a named issue.
                assert (new is None) == (old is None), (mutation, new, old)


# ---------------------------------------------------------------------------
# Numeric CLI flags: parsed into their domain, or exit 2
# ---------------------------------------------------------------------------


def _numeric_flags() -> list[tuple[str, list[str], str, object]]:
    """``(subcommand, required argv, flag, domain)`` of every numeric flag."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = []
    for command, sub in subparsers.choices.items():
        required = []
        for action in sub._actions:
            if action.required and action.option_strings:
                required += [action.option_strings[0], "x"]
        for action in sub._actions:
            domain = getattr(action.type, "domain", None)
            if domain is not None:
                flags.append((command, required, action.option_strings[0], domain))
    return flags


NUMERIC_FLAGS = _numeric_flags()

_TOKENS = (
    st.sampled_from(["0", "-1", "0.5", "1.5", "nan", "inf", "-inf", "1e30", "", "x", "65536"])
    | st.integers(-10, 10**6).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
)


def test_every_numeric_flag_has_a_domain():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    untyped = [
        (command, action.option_strings)
        for command, sub in subparsers.choices.items()
        for action in sub._actions
        if action.type in (int, float)
    ]
    assert untyped == []
    assert len(NUMERIC_FLAGS) >= 20


@given(st.sampled_from(NUMERIC_FLAGS), _TOKENS)
def test_a_numeric_flag_parses_into_its_domain_or_exits_2(flag, token):
    command, required, option, domain = flag
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            args = build_parser().parse_args([command, *required, f"{option}={token}"])
    except SystemExit as exit:
        assert exit.code == 2
        assert f"argument {option}" in stderr.getvalue()
        return
    value = getattr(args, option.lstrip("-").replace("-", "_"))
    assert domain.issue(value) is None


# ---------------------------------------------------------------------------
# The refusals that escaped before the declarations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def design_server():
    with DesignServer(DesignService(workers=1)) as server:
        yield server


def _post(server, body) -> tuple[int, dict]:
    post = urllib.request.Request(
        server.url + "/design",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(post, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


#: (path, value, the error) of request fields no check reached before.
ESCAPED_FIELDS = [
    (
        ("parameters", "max_rounding_attempts"),
        0,
        "parameters.max_rounding_attempts must be an integer >= 1, got 0",
    ),
    (
        ("parameters", "max_rounding_attempts"),
        -3,
        "parameters.max_rounding_attempts must be an integer >= 1, got -3",
    ),
    (
        ("parameters", "rounding", "seed"),
        -5,
        "parameters.rounding.seed must be an integer >= 0, got -5",
    ),
    (
        ("parameters", "rounding", "c"),
        math.nan,
        "parameters.rounding.c must be a finite number, got nan",
    ),
    (
        ("parameters", "repair_fanout_slack"),
        math.inf,
        "parameters.repair_fanout_slack must be a finite number, got inf",
    ),
    (("evaluation", "seed"), -1, "evaluation.seed must be an integer >= 0, got -1"),
    (("evaluation", "trials"), 0, "evaluation.trials must be an integer >= 1, got 0"),
]


@pytest.mark.parametrize(("path", "value", "error"), ESCAPED_FIELDS)
def test_an_escaped_field_gets_400_naming_it(design_server, path, value, error):
    document = mutated(REQUEST_DOCUMENT, ("set", path, value))
    assert _post(design_server, document) == (400, {"error": error})


@pytest.mark.parametrize(("path", "value", "error"), ESCAPED_FIELDS[:4])
def test_an_escaped_field_exits_2_from_batch(tmp_path, capsys, path, value, error):
    requests = tmp_path / "requests.jsonl"
    requests.write_text(json.dumps(mutated(REQUEST_DOCUMENT, ("set", path, value))) + "\n")
    assert main(["batch", "--requests", str(requests)]) == 2
    assert error in capsys.readouterr().err


#: (strategy, options, the error) of options no check reached before.
ESCAPED_OPTIONS = [
    ("greedy", {"fanout_slack": "x"}, "options.fanout_slack must be a number, got str"),
    (
        "naive-quality-first",
        {"fanout_slack": "x"},
        "options.fanout_slack must be a number, got str",
    ),
    ("greedy", {"fanout_slack": -1}, "options.fanout_slack must be a finite number > 0.0, got -1"),
    ("random", {"seed": "x"}, "options.seed must be an integer, got str"),
    ("single-tree", {"prefer_cheap": "x"}, "options.prefer_cheap must be a boolean, got str"),
    ("sharded:spaa03", {"inner_options": 5}, "options.inner_options must be an object, got int"),
]


@pytest.mark.parametrize(("strategy", "options", "error"), ESCAPED_OPTIONS)
def test_an_escaped_option_gets_400_naming_it(design_server, strategy, options, error):
    document = _request(strategy, options)
    assert _post(design_server, document) == (400, {"error": error})
    with pytest.raises(ValueError, match="^" + error.replace(".", r"\.") + "$"):
        run_request(request_from_dict(document))


def test_a_solution_entry_of_the_wrong_kind_exits_2(tmp_path, capsys):
    problem_path, solution_path = tmp_path / "problem.json", tmp_path / "solution.json"
    dump_problem(FUZZ_PROBLEM, str(problem_path))
    dump_solution(_RESULT.solution, str(solution_path))
    document = json.loads(solution_path.read_text())
    argv = ["evaluate", "--problem", str(problem_path), "--solution", str(solution_path)]
    for value, error in (
        ("r1", "solution.assignments[0].reflectors must be a list, got str"),
        ([5], "solution.assignments[0].reflectors[0] must be a string, got int"),
    ):
        document["assignments"][0]["reflectors"] = value
        solution_path.write_text(json.dumps(document))
        assert main(argv) == 2
        assert error in capsys.readouterr().err


def test_a_solution_naming_what_its_problem_lacks_exits_2(tmp_path, capsys):
    """An unknown demand or reflector, or a reflector that is no candidate."""
    problem_path, solution_path = tmp_path / "problem.json", tmp_path / "solution.json"
    dump_problem(FUZZ_PROBLEM, str(problem_path))
    dump_solution(_RESULT.solution, str(solution_path))
    argv = ["evaluate", "--problem", str(problem_path), "--solution", str(solution_path)]
    cases = (
        ("reflectors", ["nope"], "solution.assignments[0].reflectors[0]: unknown reflector 'nope'"),
        ("sink", "zz", "solution.assignments[0].sink: unknown sink 'zz'"),
        ("stream", "q", "solution.assignments[0].stream: unknown stream 'q'"),
        ("sink", "d2", "solution.assignments[0]: the problem has no demand ('d2', 't')"),
    )
    for field, value, error in cases:
        document = json.loads(solution_path.read_text())
        document["assignments"][0] = {"sink": "d1", "stream": "t", "reflectors": ["r1"]}
        document["assignments"][0][field] = value
        with pytest.raises(DocumentError, match="^" + re.escape(error) + "$"):
            solution_from_dict(document, FUZZ_PROBLEM)
        solution_path.write_text(json.dumps(document))
        assert main(argv) == 2
        assert error in capsys.readouterr().err
    # ('d1', 't') has no stream edge to r3.
    document["assignments"][0] = {"sink": "d1", "stream": "t", "reflectors": ["r1", "r3"]}
    error = (
        "solution.assignments[0].reflectors[1]: "
        "reflector 'r3' is no candidate of demand ('d1', 't')"
    )
    with pytest.raises(DocumentError, match="^" + re.escape(error) + "$"):
        result_from_dict({**RESULT_DOCUMENT, "solution": document}, FUZZ_PROBLEM)


@pytest.mark.parametrize(
    ("table", "entry", "error"),
    [
        ("streams", {"name": 5}, "problem.streams[2].name must be a string, got int"),
        (
            "reflectors",
            {"name": True, "cost": 1.0, "fanout": 2},
            "problem.reflectors[3].name must be a string, got bool",
        ),
        ("sinks", 7.5, "problem.sinks: entries must be strings, got float"),
    ],
)
def test_a_problem_name_that_is_no_string_is_named(table, entry, error):
    """add_* takes any hashable name, so the decoder checks the name tables once."""
    document = json.loads(json.dumps(PROBLEM_DOCUMENT))
    document[table].append(entry)
    with pytest.raises(DocumentError, match="^" + re.escape(error) + "$"):
        problem_from_dict(document)


@pytest.mark.parametrize("loss", [[], {}])
def test_an_unhashable_scenario_loss_is_named(tmp_path, capsys, loss):
    document = {**SHIPPED[0], "loss": loss}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    assert main(["scenarios", "--validate", str(path)]) == 2
    assert f"$.loss: must be a string, got {type(loss).__name__} [bad-type]" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    ("argv", "flag", "error"),
    [
        (
            ["generate", "--workload", "internet-scale", "--out", "x", "--sinks", "-5"],
            "--sinks",
            "must be an integer >= 1, got -5",
        ),
        (["serve", "--workers", "0"], "--workers", "must be an integer >= 1, got 0"),
        (["serve", "--cache-bytes", "-1"], "--cache-bytes", "must be an integer >= 1, got -1"),
        *(
            (
                [command, "--problem", "x", "--multiplier", "nan"],
                "--multiplier",
                "must be a finite number, got nan",
            )
            for command in ("design", "compare")
        ),
        (["design", "--problem", "x", "--seed", "-1"], "--seed", "must be an integer >= 0, got -1"),
    ],
)
def test_a_numeric_flag_outside_its_domain_exits_2(capsys, argv, flag, error):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}: {error}" in capsys.readouterr().err
