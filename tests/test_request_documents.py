"""Request documents at the boundary: a mutated one decodes or is refused.

Start from a valid ``sharded:spaa03`` request document with an evaluation
spec and change one field: swap its value for one of another JSON type,
delete it, or replace the whole document.  ``request_from_dict`` must return
a request or raise ``ValueError``/``KeyError``, the two exceptions the HTTP
front answers with ``400``, and a request it returns must run through
``run_request`` or raise one of the two; anything else is a traceback at
``repro batch`` and a dropped connection at ``POST /design``.
"""

from __future__ import annotations

import copy
import json
import random
import urllib.error
import urllib.request

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.api import (
    DesignRequest,
    EvaluationSpec,
    request_from_dict,
    request_to_dict,
    run_request,
)
from repro.core.algorithm import DesignParameters
from repro.serve import DesignServer, DesignService
from repro.workloads.random_instances import RandomInstanceConfig, random_problem


def _base_document() -> dict:
    problem = random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=3, num_sinks=4), rng=5
    )
    request = DesignRequest(
        problem=problem,
        parameters=DesignParameters(seed=3),
        strategy="sharded:spaa03",
        options={"shards": 2, "jobs": 1},
        evaluation=EvaluationSpec(
            scenarios=("baseline", "isp-outage"),
            trials=2,
            num_packets=200,
            window=40,
            traces=("diurnal",),
            max_memory=1 << 20,
        ),
    )
    return json.loads(json.dumps(request_to_dict(request)))


BASE = _base_document()


def _paths(value, prefix: tuple = ()):
    """The path of every field and list entry below ``value``."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


PATHS = list(_paths(BASE))


def _json_type(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _value_at(path: tuple):
    value = BASE
    for key in path:
        value = value[key]
    return value


def _mutated(mutation: tuple):
    """``BASE`` with one mutation: ``("swap", path, value)``, ``("delete", path)``
    or ``("root", value)``."""
    if mutation[0] == "root":
        return mutation[1]
    document = copy.deepcopy(BASE)
    *parents, key = mutation[1]
    target = document
    for parent in parents:
        target = target[parent]
    if mutation[0] == "delete":
        del target[key]
    else:
        target[key] = mutation[2]
    return document


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@st.composite
def mutations(draw) -> tuple:
    kind = draw(st.sampled_from(["swap", "delete", "root"]))
    if kind == "root":
        return ("root", draw(_VALUES))
    path = draw(st.sampled_from(PATHS))
    if kind == "delete":
        return ("delete", path)
    original = _json_type(_value_at(path))
    return ("swap", path, draw(_VALUES.filter(lambda value: _json_type(value) != original)))


_LINK = ("problem", "delivery_edges", 0, "stream_costs")


@given(mutations())
@example(("swap", _LINK, 1.5))
@example(("swap", _LINK, "x"))
@example(("swap", _LINK, [1]))
@example(("swap", _LINK, True))
@example(("swap", (*_LINK, "s0"), "x"))
def test_a_mutated_request_decodes_or_is_refused(mutation):
    try:
        request = request_from_dict(_mutated(mutation))
    except (ValueError, KeyError):
        return
    assert isinstance(request, DesignRequest)


#: One value of each JSON type, for the exhaustive single-field mutations.
REPLACEMENTS = (None, True, 1.5, "x", [1], {"x": 1})


def _single_field_mutations() -> list[tuple]:
    every = [("root", value) for value in REPLACEMENTS]
    for path in PATHS:
        every.append(("delete", path))
        original = _json_type(_value_at(path))
        every.extend(
            ("swap", path, value) for value in REPLACEMENTS if _json_type(value) != original
        )
    return every


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


def test_refused_bodies_get_400_naming_the_error(design_server):
    refused, escaped = [], []
    for mutation in _single_field_mutations():
        document = _mutated(mutation)
        try:
            request_from_dict(document)
        except (ValueError, KeyError) as error:
            refused.append((mutation, document, str(error)))
        except Exception as error:  # noqa: BLE001 - collected, reported below
            escaped.append((mutation, repr(error)))
    assert escaped == []
    sample = random.Random(0).sample(refused, 40)
    sample += [case for case in refused if case[0][0] != "root" and "stream_costs" in case[0][1]]
    for mutation, document, error in sample:
        assert _post(design_server, document) == (400, {"error": error}), mutation


def test_a_decoded_mutation_runs_or_raises_a_named_error():
    escaped = []
    for mutation in _single_field_mutations():
        try:
            request = request_from_dict(_mutated(mutation))
        except (ValueError, KeyError):
            continue
        try:
            run_request(request)
        except (ValueError, KeyError):
            pass
        except Exception as error:  # noqa: BLE001 - collected, reported below
            escaped.append((mutation, repr(error)))
    assert escaped == []


_WRONG = (None, "x", [1], {"x": 1})
_UNHASHABLE = ([1], {"x": 1})

#: The single-field mutations that used to decode and then escape
#: ``run_request`` as a ``TypeError`` or ``AttributeError``, with the start
#: of the error that now names their field.
WRONGLY_TYPED = [
    *[
        (("strategy",), value, "strategy must be a string")
        for value in (None, True, 1.5, *_UNHASHABLE)
    ],
    *[
        (("parameters", "rounding", key), value, f"parameters.rounding.{key} must be a number")
        for key in ("c", "delta")
        for value in _WRONG
    ],
    *[
        (("parameters", "rounding", "seed"), value, "parameters.rounding.seed must be an integer")
        for value in _UNHASHABLE
    ],
    *[
        (("parameters", key), value, f"parameters.{key} must be {kind}")
        for key, kind in (
            ("max_rounding_attempts", "an integer"),
            ("repair_fanout_slack", "a number"),
        )
        for value in _WRONG
    ],
    *[
        (("options", key), value, f"{key} must be an integer or 'auto'")
        for key in ("shards", "jobs")
        for value in _UNHASHABLE
    ],
    *[
        (
            ("problem", "reflectors", index, "color"),
            value,
            f"problem.reflectors[{index}].color must be a string, a number or null",
        )
        for index in range(3)
        for value in _UNHASHABLE
    ],
]


def test_the_wrongly_typed_fields_are_the_ones_that_escaped():
    assert len(WRONGLY_TYPED) == 33


@pytest.mark.parametrize(("path", "value", "error"), WRONGLY_TYPED)
def test_a_wrongly_typed_field_gets_400_naming_it(design_server, path, value, error):
    expected = f"{error}, got {type(value).__name__}"
    assert _post(design_server, _mutated(("swap", path, value))) == (400, {"error": expected})


@pytest.mark.parametrize(
    ("path", "value"),
    [
        (("parameters", "rounding", "c"), True),
        (("parameters", "retry_rounding"), "no"),
        (("parameters", "extensions", "use_color_constraints"), 1),
        (("problem", "reflectors", 0, "color"), False),
    ],
)
def test_bools_are_not_numbers_and_numbers_are_not_bools(path, value):
    with pytest.raises(ValueError, match="must be"):
        request_from_dict(_mutated(("swap", path, value)))
