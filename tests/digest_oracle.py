"""Differential oracle for :func:`repro.core.serialization.problem_digest`.

This is the problem digest as it was written before the one-pass encoder:
encode the whole problem with ``problem_to_dict``, sort each entity list by
the JSON text of its *unrounded* entries, round every float through a
recursive ``canonical`` pass, and hash one ``json.dumps`` of the result.
It keeps its own copy of that canonical pass, so a change to the encoder in
``src/`` cannot change the oracle too.

Two of its decisions read unrounded floats, so problems whose floats all
round alike could still digest differently: the order of each list, and
which per-stream costs ``problem_to_dict`` lists as differing from a link's
cost.  ``rounded=True`` makes both decisions on rounded values, which is what
the one-pass encoder does; :func:`rounding_agrees` tells whether the two
modes decide alike for one problem.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.core.problem import OverlayDesignProblem
from repro.core.serialization import problem_to_dict

ENTITY_LISTS = ("streams", "reflectors", "stream_edges", "delivery_edges", "demands")


def _canonical(obj: Any, places: int = 9) -> Any:
    if isinstance(obj, float):
        return round(float(obj), places)
    if isinstance(obj, dict):
        return {str(k): _canonical(v, places) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v, places) for v in obj]
    return obj


def _text(entry: Any) -> str:
    return json.dumps(entry, sort_keys=True)


def _rounded_text(entry: Any) -> str:
    return json.dumps(_canonical(entry), sort_keys=True)


def _rounded_stream_costs(edge: dict) -> dict:
    cost = round(edge["cost"], 9)
    return {k: v for k, v in edge["stream_costs"].items() if round(v, 9) != cost}


def oracle_problem_digest(problem: OverlayDesignProblem, *, rounded: bool = False) -> str:
    """The old problem digest (``rounded=True``: decided on rounded values)."""
    document = problem_to_dict(problem)
    document.pop("name", None)
    if rounded:
        for edge in document["delivery_edges"]:
            edge["stream_costs"] = _rounded_stream_costs(edge)
    key = _rounded_text if rounded else _text
    for name in ENTITY_LISTS:
        document[name] = sorted(document[name], key=key)
    document["sinks"] = sorted(document["sinks"])
    payload = json.dumps(_canonical(document), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def rounding_agrees(problem: OverlayDesignProblem) -> bool:
    """True when both oracle modes list the same stream costs and orders."""
    document = problem_to_dict(problem)
    for edge in document["delivery_edges"]:
        if _rounded_stream_costs(edge) != edge["stream_costs"]:
            return False
    for name in ENTITY_LISTS:
        by_text = [_rounded_text(e) for e in sorted(document[name], key=_text)]
        if by_text != sorted(by_text):
            return False
    return True
