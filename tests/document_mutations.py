"""One-field mutations of a valid document, derived from its declaration.

Walk a document alongside its :mod:`repro.core.schema` declaration and list
the path of every declared field, list entry and map entry it holds, with the
codec declared there.  A mutation changes one of them: it deletes it, or sets
it to another JSON kind or to one of a fixed list of edge values.  The
boundary properties in ``tests/test_document_boundaries.py`` hold every
decoder to its named errors on these mutations.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Iterator

from repro.core.schema import Doc, MapOf, Rows
from repro.core.serialization import Table

#: Values every field is set to: numbers at and around the usual bounds, and
#: the empty value of each JSON kind.
EDGE_VALUES = (0, -1, 0.5, 1.5, math.nan, math.inf, -math.inf, 1e30, "", [], {})

#: One value of each other JSON kind.
OTHER_KINDS = (None, True, 7, "x", [1], {"x": 1})

VALUES = EDGE_VALUES + OTHER_KINDS

Path = tuple


def declared_paths(codec: Any, value: Any, path: Path = ()) -> Iterator[tuple[Path, Any]]:
    """``(path, codec)`` of every declared field and entry present in ``value``."""
    if isinstance(codec, Doc):
        if isinstance(value, dict):
            for field in codec.fields:
                if field.key in value:
                    below = path + (field.key,)
                    yield below, field.codec
                    yield from declared_paths(field.codec, value[field.key], below)
    elif isinstance(codec, (Rows, Table)):
        entry = codec.codec if isinstance(codec, Rows) else codec.entry
        if isinstance(value, list):
            for index, item in enumerate(value):
                yield path + (index,), entry
                yield from declared_paths(entry, item, path + (index,))
    elif isinstance(codec, MapOf):
        if codec.pairs and isinstance(value, list):
            for index, row in enumerate(value):
                yield path + (index,), codec
                yield path + (index, 2), codec.codec
        elif isinstance(value, dict):
            for key, item in value.items():
                yield path + (key,), codec.codec
                yield from declared_paths(codec.codec, item, path + (key,))


def mutations(codec: Any, document: Any) -> list[tuple]:
    """Every one-field mutation of ``document``: ``("delete", path)`` or
    ``("set", path, value)``, plus ``("root", value)`` for the whole document."""
    every: list[tuple] = [("root", value) for value in VALUES]
    for path, _codec in declared_paths(codec, document):
        every.append(("delete", path))
        every.extend(("set", path, value) for value in VALUES)
    return every


def mutated(document: Any, mutation: tuple) -> Any:
    """A deep copy of ``document`` with ``mutation`` applied."""
    if mutation[0] == "root":
        return copy.deepcopy(mutation[1])
    document = copy.deepcopy(document)
    *parents, key = mutation[1]
    target = document
    for parent in parents:
        target = target[parent]
    if mutation[0] == "delete":
        del target[key]
    else:
        target[key] = copy.deepcopy(mutation[2])
    return document


def render(root: str, path: Path) -> str:
    """``path`` below ``root`` as the decoders write it: ``problem.reflectors[0].cost``."""
    text = root
    for key in path:
        if isinstance(key, int):
            text += f"[{key}]"
        else:
            text = f"{text}.{key}" if text else key
    return text
