"""Document fields declared once: one decoder and one encoder for every boundary.

Problems, solutions, requests, results and deltas cross file, process and
HTTP boundaries (the designer is re-run "as often as needed", Section 1.3).
Each document declares its fields once, beside the type it builds, as
:class:`Field` rows whose codec is a scalar :class:`Domain` (a JSON kind plus
an optional bound; bools are not numbers), a nested :class:`Doc`, or a
collection (:class:`MapOf` keyed by name, :class:`Rows` in order).
:meth:`Doc.decode` raises the first :class:`DocumentError`, named by its path
(built lazily as ``(parent, key)`` pairs): ``parameters.rounding.c must be a
number, got str``.  :meth:`Doc.encode` writes the keys in declaration order.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Sequence


#: The default of a field whose type declares none.
ABSENT = object()


class DocumentError(ValueError):
    """A document that cannot be read or decoded; the message names the field's
    path (``problem.streams must be a list, got dict``) or the file."""


def render(path: Any) -> str:
    """A path's text: ``parameters.rounding.c``, ``delta.delivery_changed[0]``."""
    if isinstance(path, str):
        return path
    head, key = render(path[0]), path[1]
    if isinstance(key, int):
        return f"{head}[{key}]"
    return f"{head}.{key}" if head else key


def _is_integer(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))


@dataclass(frozen=True)
class Domain:
    """A JSON kind plus an optional bound: ``integer(1)`` is "an integer >= 1".

    A value of another kind reads ``<path> must be <kind>, got <type>`` and
    one outside the bound ``<path> must be <bound>, got <value>``.  ``cast``
    converts an accepted value (the scenario DSL reads numbers as floats).
    """

    kind: str
    accepts: Callable[[Any], bool]
    bound: str | None = None
    within: Callable[[Any], bool] | None = None
    cast: Callable[[Any], Any] | None = None

    def issue(self, value: Any) -> tuple[str, str] | None:
        """``None`` in the domain, else ``(code, "must be ..., got ...")``; the
        code is the scenario DSL's ``bad-type`` or ``bad-value``."""
        if not self.accepts(value):
            return "bad-type", f"must be {self.kind}, got {type(value).__name__}"
        if self.within is not None and not self.within(value):
            return "bad-value", f"must be {self.bound}, got {value!r}"
        return None

    def decode(self, value: Any, path: Any) -> Any:
        if self.accepts(value) and (self.within is None or self.within(value)):
            return value if self.cast is None else self.cast(value)
        raise DocumentError(f"{render(path)} {self.issue(value)[1]}")

    def encode(self, value: Any) -> Any:
        return value


def _plain(codec: Any) -> bool:
    """A scalar domain whose kind check is its whole decode."""
    return isinstance(codec, Domain) and codec.within is None and codec.cast is None


INTEGER = Domain("an integer", _is_integer)
NUMBER = Domain("a number", _is_number)
BOOLEAN = Domain("a boolean", bool.__instancecheck__)
STRING = Domain("a string", str.__instancecheck__)
ANY = Domain("a JSON value", lambda value: True)


def integer(minimum: int, maximum: float = math.inf) -> Domain:
    """An integer ``>= minimum`` (and ``<= maximum`` when given)."""
    bound = f"in [{minimum}, {maximum}]" if maximum < math.inf else f">= {minimum}"
    return Domain(
        "an integer", _is_integer, f"an integer {bound}", lambda v: minimum <= v <= maximum
    )


def number(
    low: float = -math.inf,
    high: float = math.inf,
    *,
    low_open: bool = False,
    high_open: bool = False,
    cast: Callable[[Any], Any] | None = None,
) -> Domain:
    """A finite number within ``low`` and ``high`` (each end closed unless open)."""
    if high < math.inf:
        bound = f"a number in {'(['[not low_open]}{low}, {high}{')]'[not high_open]}"
    else:
        bound = f"a finite number {'>' if low_open else '>='} {low}" if low > -math.inf else None
    above = low.__lt__ if low_open else low.__le__
    below = high.__gt__ if high_open else high.__ge__

    def within(value: Any) -> bool:
        return above(value) and below(value) and math.isfinite(value)

    return Domain("a number", _is_number, bound or "a finite number", within, cast)


def choice(*values: str) -> Domain:
    """One of the given strings."""
    bound = "one of " + ", ".join(map(repr, values))
    return Domain("a string", STRING.accepts, bound, values.__contains__)


@dataclass
class Field:
    """One declared field: its JSON key, codec and flags.

    ``required`` refuses an absent key (``<path>: missing '<key>'``) and
    ``nullable`` lets ``null`` through.  An absent field is not passed to the
    built type, so the type's own default applies; ``default`` names it for a
    type without one.  ``omit`` leaves the field out of the encoding when it
    equals its default; an ``ignored`` (legacy) key is read and checked but
    neither built nor written.  ``attr`` is the type's attribute or keyword
    (the key by default); ``get`` reads the value to encode instead.
    """

    key: str
    codec: Any
    required: bool = False
    nullable: bool = False
    omit: bool = False
    ignored: bool = False
    attr: str = ""
    get: Callable[[Any], Any] | None = None
    default: Any = ABSENT

    def __post_init__(self) -> None:
        self.attr = self.attr or self.key

    def decode(self, value: Any, path: Any) -> Any:
        return None if value is None and self.nullable else self.codec.decode(value, path)

    def encode(self, value: Any) -> Any:
        return None if value is None else self.codec.encode(value)


class Doc:
    """A nested document: declared fields that build one type.

    ``build`` receives every present, non-ignored field as a keyword; a
    ``TypeError`` or ``ValueError`` it raises is named by the document's path.
    ``header`` holds the ``kind`` and version keys a top-level document starts
    with, and ``versions`` every version it reads (:func:`check_header`).
    """

    def __init__(
        self,
        build: Callable[..., Any],
        fields: Sequence[Field],
        *,
        header: Mapping[str, Any] | None = None,
        versions: Sequence[int] | None = None,
    ) -> None:
        self.build, self.fields, self.header = build, tuple(fields), dict(header or {})
        self.versions = versions
        if dataclasses.is_dataclass(build):
            for item in dataclasses.fields(build):
                factory = item.default_factory
                default = item.default if factory is dataclasses.MISSING else factory()
                for field in self.fields:
                    if field.attr == item.name and default is not dataclasses.MISSING:
                        field.default = default
        self.encode = self._encoder([item for item in self.fields if not item.ignored])
        # A plain scalar is decoded by its kind check alone.
        self._decoders = [(item, _plain(item.codec) and item.codec.accepts) for item in self.fields]

    def __getitem__(self, key: str) -> Field:
        return next(item for item in self.fields if item.key == key)

    def domain(self, path: str) -> Domain:
        """The codec at a dotted ``path`` below this document (``"rounding.c"``)."""
        head, _, rest = path.partition(".")
        return self[head].codec.domain(rest) if rest else self[head].codec

    @property
    def defaults(self) -> dict[str, Any]:
        """Each field's default, by key, for the fields that have one."""
        fields = [item for item in self.fields if item.default is not ABSENT]
        return {item.key: item.default for item in fields}

    def options(self, options: Mapping[str, Any], owner: str, **extra: Any) -> dict[str, Any]:
        """Keyword options decoded over this table's defaults (and ``extra``'s): an
        unknown key or a value outside its domain is a ``ValueError`` naming it."""
        defaults = {**self.defaults, **extra}
        unknown, accepted = sorted(set(options) - set(defaults)), sorted(defaults)
        if unknown:
            raise ValueError(f"unknown option(s) {unknown} for {owner} (accepted: {accepted})")
        return {**defaults, **options, **self.decode(options, "options")}

    def values(self, data: Any, path: Any) -> dict[str, Any]:
        """The decoded present fields of ``data``, by ``Field.attr``."""
        if self.header:
            check_header(data, self.header, self.versions, render(path))
        elif not isinstance(data, dict):
            raise DocumentError(f"{render(path)} must be an object, got {type(data).__name__}")
        values = {}
        for item, accepts in self._decoders:
            if item.key in data:
                value = data[item.key]
                if not (accepts and accepts(value)):
                    value = item.decode(value, (path, item.key))
                if not item.ignored:
                    values[item.attr] = value
            elif item.required:
                where = f"{render(path)}: " if render(path) else ""
                raise DocumentError(f"{where}missing {item.key!r}")
        return values

    def decode(self, data: Any, path: Any = "") -> Any:
        values = self.values(data, path)
        try:
            return self.build(**values)
        except DocumentError:
            raise
        except (TypeError, ValueError) as error:
            raise DocumentError(f"{render(path)}: {error}") from None

    def _encoder(self, written: list[Field]) -> Callable[[Any], dict[str, Any]]:
        """Encode an object as this document.  The encoder is one dict display
        compiled from the declaration (as ``collections.namedtuple`` compiles
        its class), so a table row costs what a hand-written encoder costs."""
        namespace: dict[str, Any] = {}
        entries = [f"{key!r}: {value!r}" for key, value in self.header.items()]
        for at, item in enumerate(written):
            encode = item.encode if item.nullable else item.codec.encode
            namespace[f"get{at}"], namespace[f"encode{at}"] = item.get, encode
            value = f"obj.{item.attr}" if item.get is None else f"get{at}(obj)"
            scalar = isinstance(item.codec, Domain)
            entries.append(f"{item.key!r}: {value if scalar else f'encode{at}({value})'}")
        exec(f"def encode(obj):\n    return {{{', '.join(entries)}}}", namespace)
        omitted = [(item.key, item.encode(item.default)) for item in written if item.omit]
        if not omitted:
            return namespace["encode"]

        def encode(obj: Any) -> dict[str, Any]:
            document = namespace["encode"](obj)
            for key, default in omitted:
                if document[key] == default:
                    del document[key]
            return document

        return encode


class MapOf:
    """A collection keyed by name: a JSON object of ``codec`` values.

    ``pairs`` keys it by a name pair, written as ``[name, name, value]`` rows;
    ``sort`` writes the entries in key order, else in the mapping's order.
    """

    def __init__(self, codec: Any, *, pairs: bool = False, sort: bool = False) -> None:
        self.codec, self.pairs, self.sort, self._plain = codec, pairs, sort, _plain(codec)

    def decode(self, value: Any, path: Any) -> dict:
        kind = list if self.pairs else dict
        if not isinstance(value, kind):
            noun = "a list" if self.pairs else "an object"
            raise DocumentError(f"{render(path)} must be {noun}, got {type(value).__name__}")
        if not self.pairs:
            if self._plain and all(map(self.codec.accepts, value.values())):
                return dict(value)
            return {key: self.codec.decode(item, (path, key)) for key, item in value.items()}
        if self._plain and all(
            type(row) is list
            and len(row) == 3
            and type(row[0]) is type(row[1]) is str
            and self.codec.accepts(row[2])
            for row in value
        ):
            return {(first, second): item for first, second, item in value}
        decoded = {}
        for index, row in enumerate(value):
            if not isinstance(row, list) or len(row) != 3:
                raise DocumentError(f"{render((path, index))} must be a [name, name, value] row")
            where = (path, index)
            names = (STRING.decode(row[0], (where, 0)), STRING.decode(row[1], (where, 1)))
            decoded[names] = self.codec.decode(row[2], (where, 2))
        return decoded

    def encode(self, value: Any) -> Any:
        items = (value if isinstance(value, Mapping) else dict(value)).items()
        if self.sort:
            items = sorted(items)
        if isinstance(self.codec, Domain):
            return [[*key, item] for key, item in items] if self.pairs else dict(items)
        return {key: self.codec.encode(item) for key, item in items}

    def domain(self, path: str) -> Domain:
        return self.codec.domain(path)


class Rows:
    """A collection in order: a JSON list of ``codec`` entries.  ``or_single``
    also takes one bare entry for the list (``scenarios: "all"``)."""

    def __init__(self, codec: Any, *, or_single: bool = False) -> None:
        self.codec, self.or_single, self._plain = codec, or_single, _plain(codec)

    def decode(self, value: Any, path: Any) -> Any:
        if self.or_single and self.codec.accepts(value):
            return value
        if not isinstance(value, (list, tuple)):
            kind = f"a list or {self.codec.kind}" if self.or_single else "a list"
            raise DocumentError(f"{render(path)} must be {kind}, got {type(value).__name__}")
        if self._plain and all(map(self.codec.accepts, value)):
            return list(value)
        return [self.codec.decode(entry, (path, index)) for index, entry in enumerate(value)]

    def encode(self, value: Any) -> Any:
        if self.or_single and self.codec.accepts(value):
            return value
        return list(map(self.codec.encode, value))

    def domain(self, path: str) -> Domain:
        return self.codec.domain(path)


def check_header(
    data: Any, header: Mapping[str, Any], versions: Sequence[int] | None = None, path: str = ""
) -> None:
    """Check a document's ``kind`` and version keys against ``header`` (the
    version written there, or any of ``versions``); errors are named by ``path``."""
    where = f"{path}: " if path else ""
    if not isinstance(data, dict):
        raise DocumentError(f"{where}document must be a JSON object")
    kind, key = header["kind"], next(key for key in header if key != "kind")
    if data.get("kind") != kind:
        raise DocumentError(f"{where}expected a {kind!r} document, got {data.get('kind')!r}")
    accepted = tuple(versions or (header[key],))
    if data.get(key) not in accepted:
        found, readable = data.get(key), "/".join(map(str, accepted))
        raise DocumentError(f"{where}unsupported {key} {found!r} (this build reads {readable})")
