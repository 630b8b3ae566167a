"""One array-backed index per problem: codes, candidates, weights and links.

Every layer that walks a whole problem -- the formulation's ``x`` support,
rounding, GAP, repair, the audit, the partition, the stitch and the
incremental engine -- reads the same derived tables.  :func:`problem_index`
computes them once per problem object and memoises the result on the problem
(``OverlayDesignProblem._index``), the way
:func:`repro.core.serialization.problem_digest` memoises ``_digest``: every
``add_*`` method clears it, and pickles and copies leave it out.

A :class:`ProblemIndex` holds

* int codes for reflectors, sinks and streams (registration order) and for
  demands (``problem.demands`` order);
* each demand's candidate reflectors as CSR (``candidate_ptr``), in
  :meth:`~repro.core.problem.OverlayDesignProblem.candidate_reflectors`
  order, with each candidate's capped weight ``w_kij``, delivery cost
  ``c^k_ij``, delivery link and stream edge;
* each demand's weight ``W_kj``;
* the reflectors' fanouts and colour codes;
* the delivery links in ``delivery_link_data`` order, and grouped by sink.

The numbers are the scalar accessors' numbers, bit for bit: the serial loss
rule runs as numpy float64 arithmetic (the same IEEE operations Python
performs), the logarithm is libm's ``math.log`` mapped over the values
(``np.log`` differs from it in the last bit on a fraction of inputs), and
every cap is the comparison ``min`` makes.  Per-demand sums go through
:func:`builtin_sums`, which rounds as the builtin ``sum`` over the same list
does.  The scalar accessors themselves never build the index, so code that
interleaves ``add_*`` calls with ``candidate_reflectors`` (the random
instance generator does) pays nothing for it.
"""

from __future__ import annotations

import math
import sys
import weakref
from bisect import bisect_left
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Collection, Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.weights import MAX_WEIGHT, MIN_FAILURE_PROBABILITY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import OverlayDesignProblem

DemandKey = tuple[str, str]

#: The builtin ``sum`` adds floats one at a time, left to right, up to Python
#: 3.11; from 3.12 on it carries a compensation term (Neumaier).
#: ``np.bincount`` adds in input order, so it stands in for the builtin only
#: where the builtin is sequential.
_SUM_IS_SEQUENTIAL = sys.version_info < (3, 12)


def group_order(codes: np.ndarray, size: int) -> np.ndarray:
    """The stable order that groups entries by ``codes`` (each below ``size``).

    numpy sorts 16-bit keys stably by radix, several times faster than
    its timsort of the same keys as int64; the order is the same.
    """
    if size <= 1 << 16:
        codes = codes.astype(np.uint16)
    return np.argsort(codes, kind="stable")


def _csr_pointer(codes: np.ndarray, size: int) -> np.ndarray:
    """Row pointer of the CSR that groups entries by ``codes`` (stable order)."""
    pointer = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=size), out=pointer[1:])
    return pointer


def _failure_to_weight(q: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """:func:`repro.core.weights.failure_to_weight` of every entry, bit for bit."""
    weight = cap.copy()
    live = q > MIN_FAILURE_PROBABILITY
    values = q[live].tolist()
    neg_log = -np.fromiter(map(math.log, values), float, len(values))
    live_cap = cap[live]
    # min(cap, x) keeps cap unless x is strictly smaller.
    weight[live] = np.where(neg_log < live_cap, neg_log, live_cap)
    return weight


def builtin_sums(segment: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Per-segment sums of ``values``, rounded as the builtin ``sum`` rounds.

    Entry ``i`` adds ``values[i]`` to segment ``segment[i]``; each segment's
    terms are added in input order, so a segment fed a demand's assignment
    list in list order gets ``sum(...)`` over that list.  Empty segments
    give 0.0.
    """
    if _SUM_IS_SEQUENTIAL:
        return np.bincount(segment, weights=values, minlength=count)
    rows: list[list[float]] = [[] for _ in range(count)]
    for row, value in zip(segment.tolist(), values.tolist()):
        rows[row].append(value)
    return np.array([sum(row) for row in rows], dtype=float)


class Rows(NamedTuple):
    """Python-list copies of the index's candidate CSR (see :attr:`ProblemIndex.rows`)."""

    pointer: list[int]
    reflector: list[int]
    weight: list[float]
    cost: list[float]
    required: list[float]


class Entries(NamedTuple):
    """Assignment lists flattened against an index (see :meth:`ProblemIndex.entries`)."""

    segment: np.ndarray
    reflector: np.ndarray
    position: np.ndarray


class IndexOrigin(NamedTuple):
    """How a problem was patched from a parent whose index was built.

    ``OverlayDesignProblem._patched`` leaves one on the copy it makes, and
    :func:`problem_index` derives the copy's index from ``parent`` with it
    (:meth:`ProblemIndex.derived`).  ``stream_edges``, ``links`` and
    ``demands`` hold the keys of the entries the patch set or removed, and
    ``canonical`` whether the parent's tables were in canonical order.
    """

    parent: "ProblemIndex"
    canonical: bool
    stream_edges: Collection[tuple[str, str]]
    links: Collection[tuple[str, str]]
    demands: Collection[DemandKey]


def _codes(code: Mapping, names: Iterable, count: int) -> np.ndarray:
    """``code[name]`` of each of ``count`` names, -1 where a name has no code."""
    return np.fromiter(map(code.get, names, repeat(-1)), np.int64, count)


def _is_identity(codes: np.ndarray) -> bool:
    return bool((codes == np.arange(codes.size)).all())


_first, _second = itemgetter(0), itemgetter(1)

#: The tables a delta never changes (it changes no reflector and no stream),
#: and the stream-edge tables, which only its stream-edge entries change.
_REFLECTOR_TABLES = (
    "reflectors",
    "streams",
    "reflector_code",
    "stream_code",
    "fanout",
    "color",
    "colors",
)
_EDGE_TABLES = ("edge_stream", "edge_reflector", "edge_loss", "stream_edge")


class ProblemIndex:
    """Array-backed view of one problem (see the module notes).

    The index belongs to the problem it was built from and every layer that
    reads the problem shares it, so its arrays are read-only.  Codes are
    positions: ``reflectors[code]``, ``sinks[code]``, ``streams[code]``,
    ``demands[code]``.  Candidate ``p`` of demand ``d`` lives at
    ``candidate_ptr[d] <= p < candidate_ptr[d + 1]``; within a demand the
    candidates ascend by reflector code.  Links are numbered in
    ``problem.delivery_link_data()`` order; the links of sink ``k`` are
    ``sink_links[sink_link_ptr[k]:sink_link_ptr[k + 1]]``, in that order.
    """

    def __init__(self, problem: OverlayDesignProblem) -> None:
        self._set_reflectors(problem)
        self.sinks = sinks = problem.sinks
        self.sink_code = dict(zip(sinks, range(len(sinks))))
        self._set_demands(problem)
        keys, n_demands = self.keys, len(self.keys)
        self.demand_sink = _codes(self.sink_code, map(_first, keys), n_demands)
        self.demand_stream = _codes(self.stream_code, map(_second, keys), n_demands)
        thresholds = np.array([demand.success_threshold for demand in self.demands], dtype=float)
        self.demand_weight = _failure_to_weight(1.0 - thresholds, np.full(n_demands, MAX_WEIGHT))
        self._group_demands()
        self._set_edges(problem)

        # Delivery links, in delivery_link_data() order, and grouped by sink.
        # The index is the problem's own memo: it reads the link table in
        # place (delivery_link_data() order) instead of copying it as tuples.
        links = problem._delivery_links
        self.link_reflector = _codes(self.reflector_code, map(_first, links), len(links))
        self.link_sink = _codes(self.sink_code, map(_second, links), len(links))
        self.link_loss = np.array(list(map(_first, links.values())), dtype=float)
        self.link_cost = np.array(list(map(_second, links.values())), dtype=float)
        self.link_capacity = np.full(len(links), np.nan)
        overrides, capacities = problem._delivery_stream_costs, problem._arc_capacity
        link_of = dict(zip(links, range(len(links)))) if overrides or capacities else {}
        for key, capacity in capacities.items():
            self.link_capacity[link_of[key]] = capacity
        self._group_links()
        self._set_candidates()
        self.candidate_weight = _failure_to_weight(*self._weight_inputs())
        self.candidate_cost = self._overridden(
            self.link_cost[self.candidate_link], overrides, link_of
        )
        self._freeze()

    @classmethod
    def derived(cls, problem: OverlayDesignProblem, origin: IndexOrigin) -> ProblemIndex:
        """The index of ``problem``, patched from ``origin.parent``: bit for bit a fresh one.

        ``problem`` must be canonical and differ from the parent only in the
        entries and sinks ``origin`` names (a delta changes no stream and no
        reflector).  Tables the patch left alone are shared with the parent;
        the rest carry the parent's entries over by key, re-sorted by numpy,
        so Python work is per named entry.  A candidate keeps the parent's
        cost when its link was not named, and its weight when, moreover, its
        two losses and its cap are the parent's.
        """
        parent = origin.parent
        self = cls.__new__(cls)
        if origin.canonical:
            for name in _REFLECTOR_TABLES:
                setattr(self, name, getattr(parent, name))
        else:
            self._set_reflectors(problem)
        if origin.canonical and not origin.stream_edges:
            for name in _EDGE_TABLES:
                setattr(self, name, getattr(parent, name))
        else:
            self._set_edges(problem)
        n_reflectors = len(self.reflectors)
        reflector_map = _codes(self.reflector_code, parent.reflectors, len(parent.reflectors))
        stream_map = _codes(self.stream_code, parent.streams, len(parent.streams))

        # Sinks and demands: shared when the patch kept their key sets.
        sinks = problem.sinks
        if sinks == parent.sinks:
            self.sinks, self.sink_code = parent.sinks, parent.sink_code
        else:
            self.sinks, self.sink_code = sinks, dict(zip(sinks, range(len(sinks))))
        sink_map = _codes(self.sink_code, parent.sinks, len(parent.sinks))
        self._set_demands(problem, parent)
        keys, n_demands = self.keys, len(self.keys)
        if keys is parent.keys:
            demand_map = np.arange(n_demands)
        else:
            demand_map = _codes(parent.demand_code, keys, n_demands)
        self._parent, self._parent_demand = weakref.ref(parent), demand_map
        carried = np.flatnonzero(demand_map >= 0)
        new = np.flatnonzero(demand_map < 0).tolist()
        for name, codes, at, code in (
            ("demand_sink", sink_map, 0, self.sink_code),
            ("demand_stream", stream_map, 1, self.stream_code),
        ):
            column = getattr(parent, name)
            if keys is parent.keys and _is_identity(codes):
                setattr(self, name, column)
                continue
            values = np.empty(n_demands, dtype=np.int64)
            values[carried] = codes[column[demand_map[carried]]]
            values[new] = [code[keys[demand][at]] for demand in new]
            setattr(self, name, values)
        changed = sorted({*new, *map(self.demand_code.get, origin.demands)} - {None})
        weight = np.empty(n_demands)
        weight[carried] = parent.demand_weight[demand_map[carried]]
        thresholds = np.array([self.demands[demand].success_threshold for demand in changed])
        weight[changed] = _failure_to_weight(1.0 - thresholds, np.full(len(changed), MAX_WEIGHT))
        self.demand_weight = weight
        if self.demand_sink is parent.demand_sink:
            self.sink_demands, self.sink_demand_ptr = parent.sink_demands, parent.sink_demand_ptr
        else:
            self._group_demands()

        # Links: the parent's less the named ones, plus the named ones the
        # patch set, in the canonical (reflector, sink) order.
        parent_width, width = max(len(parent.sinks), 1), max(len(sinks), 1)
        parent_pair = parent.link_reflector * parent_width + parent.link_sink
        by_pair = np.argsort(parent_pair, kind="stable")
        named = np.array(
            [
                parent.reflector_code[reflector] * parent_width + parent.sink_code[sink]
                for reflector, sink in origin.links
                if reflector in parent.reflector_code and sink in parent.sink_code
            ],
            dtype=np.int64,
        )
        kept = np.ones(parent_pair.size, dtype=bool)
        if named.size and parent_pair.size:
            at = np.minimum(np.searchsorted(parent_pair[by_pair], named), parent_pair.size - 1)
            kept[by_pair[at[parent_pair[by_pair[at]] == named]]] = False
        table, capacities = problem._delivery_links, problem._arc_capacity
        added = [key for key in origin.links if key in table]
        carried_links = np.flatnonzero(kept)
        pair = np.concatenate(
            [
                reflector_map[parent.link_reflector[carried_links]] * width
                + sink_map[parent.link_sink[carried_links]],
                np.array(
                    [self.reflector_code[r] * width + self.sink_code[k] for r, k in added],
                    dtype=np.int64,
                ),
            ]
        )
        order = np.argsort(pair, kind="stable")
        self.link_reflector, self.link_sink = np.divmod(pair[order], width)
        for name, column in (
            ("link_loss", [table[key][0] for key in added]),
            ("link_cost", [table[key][1] for key in added]),
            ("link_capacity", [capacities.get(key, np.nan) for key in added]),
        ):
            inherited = getattr(parent, name)[carried_links]
            values = np.concatenate([inherited, np.array(column, dtype=float)])
            setattr(self, name, values[order])
        link_parent = np.concatenate([carried_links, np.full(len(added), -1)])[order]
        self._group_links()

        # Candidates: one numpy pass, then each candidate found in the parent
        # over an unnamed link keeps its cost, and its weight if its inputs match.
        self._set_candidates()
        q, cap = self._weight_inputs()
        reflector_back = _codes(parent.reflector_code, self.reflectors, n_reflectors)
        parent_demand = demand_map[self.candidate_demand]
        parent_key = parent_demand * max(len(parent.reflectors), 1) + reflector_back[
            self.candidate_reflector
        ]
        last = parent._pair_key.size - 1
        at = np.minimum(np.searchsorted(parent._pair_key, parent_key), max(last, 0))
        same = (parent_demand >= 0) & (link_parent[self.candidate_link] >= 0) & (last >= 0)
        same[same] = parent._pair_key[at[same]] == parent_key[same]
        parent_q, parent_cap = parent._weight_inputs()
        inherit = same.copy()
        inherit[same] = (q[same] == parent_q[at[same]]) & (cap[same] == parent_cap[at[same]])
        weight = np.empty(q.size)
        weight[inherit] = parent.candidate_weight[at[inherit]]
        weight[~inherit] = _failure_to_weight(q[~inherit], cap[~inherit])
        self.candidate_weight = weight
        cost = self.link_cost[self.candidate_link]
        cost[same] = parent.candidate_cost[at[same]]
        overrides = problem._delivery_stream_costs
        link_of = {}
        if overrides:
            for link in np.unique(self.candidate_link[~same]).tolist():
                key = (self.reflectors[self.link_reflector[link]], sinks[self.link_sink[link]])
                if key in overrides:
                    link_of[key] = link
        self.candidate_cost = self._overridden(
            cost, {key: overrides[key] for key in link_of}, link_of
        )
        self._freeze()
        return self

    # ---------------------------------------------------------- construction
    def _set_reflectors(self, problem: OverlayDesignProblem) -> None:
        """Names, codes, fanouts and colour codes of the reflectors and streams."""
        self.reflectors = reflectors = problem.reflectors
        self.streams = streams = problem.streams
        self.reflector_code = {name: code for code, name in enumerate(reflectors)}
        self.stream_code = {name: code for code, name in enumerate(streams)}
        # Fanout as float64 (exact below 2**53) and colour codes numbered in
        # first-appearance order, as problem.colors() groups them.
        infos = [problem.reflector_info(name) for name in reflectors]
        self.fanout = np.array([float(info.fanout) for info in infos])
        colour_code: dict[Hashable, int] = {}
        self.color = np.array(
            [
                -1 if info.color is None else colour_code.setdefault(info.color, len(colour_code))
                for info in infos
            ],
            dtype=np.int64,
        )
        self.colors: list[Hashable] = list(colour_code)

    def _set_demands(
        self, problem: OverlayDesignProblem, parent: ProblemIndex | None = None
    ) -> None:
        """The demands, their keys and codes (``parent``'s keys when they are equal)."""
        self.demands = problem.demands
        keys: list[DemandKey] = list(problem._demands)
        if parent is not None and keys == parent.keys:
            self.keys, self.demand_code = parent.keys, parent.demand_code
        else:
            self.keys = keys
            self.demand_code = dict(zip(keys, range(len(keys))))

    def _group_demands(self) -> None:
        self.sink_demands = group_order(self.demand_sink, len(self.sinks))
        self.sink_demand_ptr = _csr_pointer(self.demand_sink, len(self.sinks))

    def _set_edges(self, problem: OverlayDesignProblem) -> None:
        """Stream edges, in problem.stream_edges() order, and their (stream, reflector) table."""
        edges = problem.stream_edges()
        self.edge_stream = np.array(
            [self.stream_code[edge.stream] for edge in edges], dtype=np.int64
        )
        self.edge_reflector = np.array(
            [self.reflector_code[edge.reflector] for edge in edges], dtype=np.int64
        )
        self.edge_loss = np.array([edge.loss_probability for edge in edges], dtype=float)
        self.stream_edge = np.full((len(self.streams), len(self.reflectors)), -1, dtype=np.int64)
        self.stream_edge[self.edge_stream, self.edge_reflector] = np.arange(len(edges))

    def _group_links(self) -> None:
        self.sink_links = group_order(self.link_sink, len(self.sinks))
        self.sink_link_ptr = _csr_pointer(self.link_sink, len(self.sinks))

    def _set_candidates(self) -> None:
        """Each demand's sink links whose reflector carries its stream, as CSR."""
        n_demands, n_reflectors = len(self.keys), len(self.reflectors)
        per_demand = np.diff(self.sink_link_ptr)[self.demand_sink]
        demand = np.repeat(np.arange(n_demands), per_demand)
        first = np.repeat(np.cumsum(per_demand) - per_demand, per_demand)
        offset = np.arange(demand.size) - first
        link = self.sink_links[self.sink_link_ptr[self.demand_sink[demand]] + offset]
        reflector = self.link_reflector[link]
        edge = self.stream_edge[self.demand_stream[demand], reflector]
        keep = edge >= 0
        # Demand-major, then reflector code: candidate_reflectors order.
        pair = demand[keep] * max(n_reflectors, 1) + reflector[keep]
        demand, reflector, link, edge = demand[keep], reflector[keep], link[keep], edge[keep]
        if not (pair[1:] > pair[:-1]).all():
            # Pairs are unique: any sort gives the one ascending order.
            order = np.argsort(pair)
            pair, demand, reflector, link, edge = (
                pair[order], demand[order], reflector[order], link[order], edge[order]
            )
        self._pair_key = pair
        self.candidate_demand = demand
        self.candidate_reflector = reflector
        self.candidate_link = link
        self.candidate_edge = edge
        self.candidate_ptr = _csr_pointer(self.candidate_demand, n_demands)

    def _weight_inputs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per candidate, the path's failure probability (the serial loss rule)
        and the weight cap ``min(MAX_WEIGHT, W_kj)``: ``w_kij`` is a function of the two."""
        p1 = self.edge_loss[self.candidate_edge]
        p2 = self.link_loss[self.candidate_link]
        cap = self.demand_weight[self.candidate_demand]
        return p1 + p2 - p1 * p2, np.where(cap < MAX_WEIGHT, cap, MAX_WEIGHT)

    def _overridden(
        self,
        cost: np.ndarray,
        overrides: Mapping[tuple[str, str], Mapping[str, float]],
        link_of: Mapping[tuple[str, str], int],
    ) -> np.ndarray:
        """``cost`` with each candidate on an ``overrides`` link costed for its stream.

        ``c^k_ij`` is the link's base cost unless the link overrides stream
        ``k``; ``link_of`` gives each overriding link's number.
        """
        n_streams = len(self.streams)
        overridden = [
            (link_of[key] * n_streams + self.stream_code[stream], value)
            for key, per_stream in overrides.items()
            for stream, value in per_stream.items()
        ]
        if overridden:
            table, values = (np.array(column) for column in zip(*sorted(overridden)))
            lookup = self.candidate_link * n_streams + self.demand_stream[self.candidate_demand]
            at = np.minimum(np.searchsorted(table, lookup), table.size - 1)
            hit = table[at] == lookup
            cost[hit] = values[at[hit]]
        return cost

    def _freeze(self) -> None:
        # Every layer shares these arrays: none may write to them.
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    #: The index this one was derived from (a weak reference) and, per
    #: demand, its code there (-1 for a new demand).
    _parent: weakref.ref | None = None
    _parent_demand: np.ndarray | None = None

    def codes_in(self, other: ProblemIndex) -> np.ndarray:
        """Per demand, its code in ``other`` (-1 where ``other`` lacks it).

        Free when this index was derived from ``other``; otherwise one
        lookup per demand.
        """
        if other is self:
            return np.arange(self.num_demands)
        if self._parent is not None and self._parent() is other:
            return self._parent_demand
        return _codes(other.demand_code, self.keys, self.num_demands)

    # ------------------------------------------------------------------ sizes
    @property
    def num_demands(self) -> int:
        return len(self.demands)

    @property
    def nbytes(self) -> int:
        """Bytes held by the index's arrays (the name tables not included)."""
        return sum(value.nbytes for value in vars(self).values() if isinstance(value, np.ndarray))

    # ------------------------------------------------------------ row access
    @cached_property
    def rows(self) -> Rows:
        """The candidate CSR and the demand weights as Python lists, for scalar loops."""
        return Rows(
            pointer=self.candidate_ptr.tolist(),
            reflector=self.candidate_reflector.tolist(),
            weight=self.candidate_weight.tolist(),
            cost=self.candidate_cost.tolist(),
            required=self.demand_weight.tolist(),
        )

    def candidates(self, demand: int) -> list[str]:
        """Demand ``demand``'s candidate reflectors (``candidate_reflectors`` order)."""
        rows = self.rows
        codes = rows.reflector[rows.pointer[demand] : rows.pointer[demand + 1]]
        return [self.reflectors[code] for code in codes]

    def position(self, demand: int, reflector: str) -> int:
        """Candidate position of ``reflector`` for demand code ``demand``.

        Raises the ``KeyError`` that ``problem.edge_weight`` raises when the
        reflector is no candidate of the demand.
        """
        rows = self.rows
        code = self.reflector_code.get(reflector, -1)
        low, high = rows.pointer[demand], rows.pointer[demand + 1]
        at = bisect_left(rows.reflector, code, low, high)
        if at < high and rows.reflector[at] == code:
            return at
        raise self._missing(demand, reflector)

    def _missing(self, demand: int, reflector: str) -> KeyError:
        """The scalar path's error for a (demand, reflector) pair that is no candidate."""
        sink, stream = self.keys[demand]
        code = self.reflector_code.get(reflector)
        if code is None or self.stream_edge[self.stream_code[stream], code] < 0:
            return KeyError(f"no stream edge {stream!r} -> {reflector!r}")
        return KeyError(f"no delivery edge {reflector!r} -> {sink!r}")

    # ------------------------------------------------------------ flattening
    def entries(self, keys: Sequence[DemandKey], lists: Sequence[Sequence[str]]) -> Entries:
        """Flatten ``lists[i]`` (the reflectors serving ``keys[i]``) against the index.

        Entry ``j`` of the result is one assignment: ``segment`` is its
        ``i``, ``reflector`` its reflector code and ``position`` its
        candidate position.  Raises ``KeyError(key)`` for a key that is no
        demand of the problem, and the scalar path's ``KeyError`` (lowest
        demand code first) for a reflector that is no candidate.
        """
        codes = np.array([self.demand_code[key] for key in keys], dtype=np.int64)
        lengths = np.array([len(reflectors) for reflectors in lists], dtype=np.int64)
        names = list(chain.from_iterable(lists))
        get = self.reflector_code.get
        reflector = np.array([get(name, -1) for name in names], dtype=np.int64)
        segment = np.repeat(np.arange(len(keys)), lengths)
        demand = codes[segment]
        pair = demand * max(len(self.reflectors), 1) + reflector
        position = np.searchsorted(self._pair_key, pair)
        found = (reflector >= 0) & (position < self._pair_key.size)
        found[found] = self._pair_key[position[found]] == pair[found]
        if not found.all():
            missing = np.flatnonzero(~found)
            first = missing[np.argmin(demand[missing])]
            raise self._missing(int(demand[first]), names[first])
        return Entries(segment=segment, reflector=reflector, position=position)

    def delivered(self, keys: Sequence[DemandKey], lists: Sequence[Sequence[str]]) -> np.ndarray:
        """Per key, the capped weight its reflector list delivers (summed in list order)."""
        entries = self.entries(keys, lists)
        return builtin_sums(entries.segment, self.candidate_weight[entries.position], len(keys))

    def weight_fractions(
        self, delivered: np.ndarray, codes: np.ndarray | None = None
    ) -> np.ndarray:
        """``delivered / W`` per demand (``codes``, default all), 1.0 where ``W <= 0``.

        The vector form of ``OverlaySolution.weight_satisfaction``.
        """
        required = self.demand_weight if codes is None else self.demand_weight[codes]
        fractions = np.ones(len(required))
        np.divide(delivered, required, out=fractions, where=required > 0)
        return fractions

    def demand_codes(self, keys: Sequence[DemandKey]) -> np.ndarray:
        """Codes of demand ``keys`` (``KeyError(key)`` for a key that is no demand)."""
        return np.array([self.demand_code[key] for key in keys], dtype=np.int64)

    def weight_satisfaction(self, assignments: Mapping[DemandKey, Sequence[str]]) -> np.ndarray:
        """Every demand's delivered / required weight under ``assignments``, by code."""
        lists = [assignments.get(key, ()) for key in self.keys]
        return self.weight_fractions(self.delivered(self.keys, lists))


def problem_index(problem: OverlayDesignProblem) -> ProblemIndex:
    """The memoised :class:`ProblemIndex` of ``problem`` (built on first use).

    The memo lives on the problem and every ``add_*`` call clears it.  A
    problem ``repro.incremental.apply_delta`` patched from one whose index
    was built carries an :class:`IndexOrigin`, and its index is derived from
    the parent's (:meth:`ProblemIndex.derived`) instead of built from
    scratch.  Two threads that build one problem's index at once both build
    the same index, and either may win the memo.
    """
    index = problem._index
    if index is None:
        origin = problem._index_origin
        if origin is None:
            index = ProblemIndex(problem)
        else:
            index = ProblemIndex.derived(problem, origin)
        problem._index = index
        problem._index_origin = None
    return index


__all__ = [
    "Entries",
    "IndexOrigin",
    "ProblemIndex",
    "Rows",
    "builtin_sums",
    "group_order",
    "problem_index",
]
