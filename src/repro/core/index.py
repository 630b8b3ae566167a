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
from bisect import bisect_left
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Hashable, Mapping, NamedTuple, Sequence

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
        self.reflectors = reflectors = problem.reflectors
        self.sinks = sinks = problem.sinks
        self.streams = streams = problem.streams
        self.demands = demands = problem.demands
        self.reflector_code = {name: code for code, name in enumerate(reflectors)}
        self.sink_code = {name: code for code, name in enumerate(sinks)}
        self.stream_code = {name: code for code, name in enumerate(streams)}
        self.keys: list[DemandKey] = [(demand.sink, demand.stream) for demand in demands]
        self.demand_code = {key: code for code, key in enumerate(self.keys)}
        n_reflectors, n_sinks, n_streams = len(reflectors), len(sinks), len(streams)
        n_demands = len(demands)

        # Reflectors: fanout (as float64, exact below 2**53) and colour codes
        # numbered in first-appearance order, as problem.colors() groups them.
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

        # Demands: sink and stream codes, W = -log(1 - Phi) as threshold_to_weight.
        self.demand_sink = np.array(
            [self.sink_code[sink] for sink, _stream in self.keys], dtype=np.int64
        )
        self.demand_stream = np.array(
            [self.stream_code[stream] for _sink, stream in self.keys], dtype=np.int64
        )
        thresholds = np.array([demand.success_threshold for demand in demands], dtype=float)
        self.demand_weight = _failure_to_weight(1.0 - thresholds, np.full(n_demands, MAX_WEIGHT))
        self.sink_demands = np.argsort(self.demand_sink, kind="stable")
        self.sink_demand_ptr = _csr_pointer(self.demand_sink, n_sinks)

        # Stream edges, in problem.stream_edges() order, and their (stream, reflector) table.
        edges = problem.stream_edges()
        self.edge_stream = np.array(
            [self.stream_code[edge.stream] for edge in edges], dtype=np.int64
        )
        self.edge_reflector = np.array(
            [self.reflector_code[edge.reflector] for edge in edges], dtype=np.int64
        )
        self.edge_loss = np.array([edge.loss_probability for edge in edges], dtype=float)
        self.stream_edge = np.full((n_streams, n_reflectors), -1, dtype=np.int64)
        self.stream_edge[self.edge_stream, self.edge_reflector] = np.arange(len(edges))

        # Delivery links, in delivery_link_data() order, and grouped by sink.
        # The index is the problem's own memo: it reads the link table in
        # place (delivery_link_data() order) instead of copying it as tuples.
        links = problem._delivery_links
        first, second = itemgetter(0), itemgetter(1)
        self.link_reflector = np.fromiter(
            map(self.reflector_code.__getitem__, map(first, links)), np.int64, len(links)
        )
        self.link_sink = np.fromiter(
            map(self.sink_code.__getitem__, map(second, links)), np.int64, len(links)
        )
        losses = list(map(first, links.values()))
        costs = list(map(second, links.values()))
        self.link_loss = np.array(losses, dtype=float)
        self.link_cost = np.array(costs, dtype=float)
        self.link_capacity = np.full(len(links), np.nan)
        overrides = problem.delivery_stream_cost_overrides()
        capacities = problem.arc_capacities()
        link_of = {key: link for link, key in enumerate(links)} if overrides or capacities else {}
        for key, capacity in capacities.items():
            self.link_capacity[link_of[key]] = capacity
        self.sink_links = np.argsort(self.link_sink, kind="stable")
        self.sink_link_ptr = _csr_pointer(self.link_sink, n_sinks)

        # Candidates: each demand's sink links whose reflector carries its stream.
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
        order = np.argsort(pair)
        self._pair_key = pair[order]
        self.candidate_demand = demand[keep][order]
        self.candidate_reflector = reflector[keep][order]
        self.candidate_link = link[keep][order]
        self.candidate_edge = edge[keep][order]
        self.candidate_ptr = _csr_pointer(self.candidate_demand, n_demands)

        # w_kij: serial loss rule, -log, capped at min(MAX_WEIGHT, W_kj).
        p1 = self.edge_loss[self.candidate_edge]
        p2 = self.link_loss[self.candidate_link]
        cap = self.demand_weight[self.candidate_demand]
        cap = np.where(cap < MAX_WEIGHT, cap, MAX_WEIGHT)
        self.candidate_weight = _failure_to_weight(p1 + p2 - p1 * p2, cap)

        # c^k_ij: the link's base cost unless the link overrides the stream.
        self.candidate_cost = self.link_cost[self.candidate_link]
        overridden = [
            (link_of[key] * n_streams + self.stream_code[stream], cost)
            for key, per_stream in overrides.items()
            for stream, cost in per_stream.items()
        ]
        if overridden:
            table, costs = (np.array(column) for column in zip(*sorted(overridden)))
            lookup = self.candidate_link * n_streams + self.demand_stream[self.candidate_demand]
            at = np.minimum(np.searchsorted(table, lookup), table.size - 1)
            hit = table[at] == lookup
            self.candidate_cost[hit] = costs[at[hit]]

        # Every layer shares these arrays: none may write to them.
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    # ------------------------------------------------------------------ sizes
    @property
    def num_demands(self) -> int:
        return len(self.demands)

    @property
    def num_candidates(self) -> int:
        return int(self.candidate_reflector.size)

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

    The memo lives on the problem and every ``add_*`` call clears it.  Two
    threads that build one problem's index at once both build the same
    index, and either may win the memo.
    """
    index = problem._index
    if index is None:
        index = problem._index = ProblemIndex(problem)
    return index


__all__ = ["Entries", "ProblemIndex", "Rows", "builtin_sums", "problem_index"]
