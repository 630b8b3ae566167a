"""Partitioning internet-scale instances into ISP/metro shards.

A :class:`Partitioner` groups a problem's *sinks* into named groups; the
planner coalesces those groups into a target number of balanced shards, each
a :class:`Shard` record of names, and :func:`extract_shard_problem` cuts one
self-contained sub-:class:`~repro.core.problem.OverlayDesignProblem` per
shard from the problem's own rows.  Each shard problem contains

* the shard's sinks and their demands (every sink lands in exactly one shard,
  so the shard demand sets partition ``problem.demands``);
* *all* candidate reflectors of those demands -- including reflectors whose
  metro belongs to another shard.  Shards therefore see the full candidate
  weight their demands have globally (no artificial infeasibility), at the
  price of possibly over-committing shared reflectors; the stitch stage
  (:mod:`repro.scale.stitch`) reconciles that.

Built-in partitioners:

``metro``
    Groups sinks by their co-location prefix (``colo3-edge``,
    ``metro0042-s17``), the same naming convention
    :func:`repro.simulation.scenarios.infer_clusters` uses.
``isp``
    Groups sinks by the modal ISP *color* of their candidate reflectors
    (the Section-6.4 metadata carried by :mod:`repro.network.isp`).
``hash``
    Singleton groups (one per sink); the coalescing step then deals sinks
    round-robin into balanced shards.  The content-free fallback.
``auto``
    ``metro`` when the naming yields more than one cluster, else ``isp``
    when colors do, else ``hash``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Callable, Collection, Mapping

import numpy as np

from repro.analysis.runner import integer_option
from repro.core.index import ProblemIndex, group_order, problem_index
from repro.core.problem import OverlayDesignProblem

#: Hard ceiling on ``--shards auto`` (beyond this, per-shard overheads win).
AUTO_SHARD_CAP = 64


@dataclass(frozen=True)
class Partitioner:
    """A named strategy grouping sinks into labelled clusters."""

    name: str
    group_sinks: Callable[[OverlayDesignProblem], dict[str, list[str]]]
    description: str = ""


_PARTITIONERS: dict[str, Partitioner] = {}


def register_partitioner(partitioner: Partitioner) -> Partitioner:
    """Register a partitioner under its name (last registration wins)."""
    _PARTITIONERS[partitioner.name] = partitioner
    return partitioner


def get_partitioner(name: str) -> Partitioner:
    """Resolve a registered partitioner (raises ``KeyError`` when unknown)."""
    try:
        return _PARTITIONERS[name]
    except KeyError:
        known = ", ".join([*sorted(_PARTITIONERS), "auto"])
        raise KeyError(f"unknown partitioner {name!r} (known: {known})") from None


def _metro_groups(problem: OverlayDesignProblem) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for sink in problem.sinks:
        prefix = sink.split("-", 1)[0]
        groups.setdefault(prefix, []).append(sink)
    return groups


def _isp_groups(problem: OverlayDesignProblem) -> dict[str, list[str]]:
    index = problem_index(problem)
    # Colours count by label, so two colours with one str() are one group.
    labels = sorted({str(color) for color in index.colors})
    label_code = {label: code for code, label in enumerate(labels)}
    label_of = np.array([label_code[str(color)] for color in index.colors], dtype=np.int64)
    colour = index.color[index.candidate_reflector]
    coloured = colour >= 0
    sink = index.demand_sink[index.candidate_demand[coloured]]
    pairs, counts = np.unique(sink * len(labels) + label_of[colour[coloured]], return_counts=True)
    pair_sink, pair_label = np.divmod(pairs, max(len(labels), 1))
    # Modal label per sink; deterministic tie-break by label.
    order = np.lexsort((pair_label, -counts, pair_sink))
    first = np.ones(order.size, dtype=bool)
    first[1:] = pair_sink[order][1:] != pair_sink[order][:-1]
    modal = dict(zip(pair_sink[order][first].tolist(), pair_label[order][first].tolist()))
    groups: dict[str, list[str]] = {}
    for code, sink_name in enumerate(index.sinks):
        label = labels[modal[code]] if code in modal else "uncolored"
        groups.setdefault(label, []).append(sink_name)
    return groups


def _hash_groups(problem: OverlayDesignProblem) -> dict[str, list[str]]:
    return {sink: [sink] for sink in problem.sinks}


register_partitioner(
    Partitioner(
        "metro",
        _metro_groups,
        "group sinks by co-location name prefix (metro/colo clusters)",
    )
)
register_partitioner(
    Partitioner(
        "isp",
        _isp_groups,
        "group sinks by the modal ISP color of their candidate reflectors",
    )
)
register_partitioner(
    Partitioner("hash", _hash_groups, "balanced content-free sharding of sinks")
)


def _resolve_with_groups(
    problem: OverlayDesignProblem, partitioner: str | Partitioner
) -> tuple[Partitioner, dict[str, list[str]]]:
    """Resolve the partitioner and return its grouping in the same pass.

    The ``"auto"`` probe has to compute the candidate groupings anyway to
    decide, so callers on the hot path (:func:`build_partition`) reuse them
    instead of grouping twice.
    """
    if isinstance(partitioner, Partitioner):
        return partitioner, partitioner.group_sinks(problem)
    if partitioner != "auto":
        chosen = get_partitioner(partitioner)
        return chosen, chosen.group_sinks(problem)
    metro = get_partitioner("metro")
    groups = metro.group_sinks(problem)
    if len(groups) > 1:
        return metro, groups
    isp = get_partitioner("isp")
    groups = isp.group_sinks(problem)
    if len(groups) > 1:
        return isp, groups
    fallback = get_partitioner("hash")
    return fallback, fallback.group_sinks(problem)


def resolve_shard_count(shards: int | str | None, problem: OverlayDesignProblem) -> int:
    """Normalise a ``--shards`` value to a positive integer target.

    ``"auto"`` (or ``None``) targets roughly ``sqrt(n/2)`` shards capped at
    :data:`AUTO_SHARD_CAP` -- enough parallelism to matter while keeping each
    shard large enough that per-shard designs stay meaningful.
    """
    if shards is None or shards == "auto":
        return int(
            min(
                AUTO_SHARD_CAP,
                max(1, round(math.sqrt(problem.num_demands / 2.0))),
            )
        )
    shards = integer_option("shards", shards)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return min(shards, problem.num_sinks)


@dataclass(frozen=True)
class Shard:
    """One shard of a plan: its id, its sinks and the keys of its demands.

    A shard is a slice of the problem its plan is bound to, held as names;
    :func:`extract_shard_problem` cuts its subproblem from that problem.
    """

    shard_id: str
    sinks: list[str] = field(repr=False)
    demand_keys: list[tuple[str, str]] = field(repr=False)


@dataclass
class PartitionPlan:
    """The output of :func:`build_partition`: a balanced layout of shards.

    ``shard_of_sink`` maps each sink to its shard's position in ``shards``;
    plans rebound to a problem with the same sinks share it.  A plan holds
    names, and a memo of the last index :meth:`sink_shards` read.
    """

    partitioner: str
    requested_shards: int
    shards: list[Shard] = field(default_factory=list)
    shard_of_sink: dict[str, int] = field(default_factory=dict)
    #: ``(sinks, shard position per sink)`` of the last index asked.
    _sink_shard: tuple[list[str], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def positions(self) -> dict[str, int]:
        """``shard_of_sink``, or, for a plan assembled shard by shard, the same map
        built from its shards."""
        return self.shard_of_sink or {
            sink: at for at, shard in enumerate(self.shards) for sink in shard.sinks
        }

    def sink_shards(self, index: ProblemIndex) -> np.ndarray:
        """Per sink code of ``index``, its shard's position (-1 for a sink no shard has).

        Memoised for the index's sink list.
        """
        memo = self._sink_shard
        if memo is None or memo[0] is not index.sinks:
            positions = self.positions()
            shards = np.fromiter(map(positions.get, index.sinks, repeat(-1)), np.int64)
            memo = self._sink_shard = (index.sinks, shards)
        return memo[1]


def _coalesce_groups(
    groups: Mapping[str, list[str]], target: int
) -> list[list[str]]:
    """Deal labelled groups into ``target`` balanced bins (deterministic).

    Groups are kept whole (a metro never straddles shards); bins are filled
    greedily largest-group-first into the least-loaded bin, ties broken by
    bin index, so the layout is a pure function of the group sizes and labels.
    """
    ordered = sorted(groups.items(), key=lambda item: (-len(item[1]), item[0]))
    bins: list[list[str]] = [[] for _ in range(min(target, len(ordered)))]
    loads = [0] * len(bins)
    for _label, sinks in ordered:
        index = min(range(len(bins)), key=lambda i: (loads[i], i))
        bins[index].extend(sinks)
        loads[index] += len(sinks)
    return [sorted(b) for b in bins if b]


def extract_shard_problem(
    problem: OverlayDesignProblem,
    sinks: list[str],
    name: str,
    demand_keys: set[tuple[str, str]] | None = None,
    fanout_overrides: Mapping[str, int] | None = None,
    reflector_cost_overrides: Mapping[str, float] | None = None,
    stream_edge_cost_overrides: Mapping[tuple[str, str], float] | None = None,
) -> OverlayDesignProblem:
    """Cut the self-contained subproblem for one shard out of ``problem``.

    The subproblem keeps the shard's sinks and demands, every candidate
    reflector of those demands (with its full cost/fanout/color/capacity),
    and exactly the edges connecting them; weights, costs and thresholds are
    the parent's own, so a demand's feasible weight in the shard equals its
    feasible weight in the full problem.  The index picks the rows, and one
    bulk cut copies them (``OverlayDesignProblem._cut``): the subproblem
    equals, table for table, the one adding each kept row would build.

    The override knobs serve the incremental engine's *residual* subproblems
    (:mod:`repro.incremental`): ``demand_keys`` restricts the subproblem to
    the churn-affected subset of the shard's demands, ``fanout_overrides``
    substitutes the fanout budget left over by the assignments the engine
    keeps, and ``reflector_cost_overrides`` / ``stream_edge_cost_overrides``
    (keyed ``(stream, reflector)``) discount builds and stream deliveries
    the kept assignments already pay for -- sunk costs the warm-started
    re-solve should treat as free.  Override values are checked as
    ``add_reflector`` and ``add_stream_edge`` check them.
    """
    index = problem_index(problem)
    in_shard = np.zeros(len(index.sinks), dtype=bool)
    in_shard[[index.sink_code[sink] for sink in sinks if sink in index.sink_code]] = True
    demands = np.flatnonzero(in_shard[index.demand_sink])
    if demand_keys is not None:
        demands = demands[[index.keys[demand] in demand_keys for demand in demands.tolist()]]
    chosen = np.zeros(index.num_demands, dtype=bool)
    chosen[demands] = True
    streams = np.zeros(len(index.streams), dtype=bool)
    streams[index.demand_stream[demands]] = True
    reflectors = np.zeros(len(index.reflectors), dtype=bool)
    reflectors[index.candidate_reflector[chosen[index.candidate_demand]]] = True
    edges = np.flatnonzero(streams[index.edge_stream] & reflectors[index.edge_reflector])
    return problem._cut(
        name,
        streams=compress(index.streams, streams.tolist()),
        reflectors=compress(index.reflectors, reflectors.tolist()),
        sinks=map(index.sinks.__getitem__, np.flatnonzero(in_shard).tolist()),
        stream_edges=zip(
            map(index.streams.__getitem__, index.edge_stream[edges].tolist()),
            map(index.reflectors.__getitem__, index.edge_reflector[edges].tolist()),
        ),
        demands=map(index.keys.__getitem__, demands.tolist()),
        link_sinks=sinks,
        fanouts=fanout_overrides or {},
        reflector_costs=reflector_cost_overrides or {},
        stream_edge_costs=stream_edge_cost_overrides or {},
    )


def _bind_layout(
    problem: OverlayDesignProblem,
    partitioner: str,
    requested_shards: int,
    layout: list[tuple[str, list[str]]],
    shard_of_sink: dict[str, int],
    kept: Mapping[int, Shard] | None = None,
) -> PartitionPlan:
    """Bind a shard layout (``(shard_id, sinks)`` per shard) to ``problem``.

    Per-shard demand keys come out in ``problem.demands`` order from the
    problem's index; ``kept`` gives the shards carried over as they are (by
    position).
    """
    index = problem_index(problem)
    plan = PartitionPlan(
        partitioner=partitioner, requested_shards=requested_shards, shard_of_sink=shard_of_sink
    )
    shards = dict(kept or {})
    if len(shards) < len(layout):
        # One pass over every demand: its sink's shard, then a stable grouping.
        demand_shard = plan.sink_shards(index)[index.demand_sink]
        order = group_order(demand_shard, len(layout)).tolist()
        bounds = np.cumsum(np.bincount(demand_shard, minlength=len(layout))).tolist()
        keys = list(map(index.keys.__getitem__, order))
        for at, (start, stop) in enumerate(zip([0, *bounds], bounds)):
            if at not in shards:
                shard_id, sinks = layout[at]
                shards[at] = Shard(shard_id, sinks, keys[start:stop])
    plan.shards = [shards[at] for at in range(len(layout))]
    return plan


def build_partition(
    problem: OverlayDesignProblem,
    partitioner: str | Partitioner = "auto",
    shards: int | str | None = "auto",
) -> PartitionPlan:
    """Partition ``problem`` into balanced shards.

    The plan is a pure function of the problem and the two knobs -- no
    randomness, no environment dependence -- which is what makes the sharded
    pipeline deterministic regardless of ``--jobs``.  Raises ``ValueError``
    if the partitioner fails to cover every sink exactly once.  The plan
    holds names; callers cut the shard problems they design with
    :func:`extract_shard_problem`.
    """
    chosen, raw_groups = _resolve_with_groups(problem, partitioner)
    target = resolve_shard_count(shards, problem)
    groups = {label: sinks for label, sinks in raw_groups.items() if sinks}
    bins = _coalesce_groups(groups, target)
    shard_of_sink = {sink: at for at, sinks in enumerate(bins) for sink in sinks}
    placements = sum(map(len, bins))
    covered = shard_of_sink.keys() == problem_index(problem).sink_code.keys()
    if placements != problem.num_sinks or not covered:
        raise ValueError(
            f"partitioner {chosen.name!r} does not cover every sink exactly once "
            f"({placements} placements for {problem.num_sinks} sinks)"
        )
    width = len(str(max(len(bins) - 1, 1)))
    layout = [(f"shard{index:0{width}d}", sinks) for index, sinks in enumerate(bins)]
    return _bind_layout(problem, chosen.name, target, layout, shard_of_sink)


def rebind_partition(
    plan: PartitionPlan,
    problem: OverlayDesignProblem,
    changed_sinks: Collection[str] | None = None,
) -> PartitionPlan:
    """Re-attach an existing plan's shard layout to a changed problem.

    Sharding is a two-step process -- group sinks, then cut subproblems --
    and only the second step looks at links or costs.  When a delta leaves
    the *sink set* unchanged, the layout (shard ids, sink membership) stays
    valid, so a long-lived session can skip the grouping pass: per-shard
    ``demand_keys`` are those :func:`build_partition` would give the same
    layout, in ``problem.demands`` order.  Only the shards of
    ``changed_sinks`` -- the sinks whose demands the delta added or removed;
    ``None`` means any -- get their keys recomputed; the others keep
    ``plan``'s shards, key lists included.  Raises ``ValueError`` when the
    sink sets differ (callers should rebuild from scratch instead).

    The input plan is never mutated.
    """
    index = problem_index(problem)
    if plan.shard_of_sink.keys() != index.sink_code.keys():
        raise ValueError(
            "partition plan does not cover the problem's sink set "
            f"({len(plan.shard_of_sink)} plan sinks vs {problem.num_sinks} problem sinks); "
            "rebuild the partition instead of rebinding"
        )
    layout = [(shard.shard_id, shard.sinks) for shard in plan.shards]
    kept = {}
    if changed_sinks is not None:
        touched = {plan.shard_of_sink[sink] for sink in changed_sinks}
        kept = {at: shard for at, shard in enumerate(plan.shards) if at not in touched}
    return _bind_layout(
        problem,
        plan.partitioner,
        plan.requested_shards,
        layout,
        shard_of_sink=plan.shard_of_sink,
        kept=kept,
    )


__all__ = [
    "AUTO_SHARD_CAP",
    "PartitionPlan",
    "Partitioner",
    "Shard",
    "build_partition",
    "extract_shard_problem",
    "get_partitioner",
    "rebind_partition",
    "register_partitioner",
    "resolve_shard_count",
]
