"""Cross-shard stitching: merge, reconcile shared reflectors, repair.

:func:`stitch_assignments` is the one stitch.  Every sharded design and every
incremental update ends in it (see :func:`repro.scale.pipeline.run_shard_loop`):
it takes one assignment map per shard -- freshly solved, carried over from a
standing design, or both -- and returns one design over the full problem.
Per-shard designs are independent, so the only global invariants that can
break when merging are the ones spanning shards:

* **reflector builds** -- two shards may both pay for the same reflector; the
  merged solution pays once (merging can only *reduce* total cost relative to
  the sum of shard costs).
* **fanout** -- shards see the full fanout budget of shared reflectors, so the
  merged load of a reflector can exceed what any single shard used.
  :func:`rebalance_fanout` walks overloaded reflectors deterministically and
  sheds load -- dropping redundant copies (the demand stays at or above its
  required weight) or moving assignments to under-loaded candidates -- until
  each reflector is back to ``max(F_r, its worst single-shard load)``.
* **weight** -- per-demand delivered weight is untouched by the merge (edge
  weights are copied verbatim into shards), so a demand's weight fraction
  after merging equals its shard value; the repair pass then tops up
  remaining shortfalls using *global* candidates, i.e. exactly the demands
  whose useful sources span shards.

The whole stage is deterministic: iteration orders are sorted, no randomness
is drawn, so stitching the same shard assignments always yields the same
merged design (the ``jobs``-independence guarantee of the sharded pipeline
rests on this).  :class:`StitchReport` counts what it did.

Every stitch starts from a :class:`ShardState`, the standing design's, and
leaves one on its report for the next: a shard whose map is ``None`` keeps
the standing design, and its loads, weight fractions and short demands come
from the state.  So the stitch walks only the shards solved again and the
demands the rebalance and the repair touch.  The state it leaves also
carries the unserved and colour-violation counts, updated from the lists it
replaced, so the design's audit is read off the state
(:meth:`ShardState.solution_audit`).  A first sharded design stitches
every shard solved from the empty design's state (:meth:`ShardState.empty`);
a standing design whose result carries no state gets one from
:meth:`ShardState.of`.  One stitch, whatever the caller.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.audit import SolutionAudit, _audit, _color_violations
from repro.core.algorithm import top_up_demands
from repro.core.index import DemandKey, ProblemIndex, builtin_sums, problem_index
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.scale.partition import PartitionPlan


@dataclass
class ShardState:
    """A stitched design as arrays over its problem's index, for the next stitch.

    Each assignment of the design is one entry: ``segment`` holds its demand
    code and ``reflector`` its reflector code (codes of ``index``, entries
    in no particular order); ``loads`` counts them per reflector code and
    ``pair_count`` per ``stream code * len(reflectors) + reflector code``.
    ``delivered[d]`` and ``fractions[d]`` are demand ``d``'s delivered weight
    and weight fraction; ``unserved_demands`` counts the demands with no
    reflector and ``color_violations`` the (demand, colour) pairs served by
    more than one reflector.  The design's audit is read off these
    (:meth:`solution_audit`), so it is never measured a second time.
    """

    solution: OverlaySolution
    index: ProblemIndex
    segment: np.ndarray
    reflector: np.ndarray
    loads: np.ndarray
    delivered: np.ndarray
    fractions: np.ndarray
    pair_count: np.ndarray
    unserved_demands: int
    color_violations: int

    @classmethod
    def empty(cls, problem: OverlayDesignProblem) -> ShardState:
        """The state of the design with no assignments, which a first design stitches from."""
        index = problem_index(problem)
        width = len(index.reflectors)
        nothing = np.zeros(0, dtype=np.int64)
        delivered = np.zeros(index.num_demands)
        return cls(
            solution=OverlaySolution(problem),
            index=index,
            segment=nothing,
            reflector=nothing,
            loads=np.zeros(width, dtype=np.int64),
            delivered=delivered,
            fractions=index.weight_fractions(delivered),
            pair_count=np.zeros(len(index.streams) * width, dtype=np.int64),
            unserved_demands=index.num_demands,
            color_violations=0,
        )

    @classmethod
    def of(cls, problem: OverlayDesignProblem, solution: OverlaySolution) -> ShardState:
        """The state of ``solution``, a design of ``problem``, in one pass over its lists.

        The state's design is the one a stitch would leave: the non-empty
        lists of ``problem``'s demands, sorted without repeats, and the builds
        and deliveries they use.
        """
        index = problem_index(problem)
        width = len(index.reflectors)
        design = OverlaySolution.from_assignments(
            problem,
            {
                key: reflectors
                for key, reflectors in solution.assignments.items()
                if reflectors and key in index.demand_code
            },
        )
        entries = index.entries(
            index.keys, [design.assignments.get(key, ()) for key in index.keys]
        )
        delivered = builtin_sums(
            entries.segment, index.candidate_weight[entries.position], index.num_demands
        )
        served = np.bincount(entries.segment, minlength=index.num_demands)
        return cls(
            solution=design,
            index=index,
            segment=entries.segment,
            reflector=entries.reflector,
            loads=np.bincount(entries.reflector, minlength=width),
            delivered=delivered,
            fractions=index.weight_fractions(delivered),
            pair_count=np.bincount(
                index.demand_stream[entries.segment] * width + entries.reflector,
                minlength=len(index.streams) * width,
            ),
            unserved_demands=int(np.count_nonzero(served == 0)),
            color_violations=_color_violations(index, entries.segment, entries.reflector),
        )

    def solution_audit(self) -> SolutionAudit:
        """The design's audit, read off the state: no pass over its lists.

        Equal to ``audit_solution(problem, solution)`` for the state's
        ``solution`` and its problem.
        """
        return _audit(
            self.solution.problem,
            self.solution,
            fractions=self.fractions,
            loads=self.loads,
            unserved=self.unserved_demands,
            color_violations=self.color_violations,
        )

    def unserved(self) -> list[DemandKey]:
        """The demands with no reflector."""
        served = np.bincount(self.segment, minlength=self.index.num_demands)
        return [self.index.keys[demand] for demand in np.flatnonzero(served == 0).tolist()]


def _pair_name(index: ProblemIndex, pair: int) -> tuple[str, str]:
    """The ``(stream, reflector)`` of a pair code (``stream * len(reflectors) + reflector``)."""
    stream, reflector = divmod(pair, len(index.reflectors))
    return index.streams[stream], index.reflectors[reflector]


def _updated(
    names: set, name: Callable[[int], Hashable], now: np.ndarray, before: np.ndarray
) -> set:
    """``names`` -- the names of the codes ``before`` counts -- for the counts ``now``."""
    names = set(names)
    for code in np.flatnonzero((now > 0) != (before > 0)).tolist():
        (names.add if now[code] else names.discard)(name(code))
    return names


@dataclass
class StitchReport:
    """What the stitch stage did, for result metadata and diagnostics.

    ``state`` describes the stitched design for the next stitch; it is not
    part of the metadata.
    """

    num_shards: int = 0
    overloaded_reflectors: int = 0
    assignments_dropped: int = 0
    assignments_moved: int = 0
    demands_repaired: int = 0
    unresolved_overloads: int = 0
    shard_max_fanout_factor: float = 0.0
    shard_min_weight_fraction: float = 1.0
    state: ShardState | None = field(default=None, compare=False, repr=False)

    def as_metadata(self) -> dict:
        """JSON-scalar view for ``DesignResult.metadata``."""
        return {
            "num_shards": self.num_shards,
            "stitch_overloaded_reflectors": self.overloaded_reflectors,
            "stitch_assignments_dropped": self.assignments_dropped,
            "stitch_assignments_moved": self.assignments_moved,
            "stitch_demands_repaired": self.demands_repaired,
            "stitch_unresolved_overloads": self.unresolved_overloads,
            "shard_max_fanout_factor": self.shard_max_fanout_factor,
            "shard_min_weight_fraction": self.shard_min_weight_fraction,
        }


def rebalance_fanout(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    max_shard_load: dict[str, int],
    report: StitchReport,
) -> OverlaySolution:
    """Shed cross-shard fanout overload without breaking demand weight.

    A reflector is *overloaded* when its merged load exceeds
    ``allowed(r) = max(F_r, max single-shard load of r)`` -- i.e. when merging
    made it worse than both its bound and its worst shard.  For each such
    reflector (sorted by name), assignments are visited in sorted demand-key
    order and either

    * **dropped**, when the demand's remaining weight still meets its
      requirement (redundant cross-shard copy), or
    * **moved** to the cheapest-per-weight alternative candidate with spare
      in-bound capacity that keeps the demand at or above the *minimum* of
      its requirement and its current delivered weight (so short demands are
      never made shorter).

    Whatever load cannot be shed this way is left in place (weight always
    wins over fanout, matching the paper's asymmetric guarantees) and counted
    in ``report.unresolved_overloads``.  Weights and costs come from the
    problem's index.  When no reflector is overloaded, ``solution`` itself is
    returned.
    """
    assignments = dict(solution.assignments)
    changed = _rebalance(problem, assignments, solution.fanout_loads(), max_shard_load, report)
    if not changed and not report.overloaded_reflectors:
        return solution
    return OverlaySolution.from_assignments(problem, assignments, metadata=dict(solution.metadata))


def _rebalance(
    problem: OverlayDesignProblem,
    assignments: dict[DemandKey, list[str]],
    load: Counter[str],
    max_shard_load: Mapping[str, int],
    report: StitchReport,
) -> set[DemandKey]:
    """:func:`rebalance_fanout` in place: ``assignments`` and ``load`` are
    updated (a changed list is replaced, never changed in place) and the
    keys whose lists changed are returned."""

    def allowed(reflector: str) -> int:
        return max(problem.fanout(reflector), max_shard_load.get(reflector, 0))

    overloaded = sorted(r for r, used in load.items() if used > allowed(r))
    report.overloaded_reflectors = len(overloaded)
    changed: set[DemandKey] = set()
    if not overloaded:
        return changed
    index = problem_index(problem)
    rows = index.rows
    # Only an overloaded reflector's serving keys are ever visited, and moves
    # never target one that is still waiting its turn (it has no spare load).
    serving_keys: dict[str, list[DemandKey]] = {reflector: [] for reflector in overloaded}
    for key, reflectors in assignments.items():
        for reflector in reflectors:
            if reflector in serving_keys:
                serving_keys[reflector].append(key)
    delivered: dict[DemandKey, float] = {}

    for reflector in overloaded:
        for key in sorted(serving_keys[reflector]):
            if load[reflector] <= allowed(reflector):
                break
            demand = index.demand_code[key]
            weight_here = rows.weight[index.position(demand, reflector)]
            required = rows.required[demand]
            if key not in delivered:
                delivered[key] = sum(
                    rows.weight[index.position(demand, r)] for r in assignments[key]
                )
            current = delivered[key]
            # Redundant copy: dropping it keeps the demand satisfied.
            if current - weight_here >= required - 1e-12:
                kept = list(assignments[key])
                kept.remove(reflector)
                assignments[key] = kept
                changed.add(key)
                load[reflector] -= 1
                delivered[key] = current - weight_here
                report.assignments_dropped += 1
                continue
            # Otherwise try to move the copy to a spare candidate.
            floor = min(required, current) - 1e-12
            first = rows.pointer[demand]
            alternatives = [
                (candidate, position)
                for position, candidate in enumerate(index.candidates(demand), first)
                if candidate != reflector
                and candidate not in assignments[key]
                and load[candidate] < allowed(candidate)
                and current - weight_here + rows.weight[position] >= floor
            ]
            if not alternatives:
                continue
            target, position = min(
                alternatives,
                key=lambda item: (
                    rows.cost[item[1]] / max(rows.weight[item[1]], 1e-12),
                    item[0],
                ),
            )
            kept = list(assignments[key])
            kept.remove(reflector)
            assignments[key] = sorted([*kept, target])
            changed.add(key)
            load[reflector] -= 1
            load[target] += 1
            delivered[key] = current - weight_here + rows.weight[position]
            report.assignments_moved += 1
        if load[reflector] > allowed(reflector):
            report.unresolved_overloads += 1
    return changed


def _measure(
    index: ProblemIndex, codes: np.ndarray, lists: Sequence[Sequence[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """Delivered weights and weight fractions of demands ``codes`` under ``lists``."""
    entries = index.entries([index.keys[demand] for demand in codes.tolist()], lists)
    delivered = builtin_sums(entries.segment, index.candidate_weight[entries.position], len(lists))
    return delivered, index.weight_fractions(delivered, codes)


def _codes(index: ProblemIndex, lists: Iterable[Sequence[str]]) -> np.ndarray:
    """The reflector codes of ``lists``, one after the other."""
    names = list(chain.from_iterable(lists))
    return np.fromiter(map(index.reflector_code.__getitem__, names), np.int64, len(names))


def stitch_assignments(
    problem: OverlayDesignProblem,
    plan: PartitionPlan,
    shard_assignments: Sequence[Mapping[DemandKey, list[str]] | None],
    fanout_slack: float = 4.0,
    standing: ShardState | None = None,
) -> tuple[OverlaySolution, StitchReport]:
    """Merge per-shard assignment maps and reconcile the cross-shard constraints.

    ``shard_assignments[i]`` is shard ``i``'s map; its keys must be demands
    of ``problem``, disjoint across shards.  Stages: merge (dedup builds) ->
    fanout rebalance (shed overload on shared reflectors) -> global repair
    (top up demands whose useful candidates span shards, within
    ``fanout_slack`` x fanout).  The report's per-shard statistics use the
    full problem's edge weights, which shard extraction copies verbatim, so
    they equal each shard's own view.  ``report.state`` describes the
    returned solution against the full problem, its audit's measures
    included, for the caller and the next stitch.

    ``standing`` is the :class:`ShardState` of the standing design (by
    default the empty design's).  A map may be ``None`` when ``standing`` is
    given: the shard keeps the standing design's lists for its demands,
    whose candidates and weights must be unchanged in ``problem``.  The
    result is the stitch of the maps such shards would hold, but Python work
    is per demand of the other shards and per demand the rebalance and the
    repair change; the rest is numpy over the standing state's arrays.
    """
    if len(shard_assignments) != plan.num_shards:
        raise ValueError(
            f"got {len(shard_assignments)} shard assignment maps "
            f"for {plan.num_shards} shards"
        )
    index = problem_index(problem)
    report = StitchReport(num_shards=plan.num_shards)
    width = len(index.reflectors)
    shard_of = plan.sink_shards(index)[index.demand_sink]
    # Per shard, whether it keeps the standing design; one more slot, never
    # keeping, for demands whose sink no shard has.
    keeps = np.array([assignments is None for assignments in shard_assignments] + [False])
    if standing is None:
        if keeps.any():
            raise ValueError("a shard keeps the standing design, but there is none")
        standing = ShardState.empty(problem)
    base, parent = standing.solution.assignments, index.codes_in(standing.index)
    # Whether the standing state's reflector and stream codes are this index's.
    same_codes = (
        standing.index.reflectors == index.reflectors and standing.index.streams == index.streams
    )
    # The demands whose standing lists carry over; every other one has its
    # shard map's list or none.  ``replaced`` keeps the standing list of
    # every demand whose list may change.
    carried = (parent >= 0) & keeps[shard_of]
    merged = dict(base)
    replaced: dict[DemandKey, list[str]] = {}
    rows = np.zeros((plan.num_shards, width), dtype=np.int64)
    for at, assignments in enumerate(shard_assignments):
        if assignments is not None:
            rows[at] = np.bincount(_codes(index, assignments.values()), minlength=width)
            for key, reflectors in assignments.items():
                if key in replaced or (carried[index.demand_code[key]] and base.get(key)):
                    raise ValueError(f"demand {key} appears in more than one shard solution")
                replaced[key] = base.get(key, [])
                merged[key] = sorted(set(reflectors))
    fresh = np.flatnonzero(~carried)
    given = [
        _given(shard_assignments, shard_of[demand], index.keys[demand])
        for demand in fresh.tolist()
    ]
    present = np.zeros(standing.index.num_demands, dtype=bool)
    present[parent[parent >= 0]] = True
    gone = [standing.index.keys[demand] for demand in np.flatnonzero(~present).tolist()]
    for key in chain((index.keys[demand] for demand in fresh.tolist()), gone):
        if key not in replaced:
            replaced[key] = base.get(key, [])
            merged.pop(key, None)

    # Per-shard statistics of the maps as given, the carried shards' from
    # the standing entries.
    delivered, fractions = np.zeros(index.num_demands), np.zeros(index.num_demands)
    delivered[fresh], fractions[fresh] = _measure(index, fresh, given)
    delivered[carried] = standing.delivered[parent[carried]]
    fractions[carried] = standing.fractions[parent[carried]]
    child = np.full(standing.index.num_demands, -1)
    child[parent[carried]] = np.flatnonzero(carried)
    entry_demand = child[standing.segment]
    entry_carried = entry_demand >= 0
    entry_demand = entry_demand[entry_carried]
    entry_reflector = standing.reflector[entry_carried]
    if not same_codes:
        entry_reflector = _reflector_codes(index, standing.index)[entry_reflector]
    rows += np.bincount(
        shard_of[entry_demand] * width + entry_reflector, minlength=rows.size
    ).reshape(rows.shape)
    used = rows > 0
    if used.any():
        factors = rows[used] / np.broadcast_to(index.fanout, rows.shape)[used]
        report.shard_max_fanout_factor = float(factors.max())
    if (shard_of >= 0).any():
        report.shard_min_weight_fraction = min(1.0, float(fractions[shard_of >= 0].min()))

    # Reconcile: the merged loads, the rebalance, then the repair.
    lists = (merged.get(key, ()) for key in replaced)
    load = np.bincount(_codes(index, lists), minlength=width)
    load += np.bincount(entry_reflector, minlength=width)
    worst = rows.max(axis=0, initial=0)
    load_of = dict(zip(index.reflectors, load.tolist()))
    changed: set[DemandKey] = set()
    if (load > np.maximum(index.fanout, worst)).any():
        max_shard_load = dict(zip(index.reflectors, worst.tolist()))
        changed = _rebalance(problem, merged, load_of, max_shard_load, report)
    again = [
        demand
        for demand, reflectors in zip(fresh.tolist(), given)
        if merged.get(index.keys[demand], []) != list(reflectors)
    ]
    changed_codes = index.demand_codes(list(changed))
    touched = np.union1d(fresh, changed_codes)
    _remeasure(index, np.union1d(again, changed_codes), merged, delivered, fractions)
    short = np.flatnonzero(fractions < 1.0 - 1e-12)
    metadata = {"algorithm": "sharded-stitch"}
    if short.size:
        metadata["repaired"] = True
        visit = np.flatnonzero(delivered < index.demand_weight - 1e-12)
        grown = top_up_demands(
            problem, merged, load_of, visit.tolist(), delivered[visit].tolist(), fanout_slack
        )
        for key in grown:
            merged[key] = sorted(set(merged[key]))
        grown_codes = index.demand_codes(grown)
        _remeasure(index, grown_codes, merged, delivered, fractions)
        touched = np.union1d(touched, grown_codes)
        report.demands_repaired = int(np.count_nonzero(fractions[short] >= 1.0 - 1e-12))

    # The stitched design, and its entries for the next stitch: the carried
    # demands' standing entries and the touched demands' lists.
    lists = [merged.get(index.keys[demand], ()) for demand in touched.tolist()]
    for demand in touched.tolist():
        replaced.setdefault(index.keys[demand], base.get(index.keys[demand], []))
    lengths = list(map(len, lists))
    segment = np.repeat(touched, lengths)
    reflector = _codes(index, lists)
    # Its counts: the standing design's, less those of the standing lists it
    # replaced, plus those of the touched demands' lists.
    former = [
        reflectors for key, reflectors in replaced.items() if key in standing.index.demand_code
    ]
    former_lengths = list(map(len, former))
    unserved = standing.unserved_demands + lengths.count(0) - former_lengths.count(0)
    violations = (
        standing.color_violations
        + _color_violations(index, segment, reflector)
        - _color_violations(
            index, np.repeat(np.arange(len(former)), former_lengths), _codes(index, former)
        )
    )
    untouched = np.ones(index.num_demands, dtype=bool)
    untouched[touched] = False
    kept = untouched[entry_demand]
    segment = np.concatenate([entry_demand[kept], segment])
    reflector = np.concatenate([entry_reflector[kept], reflector])
    loads = np.bincount(reflector, minlength=width)
    pair_count = np.bincount(
        index.demand_stream[segment] * width + reflector, minlength=len(index.streams) * width
    )
    pair_name = partial(_pair_name, index)
    if same_codes:
        built = _updated(
            standing.solution.built_reflectors, index.reflectors.__getitem__, loads, standing.loads
        )
        deliveries = _updated(
            standing.solution.stream_deliveries, pair_name, pair_count, standing.pair_count
        )
    else:
        built = {index.reflectors[code] for code in np.flatnonzero(loads).tolist()}
        deliveries = set(map(pair_name, np.flatnonzero(pair_count).tolist()))
    solution = OverlaySolution(
        problem=problem,
        built_reflectors=built,
        stream_deliveries=deliveries,
        assignments=merged,
        metadata=metadata,
    )
    report.state = ShardState(
        solution=solution,
        index=index,
        segment=segment,
        reflector=reflector,
        loads=loads,
        delivered=delivered,
        fractions=fractions,
        pair_count=pair_count,
        unserved_demands=unserved,
        color_violations=violations,
    )
    return solution, report


def _remeasure(
    index: ProblemIndex,
    codes: np.ndarray,
    merged: Mapping[DemandKey, Sequence[str]],
    delivered: np.ndarray,
    fractions: np.ndarray,
) -> None:
    """Measure the merged lists of demands ``codes`` into ``delivered`` and ``fractions``."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size:
        lists = [merged.get(index.keys[demand], ()) for demand in codes.tolist()]
        delivered[codes], fractions[codes] = _measure(index, codes, lists)


def _given(
    shard_assignments: Sequence[Mapping[DemandKey, list[str]] | None], at: int, key: DemandKey
) -> Sequence[str]:
    """``key``'s list in the map of shard ``at`` (none when the shard keeps the standing design)."""
    assignments = shard_assignments[at] if at >= 0 else None
    return () if assignments is None else assignments.get(key, ())


def _reflector_codes(index: ProblemIndex, other: ProblemIndex) -> np.ndarray:
    """Per reflector code of ``other``, the reflector's code in ``index``."""
    return np.array([index.reflector_code[name] for name in other.reflectors], np.int64)


__all__ = [
    "ShardState",
    "StitchReport",
    "rebalance_fanout",
    "stitch_assignments",
]
