"""Path-formulation rounding for the Section 6.3--6.5 extensions.

When the GAP conversion network carries *additional* constraints that bind
sets of edges together -- reflector->sink arc capacities (Section 6.3) or the
"color" / ISP-diversity constraints (Section 6.4) -- plain flow integrality is
lost: the paper's Figure 3 shows a network whose fractional max flow (3.5)
strictly exceeds its integral max flow (3) once an *entangled set* of edges is
given a joint capacity.  The paper's fix (Section 6.5) reformulates the
network LP over *paths* from the source to the level-4 boxes:

.. math::

    (i)\\;  \\sum_{p \\ni e} y_p \\le 4 u_e \\quad
    (ii)\\; \\sum_{p: s \\to b} y_p = 1 \\quad
    (iii)\\; \\sum_{p \\cap S_i \\ne \\emptyset} y_p \\le 4 u_i \\quad
    (iv)\\; \\sum_p c_p y_p \\le 2X

and applies the dependent-rounding theorem of Srinivasan and Teo to obtain an
integral path selection whose constraint violations are bounded by an additive
constant (translating into a multiplicative factor <= 7 on the constraints and
<= 14 on the cost).

Reproduction note
-----------------
Srinivasan--Teo's Theorem 2.2 is itself a rounding algorithm built on the
pessimistic-estimator method.  We implement the same *interface and
guarantee shape* with a simpler, empirically-verified scheme:

1. solve the path LP exactly (every s->box path in the Figure-2 network is a
   three-edge path, so the path set is small and enumerable);
2. sample exactly one path per box from the per-box distribution given by the
   LP values (this satisfies constraint (ii) by construction and every other
   constraint in expectation);
3. redraw (a bounded number of times) while any constraint is violated by
   more than the configured factor, and fall back to the best draw seen.

The T6 benchmark measures the resulting violation factors; across the
evaluation workloads they stay well inside the paper's constants (7 for
constraints, 14 for cost).  This substitution is recorded in DESIGN.md /
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.gap import WeightBox, build_boxes_for_demand
from repro.core.index import problem_index
from repro.core.lp_solution import AssignmentKey, RoundedSolution
from repro.core.problem import OverlayDesignProblem
from repro.lp import CompiledLP, LPBuildStats, Sense, SparseLPBuilder, solve_compiled

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class EntangledSet:
    """A set of assignment keys whose pair edges share a joint capacity.

    ``capacity`` is expressed in *assignment units* (x variables); a color
    constraint has capacity 1 (at most one reflector of the color serves the
    demand), an arc-capacity constraint has capacity ``u_ij``.
    """

    name: str
    keys: frozenset[AssignmentKey]
    capacity: float


@dataclass(frozen=True)
class BoxPath:
    """An s -> reflector -> pair -> box path in the Figure-2 network."""

    key: AssignmentKey  # (reflector, demand key)
    box_index: int
    cost: float
    weight: float


@dataclass
class PathRoundingResult:
    """Outcome of the path-based rounding.

    ``assignments`` is the final 0/1 pair selection; ``violation_factors``
    records, for every constraint family, the worst multiplicative violation
    of the *original* (un-inflated) capacities; ``lp_cost`` is the optimum of
    the path LP (the cost guarantee is measured against it).
    """

    assignments: set[AssignmentKey]
    chosen_paths: list[BoxPath]
    lp_cost: float
    cost: float
    violation_factors: dict[str, float] = field(default_factory=dict)
    attempts: int = 1
    boxes_total: int = 0
    boxes_served: int = 0


def color_entangled_sets(
    problem: OverlayDesignProblem, support: Sequence[AssignmentKey]
) -> list[EntangledSet]:
    """Entangled sets implementing the Section-6.4 color constraints.

    One set per (demand, color) with at least two candidate reflectors of that
    color in the support: the demand may be served by at most one of them.
    """
    sets: list[EntangledSet] = []
    by_demand: dict[tuple[str, str], dict[Hashable, list[AssignmentKey]]] = {}
    for key in support:
        reflector, demand_key = key
        color = problem.color(reflector)
        if color is None:
            continue
        by_demand.setdefault(demand_key, {}).setdefault(color, []).append(key)
    for demand_key, by_color in by_demand.items():
        for color, keys in by_color.items():
            if len(keys) >= 2:
                sets.append(
                    EntangledSet(
                        name=f"color[{color}]@{demand_key}",
                        keys=frozenset(keys),
                        capacity=1.0,
                    )
                )
    return sets


def arc_capacity_entangled_sets(
    problem: OverlayDesignProblem, support: Sequence[AssignmentKey]
) -> list[EntangledSet]:
    """Entangled sets implementing the Section-6.3 reflector->sink arc capacities."""
    sets: list[EntangledSet] = []
    by_arc: dict[tuple[str, str], list[AssignmentKey]] = {}
    for key in support:
        reflector, (sink, _stream) = key
        capacity = problem.arc_capacity(reflector, sink)
        if capacity is None:
            continue
        by_arc.setdefault((reflector, sink), []).append(key)
    for (reflector, sink), keys in by_arc.items():
        capacity = problem.arc_capacity(reflector, sink)
        assert capacity is not None
        sets.append(
            EntangledSet(
                name=f"arc[{reflector}->{sink}]",
                keys=frozenset(keys),
                capacity=capacity,
            )
        )
    return sets


def _enumerate_paths(
    problem: OverlayDesignProblem,
    rounded: RoundedSolution,
    keep_degenerate_box: bool,
) -> tuple[list[BoxPath], dict[tuple[str, str], list[WeightBox]]]:
    """All s->box paths implied by the rounded solution's support."""
    index = problem_index(problem)
    rows = index.rows
    by_demand: dict[tuple[str, str], list[tuple[str, float, float]]] = {}
    costs: dict[AssignmentKey, float] = {}
    for (reflector, demand_key), value in rounded.x.items():
        if value <= _MASS_TOL:
            continue
        position = index.position(index.demand_code[demand_key], reflector)
        costs[reflector, demand_key] = rows.cost[position]
        by_demand.setdefault(demand_key, []).append((reflector, rows.weight[position], value))

    paths: list[BoxPath] = []
    boxes_by_demand: dict[tuple[str, str], list[WeightBox]] = {}
    for demand_key, entries in by_demand.items():
        demand = index.demands[index.demand_code[demand_key]]
        boxes = build_boxes_for_demand(demand, entries, keep_degenerate_box)
        boxes_by_demand[demand_key] = boxes
        for reflector, weight, _value in entries:
            key: AssignmentKey = (reflector, demand_key)
            cost = costs[key]
            for box in boxes:
                if box.contains(weight):
                    paths.append(
                        BoxPath(key=key, box_index=box.index, cost=cost, weight=weight)
                    )
    return paths, boxes_by_demand


def _group_paths(
    paths: Sequence[BoxPath], key: Callable[[BoxPath], Hashable]
) -> dict[Hashable, list[int]]:
    """Path indices grouped by ``key(path)``, groups in first-appearance order."""
    groups: dict[Hashable, list[int]] = {}
    for idx, path in enumerate(paths):
        groups.setdefault(key(path), []).append(idx)
    return groups


def _add_path_rows(
    builder: SparseLPBuilder,
    name: str,
    groups: Sequence[list[int]],
    rhs: np.ndarray,
    sense: Sense,
) -> None:
    """One row per group: the sum of its paths' variables against ``rhs``.

    The path variables are the builder's only columns, so a path's index is
    its column.
    """
    sizes = [len(group) for group in groups]
    cols = np.fromiter(chain.from_iterable(groups), dtype=np.int64, count=sum(sizes))
    rows = np.repeat(np.arange(len(groups)), sizes)
    builder.add_block(name, rows, cols, np.ones(cols.size), rhs, sense)


def _build_path_lp(
    problem: OverlayDesignProblem,
    paths: Sequence[BoxPath],
    entangled_sets: Sequence[EntangledSet],
) -> tuple[CompiledLP, LPBuildStats]:
    """The path LP: constraints (i)-(iii), total path cost as the objective."""
    builder = SparseLPBuilder(name="gap-path-lp")
    columns = builder.add_variables(len(paths), 0.0, 1.0, name="y")
    # (iv) is folded into the objective: minimize total path cost.
    builder.add_objective_terms(columns, np.array([path.cost / 2.0 for path in paths]))

    # (ii) one unit of flow per box.
    by_box = _group_paths(paths, lambda path: (path.key[1], path.box_index))
    _add_path_rows(builder, "(ii) box", list(by_box.values()), np.ones(len(by_box)), Sense.EQ)

    # (i) pair-edge capacities: each pair may carry at most 2 half-unit paths.
    by_pair = _group_paths(paths, lambda path: path.key)
    _add_path_rows(
        builder, "(i) pair", list(by_pair.values()), np.full(len(by_pair), 2.0), Sense.LE
    )

    # (i) reflector fanout: at most 2 * F_i half-unit paths per reflector.
    by_reflector = _group_paths(paths, lambda path: path.key[0])
    _add_path_rows(
        builder,
        "(i) fanout",
        list(by_reflector.values()),
        np.array([2.0 * problem.fanout(reflector) for reflector in by_reflector]),
        Sense.LE,
    )

    # (iii) entangled sets: capacity in assignment units -> 2x in half units.
    # Sets none of whose pairs carries a path get no row.
    members = [
        [idx for key in entangled.keys for idx in by_pair.get(key, ())]
        for entangled in entangled_sets
    ]
    used = [(idxs, entangled) for idxs, entangled in zip(members, entangled_sets) if idxs]
    _add_path_rows(
        builder,
        "(iii) entangled",
        [idxs for idxs, _ in used],
        np.array([2.0 * entangled.capacity for _, entangled in used]),
        Sense.LE,
    )
    return builder.build()


def _solve_path_lp(
    problem: OverlayDesignProblem,
    paths: Sequence[BoxPath],
    entangled_sets: Sequence[EntangledSet],
) -> tuple[np.ndarray, float]:
    """Solve the path LP; returns the per-path fractional values and the optimum."""
    compiled, stats = _build_path_lp(problem, paths, entangled_sets)
    solution = solve_compiled(compiled, stats=stats)
    if not solution.is_optimal:
        raise ValueError(
            "path LP infeasible -- the extension constraints are too tight for "
            f"the rounded support ({solution.status.value})"
        )
    return solution.values, solution.objective


def _measure_violations(
    problem: OverlayDesignProblem,
    chosen: list[BoxPath],
    entangled_sets: Sequence[EntangledSet],
) -> dict[str, float]:
    """Worst multiplicative violations of the un-inflated constraints."""
    factors: dict[str, float] = {"fanout": 0.0, "pair": 0.0, "entangled": 0.0}
    # Fanout: assignments per reflector vs F_i.
    per_reflector: dict[str, set[tuple[str, str]]] = {}
    for path in chosen:
        per_reflector.setdefault(path.key[0], set()).add(path.key[1])
    for reflector, demand_keys in per_reflector.items():
        factors["fanout"] = max(
            factors["fanout"], len(demand_keys) / problem.fanout(reflector)
        )
    # Pair usage (a pair serving its demand counts once regardless of boxes).
    factors["pair"] = 1.0 if chosen else 0.0
    # Entangled sets: distinct pairs used per set vs capacity.
    used_pairs = {path.key for path in chosen}
    for entangled in entangled_sets:
        used = len(used_pairs & entangled.keys)
        if entangled.capacity > 0:
            factors["entangled"] = max(factors["entangled"], used / entangled.capacity)
    return factors


def path_round(
    problem: OverlayDesignProblem,
    rounded: RoundedSolution,
    entangled_sets: Sequence[EntangledSet] | None = None,
    rng: np.random.Generator | None = None,
    keep_degenerate_box: bool = True,
    max_attempts: int = 30,
    fanout_slack: float = 4.0,
    entangled_slack: float = 2.0,
) -> PathRoundingResult:
    """Round the remaining fractional assignments via the path formulation.

    Parameters
    ----------
    problem, rounded:
        Instance and Section-3 rounding output (as for :func:`repro.core.gap.gap_round`).
    entangled_sets:
        Joint-capacity constraints (Sections 6.3/6.4); build them with
        :func:`color_entangled_sets` / :func:`arc_capacity_entangled_sets`.
    rng:
        Random generator used for the per-box path sampling.
    keep_degenerate_box:
        See :mod:`repro.core.gap`.
    max_attempts:
        Number of redraws allowed while the violation thresholds are exceeded.
    fanout_slack, entangled_slack:
        Acceptance thresholds for the violation factors (the paper's analysis
        allows constants up to 7; the defaults are tighter because instances
        rarely need more).
    """
    entangled_sets = list(entangled_sets or [])
    if rng is None:
        rng = np.random.default_rng()

    paths, boxes_by_demand = _enumerate_paths(problem, rounded, keep_degenerate_box)
    boxes_total = sum(len(boxes) for boxes in boxes_by_demand.values())
    if not paths:
        return PathRoundingResult(
            assignments=set(),
            chosen_paths=[],
            lp_cost=0.0,
            cost=0.0,
            violation_factors={},
            boxes_total=boxes_total,
            boxes_served=0,
        )

    values, lp_cost = _solve_path_lp(problem, paths, entangled_sets)

    # Per-box categorical distributions.
    by_box = _group_paths(paths, lambda path: (path.key[1], path.box_index))

    def draw() -> list[BoxPath]:
        chosen: list[BoxPath] = []
        for box_key, idxs in by_box.items():
            probabilities = np.array([max(values[i], 0.0) for i in idxs])
            total = probabilities.sum()
            if total <= 0:
                continue
            probabilities = probabilities / total
            pick = rng.choice(len(idxs), p=probabilities)
            chosen.append(paths[idxs[pick]])
        return chosen

    best: tuple[list[BoxPath], dict[str, float]] | None = None
    best_score = float("inf")
    attempts_used = max_attempts
    for attempt in range(1, max_attempts + 1):
        chosen = draw()
        factors = _measure_violations(problem, chosen, entangled_sets)
        score = max(
            factors.get("fanout", 0.0) / fanout_slack,
            factors.get("entangled", 0.0) / entangled_slack if entangled_sets else 0.0,
        )
        if score <= 1.0 + 1e-9:
            attempts_used = attempt
            best = (chosen, factors)
            break
        if score < best_score:
            best_score = score
            best = (chosen, factors)
    assert best is not None
    chosen, factors = best

    assignments = {path.key for path in chosen}
    cost = 0.0
    demand_lookup = {demand.key: demand for demand in problem.demands}
    for key in assignments:
        reflector, demand_key = key
        cost += problem.assignment_cost(demand_lookup[demand_key], reflector)
    return PathRoundingResult(
        assignments=assignments,
        chosen_paths=chosen,
        lp_cost=lp_cost,
        cost=cost,
        violation_factors=factors,
        attempts=attempts_used,
        boxes_total=boxes_total,
        boxes_served=len({(p.key[1], p.box_index) for p in chosen}),
    )
