"""The paper's algorithm, stage by stage: LP -> rounding -> GAP -> solution.

The algorithm follows the paper exactly:

1. build the Section-2 LP relaxation (:mod:`repro.core.formulation`) --
   optionally with the Section-6 extensions -- and solve it;
2. apply the Section-3 randomized rounding (:mod:`repro.core.rounding`),
   optionally redrawing until the weight / fanout audit accepts the draw;
3. apply the Section-5 modified-GAP rounding (:mod:`repro.core.gap`) to turn
   the remaining fractional assignment variables into a 0/1 solution;
4. assemble an :class:`repro.core.solution.OverlaySolution` and, optionally,
   run a greedy *repair* pass that tops up demands left short of their
   requirement using spare fanout ("heuristics based on the algorithm",
   Section 7).

The steps run in :class:`repro.api.DesignPipeline`, whose
:class:`~repro.api.PipelineContext` is the one record of a run (every
intermediate result and per-step wall-clock time); the registered
``"spaa03"`` designer (``repro.api.run_request``) is the one way to run them
end to end.  This module holds what the steps share: the
:class:`DesignParameters` knobs, the Section-7 repair pass and the LP-only
lower bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.formulation import ExtensionOptions, build_sparse_formulation
from repro.core.index import problem_index
from repro.core.problem import OverlayDesignProblem
from repro.core.rounding import RoundingParameters
from repro.core.solution import OverlaySolution


@dataclass
class DesignParameters:
    """Knobs of the full pipeline.

    Attributes
    ----------
    rounding:
        Parameters of the Section-3 randomized rounding (multiplier ``c``,
        target slack ``delta``, seed).
    extensions:
        Which Section-6 constraints to include in the LP.
    retry_rounding:
        Redraw the rounding until the audit accepts it (Monte Carlo -> Las
        Vegas); ``max_rounding_attempts`` bounds the redraws.
    max_rounding_attempts:
        Upper bound on redraws when ``retry_rounding`` is set.
    keep_degenerate_box:
        See :mod:`repro.core.gap`; keeping it True avoids leaving demands with
        less than one unit of fractional mass completely unserved.
    repair_shortfall:
        After the GAP stage, greedily add assignments (respecting a fanout
        slack of ``repair_fanout_slack``) for demands still below their
        required weight.  Off by default so that the measured guarantees are
        those of the paper's algorithm; examples enable it because a deployed
        system would.
    repair_fanout_slack:
        Fanout multiple the repair pass is allowed to use (4.0 matches the
        paper's final guarantee).
    seed:
        Convenience override for ``rounding.seed``.
    """

    rounding: RoundingParameters = field(default_factory=RoundingParameters)
    extensions: ExtensionOptions = field(default_factory=ExtensionOptions)
    retry_rounding: bool = True
    max_rounding_attempts: int = 20
    keep_degenerate_box: bool = True
    repair_shortfall: bool = False
    repair_fanout_slack: float = 4.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.seed is not None:
            self.rounding = RoundingParameters(
                c=self.rounding.c, delta=self.rounding.delta, seed=self.seed
            )


def repair_weight_shortfalls(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    fanout_slack: float = 4.0,
) -> OverlaySolution:
    """Greedy post-processing: top up demands that fall short of their weight.

    For every demand whose delivered weight is below its requirement, add the
    cheapest-per-weight unused candidate reflectors until the requirement is
    met or no reflector has spare (slackened) fanout.  This is the kind of
    practical heuristic layered on top of the approximation algorithm that the
    paper's Section 7 anticipates; the approximation guarantee is unaffected
    because assignments are only ever added within the already-allowed fanout
    slack.  A demand's delivered weight is summed over its assignment list in
    list order, with weights and costs from the problem's index.
    """
    index = problem_index(problem)
    assignments = dict(solution.assignments)
    load = Counter(chain.from_iterable(assignments.values()))
    # A demand's list changes only on its own turn, so every demand's weight
    # can be summed up front (in list order) and only the short ones visited.
    delivered = index.delivered(index.keys, [assignments.get(key, ()) for key in index.keys])
    short = np.flatnonzero(delivered < index.demand_weight - 1e-12)
    top_up_demands(
        problem, assignments, load, short.tolist(), delivered[short].tolist(), fanout_slack
    )
    repaired = OverlaySolution.from_assignments(
        problem, assignments, metadata=dict(solution.metadata)
    )
    repaired.metadata["repaired"] = True
    return repaired


def top_up_demands(
    problem: OverlayDesignProblem,
    assignments: dict[tuple[str, str], list[str]],
    load: Counter[str],
    demands: Sequence[int],
    delivered: Sequence[float],
    fanout_slack: float = 4.0,
) -> list[tuple[str, str]]:
    """The repair pass of :func:`repair_weight_shortfalls` over given short demands.

    ``demands`` are demand codes of the problem's index, in the order to
    visit them, with their delivered weights; ``load`` counts the
    assignments per reflector.  ``assignments`` and ``load`` are updated in
    place (a list that grows is replaced, never changed in place), and the
    keys whose lists grew are returned, in visiting order.
    """
    index = problem_index(problem)
    pointer = index.candidate_ptr

    def capacity_left(reflector: str) -> float:
        return fanout_slack * problem.fanout(reflector) - load[reflector]

    grown = []
    for demand, total in zip(demands, delivered):
        key = index.keys[demand]
        required = index.demand_weight[demand].item()
        current = set(assignments.get(key, []))
        rows = slice(pointer[demand], pointer[demand + 1])
        candidates = [
            (reflector, weight, cost)
            for reflector, weight, cost in zip(
                map(index.reflectors.__getitem__, index.candidate_reflector[rows].tolist()),
                index.candidate_weight[rows].tolist(),
                index.candidate_cost[rows].tolist(),
            )
            if reflector not in current and capacity_left(reflector) >= 1.0
        ]
        # Cheapest additional cost per unit of weight first.
        candidates.sort(key=lambda item: item[2] / max(item[1], 1e-12))
        for reflector, weight, _cost in candidates:
            if total >= required - 1e-12:
                break
            if not grown or grown[-1] != key:
                grown.append(key)
            assignments[key] = [*assignments.get(key, []), reflector]
            current.add(reflector)
            load[reflector] += 1
            total += weight
    return grown


def fractional_lower_bound(
    problem: OverlayDesignProblem,
    extensions: ExtensionOptions | None = None,
) -> float:
    """Solve only the LP relaxation and return its objective (the OPT lower bound)."""
    formulation = build_sparse_formulation(problem, extensions)
    lp_solution = formulation.solve()
    return formulation.fractional_solution(lp_solution).objective


__all__ = [
    "DesignParameters",
    "fractional_lower_bound",
    "repair_weight_shortfalls",
    "top_up_demands",
]
