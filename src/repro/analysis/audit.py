"""Constraint audits and checks of the paper's guarantees.

:func:`audit_solution` measures, for any integral design, how far each
constraint family of the Section-2 IP is from being satisfied;
:func:`check_paper_guarantees` specialises the audit to the exact guarantees
the paper proves for its algorithm (weight >= 1/4 of requirement, fanout <= 4x,
cost <= c log n x LP optimum) and returns a pass/fail verdict per guarantee.
These are the primitives behind the T1--T4 benchmarks and a large part of the
integration test suite.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.types import DesignResult

from repro.core.index import DemandKey, ProblemIndex, builtin_sums, problem_index
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution


class WeightFractions(Mapping):
    """Demand key -> weight fraction, read from one value per demand of an index.

    The audit's ``weight_fraction``: a read-only mapping in the index's
    demand order that costs nothing to make, so an audit read off a stitched
    design's state never copies a dict entry per demand.  It pickles as a
    plain dict.
    """

    def __init__(self, index: ProblemIndex, values: np.ndarray) -> None:
        values.flags.writeable = False
        self.index, self.array = index, values

    def __getitem__(self, key: DemandKey) -> float:
        return self.array[self.index.demand_code[key]].item()

    def __contains__(self, key: object) -> bool:
        return key in self.index.demand_code

    def __iter__(self) -> Iterator[DemandKey]:
        return iter(self.index.keys)

    def __len__(self) -> int:
        return len(self.index.keys)

    def values(self) -> list[float]:
        return self.array.tolist()

    def items(self) -> list[tuple[DemandKey, float]]:
        return list(zip(self.index.keys, self.array.tolist()))

    def __reduce__(self) -> tuple:
        return dict, (self.items(),)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass
class SolutionAudit:
    """Per-constraint-family violation measurements for an integral design.

    All "fractions"/"factors" are normalised so 1.0 means exactly tight:
    ``weight_fraction < 1`` is a shortfall, ``fanout_factor > 1`` an overload.
    """

    weight_fraction: Mapping[tuple[str, str], float] = field(default_factory=dict)
    fanout_factor: dict[str, float] = field(default_factory=dict)
    color_violations: int = 0
    arc_capacity_factor: dict[tuple[str, str], float] = field(default_factory=dict)
    unserved_demands: int = 0

    @property
    def min_weight_fraction(self) -> float:
        return min(self.weight_fraction.values()) if self.weight_fraction else 1.0

    @property
    def max_fanout_factor(self) -> float:
        return max(self.fanout_factor.values()) if self.fanout_factor else 0.0

    @property
    def max_arc_capacity_factor(self) -> float:
        return max(self.arc_capacity_factor.values()) if self.arc_capacity_factor else 0.0

    def summary(self) -> dict:
        return {
            "min_weight_fraction": self.min_weight_fraction,
            "max_fanout_factor": self.max_fanout_factor,
            "color_violations": self.color_violations,
            "max_arc_capacity_factor": self.max_arc_capacity_factor,
            "unserved_demands": self.unserved_demands,
        }


def audit_solution(problem: OverlayDesignProblem, solution: OverlaySolution) -> SolutionAudit:
    """Measure all constraint violations of an integral design against ``problem``.

    One pass over the assignments against the problem's index
    (:func:`repro.core.index.problem_index`) gives every demand's weight
    fraction, the fanout loads, the unserved count and the colour
    violations.  A stitched design's :class:`repro.scale.stitch.ShardState`
    carries these measures, and its audit is read off the state instead.
    """
    index = problem_index(problem)
    assignments = solution.assignments
    entries = index.entries(index.keys, [assignments.get(key, ()) for key in index.keys])
    delivered = builtin_sums(
        entries.segment, index.candidate_weight[entries.position], index.num_demands
    )
    served = np.bincount(entries.segment, minlength=index.num_demands)
    return _audit(
        problem,
        solution,
        fractions=index.weight_fractions(delivered),
        loads=np.bincount(entries.reflector, minlength=len(index.reflectors)),
        unserved=int(np.count_nonzero(served == 0)),
        color_violations=_color_violations(index, entries.segment, entries.reflector),
    )


def _audit(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    fractions: np.ndarray,
    loads: np.ndarray,
    unserved: int,
    color_violations: int,
) -> SolutionAudit:
    """The audit of ``solution`` from its measures over the problem's index.

    ``fractions`` holds every demand's weight fraction and ``loads`` every
    reflector's assignment count, by code; the arc loads, when the problem
    declares arc capacities, are counted from the assignments.
    """
    index = problem_index(problem)
    used = np.flatnonzero(loads)
    factors = loads[used] / index.fanout[used]
    audit = SolutionAudit(
        weight_fraction=WeightFractions(index, fractions),
        fanout_factor=dict(zip(map(index.reflectors.__getitem__, used.tolist()), factors.tolist())),
        color_violations=color_violations,
        unserved_demands=unserved,
    )
    capacities = problem.arc_capacities()
    if capacities:
        # A demand counts once on an arc, however often its list names the reflector.
        arc_load = Counter(
            (reflector, sink)
            for (sink, _stream), reflectors in solution.assignments.items()
            for reflector in set(reflectors)
        )
        for arc, capacity in capacities.items():
            audit.arc_capacity_factor[arc] = arc_load[arc] / capacity
    return audit


def _color_violations(index: ProblemIndex, segment: np.ndarray, reflector: np.ndarray) -> int:
    """``(segment, colour)`` groups holding more than one of the reflectors."""
    colour = index.color[reflector]
    coloured = colour >= 0
    pairs = segment[coloured] * len(index.colors) + colour[coloured]
    _groups, copies = np.unique(pairs, return_counts=True)
    return int(np.count_nonzero(copies > 1))


@dataclass
class GuaranteeCheck:
    """Verdict of a single paper guarantee on a concrete run."""

    name: str
    bound: float
    measured: float
    holds: bool
    description: str = ""


def check_paper_guarantees(
    problem: OverlayDesignProblem,
    result: DesignResult,
    weight_factor: float = 4.0,
    fanout_factor: float = 4.0,
) -> list[GuaranteeCheck]:
    """Check the Section-5 guarantees on a finished ``spaa03`` design of ``problem``.

    * weight: every demand retains at least ``1/weight_factor`` of its
      required weight (paper: factor 4);
    * fanout: no reflector exceeds ``fanout_factor`` times its fanout
      (paper: factor 4);
    * cost: the final cost is at most ``c log n`` times the LP lower bound
      (paper: Lemma 4.1 plus the constant-factor GAP stage).

    Reads the result's own audit (the pipeline's audit step), cost ratio and
    rounding multiplier (``metadata["multiplier"]``); nothing is audited
    again, so a result decoded from its document checks the same.
    """
    audit = result.audit

    checks: list[GuaranteeCheck] = []
    weight_bound = 1.0 / weight_factor
    checks.append(
        GuaranteeCheck(
            name="weight >= W/4",
            bound=weight_bound,
            measured=audit.min_weight_fraction,
            holds=audit.min_weight_fraction + 1e-9 >= weight_bound,
            description=(
                "Every (stream, sink) demand keeps at least a quarter of its "
                "required weight (failure probability at most the 4th root of target)."
            ),
        )
    )
    checks.append(
        GuaranteeCheck(
            name="fanout <= 4F",
            bound=fanout_factor,
            measured=audit.max_fanout_factor,
            holds=audit.max_fanout_factor <= fanout_factor + 1e-9,
            description="No reflector serves more than four times its fanout bound.",
        )
    )
    # The cost bound the paper proves is in expectation; we check against the
    # actually-used multiplier (c log n), with a factor 2 for the GAP doubling.
    cost_bound = 2.0 * result.metadata["multiplier"]
    checks.append(
        GuaranteeCheck(
            name="cost <= 2 c log n * OPT_LP",
            bound=cost_bound,
            measured=result.cost_ratio,
            holds=result.cost_ratio <= cost_bound + 1e-9,
            description=(
                "Final cost over the LP lower bound stays within the rounding "
                "multiplier (c log n) times the GAP doubling factor."
            ),
        )
    )
    return checks
