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
from dataclasses import dataclass, field

import numpy as np

from repro.core.algorithm import DesignReport
from repro.core.index import builtin_sums, problem_index
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution


@dataclass
class SolutionAudit:
    """Per-constraint-family violation measurements for an integral design.

    All "fractions"/"factors" are normalised so 1.0 means exactly tight:
    ``weight_fraction < 1`` is a shortfall, ``fanout_factor > 1`` an overload.
    """

    weight_fraction: dict[tuple[str, str], float] = field(default_factory=dict)
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
    fraction, the unserved count and the colour violations; one count gives
    the fanout loads and, when the problem declares arc capacities, the arc
    loads.
    """
    audit = SolutionAudit()
    assignments = solution.assignments
    index = problem_index(problem)
    lists = [assignments.get(key, ()) for key in index.keys]
    entries = index.entries(index.keys, lists)
    delivered = builtin_sums(
        entries.segment, index.candidate_weight[entries.position], index.num_demands
    )
    audit.weight_fraction = dict(zip(index.keys, index.weight_fractions(delivered).tolist()))
    served = np.bincount(entries.segment, minlength=index.num_demands)
    audit.unserved_demands = int(np.count_nonzero(served == 0))
    colour = index.color[entries.reflector]
    coloured = colour >= 0
    pairs = entries.segment[coloured] * len(index.colors) + colour[coloured]
    _groups, copies = np.unique(pairs, return_counts=True)
    audit.color_violations = int(np.count_nonzero(copies > 1))

    for reflector, used in solution.fanout_loads().items():
        audit.fanout_factor[reflector] = used / problem.fanout(reflector)

    capacities = problem.arc_capacities()
    if capacities:
        # A demand counts once on an arc, however often its list names the reflector.
        arc_load = Counter(
            (reflector, sink)
            for (sink, _stream), reflectors in assignments.items()
            for reflector in set(reflectors)
        )
        for arc, capacity in capacities.items():
            audit.arc_capacity_factor[arc] = arc_load[arc] / capacity
    return audit


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
    report: DesignReport,
    weight_factor: float = 4.0,
    fanout_factor: float = 4.0,
) -> list[GuaranteeCheck]:
    """Check the Section-5 guarantees on a finished :class:`DesignReport`.

    * weight: every demand retains at least ``1/weight_factor`` of its
      required weight (paper: factor 4);
    * fanout: no reflector exceeds ``fanout_factor`` times its fanout
      (paper: factor 4);
    * cost: the final cost is at most ``c log n`` times the LP lower bound
      (paper: Lemma 4.1 plus the constant-factor GAP stage).
    """
    solution = report.solution
    audit = audit_solution(problem, solution)

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
    cost_bound = 2.0 * report.rounded.multiplier
    checks.append(
        GuaranteeCheck(
            name="cost <= 2 c log n * OPT_LP",
            bound=cost_bound,
            measured=report.cost_ratio,
            holds=report.cost_ratio <= cost_bound + 1e-9,
            description=(
                "Final cost over the LP lower bound stays within the rounding "
                "multiplier (c log n) times the GAP doubling factor."
            ),
        )
    )
    return checks
