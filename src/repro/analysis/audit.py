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
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.core.algorithm import DesignReport
from repro.core.index import DemandKey, ProblemIndex, builtin_sums, problem_index
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution


class WeightFractions(Mapping):
    """Demand key -> weight fraction, read from one value per demand of an index.

    The audit's ``weight_fraction``: a read-only mapping in the index's
    demand order that costs nothing to make, so an audit of a changed design
    never copies a dict entry per demand.  It pickles as a plain dict.
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
    #: Assignments per reflector of the audited design, which an audit of a
    #: changed design starts from; not part of the audit's document, so
    #: ``None`` on a decoded audit.
    loads: Counter[str] | None = field(default=None, compare=False, repr=False)

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


def audit_solution(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    previous: SolutionAudit | None = None,
    replaced: Mapping[DemandKey, Sequence[str]] | None = None,
) -> SolutionAudit:
    """Measure all constraint violations of an integral design against ``problem``.

    One pass over the assignments against the problem's index
    (:func:`repro.core.index.problem_index`) gives every demand's weight
    fraction, the unserved count and the colour violations; one count gives
    the fanout loads and, when the problem declares arc capacities, the arc
    loads.

    ``previous`` and ``replaced`` audit a changed design by its changes:
    ``previous`` audited a design that ``solution`` differs from only in the
    lists of ``replaced``'s keys, each mapped to its former list (empty if
    it had none), against a problem whose other demands are unchanged.
    Only those keys are measured (and the arc loads, when the problem has
    arc capacities); the rest is carried over, so the result equals a full
    audit.  A decoded ``previous`` (no ``loads``) gets a full audit.
    """
    audit = SolutionAudit()
    assignments = solution.assignments
    index = problem_index(problem)
    former = previous.weight_fraction if previous is not None else None
    if isinstance(former, WeightFractions) and previous.loads is not None and replaced:
        keys = [key for key in replaced if key in index.demand_code]
        codes = index.demand_codes(keys)
    else:
        keys, codes, former = index.keys, np.arange(index.num_demands), None
    entries = index.entries(keys, [assignments.get(key, ()) for key in keys])
    delivered = builtin_sums(entries.segment, index.candidate_weight[entries.position], len(keys))
    unserved = int(np.count_nonzero(np.bincount(entries.segment, minlength=len(keys)) == 0))
    violations = _color_violations(index, entries.segment, entries.reflector)
    fractions = np.empty(index.num_demands)
    fractions[codes] = index.weight_fractions(delivered, codes)
    if former is None:
        audit.loads = solution.fanout_loads()
        # Every loaded reflector's fanout factor is (re)computed below.
        loaded = audit.loads
    else:
        # Carry the other demands' fractions, and take the replaced lists'
        # counts out of the previous ones.
        parent = index.codes_in(former.index)
        carried = np.ones(index.num_demands, dtype=bool)
        carried[codes] = False
        carried &= parent >= 0
        fractions[carried] = former.array[parent[carried]]
        before = [replaced[key] for key in replaced if key in former]
        unserved += previous.unserved_demands - sum(1 for reflectors in before if not reflectors)
        names = list(chain.from_iterable(before))
        violations += previous.color_violations - _color_violations(
            index,
            np.repeat(np.arange(len(before)), list(map(len, before))),
            np.fromiter(map(index.reflector_code.__getitem__, names), np.int64, len(names)),
        )
        change = Counter(chain.from_iterable(assignments.get(key, ()) for key in replaced))
        change.subtract(Counter(chain.from_iterable(replaced.values())))
        audit.loads = Counter(previous.loads)
        audit.fanout_factor = dict(previous.fanout_factor)
        for reflector, moved in change.items():
            audit.loads[reflector] += moved
        loaded = {reflector: audit.loads[reflector] for reflector in change}
        for reflector, used in loaded.items():
            if not used:
                del audit.loads[reflector]
                audit.fanout_factor.pop(reflector, None)
    for reflector, used in loaded.items():
        if used:
            audit.fanout_factor[reflector] = used / problem.fanout(reflector)
    audit.weight_fraction = WeightFractions(index, fractions)
    audit.unserved_demands = unserved
    audit.color_violations = violations

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
