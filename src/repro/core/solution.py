"""The final overlay design produced by the algorithm (or by a baseline).

An :class:`OverlaySolution` is a 0/1 choice of

* which reflectors to *build* (pay ``r_i``),
* which streams to *deliver to* which reflectors (pay ``c^k_ki``),
* which (reflector -> sink) assignments carry each demand (pay ``c^k_ij``),

together with evaluation helpers: total cost, per-demand delivered weight and
success probability, fanout usage, and violation factors relative to the
instance's requirements.  Both the core algorithm and every baseline in
:mod:`repro.baselines` produce this type, which is what makes the comparative
benchmarks (C1) and the packet-level simulation uniform.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from repro.core.index import builtin_sums, problem_index
from repro.core.problem import Demand, OverlayDesignProblem
from repro.core.weights import combined_failure_probability


@dataclass
class OverlaySolution:
    """A concrete overlay multicast design for a given problem instance.

    Attributes
    ----------
    problem:
        The instance this solution belongs to.
    built_reflectors:
        Reflectors that are paid for (``z_i = 1``).
    stream_deliveries:
        (stream, reflector) pairs that are paid for (``y^k_i = 1``).
    assignments:
        Mapping from demand key (sink, stream) to the list of reflectors
        serving it (``x^k_ij = 1``).
    metadata:
        Free-form information recorded by the producing algorithm (stage
        timings, attempt counts, ...), surfaced in reports.
    """

    problem: OverlayDesignProblem
    built_reflectors: set[str] = field(default_factory=set)
    stream_deliveries: set[tuple[str, str]] = field(default_factory=set)
    assignments: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_assignments(
        cls,
        problem: OverlayDesignProblem,
        assignments: Mapping[tuple[str, str], Iterable[str]] | Iterable[tuple[str, tuple[str, str]]],
        metadata: dict | None = None,
    ) -> "OverlaySolution":
        """Build a solution from assignments alone, inferring ``y`` and ``z``.

        ``assignments`` may be either a mapping ``demand key -> reflectors`` or
        an iterable of ``(reflector, demand key)`` pairs (the form produced by
        the GAP stage).  Reflector builds and stream deliveries are the minimal
        sets needed to support the assignments.
        """
        normalized: dict[tuple[str, str], list[str]] = {}
        if isinstance(assignments, Mapping):
            normalized = {key: sorted(set(reflectors)) for key, reflectors in assignments.items()}
        else:
            for reflector, demand_key in assignments:
                normalized.setdefault(demand_key, [])
                if reflector not in normalized[demand_key]:
                    normalized[demand_key].append(reflector)
            for demand_key in normalized:
                normalized[demand_key] = sorted(normalized[demand_key])

        return cls(
            problem=problem,
            built_reflectors=set(chain.from_iterable(normalized.values())),
            stream_deliveries={
                (stream, reflector)
                for (_sink, stream), reflectors in normalized.items()
                for reflector in reflectors
            },
            assignments=normalized,
            metadata=metadata or {},
        )

    # ------------------------------------------------------------------- cost
    def reflector_cost(self) -> float:
        # All three cost sums iterate in sorted order so the totals are a pure
        # function of the solution's *content*: a solution rehydrated from its
        # JSON document reproduces the original floats bit-for-bit even though
        # its containers were populated in a different order.
        return sum(self.problem.reflector_cost(r) for r in sorted(self.built_reflectors))

    def stream_delivery_cost(self) -> float:
        return sum(
            self.problem.stream_edge(stream, reflector).cost
            for stream, reflector in sorted(self.stream_deliveries)
        )

    def assignment_cost(self) -> float:
        total = 0.0
        for (sink, stream), reflectors in sorted(self.assignments.items()):
            for reflector in reflectors:
                total += self.problem.delivery_cost(reflector, sink, stream)
        return total

    def total_cost(self) -> float:
        """The objective of Section 2 evaluated on this integral solution."""
        return self.reflector_cost() + self.stream_delivery_cost() + self.assignment_cost()

    # ------------------------------------------------------------ reliability
    def reflectors_serving(self, demand: Demand) -> list[str]:
        return list(self.assignments.get(demand.key, []))

    def delivered_weight(self, demand: Demand) -> float:
        """LHS of constraint (5): total (capped) weight delivered to the demand."""
        return sum(
            self.problem.edge_weight(demand, reflector)
            for reflector in self.reflectors_serving(demand)
        )

    def failure_probability(self, demand: Demand) -> float:
        """Exact probability that a packet reaches the sink along *no* path.

        Uses the true (uncapped) per-path failure probabilities, i.e. the
        quantity the weights are a proxy for.
        """
        failures = [
            self.problem.path_failure(demand, reflector)
            for reflector in self.reflectors_serving(demand)
        ]
        return combined_failure_probability(failures) if failures else 1.0

    def success_probability(self, demand: Demand) -> float:
        return 1.0 - self.failure_probability(demand)

    def weight_satisfaction(self, demand: Demand) -> float:
        """Delivered weight / required weight (>= 1 means the demand is met)."""
        required = self.problem.demand_weight(demand)
        if required <= 0:
            return 1.0
        return self.delivered_weight(demand) / required

    # ----------------------------------------------------------------- fanout
    def fanout_loads(self) -> Counter[str]:
        """Assignments per reflector, counted in one pass (the fanout rows' LHS)."""
        return Counter(chain.from_iterable(self.assignments.values()))

    def fanout_used(self, reflector: str) -> int:
        """Number of assignments routed through ``reflector``."""
        return self.fanout_loads()[reflector]

    def max_fanout_factor(self) -> float:
        loads = self.fanout_loads()
        if not loads:
            return 0.0
        return max(used / self.problem.fanout(reflector) for reflector, used in loads.items())

    # ------------------------------------------------------------- diagnostics
    def unserved_demands(self) -> list[Demand]:
        """Demands that receive no copy of their stream at all."""
        return [d for d in self.problem.demands if not self.reflectors_serving(d)]

    def demands_below_threshold(self) -> list[Demand]:
        """Demands whose exact success probability is below their requirement."""
        return [
            demand
            for demand in self.problem.demands
            if self.success_probability(demand) + 1e-12 < demand.success_threshold
        ]

    def summary(self) -> dict:
        """Compact dictionary summary used by reports, examples and benchmarks.

        Every demand's weight satisfaction and success probability come from
        the problem's index in one pass over the assignments, bit for bit
        what :meth:`weight_satisfaction` and :meth:`success_probability`
        give one demand at a time: delivered weights are summed in list
        order (:func:`~repro.core.index.builtin_sums`), and each demand's
        path failures multiply in list order, one list position per step.
        """
        index = problem_index(self.problem)
        entries = index.entries(
            index.keys, [self.assignments.get(key, ()) for key in index.keys]
        )
        satisfactions = index.weight_fractions(
            builtin_sums(
                entries.segment, index.candidate_weight[entries.position], index.num_demands
            )
        ).tolist()
        p1 = index.edge_loss[index.candidate_edge[entries.position]]
        p2 = index.link_loss[index.candidate_link[entries.position]]
        path_failure = p1 + p2 - p1 * p2
        served = np.bincount(entries.segment, minlength=index.num_demands)
        rank = np.arange(entries.segment.size) - (np.cumsum(served) - served)[entries.segment]
        failure = np.ones(index.num_demands)
        for step in range(int(served.max(initial=0))):
            at = rank == step
            failure[entries.segment[at]] *= path_failure[at]
        successes = (1.0 - failure).tolist()
        thresholds = np.array([demand.success_threshold for demand in index.demands])
        below = np.count_nonzero(1.0 - failure + 1e-12 < thresholds)
        return {
            "total_cost": self.total_cost(),
            "reflectors_built": len(self.built_reflectors),
            "assignments": sum(len(v) for v in self.assignments.values()),
            "unserved_demands": int(np.count_nonzero(served == 0)),
            "min_weight_satisfaction": min(satisfactions) if satisfactions else 1.0,
            "mean_weight_satisfaction": (
                sum(satisfactions) / len(satisfactions) if satisfactions else 1.0
            ),
            "min_success_probability": min(successes) if successes else 1.0,
            "max_fanout_factor": self.max_fanout_factor(),
            "demands_below_threshold": int(below),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"OverlaySolution(reflectors={len(self.built_reflectors)}, "
            f"assignments={sum(len(v) for v in self.assignments.values())}, "
            f"cost={self.total_cost():.3f})"
        )
