"""Containers for fractional and rounded solutions of the Section-2 LP.

The paper's pipeline transforms an optimal *fractional* solution
``(z_hat, y_hat, x_hat)`` into a *rounded* solution ``(z_bar, y_bar, x_bar)``
(Section 3) where only the ``x_bar`` values may still be fractional, and
finally into a 0/1 solution via the modified GAP network (Section 5).  These
dataclasses carry the intermediate states between stages and are also exposed
to users who want to inspect them (e.g. the T2/T3 benchmarks measure
constraint violations *after rounding but before GAP*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import Demand, OverlayDesignProblem


#: Key type for assignment variables: (reflector, demand-key) where the demand
#: key is the (sink, stream) pair.
AssignmentKey = tuple[str, tuple[str, str]]


@dataclass
class FractionalSolution:
    """Optimal fractional solution ``(z_hat, y_hat, x_hat)`` of the LP relaxation.

    Attributes
    ----------
    z:
        ``reflector -> z_hat_i`` (fractional "build" indicator).
    y:
        ``(stream, reflector) -> y_hat_ki`` (fractional stream-delivery indicator).
    x:
        ``(reflector, (sink, stream)) -> x_hat_kij`` (fractional assignment).
    objective:
        LP objective value -- a lower bound on the optimal IP cost, used as the
        denominator of every measured approximation ratio.
    """

    z: dict[str, float]
    y: dict[tuple[str, str], float]
    x: dict[AssignmentKey, float]
    objective: float

    def support(self, tol: float = 1e-9) -> "FractionalSolution":
        """Copy with entries below ``tol`` dropped (keeps later stages sparse)."""
        return FractionalSolution(
            z={k: v for k, v in self.z.items() if v > tol},
            y={k: v for k, v in self.y.items() if v > tol},
            x={k: v for k, v in self.x.items() if v > tol},
            objective=self.objective,
        )

    def cost(self, problem: "OverlayDesignProblem") -> float:
        """Re-evaluate the objective of this (possibly modified) solution."""
        total = 0.0
        for reflector, value in self.z.items():
            total += problem.reflector_cost(reflector) * value
        for (stream, reflector), value in self.y.items():
            total += problem.stream_edge(stream, reflector).cost * value
        for (reflector, (sink, stream)), value in self.x.items():
            total += problem.delivery_cost(reflector, sink, stream) * value
        return total


@dataclass
class RoundedSolution:
    """State after the Section-3 randomized rounding.

    ``z`` and ``y`` are 0/1; ``x`` values are each either ``x_hat`` (kept
    fractional because both inflated variables saturated at 1), ``1/(c log n)``
    or 0.  ``scaled_z``/``scaled_y`` keep the intermediate inflated values
    (the paper's ``z_dot``/``y_dot``), which the analysis benchmarks inspect.
    """

    z: dict[str, int]
    y: dict[tuple[str, str], int]
    x: dict[AssignmentKey, float]
    scaled_z: dict[str, float] = field(default_factory=dict)
    scaled_y: dict[tuple[str, str], float] = field(default_factory=dict)
    multiplier: float = 1.0  # the value of c * log(n) actually used

    def cost(self, problem: "OverlayDesignProblem") -> float:
        """Cost ``C_bar`` of the rounded (still partially fractional) solution."""
        total = 0.0
        for reflector, value in self.z.items():
            total += problem.reflector_cost(reflector) * value
        for (stream, reflector), value in self.y.items():
            total += problem.stream_edge(stream, reflector).cost * value
        for (reflector, (sink, stream)), value in self.x.items():
            total += problem.delivery_cost(reflector, sink, stream) * value
        return total

    def delivered_weight(self, problem: "OverlayDesignProblem", demand: "Demand") -> float:
        """``sum_i x_bar * w`` for a demand (LHS of constraint (5) after rounding)."""
        total = 0.0
        for (reflector, key), value in self.x.items():
            if key == demand.key and value > 0:
                total += value * problem.edge_weight(demand, reflector)
        return total
