"""Solution containers for the LP substrate."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class LPStatus(Enum):
    """Outcome of an LP / MILP solve.

    ``FEASIBLE`` is MIP-specific: the solver hit a time or gap limit holding
    an incumbent that is feasible but not proven optimal.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LPSolution:
    """Result of solving a :class:`~repro.lp.model.CompiledLP`.

    Attributes
    ----------
    status:
        Solver outcome.
    objective:
        Objective value in the model's own direction (already un-negated for
        maximization models); ``nan`` unless ``status`` is ``OPTIMAL``.
    values:
        Array of variable values indexed by column; empty on failure.
    message:
        HiGHS's diagnostic string.
    mip_gap:
        Relative gap between incumbent and dual bound (MIP solves only).
    mip_dual_bound:
        Best proven bound on the optimum, in the model's own direction
        (MIP solves only).
    mip_node_count:
        Branch-and-bound nodes explored (MIP solves only).
    """

    status: LPStatus
    objective: float
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    message: str = ""
    mip_gap: float | None = None
    mip_dual_bound: float | None = None
    mip_node_count: int | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL

    @property
    def has_solution(self) -> bool:
        """True when ``values`` holds a usable incumbent (optimal or feasible)."""
        return self.status in (LPStatus.OPTIMAL, LPStatus.FEASIBLE)
