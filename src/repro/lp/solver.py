"""Solve :class:`~repro.lp.model.CompiledLP` models with HiGHS.

The paper's algorithm needs an optimal *fractional* solution of the
Section-2 relaxation, and the ``milp-exact`` baseline needs the same program
with integrality restored.  Both are one :func:`scipy.optimize.milp` call
(HiGHS, bundled with scipy): without ``integrality`` it solves the LP, with
it HiGHS branches and cuts.  :func:`solve_compiled` is the only place the
package calls a solver, so scipy's argument and status conventions stay in
this module.

Failure semantics: infeasible and unbounded outcomes are *returned* as
:class:`LPSolution` values (they are legitimate answers about the model);
solver malfunctions -- unknown status codes, numerical failure, a limit stop
without an incumbent -- *raise* :class:`SolverError` carrying HiGHS's own
diagnostic message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.lp.model import CompiledLP
from repro.lp.result import LPSolution, LPStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lp.sparse import LPBuildStats


class SolverError(RuntimeError):
    """HiGHS failed to solve a model.

    Attributes
    ----------
    message:
        Human-readable description, including HiGHS's own diagnostic.
    status_code:
        scipy's status code for the failed solve.
    """

    def __init__(self, message: str, *, status_code: int | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.status_code = status_code


#: scipy.optimize.milp status codes -> our enum.  Code 1 (a time or
#: iteration limit) is an answer only for a MIP holding an incumbent; code 4
#: (numerical failure) and unknown codes raise SolverError.
_STATUS_MAP = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.FEASIBLE,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
}


def solve_compiled(
    compiled: CompiledLP,
    *,
    integrality: np.ndarray | None = None,
    time_limit: float | None = None,
    mip_gap: float | None = None,
    stats: "LPBuildStats | None" = None,
) -> LPSolution:
    """Solve a matrix-form model (e.g. from
    :meth:`repro.lp.sparse.SparseLPBuilder.build`) with HiGHS.

    ``integrality`` holds per-column flags (1 = integer, 0 = continuous) as
    :func:`scipy.optimize.milp` accepts them; ``None`` solves the LP.  Only a
    MIP solve reports ``mip_gap``, ``mip_dual_bound`` and ``mip_node_count``,
    and only a MIP may stop at ``time_limit`` (seconds) or ``mip_gap``
    (relative) with a merely ``FEASIBLE`` incumbent.

    When ``stats`` (the :class:`~repro.lp.sparse.LPBuildStats` of the build)
    is supplied, infeasible / unbounded outcomes name the constraint family
    row counts in their message, so failures point at the paper's constraint
    families instead of anonymous matrix rows.
    """
    if len(compiled.c) == 0:
        # milp rejects an empty objective; a model without columns is solved.
        return LPSolution(status=LPStatus.OPTIMAL, objective=0.0, values=np.empty(0))
    constraints = []
    if compiled.A_ub is not None:
        constraints.append(LinearConstraint(compiled.A_ub, -np.inf, compiled.b_ub))
    if compiled.A_eq is not None:
        constraints.append(LinearConstraint(compiled.A_eq, compiled.b_eq, compiled.b_eq))
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_gap is not None:
        options["mip_rel_gap"] = float(mip_gap)
    result = milp(
        compiled.c,
        integrality=integrality,
        bounds=Bounds(compiled.bounds[:, 0], compiled.bounds[:, 1]),
        constraints=constraints,
        options=options or None,
    )
    is_mip = integrality is not None
    status = _STATUS_MAP.get(result.status)
    if status is None or (status is LPStatus.FEASIBLE and (not is_mip or result.x is None)):
        raise SolverError(
            f"HiGHS did not solve the model (status {result.status}): {result.message}",
            status_code=int(result.status),
        )
    if status in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED):
        message = str(result.message)
        if stats is not None and stats.blocks:
            families = ", ".join(f"{block.name}: {block.rows} rows" for block in stats.blocks)
            message = f"{message} [constraint families: {families}]".lstrip()
        return LPSolution(
            status=status, objective=float("nan"), values=np.empty(0), message=message
        )
    solution = LPSolution(
        status=status,
        objective=_objective(compiled, result.fun),
        values=np.asarray(result.x, dtype=float),
        message=str(result.message),
    )
    if is_mip and result.mip_gap is not None:
        solution.mip_gap = float(result.mip_gap)
        solution.mip_dual_bound = _objective(compiled, result.mip_dual_bound)
        solution.mip_node_count = int(result.mip_node_count)
    return solution


def _objective(compiled: CompiledLP, fun: float) -> float:
    # milp always minimizes compiled.c @ x; undo the sign flip of
    # maximization models and re-add the constant term.
    return compiled.objective_sign * float(fun) + compiled.objective_constant
