"""Solve :class:`~repro.lp.model.CompiledLP` models with HiGHS.

The paper's algorithm needs an optimal *fractional* solution of the
Section-2 relaxation, and the ``milp-exact`` baseline needs the same program
with integrality restored.  Both are one run of a HiGHS model object
(``scipy.optimize._highspy._core._Highs``, the object scipy's own ``milp``
drives): without ``integrality`` it solves the LP, with it HiGHS branches
and cuts.  :func:`solve_compiled` is the only place the package calls a
solver, so HiGHS's option names and status codes stay in this module.  It
builds one fresh object per call; none is cached or shared, so concurrent
calls from worker threads never meet.

An LP is solved by HiGHS's default method unless the caller asks for
``interior_point``: then HiGHS runs its interior-point method followed by
crossover (on by default), so the answer is still a vertex.

Failure semantics: infeasible and unbounded outcomes are *returned* as
:class:`LPSolution` values (they are legitimate answers about the model);
solver malfunctions -- a model HiGHS refuses, unknown status codes,
numerical failure, a limit stop without an incumbent -- *raise*
:class:`SolverError` carrying HiGHS's own status text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NoReturn

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs

from repro.lp.model import CompiledLP
from repro.lp.result import LPSolution, LPStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lp.sparse import LPBuildStats


class SolverError(RuntimeError):
    """HiGHS failed to solve a model.

    Attributes
    ----------
    message:
        Human-readable description, including HiGHS's own status text.
    status_code:
        1 for a time or iteration limit, 4 for every other failure (the
        codes scipy's ``milp`` reports).
    """

    def __init__(self, message: str, *, status_code: int | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.status_code = status_code


#: HiGHS refuses a model holding a matrix entry at least this large (its
#: ``large_matrix_value`` option) as a model error.
LARGE_MATRIX_VALUE = 1e15

_Model = highs.HighsModelStatus

#: HiGHS model statuses that are answers -> our enum.  A time or iteration
#: limit is an answer only for a MIP holding an incumbent; every other
#: status (a model error, numerical failure, ...) raises SolverError.
_STATUS_MAP = {
    _Model.kOptimal: LPStatus.OPTIMAL,
    _Model.kInfeasible: LPStatus.INFEASIBLE,
    _Model.kUnbounded: LPStatus.UNBOUNDED,
    _Model.kTimeLimit: LPStatus.FEASIBLE,
    _Model.kIterationLimit: LPStatus.FEASIBLE,
}


def solve_compiled(
    compiled: CompiledLP,
    *,
    integrality: np.ndarray | None = None,
    time_limit: float | None = None,
    mip_gap: float | None = None,
    interior_point: bool = False,
    stats: "LPBuildStats | None" = None,
) -> LPSolution:
    """Solve a matrix-form model (e.g. from
    :meth:`repro.lp.sparse.SparseLPBuilder.build`) with HiGHS.

    ``integrality`` holds per-column flags (1 = integer, 0 = continuous);
    ``None`` solves the LP.  Only a MIP solve reports ``mip_gap``,
    ``mip_dual_bound`` and ``mip_node_count``, and only a MIP may stop at
    ``time_limit`` (seconds) or ``mip_gap`` (relative) with a merely
    ``FEASIBLE`` incumbent.  ``interior_point`` solves an LP by interior
    point with crossover instead of HiGHS's default simplex; it is ignored
    for a MIP.

    When ``stats`` (the :class:`~repro.lp.sparse.LPBuildStats` of the build)
    is supplied, infeasible / unbounded outcomes name the constraint family
    row counts in their message, so failures point at the paper's constraint
    families instead of anonymous matrix rows.
    """
    num_cols = len(compiled.c)
    if num_cols == 0:
        # HiGHS has nothing to solve; a model without columns is solved.
        return LPSolution(status=LPStatus.OPTIMAL, objective=0.0, values=np.empty(0))
    is_mip = integrality is not None and bool(np.any(integrality))
    blocks = [block for block in (compiled.A_ub, compiled.A_eq) if block is not None]
    matrix = sparse.vstack(blocks, format="csc") if blocks else sparse.csc_array((0, num_cols))
    b_ub = np.empty(0) if compiled.b_ub is None else compiled.b_ub
    b_eq = np.empty(0) if compiled.b_eq is None else compiled.b_eq

    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = num_cols
    lp.num_row_ = lp.a_matrix_.num_row_ = matrix.shape[0]
    lp.col_cost_ = compiled.c
    lp.col_lower_ = compiled.bounds[:, 0]
    lp.col_upper_ = compiled.bounds[:, 1]
    lp.row_lower_ = np.concatenate([np.full(len(b_ub), -np.inf), b_eq])
    lp.row_upper_ = np.concatenate([b_ub, b_eq])
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    if is_mip:
        lp.integrality_ = [highs.HighsVarType(int(flag)) for flag in integrality]

    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    if time_limit is not None:
        solver.setOptionValue("time_limit", float(time_limit))
    if mip_gap is not None:
        solver.setOptionValue("mip_rel_gap", float(mip_gap))
    if interior_point and not is_mip:
        solver.setOptionValue("solver", "ipm")
    if solver.passModel(lp) == highs.HighsStatus.kError:
        _fail(solver, _Model.kModelError)
    solver.run()
    model_status = solver.getModelStatus()
    info = solver.getInfo()
    status = _STATUS_MAP.get(model_status)
    if status is None or (
        status is LPStatus.FEASIBLE
        and (not is_mip or info.objective_function_value == highs.kHighsInf)
    ):
        _fail(solver, model_status)
    message = _status_text(solver, model_status)
    if status in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED):
        if stats is not None and stats.blocks:
            families = ", ".join(f"{block.name}: {block.rows} rows" for block in stats.blocks)
            message = f"{message} [constraint families: {families}]"
        return LPSolution(
            status=status, objective=float("nan"), values=np.empty(0), message=message
        )
    solution = LPSolution(
        status=status,
        objective=_objective(compiled, info.objective_function_value),
        values=np.array(solver.getSolution().col_value),
        message=message,
    )
    if is_mip:
        solution.mip_gap = float(info.mip_gap)
        solution.mip_dual_bound = _objective(compiled, info.mip_dual_bound)
        solution.mip_node_count = int(info.mip_node_count)
    return solution


def _status_text(solver, model_status) -> str:
    return f"HiGHS Status {int(model_status)}: {solver.modelStatusToString(model_status)}"


def _fail(solver, model_status) -> NoReturn:
    limit = model_status in (_Model.kTimeLimit, _Model.kIterationLimit)
    raise SolverError(
        f"HiGHS did not solve the model ({_status_text(solver, model_status)})",
        status_code=1 if limit else 4,
    )


def _objective(compiled: CompiledLP, fun: float) -> float:
    # HiGHS always minimizes compiled.c @ x; undo the sign flip of
    # maximization models and re-add the constant term.
    return compiled.objective_sign * float(fun) + compiled.objective_constant
