"""Solve :class:`~repro.lp.model.CompiledLP` models through registered backends.

The paper's algorithm only needs an optimal *fractional* solution of the
Section-2 relaxation; HiGHS (bundled with scipy) is more than adequate for
that and remains the default.  Exact integer solves go through the same
entry point by picking the ``"highs-mip"`` (or optional ``"gurobi"``)
backend -- see :mod:`repro.lp.backends`.  Keeping every backend behind
:func:`solve_compiled` means the rest of the code never touches solver
libraries directly.

Failure semantics: infeasible and unbounded outcomes are *returned* as
:class:`LPSolution` values (they are legitimate answers about the model);
solver malfunctions -- unknown status codes, numerical failure, a missing
optional backend -- *raise* :class:`~repro.lp.backends.SolverError`
carrying the backend's own diagnostic message.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lp.backends import SolveOptions, get_backend
from repro.lp.model import CompiledLP
from repro.lp.result import LPSolution, LPStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lp.sparse import LPBuildStats


def solve_compiled(
    compiled: CompiledLP,
    backend: str = "highs",
    *,
    options: SolveOptions | None = None,
    stats: "LPBuildStats | None" = None,
) -> LPSolution:
    """Solve a matrix-form LP (e.g. from
    :meth:`repro.lp.sparse.SparseLPBuilder.build`) through a registered backend.

    When ``stats`` (the :class:`~repro.lp.sparse.LPBuildStats` of the build)
    is supplied, infeasible / unbounded outcomes name the constraint family
    row counts in their message, so failures point at the paper's constraint
    families instead of anonymous matrix rows.
    """
    resolved = get_backend(backend)
    solution = resolved.solve(compiled, options or SolveOptions())
    if (
        stats is not None
        and solution.status in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED)
        and stats.blocks
    ):
        families = ", ".join(f"{block.name}: {block.rows} rows" for block in stats.blocks)
        solution.message = (
            f"{solution.message} [constraint families: {families}]"
            if solution.message
            else f"[constraint families: {families}]"
        )
    return solution
