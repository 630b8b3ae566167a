"""Linear-programming substrate.

The SPAA'03 overlay-design algorithm begins by solving the LP relaxation of
the integer program of Section 2.  This subpackage assembles LPs as batched
sparse blocks and solves them with HiGHS.

Models are built with :class:`SparseLPBuilder` (:mod:`repro.lp.sparse`): a
variable arena hands out column indices in blocks and each constraint family
is added as one coordinate block, so the ``O(|S|·|R|·|D|)``-variable
Section-2 LP is assembled in a handful of numpy operations.  The builder
compiles to a :class:`~repro.lp.model.CompiledLP` (scipy's matrix form),
which :func:`solve_compiled` solves with one HiGHS model object per call: an
LP by default (by interior point when asked), a MIP when an ``integrality``
array is passed.

Public API
----------
``SparseLPBuilder``  -- vectorized batched-block model builder.
``VariableArena``    -- vectorized variable-index allocator.
``LPBuildStats``     -- timing/size report of a sparse assembly.
``BlockStats``       -- size of one constraint family in that report.
``CompiledLP``       -- matrix form shared by builders and the solver.
``Sense``            -- constraint sense (<=, >=, ==).
``Objective``        -- optimization direction.
``solve_compiled``   -- solve a compiled LP or MIP, returning an ``LPSolution``.
``LPSolution``       -- status, objective value, per-column values.
``LPStatus``         -- enum of solver outcomes.
``SolverError``      -- typed solver failure (numerical error, unknown status).
"""

from repro.lp.model import CompiledLP, Objective, Sense
from repro.lp.result import LPSolution, LPStatus
from repro.lp.sparse import BlockStats, LPBuildStats, SparseLPBuilder, VariableArena
from repro.lp.solver import SolverError, solve_compiled

__all__ = [
    "BlockStats",
    "CompiledLP",
    "LPBuildStats",
    "LPSolution",
    "LPStatus",
    "Objective",
    "Sense",
    "SolverError",
    "SparseLPBuilder",
    "VariableArena",
    "solve_compiled",
]
