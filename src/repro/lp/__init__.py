"""Linear-programming substrate.

The SPAA'03 overlay-design algorithm begins by solving the LP relaxation of
the integer program of Section 2.  This subpackage assembles LPs as batched
sparse blocks and solves them through registered solver backends.

Models are built with :class:`SparseLPBuilder` (:mod:`repro.lp.sparse`): a
variable arena hands out column indices in blocks and each constraint family
is added as one coordinate block, so the ``O(|S|·|R|·|D|)``-variable
Section-2 LP is assembled in a handful of numpy operations.  The builder
compiles to a :class:`~repro.lp.model.CompiledLP` (scipy's matrix form),
which :func:`solve_compiled` hands to a *registered solver backend*
(:mod:`repro.lp.backends`): ``"highs"`` (scipy ``linprog``, the LP default),
``"highs-mip"`` (scipy ``milp``, exact MILP), and an optional ``"gurobi"``
backend that is gracefully absent unless ``gurobipy`` is installed.

Public API
----------
``SparseLPBuilder``  -- vectorized batched-block model builder.
``VariableArena``    -- vectorized variable-index allocator.
``LPBuildStats``     -- timing/size report of a sparse assembly.
``BlockStats``       -- size of one constraint family in that report.
``CompiledLP``       -- matrix form shared by builders and backends.
``Sense``            -- constraint sense (<=, >=, ==).
``Objective``        -- optimization direction.
``solve_compiled``   -- solve a compiled LP, returning an ``LPSolution``.
``LPSolution``       -- status, objective value, per-column values.
``LPStatus``         -- enum of solver outcomes.
``SolverBackend``    -- backend protocol (``name`` + ``solve``).
``SolveOptions``     -- backend-independent options (integrality, limits).
``SolverError``      -- typed solver failure (unknown backend, bad status).
``register_backend`` -- decorator adding a backend to the registry.
``get_backend``      -- resolve a backend by name.
``backend_names``    -- all registered backend names.
``available_backend_names`` -- names whose solver library is importable.
"""

from repro.lp.backends import (
    SolveOptions,
    SolverBackend,
    SolverError,
    available_backend_names,
    backend_names,
    get_backend,
    register_backend,
    registered_backends,
)
from repro.lp.model import CompiledLP, Objective, Sense
from repro.lp.result import LPSolution, LPStatus
from repro.lp.sparse import BlockStats, LPBuildStats, SparseLPBuilder, VariableArena
from repro.lp.solver import solve_compiled

__all__ = [
    "BlockStats",
    "CompiledLP",
    "LPBuildStats",
    "LPSolution",
    "LPStatus",
    "Objective",
    "Sense",
    "SolveOptions",
    "SolverBackend",
    "SolverError",
    "SparseLPBuilder",
    "VariableArena",
    "available_backend_names",
    "backend_names",
    "get_backend",
    "register_backend",
    "registered_backends",
    "solve_compiled",
]
