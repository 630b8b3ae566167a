"""Registered solver backends for compiled LP / MILP models.

The LP substrate historically rode a single hardwired scipy/HiGHS path in
:mod:`repro.lp.solver`.  This module generalizes that path into a small
backend registry (the pyomo ``SolverFactory`` pattern): every backend is a
named object implementing :class:`SolverBackend`, and the solver wrapper
dispatches by name so callers pick a backend per solve without the rest of
the code ever touching solver libraries directly.

Three backends ship:

``"highs"``
    The default: :func:`scipy.optimize.linprog` (HiGHS dual simplex / IPM).
    Pure LP -- requesting integrality raises :class:`SolverError`.
``"highs-mip"``
    :func:`scipy.optimize.milp` (HiGHS branch-and-cut) over the same
    :class:`~repro.lp.model.CompiledLP` blocks.  Solves mixed-integer
    programs exactly and surfaces MIP diagnostics (gap, dual bound, node
    count); also solves pure LPs, making it a drop-in exact backend.
``"gurobi"``
    Optional: present only when ``gurobipy`` is importable.  Registered
    unconditionally so docs and error messages can name it, but
    :meth:`~SolverBackend.available` reports False and solving raises a
    :class:`SolverError` explaining the absence.  Honors warm starts.

All backends accept the same :class:`SolveOptions`; fields a backend cannot
honor are either rejected (integrality on ``"highs"``) or documented as
advisory (warm starts are honored only by ``"gurobi"``; HiGHS backends
accept and ignore them, so default results are unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from repro.lp.model import CompiledLP
from repro.lp.result import LPSolution, LPStatus


class SolverError(RuntimeError):
    """A solver failed or was misused (unknown backend, unsupported option,
    backend-reported error status).

    Attributes
    ----------
    message:
        Human-readable description; includes the backend's own diagnostic
        (``result.message``) when one exists.
    backend:
        Name of the backend that raised, when known.
    status_code:
        The backend's raw status code, when one exists.
    """

    def __init__(
        self,
        message: str,
        *,
        backend: str | None = None,
        status_code: int | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.backend = backend
        self.status_code = status_code


@dataclass(frozen=True)
class SolveOptions:
    """Backend-independent solve options.

    Attributes
    ----------
    integrality:
        Per-variable integrality flags (1 = integer, 0 = continuous), as
        accepted by :func:`scipy.optimize.milp`; ``None`` means a pure LP.
        The ``"highs"`` LP backend rejects non-trivial integrality.
    time_limit:
        Wall-clock limit in seconds for MIP solves.  Hitting the limit with
        an incumbent yields ``LPStatus.FEASIBLE`` rather than an error.
    mip_gap:
        Relative MIP gap at which the solver may stop early (e.g. ``1e-4``).
    warm_start:
        Candidate variable vector used as a starting point.  Advisory: only
        backends that support MIP starts honor it (``"gurobi"``); the HiGHS
        backends accept and ignore it, so passing one never changes the
        default backend's results.
    """

    integrality: np.ndarray | None = None
    time_limit: float | None = None
    mip_gap: float | None = None
    warm_start: np.ndarray | None = None

    @property
    def is_mip(self) -> bool:
        return self.integrality is not None and bool(np.any(self.integrality))


@runtime_checkable
class SolverBackend(Protocol):
    """The backend interface: a named ``solve(compiled, options)`` object."""

    name: str
    description: str

    def available(self) -> bool:
        """Whether the backend's solver library is importable right now."""
        ...  # pragma: no cover - protocol body

    def solve(self, compiled: CompiledLP, options: SolveOptions) -> LPSolution:
        """Solve a compiled model, returning an :class:`LPSolution`."""
        ...  # pragma: no cover - protocol body


#: Registration-ordered backend registry (insertion order = presentation order).
_BACKENDS: dict[str, SolverBackend] = {}


def register_backend(cls: Callable[[], SolverBackend]) -> Callable[[], SolverBackend]:
    """Class decorator registering an instance under ``cls().name``.

    Last registration wins, so reloads and test doubles work.
    """
    instance = cls()
    _BACKENDS[instance.name] = instance
    return cls


def backend_names() -> list[str]:
    """All registered backend names, in registration order."""
    return list(_BACKENDS)


def available_backend_names() -> list[str]:
    """Names of backends whose solver library is importable right now."""
    return [name for name, backend in _BACKENDS.items() if backend.available()]


def registered_backends() -> list[SolverBackend]:
    """All registered backends, in registration order."""
    return list(_BACKENDS.values())


def get_backend(name: str) -> SolverBackend:
    """Resolve a backend by name.

    Raises :class:`SolverError` for unknown names; the message names the
    installed (available) backends so callers can surface it directly.
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        installed = ", ".join(available_backend_names())
        raise SolverError(
            f"unknown solver backend {name!r} (installed backends: {installed})",
            backend=name,
        ) from None


def _empty_solution() -> LPSolution:
    return LPSolution(status=LPStatus.OPTIMAL, objective=0.0, values=np.empty(0))


def _finish(compiled: CompiledLP, fun: float) -> float:
    # scipy always minimizes compiled.c @ x; undo the sign flip for
    # maximization models and re-add the constant term.
    return compiled.objective_sign * float(fun) + compiled.objective_constant


@register_backend
class HighsLPBackend:
    """scipy ``linprog`` (HiGHS): the default pure-LP backend."""

    name = "highs"
    description = "scipy.optimize.linprog (HiGHS) -- LP only, the default"

    #: scipy.optimize.linprog status codes -> our enum.  Unknown codes are
    #: NOT silently mapped to ERROR; they raise SolverError (see solve()).
    _STATUS_MAP = {
        0: LPStatus.OPTIMAL,
        1: LPStatus.ERROR,  # iteration limit
        2: LPStatus.INFEASIBLE,
        3: LPStatus.UNBOUNDED,
        4: LPStatus.ERROR,
    }

    def available(self) -> bool:
        return True

    def solve(self, compiled: CompiledLP, options: SolveOptions) -> LPSolution:
        if options.is_mip:
            raise SolverError(
                "backend 'highs' solves pure LPs only; use 'highs-mip' or "
                "'gurobi' for integrality constraints",
                backend=self.name,
            )
        if len(compiled.c) == 0:
            return _empty_solution()
        solver_options = {}
        if options.time_limit is not None:
            solver_options["time_limit"] = float(options.time_limit)
        result = linprog(
            c=compiled.c,
            A_ub=compiled.A_ub,
            b_ub=compiled.b_ub,
            A_eq=compiled.A_eq,
            b_eq=compiled.b_eq,
            bounds=compiled.bounds,
            method="highs",
            options=solver_options or None,
        )
        if result.status not in self._STATUS_MAP:
            raise SolverError(
                f"linprog returned unknown status {result.status}: {result.message}",
                backend=self.name,
                status_code=int(result.status),
            )
        status = self._STATUS_MAP[result.status]
        if status is LPStatus.ERROR:
            raise SolverError(
                f"linprog failed (status {result.status}): {result.message}",
                backend=self.name,
                status_code=int(result.status),
            )
        if status is not LPStatus.OPTIMAL:
            return LPSolution(
                status=status,
                objective=float("nan"),
                values=np.empty(0),
                message=str(result.message),
                backend=self.name,
            )
        return LPSolution(
            status=status,
            objective=_finish(compiled, result.fun),
            values=np.asarray(result.x, dtype=float),
            message=str(result.message),
            backend=self.name,
        )


def _compiled_to_milp_args(compiled: CompiledLP) -> tuple[list[LinearConstraint], Bounds]:
    constraints = []
    if compiled.A_ub is not None:
        constraints.append(LinearConstraint(compiled.A_ub, -np.inf, compiled.b_ub))
    if compiled.A_eq is not None:
        constraints.append(LinearConstraint(compiled.A_eq, compiled.b_eq, compiled.b_eq))
    return constraints, Bounds(compiled.bounds[:, 0], compiled.bounds[:, 1])


@register_backend
class HighsMIPBackend:
    """scipy ``milp`` (HiGHS branch-and-cut): the exact-at-scale backend."""

    name = "highs-mip"
    description = "scipy.optimize.milp (HiGHS branch-and-cut) -- exact MILP"

    #: scipy.optimize.milp status codes -> our enum.  Code 1 (time/iteration
    #: limit) maps to FEASIBLE when an incumbent exists, ERROR otherwise.
    _STATUS_MAP = {
        0: LPStatus.OPTIMAL,
        1: LPStatus.FEASIBLE,
        2: LPStatus.INFEASIBLE,
        3: LPStatus.UNBOUNDED,
        4: LPStatus.ERROR,
    }

    def available(self) -> bool:
        return True

    def solve(self, compiled: CompiledLP, options: SolveOptions) -> LPSolution:
        if len(compiled.c) == 0:
            return _empty_solution()
        constraints, bounds = _compiled_to_milp_args(compiled)
        integrality = options.integrality
        if integrality is None:
            integrality = np.zeros(len(compiled.c), dtype=np.int8)
        solver_options = {}
        if options.time_limit is not None:
            solver_options["time_limit"] = float(options.time_limit)
        if options.mip_gap is not None:
            solver_options["mip_rel_gap"] = float(options.mip_gap)
        result = milp(
            compiled.c,
            constraints=constraints,
            bounds=bounds,
            integrality=integrality,
            options=solver_options or None,
        )
        if result.status not in self._STATUS_MAP:
            raise SolverError(
                f"milp returned unknown status {result.status}: {result.message}",
                backend=self.name,
                status_code=int(result.status),
            )
        status = self._STATUS_MAP[result.status]
        if status is LPStatus.FEASIBLE and result.x is None:
            # Hit the limit before finding any incumbent.
            raise SolverError(
                f"milp stopped without an incumbent (status {result.status}): "
                f"{result.message}",
                backend=self.name,
                status_code=int(result.status),
            )
        if status is LPStatus.ERROR:
            raise SolverError(
                f"milp failed (status {result.status}): {result.message}",
                backend=self.name,
                status_code=int(result.status),
            )
        if status in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED):
            return LPSolution(
                status=status,
                objective=float("nan"),
                values=np.empty(0),
                message=str(result.message),
                backend=self.name,
            )
        mip_gap = getattr(result, "mip_gap", None)
        dual_bound = getattr(result, "mip_dual_bound", None)
        node_count = getattr(result, "mip_node_count", None)
        return LPSolution(
            status=status,
            objective=_finish(compiled, result.fun),
            values=np.asarray(result.x, dtype=float),
            message=str(result.message),
            backend=self.name,
            mip_gap=None if mip_gap is None else float(mip_gap),
            mip_dual_bound=(
                None if dual_bound is None else _finish(compiled, dual_bound)
            ),
            mip_node_count=None if node_count is None else int(node_count),
        )


@register_backend
class GurobiBackend:
    """Optional ``gurobipy`` backend; gracefully absent when not installed.

    The only backend that honors :attr:`SolveOptions.warm_start` (via MIP
    starts).  Registered even when ``gurobipy`` is missing so registry
    listings and error messages can name it; solving without the library
    raises a :class:`SolverError` that says how to enable it.
    """

    name = "gurobi"
    description = "gurobipy (optional) -- MILP with warm starts; absent unless installed"

    def available(self) -> bool:
        try:
            import gurobipy  # noqa: F401
        except ImportError:
            return False
        return True

    def solve(self, compiled: CompiledLP, options: SolveOptions) -> LPSolution:
        try:
            import gurobipy as gp
        except ImportError:
            raise SolverError(
                "backend 'gurobi' requires the optional 'gurobipy' package "
                "(pip install gurobipy); installed backends: "
                + ", ".join(available_backend_names()),
                backend=self.name,
            ) from None
        if len(compiled.c) == 0:
            return _empty_solution()
        model = gp.Model("repro")
        model.Params.OutputFlag = 0
        if options.time_limit is not None:
            model.Params.TimeLimit = float(options.time_limit)
        if options.mip_gap is not None:
            model.Params.MIPGap = float(options.mip_gap)
        n = len(compiled.c)
        integrality = options.integrality
        if integrality is None:
            integrality = np.zeros(n, dtype=np.int8)
        lowers = compiled.bounds[:, 0]
        uppers = np.minimum(compiled.bounds[:, 1], gp.GRB.INFINITY)
        vtypes = np.where(
            np.asarray(integrality) > 0, gp.GRB.INTEGER, gp.GRB.CONTINUOUS
        ).tolist()
        x = model.addMVar(n, lb=lowers, ub=uppers, obj=compiled.c, vtype=vtypes)
        if compiled.A_ub is not None:
            model.addConstr(compiled.A_ub @ x <= compiled.b_ub)
        if compiled.A_eq is not None:
            model.addConstr(compiled.A_eq @ x == compiled.b_eq)
        if options.warm_start is not None and len(options.warm_start) == n:
            x.Start = np.asarray(options.warm_start, dtype=float)
        model.optimize()
        code = int(model.Status)
        status_map = {
            gp.GRB.OPTIMAL: LPStatus.OPTIMAL,
            gp.GRB.INFEASIBLE: LPStatus.INFEASIBLE,
            gp.GRB.UNBOUNDED: LPStatus.UNBOUNDED,
            gp.GRB.INF_OR_UNBD: LPStatus.INFEASIBLE,
            gp.GRB.TIME_LIMIT: LPStatus.FEASIBLE,
        }
        if code not in status_map:
            raise SolverError(
                f"gurobi returned unknown status {code}",
                backend=self.name,
                status_code=code,
            )
        status = status_map[code]
        if status is LPStatus.FEASIBLE and model.SolCount == 0:
            raise SolverError(
                f"gurobi stopped without an incumbent (status {code})",
                backend=self.name,
                status_code=code,
            )
        if status in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED):
            return LPSolution(
                status=status,
                objective=float("nan"),
                values=np.empty(0),
                message=f"gurobi status {code}",
                backend=self.name,
            )
        gap = model.MIPGap if bool(np.any(integrality)) else None
        return LPSolution(
            status=status,
            objective=_finish(compiled, model.ObjVal),
            values=np.asarray(x.X, dtype=float),
            message=f"gurobi status {code}",
            backend=self.name,
            mip_gap=None if gap is None else float(gap),
            mip_dual_bound=(
                _finish(compiled, model.ObjBound) if bool(np.any(integrality)) else None
            ),
            mip_node_count=int(model.NodeCount) if bool(np.any(integrality)) else None,
        )


__all__ = [
    "SolveOptions",
    "SolverBackend",
    "SolverError",
    "available_backend_names",
    "backend_names",
    "get_backend",
    "register_backend",
    "registered_backends",
]
