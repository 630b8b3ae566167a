"""The matrix form every LP builder and solver backend shares.

:class:`~repro.lp.sparse.SparseLPBuilder` compiles models to a
:class:`CompiledLP` (so do the hand-assembled flow LP of :mod:`repro.core.gap`
and the symmetry-extended MILP of :mod:`repro.baselines.milp`), and every
backend of :mod:`repro.lp.backends` solves one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse


class Sense(Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Objective(Enum):
    """Optimization direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass
class CompiledLP:
    """Matrix form of a model, ready for scipy's ``linprog``.

    ``A_ub x <= b_ub`` and ``A_eq x == b_eq``; ``c`` is always a minimization
    objective (maximization models are negated during compilation and the
    objective value is flipped back by the solver wrapper).  ``bounds`` is an
    ``(n, 2)`` float array of ``[lower, upper]`` per variable, with
    ``np.inf`` for an unbounded side.
    """

    c: np.ndarray
    A_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None
    A_eq: sparse.csr_matrix | None
    b_eq: np.ndarray | None
    bounds: np.ndarray
    objective_sign: float
    objective_constant: float
