"""Vectorized sparse LP assembly: variable arena + batched constraint blocks.

Every LP in the package is built here.  Models are assembled as flat numpy
arrays and handed to the solver as
:class:`~repro.lp.model.CompiledLP` matrices without ever materializing
per-variable or per-constraint objects, which keeps the Section-2 LP's
``O(|S|·|R|·|D|)`` variables cheap to assemble.

Two pieces:

``VariableArena``
    A vectorized variable registry.  Variables are allocated in *blocks*
    (``add_block(count, lower, upper)`` returns an index array), so a
    formulation allocates its ``z``, ``y`` and ``x`` variables with three
    calls instead of ``O(|S|·|R|·|D|)`` ones.

``SparseLPBuilder``
    A batched constraint-block API on top of the arena.  Each call to
    :meth:`SparseLPBuilder.add_block` contributes a whole *family* of
    constraints (e.g. every ``x <= y`` row at once) as parallel
    ``(rows, cols, values, rhs)`` arrays; :meth:`SparseLPBuilder.build`
    concatenates the blocks into CSR matrices and reports an
    :class:`LPBuildStats` describing what was built and how long it took.
    Its per-family :class:`BlockStats` are how tests and error messages
    name the paper's constraint families.

The built model is solved by :func:`repro.lp.solver.solve_compiled`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.lp.model import CompiledLP, Objective, Sense


@dataclass(frozen=True)
class BlockStats:
    """Size of one constraint block: family name, row count, nonzero count."""

    name: str
    rows: int
    nonzeros: int
    sense: Sense


@dataclass
class LPBuildStats:
    """Timing / size report of one sparse LP assembly.

    Benchmarks (T5) record these so matrix-assembly cost can be tracked over
    time separately from solver cost.

    Attributes
    ----------
    name:
        Model name (usually ``"<problem>-lp"``).
    num_variables:
        Columns of the compiled matrices.
    num_inequality_rows, num_equality_rows:
        Rows of ``A_ub`` / ``A_eq`` respectively.
    num_nonzeros:
        Total structural nonzeros across both matrices.
    build_seconds:
        Wall-clock time from builder construction to the end of
        :meth:`SparseLPBuilder.build` (i.e. block assembly + CSR compile).
    compile_seconds:
        The portion of ``build_seconds`` spent concatenating blocks and
        building the CSR matrices.
    blocks:
        Per-family :class:`BlockStats`, in the order the blocks were added.
    """

    name: str
    num_variables: int
    num_inequality_rows: int
    num_equality_rows: int
    num_nonzeros: int
    build_seconds: float
    compile_seconds: float
    blocks: list[BlockStats] = field(default_factory=list)

    @property
    def num_constraints(self) -> int:
        return self.num_inequality_rows + self.num_equality_rows


class VariableArena:
    """Vectorized variable registry: indices are handed out in blocks."""

    def __init__(self) -> None:
        self._count = 0
        self._lowers: list[np.ndarray] = []
        self._uppers: list[np.ndarray] = []
        self._blocks: list[tuple[str, int, int]] = []

    @property
    def size(self) -> int:
        return self._count

    @property
    def blocks(self) -> list[tuple[str, int, int]]:
        """``(name, start, count)`` of every allocated block."""
        return list(self._blocks)

    def add_block(
        self,
        count: int,
        lower: float | np.ndarray = 0.0,
        upper: float | np.ndarray = 1.0,
        name: str = "",
    ) -> np.ndarray:
        """Allocate ``count`` variables and return their index array.

        ``lower`` / ``upper`` may be scalars or arrays of length ``count``;
        use ``np.inf`` for unbounded-above variables.
        """
        if count < 0:
            raise ValueError(f"variable block size must be non-negative, got {count}")
        lowers = np.broadcast_to(np.asarray(lower, dtype=float), (count,)).copy()
        uppers = np.broadcast_to(np.asarray(upper, dtype=float), (count,)).copy()
        if np.any(uppers < lowers):
            raise ValueError(f"variable block {name!r}: some upper bound < lower bound")
        start = self._count
        self._count += count
        self._lowers.append(lowers)
        self._uppers.append(uppers)
        self._blocks.append((name or f"block{len(self._blocks)}", start, count))
        return np.arange(start, start + count, dtype=np.int64)

    def bounds_array(self) -> np.ndarray:
        """``(n, 2)`` array of [lower, upper] bounds (``np.inf`` = unbounded)."""
        if not self._lowers:
            return np.empty((0, 2))
        return np.column_stack(
            [np.concatenate(self._lowers), np.concatenate(self._uppers)]
        )


@dataclass
class _Block:
    name: str
    sense: Sense
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    rhs: np.ndarray


class SparseLPBuilder:
    """Assemble a minimization/maximization LP as batched sparse blocks.

    Typical use::

        builder = SparseLPBuilder(name="my-lp")
        x = builder.add_variables(1000, lower=0.0, upper=1.0, name="x")
        builder.add_objective_terms(x, costs)            # vector of len(x)
        builder.add_block("cover", rows, x[cols], vals, rhs, Sense.GE)
        compiled, stats = builder.build()
        solution = solve_compiled(compiled)

    ``rows`` in :meth:`add_block` are *local* to the block (``0 .. len(rhs)-1``);
    the builder assigns global row offsets at :meth:`build` time, which is what
    lets independent constraint families be emitted in any order.
    """

    def __init__(self, name: str = "lp", objective_sense: Objective = Objective.MINIMIZE) -> None:
        self.name = name
        self.objective_sense = objective_sense
        self.arena = VariableArena()
        self._objective_cols: list[np.ndarray] = []
        self._objective_vals: list[np.ndarray] = []
        self._objective_constant = 0.0
        self._blocks: list[_Block] = []
        self._start_time = time.perf_counter()

    # ------------------------------------------------------------- variables
    @property
    def num_variables(self) -> int:
        return self.arena.size

    def add_variables(
        self,
        count: int,
        lower: float | np.ndarray = 0.0,
        upper: float | np.ndarray = 1.0,
        name: str = "",
    ) -> np.ndarray:
        """Allocate a block of variables (see :meth:`VariableArena.add_block`)."""
        return self.arena.add_block(count, lower=lower, upper=upper, name=name)

    # ------------------------------------------------------------- objective
    def add_objective_terms(self, cols: np.ndarray, coeffs: np.ndarray) -> None:
        """Accumulate ``sum coeffs[i] * x[cols[i]]`` into the objective."""
        cols = np.asarray(cols, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=float)
        if cols.shape != coeffs.shape:
            raise ValueError(
                f"objective cols/coeffs length mismatch: {cols.shape} vs {coeffs.shape}"
            )
        self._objective_cols.append(cols)
        self._objective_vals.append(coeffs)

    def add_objective_constant(self, constant: float) -> None:
        self._objective_constant += float(constant)

    # ----------------------------------------------------------- constraints
    def add_block(
        self,
        name: str,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        rhs: np.ndarray,
        sense: Sense = Sense.LE,
    ) -> None:
        """Add a family of constraints as parallel coordinate arrays.

        Parameters
        ----------
        name:
            Family label, kept in :class:`LPBuildStats` (e.g. ``"(2) x<=y"``).
        rows:
            Local row index of each nonzero, in ``[0, len(rhs))``.
        cols:
            Global variable index of each nonzero (from :meth:`add_variables`).
        values:
            Coefficient of each nonzero.
        rhs:
            Right-hand side per row; its length defines the number of rows.
            A block with no rows must have no nonzeros either (it is then
            ignored).
        sense:
            One shared sense for the whole block (GE blocks are negated into
            ``A_ub x <= b_ub`` form at build time).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError(
                f"block {name!r}: rows/cols/values must have equal length "
                f"({rows.shape}, {cols.shape}, {values.shape})"
            )
        if rhs.size == 0:
            if rows.size:
                raise ValueError(f"block {name!r}: {rows.size} nonzeros but no rows (empty rhs)")
            return
        if rows.size and (rows.min() < 0 or rows.max() >= rhs.size):
            raise ValueError(
                f"block {name!r}: row indices must lie in [0, {rhs.size}), "
                f"got [{rows.min()}, {rows.max()}]"
            )
        if cols.size and (cols.min() < 0 or cols.max() >= self.arena.size):
            raise ValueError(
                f"block {name!r}: column indices must reference allocated variables"
            )
        self._blocks.append(_Block(name, sense, rows, cols, values, rhs))

    # ---------------------------------------------------------------- build
    def build(self) -> tuple[CompiledLP, LPBuildStats]:
        """Concatenate all blocks into a :class:`CompiledLP` plus its stats."""
        compile_start = time.perf_counter()
        num_vars = self.arena.size
        sign = 1.0 if self.objective_sense is Objective.MINIMIZE else -1.0

        c = np.zeros(num_vars)
        for cols, vals in zip(self._objective_cols, self._objective_vals):
            np.add.at(c, cols, vals)
        c *= sign

        ub_blocks = [b for b in self._blocks if b.sense in (Sense.LE, Sense.GE)]
        eq_blocks = [b for b in self._blocks if b.sense is Sense.EQ]

        A_ub, b_ub = self._stack(ub_blocks, num_vars, flip_ge=True)
        A_eq, b_eq = self._stack(eq_blocks, num_vars, flip_ge=False)

        bounds = self.arena.bounds_array()
        compiled = CompiledLP(
            c=c,
            A_ub=A_ub,
            b_ub=b_ub,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=bounds,
            objective_sign=sign,
            objective_constant=self._objective_constant,
        )
        end = time.perf_counter()
        stats = LPBuildStats(
            name=self.name,
            num_variables=num_vars,
            num_inequality_rows=0 if b_ub is None else int(b_ub.size),
            num_equality_rows=0 if b_eq is None else int(b_eq.size),
            num_nonzeros=sum(int(b.values.size) for b in self._blocks),
            build_seconds=end - self._start_time,
            compile_seconds=end - compile_start,
            blocks=[
                BlockStats(b.name, int(b.rhs.size), int(b.values.size), b.sense)
                for b in self._blocks
            ],
        )
        return compiled, stats

    @staticmethod
    def _stack(
        blocks: list[_Block], num_vars: int, flip_ge: bool
    ) -> tuple[sparse.csr_matrix | None, np.ndarray | None]:
        if not blocks:
            return None, None
        offset = 0
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        rhs_parts: list[np.ndarray] = []
        for block in blocks:
            flip = -1.0 if (flip_ge and block.sense is Sense.GE) else 1.0
            rows_parts.append(block.rows + offset)
            cols_parts.append(block.cols)
            vals_parts.append(block.values * flip if flip < 0 else block.values)
            rhs_parts.append(block.rhs * flip if flip < 0 else block.rhs)
            offset += block.rhs.size
        matrix = sparse.csr_matrix(
            (
                np.concatenate(vals_parts),
                (np.concatenate(rows_parts), np.concatenate(cols_parts)),
            ),
            shape=(offset, num_vars),
        )
        return matrix, np.concatenate(rhs_parts)


__all__ = [
    "BlockStats",
    "LPBuildStats",
    "SparseLPBuilder",
    "VariableArena",
]
