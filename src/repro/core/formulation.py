"""The IP/LP formulation of Section 2, plus the Section 6 constraint variants.

The integer program (Section 2 of the paper), with ``y^k_i`` the indicator for
delivering stream ``k`` to reflector ``i``, ``z_i`` for building reflector
``i`` and ``x^k_ij`` for serving sink ``j``'s demand for stream ``k`` through
reflector ``i``:

.. math::

    \\min \\; \\sum_i r_i z_i + \\sum_{i,k} c^k_{ki} y^k_i
              + \\sum_{i,k,j} c^k_{ij} x^k_{ij}

subject to::

    (1)  y^k_i <= z_i
    (2)  x^k_ij <= y^k_i
    (3)  sum_{k,j} x^k_ij <= F_i z_i
    (4)  sum_j   x^k_ij <= F_i y^k_i        (redundant in the IP, a useful
                                             cutting plane for the rounding)
    (5)  sum_i  w^k_ij x^k_ij >= W^k_j
    (6)  x, y, z in {0,1}  (relaxed to [0,1] in the LP)

Section 6 extensions (all opt-in through :class:`ExtensionOptions`):

* 6.1 per-stream bandwidth ``B^k`` replaces (3)/(4) by (3')/(4');
* 6.2 reflector capacities  (8)  ``sum_k y^k_i <= u_i``;
* 6.3 arc capacities        (7') ``sum_k x^k_ij <= u_ij``;
* 6.4 color constraints     (9)  ``sum_{i in R_l} x^k_ij <= 1``.

This module only *builds* the LP; solving and rounding live in
:mod:`repro.core.algorithm`, :mod:`repro.core.rounding` and
:mod:`repro.core.gap`.

:func:`build_sparse_formulation` assembles the relaxation with
:class:`repro.lp.SparseLPBuilder`: variables are allocated as index blocks
and every constraint family above is emitted as one batched coordinate block
(named in :attr:`SparseOverlayFormulation.stats`), so assembly cost is a
handful of numpy operations over the instance arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.index import problem_index
from repro.core.lp_solution import AssignmentKey, FractionalSolution
from repro.core.problem import OverlayDesignProblem
from repro.core.weights import MAX_WEIGHT, MIN_FAILURE_PROBABILITY
from repro.lp import (
    CompiledLP,
    LPBuildStats,
    LPSolution,
    Objective,
    Sense,
    SparseLPBuilder,
    solve_compiled,
)
from repro.lp.solver import LARGE_MATRIX_VALUE

#: ``SparseOverlayFormulation.solve`` runs HiGHS interior point (with
#: crossover) on an LP of at least ``IPM_MIN_NONZEROS`` nonzeros whose
#: delivery-candidate (``x``) columns number at least ``IPM_MIN_LOAD`` times
#: the reflectors' total fanout, and dual simplex on every other LP.  Size
#: alone is not enough: shard LPs carry remote reflectors at their full
#: fanout, read low on load and stay faster under simplex.  The measurements
#: behind both constants are the table in ``docs/solvers.md``.
IPM_MIN_NONZEROS = 5_000
IPM_MIN_LOAD = 0.5


@dataclass
class ExtensionOptions:
    """Which Section-6 extensions to include in the formulation.

    Attributes
    ----------
    use_bandwidth:
        Section 6.1 -- weight each assignment by the stream's bandwidth ``B^k``
        in the fanout constraints (3')/(4').
    use_reflector_capacities:
        Section 6.2 -- add constraint (8) for reflectors that declare a
        ``capacity`` in the problem.
    use_arc_capacities:
        Section 6.3 -- add constraint (7') for delivery edges that declare a
        ``capacity``.
    use_color_constraints:
        Section 6.4 -- add constraint (9) for every color class and demand.
    drop_cutting_plane:
        Omit constraint (4).  The IP is unchanged (Claim 2.1 shows (4) is
        dominated) but the rounding analysis relies on it; the C2 ablation
        benchmark measures the effect of dropping it.
    """

    use_bandwidth: bool = False
    use_reflector_capacities: bool = False
    use_arc_capacities: bool = False
    use_color_constraints: bool = False
    drop_cutting_plane: bool = False


@dataclass
class SparseOverlayFormulation:
    """The Section-2 LP in matrix form, plus the keys to read its solution.

    Holds the :class:`~repro.lp.model.CompiledLP` and the
    :class:`~repro.lp.LPBuildStats` of its assembly; ``stats.blocks`` names
    the constraint families in the order they were emitted.

    Variable layout: ``z`` for every reflector first, then ``y`` for every
    stream edge (in ``problem.stream_edges()`` order), then ``x`` for every
    (reflector, demand) support pair, ordered by demand and then by
    reflector.  ``z_keys``, ``y_keys`` and ``x_keys`` name the columns.
    """

    problem: OverlayDesignProblem
    compiled: CompiledLP
    stats: LPBuildStats
    z_keys: list[str]
    y_keys: list[tuple[str, str]]
    x_keys: list[AssignmentKey]
    options: ExtensionOptions = field(default_factory=ExtensionOptions)

    # ------------------------------------------------------------------ solve
    def solve(self) -> LPSolution:
        """Solve the LP relaxation (Section 2, relaxed constraint (6))."""
        return solve_compiled(self.compiled, interior_point=self.interior_point, stats=self.stats)

    @property
    def interior_point(self) -> bool:
        """Whether :meth:`solve` runs interior point (see ``IPM_MIN_LOAD``)."""
        total_fanout = sum(self.problem.reflector_info(name).fanout for name in self.z_keys)
        return (
            self.stats.num_nonzeros >= IPM_MIN_NONZEROS
            and len(self.x_keys) >= IPM_MIN_LOAD * total_fanout
        )

    def fractional_solution(self, lp_solution: LPSolution) -> FractionalSolution:
        """Extract ``(z_hat, y_hat, x_hat)`` from a solved LP."""
        if not lp_solution.is_optimal:
            raise ValueError(
                f"LP relaxation was not solved to optimality: {lp_solution.status.value} "
                f"({lp_solution.message})"
            )
        values = np.asarray(lp_solution.values, dtype=float)
        nz, ny = len(self.z_keys), len(self.y_keys)
        return FractionalSolution(
            z=dict(zip(self.z_keys, values[:nz].tolist())),
            y=dict(zip(self.y_keys, values[nz : nz + ny].tolist())),
            x=dict(zip(self.x_keys, values[nz + ny :].tolist())),
            objective=lp_solution.objective,
        )

    # ------------------------------------------------------------- accessors
    @property
    def num_variables(self) -> int:
        return int(self.compiled.c.size)

    @property
    def num_constraints(self) -> int:
        return self.stats.num_constraints


def build_sparse_formulation(
    problem: OverlayDesignProblem,
    options: ExtensionOptions | None = None,
) -> SparseOverlayFormulation:
    """Build the Section-2 LP relaxation (optionally with Section-6 extensions).

    The variable set is restricted to the problem's support: an ``x``
    variable exists only for (reflector, demand) pairs where both the stream
    edge and the delivery edge exist, and a ``y`` variable only for existing
    stream edges.  This matches the paper's tripartite digraph and keeps the
    LP at ``O(|S|·|R|·|D|)`` size.  The ``x`` support is the candidate CSR of
    the problem's index (:func:`repro.core.index.problem_index`): by demand,
    then by reflector, the row-major nonzero order of the ``(demands,
    reflectors)`` candidate mask.  The LP keeps its own ``np.log`` weights.
    Each constraint family -- (1), (2), (3), (4), (5) and the Section-6
    blocks -- is emitted as a single coordinate block.

    Raises ``ValueError`` naming the reflector, stream edge or delivery edge
    behind the first column whose cost is NaN or infinite, or the first
    reflector whose fanout HiGHS would refuse as a matrix entry.
    """
    options = options or ExtensionOptions()
    problem.validate()

    builder = SparseLPBuilder(name=f"{problem.name}-lp", objective_sense=Objective.MINIMIZE)

    # Instance arrays, from the problem's index ------------------------------
    index = problem_index(problem)
    reflectors, streams = index.reflectors, index.streams
    demands = index.demands
    n_reflectors, n_streams = len(reflectors), len(streams)

    infos = [problem.reflector_info(name) for name in reflectors]
    reflector_cost = np.array([info.cost for info in infos])
    fanout = index.fanout

    edges = problem.stream_edges()
    se_reflector = index.edge_reflector
    se_cost = np.array([e.cost for e in edges])
    n_edges = len(edges)

    d_threshold = np.array([d.success_threshold for d in demands])
    # W_kj = -log(1 - Phi), clamped exactly like weights.threshold_to_weight.
    d_failure = 1.0 - d_threshold
    demand_weight = np.where(
        d_failure <= MIN_FAILURE_PROBABILITY,
        MAX_WEIGHT,
        np.minimum(MAX_WEIGHT, -np.log(np.maximum(d_failure, MIN_FAILURE_PROBABILITY))),
    )

    # x support: every demand's candidates, demand-major and by reflector ----
    xd, xr = index.candidate_demand, index.candidate_reflector
    x_stream = index.demand_stream[xd]
    x_link = index.candidate_link
    x_edge = index.candidate_edge
    n_x = xd.size

    # w_kij: serial loss rule + log transform, capped at W_kj ----------------
    p1 = index.edge_loss[x_edge]
    p2 = index.link_loss[x_link]
    q = p1 + p2 - p1 * p2
    cap = np.minimum(MAX_WEIGHT, demand_weight[xd])
    x_weight = np.where(
        q <= MIN_FAILURE_PROBABILITY,
        cap,
        np.minimum(cap, -np.log(np.maximum(q, MIN_FAILURE_PROBABILITY))),
    )

    # c^k_ij: per-link base cost with optional per-stream overrides ----------
    x_cost = index.candidate_cost

    # Variables: z, then y, then x -------------------------------------------
    z_cols = builder.add_variables(n_reflectors, 0.0, 1.0, name="z")
    y_cols = builder.add_variables(n_edges, 0.0, 1.0, name="y")
    x_cols = builder.add_variables(n_x, 0.0, 1.0, name="x")

    # Objective --------------------------------------------------------------
    builder.add_objective_terms(z_cols, reflector_cost)
    builder.add_objective_terms(y_cols, se_cost)
    builder.add_objective_terms(x_cols, x_cost)

    ones_x = np.ones(n_x)

    # Constraint (1): y <= z --------------------------------------------------
    rows = np.tile(np.arange(n_edges), 2)
    builder.add_block(
        "(1) y<=z",
        rows,
        np.concatenate([y_cols, z_cols[se_reflector]]),
        np.concatenate([np.ones(n_edges), -np.ones(n_edges)]),
        np.zeros(n_edges),
        Sense.LE,
    )

    # Constraint (2): x <= y --------------------------------------------------
    rows = np.tile(np.arange(n_x), 2)
    builder.add_block(
        "(2) x<=y",
        rows,
        np.concatenate([x_cols, y_cols[x_edge]]),
        np.concatenate([ones_x, -ones_x]),
        np.zeros(n_x),
        Sense.LE,
    )

    # Fanout constraints (3)/(4) or their bandwidth versions (3')/(4') --------
    if options.use_bandwidth:
        bandwidth = np.array([problem.stream_bandwidth(s) for s in streams])
    else:
        bandwidth = np.ones(n_streams)
    x_load = bandwidth[x_stream]

    used_reflectors, load_row = np.unique(xr, return_inverse=True)
    n_load_rows = used_reflectors.size
    builder.add_block(
        "(3) fanout vs z",
        np.concatenate([load_row, np.arange(n_load_rows)]),
        np.concatenate([x_cols, z_cols[used_reflectors]]),
        np.concatenate([x_load, -fanout[used_reflectors]]),
        np.zeros(n_load_rows),
        Sense.LE,
    )

    if not options.drop_cutting_plane:
        pair_key = xr * n_streams + x_stream
        used_pairs, pair_row = np.unique(pair_key, return_inverse=True)
        pair_reflector = used_pairs // n_streams
        pair_stream = used_pairs % n_streams
        pair_edge = index.stream_edge[pair_stream, pair_reflector]  # >= 0 on the support
        n_pair_rows = used_pairs.size
        builder.add_block(
            "(4) fanout vs y",
            np.concatenate([pair_row, np.arange(n_pair_rows)]),
            np.concatenate([x_cols, y_cols[pair_edge]]),
            np.concatenate([x_load, -fanout[pair_reflector]]),
            np.zeros(n_pair_rows),
            Sense.LE,
        )

    # Constraint (5): weight coverage -----------------------------------------
    builder.add_block(
        "(5) weight coverage",
        xd,
        x_cols,
        x_weight,
        demand_weight,
        Sense.GE,
    )

    # Section 6.2: reflector capacities (8) ------------------------------------
    if options.use_reflector_capacities:
        reflector_cap = np.array(
            [np.nan if info.capacity is None else float(info.capacity) for info in infos]
        )
        capped = ~np.isnan(reflector_cap[se_reflector])
        if capped.any():
            used, row = np.unique(se_reflector[capped], return_inverse=True)
            builder.add_block(
                "(8) reflector capacity",
                row,
                y_cols[capped],
                np.ones(int(capped.sum())),
                reflector_cap[used],
                Sense.LE,
            )

    # Section 6.3: arc capacities (7') -----------------------------------------
    if options.use_arc_capacities:
        link_cap = index.link_capacity
        capped = ~np.isnan(link_cap[x_link])
        if capped.any():
            used, row = np.unique(x_link[capped], return_inverse=True)
            builder.add_block(
                "(7') arc capacity",
                row,
                x_cols[capped],
                np.ones(int(capped.sum())),
                link_cap[used],
                Sense.LE,
            )

    # Section 6.4: color constraints (9) ----------------------------------------
    if options.use_color_constraints:
        color_of = index.color
        colored = color_of[xr] >= 0
        if colored.any():
            group_key = xd[colored] * np.int64(len(index.colors)) + color_of[xr[colored]]
            groups, row = np.unique(group_key, return_inverse=True)
            counts = np.bincount(row)
            # A single member can never exceed one copy.
            keep_group = counts >= 2
            if keep_group.any():
                row_of_group = np.full(groups.size, -1, dtype=np.int64)
                row_of_group[keep_group] = np.arange(int(keep_group.sum()))
                keep_entry = keep_group[row]
                builder.add_block(
                    "(9) color",
                    row_of_group[row[keep_entry]],
                    x_cols[colored][keep_entry],
                    np.ones(int(keep_entry.sum())),
                    np.ones(int(keep_group.sum())),
                    Sense.LE,
                )

    compiled, stats = builder.build()
    if (fanout >= LARGE_MATRIX_VALUE).any():
        # Fanouts are matrix entries of rows (3)/(4); HiGHS would refuse them.
        info = infos[int(np.argmax(fanout >= LARGE_MATRIX_VALUE))]
        raise ValueError(
            f"reflector {info.name!r}: fanout must be below {LARGE_MATRIX_VALUE:g}, "
            f"got {info.fanout}"
        )

    return SparseOverlayFormulation(
        problem=problem,
        compiled=compiled,
        stats=stats,
        z_keys=list(reflectors),
        y_keys=[(edge.stream, edge.reflector) for edge in edges],
        x_keys=[(reflectors[r], index.keys[d]) for r, d in zip(xr.tolist(), xd.tolist())],
        options=options,
    )
