"""Exact MILP solver for the Section-2 integer program.

A brute-force search over per-demand reflector subsets only reaches tiny
instances (the test suite keeps one, ``tests/exact_oracle.py``, as this
module's differential oracle).  This module instead hands the *actual*
Section-2 integer program -- the same :class:`~repro.lp.sparse.SparseLPBuilder` blocks the LP
relaxation uses, with integrality restored on every variable -- to HiGHS
branch-and-cut (:func:`repro.lp.solve_compiled`).  That scales the ground
truth from a handful of sinks to hundreds, which is what lets the F3
benchmark measure the paper's LP-vs-OPT integrality gap at realistic sizes.

Symmetry breaking
-----------------
Internet-scale instances contain many *interchangeable* reflectors: same
build cost, fanout, color and capacity, and identical stream/delivery edges
(metro templates stamp them out by the dozen).  Any permutation of such a
class maps feasible designs to feasible designs of equal cost, so the
branch-and-bound tree contains each design once per permutation.  Following
the orbitope trick from districting MILPs, we order the build variables
within each equivalence class (``z[r1] >= z[r2] >= ...`` in a canonical
order), keeping exactly the lexicographically-largest representative of each
orbit.  The constraint is valid (every orbit retains a member) and cheap
(one sparse row per adjacent pair).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.formulation import ExtensionOptions, build_sparse_formulation
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.lp import LPStatus, solve_compiled
from repro.lp.model import CompiledLP, Sense
from repro.lp.sparse import BlockStats


@dataclass
class MILPResult:
    """Outcome of an exact MILP solve.

    Attributes
    ----------
    solution:
        The integral overlay design extracted from the incumbent.
    optimal_cost:
        Cost of the design (proven optimal unless ``status`` is
        ``"feasible"``, i.e. a time/gap limit stopped the solver early).
    status:
        ``"optimal"`` or ``"feasible"`` (limit hit with an incumbent).
    mip_gap:
        Relative incumbent-vs-bound gap reported by the solver.
    mip_dual_bound:
        Best proven lower bound on the integer optimum.
    node_count:
        Branch-and-bound nodes explored.
    symmetry_rows:
        Number of orbitope ordering rows added (0 when disabled or when no
        reflectors are interchangeable).
    symmetry_classes:
        Number of interchangeable-reflector classes of size >= 2.
    """

    solution: OverlaySolution
    optimal_cost: float
    status: str
    mip_gap: float | None
    mip_dual_bound: float | None
    node_count: int | None
    symmetry_rows: int
    symmetry_classes: int


def _reflector_equivalence_classes(problem: OverlayDesignProblem) -> list[list[str]]:
    """Group reflectors that are interchangeable under any solution permutation.

    Two reflectors are interchangeable when swapping them maps feasible
    designs to feasible designs of identical cost: same build cost, fanout,
    color and Section-6.2 capacity, and identical stream-edge and
    delivery-edge data (costs, losses, arc capacities, per-stream overrides).
    Returned classes are sorted by reflector registration order; only classes
    with at least two members are returned.
    """
    in_streams: dict[str, list] = defaultdict(list)
    for edge in problem.stream_edges():
        in_streams[edge.reflector].append((edge.stream, edge.cost))
    out_links: dict[str, list] = defaultdict(list)
    overrides = problem.delivery_stream_cost_overrides()
    for reflector, sink, loss, cost in problem.delivery_link_data():
        per_stream = tuple(sorted(overrides.get((reflector, sink), {}).items()))
        cap = problem.arc_capacity(reflector, sink)
        out_links[reflector].append((sink, loss, cost, cap, per_stream))

    order = {name: i for i, name in enumerate(problem.reflectors)}
    classes: dict[tuple, list[str]] = defaultdict(list)
    for name in problem.reflectors:
        info = problem.reflector_info(name)
        signature = (
            info.cost,
            info.fanout,
            info.color,
            info.capacity,
            tuple(sorted(in_streams[name])),
            tuple(sorted(out_links[name])),
        )
        classes[signature].append(name)
    grouped = [sorted(members, key=order.__getitem__) for members in classes.values()]
    grouped = [members for members in grouped if len(members) >= 2]
    grouped.sort(key=lambda members: order[members[0]])
    return grouped


def _with_symmetry_rows(
    compiled: CompiledLP, z_index: dict[str, int], classes: list[list[str]]
) -> tuple[CompiledLP, int]:
    """Append ``z[r_k] - z[r_{k+1}] >= 0`` ordering rows for each class.

    Interchangeable reflectors' delivery edges are identical, so *sinks* are
    indifferent to which representatives carry their streams; forcing builds
    onto the earliest-registered members of each class removes the
    permutation orbit from the search tree without excluding any cost value.
    """
    rows: list[tuple[int, int]] = []
    for members in classes:
        for left, right in zip(members, members[1:]):
            rows.append((z_index[left], z_index[right]))
    if not rows:
        return compiled, 0
    n = len(compiled.c)
    data = np.empty(2 * len(rows))
    data[0::2] = -1.0  # -z[left] + z[right] <= 0  <=>  z[left] >= z[right]
    data[1::2] = 1.0
    row_idx = np.repeat(np.arange(len(rows)), 2)
    col_idx = np.asarray(rows).reshape(-1)
    block = sparse.csr_matrix((data, (row_idx, col_idx)), shape=(len(rows), n))
    A_ub = block if compiled.A_ub is None else sparse.vstack(
        [compiled.A_ub, block], format="csr"
    )
    b_ub = np.concatenate(
        [
            np.zeros(0) if compiled.b_ub is None else np.asarray(compiled.b_ub),
            np.zeros(len(rows)),
        ]
    )
    extended = CompiledLP(
        c=compiled.c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=compiled.A_eq,
        b_eq=compiled.b_eq,
        bounds=compiled.bounds,
        objective_sign=compiled.objective_sign,
        objective_constant=compiled.objective_constant,
    )
    return extended, len(rows)


def milp_exact_design(
    problem: OverlayDesignProblem,
    extensions: ExtensionOptions | None = None,
    time_limit: float | None = None,
    mip_gap: float | None = None,
    symmetry_breaking: bool = True,
) -> MILPResult:
    """Solve the Section-2 IP exactly with HiGHS branch-and-cut.

    Raises ``ValueError`` when the IP is infeasible (the message names the
    constraint-family row counts of the build) and
    :class:`~repro.lp.SolverError` when a limit stops HiGHS before it finds
    an incumbent.
    """
    problem.validate()
    formulation = build_sparse_formulation(problem, extensions)
    compiled, stats = formulation.compiled, formulation.stats

    z_index = {name: i for i, name in enumerate(formulation.z_keys)}
    symmetry_rows = 0
    classes: list[list[str]] = []
    if symmetry_breaking:
        classes = _reflector_equivalence_classes(problem)
        compiled, symmetry_rows = _with_symmetry_rows(compiled, z_index, classes)
        if symmetry_rows:
            stats.blocks.append(
                BlockStats(
                    name="(sym) orbitope ordering",
                    rows=symmetry_rows,
                    nonzeros=2 * symmetry_rows,
                    sense=Sense.LE,
                )
            )

    # The Section-2 IP is binary in every variable family (z, y, x).
    lp_solution = solve_compiled(
        compiled,
        integrality=np.ones(len(compiled.c), dtype=np.int8),
        time_limit=time_limit,
        mip_gap=mip_gap,
        stats=stats,
    )
    if not lp_solution.has_solution:
        raise ValueError(
            f"Section-2 IP was not solved: {lp_solution.status.value} "
            f"({lp_solution.message})"
        )

    values = np.asarray(lp_solution.values, dtype=float)
    nz, ny = len(formulation.z_keys), len(formulation.y_keys)
    x_values = values[nz + ny :]
    assignments: dict = defaultdict(list)
    for (reflector, demand_key), value in zip(formulation.x_keys, x_values):
        if value >= 0.5:
            assignments[demand_key].append(reflector)
    solution = OverlaySolution.from_assignments(
        problem,
        dict(assignments),
        metadata={
            "algorithm": "milp-exact",
            "symmetry_rows": symmetry_rows,
        },
    )
    status = "optimal" if lp_solution.status is LPStatus.OPTIMAL else "feasible"
    return MILPResult(
        solution=solution,
        optimal_cost=solution.total_cost(),
        status=status,
        mip_gap=lp_solution.mip_gap,
        mip_dual_bound=lp_solution.mip_dual_bound,
        node_count=lp_solution.mip_node_count,
        symmetry_rows=symmetry_rows,
        symmetry_classes=len(classes),
    )


__all__ = ["MILPResult", "milp_exact_design", "_reflector_equivalence_classes"]
