"""Row-by-row Section-2 LP: the differential oracle for the sparse builder.

:func:`repro.core.formulation.build_sparse_formulation` emits each constraint
family of the Section-2 LP as one vectorized block.  This module builds the
same LP the way the paper writes it -- one loop per family, one dict per row
-- from the problem's scalar accessors, so the tests can compare the two
family by family.  Variables are keyed ``("z", r)``, ``("y", (s, r))`` and
``("x", (r, (k, s)))``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.formulation import ExtensionOptions, SparseOverlayFormulation
from repro.core.problem import OverlayDesignProblem
from repro.lp import Sense


@dataclass
class Row:
    """One constraint: ``sum coeffs[v] * v  (sense)  rhs``."""

    coeffs: dict[tuple, float]
    sense: Sense
    rhs: float


@dataclass
class OracleLP:
    """Objective by variable key and rows by family tag (``"(1)"``, ``"(7')"``...)."""

    objective: dict[tuple, float]
    families: dict[str, list[Row]] = field(default_factory=dict)


def oracle_lp(problem: OverlayDesignProblem, options: ExtensionOptions) -> OracleLP:
    """The Section-2 LP (plus the Section-6 rows ``options`` asks for)."""
    y = [("y", (edge.stream, edge.reflector)) for edge in problem.stream_edges()]
    x = [
        ("x", (reflector, demand.key))
        for demand in problem.demands
        for reflector in problem.candidate_reflectors(demand)
    ]
    objective = {("z", r): problem.reflector_cost(r) for r in problem.reflectors}
    for key in y:
        stream, reflector = key[1]
        objective[key] = problem.stream_edge(stream, reflector).cost
    for key in x:
        reflector, (sink, stream) = key[1]
        objective[key] = problem.delivery_cost(reflector, sink, stream)
    lp = OracleLP(objective)
    rows = lp.families

    # (1) y^k_i <= z_i
    rows["(1)"] = [Row({key: 1.0, ("z", key[1][1]): -1.0}, Sense.LE, 0.0) for key in y]

    # (2) x^k_ij <= y^k_i
    rows["(2)"] = [
        Row({key: 1.0, ("y", (key[1][1][1], key[1][0])): -1.0}, Sense.LE, 0.0) for key in x
    ]

    # (3) sum_{k,j} B^k x^k_ij <= F_i z_i  and  (4) sum_j B^k x^k_ij <= F_i y^k_i
    def bandwidth(stream: str) -> float:
        return problem.stream_bandwidth(stream) if options.use_bandwidth else 1.0

    load: dict[str, dict] = defaultdict(dict)
    stream_load: dict[tuple[str, str], dict] = defaultdict(dict)
    for key in x:
        reflector, (_sink, stream) = key[1]
        load[reflector][key] = bandwidth(stream)
        stream_load[(stream, reflector)][key] = bandwidth(stream)
    rows["(3)"] = [
        Row({**coeffs, ("z", r): -float(problem.fanout(r))}, Sense.LE, 0.0)
        for r, coeffs in load.items()
    ]
    if not options.drop_cutting_plane:
        rows["(4)"] = [
            Row({**coeffs, ("y", (s, r)): -float(problem.fanout(r))}, Sense.LE, 0.0)
            for (s, r), coeffs in stream_load.items()
        ]

    # (5) sum_i w^k_ij x^k_ij >= W^k_j
    rows["(5)"] = [
        Row(
            {
                ("x", (r, demand.key)): problem.edge_weight(demand, r)
                for r in problem.candidate_reflectors(demand)
            },
            Sense.GE,
            problem.demand_weight(demand),
        )
        for demand in problem.demands
    ]

    # (8) sum_k y^k_i <= u_i
    if options.use_reflector_capacities:
        rows["(8)"] = []
        for r in problem.reflectors:
            capacity = problem.reflector_capacity(r)
            coeffs = {key: 1.0 for key in y if key[1][1] == r}
            if capacity is not None and coeffs:
                rows["(8)"].append(Row(coeffs, Sense.LE, capacity))

    # (7') sum_k x^k_ij <= u_ij
    if options.use_arc_capacities:
        rows["(7')"] = []
        for r, k in problem.delivery_links():
            capacity = problem.arc_capacity(r, k)
            coeffs = {key: 1.0 for key in x if key[1][0] == r and key[1][1][0] == k}
            if capacity is not None and coeffs:
                rows["(7')"].append(Row(coeffs, Sense.LE, capacity))

    # (9) sum_{i in R_l} x^k_ij <= 1, for colour classes with >= 2 candidates
    if options.use_color_constraints:
        rows["(9)"] = []
        x_set = set(x)
        for demand in problem.demands:
            for members in problem.colors().values():
                coeffs = {
                    ("x", (r, demand.key)): 1.0 for r in members if ("x", (r, demand.key)) in x_set
                }
                if len(coeffs) >= 2:
                    rows["(9)"].append(Row(coeffs, Sense.LE, 1.0))
    return lp


def formulation_keys(formulation: SparseOverlayFormulation) -> list[tuple]:
    """Oracle-style key of every column of ``formulation``."""
    return (
        [("z", key) for key in formulation.z_keys]
        + [("y", key) for key in formulation.y_keys]
        + [("x", key) for key in formulation.x_keys]
    )


def formulation_families(formulation: SparseOverlayFormulation) -> dict[str, list[Row]]:
    """The compiled rows of ``formulation``, sliced into families by ``stats.blocks``.

    GE blocks are stored negated in ``A_ub``; they are flipped back here.
    """
    keys = formulation_keys(formulation)
    compiled = formulation.compiled
    offsets = {"ub": 0, "eq": 0}
    families: dict[str, list[Row]] = {}
    for block in formulation.stats.blocks:
        part = "eq" if block.sense is Sense.EQ else "ub"
        matrix = compiled.A_eq if part == "eq" else compiled.A_ub
        rhs = compiled.b_eq if part == "eq" else compiled.b_ub
        sign = -1.0 if block.sense is Sense.GE else 1.0
        start = offsets[part]
        offsets[part] += block.rows
        rows = []
        for i in range(start, start + block.rows):
            entries = slice(matrix.indptr[i], matrix.indptr[i + 1])
            coeffs = {
                keys[j]: sign * float(v)
                for j, v in zip(matrix.indices[entries], matrix.data[entries])
            }
            rows.append(Row(coeffs, block.sense, sign * float(rhs[i])))
        families[block.name.split()[0]] = rows
    return families


def family_mismatches(expected: list[Row], actual: list[Row], tol: float = 1e-12) -> list[str]:
    """Differences between two families compared as multisets of rows.

    Rows pair up by sense and variable set; paired rows must have the same
    right-hand side and coefficients within ``tol``.
    """

    def grouped(rows: list[Row]) -> dict[tuple, list[Row]]:
        groups: dict[tuple, list[Row]] = defaultdict(list)
        for row in rows:
            groups[(row.sense, frozenset(row.coeffs))].append(row)
        for members in groups.values():
            members.sort(key=lambda row: (row.rhs, sorted(row.coeffs.values())))
        return groups

    problems = []
    want, got = grouped(expected), grouped(actual)
    for signature in want.keys() | got.keys():
        a, b = want.get(signature, []), got.get(signature, [])
        if len(a) != len(b):
            problems.append(f"{len(a)} expected vs {len(b)} built rows over {set(signature[1])}")
            continue
        for row_a, row_b in zip(a, b):
            if row_a.rhs != row_b.rhs:
                problems.append(f"rhs {row_a.rhs!r} vs {row_b.rhs!r} over {set(signature[1])}")
            for key, value in row_a.coeffs.items():
                if abs(value - row_b.coeffs[key]) > tol:
                    problems.append(f"coefficient of {key}: {value!r} vs {row_b.coeffs[key]!r}")
    return problems


def objective_mismatches(
    oracle: OracleLP, formulation: SparseOverlayFormulation, tol: float = 1e-12
) -> list[str]:
    """Differences between the oracle objective and the compiled ``c``, by key."""
    built = dict(zip(formulation_keys(formulation), formulation.compiled.c.tolist()))
    problems = []
    if set(oracle.objective) != set(built):
        problems.append(f"variable sets differ: {set(oracle.objective) ^ set(built)}")
    for key in oracle.objective.keys() & built.keys():
        if abs(oracle.objective[key] - built[key]) > tol:
            problems.append(f"cost of {key}: {oracle.objective[key]!r} vs {built[key]!r}")
    return problems
