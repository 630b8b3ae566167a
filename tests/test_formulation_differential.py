"""Differential tests: the sparse Section-2 LP builder against a row-by-row oracle.

:func:`repro.core.formulation.build_sparse_formulation` is the only LP
builder.  ``tests/lp_oracle.py`` writes the same LP one row at a time from
the problem's scalar accessors.  Every constraint family (sliced out of the
compiled matrices by ``stats.blocks``) must match the oracle's as a multiset
of rows, and the objective must match variable by variable, for every
combination of Section-6 extensions.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from lp_oracle import (
    Row,
    family_mismatches,
    formulation_families,
    objective_mismatches,
    oracle_lp,
)
from test_golden_designs import WORKLOADS

from repro.core.formulation import ExtensionOptions, build_sparse_formulation
from repro.core.problem import OverlayDesignProblem

_FLAGS = (
    "use_bandwidth",
    "use_reflector_capacities",
    "use_arc_capacities",
    "use_color_constraints",
    "drop_cutting_plane",
)
ALL_OPTIONS = [
    ExtensionOptions(**dict(zip(_FLAGS, values)))
    for values in itertools.product((False, True), repeat=len(_FLAGS))
]


def _option_id(options: ExtensionOptions) -> str:
    return "-".join(flag for flag in _FLAGS if getattr(options, flag)) or "plain"


def extension_problem() -> OverlayDesignProblem:
    """Small instance that exercises every Section-6 row family.

    Non-unit stream bandwidth, reflector and arc capacities other than 1, a
    colour class whose members both serve the same demands, an uncoloured
    reflector, and per-stream delivery-cost overrides.
    """
    problem = OverlayDesignProblem(name="extensions")
    problem.add_stream("hd", bandwidth=2.5)
    problem.add_stream("sd", bandwidth=1.0)
    problem.add_reflector("r1", cost=3.0, fanout=4, color="isp-a", capacity=1)
    problem.add_reflector("r2", cost=2.0, fanout=3, color="isp-a")
    problem.add_reflector("r3", cost=4.0, fanout=5, color="isp-b", capacity=2)
    problem.add_reflector("r4", cost=1.5, fanout=2)
    for sink in ("k1", "k2", "k3"):
        problem.add_sink(sink)
    for stream, reflector, loss, cost in (
        ("hd", "r1", 0.01, 1.0),
        ("hd", "r2", 0.02, 1.5),
        ("hd", "r3", 0.03, 0.7),
        ("sd", "r1", 0.01, 0.4),
        ("sd", "r3", 0.05, 0.3),
        ("sd", "r4", 0.02, 0.9),
    ):
        problem.add_stream_edge(stream, reflector, loss, cost)
    problem.add_delivery_edge("r1", "k1", 0.02, 0.5, stream_costs={"hd": 2.0}, capacity=1.0)
    problem.add_delivery_edge("r2", "k1", 0.04, 0.6)
    problem.add_delivery_edge("r3", "k1", 0.01, 0.8, capacity=2.0)
    problem.add_delivery_edge("r1", "k2", 0.03, 0.5)
    problem.add_delivery_edge("r2", "k2", 0.02, 0.7, capacity=3.0)
    problem.add_delivery_edge("r4", "k2", 0.06, 0.2, stream_costs={"sd": 0.1})
    problem.add_delivery_edge("r3", "k3", 0.02, 0.4)
    problem.add_delivery_edge("r4", "k3", 0.01, 0.3, capacity=1.0)
    problem.add_delivery_edge("r2", "k3", 0.05, 0.9)
    problem.add_demand("k1", "hd", 0.99)
    problem.add_demand("k1", "sd", 0.95)
    problem.add_demand("k2", "hd", 0.9)
    problem.add_demand("k2", "sd", 0.999)
    problem.add_demand("k3", "sd", 0.97)
    problem.add_demand("k3", "hd", 0.9)
    return problem


def assert_matches_oracle(problem: OverlayDesignProblem, options: ExtensionOptions) -> None:
    formulation = build_sparse_formulation(problem, options)
    oracle = oracle_lp(problem, options)
    built = formulation_families(formulation)
    expected = {tag: rows for tag, rows in oracle.families.items() if rows}
    assert set(built) == set(expected)
    for tag, rows in expected.items():
        assert family_mismatches(rows, built[tag]) == [], tag
    assert objective_mismatches(oracle, formulation) == []
    # Every Section-2 variable is relaxed to [0, 1].
    assert np.all(formulation.compiled.bounds == [0.0, 1.0])


@pytest.mark.parametrize("options", ALL_OPTIONS, ids=_option_id)
def test_every_extension_combination_matches_oracle(options):
    assert_matches_oracle(extension_problem(), options)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_golden_instances_match_oracle(workload):
    assert_matches_oracle(WORKLOADS[workload](), ExtensionOptions())


def test_extension_instance_has_every_family():
    """Guard: the hand-built instance really emits every Section-6 row family."""
    everything = ExtensionOptions(
        use_bandwidth=True,
        use_reflector_capacities=True,
        use_arc_capacities=True,
        use_color_constraints=True,
    )
    formulation = build_sparse_formulation(extension_problem(), everything)
    rows = {block.name.split()[0]: block.rows for block in formulation.stats.blocks}
    assert set(rows) == {"(1)", "(2)", "(3)", "(4)", "(5)", "(8)", "(7')", "(9)"}
    assert all(count > 0 for count in rows.values())
    families = formulation_families(formulation)
    fanout_coefficients = {v for row in families["(3)"] for v in row.coeffs.values()}
    assert 2.5 in fanout_coefficients


class TestOracleCanFail:
    """The comparison must notice a missing row, a wrong coefficient or rhs."""

    @pytest.fixture
    def coverage_rows(self):
        formulation = build_sparse_formulation(extension_problem())
        return formulation_families(formulation)["(5)"]

    def test_reports_a_missing_row(self, coverage_rows):
        assert family_mismatches(coverage_rows, coverage_rows[1:])

    def test_reports_a_changed_coefficient(self, coverage_rows):
        first = coverage_rows[0]
        key = next(iter(first.coeffs))
        changed = Row({**first.coeffs, key: first.coeffs[key] + 1e-9}, first.sense, first.rhs)
        assert family_mismatches(coverage_rows, [changed, *coverage_rows[1:]])

    def test_reports_a_changed_rhs(self, coverage_rows):
        first = coverage_rows[0]
        changed = Row(dict(first.coeffs), first.sense, first.rhs * (1 + 1e-15))
        assert family_mismatches(coverage_rows, [changed, *coverage_rows[1:]])
