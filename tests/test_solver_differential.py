"""``solve_compiled`` against the ``linprog`` path it replaced, LP by LP.

Every LP in the package used to be solved by ``scipy.optimize.linprog(...,
method="highs")``; now ``solve_compiled`` runs one HiGHS model object per LP,
by simplex or, where the Section-2 formulation asks for it, by interior point
with crossover.  ``linprog`` is a public scipy entry point to the same HiGHS
solver, so the old path needs no oracle copy: each test records the LPs a
design hands to ``solve_compiled`` -- the Section-2 relaxation, the Section-5
GAP flow LP and the Section-6.5 path LP -- with the method each was solved
by, and requires ``solve_compiled`` to return the same status, the
bit-identical primal vector and the identical objective as ``linprog`` with
``method="highs"`` (simplex LPs) or ``method="highs-ipm"`` (interior-point
LPs).

The corpus is the shapes the benchmarks and the goldens solve: ``spaa03`` on
the three golden instances and on ``as_geo`` at 120 and 300 sinks (the
latter is design-mono's shape), ``spaa03-extended`` with the Section-6.4
colour constraints on ``as_geo`` 120 (seeds 0-2, which take the path
rounding), ``spaa03`` on a random 150-sink, 20-reflector monolith, and the
shard LPs of ``sharded:spaa03`` on ``internet_scale`` at 150 sinks.  The
``as_geo`` 300 and random monoliths are large and fanout-loaded, so their
Section-2 LPs take interior point; every other LP takes simplex.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog
from test_golden_designs import GOLDEN_SEED, WORKLOADS

import repro.core.formulation
import repro.core.gap
import repro.core.path_rounding
from repro.api import DesignRequest, run_request
from repro.core.algorithm import DesignParameters
from repro.core.extensions import color_constrained_parameters
from repro.lp import CompiledLP, LPStatus, solve_compiled
from repro.workloads import (
    AsGeoConfig,
    InternetScaleConfig,
    RandomInstanceConfig,
    generate_as_geo_problem,
    generate_internet_scale_problem,
    random_problem,
)

#: The module whose ``solve_compiled`` lookup each LP kind goes through.
KIND_MODULES = {
    "section-2": repro.core.formulation,
    "gap": repro.core.gap,
    "path": repro.core.path_rounding,
}

#: linprog status codes the corpus may produce -> our enum.
LINPROG_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}


def _as_geo(seed: int, num_sinks: int = 120):
    return generate_as_geo_problem(AsGeoConfig(num_sinks=num_sinks), rng=seed)[0]


def _golden(name: str) -> DesignRequest:
    return DesignRequest(problem=WORKLOADS[name](), parameters=DesignParameters(seed=GOLDEN_SEED))


def _colored(seed: int) -> DesignRequest:
    return DesignRequest(
        problem=_as_geo(seed),
        parameters=color_constrained_parameters(DesignParameters(seed=seed)),
        strategy="spaa03-extended",
    )


#: Each source is one design whose solves join the corpus.
SOURCES = {
    **{f"spaa03-{name}": (lambda name=name: _golden(name)) for name in WORKLOADS},
    "spaa03-as_geo-120": lambda: DesignRequest(
        problem=_as_geo(0), parameters=DesignParameters(seed=0)
    ),
    "spaa03-as_geo-300": lambda: DesignRequest(
        problem=_as_geo(0, num_sinks=300), parameters=DesignParameters(seed=0)
    ),
    **{f"extended-as_geo-120-{seed}": (lambda seed=seed: _colored(seed)) for seed in range(3)},
    "spaa03-random-150x20": lambda: DesignRequest(
        problem=random_problem(
            RandomInstanceConfig(num_streams=2, num_reflectors=20, num_sinks=150), rng=5
        ),
        parameters=DesignParameters(seed=0),
    ),
    "sharded-internet_scale-150": lambda: DesignRequest(
        problem=generate_internet_scale_problem(InternetScaleConfig(num_sinks=150), rng=0)[0],
        parameters=DesignParameters(seed=0),
        strategy="sharded:spaa03",
        options={"jobs": 1},
    ),
}


@pytest.fixture(scope="module")
def corpus() -> dict[str, list[tuple[str, CompiledLP, bool]]]:
    """Every ``(kind, CompiledLP, interior_point)`` each source's design solves."""
    calls: list[tuple[str, CompiledLP, bool]] = []
    by_source = {}
    with pytest.MonkeyPatch.context() as patch:
        for kind, module in KIND_MODULES.items():

            def recording(compiled, *args, _kind=kind, **kwargs):
                calls.append((_kind, compiled, kwargs.get("interior_point", False)))
                return solve_compiled(compiled, *args, **kwargs)

            patch.setattr(module, "solve_compiled", recording)
        for name, source in SOURCES.items():
            start = len(calls)
            run_request(source())
            by_source[name] = calls[start:]
    return by_source


def _linprog(compiled: CompiledLP, interior_point: bool):
    """The deleted solve path: ``linprog`` with HiGHS on the same matrices."""
    return linprog(
        c=compiled.c,
        A_ub=compiled.A_ub,
        b_ub=compiled.b_ub,
        A_eq=compiled.A_eq,
        b_eq=compiled.b_eq,
        bounds=compiled.bounds,
        method="highs-ipm" if interior_point else "highs",
    )


@pytest.mark.parametrize("source", list(SOURCES))
def test_solve_matches_linprog_bit_for_bit(corpus, source):
    assert corpus[source], f"{source} solved no LP"
    for index, (kind, compiled, interior_point) in enumerate(corpus[source]):
        method = "ipm" if interior_point else "simplex"
        where = f"{source} LP {index} ({kind}, {method}, {len(compiled.c)} columns)"
        solution = solve_compiled(compiled, interior_point=interior_point)
        reference = _linprog(compiled, interior_point)
        assert solution.status is LINPROG_STATUS[reference.status], where
        assert np.array_equal(solution.values, reference.x), where
        objective = compiled.objective_sign * float(reference.fun) + compiled.objective_constant
        assert solution.objective == objective, where


def test_corpus_holds_every_kind_of_lp_and_both_methods(corpus):
    counts = {kind: 0 for kind in KIND_MODULES}
    section2_methods = set()
    for lps in corpus.values():
        for kind, _compiled, interior_point in lps:
            counts[kind] += 1
            if kind == "section-2":
                section2_methods.add(interior_point)
    assert all(counts.values()), counts
    # The rule sends some Section-2 LPs to interior point and keeps others on
    # simplex; forcing it either way empties one side.
    assert section2_methods == {False, True}
