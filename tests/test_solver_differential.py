"""``solve_compiled`` against the ``linprog`` path it replaced, LP by LP.

Every LP in the package used to be solved by ``scipy.optimize.linprog(...,
method="highs")``; now one ``scipy.optimize.milp`` call solves them all.
Both are public scipy entry points to the same HiGHS solver, so the old path
needs no oracle copy: each test records the LPs a design hands to
``solve_compiled`` -- the Section-2 relaxation, the Section-5 GAP flow LP and
the Section-6.5 path LP -- and requires both calls to return the same status,
the bit-identical primal vector and the identical objective.

The corpus is the shapes the benchmarks and the goldens solve: ``spaa03`` on
the three golden instances and on ``as_geo`` at 120 sinks, ``spaa03-extended``
with the Section-6.4 colour constraints on ``as_geo`` 120 (seeds 0-2, which
take the path rounding), and the shard LPs of ``sharded:spaa03`` on
``internet_scale`` at 150 sinks.
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
    generate_as_geo_problem,
    generate_internet_scale_problem,
)

#: The module whose ``solve_compiled`` lookup each LP kind goes through.
KIND_MODULES = {
    "section-2": repro.core.formulation,
    "gap": repro.core.gap,
    "path": repro.core.path_rounding,
}

#: linprog status codes the corpus may produce -> our enum.
LINPROG_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}


def _as_geo(seed: int):
    return generate_as_geo_problem(AsGeoConfig(num_sinks=120), rng=seed)[0]


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
    **{f"extended-as_geo-120-{seed}": (lambda seed=seed: _colored(seed)) for seed in range(3)},
    "sharded-internet_scale-150": lambda: DesignRequest(
        problem=generate_internet_scale_problem(InternetScaleConfig(num_sinks=150), rng=0)[0],
        parameters=DesignParameters(seed=0),
        strategy="sharded:spaa03",
        options={"jobs": 1},
    ),
}


@pytest.fixture(scope="module")
def corpus() -> dict[str, list[tuple[str, CompiledLP]]]:
    """Every ``(kind, CompiledLP)`` each source's design hands to the solver."""
    calls: list[tuple[str, CompiledLP]] = []
    by_source = {}
    with pytest.MonkeyPatch.context() as patch:
        for kind, module in KIND_MODULES.items():

            def recording(compiled, *args, _kind=kind, **kwargs):
                calls.append((_kind, compiled))
                return solve_compiled(compiled, *args, **kwargs)

            patch.setattr(module, "solve_compiled", recording)
        for name, source in SOURCES.items():
            start = len(calls)
            run_request(source())
            by_source[name] = calls[start:]
    return by_source


def _linprog(compiled: CompiledLP):
    """The deleted solve path: ``linprog`` with HiGHS on the same matrices."""
    return linprog(
        c=compiled.c,
        A_ub=compiled.A_ub,
        b_ub=compiled.b_ub,
        A_eq=compiled.A_eq,
        b_eq=compiled.b_eq,
        bounds=compiled.bounds,
        method="highs",
    )


@pytest.mark.parametrize("source", list(SOURCES))
def test_milp_matches_linprog_bit_for_bit(corpus, source):
    assert corpus[source], f"{source} solved no LP"
    for index, (kind, compiled) in enumerate(corpus[source]):
        where = f"{source} LP {index} ({kind}, {len(compiled.c)} columns)"
        solution = solve_compiled(compiled)
        reference = _linprog(compiled)
        assert solution.status is LINPROG_STATUS[reference.status], where
        assert np.array_equal(solution.values, reference.x), where
        objective = compiled.objective_sign * float(reference.fun) + compiled.objective_constant
        assert solution.objective == objective, where


def test_corpus_holds_every_kind_of_lp(corpus):
    counts = {kind: 0 for kind in KIND_MODULES}
    for lps in corpus.values():
        for kind, _compiled in lps:
            counts[kind] += 1
    assert all(counts.values()), counts
