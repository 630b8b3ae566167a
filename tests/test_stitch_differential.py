"""The one stitch against the solution-level stitch it replaced.

Every sharded design and every incremental update now stitches plain
per-shard assignment maps with :func:`repro.scale.stitch.stitch_assignments`.
``tests/stitch_oracle.py`` keeps the stitch the sharded pipeline used to run
over shard :class:`OverlaySolution` objects.  Over twelve sharded designs
(``internet_scale`` at 150 sinks, seeds 0-2, and 1,000 sinks; ``as_geo`` at
300 sinks, seeds 0-1; inner ``spaa03`` and ``greedy``) both stitches, and the
registered ``sharded:*`` designer, must give the same design bit for bit and
the same stitch report.  The ``as_geo`` greedy designs overload shared
reflectors, so the rebalance both moves and drops assignments there.
"""

from __future__ import annotations

import pytest

from repro.api import DesignRequest, design_batch, get_designer
from repro.api.types import parameters_from_dict, parameters_to_dict
from repro.core.algorithm import DesignParameters
from repro.core.serialization import solution_digest
from repro.scale import build_partition, shard_seed, stitch_assignments
from repro.workloads import InternetScaleConfig, generate_internet_scale_problem
from repro.workloads.as_geo import AsGeoConfig, generate_as_geo_problem
from stitch_oracle import stitch_solutions

SEED = 0

_INTERNET = (generate_internet_scale_problem, InternetScaleConfig)
_AS_GEO = (generate_as_geo_problem, AsGeoConfig)
#: name -> (generator, config, sinks, seed)
INSTANCES = {
    **{f"internet_scale-150-{seed}": (*_INTERNET, 150, seed) for seed in (0, 1, 2)},
    "internet_scale-1000-0": (*_INTERNET, 1000, 0),
    **{f"as_geo-300-{seed}": (*_AS_GEO, 300, seed) for seed in (0, 1)},
}
INNER = ("spaa03", "greedy")


@pytest.fixture(scope="module")
def problems():
    return {
        name: generate(config(num_sinks=sinks), rng=seed)[0]
        for name, (generate, config, sinks, seed) in INSTANCES.items()
    }


def _shard_solutions(problem, plan, inner):
    """Each shard designed whole, with the seeds the sharded pipeline gives it."""
    base = parameters_to_dict(DesignParameters(seed=SEED))
    requests = []
    for index, shard in enumerate(plan.shards):
        parameters = {**base, "rounding": {**base["rounding"], "seed": shard_seed(SEED, index)}}
        requests.append(
            DesignRequest(
                problem=shard.problem,
                parameters=parameters_from_dict(parameters),
                strategy=inner,
            )
        )
    return [result.solution for result in design_batch(requests)]


@pytest.fixture(scope="module")
def stitched(problems):
    """``(instance, inner) -> (oracle, one stitch, designer)`` designs and reports."""
    out = {}
    for name, problem in problems.items():
        plan = build_partition(problem)
        for inner in INNER:
            solutions = _shard_solutions(problem, plan, inner)
            oracle = stitch_solutions(problem, plan, solutions)
            one = stitch_assignments(problem, plan, [dict(s.assignments) for s in solutions])
            designed = get_designer(f"sharded:{inner}").design(
                DesignRequest(problem=problem, parameters=DesignParameters(seed=SEED))
            )
            out[name, inner] = oracle, one, designed
    return out


@pytest.mark.parametrize("inner", INNER)
@pytest.mark.parametrize("instance", list(INSTANCES))
def test_one_stitch_matches_the_solution_level_stitch(stitched, instance, inner):
    (oracle, oracle_report), (one, one_report), designed = stitched[instance, inner]
    assert solution_digest(one) == solution_digest(oracle)
    assert one.assignments == oracle.assignments
    assert one_report.as_metadata() == oracle_report.as_metadata()
    assert solution_digest(designed.solution) == solution_digest(oracle)
    stitch_metadata = {
        key: value for key, value in designed.metadata.items() if key in one_report.as_metadata()
    }
    assert stitch_metadata == one_report.as_metadata()


def test_the_differential_exercises_the_rebalance(stitched):
    reports = [one_report for _oracle, (_one, one_report), _designed in stitched.values()]
    assert any(r.assignments_moved > 0 and r.assignments_dropped > 0 for r in reports)
    assert any(r.demands_repaired > 0 for r in reports)
