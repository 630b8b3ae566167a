"""The hierarchical sharded design pipeline: partition -> shard loop.

A sharded design is one round of shard-local solves plus one global stitch.
:func:`run_shard_loop` is that round, and the only copy of it: it runs the
job it is given on each shard, builds each solved shard's request (seed from
:func:`shard_seed`), runs them through :func:`repro.api.design_batch` (shard
order regardless of ``jobs``), merges back the assignments each shard keeps,
stitches with :func:`repro.scale.stitch.stitch_assignments` and reads the
merged design's audit against the *full* problem off the state the stitch
leaves.
:func:`design_sharded` is its all-dirty case (every shard solved whole,
nothing kept); :func:`repro.api.design_incremental` runs it over a standing
design's dirty shards, their residual subproblems and the assignments they
carry.

Strategy names: any registered solution-producing strategy ``X`` is available
as ``"sharded:X"`` through :func:`repro.api.get_designer`; the designer is
materialised on first use by :func:`make_sharded_designer`.  Options
(``request.options``; :data:`SHARDED_OPTIONS` holds the defaults):

``shards``
    Target shard count, or ``"auto"`` (default; see
    :func:`repro.scale.partition.resolve_shard_count`).
``jobs``
    Worker processes for the per-shard fan-out: an int, ``"auto"`` (all
    cores) or 1 (default; inline, no pool).
``partitioner``
    ``"auto"`` (default), ``"metro"``, ``"isp"`` or ``"hash"``.
``inner_options``
    Options dict forwarded to every per-shard inner request.

Determinism contract: the partition is a pure function of the problem, each
shard request derives its seed from the request seed and the shard index via
``numpy.random.SeedSequence``, the executor preserves shard order, and the
stitch stage draws no randomness -- so for a fixed request seed the merged
design is bit-identical across ``jobs`` settings and machines.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Mapping

import numpy as np

from repro.api.batch import design_batch
from repro.api.registry import RegisteredDesigner, get_designer
from repro.api.types import DesignRequest, DesignResult
from repro.core.algorithm import DesignParameters
from repro.core.problem import OverlayDesignProblem
from repro.core.schema import ANY, STRING, Doc, Field, MapOf
from repro.scale.partition import PartitionPlan, Shard, build_partition, extract_shard_problem
from repro.scale.stitch import ShardState, stitch_assignments

#: Prefix of dynamically materialised sharded strategies.
SHARDED_PREFIX = "sharded:"

#: Options of a sharded design, the one table :func:`design_sharded`,
#: :func:`repro.api.design_incremental` (which adds ``full_redesign_threshold``)
#: and :class:`repro.serve.DesignSession` read.  ``shards`` and
#: ``jobs`` are checked where they are resolved (numeric strings count).
SHARDED = Doc(
    dict,
    [
        Field("shards", ANY, default="auto"),
        Field("jobs", ANY, default=1),
        Field("partitioner", STRING, default="auto"),
        Field("inner_options", MapOf(ANY), default={}),
    ],
)

#: The sharded options' defaults.
SHARDED_OPTIONS: dict[str, Any] = SHARDED.defaults

#: What one shard contributes to a round of :func:`run_shard_loop`: the
#: subproblem to solve (``None`` when the shard is not re-solved) and the
#: assignments it keeps -- ``None`` for all of the standing design's, as the
#: stitch carries them (:func:`repro.scale.stitch.stitch_assignments`).
ShardJob = tuple[OverlayDesignProblem | None, dict[tuple[str, str], list[str]] | None]


def shard_seed(base_seed: int | None, shard_index: int) -> int | None:
    """Derive the deterministic per-shard seed from the request seed.

    ``None`` stays ``None`` (fresh entropy per shard, matching the monolithic
    pipeline's behaviour for seedless requests); otherwise the seed comes from
    a :class:`numpy.random.SeedSequence` over ``(base_seed, shard_index)``, so
    shards draw independent streams and the mapping is stable across runs,
    machines and ``jobs`` settings.
    """
    if base_seed is None:
        return None
    return int(
        np.random.SeedSequence([int(base_seed), shard_index]).generate_state(1)[0]
        % (2**31)
    )


def sharded_options(options: Mapping | None, owner: str, **extra: Any) -> dict:
    """``options`` decoded through :data:`SHARDED` (plus ``extra`` defaults); an
    unknown key is a ``ValueError`` naming ``owner``, a bad value one naming it."""
    return SHARDED.options(dict(options or {}), owner, **extra)


def run_shard_loop(
    problem: OverlayDesignProblem,
    plan: PartitionPlan,
    inner: RegisteredDesigner,
    parameters: DesignParameters,
    options: Mapping[str, Any],
    job: Callable[[Shard], ShardJob],
    strategy: str,
    request_id: str | None = None,
    standing: ShardState | None = None,
) -> tuple[DesignResult, list[DesignResult]]:
    """Solve shards, merge back what each keeps, stitch and audit: one round.

    ``job(shard)`` says what the shard contributes (see :data:`ShardJob`).
    Every subproblem goes through ``inner`` in one
    :func:`repro.api.design_batch` call, seeded by :func:`shard_seed` over
    ``parameters``' seed and the shard index, with
    ``options["inner_options"]`` and ``options["jobs"]``.  A solved shard's
    map is its solution's assignments updated with what it keeps; every map
    then goes through :func:`stitch_assignments`, from ``standing``: the
    standing design's :class:`~repro.scale.stitch.ShardState` -- the one a
    previous round left on its result, or one ``ShardState.of`` built --
    by default the empty design's.  A shard that keeps ``None`` keeps the
    design ``standing`` describes.  The merged design's audit is read off
    the state the stitch leaves (:meth:`ShardState.solution_audit`), which
    measured every demand it replaced.

    Returns the audited result -- labelled ``strategy``, with stages
    ``design_shards``/``stitch``/``audit``, metadata ``inner_strategy``,
    ``partitioner``, ``jobs`` and the stitch counters, and the
    :class:`~repro.scale.stitch.ShardState` the next round starts from as
    ``shard_state`` -- and the solved shards' results in shard order.
    """
    start = time.perf_counter()
    requests: list[DesignRequest] = []
    slots: list[int] = []
    shard_assignments: list[dict[tuple[str, str], list[str]]] = []
    for index, shard in enumerate(plan.shards):
        subproblem, kept = job(shard)
        shard_assignments.append(kept)
        if subproblem is None:
            continue
        # ``seed=None``: a set ``DesignParameters.seed`` would override the
        # shard seed with the request's.
        shard_parameters = replace(
            parameters,
            seed=None,
            rounding=replace(
                parameters.rounding, seed=shard_seed(parameters.rounding.seed, index)
            ),
        )
        requests.append(
            DesignRequest(
                problem=subproblem,
                parameters=shard_parameters,
                strategy=inner.name,
                options=dict(options["inner_options"]),
                request_id=shard.shard_id,
            )
        )
        slots.append(index)
    results = design_batch(requests, jobs=options["jobs"])
    for index, result in zip(slots, results):
        assignments = {
            key: sorted(reflectors)
            for key, reflectors in result.solution.assignments.items()
        }
        assignments.update(shard_assignments[index] or {})
        shard_assignments[index] = assignments
    design_seconds = time.perf_counter() - start

    start = time.perf_counter()
    if standing is None:
        standing = ShardState.empty(problem)
    solution, report = stitch_assignments(
        problem,
        plan,
        shard_assignments,
        fanout_slack=parameters.repair_fanout_slack,
        standing=standing,
    )
    stitch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    state = report.state
    audit = state.solution_audit()
    audit_seconds = time.perf_counter() - start

    solution.metadata["algorithm"] = strategy
    result = DesignResult(
        strategy=strategy,
        solution=solution,
        lower_bound=None,
        stage_seconds={
            "design_shards": design_seconds,
            "stitch": stitch_seconds,
            "audit": audit_seconds,
        },
        audit=audit,
        metadata={
            "inner_strategy": inner.name,
            "partitioner": plan.partitioner,
            "jobs": str(options["jobs"]),
            **report.as_metadata(),
        },
        request_id=request_id,
        shard_state=state,
    )
    return result, results


def design_sharded(request: DesignRequest, inner: RegisteredDesigner) -> DesignResult:
    """Partition, then run one round of :func:`run_shard_loop` over every shard.

    The ``partition`` stage builds the plan and cuts every shard's
    subproblem.  The plan is a pure function of the problem and the
    ``partitioner``/``shards`` options, so a caller holding the same three
    (:class:`repro.serve.DesignSession`) rebuilds this design's plan.
    """
    options = sharded_options(request.options, f"strategy {request.strategy!r}")
    problem = request.problem
    start = time.perf_counter()
    plan = build_partition(problem, partitioner=options["partitioner"], shards=options["shards"])
    subproblems = {
        shard.shard_id: extract_shard_problem(
            problem, shard.sinks, name=f"{problem.name}/{shard.shard_id}"
        )
        for shard in plan.shards
    }
    partition_seconds = time.perf_counter() - start

    result, shard_results = run_shard_loop(
        problem,
        plan,
        inner,
        request.parameters,
        options,
        lambda shard: (subproblems[shard.shard_id], {}),
        strategy=f"{SHARDED_PREFIX}{inner.name}",
        request_id=request.request_id,
    )
    result.stage_seconds = {"partition": partition_seconds, **result.stage_seconds}
    shard_bounds = [shard.lower_bound for shard in shard_results]
    if all(bound is not None for bound in shard_bounds):
        # Sum of shard LP bounds; NOT a lower bound on the global optimum
        # (shared reflector builds are double-counted across shards), hence
        # metadata rather than DesignResult.lower_bound.
        result.metadata["shard_bound_sum"] = float(sum(shard_bounds))
    return result


def make_sharded_designer(name: str) -> RegisteredDesigner:
    """Materialise the ``"sharded:<inner>"`` designer for a registry name.

    Raises ``KeyError`` when the inner strategy is unknown (or itself
    sharded) and ``ValueError`` when it is bound-only -- a shard plan of LP
    bounds has nothing to stitch.
    """
    inner_name = name[len(SHARDED_PREFIX):]
    if not inner_name or inner_name.startswith(SHARDED_PREFIX):
        raise KeyError(
            f"unknown designer {name!r} (the sharded prefix wraps exactly one "
            "registered solution-producing strategy, e.g. 'sharded:spaa03')"
        )
    try:
        inner = get_designer(inner_name)
    except KeyError:
        from repro.api.registry import designer_names

        known = ", ".join(designer_names())
        raise KeyError(
            f"unknown inner strategy {inner_name!r} for {name!r} (known: {known})"
        ) from None
    if not inner.produces_solution:
        raise ValueError(
            f"strategy {name!r} is invalid: inner strategy {inner_name!r} "
            "produces no integral design (bound only), so there is nothing "
            "to shard and stitch"
        )

    def _run(request: DesignRequest) -> DesignResult:
        return design_sharded(request, inner)

    return RegisteredDesigner(
        name=name,
        run=_run,
        description=(
            f"hierarchical sharded pipeline (partition -> {inner_name} per "
            "shard -> stitch)"
        ),
        baseline=False,
        in_comparisons=False,
        produces_solution=True,
    )


__all__ = [
    "SHARDED_OPTIONS",
    "SHARDED_PREFIX",
    "design_sharded",
    "make_sharded_designer",
    "run_shard_loop",
    "shard_seed",
    "sharded_options",
]
