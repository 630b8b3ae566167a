"""The incremental re-design engine: warm-started re-solve of dirty shards.

:func:`design_incremental` turns a standing design plus a changed problem
into an updated design without paying for a from-scratch run.  It follows
the fix-integral-variables-and-re-solve idiom of iterative LP rounding: the
assignments of demands the change cannot touch are *fixed* (carried over
verbatim), and only the dirty shards of the :mod:`repro.scale` partition go
back through the Formulate/Solve/Round stages -- as a *residual* subproblem
of just the affected demands against the fanout budget the kept assignments
leave behind, or whole when the shard has nothing to carry.  Both run
through :func:`repro.scale.pipeline.run_shard_loop`, the same round a
from-scratch sharded design runs with every shard dirty; its stitch (fanout
rebalance + global repair) is exactly the cross-shard audit/repair the
splice needs, and the merged design's audit against the full problem is read
off the state the stitch leaves.
Every update starts from the standing design's
:class:`~repro.scale.stitch.ShardState`: the one its result carries, or one
built from the design when the result carries none.

Determinism matches the sharded pipeline: the partition is a pure function
of the new problem, per-shard seeds derive from the request seed and the
shard *index* (so a dirty shard re-solved incrementally sees the same seed a
from-scratch sharded run would give it), the batch executor preserves shard
order, and the stitch draws no randomness -- hence bit-identical results
across ``jobs`` settings.

Fallbacks to a full redesign (the result's ``incremental_fallback`` metadata
records which): structural deltas (streams/reflectors changed -- outside the
delta model), and dirty-shard fractions above ``full_redesign_threshold``
(re-solving almost everything incrementally costs more than starting over).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import chain
from typing import Mapping

import numpy as np

from repro.api.registry import RegisteredDesigner, get_designer
from repro.api.types import DesignRequest, DesignResult
from repro.core.algorithm import DesignParameters
from repro.core.index import problem_index
from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.incremental.delta import ProblemDelta, diff_problems
from repro.incremental.impact import analyze_impact
from repro.scale.partition import (
    PartitionPlan,
    Shard,
    build_partition,
    extract_shard_problem,
)
from repro.scale.pipeline import (
    SHARDED_OPTIONS,
    SHARDED_PREFIX,
    ShardJob,
    run_shard_loop,
    sharded_options,
)
from repro.scale.stitch import ShardState

#: Strategy-name prefix stamped on incremental results.
INCREMENTAL_PREFIX = "incremental:"

def incremental_options(options: Mapping | None) -> dict:
    """``options`` over :data:`SHARDED_OPTIONS` plus ``full_redesign_threshold``."""
    return sharded_options(options, "design_incremental", full_redesign_threshold=0.8)


def _standing_solution(previous: DesignResult | OverlaySolution) -> OverlaySolution:
    if isinstance(previous, DesignResult):
        return previous.solution
    return previous


def _inner_strategy(
    previous: DesignResult | OverlaySolution, strategy: str | None
) -> RegisteredDesigner:
    """Resolve the inner (per-shard) strategy, defaulting from the standing result."""
    name = strategy
    if name is None and isinstance(previous, DesignResult):
        name = previous.strategy
    if name is None:
        name = "spaa03"
    for prefix in (INCREMENTAL_PREFIX, SHARDED_PREFIX):
        if name.startswith(prefix):
            name = name[len(prefix):]
    inner = get_designer(name)
    if not inner.produces_solution:
        raise ValueError(
            f"inner strategy {name!r} produces no integral design (bound only), "
            "so there is nothing to re-solve incrementally"
        )
    return inner


def _full_redesign(
    new_problem: OverlayDesignProblem,
    parameters: DesignParameters,
    inner: RegisteredDesigner,
    options: dict,
    reason: str,
    extra_seconds: dict[str, float],
    delta: ProblemDelta,
    request_id: str | None,
) -> DesignResult:
    """Fall back to the from-scratch sharded pipeline (documented escape hatch)."""
    designer = get_designer(f"{SHARDED_PREFIX}{inner.name}")
    result = designer.design(
        DesignRequest(
            problem=new_problem,
            parameters=parameters,
            strategy=designer.name,
            options={key: options[key] for key in SHARDED_OPTIONS},
            request_id=request_id,
        )
    )
    result.strategy = f"{INCREMENTAL_PREFIX}{inner.name}"
    result.stage_seconds = {**extra_seconds, **result.stage_seconds}
    result.metadata = {
        **result.metadata,
        "incremental_fallback": reason,
        **{f"delta_{k}": v for k, v in delta.summary().items()},
    }
    return result


def design_incremental(
    previous: DesignResult | OverlaySolution,
    new_problem: OverlayDesignProblem,
    parameters: DesignParameters | None = None,
    strategy: str | None = None,
    options: Mapping | None = None,
    previous_problem: OverlayDesignProblem | None = None,
    delta: ProblemDelta | None = None,
    plan: PartitionPlan | None = None,
) -> DesignResult:
    """Update a standing design for a changed problem, re-solving only churn.

    Parameters
    ----------
    previous:
        The standing design: a :class:`DesignResult` (its strategy seeds the
        default inner strategy) or a bare :class:`OverlaySolution`.
    new_problem:
        The post-churn problem state.
    parameters:
        Design parameters for the re-solved shards (``parameters.seed`` is
        the base of the per-shard seed derivation, exactly as in the sharded
        pipeline).  Defaults to :class:`DesignParameters()`.
    strategy:
        Inner per-shard strategy name; defaults to the standing result's
        strategy with any ``sharded:``/``incremental:`` prefix stripped,
        else ``"spaa03"``.
    options:
        ``shards``/``jobs``/``partitioner``/``inner_options`` as in the
        sharded pipeline (:data:`repro.scale.pipeline.SHARDED_OPTIONS`), plus
        ``full_redesign_threshold`` (dirty-shard fraction above which the
        engine falls back to a from-scratch sharded run; default 0.8).
    previous_problem:
        The pre-churn problem; defaults to the standing solution's problem.
    delta:
        A precomputed :class:`ProblemDelta` (e.g. from a churn adapter);
        computed via :func:`diff_problems` when omitted.
    plan:
        A partition plan already bound to ``new_problem`` (e.g. the standing
        plan of a :class:`repro.serve.DesignSession` rebound via
        :func:`repro.scale.partition.rebind_partition`).  Skips the per-call
        partition pass; must match the ``partitioner``/``shards`` options.
        The partition is a pure function of those inputs, so a valid
        supplied plan cannot change the design.

    The standing design's shard state is the one ``previous`` carries when
    it describes that design against ``previous_problem``; otherwise (a
    bare solution, a decoded or cached result, a monolithic design) it is
    built from the design with :meth:`ShardState.of`.  An empty delta
    returns the standing design bit-identically (same assignments, rebound
    to ``new_problem``) with its state against ``new_problem`` -- the
    carried one by the same rule, so a session's empty event makes no pass
    over the design -- and the next update carries that state.  The
    result's metadata carries the impact analysis (`incremental_*`), the
    delta summary (`delta_*`) and the stitch report (`stitch_*`).
    """
    opts = incremental_options(options)
    parameters = parameters if parameters is not None else DesignParameters()
    inner = _inner_strategy(previous, strategy)
    standing = _standing_solution(previous)
    if previous_problem is None:
        previous_problem = standing.problem
    request_id = previous.request_id if isinstance(previous, DesignResult) else None

    start = time.perf_counter()
    if delta is None:
        delta = diff_problems(previous_problem, new_problem)
    diff_seconds = time.perf_counter() - start

    if delta.requires_full_redesign:
        return _full_redesign(
            new_problem,
            parameters,
            inner,
            opts,
            reason="structural-delta",
            extra_seconds={"diff": diff_seconds},
            delta=delta,
            request_id=request_id,
        )

    if delta.is_empty:
        start = time.perf_counter()
        # The standing design's state against the new problem: the carried
        # one when it describes it (a session event), else one pass.  The
        # identity design shares its lists; only its metadata is new.
        state = _standing_state(previous, new_problem)
        metadata = {**standing.metadata, "algorithm": f"{INCREMENTAL_PREFIX}{inner.name}"}
        state = replace(state, solution=replace(state.solution, metadata=metadata))
        audit = state.solution_audit()
        audit_seconds = time.perf_counter() - start
        return DesignResult(
            strategy=f"{INCREMENTAL_PREFIX}{inner.name}",
            solution=state.solution,
            lower_bound=None,
            stage_seconds={"diff": diff_seconds, "audit": audit_seconds},
            audit=audit,
            metadata={
                "inner_strategy": inner.name,
                "incremental_identity": True,
                **{f"delta_{k}": v for k, v in delta.summary().items()},
            },
            request_id=request_id,
            shard_state=state,
        )

    # The plan holds names: the job below cuts a subproblem from
    # ``new_problem`` for a dirty shard only (whole, or the residual of its
    # affected demands), so the update costs what the churn touches.
    start = time.perf_counter()
    if plan is None:
        plan = build_partition(new_problem, partitioner=opts["partitioner"], shards=opts["shards"])
    partition_seconds = time.perf_counter() - start

    # Demands the standing design never served must be re-solved too: there
    # is no assignment to carry over, whatever the delta says.  The standing
    # design's shard state keeps them, with its loads and (stream, reflector)
    # counts.  (A demand the standing problem lacks is affected by the delta
    # anyway.)
    state = _standing_state(previous, previous_problem)
    base = state.solution.assignments
    new_keys = problem_index(new_problem).demand_code
    unserved = state.unserved()
    extra = {key for key in unserved if key in new_keys}
    loads = dict(zip(state.index.reflectors, state.loads.tolist()))
    served = len(base) - sum(1 for key in unserved if key in base)
    # Departing sinks strand build amortization: a reflector that loses a
    # third or more of its standing load may no longer be worth building at all,
    # so the demands still riding it re-solve too.  (Computed over the
    # standing solution; removing *more* sinks can only grow the per-
    # reflector removed load, so the rule stays monotone in the delta.)
    departed = [
        (sink, stream)
        for sink, attachment in delta.sinks_removed.items()
        for stream, _threshold in attachment.demands
    ]
    removed_load = Counter(chain.from_iterable(base.get(key, ()) for key in departed))
    stranded_reflectors = {
        reflector for reflector, lost in removed_load.items() if 3 * lost >= loads[reflector]
    }
    if stranded_reflectors:
        extra.update(
            key
            for key, reflectors in base.items()
            if key in new_keys and not stranded_reflectors.isdisjoint(reflectors)
        )
    impact = analyze_impact(delta, new_problem, plan, extra_affected=extra)

    if impact.dirty_fraction > opts["full_redesign_threshold"]:
        return _full_redesign(
            new_problem,
            parameters,
            inner,
            opts,
            reason="dirty-fraction",
            extra_seconds={"diff": diff_seconds, "partition": partition_seconds},
            delta=delta,
            request_id=request_id,
        )

    affected = impact.affected_demands
    dirty = set(impact.dirty_shards)
    # Standing assignments that do not carry over: the affected demands' and
    # the departed ones'.
    dropped = {
        key
        for key in chain(affected, departed, delta.demands_changed)
        if base.get(key) and (key in affected or key not in new_keys)
    }

    # Builds and stream deliveries the carried assignments already pay for
    # are sunk: residual subproblems see them at zero cost, so the warm-
    # started re-solve prefers consolidating onto standing reflectors over
    # paying for fresh ones it does not need.  The dropped lists come off the
    # state's counts per reflector and per (stream, reflector) pair.
    @cache
    def sunk_costs() -> tuple[list[str], list[tuple[str, str]]]:
        index, width = state.index, len(state.index.reflectors)
        keys = list(dropped)
        entries = index.entries(keys, [base[key] for key in keys])
        streams = index.demand_stream[[index.demand_code[key] for key in keys]]
        pairs = streams[entries.segment] * width + entries.reflector
        kept_loads = state.loads - np.bincount(entries.reflector, minlength=width)
        kept_pairs = state.pair_count - np.bincount(pairs, minlength=state.pair_count.size)
        return (
            [index.reflectors[code] for code in np.flatnonzero(kept_loads > 0).tolist()],
            [
                (index.streams[pair // width], index.reflectors[pair % width])
                for pair in np.flatnonzero(kept_pairs > 0).tolist()
            ],
        )

    def job(shard: Shard) -> ShardJob:
        """Clean shards keep the standing design; dirty ones re-solve what churn touched."""
        if shard.shard_id not in dirty:
            return None, None
        fixed = {
            key: base[key]
            for key in shard.demand_keys
            if key not in affected and base.get(key)
        }
        name = f"{new_problem.name}/{shard.shard_id}"
        if not fixed:
            return extract_shard_problem(new_problem, shard.sinks, name=name), {}
        fixed_load = Counter(chain.from_iterable(fixed.values()))
        affected_in_shard = [key for key in shard.demand_keys if key in affected]
        carried_builds, carried_deliveries = sunk_costs()
        residual = extract_shard_problem(
            new_problem,
            sinks=sorted({sink for sink, _stream in affected_in_shard}),
            name=f"{name}/residual",
            demand_keys=set(affected_in_shard),
            fanout_overrides={
                reflector: max(1, new_problem.fanout(reflector) - load)
                for reflector, load in fixed_load.items()
            },
            reflector_cost_overrides=dict.fromkeys(carried_builds, 0.0),
            stream_edge_cost_overrides=dict.fromkeys(carried_deliveries, 0.0),
        )
        return residual, fixed

    result, _shard_results = run_shard_loop(
        new_problem,
        plan,
        inner,
        parameters,
        opts,
        strategy=f"{INCREMENTAL_PREFIX}{inner.name}",
        request_id=request_id,
        job=job,
        standing=state,
    )
    result.stage_seconds = {
        "diff": diff_seconds,
        "partition": partition_seconds,
        **result.stage_seconds,
    }
    result.metadata.update(
        {
            "incremental_reused_assignments": served
            - sum(1 for key in affected if base.get(key)),
            **impact.as_metadata(),
            **{f"delta_{k}": v for k, v in delta.summary().items()},
        }
    )
    return result


def _standing_state(
    previous: DesignResult | OverlaySolution, previous_problem: OverlayDesignProblem
) -> ShardState:
    """The standing design's shard state against ``previous_problem``: the one
    the standing result carries when it describes that design, else one built
    from the design (a bare solution, a decoded or cached result, a monolithic
    design)."""
    if not isinstance(previous, DesignResult):
        return ShardState.of(previous_problem, previous)
    state = previous.shard_state
    if (
        state is not None
        and state.solution is previous.solution
        and state.solution.problem is previous_problem
    ):
        return state
    return ShardState.of(previous_problem, previous.solution)


__all__ = ["INCREMENTAL_PREFIX", "design_incremental"]
