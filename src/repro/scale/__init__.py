"""repro.scale -- the hierarchical sharded design pipeline.

The scaling layer the ROADMAP's internet-scale goal needs: partition a large
instance into ISP/metro shards, design each shard independently through any
registered strategy (in parallel, deterministically), then stitch and
re-audit the merged design.  See ``docs/scaling.md`` for the architecture and
the determinism contract.

* :mod:`repro.scale.partition` -- pluggable :class:`Partitioner` registry
  (``metro`` / ``isp`` / ``hash`` / ``auto``), balanced shard planning (a
  plan holds names) and the bulk cut of each self-contained subproblem;
* :mod:`repro.scale.stitch` -- :func:`stitch_assignments`, the one stitch:
  merge, cross-shard fanout reconciliation, global repair;
* :mod:`repro.scale.pipeline` -- :func:`run_shard_loop` (one round of
  shard-local solves plus the stitch, shared with the incremental engine),
  :func:`design_sharded` and the dynamic ``"sharded:<strategy>"`` designers
  resolved through :func:`repro.api.get_designer`.

Quick start::

    from repro.api import DesignRequest, get_designer

    result = get_designer("sharded:spaa03").design(
        DesignRequest(problem=problem, options={"shards": "auto", "jobs": "auto"})
    )
"""

from repro.scale.partition import (
    AUTO_SHARD_CAP,
    PartitionPlan,
    Partitioner,
    Shard,
    build_partition,
    extract_shard_problem,
    get_partitioner,
    register_partitioner,
    resolve_shard_count,
)
from repro.scale.pipeline import (
    SHARDED_OPTIONS,
    SHARDED_PREFIX,
    design_sharded,
    make_sharded_designer,
    run_shard_loop,
    shard_seed,
)
from repro.scale.stitch import StitchReport, rebalance_fanout, stitch_assignments

__all__ = [
    "AUTO_SHARD_CAP",
    "SHARDED_OPTIONS",
    "SHARDED_PREFIX",
    "PartitionPlan",
    "Partitioner",
    "Shard",
    "StitchReport",
    "build_partition",
    "design_sharded",
    "extract_shard_problem",
    "get_partitioner",
    "make_sharded_designer",
    "rebalance_fanout",
    "register_partitioner",
    "resolve_shard_count",
    "run_shard_loop",
    "shard_seed",
    "stitch_assignments",
]
