"""Churn-event adapters: failure-catalogue events as ``ProblemDelta`` streams.

Live churn arrives as *events* -- a flash crowd congests an edge region, an
ISP or a colo goes dark, sinks join and leave -- while the incremental
engine consumes *deltas*.  This module is the bridge: it reuses the failure
catalogue's samplers (:mod:`repro.simulation.failures`) and cluster/hot-sink
inference (:mod:`repro.simulation.scenarios`) to turn each event class into
a :class:`~repro.incremental.delta.ProblemDelta` against a concrete problem
state.

Churn is modelled as *geographically correlated*, matching how it presents
in a real CDN: a sink join/leave process concentrates in a few metros, a
flash crowd hits the hot edge region, an outage takes out one cluster or
ISP.  (That correlation is also what makes incremental re-design pay off:
localized churn dirties few shards of the metro partition.)

Every adapter ends with a feasibility guard: churn that degrades links or
raises thresholds can push a demand past what its candidate set can deliver
at all, and the designers reject infeasible instances outright.  The guard
downgrades such demands' thresholds to 90% of their post-churn achievable
weight -- the real-world reading is that a session's quality target is
renegotiated when the network can no longer meet it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.core.problem import OverlayDesignProblem
from repro.core.weights import success_from_weight
from repro.incremental.delta import (
    DeliveryEdgeSpec,
    ProblemDelta,
    SinkAttachment,
    _link_spec,
    apply_delta,
    sink_attachment,
)
from repro.simulation.failures import (
    FailureSchedule,
    sample_flash_crowd_congestion,
    sample_isp_outage_schedule,
    sample_regional_outage_schedule,
)
from repro.simulation.scenarios import hot_sinks, infer_clusters

#: Combined loss cap: a "dead" link keeps an edge in the problem (so the
#: change stays non-structural) but contributes almost no weight.
MAX_LOSS = 0.98


@dataclass(frozen=True)
class SinkChurnConfig:
    """Knobs of the metro-localized sink join/leave process."""

    fraction: float = 0.05
    join_fraction: float = 0.5
    metros: int = 2
    loss_jitter: float = 0.25


def _combine_loss(old: float, severity: float) -> float:
    """Stack an extra loss fraction onto a link's base loss, capped."""
    return min(MAX_LOSS, 1.0 - (1.0 - old) * (1.0 - severity))


def ensure_feasible(
    problem: OverlayDesignProblem, delta: ProblemDelta
) -> ProblemDelta:
    """Downgrade thresholds in ``delta`` until the post-churn problem is feasible.

    Applies the delta, asks the problem for its feasibility report, and for
    every demand whose requirement now exceeds its available weight rewrites
    the delta to target 90% of what *is* available (demands with no usable
    candidates at all are dropped).  Idempotent on already-feasible deltas.
    """
    candidate = apply_delta(problem, delta)
    issues = candidate.feasibility_report()
    if not issues:
        return delta

    demands_changed = dict(delta.demands_changed)
    sinks_added = dict(delta.sinks_added)
    old_thresholds = {d.key: d.success_threshold for d in problem.demands}
    for issue in issues:
        key = issue.demand.key
        sink, stream = key
        achievable = 0.9 * issue.available_weight
        new_threshold = success_from_weight(achievable) if achievable > 0 else None
        if sink in sinks_added:
            attachment = sinks_added[sink]
            demands = tuple(
                sorted(
                    (entry_stream, new_threshold)
                    if entry_stream == stream
                    else (entry_stream, threshold)
                    for entry_stream, threshold in attachment.demands
                    if entry_stream != stream or new_threshold is not None
                )
            )
            sinks_added[sink] = SinkAttachment(
                delivery=attachment.delivery, demands=demands
            )
        else:
            old = demands_changed.get(key, (old_thresholds.get(key), None))[0]
            demands_changed[key] = (old, new_threshold)
    return ProblemDelta(
        sinks_added=sinks_added,
        sinks_removed=dict(delta.sinks_removed),
        delivery_changed=dict(delta.delivery_changed),
        stream_edges_changed=dict(delta.stream_edges_changed),
        demands_changed=demands_changed,
        structural=delta.structural,
    )


# ---------------------------------------------------------------------------
# Sink join/leave process
# ---------------------------------------------------------------------------


def sample_sink_churn(
    problem: OverlayDesignProblem,
    config: SinkChurnConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> ProblemDelta:
    """A metro-localized sink join/leave delta.

    ``fraction`` of the problem's sinks churn (at least one), split into
    joins and leaves by ``join_fraction``, all drawn from ``metros`` randomly
    chosen topology clusters (name-prefix groups, the same convention the
    metro partitioner uses).  A joining sink clones a template neighbour's
    attachment with its delivery losses jittered by up to ``loss_jitter``
    multiplicatively, so joins inherit realistic local connectivity without
    being byte-copies.
    """
    config = config or SinkChurnConfig()
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng

    sink_clusters: dict[str, list[str]] = {}
    for sink in problem.sinks:
        sink_clusters.setdefault(sink.split("-", 1)[0], []).append(sink)
    labels = sorted(sink_clusters)
    chosen = list(
        rng.choice(labels, size=min(config.metros, len(labels)), replace=False)
    )
    pool = sorted(sink for label in chosen for sink in sink_clusters[label])

    total = max(1, round(config.fraction * problem.num_sinks))
    joins = round(config.join_fraction * total)
    leaves = min(total - joins, max(0, len(pool) - 1))

    leaving = sorted(
        rng.choice(pool, size=leaves, replace=False)
    ) if leaves else []
    survivors = [sink for sink in pool if sink not in set(leaving)]

    existing = set(problem.sinks)
    sinks_added: dict[str, SinkAttachment] = {}
    for index in range(joins):
        template = str(rng.choice(survivors or pool))
        cluster = template.split("-", 1)[0]
        name = f"{cluster}-join{index}"
        while name in existing:
            name = f"{name}x"
        existing.add(name)
        # The jitter is drawn over the template's links in their table order,
        # not name order: the pinned deltas of tests/test_churn_tables.py hold it.
        factors = {
            reflector: float(rng.uniform(1.0 - config.loss_jitter, 1.0 + config.loss_jitter))
            for reflector in problem._sink_reflectors.get(template, ())
        }
        attachment = sink_attachment(problem, template)
        delivery = []
        for reflector, spec in attachment.delivery:
            loss = min(0.95, spec.loss_probability * factors[reflector])
            delivery.append(
                (reflector, DeliveryEdgeSpec(loss, spec.cost, spec.stream_costs, spec.capacity))
            )
        sinks_added[name] = SinkAttachment(tuple(delivery), attachment.demands)

    sinks_removed = {sink: sink_attachment(problem, sink) for sink in leaving}
    delta = ProblemDelta(sinks_added=sinks_added, sinks_removed=sinks_removed)
    return ensure_feasible(problem, delta)


# ---------------------------------------------------------------------------
# Failure-catalogue events -> deltas
# ---------------------------------------------------------------------------


def delta_from_failure_schedule(
    problem: OverlayDesignProblem,
    schedule: FailureSchedule,
    node_isp: Mapping[str, str | None] | None = None,
) -> ProblemDelta:
    """Project a failure schedule onto the problem's measured link state.

    Congestion events stack extra loss onto the target's incoming links;
    outage events (reflector crash, node outage, ISP outage) push the dead
    component's delivery links to :data:`MAX_LOSS`; a node outage targeting
    a *sink* removes the sink (its session is gone, not degraded).  The
    resulting delta stays within the incremental model -- no structural
    changes -- and is feasibility-guarded by the calling adapter.
    """
    if node_isp is None:
        node_isp = {r: problem.color(r) for r in problem.reflectors}
    reflectors = set(problem.reflectors)
    sinks = set(problem.sinks)

    # Per delivery link, the total extra loss fraction to stack.
    extra: dict[tuple[str, str], float] = {}
    removed_sinks: list[str] = []

    @cache
    def reflector_links() -> dict[str, list[tuple[str, str]]]:
        """The links grouped by reflector: one table read, and only if a reflector is hit."""
        grouped: dict[str, list[tuple[str, str]]] = {}
        for key in problem.delivery_links():
            grouped.setdefault(key[0], []).append(key)
        return grouped

    def stack(keys: list[tuple[str, str]], severity: float) -> None:
        for key in keys:
            extra[key] = 1.0 - (1.0 - extra.get(key, 0.0)) * (1.0 - severity)

    def hit_reflector(reflector: str, severity: float) -> None:
        stack(reflector_links().get(reflector, []), severity)

    for event in schedule.events:
        if event.kind == "link_congestion":
            target = event.target
            if target in sinks:
                reached = problem._sink_reflectors.get(target, ())
                stack([(reflector, target) for reflector in reached], event.severity)
            elif target in reflectors:
                hit_reflector(target, event.severity)
        elif event.kind in ("reflector_crash", "node_outage"):
            if event.target in reflectors:
                hit_reflector(event.target, 1.0)
            elif event.target in sinks:
                removed_sinks.append(event.target)
        elif event.kind == "isp_outage":
            for reflector in sorted(reflectors):
                if node_isp.get(reflector) == event.target:
                    hit_reflector(reflector, 1.0)

    removed = set(removed_sinks)
    delivery_changed = {}
    for key, severity in sorted(extra.items()):
        if key[1] in removed:
            continue
        before = _link_spec(problem, key)
        loss = _combine_loss(before.loss_probability, severity)
        after = DeliveryEdgeSpec(loss, before.cost, before.stream_costs, before.capacity)
        if after != before:
            delivery_changed[key] = (before, after)
    return ProblemDelta(
        sinks_removed={sink: sink_attachment(problem, sink) for sink in sorted(removed)},
        delivery_changed=delivery_changed,
    )


def flash_crowd_delta(
    problem: OverlayDesignProblem,
    rng: np.random.Generator | int | None = None,
    *,
    hot_fraction: float = 0.3,
    threshold_boost: float = 0.5,
) -> ProblemDelta:
    """A flash crowd: congestion on the hot edge region plus raised stakes.

    Samples the catalogue's flash-crowd congestion waves over the
    most-subscribed sinks and stacks their severities onto those sinks'
    delivery links; on top, every hot sink's demand thresholds move up by
    ``threshold_boost`` of their headroom (a surge makes the content matter
    more).  Feasibility-guarded.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    hot = hot_sinks(problem, hot_fraction)
    schedule = sample_flash_crowd_congestion(hot, 1000, rng)
    base = delta_from_failure_schedule(problem, schedule)

    demands_changed: dict[tuple[str, str], tuple[float | None, float | None]] = {}
    hot_set = set(hot)
    for demand in problem.demands:
        if demand.sink not in hot_set:
            continue
        old = demand.success_threshold
        new = min(0.999, old + threshold_boost * (1.0 - old))
        if new != old:
            demands_changed[demand.key] = (old, new)
    delta = ProblemDelta(
        delivery_changed=dict(base.delivery_changed),
        demands_changed=demands_changed,
    )
    return ensure_feasible(problem, delta)


def outage_delta(
    problem: OverlayDesignProblem,
    rng: np.random.Generator | int | None = None,
    *,
    kind: str = "regional",
) -> ProblemDelta:
    """An outage event: a topology cluster or an ISP goes dark.

    ``kind="regional"`` draws the catalogue's regional-outage schedule over
    the inferred name-prefix clusters; ``kind="isp"`` draws correlated
    ISP-wide outages over the reflector colors.  Dead reflectors' delivery
    links degrade to :data:`MAX_LOSS`; sinks inside a dark cluster leave.
    Feasibility-guarded.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    if kind == "regional":
        schedule = sample_regional_outage_schedule(
            infer_clusters(problem), 1000, rng, outage_probability=1.0
        )
    elif kind == "isp":
        isps = sorted(
            {
                str(problem.color(r))
                for r in problem.reflectors
                if problem.color(r) is not None
            }
        )
        schedule = sample_isp_outage_schedule(
            isps, 1000, rng, outage_probability=0.5, shock_probability=1.0
        )
    else:
        raise ValueError(f"kind must be 'regional' or 'isp', got {kind!r}")
    delta = delta_from_failure_schedule(problem, schedule)
    return ensure_feasible(problem, delta)


# ---------------------------------------------------------------------------
# Churn scripts: sequences of deltas
# ---------------------------------------------------------------------------

#: Event names understood by :func:`churn_stream`.
CHURN_EVENTS = ("identity", "sink-churn", "flash-crowd", "regional-outage", "isp-outage")


def churn_stream(
    problem: OverlayDesignProblem,
    script: Iterable[str],
    seed: int = 0,
    churn_config: SinkChurnConfig | None = None,
) -> Iterator[tuple[str, ProblemDelta, OverlayDesignProblem]]:
    """Realize a churn script as a stream of ``(event, delta, new_problem)``.

    Each step's delta is sampled against the *current* problem state (a
    seed-derived generator per step, so the stream is reproducible from
    ``seed`` alone) and applied before the next step.  This is the input
    shape ``design_incremental`` consumes in a rolling-update loop.
    """
    current = problem
    for index, event in enumerate(script):
        rng = np.random.default_rng([seed, index])
        if event == "identity":
            delta = ProblemDelta()
        elif event == "sink-churn":
            delta = sample_sink_churn(current, churn_config, rng)
        elif event == "flash-crowd":
            delta = flash_crowd_delta(current, rng)
        elif event == "regional-outage":
            delta = outage_delta(current, rng, kind="regional")
        elif event == "isp-outage":
            delta = outage_delta(current, rng, kind="isp")
        else:
            known = ", ".join(CHURN_EVENTS)
            raise ValueError(f"unknown churn event {event!r} (known: {known})")
        current = apply_delta(current, delta) if not delta.is_empty else current
        yield event, delta, current


__all__ = [
    "CHURN_EVENTS",
    "MAX_LOSS",
    "SinkChurnConfig",
    "churn_stream",
    "delta_from_failure_schedule",
    "ensure_feasible",
    "flash_crowd_delta",
    "outage_delta",
    "sample_sink_churn",
]
