"""The adversarial failure-scenario catalogue.

The paper's argument is that LP-designed overlays keep streaming quality
under *correlated* failures -- ISP-wide outages, regional events, congested
edge regions -- not just under independent per-link loss.  This module makes
those stress models first-class: each is a registered
:class:`FailureScenario` that, given a problem instance and a seeded
generator, realizes a concrete ``(loss model, failure schedule)`` pair for
the Monte-Carlo engine.  The catalogue is what ``repro simulate --scenario``,
``repro bench --suite reliability`` (the R2 benchmark) and the Designer API's
``DesignRequest.evaluation`` field all sweep.

Built-in scenarios
------------------
``baseline``
    Independent Bernoulli loss at the measured link rates; no failures.
``isp-outage``
    Correlated ISP-wide outages with a common shock
    (:func:`~repro.simulation.failures.sample_isp_outage_schedule`).
``regional-failure``
    A topology cluster (colo/region, inferred from node naming) goes dark
    (:func:`~repro.simulation.failures.sample_regional_outage_schedule`).
``flash-crowd``
    Congestion waves on the most-subscribed edge sinks
    (:func:`~repro.simulation.failures.sample_flash_crowd_congestion`).
``bursty-links``
    Gilbert-Elliott bursty loss at the same average link rates.

Beyond the five built-ins, this package directory ships a library of
*composable* scenario files (``*.json``) compiled by
:mod:`repro.simulation.dsl` and auto-registered on first catalogue access --
see ``docs/scenarios.md`` for the schema and the authoring guide.

RNG stream keying
-----------------
Each scenario's failure draw and engine stream derive from a *stable
per-name key* (:func:`scenario_stream_key`), never from the scenario's
position in the registry: registering new scenarios (the whole point of the
DSL) must not silently re-seed -- and therefore re-value -- the metrics of
existing ones.  The five built-ins keep their historical positional keys
0..4 through a pinned compat mapping, so their ``evaluate_design`` metrics
are bit-identical to every release since the catalogue landed; any other
name maps to a digest of the name itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.problem import OverlayDesignProblem
from repro.core.solution import OverlaySolution
from repro.network.loss import BernoulliLossModel, GilbertElliottLossModel, LossModel
from repro.simulation.failures import (
    FailureSchedule,
    sample_flash_crowd_congestion,
    sample_isp_outage_schedule,
    sample_regional_outage_schedule,
)
from repro.simulation.streaming import MonteCarloConfig, run_monte_carlo


@dataclass(frozen=True)
class ScenarioContext:
    """Everything a scenario needs to realize itself for one instance.

    ``solution`` is the design under test, when the caller has one; it is
    ``None`` for design-independent sweeps.  Scenarios that need it (the
    ``targeted-attack`` DSL primitive) must degrade gracefully -- attacking
    the statically most-loaded reflectors -- rather than fail.
    """

    problem: OverlayDesignProblem
    num_packets: int
    rng: np.random.Generator
    node_isp: Mapping[str, str | None]
    clusters: Mapping[str, Sequence[str]]
    hot_sinks: Sequence[str]
    solution: OverlaySolution | None = None


@dataclass(frozen=True)
class ScenarioRealization:
    """A concrete stress model: the loss process plus injected failures."""

    loss_model: LossModel
    failures: FailureSchedule


@dataclass(frozen=True)
class FailureScenario:
    """A registered, named stress model.

    ``realize`` maps a :class:`ScenarioContext` to a
    :class:`ScenarioRealization`; all randomness must come from the context's
    generator so a sweep is reproducible from one seed.
    """

    name: str
    description: str
    realize: Callable[[ScenarioContext], ScenarioRealization]
    tags: tuple[str, ...] = field(default=())


_REGISTRY: dict[str, FailureScenario] = {}

#: Historical positional stream keys for the scenarios that predate
#: :func:`scenario_stream_key`.  Frozen forever: changing a value here
#: changes published metrics.
_COMPAT_STREAM_KEYS: dict[str, int] = {
    "baseline": 0,
    "isp-outage": 1,
    "regional-failure": 2,
    "flash-crowd": 3,
    "bursty-links": 4,
}


def scenario_stream_key(name: str) -> int:
    """Stable RNG stream key for ``name``.

    Built-ins keep their historical positional keys (0..4); every other name
    hashes to ``5 + sha256(name)[:8]``, so the key depends only on the name --
    never on what else is registered or in what order.
    :func:`evaluate_design` seeds its per-scenario failure/engine streams
    from this key.
    """
    compat = _COMPAT_STREAM_KEYS.get(name)
    if compat is not None:
        return compat
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return 5 + int.from_bytes(digest[:8], "big")


def register_failure_scenario(scenario: FailureScenario) -> FailureScenario:
    """Register ``scenario`` under its name (last registration wins)."""
    _REGISTRY[scenario.name] = scenario
    return scenario


_shipped_loaded = False


def _ensure_shipped_scenarios() -> None:
    """Auto-register the scenario files shipped inside this package.

    Deferred (and imported lazily) so ``repro.simulation.scenarios`` stays
    importable without :mod:`repro.simulation.dsl`, and the dsl module can in
    turn import this one without a cycle.
    """
    global _shipped_loaded
    if _shipped_loaded:
        return
    _shipped_loaded = True
    from repro.simulation.dsl import register_shipped_scenarios

    register_shipped_scenarios()


def get_failure_scenario(name: str) -> FailureScenario:
    _ensure_shipped_scenarios()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown failure scenario {name!r} (known: {known})") from None


def failure_scenario_names() -> list[str]:
    """All registered scenario names, in registration order."""
    _ensure_shipped_scenarios()
    return list(_REGISTRY)


# ---------------------------------------------------------------------------
# Context inference helpers
# ---------------------------------------------------------------------------


def infer_clusters(problem: OverlayDesignProblem) -> dict[str, list[str]]:
    """Group reflectors and sinks into topology clusters by name prefix.

    The workload generators name machines ``<colo>-<machine>`` (e.g.
    ``colo3-r1``, ``colo3-edge``), so the prefix before the first ``-``
    recovers the co-location cluster.  Nodes without a prefix become
    singleton clusters, which degrades regional failures to single-node
    outages on unstructured instances -- still a valid stress model.
    """
    clusters: dict[str, list[str]] = {}
    for name in [*problem.reflectors, *problem.sinks]:
        prefix = name.split("-", 1)[0]
        clusters.setdefault(prefix, []).append(name)
    return clusters


def hot_sinks(problem: OverlayDesignProblem, fraction: float = 0.3) -> list[str]:
    """The most-subscribed sinks (demand count, ties by name) -- the flash crowd."""
    counts: dict[str, int] = {}
    for demand in problem.demands:
        counts[demand.sink] = counts.get(demand.sink, 0) + 1
    ranked = sorted(counts, key=lambda sink: (-counts[sink], sink))
    keep = max(1, int(round(fraction * len(ranked)))) if ranked else 0
    return ranked[:keep]


def reflector_betweenness(
    problem: OverlayDesignProblem, solution: OverlaySolution | None
) -> dict[str, int]:
    """Demand paths carried per reflector -- overlay betweenness centrality.

    In the paper's 3-level overlay every source->sink path transits exactly
    one reflector, so a reflector's betweenness is simply the number of
    demand assignments routed through it.  Without a solution, falls back to
    a static proxy -- how many demands list the reflector as a candidate --
    enough for an adversary to pick plausibly central targets before a
    design exists.
    """
    counts: dict[str, int] = dict.fromkeys(problem.reflectors, 0)
    if solution is not None:
        for reflectors in solution.assignments.values():
            for reflector in reflectors:
                if reflector in counts:
                    counts[reflector] += 1
        return counts
    for demand in problem.demands:
        for reflector in problem.candidate_reflectors(demand):
            if reflector in counts:
                counts[reflector] += 1
    return counts


def top_betweenness_reflectors(
    problem: OverlayDesignProblem,
    solution: OverlaySolution | None,
    top_k: int,
) -> list[str]:
    """The ``top_k`` highest-betweenness reflectors (count desc, name asc)."""
    counts = reflector_betweenness(problem, solution)
    ranked = sorted(counts, key=lambda name: (-counts[name], name))
    return ranked[: max(0, top_k)]


def build_context(
    problem: OverlayDesignProblem,
    num_packets: int,
    rng: np.random.Generator,
    node_isp: Mapping[str, str | None] | None = None,
    clusters: Mapping[str, Sequence[str]] | None = None,
    solution: OverlaySolution | None = None,
) -> ScenarioContext:
    """Assemble a :class:`ScenarioContext`, inferring what the caller omits."""
    if node_isp is None:
        node_isp = {r: problem.color(r) for r in problem.reflectors}
    if clusters is None:
        clusters = infer_clusters(problem)
    return ScenarioContext(
        problem=problem,
        num_packets=num_packets,
        rng=rng,
        node_isp=node_isp,
        clusters=clusters,
        hot_sinks=hot_sinks(problem),
        solution=solution,
    )


def realize_scenario(
    name: str,
    problem: OverlayDesignProblem,
    num_packets: int,
    rng: np.random.Generator,
    node_isp: Mapping[str, str | None] | None = None,
    clusters: Mapping[str, Sequence[str]] | None = None,
    solution: OverlaySolution | None = None,
) -> ScenarioRealization:
    """Realize one registered scenario for ``problem`` (one failure draw)."""
    scenario = get_failure_scenario(name)
    context = build_context(problem, num_packets, rng, node_isp, clusters, solution)
    return scenario.realize(context)


# ---------------------------------------------------------------------------
# Built-in catalogue
# ---------------------------------------------------------------------------


def _baseline(context: ScenarioContext) -> ScenarioRealization:
    return ScenarioRealization(BernoulliLossModel(), FailureSchedule())


def _isp_outage(context: ScenarioContext) -> ScenarioRealization:
    isps = sorted({isp for isp in context.node_isp.values() if isp is not None})
    schedule = sample_isp_outage_schedule(isps, context.num_packets, context.rng)
    return ScenarioRealization(BernoulliLossModel(), schedule)


def _regional_failure(context: ScenarioContext) -> ScenarioRealization:
    schedule = sample_regional_outage_schedule(
        context.clusters, context.num_packets, context.rng, outage_probability=0.75
    )
    return ScenarioRealization(BernoulliLossModel(), schedule)


def _flash_crowd(context: ScenarioContext) -> ScenarioRealization:
    schedule = sample_flash_crowd_congestion(
        context.hot_sinks, context.num_packets, context.rng
    )
    return ScenarioRealization(BernoulliLossModel(), schedule)


def _bursty_links(context: ScenarioContext) -> ScenarioRealization:
    return ScenarioRealization(GilbertElliottLossModel(), FailureSchedule())


register_failure_scenario(
    FailureScenario(
        name="baseline",
        description="independent Bernoulli loss at measured link rates, no failures",
        realize=_baseline,
    )
)
register_failure_scenario(
    FailureScenario(
        name="isp-outage",
        description="correlated ISP-wide outages with a common shock (Section 6.4 events)",
        realize=_isp_outage,
        tags=("correlated",),
    )
)
register_failure_scenario(
    FailureScenario(
        name="regional-failure",
        description="a topology cluster (colo/region) goes dark for part of the session",
        realize=_regional_failure,
        tags=("correlated",),
    )
)
register_failure_scenario(
    FailureScenario(
        name="flash-crowd",
        description="congestion waves on the most-subscribed edge sinks",
        realize=_flash_crowd,
        tags=("congestion",),
    )
)
register_failure_scenario(
    FailureScenario(
        name="bursty-links",
        description="Gilbert-Elliott bursty loss at the same average link rates",
        realize=_bursty_links,
    )
)


# ---------------------------------------------------------------------------
# Catalogue sweeps
# ---------------------------------------------------------------------------


def resolve_scenario_names(scenarios: Iterable[str] | str | None) -> list[str]:
    """Normalize a scenario selection: ``None``/``"all"`` -> full catalogue."""
    if scenarios is None or scenarios == "all":
        return failure_scenario_names()
    if isinstance(scenarios, str):
        scenarios = [scenarios]
    names = list(scenarios)
    for name in names:
        get_failure_scenario(name)  # raises with the known list
    return names


def evaluate_design(
    problem: OverlayDesignProblem,
    solution: OverlaySolution,
    scenarios: Iterable[str] | str | None = None,
    *,
    trials: int = 30,
    num_packets: int = 2000,
    window: int = 200,
    seed: int = 0,
    traces: Sequence[str] = (),
    demand_tile: int | None = None,
    trial_tile: int | None = None,
    max_memory: int | None = None,
    rebuffer_loss: float = 0.1,
    jobs: int | str | None = 1,
    node_isp: Mapping[str, str | None] | None = None,
) -> dict[str, dict[str, float]]:
    """Sweep ``solution`` across the failure catalogue.

    Returns ``{scenario name: reliability metrics}``.  Per scenario (``key``
    from :func:`scenario_stream_key`), the failure draw consumes the
    ``[seed, key, 0]`` stream and the engine's integer seed derives from
    ``[seed, key, 1]`` -- so the sweep is reproducible from ``seed`` and
    insensitive to the order or subset of scenarios requested, and ``jobs``
    never changes metrics.  Each row carries the run's tile grid
    (``num_tiles``, ``demand_tile``, ``trial_tile``); ``traces`` adds
    per-window loss/rebuffering metrics (flattened as
    ``"trace:<name>:<metric>"``) replayed through the same fold.  The
    engine knobs are those of :class:`~repro.simulation.streaming.MonteCarloConfig`.
    """
    names = resolve_scenario_names(scenarios)
    isp_map = dict(node_isp) if node_isp is not None else None
    results: dict[str, dict[str, float]] = {}
    for name in names:
        key = scenario_stream_key(name)
        realization = realize_scenario(
            name,
            problem,
            num_packets,
            np.random.default_rng([seed, key, 0]),
            node_isp=isp_map,
            solution=solution,
        )
        engine_seed = int(
            np.random.SeedSequence([seed, key, 1]).generate_state(1, dtype=np.uint64)[0]
        )
        config = MonteCarloConfig(
            num_packets=num_packets,
            trials=trials,
            window=window,
            loss_model=realization.loss_model,
            failures=realization.failures,
            seed=engine_seed,
            demand_tile=demand_tile,
            trial_tile=trial_tile,
            max_memory=max_memory,
            rebuffer_loss=rebuffer_loss,
        )
        report = run_monte_carlo(
            problem, solution, config, node_isp=isp_map, traces=traces, jobs=jobs
        )
        summary = report.summary()
        summary["failure_events"] = float(len(realization.failures))
        summary["worst_demand_mean_loss"] = float(
            report.mean_loss_per_demand.max(initial=0.0)
        )
        row = {key: float(value) for key, value in summary.items()}
        for trace_name, trace_report in report.traces.items():
            for key, value in trace_report.summary().items():
                if isinstance(value, (int, float)):
                    row[f"trace:{trace_name}:{key}"] = float(value)
        results[name] = row
    return results


#: Kept for ``perfbench``'s audit-sweep workload, which calls this name.
evaluate_design_streaming = evaluate_design
