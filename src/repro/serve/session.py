"""Long-lived design sessions: a standing problem + design under churn.

The paper frames overlay design as something an operator re-runs continuously
("our algorithm is reasonably fast so it can be rerun as often as needed",
Section 1.3).  :func:`repro.api.design_incremental` made one churn event
cheap; :class:`DesignSession` makes a *stream* of them cheap: it holds the
standing problem, design, and partition plan across events, feeding each
:class:`~repro.incremental.ProblemDelta` through the incremental engine (the
same shard loop, :func:`repro.scale.pipeline.run_shard_loop`, that made the
initial sharded design) with the standing partition plan rebound to the
post-churn problem (:func:`repro.scale.partition.rebind_partition`) whenever
the sink set is unchanged -- skipping the per-event grouping pass entirely.
The initial design runs through :func:`~repro.serve.execute.
run_request_cached`, so the session's :class:`~repro.serve.cache.
ArtifactCache` serves a repeat of it; a sharded session then builds its
standing plan with :func:`~repro.scale.partition.build_partition`, which is
a pure function of the problem and the partition options, so it is the
plan the initial design used.  The session digests nothing itself.

The rebind is a pure-function shortcut: a session event produces the same
design, bit for bit, as a standalone ``design_incremental`` call over the
same standing design and delta (the differential suite in
``tests/test_serve.py`` pins this).  Only wall-clock changes -- which is the
point: the s1 benchmark drives a 5-event churn stream through one session
against five independent ``repro update``-equivalent calls.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.api.types import DesignRequest, DesignResult
from repro.core.algorithm import DesignParameters
from repro.core.index import problem_index
from repro.core.problem import OverlayDesignProblem
from repro.core.serialization import problem_digest  # noqa: F401 -- perfbench patches it
from repro.incremental.delta import ProblemDelta, apply_delta
from repro.incremental.engine import design_incremental, incremental_options
from repro.scale.partition import build_partition, rebind_partition
from repro.scale.pipeline import SHARDED_OPTIONS, SHARDED_PREFIX
from repro.serve.cache import ArtifactCache
from repro.serve.execute import run_request_cached

_SESSION_COUNTER = itertools.count(1)


@dataclass
class SessionEvent:
    """Provenance of one applied delta, kept in ``DesignSession.events``.

    ``seconds`` times the whole event: the table patch, the partition and the
    incremental design.
    """

    index: int
    delta_summary: dict
    seconds: float
    plan_reused: bool
    strategy: str


class DesignSession:
    """A standing problem + design streaming deltas through the incremental engine.

    Parameters
    ----------
    problem:
        The initial problem state.
    strategy:
        Strategy for the initial full design (default ``"sharded:spaa03"``);
        its inner strategy (prefix stripped) seeds the per-shard re-solves.
    parameters:
        Design parameters shared by the initial design and every event.
    options:
        Incremental-engine options (``shards``/``jobs``/``partitioner``/
        ``inner_options``/``full_redesign_threshold``); all but the last
        also configure the initial design.  Unknown keys raise
        ``ValueError``.
    cache:
        The session's :class:`ArtifactCache` (a private default is created
        when omitted; pass a service's cache to share lines across
        sessions).
    session_id:
        Stable identifier stamped into every result's ``cache`` provenance.
    """

    def __init__(
        self,
        problem: OverlayDesignProblem,
        *,
        strategy: str = "sharded:spaa03",
        parameters: DesignParameters | None = None,
        options: Mapping | None = None,
        cache: ArtifactCache | None = None,
        session_id: str | None = None,
    ) -> None:
        self.problem = problem
        self.strategy = strategy
        self.parameters = parameters if parameters is not None else DesignParameters()
        self.options = dict(options or {})
        self._settings = incremental_options(self.options)
        self.cache = cache if cache is not None else ArtifactCache()
        self.session_id = session_id or f"session-{next(_SESSION_COUNTER):04d}"
        self.events: list[SessionEvent] = []
        self._result: DesignResult | None = None
        self._plan = None

    # -- standing state ----------------------------------------------------

    @property
    def inner_strategy(self) -> str:
        name = self.strategy
        while name.startswith(SHARDED_PREFIX):
            name = name[len(SHARDED_PREFIX):]
        return name

    @property
    def result(self) -> DesignResult | None:
        """The standing design result (``None`` before the initial design)."""
        return self._result

    def ensure_design(self) -> DesignResult:
        """Design the standing problem if no design exists yet.

        A sharded initial design also gives the session its standing plan,
        built from the standing problem and the session's ``partitioner``
        and ``shards`` options: the plan the design used, whether the cache
        served the design or computed it.
        """
        if self._result is None:
            sharded = self.strategy.startswith(SHARDED_PREFIX)
            options = {k: v for k, v in self.options.items() if k in SHARDED_OPTIONS}
            request = DesignRequest(
                problem=self.problem,
                parameters=self.parameters,
                strategy=self.strategy,
                options=options if sharded else {},
                request_id=f"{self.session_id}-initial",
            )
            result = run_request_cached(request, self.cache)
            result.cache["session_id"] = self.session_id
            if sharded:
                self._plan = build_partition(
                    self.problem,
                    partitioner=self._settings["partitioner"],
                    shards=self._settings["shards"],
                )
            self._result = result
        return self._result

    # -- event stream ------------------------------------------------------

    def apply_delta(self, delta: ProblemDelta) -> DesignResult:
        """Apply one delta against the standing problem and re-design."""
        standing = self.ensure_design()
        start = time.perf_counter()
        # Index the standing problem first (a served monolithic initial design
        # leaves it unindexed), so the post-churn problem's index derives from it.
        problem_index(self.problem)
        new_problem = (
            self.problem if delta.is_empty else apply_delta(self.problem, delta)
        )
        plan = None
        plan_reused = False
        sinks_changed = bool(delta.sinks_added) or bool(delta.sinks_removed)
        if not delta.requires_full_redesign:
            if self._plan is not None and not sinks_changed:
                # Only sinks that gained or lost a demand change their shard's keys.
                changed = {
                    sink
                    for (sink, _stream), (before, after) in delta.demands_changed.items()
                    if before is None or after is None
                }
                plan = rebind_partition(self._plan, new_problem, changed_sinks=changed)
                plan_reused = True
            else:
                plan = build_partition(
                    new_problem,
                    partitioner=self._settings["partitioner"],
                    shards=self._settings["shards"],
                )
        result = design_incremental(
            standing,
            new_problem,
            self.parameters,
            strategy=self.inner_strategy,
            options=self.options,
            previous_problem=self.problem,
            delta=delta,
            plan=plan,
        )
        seconds = time.perf_counter() - start

        result.cache = {
            "request_digest": None,
            "stages": {"plan": "session-reuse" if plan_reused else "miss"},
            "served_from_cache": False,
            "session_id": self.session_id,
            "session_event": len(self.events) + 1,
        }

        self.events.append(
            SessionEvent(
                index=len(self.events) + 1,
                delta_summary=dict(delta.summary()),
                seconds=seconds,
                plan_reused=plan_reused,
                strategy=result.strategy,
            )
        )
        self.problem = new_problem
        self._result = result
        self._plan = plan
        return result

    def stream(self, deltas: Iterable[ProblemDelta]) -> Iterator[DesignResult]:
        """Apply a sequence of deltas, yielding the result after each."""
        for delta in deltas:
            yield self.apply_delta(delta)

    def summary(self) -> dict:
        """JSON-friendly session snapshot (the ``repro serve`` stats shape)."""
        return {
            "session_id": self.session_id,
            "strategy": self.strategy,
            "events": len(self.events),
            "plan_reuses": sum(1 for event in self.events if event.plan_reused),
            "event_seconds": [event.seconds for event in self.events],
            "cache": self.cache.stats().as_dict(),
        }


__all__ = ["DesignSession", "SessionEvent"]
