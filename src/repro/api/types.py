"""Typed request/response boundary of the design service.

A :class:`DesignRequest` bundles everything needed to produce one overlay
design -- the problem instance, the pipeline knobs
(:class:`~repro.core.algorithm.DesignParameters`), the strategy name resolved
through the :mod:`repro.api.registry`, and per-strategy ``options`` -- and a
:class:`DesignResult` is what every strategy returns: the solution, the LP
lower bound when the strategy computed one, per-stage wall-clock timings, the
constraint-violation audit, and free-form metadata.

Both types have a versioned JSON encoding (``schema_version`` +
``kind`` discriminator, extending the document conventions of
:mod:`repro.core.serialization`), declared once as :data:`REQUEST` and
:data:`RESULT` (:mod:`repro.core.schema`), which is what ``repro batch``
reads and writes and what the serving cache stores;
:func:`repro.api.design_batch` hands requests to designers in process and
pickles them across worker processes.  ``options`` must be JSON-typed for a
request to serialize.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.audit import SolutionAudit
from repro.api.pipeline import PipelineContext
from repro.core.algorithm import DesignParameters
from repro.core.formulation import ExtensionOptions
from repro.core.problem import OverlayDesignProblem
from repro.core.rounding import RoundingParameters
from repro.core.schema import (
    ANY,
    BOOLEAN,
    INTEGER,
    NUMBER,
    STRING,
    Doc,
    Field,
    MapOf,
    Rows,
    choice,
    integer,
    number,
)
from repro.core.serialization import NAMES, PROBLEM, SOLUTION, scalar_metadata
from repro.core.solution import OverlaySolution

#: Version written into every request/result document; bump on breaking changes.
#: Version 2 added the ``cache`` provenance block to result documents (digest,
#: per-stage hit/miss, session id); version-1 documents still load.
SCHEMA_VERSION = 2

#: Every document version this build can read (newest last).
SCHEMA_VERSIONS_READ = (1, 2)

REQUEST_KIND = "design-request"
RESULT_KIND = "design-result"


@dataclass
class EvaluationSpec:
    """Monte-Carlo reliability evaluation attached to a design request.

    When a request carries one, the registry runs the produced solution
    through the failure-scenario catalogue
    (:func:`repro.simulation.evaluate_design`, the tiled Monte-Carlo fold)
    and attaches the per-scenario reliability metrics to the result's
    ``evaluation`` field.

    Attributes
    ----------
    scenarios:
        Registered failure-scenario names, or ``"all"`` for the whole
        catalogue.
    trials:
        Monte-Carlo trials per scenario.
    num_packets:
        Packets per simulated session.
    window:
        Worst-window statistic size (multiples of 8 stay on the engine's
        byte-aligned fast path).
    seed:
        Seed of the evaluation sweep (failure draws + engine randomness).
    traces:
        Registered load-trace names replayed through the fold (per-window
        loss + rebuffering metrics).
    max_memory:
        Working-set bound of one tile in bytes (``None`` keeps the default
        tile grid).
    scenario_files:
        Paths to scenario DSL documents (see :mod:`repro.simulation.dsl`)
        registered into the catalogue before the sweep runs; their names
        become sweepable exactly like built-ins (``scenarios="all"`` picks
        them up).  Validation failures surface when the request runs.
    """

    scenarios: tuple[str, ...] | str = "all"
    trials: int = 30
    num_packets: int = 2000
    window: int = 200
    seed: int = 0
    traces: tuple[str, ...] = ()
    max_memory: int | None = None
    scenario_files: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("scenarios", "traces", "scenario_files"):
            if isinstance(getattr(self, name), list):
                setattr(self, name, tuple(getattr(self, name)))
        # The declaration's decoder, so a spec built here and a decoded one
        # pass one check (a DocumentError naming ``evaluation.<field>``).
        EVALUATION.values(vars(self), "evaluation")

    def evaluate(
        self, problem: OverlayDesignProblem, solution: OverlaySolution
    ) -> dict[str, dict[str, float]]:
        """Sweep ``solution`` across the catalogue with this spec's fields.

        Registers :attr:`scenario_files` first, so their names are
        sweepable.
        """
        # Lazy import: the simulation stack imports this module.
        from repro.simulation import evaluate_design, register_scenario_file

        for path in self.scenario_files:
            register_scenario_file(path)
        return evaluate_design(
            problem,
            solution,
            self.scenarios,
            trials=self.trials,
            num_packets=self.num_packets,
            window=self.window,
            seed=self.seed,
            traces=self.traces,
            max_memory=self.max_memory,
        )


EVALUATION = Doc(
    EvaluationSpec,
    [
        Field("scenarios", Rows(STRING, or_single=True)),
        Field("trials", integer(1)),
        Field("num_packets", integer(1)),
        Field("window", integer(1)),
        # Seeds feed numpy's SeedSequence, which takes no negative entropy.
        Field("seed", integer(0)),
        # Written only when set, so documents that do not use them stay
        # byte-stable across builds.
        Field("traces", NAMES, omit=True),
        Field("max_memory", integer(1), nullable=True, omit=True),
        Field("scenario_files", NAMES, omit=True),
        # Written by builds with two engines; read and ignored.
        Field("mode", choice("batched", "streaming"), ignored=True),
    ],
)


def evaluation_spec_to_dict(spec: EvaluationSpec) -> dict[str, Any]:
    """Encode an :class:`EvaluationSpec` as a JSON-compatible mapping."""
    return EVALUATION.encode(spec)


def evaluation_spec_from_dict(data: dict[str, Any]) -> EvaluationSpec:
    """Decode an :class:`EvaluationSpec` from its JSON form (:data:`EVALUATION`)."""
    return EVALUATION.decode(data, "evaluation")


@dataclass
class DesignRequest:
    """One unit of design work addressed to a registered strategy.

    Attributes
    ----------
    problem:
        The instance to design for.
    parameters:
        Pipeline knobs; strategies that don't use a knob ignore it (e.g. the
        greedy baseline only reads the seed).  ``parameters.rounding.seed`` is
        the canonical per-request seed (see :attr:`seed`).
    strategy:
        Registry name resolved via :func:`repro.api.get_designer`.
    options:
        Per-strategy keyword options (e.g. ``{"fanout_slack": 2.0}`` for the
        greedy baseline).  Unknown options raise ``ValueError`` at design time.
    evaluation:
        Optional :class:`EvaluationSpec`; when present (and the strategy
        produces a solution) the result carries per-scenario reliability
        metrics from the Monte-Carlo engine under ``result.evaluation``.
    request_id:
        Optional caller-supplied correlation id, echoed on the result.
    """

    problem: OverlayDesignProblem
    parameters: DesignParameters = field(default_factory=DesignParameters)
    strategy: str = "spaa03"
    options: dict = field(default_factory=dict)
    evaluation: EvaluationSpec | None = None
    request_id: str | None = None

    @property
    def seed(self) -> int | None:
        """The request's seed (``parameters.rounding.seed``)."""
        return self.parameters.rounding.seed


@dataclass
class DesignResult:
    """What every registered strategy returns for a :class:`DesignRequest`.

    Attributes
    ----------
    strategy:
        Registry name of the designer that produced this result.
    solution:
        The integral design (empty for bound-only strategies like
        ``"lp-bound"``).
    lower_bound:
        The LP lower bound when the strategy computed one, else ``None``.
    stage_seconds:
        Per-stage wall-clock times (pipeline strategies report every stage;
        one-shot baselines report a single ``"design"`` entry).
    audit:
        Constraint-violation audit of ``solution`` (``None`` for bound-only
        strategies).
    metadata:
        Free-form strategy-specific extras (rounding attempts, search nodes,
        ...).  Only JSON-typed values survive serialization.
    evaluation:
        Per-scenario reliability metrics (``{scenario: {metric: value}}``)
        when the request carried an :class:`EvaluationSpec`, else ``None``.
    cache:
        Cache provenance stamped by the serving layer (:mod:`repro.serve`):
        ``request_digest``/``problem_digest`` (the content-addressed keys; a
        session event's result keys nothing, so its ``request_digest`` is
        ``None`` and it has no ``problem_digest``), ``stages`` (per-stage
        ``"hit"``/``"miss"``), ``session_id`` when the result came out of a
        :class:`~repro.serve.DesignSession`, and
        ``served_from_cache`` for whole-result hits.  ``None`` for results
        produced outside the serving layer (schema version 2; see
        ``docs/serving.md``).
    request_id:
        Echo of the request's correlation id.
    report:
        For pipeline strategies, the run's
        :class:`~repro.api.pipeline.PipelineContext`: every intermediate
        artifact (formulation, LP and fractional solutions, rounding draw,
        GAP or path-rounding result).  In memory only: never serialized,
        left out of comparisons and ``repr``, and ``None`` after a
        round-trip or out of :func:`~repro.api.design_batch`.
    shard_state:
        For sharded designs and incremental updates, the
        :class:`~repro.scale.stitch.ShardState` the next incremental update
        of this design starts from (never serialized; ``None`` after a
        round-trip, and then the update builds the state from the design
        first, :meth:`~repro.scale.stitch.ShardState.of`).

    A result served from the cache (:func:`stored_result`) decodes its
    ``solution`` and ``audit`` from the stored document on first read.
    """

    strategy: str
    solution: OverlaySolution
    lower_bound: float | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)
    audit: SolutionAudit | None = None
    metadata: dict = field(default_factory=dict)
    evaluation: dict[str, dict[str, float]] | None = None
    cache: dict | None = None
    request_id: str | None = None
    report: PipelineContext | None = field(default=None, compare=False, repr=False)
    schema_version: int = SCHEMA_VERSION
    shard_state: Any = field(default=None, compare=False, repr=False)

    @property
    def total_cost(self) -> float:
        return self.solution.total_cost()

    @property
    def cost_ratio(self) -> float:
        """Cost over the LP lower bound; ``inf`` when no bound is available."""
        if self.lower_bound is None or self.lower_bound <= 0:
            return float("inf") if self.total_cost > 0 else 1.0
        return self.total_cost / self.lower_bound

    def summary(self) -> dict:
        """Flat metric dictionary (the ``repro design`` table)."""
        info = dict(self.solution.summary())
        info["strategy"] = self.strategy
        if self.lower_bound is not None:
            info["lp_lower_bound"] = self.lower_bound
            info["cost_ratio"] = self.cost_ratio
        if self.report is not None:
            info["lp_variables"] = self.report.formulation.num_variables
            info["lp_constraints"] = self.report.formulation.num_constraints
            info["rounding_attempts"] = self.report.rounding_attempts
        info["stage_seconds"] = dict(self.stage_seconds)
        return info


#: Held while a stored document is decoded, so threads reading one result
#: decode it once and see one solution and one audit.
_DECODING = threading.Lock()


class _StoredDocument:
    """A stored result document and the problem it is read against.

    A result served from the cache holds one in place of its solution and
    its audit; the first read of either decodes the document through
    :func:`result_from_dict`, once for both.
    """

    def __init__(self, document: dict[str, Any], problem: OverlayDesignProblem) -> None:
        self.document, self.problem, self._result = document, problem, None

    def decoded(self) -> DesignResult:
        with _DECODING:
            if self._result is None:
                self._result = result_from_dict(self.document, self.problem)
        return self._result


class _DecodedOnRead:
    """A :class:`DesignResult` field that may hold a :class:`_StoredDocument` until read."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, result: DesignResult | None, owner: type | None = None) -> Any:
        if result is None:
            return self
        value = result.__dict__[self.name]
        if type(value) is _StoredDocument:
            value = result.__dict__[self.name] = getattr(value.decoded(), self.name)
        return value

    def __set__(self, result: DesignResult, value: Any) -> None:
        result.__dict__[self.name] = value


DesignResult.solution = _DecodedOnRead("solution")
DesignResult.audit = _DecodedOnRead("audit")


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


SEED = Field("seed", integer(0), nullable=True)
ROUNDING = Doc(RoundingParameters, [Field("c", number()), Field("delta", number()), SEED])
SWITCHES = [Field(item.name, BOOLEAN) for item in dataclasses.fields(ExtensionOptions)]
PARAMETERS = Doc(
    DesignParameters,
    [
        Field("rounding", ROUNDING),
        Field("extensions", Doc(ExtensionOptions, SWITCHES)),
        Field("retry_rounding", BOOLEAN),
        Field("max_rounding_attempts", integer(1)),
        Field("keep_degenerate_box", BOOLEAN),
        Field("repair_shortfall", BOOLEAN),
        Field("repair_fanout_slack", number()),
        # Written by builds with a solver registry; both ran the HiGHS call
        # every solve now makes.  Read and ignored.
        Field("solver_backend", choice("highs", "highs-mip"), ignored=True),
    ],
)
# ``DesignParameters.seed`` is not declared: it overrides ``rounding.seed``.


def parameters_to_dict(parameters: DesignParameters) -> dict[str, Any]:
    """Encode :class:`DesignParameters` (all knobs, nested dataclasses inline)."""
    return PARAMETERS.encode(parameters)


def parameters_from_dict(data: dict[str, Any]) -> DesignParameters:
    """Decode :class:`DesignParameters` from :func:`parameters_to_dict` output."""
    return PARAMETERS.decode(data, "parameters")


AUDIT = Doc(
    SolutionAudit,
    [
        Field("weight_fraction", MapOf(NUMBER, pairs=True, sort=True)),
        Field("fanout_factor", MapOf(NUMBER, sort=True)),
        Field("color_violations", INTEGER),
        Field("arc_capacity_factor", MapOf(NUMBER, pairs=True, sort=True)),
        Field("unserved_demands", INTEGER),
    ],
)


def audit_to_dict(audit: SolutionAudit) -> dict[str, Any]:
    """Encode a :class:`~repro.analysis.audit.SolutionAudit` losslessly."""
    return AUDIT.encode(audit)


def audit_from_dict(data: dict[str, Any]) -> SolutionAudit:
    """Decode a :class:`~repro.analysis.audit.SolutionAudit`."""
    return AUDIT.decode(data, "audit")


REQUEST = Doc(
    DesignRequest,
    [
        Field("strategy", STRING),
        Field("request_id", STRING, nullable=True),
        Field("parameters", PARAMETERS),
        Field("options", MapOf(ANY)),
        Field("evaluation", EVALUATION, nullable=True),
        Field("problem", PROBLEM, required=True),
    ],
    header={"schema_version": SCHEMA_VERSION, "kind": REQUEST_KIND},
    versions=SCHEMA_VERSIONS_READ,
)


def request_to_dict(request: DesignRequest) -> dict[str, Any]:
    """Encode a request (problem embedded) as a JSON-compatible document."""
    return REQUEST.encode(request)


def request_from_dict(data: dict[str, Any]) -> DesignRequest:
    """Decode a request document produced by :func:`request_to_dict`.

    Reads every version in :data:`SCHEMA_VERSIONS_READ`, so documents written
    by older builds keep loading after a schema bump.  A field outside its
    domain raises :class:`~repro.core.serialization.DocumentError` (a
    ``ValueError``) naming the field.
    """
    return REQUEST.decode(data)


def _result(solution: Callable, strategy: str = "unknown", **values: Any) -> Callable:
    """The decoded result, waiting for its problem."""
    return lambda problem: DesignResult(strategy=strategy, solution=solution(problem), **values)


RESULT = Doc(
    _result,
    [
        Field("strategy", STRING),
        Field("request_id", STRING, nullable=True),
        Field("lower_bound", NUMBER, nullable=True),
        Field("stage_seconds", MapOf(NUMBER)),
        Field("audit", AUDIT, nullable=True),
        Field("metadata", MapOf(ANY), get=lambda result: scalar_metadata(result.metadata)),
        Field("evaluation", MapOf(ANY), nullable=True),
        Field("cache", MapOf(ANY), nullable=True),
        Field("solution", SOLUTION, required=True),
    ],
    header={"schema_version": SCHEMA_VERSION, "kind": RESULT_KIND},
    versions=SCHEMA_VERSIONS_READ,
)


def result_to_dict(result: DesignResult) -> dict[str, Any]:
    """Encode a result as a JSON-compatible document.

    The in-memory ``report`` is intentionally dropped (it is the run's
    :class:`~repro.api.pipeline.PipelineContext`); everything else --
    including stage timings and every audit field -- round-trips through
    :func:`result_from_dict`.
    """
    return RESULT.encode(result)


def result_from_dict(
    data: dict[str, Any], problem: OverlayDesignProblem
) -> DesignResult:
    """Decode a result document against its problem instance.

    Reads every version in :data:`SCHEMA_VERSIONS_READ`: version-1 documents
    (no ``cache`` block) load with ``cache=None``.
    """
    return RESULT.decode(data)(problem)


def stored_result(document: dict[str, Any], problem: OverlayDesignProblem) -> DesignResult:
    """The result a stored :func:`result_to_dict` document holds, against ``problem``.

    For the serving cache's own documents: nothing is checked or decoded.
    The scalars and copies of the maps are read off the document, so editing
    the result never edits it; the solution and the audit are decoded
    through :func:`result_from_dict` on first read (:func:`unread_document`
    tells whether they have been).  Documents from elsewhere go through
    :func:`result_from_dict`.
    """
    stored = _StoredDocument(document, problem)
    return DesignResult(
        strategy=document["strategy"],
        solution=stored,
        lower_bound=document["lower_bound"],
        stage_seconds=dict(document["stage_seconds"]),
        audit=stored,
        metadata=dict(document["metadata"]),
        evaluation=copy.deepcopy(document["evaluation"]),
    )


def unread_document(result: DesignResult) -> dict[str, Any] | None:
    """The document a :func:`stored_result` holds while neither its solution nor
    its audit has been read, else ``None``.

    The document is the cache's own: write it out, never change it.
    """
    stored = result.__dict__["solution"]
    if type(stored) is _StoredDocument and result.__dict__["audit"] is stored:
        return stored.document
    return None


__all__ = [
    "SCHEMA_VERSION",
    "SCHEMA_VERSIONS_READ",
    "DesignRequest",
    "DesignResult",
    "EvaluationSpec",
    "audit_from_dict",
    "audit_to_dict",
    "evaluation_spec_from_dict",
    "evaluation_spec_to_dict",
    "parameters_from_dict",
    "parameters_to_dict",
    "request_from_dict",
    "request_to_dict",
    "result_from_dict",
    "result_to_dict",
]
