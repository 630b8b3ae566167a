"""repro.api -- the unified strategy API over every design algorithm.

This package is the typed request/response boundary the rest of the system
(CLI, benchmarks, batch executor, future service layers) talks to:

* :mod:`repro.api.types` -- :class:`DesignRequest` / :class:`DesignResult`
  dataclasses with versioned JSON (de)serialization;
* :mod:`repro.api.registry` -- the :class:`Designer` protocol and the
  ``@register_designer`` strategy registry (:func:`get_designer`);
* :mod:`repro.api.pipeline` -- the fixed pipeline
  (``Formulate -> Solve -> Round -> Repair -> Audit``) behind the paper's
  algorithm, with per-step hooks and one record of the run
  (:class:`PipelineContext`);
* :mod:`repro.api.designers` -- the built-in catalogue: the paper algorithm
  (``"spaa03"``), its Section-6 extension (``"spaa03-extended"``) and the six
  baselines;
* :mod:`repro.api.batch` -- :func:`design_batch`, the deterministic parallel
  batch entry point.

Quick start::

    from repro.api import DesignRequest, design_batch, get_designer

    result = get_designer("spaa03").design(DesignRequest(problem, parameters))
    results = design_batch(requests, jobs=4)

The registry is the only way to run a design; :class:`DesignPipeline` gives
hooks into the paper algorithm's steps.
"""

from repro.api.batch import (
    design_batch,
    dump_requests_jsonl,
    dump_results_jsonl,
    load_requests_jsonl,
)
from repro.api.pipeline import DesignPipeline, PipelineContext
from repro.api.registry import (
    Designer,
    RegisteredDesigner,
    comparison_designers,
    designer_names,
    get_designer,
    register_designer,
    registered_designers,
    run_request,
)
from repro.api.types import (
    SCHEMA_VERSION,
    DesignRequest,
    DesignResult,
    EvaluationSpec,
    evaluation_spec_from_dict,
    evaluation_spec_to_dict,
    parameters_from_dict,
    parameters_to_dict,
    request_from_dict,
    request_to_dict,
    result_from_dict,
    result_to_dict,
)

# Register the built-in strategies (import has the side effect).
import repro.api.designers  # noqa: E402,F401  isort:skip

# The incremental engine rides the registry/batch machinery above, so its
# import must come after the built-ins are registered.
from repro.incremental.engine import design_incremental  # noqa: E402  isort:skip

__all__ = [
    "SCHEMA_VERSION",
    "Designer",
    "DesignPipeline",
    "DesignRequest",
    "DesignResult",
    "EvaluationSpec",
    "PipelineContext",
    "RegisteredDesigner",
    "comparison_designers",
    "design_batch",
    "design_incremental",
    "designer_names",
    "dump_requests_jsonl",
    "dump_results_jsonl",
    "evaluation_spec_from_dict",
    "evaluation_spec_to_dict",
    "get_designer",
    "load_requests_jsonl",
    "parameters_from_dict",
    "parameters_to_dict",
    "register_designer",
    "registered_designers",
    "request_from_dict",
    "request_to_dict",
    "result_from_dict",
    "result_to_dict",
    "run_request",
]
