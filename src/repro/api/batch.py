"""Batch entry point: many design requests through the parallel executor.

:func:`design_batch` is the service-shaped front door the ROADMAP's batched-
traffic goal needs: hand it a list of :class:`~repro.api.types.DesignRequest`
and it fans them out over worker processes via
:func:`repro.analysis.runner.execute_tasks`.  In process, each request goes
straight to its designer; across processes, requests and results travel as
pickles.  Results come back in request order, and each request carries its
own seed -- so a batch is deterministic given its requests regardless of
``jobs`` (the same bit-for-bit guarantee the benchmark runner makes).

The JSONL helpers are the file format of ``repro batch``: one request (or
result) document per line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import json

from repro.analysis.runner import execute_tasks
from repro.api.registry import get_designer
from repro.api.types import (
    DesignRequest,
    DesignResult,
    request_from_dict,
    request_to_dict,
    result_to_dict,
)
from repro.core.serialization import scalar_metadata


def _batch_task(request: DesignRequest) -> DesignResult:
    """One batch unit (module-level, hence picklable for worker processes).

    The result keeps what its document would carry: no ``report`` or
    ``shard_state``, and only JSON-scalar metadata.  It leaves its problem
    behind, which a worker would otherwise pickle back; :func:`design_batch`
    rebinds it.
    """
    result = get_designer(request.strategy).design(request)
    result.report = result.shard_state = None
    result.metadata = scalar_metadata(result.metadata)
    solution = result.solution
    solution.metadata = scalar_metadata(solution.metadata)
    solution.problem = None
    return result


def design_batch(
    requests: Sequence[DesignRequest] | Iterable[DesignRequest],
    jobs: int | str | None = 1,
) -> list[DesignResult]:
    """Execute many design requests, possibly across worker processes.

    Results are returned in request order, each bound to its request's
    problem, and are bit-identical (up to wall-clock timings) between
    ``jobs=1`` and any parallel setting, because every request derives all
    randomness from its own seed.  With ``jobs=1`` each designer receives
    the request object itself, so it must leave ``request.problem``
    unchanged (memos such as the problem index aside); worker processes
    receive pickled requests and send pickled results back.  A result
    carries what its ``result_to_dict`` document carries: no ``report`` or
    ``shard_state``, and only the JSON-scalar entries of its metadata.

    Custom strategies and ``jobs > 1``: worker processes resolve strategies by
    re-importing :mod:`repro.api`, so a designer registered via
    ``@register_designer`` is only visible to workers if its registration runs
    at import time of a module the workers also import.  Under the ``spawn``
    start method (macOS/Windows default) a designer registered only in the
    parent interpreter session raises ``KeyError`` in the pool -- run such
    batches with ``jobs=1`` or move the registration into an importable
    module.  The built-in catalogue is always available.
    """
    requests = list(requests)
    results = execute_tasks(_batch_task, requests, jobs=jobs)
    for request, result in zip(requests, results):
        result.solution.problem = request.problem
    return results


def load_requests_jsonl(path: str | Path) -> list[DesignRequest]:
    """Read a JSON-lines file of request documents (blank lines ignored)."""
    requests = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            requests.append(request_from_dict(json.loads(line)))
        except (ValueError, KeyError) as error:
            raise ValueError(f"{path}:{lineno}: bad request document: {error}") from None
    return requests


def dump_requests_jsonl(requests: Iterable[DesignRequest], path: str | Path) -> Path:
    """Write requests as a JSON-lines file (one document per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(request_to_dict(request), sort_keys=True) for request in requests]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


def dump_results_jsonl(results: Iterable[DesignResult], path: str | Path) -> Path:
    """Write results as a JSON-lines file (one document per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(result_to_dict(result), sort_keys=True) for result in results]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return path


__all__ = [
    "design_batch",
    "dump_requests_jsonl",
    "dump_results_jsonl",
    "load_requests_jsonl",
]
