"""Bit-identity manifest: three hashes per result over a seed-pinned corpus.

Each entry of ``tests/goldens/bit-identity.json`` names one result of the
corpus below and holds

* ``document``: the SHA-256 of the result document's canonical JSON
  (:func:`~repro.core.serialization.canonical_digest`: floats rounded to 9
  places, keys sorted), minus ``stage_seconds``, ``cache`` and
  ``request_id`` -- the fields that legitimately differ between runs;
* ``solution``: its :func:`~repro.core.serialization.solution_digest`;
* ``problem``: the :func:`~repro.core.serialization.problem_digest` of the
  problem it designs.

The corpus covers the sharded pipeline and the incremental engine end to
end: first ``sharded:spaa03`` designs of ``internet_scale`` at 150 and 1,000
sinks (seeds 0 and 1, ``jobs`` 1 and 2), a sharded ``as_geo`` 300 design and
a monolithic ``spaa03`` ``as_geo`` 150 design, an 8-event
:class:`~repro.serve.DesignSession` at 1,000 sinks (sink churn, a flash
crowd, a regional and an ISP outage, twice), an update from a decoded
standing design, a session whose initial design a shared cache served, and
an empty delta.  Every seed is pinned here.  ``tests/bit_identity_10k.py``
holds the 10,000-sink legs; pass it to pytest by path.

A change that keeps designs and documents bit-identical leaves every entry
as it is.  A change that means to move them regenerates the manifest and
says why in ``CHANGES.md``::

    python -m pytest tests/test_bit_identity.py --regen-goldens
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.api import DesignRequest, design_incremental, run_request
from repro.api.types import DesignResult, result_from_dict, result_to_dict
from repro.core.algorithm import DesignParameters
from repro.core.serialization import canonical_digest, problem_digest, solution_digest
from repro.incremental import ProblemDelta, apply_delta
from repro.incremental.churn import (
    SinkChurnConfig,
    flash_crowd_delta,
    outage_delta,
    sample_sink_churn,
)
from repro.serve import ArtifactCache, DesignSession
from repro.workloads.as_geo import AsGeoConfig, generate_as_geo_problem
from repro.workloads.internet_scale import InternetScaleConfig, generate_internet_scale_problem

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The session script: each event's delta is drawn against the session's
#: current problem from ``np.random.default_rng([seed, event])``.
SCRIPT = ("sink-churn", "flash-crowd", "regional-outage", "isp-outage") * 2

#: Result fields that differ between runs of one computation.
VOLATILE = ("stage_seconds", "cache", "request_id")


def hashes(result: DesignResult) -> dict[str, str]:
    """The manifest entry of one result."""
    document = result_to_dict(result)
    for key in VOLATILE:
        document.pop(key, None)
    return {
        "document": canonical_digest(document, length=64),
        "solution": solution_digest(result.solution),
        "problem": problem_digest(result.solution.problem),
    }


def internet_scale(sinks: int, seed: int):
    return generate_internet_scale_problem(InternetScaleConfig(num_sinks=sinks), rng=seed)[0]


def first_design(problem, seed: int, strategy: str = "sharded:spaa03", **options) -> DesignResult:
    return run_request(
        DesignRequest(
            problem=problem,
            parameters=DesignParameters(seed=seed),
            strategy=strategy,
            options=options,
        )
    )


def event_delta(problem, event: str, rng: np.random.Generator) -> ProblemDelta:
    """One scripted event's delta against ``problem``."""
    if event == "sink-churn":
        return sample_sink_churn(problem, SinkChurnConfig(fraction=0.01), rng)
    if event == "flash-crowd":
        return flash_crowd_delta(problem, rng, hot_fraction=0.02)
    return outage_delta(problem, rng, kind=event.removesuffix("-outage"))


def session_results(
    session: DesignSession, script, seed: int
) -> Iterator[tuple[str, DesignResult]]:
    """The session's initial design, then one result per scripted event."""
    yield "initial", session.ensure_design()
    for at, event in enumerate(script):
        delta = event_delta(session.problem, event, np.random.default_rng([seed, at]))
        yield f"event{at + 1}-{event}", session.apply_delta(delta)


def check_manifest(path: Path, observed: dict[str, dict[str, str]], regen: bool) -> None:
    """Compare ``observed`` with the manifest at ``path`` (or rewrite it)."""
    if regen:
        path.write_text(json.dumps(observed, indent=2) + "\n")
        return
    expected = json.loads(path.read_text())
    assert list(observed) == list(expected), "the corpus changed; regenerate the manifest"
    moved = {
        name: sorted(key for key in entry if entry[key] != expected[name][key])
        for name, entry in observed.items()
        if entry != expected[name]
    }
    assert not moved, f"results moved: {moved}"


def corpus() -> Iterator[tuple[str, DesignResult]]:
    for sinks in (150, 1000):
        for seed in (0, 1):
            problem = internet_scale(sinks, seed)
            for jobs in (1, 2):
                yield f"inet{sinks}-seed{seed}-jobs{jobs}", first_design(problem, seed, jobs=jobs)

    yield "as_geo300-sharded", first_design(
        generate_as_geo_problem(AsGeoConfig(num_sinks=300), rng=0)[0], 0
    )
    yield "as_geo150-spaa03", first_design(
        generate_as_geo_problem(AsGeoConfig(num_sinks=150), rng=0)[0], 0, strategy="spaa03"
    )

    problem = internet_scale(1000, 2)
    session = DesignSession(
        problem, parameters=DesignParameters(seed=5), options={"jobs": 1}, session_id="manifest"
    )
    for name, result in session_results(session, SCRIPT, seed=7):
        yield f"session1000-{name}", result

    # An update from a decoded standing design.
    problem = internet_scale(1000, 0)
    standing = first_design(problem, 0, jobs=1)
    decoded = result_from_dict(json.loads(json.dumps(result_to_dict(standing))), problem)
    delta = event_delta(problem, "sink-churn", np.random.default_rng(11))
    yield "update1000-decoded", design_incremental(
        decoded,
        apply_delta(problem, delta),
        DesignParameters(seed=0),
        options={"jobs": 1},
        previous_problem=problem,
        delta=delta,
    )

    # A session whose initial design a shared cache served.
    problem = internet_scale(150, 3)
    cache = ArtifactCache()
    for label in ("computed", "served"):
        session = DesignSession(
            problem,
            parameters=DesignParameters(seed=3),
            options={"jobs": 1},
            cache=cache,
            session_id="shared",
        )
        for name, result in session_results(session, SCRIPT[:2], seed=13):
            yield f"shared150-{label}-{name}", result

    # An empty delta.
    problem = internet_scale(150, 0)
    yield "update150-empty", design_incremental(
        first_design(problem, 0, jobs=1),
        problem,
        DesignParameters(seed=0),
        options={"jobs": 1},
        delta=ProblemDelta(),
    )


def test_the_corpus_matches_the_manifest(regen_goldens):
    observed = {name: hashes(result) for name, result in corpus()}
    check_manifest(GOLDEN_DIR / "bit-identity.json", observed, regen_goldens)
