"""Tests for the serving layer: cache, cached execution, service, session.

The contract under test throughout is the one ``docs/serving.md`` states:
caching moves wall-clock, never bits.  Every cached artifact is a pure
function of its key's content, so a hit must be indistinguishable (modulo
timings and the ``cache`` provenance block) from a recompute.
"""

from __future__ import annotations

import json
import pickle
import threading
from dataclasses import replace

import pytest

from repro.api import (
    DesignRequest,
    EvaluationSpec,
    get_designer,
    request_from_dict,
    request_to_dict,
    result_from_dict,
    result_to_dict,
    run_request,
)
from repro.core.algorithm import DesignParameters
from repro.core.serialization import problem_digest, solution_digest
from repro.incremental import SinkChurnConfig, churn_stream
from repro.incremental.engine import design_incremental
from repro.serve import (
    ArtifactCache,
    DesignService,
    DesignSession,
    ServiceOverloadedError,
    run_request_cached,
)
from repro.serve.cache import request_digest
from repro.api.types import unread_document
from repro.serve.service import _percentile, _response_document
from repro.workloads.random_instances import RandomInstanceConfig, random_problem


@pytest.fixture(scope="module")
def problem():
    return random_problem(
        RandomInstanceConfig(num_streams=2, num_reflectors=10, num_sinks=20),
        rng=42,
    )


@pytest.fixture(scope="module")
def parameters():
    return DesignParameters(seed=11)


# ---------------------------------------------------------------------------
# ArtifactCache: LRU, byte budget, counters, spill
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_put_get_and_counters(self):
        cache = ArtifactCache(max_bytes=1 << 20)
        assert cache.get("result", "k1") is None
        cache.put("result", "k1", {"value": 1})
        assert cache.get("result", "k1") == {"value": 1}
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.puts == 1
        assert stats.entries == 1
        assert stats.by_namespace["result"]["hits"] == 1
        assert 0 < stats.hit_rate < 1

    def test_none_values_are_rejected(self):
        cache = ArtifactCache()
        with pytest.raises(ValueError, match="cannot cache None"):
            cache.put("result", "k", None)

    def test_a_value_that_does_not_pickle_is_refused(self):
        cache = ArtifactCache()
        cache.put("result", "k", {"value": 1})
        with pytest.raises(TypeError, match="pickle"):
            cache.put("result", "k", {"value": threading.Lock()})
        assert cache.get("result", "k") == {"value": 1}
        assert cache.stats().current_bytes == len(
            pickle.dumps({"value": 1}, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def test_lru_eviction_under_byte_pressure(self):
        payload = b"x" * 4096
        budget = 3 * len(pickle.dumps(payload))
        cache = ArtifactCache(max_bytes=budget)
        for index in range(3):
            cache.put("result", f"k{index}", payload)
        # Touch k0 so k1 becomes the least recently used line.
        assert cache.get("result", "k0") is not None
        cache.put("result", "k3", payload)
        assert cache.stats().evictions >= 1
        assert cache.get("result", "k1") is None
        assert cache.get("result", "k0") is not None
        assert cache.get("result", "k3") is not None
        assert cache.stats().current_bytes <= budget

    def test_oversized_artifact_is_admitted_then_evicted_first(self):
        small = b"y" * 64
        cache = ArtifactCache(max_bytes=len(pickle.dumps(small)) + 8)
        cache.put("result", "huge", b"z" * 65536)
        # Larger than the whole budget, but refusing it would be slower than
        # no cache at all.
        assert cache.get("result", "huge") is not None
        cache.put("result", "small", small)
        assert cache.get("result", "huge") is None
        assert cache.get("result", "small") is not None

    def test_spill_and_readmission(self, tmp_path):
        payload = {"rows": list(range(512))}
        size = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        cache = ArtifactCache(max_bytes=2 * size + 64, spill_dir=str(tmp_path))
        cache.put("result", "a", payload)
        cache.put("result", "b", payload)
        cache.put("result", "c", payload)  # evicts "a" to disk
        stats = cache.stats()
        assert stats.evictions >= 1
        assert stats.spills >= 1
        assert any(path.suffix == ".pkl" for path in tmp_path.iterdir())
        # The spilled line comes back transparently and counts as a hit.
        assert cache.get("result", "a") == payload
        assert cache.stats().spill_hits == 1

    def test_clear_drops_lines_and_spill_files_but_keeps_counters(self, tmp_path):
        cache = ArtifactCache(max_bytes=128, spill_dir=str(tmp_path))
        cache.put("result", "a", b"p" * 256)
        cache.put("result", "b", b"q" * 256)
        puts_before = cache.stats().puts
        cache.clear()
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.current_bytes == 0
        assert stats.puts == puts_before
        assert not any(path.suffix == ".pkl" for path in tmp_path.iterdir())
        assert cache.get("result", "a") is None


# ---------------------------------------------------------------------------
# Digest stability
# ---------------------------------------------------------------------------


class TestDigestStability:
    def test_problem_digest_survives_pickle_and_json_roundtrip(self, problem):
        from repro.core.serialization import problem_from_dict, problem_to_dict

        fresh = problem_digest(problem)
        pickled = problem_digest(pickle.loads(pickle.dumps(problem)))
        rehydrated = problem_digest(
            problem_from_dict(json.loads(json.dumps(problem_to_dict(problem))))
        )
        assert fresh == pickled == rehydrated

    def test_sharded_solution_digest_is_jobs_independent(self, problem, parameters):
        designer = get_designer("sharded:spaa03")
        digests = {
            solution_digest(
                designer.design(
                    DesignRequest(
                        problem=problem,
                        parameters=parameters,
                        strategy=designer.name,
                        options={"shards": 3, "jobs": jobs},
                    )
                ).solution
            )
            for jobs in (1, 2)
        }
        assert len(digests) == 1

    def test_request_digest_ignores_request_id_but_not_content(
        self, problem, parameters
    ):
        base = DesignRequest(
            problem=problem, parameters=parameters, request_id="a"
        )
        relabeled = DesignRequest(
            problem=problem, parameters=parameters, request_id="b"
        )
        other_strategy = DesignRequest(
            problem=problem, parameters=parameters, strategy="greedy"
        )
        assert request_digest(base) == request_digest(relabeled)
        assert request_digest(base) != request_digest(other_strategy)

    def test_seedless_requests_are_not_digestable(self, problem):
        seedless = DesignRequest(problem=problem, parameters=DesignParameters())
        assert seedless.seed is None
        assert request_digest(seedless) is None


# ---------------------------------------------------------------------------
# run_request_cached: miss -> hit bit-identical payloads
# ---------------------------------------------------------------------------


def _comparable(result) -> dict:
    document = result_to_dict(result)
    document.pop("stage_seconds", None)
    document.pop("cache", None)
    document.pop("request_id", None)
    return document


#: A scenario name no other test registers, so only its file can define it.
PROBE_SCENARIO = "served-scenario-file-probe"


def _probe_document(primitive: str) -> str:
    """A DSL document defining :data:`PROBE_SCENARIO` as one ``primitive``."""
    return json.dumps(
        {
            "version": 1,
            "name": PROBE_SCENARIO,
            "description": "scenario-file probe",
            "primitives": [{"kind": primitive}],
        }
    )


@pytest.fixture
def probe_scenario_file(tmp_path):
    """A DSL file defining :data:`PROBE_SCENARIO`; the catalogue is restored after."""
    from repro.simulation.scenarios import _REGISTRY, _ensure_shipped_scenarios

    _ensure_shipped_scenarios()
    before = set(_REGISTRY)
    assert PROBE_SCENARIO not in before
    path = tmp_path / "probe.json"
    path.write_text(_probe_document("isp-outage"))
    yield str(path)
    for name in set(_REGISTRY) - before:
        del _REGISTRY[name]


def _probe_request(problem, parameters, path):
    return DesignRequest(
        problem=problem,
        parameters=parameters,
        strategy="greedy",
        evaluation=EvaluationSpec(
            scenarios=(PROBE_SCENARIO,),
            trials=2,
            num_packets=200,
            window=50,
            scenario_files=(path,),
        ),
    )


def _registered_probe_request(problem, parameters, path):
    """A request sweeping :data:`PROBE_SCENARIO`, registered from ``path`` beforehand."""
    from repro.simulation import register_scenario_file

    register_scenario_file(path)
    request = _probe_request(problem, parameters, path)
    return replace(request, evaluation=replace(request.evaluation, scenario_files=()))


class TestRunRequestCached:
    def test_served_sweep_registers_scenario_files(
        self, problem, parameters, probe_scenario_file
    ):
        request = _probe_request(problem, parameters, probe_scenario_file)
        # The served path runs first: nothing has registered the file yet.
        served = run_request_cached(request, ArtifactCache())
        direct = get_designer("greedy").design(request)
        assert set(served.evaluation) == {PROBE_SCENARIO}
        assert _comparable(served) == _comparable(direct)

    def test_rewritten_scenario_file_is_a_result_miss(
        self, problem, parameters, probe_scenario_file
    ):
        # The result key holds the file's content, not its path.
        cache = ArtifactCache()
        request = _probe_request(problem, parameters, probe_scenario_file)
        first = run_request_cached(request, cache)
        with open(probe_scenario_file, "w", encoding="utf-8") as handle:
            handle.write(_probe_document("targeted-attack"))
        second = run_request_cached(request, cache)
        assert second.cache["stages"]["result"] == "miss"
        assert second.evaluation != first.evaluation
        assert _comparable(second) == _comparable(get_designer("greedy").design(request))

    def test_reregistered_scenario_name_is_a_result_miss(
        self, problem, parameters, probe_scenario_file, tmp_path
    ):
        # The result key holds the compiled spec a name has when it runs.
        from repro.simulation import register_scenario_file

        request = _registered_probe_request(problem, parameters, probe_scenario_file)
        cache = ArtifactCache()
        first = run_request_cached(request, cache)
        other = tmp_path / "redefined.json"
        other.write_text(_probe_document("targeted-attack"))
        register_scenario_file(str(other))
        second = run_request_cached(request, cache)
        assert second.cache["stages"]["result"] == "miss"
        assert second.evaluation != first.evaluation
        assert _comparable(second) == _comparable(get_designer("greedy").design(request))

    def test_an_unregistered_compile_leaves_the_key_alone(
        self, problem, parameters, probe_scenario_file, tmp_path
    ):
        # The key reads the spec of the scenario the catalogue runs.
        from repro.simulation import load_scenario_file

        request = _registered_probe_request(problem, parameters, probe_scenario_file)
        digest = request_digest(request)
        other = tmp_path / "unregistered.json"
        other.write_text(_probe_document("targeted-attack"))
        load_scenario_file(str(other))
        assert request_digest(request) == digest

    def test_hit_is_bit_identical_to_miss(self, problem, parameters):
        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=parameters)
        first = run_request_cached(request, cache)
        second = run_request_cached(request, cache)
        assert first.cache["served_from_cache"] is False
        assert first.cache["stages"]["result"] == "miss"
        assert second.cache["served_from_cache"] is True
        assert second.cache["stages"]["result"] == "hit"
        assert _comparable(first) == _comparable(second)

    def test_cached_run_is_bit_identical_to_a_direct_run(self, problem, parameters):
        # Cache states are provenance: they go in the ``cache`` block only.
        request = DesignRequest(problem=problem, parameters=parameters)
        direct = get_designer("spaa03").design(request)
        cache = ArtifactCache()
        cold = run_request_cached(request, cache)
        # Another request digest for the same design: a second miss.  The
        # repair slack is read only when repair_shortfall is on, which it is
        # not here.
        unread = replace(parameters, repair_fanout_slack=2.0)
        other = run_request_cached(replace(request, parameters=unread), cache)
        assert other.cache["stages"]["result"] == "miss"
        assert _comparable(cold) == _comparable(direct) == _comparable(other)

    def test_result_entry_carries_document_and_problem_digest(
        self, problem, parameters
    ):
        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=parameters)
        result = run_request_cached(request, cache)
        entry = cache.get("result", result.cache["request_digest"])
        assert set(entry) == {"document", "problem_digest"}
        assert entry["problem_digest"] == problem_digest(problem)
        # The stored payload is the pure computation: provenance is stamped
        # per retrieval, never cached.
        assert entry["document"]["cache"] is None
        rehydrated = result_from_dict(entry["document"], problem)
        assert solution_digest(rehydrated.solution) == solution_digest(
            result.solution
        )

    def test_precomputed_digest_hint_matches_internal_digest(
        self, problem, parameters
    ):
        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=parameters)
        digest = request_digest(request)
        first = run_request_cached(request, cache, digest=digest)
        assert first.cache["request_digest"] == digest
        second = run_request_cached(request, cache)
        assert second.cache["served_from_cache"] is True
        assert _comparable(first) == _comparable(second)

    def test_seedless_request_is_never_result_cached(self, problem):
        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=DesignParameters())
        first = run_request_cached(request, cache)
        second = run_request_cached(request, cache)
        assert first.cache["stages"]["result"] == "bypass"
        assert second.cache["served_from_cache"] is False
        assert cache.stats().by_namespace.get("result") is None

    def test_a_cold_cache_still_stamps_provenance(self, problem, parameters):
        request = DesignRequest(problem=problem, parameters=parameters)
        result = run_request_cached(request, ArtifactCache())
        assert result.cache["stages"]["result"] == "miss"
        assert result.cache["request_digest"] == request_digest(request)
        assert result.cache["served_from_cache"] is False

    def test_served_traced_sweeps_equal_uncached_runs(self, problem, parameters):
        cache = ArtifactCache()
        spec = dict(scenarios=("baseline", "isp-outage"), num_packets=200, window=40)
        for trials in (2, 3):
            request = DesignRequest(
                problem=problem,
                parameters=parameters,
                evaluation=EvaluationSpec(trials=trials, traces=("diurnal",), **spec),
            )
            served = run_request_cached(request, cache)
            assert "trace:diurnal:peak_window_loss" in served.evaluation["baseline"]
            cold = run_request_cached(request, ArtifactCache())
            assert _comparable(served) == _comparable(cold)

    def test_cache_holds_only_result_lines(self, problem, parameters):
        cache = ArtifactCache()
        options = {"shards": 2, "jobs": 1}
        run_request_cached(
            DesignRequest(
                problem=problem, parameters=parameters, strategy="sharded:spaa03",
                options=options,
            ),
            cache,
        )
        evaluation = EvaluationSpec(
            scenarios=("baseline", "isp-outage"), trials=2, num_packets=200, window=40
        )
        run_request_cached(
            DesignRequest(problem=problem, parameters=parameters, evaluation=evaluation),
            cache,
        )
        session = DesignSession(problem, parameters=parameters, options=options, cache=cache)
        events = ["flash-crowd", "sink-churn", "isp-outage"]
        for _event, delta, _new in churn_stream(problem, events, seed=5):
            session.apply_delta(delta)
        assert set(cache.stats().by_namespace) == {"result"}


# ---------------------------------------------------------------------------
# Served hits: decoded on first read, written as stored
# ---------------------------------------------------------------------------

SWEEP = EvaluationSpec(scenarios=("baseline", "isp-outage"), trials=2, num_packets=200, window=40)


def _hit_requests(problem, parameters) -> dict[str, DesignRequest]:
    return {
        "sharded:spaa03": DesignRequest(
            problem=problem,
            parameters=parameters,
            strategy="sharded:spaa03",
            options={"shards": 2, "jobs": 1},
        ),
        "spaa03": DesignRequest(problem=problem, parameters=parameters),
        "evaluated": DesignRequest(problem=problem, parameters=parameters, evaluation=SWEEP),
    }


def _payload(document: dict) -> str:
    """A response document minus what differs between deliveries, as JSON text."""
    document = dict(document)
    for key in ("stage_seconds", "cache", "request_id"):
        document.pop(key, None)
    return json.dumps(document, sort_keys=True)


@pytest.fixture
def decodes(monkeypatch):
    """Count the assignment checks and solution builds a decode makes."""
    import repro.core.serialization as serialization
    from repro.core.solution import OverlaySolution

    counts = {"checked": 0, "built": 0}
    check, build = serialization._check_assignments, OverlaySolution.from_assignments.__func__

    def checked(*args, **kwargs):
        counts["checked"] += 1
        return check(*args, **kwargs)

    def built(cls, *args, **kwargs):
        counts["built"] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(serialization, "_check_assignments", checked)
    monkeypatch.setattr(OverlaySolution, "from_assignments", classmethod(built))
    return counts


class TestServedMisses:
    @pytest.mark.parametrize("kind", ["spaa03", "sharded:spaa03", "evaluated"])
    def test_a_miss_is_run_request(self, problem, parameters, kind):
        request = _hit_requests(problem, parameters)[kind]
        served = run_request_cached(request, ArtifactCache())
        direct = run_request(request)
        assert served.cache["stages"] == {"result": "miss"}
        assert list(served.stage_seconds) == list(direct.stage_seconds)
        assert _payload(result_to_dict(served)) == _payload(result_to_dict(direct))


class TestServedHits:
    def test_a_hit_decodes_nothing_until_read(self, problem, parameters, decodes):
        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=parameters)
        run_request_cached(request, cache)
        decodes.update(checked=0, built=0)
        hit = run_request_cached(request, cache)
        assert hit.cache["served_from_cache"]
        assert hit.strategy == "spaa03" and hit.metadata and hit.stage_seconds
        assert decodes == {"checked": 0, "built": 0}
        assert unread_document(hit) is not None
        audit = hit.audit
        assert decodes == {"checked": 1, "built": 1}
        # One decode serves both fields.
        assert hit.solution.problem is problem
        assert decodes == {"checked": 1, "built": 1}
        assert hit.audit is audit
        assert unread_document(hit) is None

    def test_threads_reading_one_hit_decode_it_once(self, problem, parameters, decodes):
        import sys

        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=parameters)
        run_request_cached(request, cache)
        hit = run_request_cached(request, cache)
        decodes.update(checked=0, built=0)
        start, seen = threading.Barrier(8), []

        def read():
            start.wait(timeout=30)
            seen.append((hit.solution, hit.audit))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        assert decodes == {"checked": 1, "built": 1}
        assert all(pair[0] is hit.solution and pair[1] is hit.audit for pair in seen)

    def test_a_read_hit_equals_the_eager_decode(self, problem, parameters):
        for request in _hit_requests(problem, parameters).values():
            cache = ArtifactCache()
            run_request_cached(request, cache)
            hit = run_request_cached(request, cache)
            entry = cache.get("result", hit.cache["request_digest"])
            eager = result_from_dict(entry["document"], request.problem)
            eager.cache, eager.request_id = hit.cache, hit.request_id
            assert hit == eager

    def test_a_joined_ticket_re_stamps_a_hit(self, problem, parameters):
        from concurrent.futures import Future

        from repro.serve import DesignTicket

        cache = ArtifactCache()
        request = DesignRequest(problem=problem, parameters=parameters, request_id="first")
        direct = run_request_cached(request, cache)
        hit = run_request_cached(request, cache)
        future: Future = Future()
        future.set_result(hit)
        ticket = DesignTicket(
            request_id="joined",
            digest=hit.cache["request_digest"],
            deduplicated=True,
            future=future,
        )
        joined = ticket.result()
        assert joined.request_id == "joined"
        assert joined.cache["deduplicated"] is True and joined.cache["served_from_cache"]
        assert "deduplicated" not in hit.cache and hit.request_id == "first"
        assert _payload(result_to_dict(joined)) == _payload(result_to_dict(direct))

    def test_a_join_on_an_unread_hit_leaves_both_unread(self, problem, parameters):
        from concurrent.futures import Future

        from repro.api import run_request
        from repro.serve import DesignTicket

        request = DesignRequest(problem=problem, parameters=parameters, request_id="first")
        expected = _payload(result_to_dict(run_request(request)))
        cache = ArtifactCache()
        run_request_cached(request, cache)
        hit = run_request_cached(request, cache)
        future: Future = Future()
        future.set_result(hit)
        ticket = DesignTicket(
            request_id="joined",
            digest=hit.cache["request_digest"],
            deduplicated=True,
            future=future,
        )
        joined = ticket.result()
        assert unread_document(hit) is not None and unread_document(joined) is not None
        body = _response_document(joined)
        assert body["request_id"] == "joined" and body["cache"]["deduplicated"] is True
        assert _payload(body) == expected
        assert unread_document(hit) is not None and unread_document(joined) is not None
        # Read, the two share one decode.
        assert joined.solution is hit.solution

    def test_editing_a_returned_result_leaves_later_hits_alone(self, problem, parameters):
        request = _hit_requests(problem, parameters)["evaluated"]
        expected = _payload(result_to_dict(get_designer("spaa03").design(request)))
        cache = ArtifactCache()
        miss = run_request_cached(request, cache)
        hit = run_request_cached(request, cache)
        for result in (miss, hit):
            for metrics in result.evaluation.values():
                for metric in metrics:
                    metrics[metric] = -1.0
            result.metadata["edited"] = True
            result.stage_seconds.clear()
            document = result_to_dict(result)
            for metrics in document["evaluation"].values():
                metrics.clear()
            document["metadata"]["edited"] = True
            document["solution"]["summary"]["total_cost"] = -1.0
            document["solution"]["metadata"]["edited"] = True
            for entry in document["solution"]["assignments"]:
                entry["reflectors"].append("edited")
            document["audit"]["weight_fraction"][0][2] = -1.0
            document["audit"]["fanout_factor"].clear()
            for reflectors in result.solution.assignments.values():
                reflectors.append("edited")
        later = run_request_cached(request, cache)
        assert later.cache["served_from_cache"]
        assert _payload(_response_document(later)) == expected
        assert _payload(result_to_dict(later)) == expected

    @pytest.mark.parametrize("kind", ["sharded:spaa03", "spaa03", "evaluated"])
    def test_read_and_unread_hits_write_the_direct_payload(self, problem, parameters, kind):
        from repro.api import run_request

        request = _hit_requests(problem, parameters)[kind]
        expected = _payload(result_to_dict(run_request(request)))
        cache = ArtifactCache()
        run_request_cached(request, cache)
        unread, read = run_request_cached(request, cache), run_request_cached(request, cache)
        assert read.solution is not None and read.audit is not None
        assert unread_document(unread) is not None and unread_document(read) is None
        body = _response_document(unread)
        assert body["cache"] == unread.cache and body["request_id"] == unread.request_id
        assert _payload(body) == expected
        # Writing an unread hit leaves it unread; encoding it reads it.
        assert unread_document(unread) is not None
        assert _payload(result_to_dict(unread)) == expected
        assert unread_document(unread) is None
        assert _payload(_response_document(read)) == expected

    def test_a_session_started_from_a_hit_runs_its_first_event(self, problem, parameters):
        options = {"shards": 2, "jobs": 1}
        cache = ArtifactCache()
        sessions = [
            DesignSession(
                problem,
                strategy="sharded:spaa03",
                parameters=parameters,
                options=options,
                cache=cache,
            )
            for _ in range(2)
        ]
        standing = sessions[0].ensure_design()
        session = sessions[1]
        initial = session.ensure_design()
        assert initial.cache["served_from_cache"] and unread_document(initial) is not None
        _event, delta, new_problem = next(
            churn_stream(
                problem, ["sink-churn"], seed=3, churn_config=SinkChurnConfig(fraction=0.15)
            )
        )
        served = session.apply_delta(delta)
        direct = design_incremental(
            standing,
            new_problem,
            parameters,
            options=options,
            previous_problem=problem,
            delta=delta,
        )
        assert solution_digest(served.solution) == solution_digest(direct.solution)
        assert served.shard_state is not None


# ---------------------------------------------------------------------------
# DesignService: dedup, races, stats
# ---------------------------------------------------------------------------


class TestDesignService:
    def test_repeat_digest_burst_joins_in_flight_line(self, problem, parameters):
        request = DesignRequest(problem=problem, parameters=parameters)
        with DesignService(workers=2) as service:
            tickets = [service.submit(request) for _ in range(4)]
            results = [ticket.result(timeout=120) for ticket in tickets]
            stats = service.stats()
        assert stats["deduplicated"] >= 1
        assert stats["completed"] + stats["deduplicated"] == 4
        payloads = {json.dumps(_comparable(r), sort_keys=True) for r in results}
        assert len(payloads) == 1
        dedup = [r for r in results if (r.cache or {}).get("deduplicated")]
        assert len(dedup) == stats["deduplicated"]

    def test_concurrent_submitters_race_one_computation(self, problem, parameters):
        request = DesignRequest(problem=problem, parameters=parameters)
        results = []
        errors = []
        with DesignService(workers=2) as service:
            barrier = threading.Barrier(6)

            def submit():
                barrier.wait()
                try:
                    results.append(service.run(request, timeout=120))
                except Exception as error:  # pragma: no cover - fail loudly
                    errors.append(error)

            threads = [threading.Thread(target=submit) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()
        assert not errors
        assert len(results) == 6
        payloads = {json.dumps(_comparable(r), sort_keys=True) for r in results}
        assert len(payloads) == 1
        # Every submission either computed once, joined in flight, or hit the
        # result cache -- never a duplicate compute of the same digest.
        assert stats["cache"]["by_namespace"]["result"]["puts"] == 1

    def test_seedless_requests_are_never_deduplicated(self, problem):
        request = DesignRequest(problem=problem, parameters=DesignParameters())
        with DesignService(workers=2) as service:
            tickets = [service.submit(request) for _ in range(2)]
            for ticket in tickets:
                ticket.result(timeout=120)
            stats = service.stats()
        assert stats["deduplicated"] == 0
        assert stats["completed"] == 2

    def test_errors_are_forwarded_and_counted(self, problem, parameters):
        request = DesignRequest(
            problem=problem, parameters=parameters, strategy="no-such-strategy"
        )
        with DesignService(workers=1) as service:
            with pytest.raises(KeyError, match="no-such-strategy"):
                service.run(request, timeout=120)
            stats = service.stats()
        assert stats["errors"] == 1

    def test_submit_requires_started_service(self, problem, parameters):
        service = DesignService()
        with pytest.raises(RuntimeError, match="not started"):
            service.submit(DesignRequest(problem=problem, parameters=parameters))

    @pytest.mark.parametrize("document", [[1], "abc", 7])
    def test_submit_rejects_non_object_documents(self, document):
        with DesignService(workers=1) as service:
            with pytest.raises(ValueError, match="must be a JSON object"):
                service.submit(document)

    @pytest.mark.parametrize("body", [b"[1, 2]", b'"abc"', b"42", b"{}"])
    def test_http_front_answers_400_for_a_non_request_body(self, body):
        import urllib.error
        import urllib.request

        from repro.serve import DesignServer

        with DesignServer(DesignService(workers=1)) as server:
            post = urllib.request.Request(
                server.url + "/design",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(post, timeout=30)
            assert excinfo.value.code == 400
            assert json.loads(excinfo.value.read())["error"]

    def test_http_front_answers_400_for_a_negative_content_length(self):
        import socket

        from repro.serve import DesignServer

        # rfile.read(-1) reads until the client hangs up: the front must
        # answer before reading the body.
        with DesignServer(DesignService(workers=1)) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as client:
                client.sendall(
                    b"POST /design HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n{}"
                )
                status_line = client.makefile("rb").readline()
        assert status_line.split()[1] == b"400"

    def test_latency_percentiles_are_nearest_rank(self):
        def percentile(values, q):
            return _percentile([float(value) for value in values], q)

        assert percentile(range(1, 10), 50.0) == 5.0
        assert percentile(range(1, 6), 50.0) == 3.0
        assert percentile(range(1, 101), 99.0) == 99.0
        assert percentile([7], 50.0) == percentile([7], 99.0) == 7.0
        assert percentile([], 50.0) is None


    def test_http_front_refuses_client_scenario_files(self, problem, parameters, tmp_path):
        import urllib.error
        import urllib.request

        from repro.serve import DesignServer

        # The file does not exist: the server must refuse the field, not read it.
        missing = str(tmp_path / "never-opened.json")
        document = request_to_dict(_probe_request(problem, parameters, missing))
        with DesignServer(DesignService(workers=1)) as server:
            post = urllib.request.Request(
                server.url + "/design",
                data=json.dumps(document).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(post, timeout=60)
            assert excinfo.value.code == 400
            error = json.loads(excinfo.value.read())["error"]
            assert error.startswith("evaluation.scenario_files")
            assert server.service.stats()["submitted"] == 0


# ---------------------------------------------------------------------------
# Backpressure: bounded queue, 429 on the HTTP front
# ---------------------------------------------------------------------------


@pytest.fixture
def gated_runner(monkeypatch):
    """Block the worker's compute behind a gate so the queue fills on cue.

    Yields ``(gate, entered)``: set ``gate`` to release the worker; wait on
    ``entered`` to know it has dequeued the first request.
    """
    import repro.serve.service as service_module

    gate = threading.Event()
    entered = threading.Event()
    real = service_module.run_request_cached

    def gated(request, *args, **kwargs):
        entered.set()
        assert gate.wait(timeout=60), "gate was never released"
        return real(request, *args, **kwargs)

    monkeypatch.setattr(service_module, "run_request_cached", gated)
    yield gate, entered
    gate.set()


class TestBackpressure:
    def test_max_queue_must_be_positive(self):
        with pytest.raises(ValueError, match="max_queue"):
            DesignService(max_queue=0)

    def test_full_queue_rejects_but_dedup_joins_bypass_it(self, problem, gated_runner):
        gate, entered = gated_runner
        requests = [
            DesignRequest(problem=problem, parameters=DesignParameters(seed=seed))
            for seed in (1, 2, 3)
        ]
        with DesignService(workers=1, max_queue=1) as service:
            running = service.submit(requests[0])
            assert entered.wait(timeout=30)
            queued = service.submit(requests[1])
            with pytest.raises(ServiceOverloadedError, match="queue is full"):
                service.submit(requests[2])
            # Equal-digest submits join the in-flight line without a slot...
            assert service.submit(requests[0]).deduplicated
            assert service.submit(requests[1]).deduplicated
            # ...while the rejected digest left no dead in-flight line behind:
            # resubmitting it overloads again instead of joining a future
            # that will never run.
            with pytest.raises(ServiceOverloadedError):
                service.submit(requests[2])
            gate.set()
            assert running.result(timeout=120).solution is not None
            assert queued.result(timeout=120).solution is not None
            stats = service.stats()
        assert stats["rejected"] == 2
        assert stats["deduplicated"] == 2
        assert stats["max_queue"] == 1
        assert stats["completed"] == 2

    def test_http_front_returns_429_with_retry_after(self, problem, gated_runner):
        import urllib.error
        import urllib.request

        from repro.api import request_to_dict
        from repro.serve import DesignServer

        gate, entered = gated_runner
        requests = [
            DesignRequest(problem=problem, parameters=DesignParameters(seed=seed))
            for seed in (1, 2, 3)
        ]
        with DesignServer(DesignService(workers=1, max_queue=1)) as server:
            running = server.service.submit(requests[0])
            assert entered.wait(timeout=30)
            queued = server.service.submit(requests[1])
            body = json.dumps(request_to_dict(requests[2])).encode()
            post = urllib.request.Request(
                server.url + "/design",
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(post, timeout=30)
            error = excinfo.value
            assert error.code == 429
            assert error.headers["Retry-After"] == "1"
            assert "queue is full" in json.loads(error.read())["error"]
            gate.set()
            running.result(timeout=120)
            queued.result(timeout=120)
            assert server.service.stats()["rejected"] == 1


# ---------------------------------------------------------------------------
# DesignSession: churn stream equals independent incremental updates
# ---------------------------------------------------------------------------


class TestDesignSession:
    def test_multi_event_stream_matches_independent_updates(
        self, problem, parameters
    ):
        events = ["flash-crowd", "sink-churn", "isp-outage"]
        stream = list(
            churn_stream(
                problem,
                events,
                seed=5,
                churn_config=SinkChurnConfig(fraction=0.15),
            )
        )
        session = DesignSession(
            problem,
            strategy="sharded:spaa03",
            parameters=parameters,
            options={"shards": 2, "jobs": 1},
        )
        standing = session.ensure_design()

        # Independent chain: each event pays its own design_incremental call
        # from the previous state, with no shared plan.
        current_problem = problem
        current = standing
        for (_event, delta, new_problem), session_result in zip(
            stream, session.stream(event_delta for _, event_delta, _ in stream)
        ):
            current = design_incremental(
                current,
                new_problem,
                parameters=parameters,
                options={"shards": 2, "jobs": 1},
                previous_problem=current_problem,
                delta=delta,
            )
            current_problem = new_problem
            assert solution_digest(session_result.solution) == solution_digest(
                current.solution
            )

        summary = session.summary()
        assert summary["events"] == len(events)
        # flash-crowd and isp-outage keep the sink set stable, so the
        # standing plan rebinds; sink-churn changes it and rebuilds.
        assert summary["plan_reuses"] == 2
        assert [e.plan_reused for e in session.events] == [True, False, True]

    def test_set_up_counts_no_cache_hit(self, problem, parameters):
        session = DesignSession(
            problem,
            strategy="sharded:spaa03",
            parameters=parameters,
            options={"shards": 2, "jobs": 1},
        )
        session.ensure_design()
        stats = session.cache.stats()
        assert stats.hits == 0
        assert stats.hit_rate == 0.0
        assert set(stats.by_namespace) == {"result"}

    @pytest.mark.parametrize("served", [False, True], ids=["computed", "served"])
    def test_a_first_flash_crowd_rebinds_the_set_up_plan(self, problem, parameters, served):
        options = {"shards": 2, "jobs": 1}
        cache = ArtifactCache()
        # A second session on the same cache is served the first one's design.
        sessions = [
            DesignSession(problem, parameters=parameters, options=options, cache=cache)
            for _ in range(2 if served else 1)
        ]
        sessions[0].ensure_design()
        session = sessions[-1]
        assert session.ensure_design().cache["served_from_cache"] is served
        _event, delta, _new = next(churn_stream(problem, ["flash-crowd"], seed=3))
        result = session.apply_delta(delta)
        assert session.events[0].plan_reused
        assert result.cache["stages"]["plan"] == "session-reuse"

    def test_a_monolithic_session_partitions_on_its_first_event(self, problem, parameters):
        session = DesignSession(
            problem, strategy="spaa03", parameters=parameters, options={"shards": 2, "jobs": 1}
        )
        session.ensure_design()
        events = list(churn_stream(problem, ["flash-crowd", "flash-crowd"], seed=3))
        results = [session.apply_delta(delta) for _event, delta, _new in events]
        assert [result.cache["stages"]["plan"] for result in results] == ["miss", "session-reuse"]

    def test_session_provenance_is_stamped(self, problem, parameters):
        session = DesignSession(
            problem,
            parameters=parameters,
            options={"shards": 2, "jobs": 1},
            session_id="prov",
        )
        initial = session.ensure_design()
        assert initial.cache["session_id"] == "prov"
        _event, delta, _new = next(churn_stream(problem, ["flash-crowd"], seed=3))
        result = session.apply_delta(delta)
        assert result.cache["session_id"] == "prov"
        assert result.cache["session_event"] == 1
        assert result.cache["stages"]["plan"] == "session-reuse"

    def test_event_seconds_cover_the_table_patch(self, problem, parameters, monkeypatch):
        import time

        import repro.serve.session as session_module

        patch = session_module.apply_delta

        def slow_patch(*args, **kwargs):
            time.sleep(0.05)
            return patch(*args, **kwargs)

        session = DesignSession(
            problem, parameters=parameters, options={"shards": 2, "jobs": 1}
        )
        session.ensure_design()
        monkeypatch.setattr(session_module, "apply_delta", slow_patch)
        _event, delta, _new = next(churn_stream(problem, ["flash-crowd"], seed=3))
        session.apply_delta(delta)
        assert session.events[-1].seconds >= 0.05
        assert session.summary()["event_seconds"] == [session.events[-1].seconds]

    def test_a_session_holds_its_own_cache_by_default(self, problem, parameters):
        session = DesignSession(problem, parameters=parameters)
        other = DesignSession(problem, parameters=parameters)
        session.ensure_design()
        assert isinstance(session.cache, ArtifactCache)
        assert session.cache is not other.cache
        assert session.summary()["cache"]["misses"] > 0
        assert other.summary()["cache"]["misses"] == 0


# ---------------------------------------------------------------------------
# Schema: v2 cache block round-trips, v1 documents still load
# ---------------------------------------------------------------------------


class TestResultSchemaVersions:
    def test_v2_roundtrip_preserves_cache_block(self, problem, parameters):
        cache = ArtifactCache()
        result = run_request_cached(
            DesignRequest(problem=problem, parameters=parameters), cache
        )
        document = json.loads(json.dumps(result_to_dict(result)))
        assert document["schema_version"] == 2
        restored = result_from_dict(document, problem)
        assert restored.cache == result.cache

    def test_v1_document_without_cache_block_loads(self, problem, parameters):
        result = get_designer("spaa03").design(
            DesignRequest(problem=problem, parameters=parameters)
        )
        document = result_to_dict(result)
        document["schema_version"] = 1
        del document["cache"]
        restored = result_from_dict(json.loads(json.dumps(document)), problem)
        assert restored.cache is None
        assert solution_digest(restored.solution) == solution_digest(
            result.solution
        )


# ---------------------------------------------------------------------------
# Malformed request documents: a named error at every front
# ---------------------------------------------------------------------------

#: (field named in the error, path to the field, a value of the wrong type)
MALFORMED_FIELDS = [
    ("parameters", ("parameters",), [1, 2]),
    ("parameters.rounding", ("parameters", "rounding"), [1]),
    ("parameters.extensions", ("parameters", "extensions"), "on"),
    ("options", ("options",), [1, 2]),
    ("evaluation", ("evaluation",), [1]),
    *(
        (f"problem.{key}", ("problem", key), 7)
        for key in ("streams", "reflectors", "sinks", "stream_edges", "delivery_edges", "demands")
    ),
]


def _malformed_request(problem, path, value) -> dict:
    document = json.loads(
        json.dumps(request_to_dict(DesignRequest(problem=problem, parameters=DesignParameters())))
    )
    *parents, key = path
    target = document
    for parent in parents:
        target = target[parent]
    target[key] = value
    return document


@pytest.fixture(scope="module")
def design_server():
    from repro.serve import DesignServer

    with DesignServer(DesignService(workers=1)) as server:
        yield server


@pytest.mark.parametrize("front", ["submit", "http", "batch"])
@pytest.mark.parametrize(
    "field,path,value", MALFORMED_FIELDS, ids=[case[0] for case in MALFORMED_FIELDS]
)
def test_malformed_request_field_is_named(
    request, problem, tmp_path, capsys, front, field, path, value
):
    import urllib.error
    import urllib.request

    from repro.cli import main
    from repro.core.serialization import DocumentError

    document = _malformed_request(problem, path, value)
    message = f"{field} must be"
    if front == "submit":
        with DesignService(workers=1) as service:
            with pytest.raises(DocumentError, match=message):
                service.submit(document)
    elif front == "http":
        post = urllib.request.Request(
            request.getfixturevalue("design_server").url + "/design",
            data=json.dumps(document).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(post, timeout=30)
        assert excinfo.value.code == 400
        assert message in json.loads(excinfo.value.read())["error"]
    else:
        path = tmp_path / "requests.jsonl"
        path.write_text(json.dumps(document) + "\n")
        assert main(["batch", "--requests", str(path)]) == 2
        assert message in capsys.readouterr().err


#: (case id, path to the field, a value of the wrong type, the error message)
WRONG_TYPED_FIELDS = [
    ("trials-string", ("evaluation", "trials"), "10", "evaluation.trials must be an integer"),
    ("trials-bool", ("evaluation", "trials"), True, "evaluation.trials must be an integer"),
    ("seed-string", ("evaluation", "seed"), "x", "evaluation.seed must be an integer"),
    ("traces-string", ("evaluation", "traces"), "diurnal", "evaluation.traces must be a list"),
    ("scenarios-int", ("evaluation", "scenarios"), 5, "evaluation.scenarios must be a list"),
    (
        "max-memory-string",
        ("evaluation", "max_memory"),
        "64M",
        "evaluation.max_memory must be an integer",
    ),
    ("mode-unknown", ("evaluation", "mode"), "tiled", "evaluation.mode must be"),
    (
        "solver-backend-gurobi",
        ("parameters", "solver_backend"),
        "gurobi",
        "parameters.solver_backend must be",
    ),
    (
        "solver-backend-int",
        ("parameters", "solver_backend"),
        5,
        "parameters.solver_backend must be",
    ),
    ("streams-int", ("problem", "streams"), [1], "problem.streams: entries must be objects"),
    ("demands-str", ("problem", "demands"), ["x"], "problem.demands: entries must be objects"),
]


@pytest.mark.parametrize("front", ["request_from_dict", "http", "batch"])
@pytest.mark.parametrize(
    "path,value,message",
    [case[1:] for case in WRONG_TYPED_FIELDS],
    ids=[case[0] for case in WRONG_TYPED_FIELDS],
)
def test_wrong_typed_field_is_named(
    request, problem, tmp_path, capsys, front, path, value, message
):
    import urllib.error
    import urllib.request

    from repro.cli import main
    from repro.core.serialization import DocumentError

    document = json.loads(
        json.dumps(
            request_to_dict(
                DesignRequest(
                    problem=problem,
                    parameters=DesignParameters(),
                    evaluation=EvaluationSpec(scenarios=("baseline",), trials=2),
                )
            )
        )
    )
    document[path[0]][path[1]] = value
    if front == "request_from_dict":
        with pytest.raises(DocumentError, match=message):
            request_from_dict(document)
    elif front == "http":
        post = urllib.request.Request(
            request.getfixturevalue("design_server").url + "/design",
            data=json.dumps(document).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(post, timeout=30)
        assert excinfo.value.code == 400
        assert message in json.loads(excinfo.value.read())["error"]
    else:
        path = tmp_path / "requests.jsonl"
        path.write_text(json.dumps(document) + "\n")
        assert main(["batch", "--requests", str(path)]) == 2
        assert message in capsys.readouterr().err


def _post_design(server, document: dict):
    """POST ``document`` to ``/design``: ``(status, JSON body)``."""
    import urllib.error
    import urllib.request

    post = urllib.request.Request(
        server.url + "/design",
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(post, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.mark.parametrize("front", ["request_from_dict", "http"])
@pytest.mark.parametrize("backend", ["highs", "highs-mip"])
def test_legacy_solver_backend_is_read_and_ignored(request, problem, parameters, front, backend):
    document = json.loads(
        json.dumps(request_to_dict(DesignRequest(problem=problem, parameters=parameters)))
    )
    legacy = json.loads(json.dumps(document))
    legacy["parameters"]["solver_backend"] = backend
    if front == "request_from_dict":
        assert request_from_dict(legacy).parameters == request_from_dict(document).parameters
        return
    server = request.getfixturevalue("design_server")
    status, plain = _post_design(server, document)
    legacy_status, ignored = _post_design(server, legacy)
    assert status == legacy_status == 200
    for payload in (plain, ignored):
        for key in ("stage_seconds", "cache", "request_id"):
            payload.pop(key)
    assert ignored == plain


# ---------------------------------------------------------------------------
# Problem values the LP cannot take: a named error at the CLI and over HTTP
# ---------------------------------------------------------------------------


def _design_fails_naming(request, tmp_path, capsys, front, document, message):
    """``repro design`` exits 2, or ``POST /design`` answers 400, naming ``message``."""
    from repro.cli import main

    if front == "cli":
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(document["problem"]))
        assert main(["design", "--problem", str(path), "--strategy", document["strategy"]]) == 2
        error = capsys.readouterr().err
    else:
        status, body = _post_design(request.getfixturevalue("design_server"), document)
        assert status == 400
        error = body["error"]
    assert message in error


@pytest.mark.parametrize("front", ["cli", "http"])
@pytest.mark.parametrize("fanout", [2.5, True], ids=["fractional", "bool"])
def test_non_integral_fanout_is_named(request, problem, tmp_path, capsys, front, fanout):
    document = json.loads(json.dumps(request_to_dict(DesignRequest(problem=problem))))
    reflector = document["problem"]["reflectors"][0]
    reflector["fanout"] = fanout
    message = f"reflector {reflector['name']!r}: fanout must be an integer, got {fanout!r}"
    _design_fails_naming(request, tmp_path, capsys, front, document, message)


@pytest.mark.parametrize("front", ["cli", "http"])
@pytest.mark.parametrize("strategy", ["spaa03", "greedy"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("table", ["reflectors", "stream_edges", "delivery_edges"])
def test_non_finite_cost_is_named(
    request, problem, tmp_path, capsys, front, strategy, value, table
):
    document = json.loads(
        json.dumps(request_to_dict(DesignRequest(problem=problem, strategy=strategy)))
    )
    document["problem"][table][0]["cost"] = value
    what = "reflector cost" if table == "reflectors" else "edge cost"
    message = f"problem.{table}[0]: {what} must be non-negative and finite, got {value}"
    _design_fails_naming(request, tmp_path, capsys, front, document, message)


@pytest.mark.parametrize("front", ["cli", "http"])
def test_fanout_highs_would_refuse_is_named(request, problem, tmp_path, capsys, front):
    document = json.loads(json.dumps(request_to_dict(DesignRequest(problem=problem))))
    reflector = document["problem"]["reflectors"][0]
    reflector["fanout"] = 10**30
    message = f"reflector {reflector['name']!r}: fanout must be below 1e+15, got {10**30}"
    _design_fails_naming(request, tmp_path, capsys, front, document, message)


#: (id, table, field, value, message) of problem entries the reader names.
MISNAMED_ENTRIES = [
    (
        "string-cost",
        "reflectors",
        "cost",
        "5",
        "problem.reflectors[0].cost must be a number, got str",
    ),
    (
        "string-loss",
        "stream_edges",
        "loss_probability",
        "low",
        "problem.stream_edges[0].loss_probability must be a number, got str",
    ),
    (
        "unknown-reflector",
        "stream_edges",
        "reflector",
        "zz",
        "problem.stream_edges[0].reflector: unknown reflector 'zz'",
    ),
    (
        "unknown-sink",
        "delivery_edges",
        "sink",
        "zz",
        "problem.delivery_edges[0].sink: unknown sink 'zz'",
    ),
    ("unknown-stream", "demands", "stream", "zz", "problem.demands[0].stream: unknown stream 'zz'"),
    *(
        (
            f"stream-costs-{kind}",
            "delivery_edges",
            "stream_costs",
            value,
            f"problem.delivery_edges[0].stream_costs must be an object, got {kind}",
        )
        for kind, value in (("float", 1.5), ("str", "x"), ("list", [1]), ("bool", True))
    ),
    (
        "stream-cost-string",
        "delivery_edges",
        "stream_costs",
        {"s0": "x"},
        "problem.delivery_edges[0].stream_costs.s0 must be a number, got str",
    ),
]


@pytest.mark.parametrize("front", ["cli", "http"])
@pytest.mark.parametrize(
    "table,field,value,message",
    [case[1:] for case in MISNAMED_ENTRIES],
    ids=[case[0] for case in MISNAMED_ENTRIES],
)
def test_problem_reader_names_entry_and_field(
    request, problem, tmp_path, capsys, front, table, field, value, message
):
    document = json.loads(json.dumps(request_to_dict(DesignRequest(problem=problem))))
    document["problem"][table][0][field] = value
    _design_fails_naming(request, tmp_path, capsys, front, document, message)


@pytest.mark.parametrize("front", ["cli", "http"])
def test_missing_problem_field_is_still_named(request, problem, tmp_path, capsys, front):
    document = json.loads(json.dumps(request_to_dict(DesignRequest(problem=problem))))
    del document["problem"]["stream_edges"][0]["reflector"]
    _design_fails_naming(request, tmp_path, capsys, front, document, "'reflector'")
