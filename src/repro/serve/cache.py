"""Content-addressed artifact cache for the serving layer.

Every expensive artifact the design pipeline produces is a pure function of
JSON-expressible content: a partition plan of the problem document plus the
partitioner knobs, a compiled sparse LP of the problem plus the formulation
knobs, a Monte-Carlo :class:`~repro.simulation.montecarlo.PathTable` of the
``(problem, solution, failure schedule)`` triple, a whole
:class:`~repro.api.DesignResult` of the full request document.  That purity
is the serving layer's license to cache: keys are content digests computed by
:func:`repro.core.serialization.canonical_digest` (floats rounded, keys
sorted), so two requests describing the same computation -- whatever object
identities or field orders they arrived with -- address the same cache line,
and a hit is *bit-identical* to a recompute by construction.

:class:`ArtifactCache` is a thread-safe LRU over ``(namespace, key)`` lines
with a byte budget, hit/miss/eviction counters per namespace, and optional
on-disk spill: evicted picklable artifacts drop to ``spill_dir`` and are
transparently re-admitted on the next get.  One cache instance backs a whole
:class:`~repro.serve.DesignService` (shared across worker threads) or a
single :class:`~repro.serve.DesignSession`.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.api.types import DesignRequest, parameters_to_dict
from repro.core.serialization import canonical_digest, problem_digest

#: Default byte budget: enough for hundreds of mid-size artifacts while
#: staying far below the Monte-Carlo engine's working set.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Nominal size charged to artifacts that cannot be pickled for measurement
#: (e.g. lazy partition plans holding closures).
UNSIZED_NOMINAL_BYTES = 64 * 1024


@dataclass
class CacheStats:
    """Counters snapshot returned by :meth:`ArtifactCache.stats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    spills: int = 0
    spill_hits: int = 0
    puts: int = 0
    entries: int = 0
    current_bytes: int = 0
    max_bytes: int = 0
    by_namespace: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "spills": self.spills,
            "spill_hits": self.spill_hits,
            "puts": self.puts,
            "entries": self.entries,
            "current_bytes": self.current_bytes,
            "max_bytes": self.max_bytes,
            "hit_rate": self.hit_rate,
            "by_namespace": {
                name: dict(counts) for name, counts in self.by_namespace.items()
            },
        }


@dataclass
class _Entry:
    value: Any
    size: int
    spillable: bool


class ArtifactCache:
    """Thread-safe content-addressed LRU cache with a byte budget.

    Lines are addressed ``(namespace, key)`` -- the namespace names the
    artifact kind (``"result"``, ``"plan"``, ``"formulation"``, ``"lp"``,
    ``"path_table"``, ``"evaluation"``) and the key is a content digest from
    the helpers below.  Values are charged their pickled size against
    ``max_bytes``; inserting past the budget evicts least-recently-used
    lines.  With ``spill_dir`` set, evicted picklable values are written to
    disk and silently re-admitted (counted as ``spill_hits``) when next
    requested; unpicklable values (lazy plans holding closures) stay
    memory-only and are charged a nominal size.

    A single oversized artifact (larger than the whole budget) is stored
    anyway -- refusing it would make the serving layer slower than no cache
    at all -- and evicted as soon as anything else needs room.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        spill_dir: str | None = None,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self.spill_dir = spill_dir
        self._lock = threading.RLock()
        self._entries: OrderedDict[tuple[str, str], _Entry] = OrderedDict()
        self._current_bytes = 0
        self._counts: dict[str, dict[str, int]] = {}
        self._totals = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "spills": 0,
            "spill_hits": 0,
            "puts": 0,
        }

    # -- core operations ---------------------------------------------------

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        """Fetch a line, falling back to the spill directory; LRU-refreshes."""
        line = (namespace, key)
        with self._lock:
            entry = self._entries.get(line)
            if entry is not None:
                self._entries.move_to_end(line)
                self._count(namespace, "hits")
                return entry.value
            value = self._load_spilled(namespace, key)
            if value is not None:
                self._count(namespace, "hits")
                self._count(namespace, "spill_hits")
                self._admit(namespace, key, value)
                return value
            self._count(namespace, "misses")
            return default

    def put(self, namespace: str, key: str, value: Any) -> None:
        """Insert (or refresh) a line, evicting LRU lines past the budget."""
        if value is None:
            raise ValueError("cannot cache None (reserved for misses)")
        with self._lock:
            self._count(namespace, "puts")
            self._admit(namespace, key, value)

    def contains(self, namespace: str, key: str) -> bool:
        """Membership test that touches neither the LRU order nor counters."""
        with self._lock:
            if (namespace, key) in self._entries:
                return True
        path = self._spill_path(namespace, key)
        return path is not None and os.path.exists(path)

    def clear(self) -> None:
        """Drop every line (spilled files included); counters survive."""
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0
        if self.spill_dir and os.path.isdir(self.spill_dir):
            for name in os.listdir(self.spill_dir):
                if name.endswith(".pkl"):
                    try:
                        os.unlink(os.path.join(self.spill_dir, name))
                    except OSError:
                        pass

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                **self._totals,
                entries=len(self._entries),
                current_bytes=self._current_bytes,
                max_bytes=self.max_bytes,
                by_namespace={
                    name: dict(counts) for name, counts in self._counts.items()
                },
            )

    @property
    def hit_rate(self) -> float:
        return self.stats().hit_rate

    # -- internals ---------------------------------------------------------

    def _count(self, namespace: str, what: str) -> None:
        self._totals[what] += 1
        per = self._counts.setdefault(
            namespace,
            {
                "hits": 0,
                "misses": 0,
                "evictions": 0,
                "spills": 0,
                "spill_hits": 0,
                "puts": 0,
            },
        )
        per[what] += 1

    def _admit(self, namespace: str, key: str, value: Any) -> None:
        line = (namespace, key)
        old = self._entries.pop(line, None)
        if old is not None:
            self._current_bytes -= old.size
        size, spillable = _measure(value)
        self._entries[line] = _Entry(value=value, size=size, spillable=spillable)
        self._current_bytes += size
        while self._current_bytes > self.max_bytes and len(self._entries) > 1:
            self._evict_lru(keep=line)

    def _evict_lru(self, keep: tuple[str, str]) -> None:
        for line in self._entries:
            if line != keep:
                break
        else:  # pragma: no cover - guarded by len(...) > 1
            return
        entry = self._entries.pop(line)
        self._current_bytes -= entry.size
        self._count(line[0], "evictions")
        if entry.spillable:
            path = self._spill_path(*line)
            if path is not None:
                try:
                    with open(path, "wb") as handle:
                        pickle.dump(entry.value, handle)
                    self._count(line[0], "spills")
                except (OSError, pickle.PicklingError):
                    pass

    def _spill_path(self, namespace: str, key: str) -> str | None:
        if not self.spill_dir:
            return None
        os.makedirs(self.spill_dir, exist_ok=True)
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in key)
        return os.path.join(self.spill_dir, f"{namespace}__{safe}.pkl")

    def _load_spilled(self, namespace: str, key: str) -> Any:
        path = self._spill_path(namespace, key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None


def _measure(value: Any) -> tuple[int, bool]:
    """Pickled byte size of a value, or a nominal charge when unpicklable."""
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)), True
    except Exception:
        return UNSIZED_NOMINAL_BYTES, False


# -- content-addressed keys -----------------------------------------------
#
# Key builders live next to the cache so the whole cache-key contract is in
# one file (docs/serving.md restates it).  All of them bottom out in
# canonical_digest over explicit JSON documents: nothing about object
# identity, field order, or schema_version churn leaks into a key.


def parameters_digest(parameters: Any) -> str:
    """Digest of the full :class:`~repro.core.algorithm.DesignParameters`."""
    return canonical_digest(parameters_to_dict(parameters))


def formulation_key(p_digest: str, parameters: Any) -> str:
    """Key for compiled LP formulations (and their solved fractionals).

    Covers exactly the knobs :class:`~repro.api.pipeline.FormulateStage`
    and :class:`~repro.api.pipeline.SolveStage` read -- the solver backend
    and the Section-6 extension toggles -- so requests
    differing only in rounding seed or repair knobs share a line, while
    solves on different solver backends never alias.
    """
    document = parameters_to_dict(parameters)
    return canonical_digest(
        {
            "problem": p_digest,
            "solver_backend": document["solver_backend"],
            "extensions": document["extensions"],
        }
    )


def plan_key(p_digest: str, partitioner: Any, shards: Any) -> str:
    """Key for partition plans: problem content plus the two layout knobs."""
    return canonical_digest(
        {"problem": p_digest, "partitioner": str(partitioner), "shards": str(shards)}
    )


def path_table_key(
    p_digest: str,
    s_digest: str,
    scenario: str,
    seed: int,
    num_packets: int,
) -> str:
    """Key for compiled Monte-Carlo path tables.

    The failure schedule is drawn from ``(seed, scenario index)`` inside
    :func:`~repro.simulation.evaluate_design`, so ``(scenario, seed,
    num_packets)`` pins it exactly without hashing the schedule itself.
    """
    return canonical_digest(
        {
            "problem": p_digest,
            "solution": s_digest,
            "scenario": scenario,
            "seed": int(seed),
            "num_packets": int(num_packets),
        }
    )


def request_digest(request: DesignRequest) -> str | None:
    """Content digest of a design request, or ``None`` when not digestable.

    Built from an explicit document -- strategy, parameters, options,
    evaluation spec, and the *problem content digest* -- rather than the
    serialized request, so it is independent of ``schema_version`` churn and
    of the correlation ``request_id`` (which identifies a submission, not a
    computation).  Two kinds of request return ``None`` and run uncached:
    requests whose options are not JSON-expressible (callables and the
    like), and *seedless* requests (``parameters.rounding.seed is None``) --
    those draw fresh entropy per run, so serving a cached payload or joining
    an in-flight computation would silently pin one draw and change
    observable semantics.  Stage-level caches (formulation, LP) still apply
    to seedless requests; they sit below the randomness.
    """
    if request.seed is None:
        return None
    from repro.api.types import evaluation_spec_to_dict

    document = {
        "strategy": request.strategy,
        "parameters": parameters_to_dict(request.parameters),
        "options": dict(request.options),
        "evaluation": (
            evaluation_spec_to_dict(request.evaluation)
            if request.evaluation is not None
            else None
        ),
        "problem": problem_digest(request.problem),
    }
    try:
        return canonical_digest(document)
    except (TypeError, ValueError):
        return None


__all__ = [
    "ArtifactCache",
    "CacheStats",
    "DEFAULT_MAX_BYTES",
    "formulation_key",
    "parameters_digest",
    "path_table_key",
    "plan_key",
    "problem_digest",
    "request_digest",
]
