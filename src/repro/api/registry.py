"""The design-strategy registry: one typed entry point for every algorithm.

Every way of producing an overlay design -- the paper's LP-rounding pipeline,
its Section-6 extended variant, and each comparison baseline -- is registered
here as a :class:`Designer` under a short stable name.  Callers resolve
strategies with :func:`get_designer` and run them through the uniform
``design(request) -> result`` boundary, so CLIs, benchmarks and the batch
executor never hand-dispatch on ad-hoc function signatures::

    from repro.api import DesignRequest, get_designer

    result = get_designer("greedy").design(DesignRequest(problem=problem))

Registering a new strategy is one decorator; setting ``in_comparisons=True``
(the default) makes it automatically appear in ``repro compare`` and the C1
comparison benchmark::

    from repro.api import register_designer

    @register_designer("my-heuristic", description="example")
    def _run(request):
        return DesignResult(strategy="my-heuristic", solution=...)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.types import DesignRequest, DesignResult


@runtime_checkable
class Designer(Protocol):
    """The strategy interface: a named ``design(request) -> result`` callable."""

    name: str
    description: str

    def design(self, request: "DesignRequest") -> "DesignResult":
        """Produce a design (or bound) for ``request``."""
        ...  # pragma: no cover - protocol body


@dataclass(frozen=True)
class RegisteredDesigner:
    """A registry entry wrapping a strategy function.

    Attributes
    ----------
    name:
        Stable registry name (``"spaa03"``, ``"greedy"``, ...).
    run:
        The strategy function ``(DesignRequest) -> DesignResult``.
    description:
        One-line human description (``repro design --list-strategies``).
    baseline:
        True for the comparison strategies the paper positions itself against.
    in_comparisons:
        Include this designer's solution in registry-driven comparison tables
        (``repro compare``, the C1 benchmark).  Off for the reference
        algorithm itself, for bound-only strategies, and for strategies too
        expensive to run on arbitrary instances (``"milp-exact"``).
    produces_solution:
        False for bound-only strategies (``"lp-bound"``) whose ``solution``
        is an empty placeholder.
    """

    name: str
    run: Callable[["DesignRequest"], "DesignResult"]
    description: str = ""
    baseline: bool = False
    in_comparisons: bool = True
    produces_solution: bool = True

    def design(self, request: "DesignRequest") -> "DesignResult":
        # Normalize the strategy name so error messages and results name this
        # designer even when the caller left request.strategy at its default.
        if request.strategy != self.name:
            request = replace(request, strategy=self.name)
        result = self.run(request)
        result.strategy = self.name
        result.request_id = request.request_id
        if request.evaluation is not None and self.produces_solution:
            result.evaluation = request.evaluation.evaluate(
                request.problem, result.solution
            )
        return result


#: Registration-ordered registry (insertion order is the presentation order).
_REGISTRY: dict[str, RegisteredDesigner] = {}

#: Dynamically materialised ``"sharded:<inner>"`` designers, cached per name.
#: Kept out of ``_REGISTRY`` so the stable strategy catalogue (names, order,
#: comparison membership) is unaffected by which sharded variants were used.
_SHARDED_CACHE: dict[str, RegisteredDesigner] = {}


def register_designer(
    name: str,
    *,
    description: str = "",
    baseline: bool = False,
    in_comparisons: bool = True,
    produces_solution: bool = True,
) -> Callable:
    """Decorator registering a strategy function under ``name``.

    Last registration wins (so reloads and test doubles work); the decorated
    function is returned unchanged.
    """

    def decorate(run: Callable) -> Callable:
        _REGISTRY[name] = RegisteredDesigner(
            name=name,
            run=run,
            description=description,
            baseline=baseline,
            in_comparisons=in_comparisons,
            produces_solution=produces_solution,
        )
        # A cached sharded wrapper closes over the inner designer; drop it so
        # re-registration (reloads, test doubles) wins there too.
        _SHARDED_CACHE.pop(f"sharded:{name}", None)
        return run

    return decorate


def get_designer(name: str) -> RegisteredDesigner:
    """Resolve a strategy by name (raises ``KeyError`` when unknown).

    Besides the registered catalogue, ``"sharded:<strategy>"`` names resolve
    to the hierarchical sharded pipeline of :mod:`repro.scale` wrapped around
    the named inner strategy (``ValueError`` for bound-only inner strategies,
    which have no design to shard).
    """
    _ensure_designers_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    if name.startswith("sharded:"):
        if name not in _SHARDED_CACHE:
            # Lazy import: repro.scale depends on this module.
            from repro.scale.pipeline import make_sharded_designer

            _SHARDED_CACHE[name] = make_sharded_designer(name)
        return _SHARDED_CACHE[name]
    known = ", ".join(_REGISTRY)
    raise KeyError(
        f"unknown designer {name!r} (known: {known}; any solution-producing "
        "strategy X is also available as 'sharded:X')"
    )


def designer_names() -> list[str]:
    """Registered strategy names, in registration order."""
    _ensure_designers_loaded()
    return list(_REGISTRY)


def registered_designers() -> list[RegisteredDesigner]:
    """All registered designers, in registration order."""
    _ensure_designers_loaded()
    return list(_REGISTRY.values())


def comparison_designers() -> list[RegisteredDesigner]:
    """Designers that participate in registry-driven comparison tables."""
    return [d for d in registered_designers() if d.in_comparisons]


def run_request(request: "DesignRequest") -> "DesignResult":
    """Resolve ``request.strategy`` and run it (the one-call entry point)."""
    return get_designer(request.strategy).design(request)


def _ensure_designers_loaded() -> None:
    # The standard designers register themselves on import; loading lazily
    # avoids a circular import (designers -> pipeline -> core -> api).
    import repro.api.designers  # noqa: F401


__all__ = [
    "Designer",
    "RegisteredDesigner",
    "comparison_designers",
    "designer_names",
    "get_designer",
    "register_designer",
    "registered_designers",
    "run_request",
]
