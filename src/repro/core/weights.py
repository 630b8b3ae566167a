"""Probability <-> weight transforms (Section 1.3 and Section 2 of the paper).

The paper's reliability model:

* A packet sent over two consecutive links with loss probabilities ``p1`` and
  ``p2`` is lost with probability ``p1 + p2 - p1*p2`` (it survives only if it
  survives both hops).
* A packet delivered to a sink along several *independent* two-hop paths is
  lost only if it is lost on every path, i.e. with probability ``prod(q_i)``.

To turn the multiplicative reliability requirement into a linear covering
constraint, the paper takes negative logarithms:

* ``w_kij = -log(p_ki + p_ij - p_ki * p_ij)`` is the *weight* of serving sink
  ``j`` with commodity ``k`` through reflector ``i``.
* ``W_kj = -log(1 - Phi_kj)`` is the weight demanded by sink ``j``, where
  ``Phi_kj`` is the required success probability.

Then "success probability at least Phi" is exactly "sum of path weights at
least W" (for independent paths), which is constraint (5) of the IP.

Numerical care: zero failure probabilities map to infinite weight, so all
transforms accept a ``cap`` and the formulation caps ``w`` at ``W`` (the paper
notes this is WLOG since extra weight at a single edge never helps).
"""

from __future__ import annotations

import math
from typing import Iterable

#: Smallest failure probability we distinguish from "never fails".  Weights are
#: capped as if probabilities below this were equal to it (-log gives ~46 nats).
MIN_FAILURE_PROBABILITY = 1e-20

#: Largest finite weight produced by the transforms.
MAX_WEIGHT = -math.log(MIN_FAILURE_PROBABILITY)


def path_failure_probability(p_source_reflector: float, p_reflector_sink: float) -> float:
    """Loss probability of the two-hop path source -> reflector -> sink.

    This is the serial composition rule of Section 1.3:
    ``p1 + p2 - p1 * p2``.
    """
    _check_probability(p_source_reflector, "p_source_reflector")
    _check_probability(p_reflector_sink, "p_reflector_sink")
    return p_source_reflector + p_reflector_sink - p_source_reflector * p_reflector_sink


def combined_failure_probability(path_failures: Iterable[float]) -> float:
    """Loss probability at a sink receiving copies along independent paths.

    Parallel composition: the packet is lost only if every copy is lost, so the
    probability is the product of per-path failure probabilities.  An empty
    iterable means the sink receives nothing, i.e. failure probability 1.
    """
    product = 1.0
    for q in path_failures:
        _check_probability(q, "path failure probability")
        product *= q
    return product


def failure_to_weight(failure_probability: float, cap: float = MAX_WEIGHT) -> float:
    """``w = -log(q)`` with clamping for ``q`` at or near zero.

    Parameters
    ----------
    failure_probability:
        The probability ``q`` that a packet fails to arrive along this path.
    cap:
        Upper bound on the returned weight (defaults to the global
        :data:`MAX_WEIGHT`).  The Section-2 formulation additionally caps each
        edge weight at the sink's demanded weight ``W``.
    """
    _check_probability(failure_probability, "failure_probability")
    if failure_probability <= MIN_FAILURE_PROBABILITY:
        return cap
    return min(cap, -math.log(failure_probability))


def threshold_to_weight(success_threshold: float, cap: float = MAX_WEIGHT) -> float:
    """Demand weight ``W = -log(1 - Phi)`` for a success-probability threshold.

    ``Phi = 0`` (no requirement) maps to weight 0; ``Phi = 1`` is clamped to the
    cap (a sink can never be guaranteed lossless delivery over lossy links).
    """
    if not 0.0 <= success_threshold <= 1.0:
        raise ValueError(f"success threshold must lie in [0, 1], got {success_threshold}")
    return failure_to_weight(1.0 - success_threshold, cap=cap)


def success_from_weight(total_weight: float) -> float:
    """Success probability implied by a total delivered weight: ``1 - exp(-w)``."""
    if total_weight < 0:
        raise ValueError(f"total weight must be non-negative, got {total_weight}")
    return 1.0 - math.exp(-total_weight)


def edge_weight(
    p_source_reflector: float,
    p_reflector_sink: float,
    demand_weight: float | None = None,
) -> float:
    """Weight ``w_kij`` of a (commodity, reflector, sink) delivery edge.

    Combines the serial loss rule with the log transform and, if
    ``demand_weight`` is given, caps the result at it (the paper's WLOG
    ``w_kij <= W_kj`` assumption, needed for the Chernoff analysis).
    """
    q = path_failure_probability(p_source_reflector, p_reflector_sink)
    cap = MAX_WEIGHT if demand_weight is None else min(MAX_WEIGHT, demand_weight)
    return failure_to_weight(q, cap=cap)


def _check_probability(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
