"""Randomized rounding of the LP relaxation (Section 3 of the paper).

Given an optimal fractional solution ``(z_hat, y_hat, x_hat)`` the procedure,
with a preset multiplier ``c > 1`` and ``n`` the number of (stream, sink)
demand pairs, is:

1. ``z_dot_i  = min(z_hat_i * c * log n, 1)``
2. ``y_dot_ki = min(y_hat_ki * c * log n / z_dot_i, 1)``
3. round ``z_bar_i = 1`` with probability ``z_dot_i`` (else 0);
4. if ``z_bar_i = 1``, round ``y_bar_ki = 1`` with probability ``y_dot_ki``;
5. if ``z_dot_i = y_dot_ki = 1`` set ``x_bar_kij = x_hat_kij`` (kept
   fractional); otherwise, if ``y_bar_ki = 1``, set ``x_bar_kij = 1/(c log n)``
   with probability ``x_hat_kij / y_hat_ki``;
6. everything else is 0.

The expected cost is at most ``c log n`` times the LP optimum (Lemma 4.1);
with high probability every weight constraint retains at least a ``(1-delta)``
fraction of its requirement (Lemma 4.3, with ``delta^2 c = 4``) and every
fanout constraint is violated by at most a factor 2 (Lemma 4.6, ``c >= 24``).

Implementation notes
---------------------
* ``log`` is the natural logarithm (the Chernoff analysis needs
  ``exp(-delta^2 c log n / 2) = n^{-delta^2 c / 2}``).
* For tiny instances ``log n`` can be 0 (n = 1) or below 1; we clamp the
  multiplier at ``max(c * log n, 1)`` so the procedure remains well defined.
  The clamp only *increases* inflation, so Lemmas 4.3/4.6 still apply; only
  the cost bound becomes ``max(c log n, 1) * OPT``.
* The rounding is Monte Carlo; :func:`round_solution` draws once, and
  :func:`round_solution_with_retries` re-draws until the audit accepts the
  weight/fanout violations (the standard fix for Monte Carlo algorithms with
  constant success probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.concentration import multiplier_for_failure_probability
from repro.core.lp_solution import AssignmentKey, FractionalSolution, RoundedSolution
from repro.core.problem import OverlayDesignProblem

#: Fractional LP values below this threshold are treated as zero.
_SUPPORT_TOL = 1e-9


@dataclass
class RoundingParameters:
    """Parameters of the Section-3 rounding.

    Attributes
    ----------
    c:
        The preset multiplier.  The paper's analysis wants ``c >= 24`` for the
        fanout lemma and ``delta^2 c = 4`` for the weight lemma (e.g. ``c = 64``
        with ``delta = 1/4``); in practice much smaller values already give
        feasible-ish solutions at far lower cost, which is why ``c`` is a knob
        (the C2 ablation benchmark sweeps it).
    delta:
        Target relative weight slack used when auditing a draw (weight
        constraints are accepted if they retain a ``1 - delta`` fraction).
    seed:
        Seed for the internal RNG (ignored when ``rng`` is passed explicitly
        to the rounding functions).
    """

    c: float = 8.0
    delta: float = 0.25
    seed: int | None = None

    @classmethod
    def paper_defaults(cls) -> "RoundingParameters":
        """The constants used in the paper's analysis: ``delta=1/4``, ``c=64``."""
        delta = 0.25
        return cls(c=multiplier_for_failure_probability(delta), delta=delta)

    def multiplier(self, num_demands: int) -> float:
        """The effective inflation factor ``max(c * ln(n), 1)``."""
        return effective_multiplier(self.c, num_demands)


def effective_multiplier(c: float, num_demands: int) -> float:
    """``max(c * ln(n), 1)`` with ``n`` clamped to at least 2 (see module notes)."""
    if num_demands < 1:
        raise ValueError("number of demands must be at least 1")
    return max(c * math.log(max(num_demands, 2)), 1.0)


def round_solution(
    problem: OverlayDesignProblem,
    fractional: FractionalSolution,
    parameters: RoundingParameters | None = None,
    rng: np.random.Generator | None = None,
) -> RoundedSolution:
    """Perform one draw of the Section-3 randomized rounding.

    Parameters
    ----------
    problem:
        The overlay design instance (supplies ``n`` and the edge weights used
        downstream).
    fractional:
        Optimal LP solution ``(z_hat, y_hat, x_hat)``.
    parameters:
        Rounding parameters; defaults to :class:`RoundingParameters()`.
    rng:
        Numpy random generator; a fresh one is created from
        ``parameters.seed`` when omitted.

    Returns
    -------
    RoundedSolution
        0/1 values for ``z`` and ``y`` and values in ``{0, 1/(c log n), x_hat}``
        for ``x``; also records the inflated ``z_dot``/``y_dot`` values and the
        multiplier used.
    """
    parameters = parameters or RoundingParameters()
    if rng is None:
        rng = np.random.default_rng(parameters.seed)

    multiplier = effective_multiplier(parameters.c, problem.num_demands)

    # Step [1]: z_dot = min(z_hat * c log n, 1)
    z_dot: dict[str, float] = {}
    for reflector, value in fractional.z.items():
        if value <= _SUPPORT_TOL:
            continue
        z_dot[reflector] = min(value * multiplier, 1.0)

    # Step [2]: y_dot = min(y_hat * c log n / z_dot, 1)
    y_dot: dict[tuple[str, str], float] = {}
    for (stream, reflector), value in fractional.y.items():
        if value <= _SUPPORT_TOL:
            continue
        scale = z_dot.get(reflector, 0.0)
        if scale <= 0.0:
            continue
        y_dot[(stream, reflector)] = min(value * multiplier / scale, 1.0)

    # Step [3]: round z
    z_bar: dict[str, int] = {}
    for reflector, probability in z_dot.items():
        z_bar[reflector] = int(rng.random() < probability)

    # Step [4]: round y conditioned on z
    y_bar: dict[tuple[str, str], int] = {}
    for (stream, reflector), probability in y_dot.items():
        if z_bar.get(reflector, 0) == 1:
            y_bar[(stream, reflector)] = int(rng.random() < probability)
        else:
            y_bar[(stream, reflector)] = 0

    # Steps [5]/[6]: x values
    x_bar: dict[AssignmentKey, float] = {}
    for (reflector, (sink, stream)), x_hat in fractional.x.items():
        if x_hat <= _SUPPORT_TOL:
            continue
        y_key = (stream, reflector)
        y_hat = fractional.y.get(y_key, 0.0)
        if y_hat <= _SUPPORT_TOL:
            continue
        if z_dot.get(reflector, 0.0) >= 1.0 and y_dot.get(y_key, 0.0) >= 1.0:
            # Both inflated variables saturated: keep the fractional value.
            x_bar[(reflector, (sink, stream))] = x_hat
        elif y_bar.get(y_key, 0) == 1:
            keep_probability = min(x_hat / y_hat, 1.0)
            if rng.random() < keep_probability:
                x_bar[(reflector, (sink, stream))] = 1.0 / multiplier

    # Ensure y/z are set wherever x survived (they are by construction, but the
    # deterministic x branch relies on z_dot = y_dot = 1 implying z_bar = y_bar = 1).
    for reflector, (sink, stream) in x_bar:
        z_bar[reflector] = 1
        y_bar[(stream, reflector)] = 1

    return RoundedSolution(
        z=z_bar,
        y=y_bar,
        x=x_bar,
        scaled_z=z_dot,
        scaled_y=y_dot,
        multiplier=multiplier,
    )


@dataclass
class RoundingAudit:
    """Violation summary of one rounding draw (used by retries and benchmarks).

    ``weight_fraction`` maps each demand key to the fraction of its required
    weight retained (``>= 1`` means fully satisfied); ``fanout_factor`` maps
    each reflector to load / fanout.
    """

    weight_fraction: dict[tuple[str, str], float]
    fanout_factor: dict[str, float]

    @property
    def min_weight_fraction(self) -> float:
        return min(self.weight_fraction.values()) if self.weight_fraction else 1.0

    @property
    def max_fanout_factor(self) -> float:
        return max(self.fanout_factor.values()) if self.fanout_factor else 0.0

    def acceptable(self, delta: float, fanout_slack: float = 2.0) -> bool:
        """Paper-style acceptance: weights >= 1 - delta, fanout <= fanout_slack."""
        return (
            self.min_weight_fraction >= (1.0 - delta) - 1e-9
            and self.max_fanout_factor <= fanout_slack + 1e-9
        )


def audit_rounding(
    problem: OverlayDesignProblem, rounded: RoundedSolution
) -> RoundingAudit:
    """Measure the weight and fanout constraint violations of a rounding draw.

    One pass over ``rounded.x`` accumulates both sides; each demand's weight
    is summed in ``x`` order, as :meth:`RoundedSolution.delivered_weight`
    sums it.
    """
    demands = {demand.key: demand for demand in problem.demands}
    delivered: dict[tuple[str, str], float] = {}
    load: dict[str, float] = {}
    for (reflector, key), value in rounded.x.items():
        load[reflector] = load.get(reflector, 0.0) + value
        if value > 0:
            weight = problem.edge_weight(demands[key], reflector)
            delivered[key] = delivered.get(key, 0.0) + value * weight

    weight_fraction: dict[tuple[str, str], float] = {}
    for demand in problem.demands:
        required = problem.demand_weight(demand)
        weight_fraction[demand.key] = (
            delivered.get(demand.key, 0.0) / required if required > 0 else 1.0
        )

    fanout_factor: dict[str, float] = {}
    for reflector, used in load.items():
        fanout_factor[reflector] = used / problem.fanout(reflector)
    return RoundingAudit(weight_fraction=weight_fraction, fanout_factor=fanout_factor)


def round_solution_with_retries(
    problem: OverlayDesignProblem,
    fractional: FractionalSolution,
    parameters: RoundingParameters | None = None,
    rng: np.random.Generator | None = None,
    max_attempts: int = 20,
    fanout_slack: float = 2.0,
) -> tuple[RoundedSolution, RoundingAudit, int]:
    """Redraw the rounding until the audit accepts it (or attempts run out).

    The paper's guarantees hold *with high probability*; repeating the draw
    until the constraints are met (a standard Monte-Carlo-to-Las-Vegas
    conversion) does not change the expected cost bound by more than a
    constant factor.  Returns the accepted (or best-seen) draw, its audit and
    the number of attempts used.
    """
    parameters = parameters or RoundingParameters()
    if rng is None:
        rng = np.random.default_rng(parameters.seed)
    best: tuple[RoundedSolution, RoundingAudit] | None = None
    best_score = -math.inf
    for attempt in range(1, max_attempts + 1):
        rounded = round_solution(problem, fractional, parameters, rng)
        audit = audit_rounding(problem, rounded)
        if audit.acceptable(parameters.delta, fanout_slack):
            return rounded, audit, attempt
        # Track the draw with the best worst-case weight fraction as fallback.
        score = audit.min_weight_fraction - 0.01 * max(
            0.0, audit.max_fanout_factor - fanout_slack
        )
        if score > best_score:
            best_score = score
            best = (rounded, audit)
    assert best is not None
    return best[0], best[1], max_attempts
