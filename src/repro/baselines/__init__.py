"""Baseline overlay-design algorithms.

The paper positions its LP-rounding algorithm against simpler strategies
(greedy set-cover-style heuristics, single multicast trees, naive per-sink
choices); none of those come with its cost/reliability guarantees.  To make
that comparison measurable, this subpackage implements each strategy against
the same :class:`~repro.core.problem.OverlayDesignProblem` interface and
produces the same :class:`~repro.core.solution.OverlaySolution` type:

* :mod:`repro.baselines.greedy` -- cost-effectiveness greedy (the natural
  extension of the greedy set-cover algorithm to weighted multi-cover with
  fanout bookkeeping);
* :mod:`repro.baselines.naive` -- quality-first per-demand choice, ignoring
  global cost (the "traditional centralized" strawman of Section 1);
* :mod:`repro.baselines.random_assignment` -- random feasible-ish assignment
  (sanity floor for comparisons);
* :mod:`repro.baselines.single_tree` -- one reflector per stream, no
  redundancy (an IP-multicast-like tree, Section 1.4's alternative);
* :mod:`repro.baselines.milp` -- the Section-2 IP solved exactly by HiGHS
  branch-and-cut (the integer optimum; see ``docs/solvers.md``).

Every baseline runs through the unified strategy registry (:mod:`repro.api`)
under a stable name (``"greedy"``, ``"naive-quality-first"``,
``"single-tree"``, ``"random"``, ``"milp-exact"``), next to ``"lp-bound"``,
the fractional LP optimum every cost ratio is measured against::

    run_request(DesignRequest(problem, strategy="greedy")).solution

Only the MILP solver is exported here, because its result carries solver
diagnostics (status, gap, dual bound) that callers read directly.
"""

from repro.baselines.milp import MILPResult, milp_exact_design

__all__ = ["MILPResult", "milp_exact_design"]
