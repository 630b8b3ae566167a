"""Command-line interface.

A small operational front-end around the library, mirroring how the paper's
system would be driven in production: generate (or load) an instance, design
the overlay, audit it, and optionally replay it through the packet simulator.

Usage (after ``pip install -e .``)::

    python -m repro.cli generate --workload akamai --seed 0 --out instance.json
    python -m repro.cli design   --list-strategies
    python -m repro.cli design   --problem instance.json --seed 7 --repair \
                                 --strategy spaa03 --out design.json
    python -m repro.cli compare  --problem instance.json --seed 7
    python -m repro.cli batch    --requests requests.jsonl --jobs 4 \
                                 --out results.jsonl
    python -m repro.cli evaluate --problem instance.json --solution design.json
    python -m repro.cli update   --problem instance.json --solution design.json \
                                 --new-problem churned.json --out updated.json
    python -m repro.cli update   --problem instance.json --solution design.json \
                                 --event sink-churn --churn-seed 3 \
                                 --delta-out delta.json
    python -m repro.cli simulate --problem instance.json --solution design.json \
                                 --packets 20000
    python -m repro.cli simulate --problem instance.json --solution design.json \
                                 --scenario all --trials 200 --jobs auto
    python -m repro.cli bench    --suite t5 --jobs 4 --out benchmarks/results
    python -m repro.cli bench    --suite reliability --jobs auto
    python -m repro.cli bench    --smoke --jobs auto \
                                 --compare-to benchmarks/results/baseline.json
    python -m repro.cli serve    --port 8080 --workers 4
    python -m repro.cli serve    --self-test
    python -m repro.cli submit   --url http://127.0.0.1:8080 \
                                 --problem instance.json --seed 7 --out result.json

``design``/``compare`` resolve strategies through the :mod:`repro.api`
registry (``--strategy``), ``compare`` iterates every registered comparison
baseline, ``batch`` fans a JSON-lines file of design-request documents
out over worker processes (:func:`repro.api.design_batch`), and ``update``
re-designs a standing solution incrementally after churn
(:func:`repro.api.design_incremental`) -- the change arrives as a new
problem JSON, a serialized delta document, or a sampled churn event.
``serve`` runs the :mod:`repro.serve` design service (content-addressed
artifact cache + async worker pool) behind a small HTTP front, and
``submit`` is its client.  The shared flags -- ``--seed``, ``--jobs``,
``--strategy``, ``--out`` -- come from common parent parsers, so they spell
and behave identically on every subcommand that accepts them.

Every subcommand prints a human-readable table; files are the JSON documents
defined in :mod:`repro.core.serialization` (problems/solutions),
the request/result documents of :mod:`repro.api.types` (batch), and the
``BENCH_<ID>.json`` records of :mod:`repro.analysis.runner` (benchmarks).

Exit codes of ``bench``: 0 success; 1 a scenario's paper-shape thresholds
failed (takes precedence if regressions were also classified); 2 usage or
incomparable baseline; 3 a classified regression against ``--compare-to``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis import audit_solution, compare_designs, format_table
from repro.api import (
    DesignRequest,
    comparison_designers,
    design_batch,
    dump_results_jsonl,
    get_designer,
    load_requests_jsonl,
    registered_designers,
)
from repro.core.algorithm import DesignParameters
from repro.core.extensions import color_constrained_parameters
from repro.core.rounding import RoundingParameters
from repro.core.serialization import (
    dump_problem,
    dump_solution,
    load_problem,
    load_solution,
)
from repro.workloads import (
    AkamaiLikeConfig,
    AsGeoConfig,
    FlashCrowdConfig,
    InternetScaleConfig,
    RandomInstanceConfig,
    generate_akamai_like_topology,
    generate_as_geo_problem,
    generate_flash_crowd_scenario,
    generate_internet_scale_problem,
    random_problem,
)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.workload == "akamai":
        topology, _registry = generate_akamai_like_topology(AkamaiLikeConfig(), rng=args.seed)
        problem = topology.to_problem()
    elif args.workload == "flash-crowd":
        topology, _registry = generate_flash_crowd_scenario(FlashCrowdConfig(), rng=args.seed)
        problem = topology.to_problem()
    elif args.workload == "internet-scale":
        config = (
            InternetScaleConfig(num_sinks=args.sinks)
            if args.sinks is not None
            else InternetScaleConfig()
        )
        problem, _registry = generate_internet_scale_problem(config, rng=args.seed)
    elif args.workload == "as-geo":
        geo_config = (
            AsGeoConfig(num_sinks=args.sinks) if args.sinks is not None else AsGeoConfig()
        )
        problem, _registry = generate_as_geo_problem(geo_config, rng=args.seed)
    else:  # random
        problem = random_problem(RandomInstanceConfig(), rng=args.seed)
    dump_problem(problem, args.out)
    print(f"wrote {problem} to {args.out}")
    return 0


def _list_strategies() -> int:
    rows = [
        {
            "strategy": designer.name,
            "baseline": designer.baseline,
            "in_comparisons": designer.in_comparisons,
            "description": designer.description,
        }
        for designer in registered_designers()
    ]
    print(format_table(rows, title="registered design strategies"))
    print(
        "\nany solution-producing strategy X is also available as 'sharded:X' "
        "(hierarchical sharded pipeline; see docs/scaling.md)"
    )
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    if args.list_strategies:
        return _list_strategies()
    if args.list_backends:
        return _list_backends()
    if not args.problem:
        print(
            "error: --problem is required (unless --list-strategies/--list-backends)",
            file=sys.stderr,
        )
        return 2
    backend_error = _check_solver_backend(args.solver_backend)
    if backend_error:
        print(f"error: {backend_error}", file=sys.stderr)
        return 2
    problem = load_problem(args.problem)
    issues = problem.feasibility_report()
    if issues:
        print(f"error: {len(issues)} demands cannot be satisfied by any design:", file=sys.stderr)
        for issue in issues[:10]:
            print(
                f"  {issue.demand.key}: needs weight {issue.required_weight:.2f}, "
                f"only {issue.available_weight:.2f} available",
                file=sys.stderr,
            )
        return 2
    strategy = args.strategy
    if args.isp_diversity and strategy == "spaa03":
        strategy = "spaa03-extended"
    elif args.isp_diversity and strategy == "sharded:spaa03":
        # The sharded wrapper inherits the same upgrade: each shard then runs
        # the Section-6 extended rounding (colors are enforced within shards;
        # see docs/scaling.md for the cross-shard caveat).
        strategy = "sharded:spaa03-extended"
    try:
        designer = get_designer(strategy)
    except (KeyError, ValueError) as error:
        # KeyError: unknown strategy (or unknown sharded: inner strategy);
        # ValueError: a structurally invalid strategy such as a sharded
        # wrapper around a bound-only inner strategy.
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    sharded = strategy.startswith("sharded:")
    sharded_flags = [
        flag
        for flag, given in (
            ("--shards", args.shards is not None),
            ("--jobs", args.jobs is not None),
            ("--partitioner", args.partitioner is not None),
        )
        if given
    ]
    if not sharded and sharded_flags:
        print(
            f"error: strategy {strategy!r} ignores {', '.join(sharded_flags)} "
            "(sharded-pipeline flags); use --strategy sharded:<strategy> to "
            "shard the design",
            file=sys.stderr,
        )
        return 2
    # The baselines only read the request seed; accepting pipeline-only flags
    # for them would silently produce a design without the requested
    # constraints.  For sharded strategies the flags reach the *inner*
    # designer, so the guard looks through the wrapper.
    pipeline_flags = [
        flag
        for flag, given in (
            ("--repair", args.repair),
            ("--isp-diversity", args.isp_diversity),
            ("--multiplier", args.multiplier is not None),
        )
        if given
    ]
    guard_designer = get_designer(strategy.split(":", 1)[1]) if sharded else designer
    if guard_designer.baseline and pipeline_flags:
        print(
            f"error: strategy {strategy!r} ignores {', '.join(pipeline_flags)} "
            "(pipeline-only flags); drop them or use a pipeline strategy",
            file=sys.stderr,
        )
        return 2
    # --time-limit / --mip-gap only mean something to the MILP designer;
    # mirror the sharded-flag guard so they never silently no-op.
    milp_flags = [
        flag
        for flag, given in (
            ("--time-limit", args.time_limit is not None),
            ("--mip-gap", args.mip_gap is not None),
        )
        if given
    ]
    if guard_designer.name != "milp-exact" and milp_flags:
        print(
            f"error: strategy {strategy!r} ignores {', '.join(milp_flags)} "
            "(MILP-only flags); use --strategy milp-exact to solve the "
            "integer program exactly",
            file=sys.stderr,
        )
        return 2
    parameters = DesignParameters(
        rounding=RoundingParameters(
            c=args.multiplier if args.multiplier is not None else 8.0, seed=args.seed
        ),
        repair_shortfall=args.repair,
        solver_backend=args.solver_backend if args.solver_backend else "highs",
        seed=args.seed,
    )
    if args.isp_diversity:
        parameters = color_constrained_parameters(parameters)
    if args.out and not designer.produces_solution:
        print(
            f"error: strategy {strategy!r} produces no integral design "
            "(bound only); drop --out to print its summary",
            file=sys.stderr,
        )
        return 2
    options = {}
    milp_options = {}
    if args.time_limit is not None:
        milp_options["time_limit"] = args.time_limit
    if args.mip_gap is not None:
        milp_options["mip_gap"] = args.mip_gap
    if sharded:
        options = {
            "shards": args.shards if args.shards is not None else "auto",
            "jobs": args.jobs if args.jobs is not None else 1,
            "partitioner": args.partitioner if args.partitioner is not None else "auto",
        }
        if milp_options:
            options["inner_options"] = milp_options
    else:
        options.update(milp_options)
    try:
        result = designer.design(
            DesignRequest(
                problem=problem,
                parameters=parameters,
                strategy=strategy,
                options=options,
            )
        )
    except ValueError as error:
        # Typically: the LP (with the requested extensions) is infeasible, e.g.
        # ISP-diversity constraints on an instance without enough distinct ISPs.
        print(f"error: {error}", file=sys.stderr)
        return 2
    solution = result.solution
    if args.out:
        dump_solution(solution, args.out)
    summary = result.summary()
    rows = [{"metric": key, "value": value} for key, value in summary.items() if key != "stage_seconds"]
    print(format_table(rows, title=f"design of {problem.name}"))
    if args.out:
        print(f"\nwrote design to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    solution = load_solution(args.solution, problem)
    audit = audit_solution(problem, solution)
    rows = [{"metric": key, "value": value} for key, value in {**solution.summary(), **audit.summary()}.items()]
    print(format_table(rows, title=f"evaluation of {args.solution}"))
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.runner import resolve_jobs
    from repro.api import design_incremental
    from repro.incremental import (
        apply_delta,
        churn_stream,
        delta_from_dict,
        delta_to_dict,
        diff_problems,
    )

    sources = sum(bool(s) for s in (args.new_problem, args.delta, args.event))
    if sources != 1:
        print(
            "error: exactly one of --new-problem, --delta, --event is required",
            file=sys.stderr,
        )
        return 2
    backend_error = _check_solver_backend(args.solver_backend)
    if backend_error:
        print(f"error: {backend_error}", file=sys.stderr)
        return 2
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    problem = load_problem(args.problem)
    solution = load_solution(args.solution, problem)

    try:
        if args.delta:
            with open(args.delta, "r", encoding="utf-8") as handle:
                delta = delta_from_dict(json.load(handle))
            new_problem = apply_delta(problem, delta)
        elif args.event:
            ((_event, delta, new_problem),) = list(
                churn_stream(problem, [args.event], seed=args.churn_seed)
            )
        else:
            new_problem = load_problem(args.new_problem)
            delta = diff_problems(problem, new_problem)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    parameters = DesignParameters(
        solver_backend=args.solver_backend if args.solver_backend else "highs",
        seed=args.seed,
    )
    try:
        result = design_incremental(
            solution,
            new_problem,
            parameters=parameters,
            strategy=args.strategy,
            options={
                "shards": args.shards,
                "jobs": jobs,
                "partitioner": args.partitioner,
                "resolve": args.resolve,
                "full_redesign_threshold": args.full_redesign_threshold,
            },
            previous_problem=problem,
            delta=delta,
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2

    if args.out:
        dump_solution(result.solution, args.out)
    if args.delta_out:
        with open(args.delta_out, "w", encoding="utf-8") as handle:
            json.dump(delta_to_dict(delta), handle, indent=2, sort_keys=True)
            handle.write("\n")
    summary = result.summary()
    rows = [
        {"metric": key, "value": value}
        for key, value in summary.items()
        if key != "stage_seconds"
    ]
    print(format_table(rows, title=f"incremental update of {problem.name}"))
    if args.out:
        print(f"\nwrote updated design to {args.out}")
    if args.delta_out:
        print(f"wrote delta document to {args.delta_out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    try:
        reference = get_designer(args.strategy)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if not reference.produces_solution:
        print(
            f"error: strategy {args.strategy!r} produces no integral design "
            "(bound only); pick a solution-producing reference",
            file=sys.stderr,
        )
        return 2
    result = reference.design(
        DesignRequest(
            problem=problem,
            parameters=DesignParameters(
                rounding=RoundingParameters(c=args.multiplier, seed=args.seed),
                repair_shortfall=True,
                seed=args.seed,
            ),
        )
    )
    # Only the pipeline strategies honor repair_shortfall; labeling a baseline
    # reference "+repair" would be a lie.
    label = reference.name if reference.baseline else f"{reference.name}+repair"
    # Every registered comparison designer appears automatically; each pulls
    # its seed from the request parameters, so runs are reproducible.
    designs = {label: result.solution}
    for designer in comparison_designers():
        if designer.name == reference.name:
            continue
        designs[designer.name] = designer.design(
            DesignRequest(problem=problem, parameters=DesignParameters(seed=args.seed))
        ).solution
    # Baseline references don't solve the LP; fetch the bound separately so
    # the cost_ratio column is present for any reference strategy.
    lower_bound = result.lower_bound
    if lower_bound is None:
        lower_bound = (
            get_designer("lp-bound").design(DesignRequest(problem=problem)).lower_bound
        )
    rows = compare_designs(problem, designs, lower_bound=lower_bound)
    print(
        format_table(
            rows,
            columns=[
                "design",
                "total_cost",
                "cost_ratio",
                "mean_success",
                "fraction_meeting_threshold",
                "max_fanout_factor",
            ],
            title=f"design comparison on {problem.name}",
        )
    )
    return 0


def _simulate_scenario_task(task: dict) -> dict:
    """One (scenario, problem, solution) reliability sweep unit.

    Module-level so the parallel executor can pickle it; paths travel in the
    task dict and are re-loaded inside the worker.  Metrics come from
    :func:`repro.simulation.evaluate_design` (or its streaming variant when
    the task carries ``stream=True``), so a CLI sweep is seeded and assembled
    identically to the Designer-API and R2 sweeps.
    """
    # User DSL scenarios live only in the parent's registry; re-register them
    # in this worker process (shipped files auto-load, user files travel in
    # the task dict).
    for path in task.get("scenario_files") or ():
        from repro.simulation import register_scenario_file

        register_scenario_file(path)
    problem = load_problem(task["problem"])
    solution = load_solution(task["solution"], problem)
    if task.get("stream"):
        from repro.simulation import evaluate_design_streaming

        metrics = evaluate_design_streaming(
            problem,
            solution,
            (task["scenario"],),
            trials=task["trials"],
            num_packets=task["packets"],
            window=task["window"],
            seed=task["seed"],
            traces=tuple(task.get("traces") or ()),
            demand_tile=task.get("demand_tile"),
            trial_tile=task.get("trial_tile"),
            max_memory=task.get("max_memory"),
        )[task["scenario"]]
    else:
        from repro.simulation import evaluate_design

        metrics = evaluate_design(
            problem,
            solution,
            (task["scenario"],),
            trials=task["trials"],
            num_packets=task["packets"],
            window=task["window"],
            seed=task["seed"],
        )[task["scenario"]]
    row = {
        "scenario": task["scenario"],
        "failure_events": int(metrics["failure_events"]),
        "mean_loss": metrics["mean_loss"],
        "mean_loss_ci95": metrics["mean_loss_ci95"],
        "max_loss": metrics["max_loss"],
        "mean_worst_window_loss": metrics["mean_worst_window_loss"],
        "fraction_meeting_threshold": metrics["fraction_meeting_threshold"],
    }
    for key, value in metrics.items():
        if key.startswith("trace:"):
            row[key] = value
    return row


def _list_failure_scenarios() -> int:
    from repro.simulation import failure_scenario_names, get_failure_scenario

    rows = [
        {
            "scenario": name,
            "tags": ",".join(get_failure_scenario(name).tags) or "-",
            "description": get_failure_scenario(name).description,
        }
        for name in failure_scenario_names()
    ]
    print(format_table(rows, title="registered failure scenarios"))
    return 0


def _list_load_traces() -> int:
    from repro.simulation import get_load_trace, load_trace_names

    rows = [
        {"trace": name, "description": get_load_trace(name).description}
        for name in load_trace_names()
    ]
    print(format_table(rows, title="registered load traces"))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json as _json

    from repro.simulation import failure_scenario_names, get_failure_scenario
    from repro.simulation.dsl import (
        ScenarioValidationError,
        compiled_scenario_spec,
        load_scenario_file,
        shipped_scenario_paths,
    )

    if args.validate is not None:
        paths = [Path(p) for p in args.validate] or shipped_scenario_paths()
        failures = 0
        for path in paths:
            try:
                scenario = load_scenario_file(path)
            except OSError as error:
                print(f"FAIL {path}: cannot read: {error}", file=sys.stderr)
                failures += 1
            except ScenarioValidationError as error:
                print(f"FAIL {path}:", file=sys.stderr)
                for issue in error.issues:
                    print(f"  {issue}", file=sys.stderr)
                failures += 1
            else:
                print(f"ok   {path} -> {scenario.name}")
        if failures:
            print(f"error: {failures} of {len(paths)} scenario file(s) invalid", file=sys.stderr)
            return 2
        print(f"{len(paths)} scenario file(s) valid")
        return 0

    if args.show:
        try:
            scenario = get_failure_scenario(args.show)
        except KeyError:
            print(
                f"error: unknown scenario {args.show!r}; "
                f"known: {', '.join(failure_scenario_names())}",
                file=sys.stderr,
            )
            return 2
        record = compiled_scenario_spec(scenario.name)
        print(f"name:        {scenario.name}")
        print(f"description: {scenario.description}")
        print(f"tags:        {', '.join(scenario.tags) or '-'}")
        if record is None:
            print("source:      built-in (Python)")
        else:
            print(f"source:      {record['source']}")
            print("normalized spec:")
            print(_json.dumps(record["spec"], indent=2))
        return 0

    rows = []
    for name in failure_scenario_names():
        scenario = get_failure_scenario(name)
        record = compiled_scenario_spec(name)
        rows.append(
            {
                "scenario": name,
                "source": "built-in" if record is None else "dsl",
                "tags": ",".join(scenario.tags) or "-",
                "description": scenario.description,
            }
        )
    print(format_table(rows, title="failure-scenario catalogue"))
    print(
        "\nDSL scenarios compile from YAML/JSON documents (docs/scenarios.md); "
        "validate files with: repro scenarios --validate [FILE ...]"
    )
    return 0


def _parse_memory_size(text: str) -> int:
    """Parse a byte budget like ``512M``, ``1.5G``, ``64MiB``, or ``1048576``."""
    units = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}
    raw = text.strip().lower()
    if raw.endswith("ib"):
        raw = raw[:-2]
    elif raw.endswith("b"):
        raw = raw[:-1]
    scale = 1
    if raw and raw[-1] in units:
        scale = units[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"cannot parse memory size {text!r} (use bytes or a K/M/G/T suffix)"
        ) from None
    if value <= 0:
        raise ValueError(f"memory size must be positive, got {text!r}")
    return int(value * scale)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.runner import execute_tasks, resolve_jobs
    from repro.simulation import MonteCarloConfig, failure_scenario_names, run_monte_carlo

    if args.list_scenarios:
        return _list_failure_scenarios()
    if args.list_traces:
        return _list_load_traces()
    if not args.problem or not args.solution:
        print("error: --problem and --solution are required", file=sys.stderr)
        return 2
    for flag, value in (
        ("--packets", args.packets),
        ("--trials", args.trials),
        ("--window", args.window),
        ("--demand-tile", args.demand_tile),
        ("--trial-tile", args.trial_tile),
    ):
        if value is not None and value <= 0:
            print(f"error: {flag} must be positive, got {value}", file=sys.stderr)
            return 2
    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    max_memory = None
    if args.max_memory is not None:
        try:
            max_memory = _parse_memory_size(args.max_memory)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    traces = []
    for chunk in args.trace or []:
        traces.extend(t.strip() for t in chunk.split(",") if t.strip())
    if traces and not args.stream:
        print("error: --trace requires --stream", file=sys.stderr)
        return 2
    if (args.demand_tile is not None or args.trial_tile is not None) and not args.stream:
        print("error: --demand-tile/--trial-tile require --stream", file=sys.stderr)
        return 2
    if traces:
        from repro.simulation import load_trace_names

        unknown = [t for t in traces if t not in load_trace_names()]
        if unknown:
            print(
                f"error: unknown trace(s) {', '.join(unknown)}; "
                f"known: {', '.join(load_trace_names())}",
                file=sys.stderr,
            )
            return 2

    if args.scenario:
        # A --scenario value that looks like a path is a DSL document: it is
        # validated, registered, and swept under its own name.
        selections: list[str] = []
        for chunk in args.scenario:
            selections.extend(s.strip() for s in chunk.split(",") if s.strip())
        names: list[str] = []
        scenario_files: list[str] = []
        for selection in selections:
            if selection.endswith((".json", ".yaml", ".yml")) or os.sep in selection:
                scenario_files.append(selection)
            else:
                names.append(selection)
        if scenario_files:
            from repro.simulation import ScenarioValidationError, register_scenario_file

            for path in scenario_files:
                try:
                    names.append(register_scenario_file(path).name)
                except OSError as error:
                    print(f"error: cannot read scenario file: {error}", file=sys.stderr)
                    return 2
                except ScenarioValidationError as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 2
        if "all" in names:
            names = failure_scenario_names()
        unknown = [n for n in names if n not in failure_scenario_names()]
        if unknown:
            print(
                f"error: unknown scenario(s) {', '.join(unknown)}; "
                f"known: {', '.join(failure_scenario_names())}",
                file=sys.stderr,
            )
            return 2
        tasks = [
            {
                "scenario": name,
                "problem": args.problem,
                "solution": args.solution,
                "packets": args.packets,
                "trials": args.trials,
                "window": args.window,
                "seed": args.seed,
                "stream": args.stream,
                "traces": traces,
                "demand_tile": args.demand_tile,
                "trial_tile": args.trial_tile,
                "max_memory": max_memory if args.stream else None,
                "scenario_files": scenario_files,
            }
            for name in names
        ]
        rows = execute_tasks(_simulate_scenario_task, tasks, jobs=jobs)
        engine_note = "streaming, " if args.stream else ""
        print(
            format_table(
                rows,
                title=(
                    f"reliability sweep ({engine_note}{args.trials} trials x "
                    f"{args.packets} packets, jobs={jobs})"
                ),
            )
        )
        return 0

    problem = load_problem(args.problem)
    solution = load_solution(args.solution, problem)

    if args.stream:
        from repro.simulation import (
            StreamingConfig,
            StreamingMemoryError,
            run_streaming_monte_carlo,
        )

        config = StreamingConfig(
            num_packets=args.packets,
            trials=args.trials,
            window=args.window,
            seed=args.seed,
            demand_tile=args.demand_tile,
            trial_tile=args.trial_tile,
            max_memory=max_memory,
        )
        try:
            report = run_streaming_monte_carlo(
                problem, solution, config, traces=tuple(traces), jobs=jobs
            )
        except StreamingMemoryError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        rows = [
            {"metric": key, "value": value} for key, value in report.summary().items()
        ]
        print(
            format_table(
                rows,
                title=(
                    f"streaming Monte-Carlo audit ({args.trials} trials x "
                    f"{args.packets} packets, {report.plan.num_tiles} tiles, "
                    f"jobs={jobs})"
                ),
            )
        )
        for name in sorted(report.traces):
            trace_rows = [
                {"metric": key, "value": value}
                for key, value in report.traces[name].summary().items()
                if key != "trace"
            ]
            print()
            print(format_table(trace_rows, title=f"trace replay: {name}"))
        return 0

    batch_kwargs = {"max_batch_bytes": max_memory} if max_memory is not None else {}
    config = MonteCarloConfig(
        num_packets=args.packets,
        trials=args.trials,
        window=args.window,
        seed=args.seed,
        **batch_kwargs,
    )
    report = run_monte_carlo(problem, solution, config)
    rows = [
        {
            "demand": f"{d.demand_key[0]}/{d.demand_key[1]}",
            "paths": d.paths,
            "mean_loss": d.mean_loss,
            "loss_std": d.loss_std,
            "mean_worst_window": d.mean_worst_window,
            "meets_threshold": d.meets_threshold_fraction,
        }
        for d in report.demands
    ]
    print(
        format_table(
            rows,
            title=f"Monte-Carlo simulation ({args.trials} trials x {args.packets} packets)",
        )
    )
    # One trial has no spread to report; a "+- 0" interval would overstate it.
    ci = f" +- {report.mean_loss_ci_halfwidth:.4f} (95% CI)" if args.trials > 1 else ""
    print(
        f"\nmean loss {report.mean_loss:.4f}{ci}; "
        f"{report.fraction_meeting_threshold:.0%} of demand-trials within budget"
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.analysis.runner import resolve_jobs

    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        requests = load_requests_jsonl(args.requests)
    except (OSError, ValueError) as error:
        print(f"error: cannot read requests: {error}", file=sys.stderr)
        return 2
    if not requests:
        print(f"error: no requests in {args.requests}", file=sys.stderr)
        return 2
    results = design_batch(requests, jobs=jobs)
    rows = [
        {
            "request": request.request_id or f"#{index}",
            "strategy": result.strategy,
            "total_cost": result.total_cost,
            "lower_bound": result.lower_bound,
            "unserved_demands": (
                result.audit.unserved_demands if result.audit is not None else None
            ),
        }
        for index, (request, result) in enumerate(zip(requests, results))
    ]
    print(format_table(rows, title=f"batch of {len(results)} designs (jobs={jobs})"))
    if args.out:
        path = dump_results_jsonl(results, args.out)
        print(f"\nwrote {len(results)} result documents to {path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.runner import (
        compare_records,
        expand_scenario_ids,
        get_scenario,
        load_suite,
        resolve_jobs,
        run_scenario,
        save_suite,
        scenario_ids,
        suite_tags,
    )

    known = scenario_ids()
    if args.list:
        tags = suite_tags()
        rows = [
            {
                "scenario": sid,
                "tags": ",".join(
                    tag for tag, members in sorted(tags.items()) if sid in members
                )
                or "-",
                "artifact": f"BENCH_{get_scenario(sid).bench_id}.json",
                "description": get_scenario(sid).description or get_scenario(sid).title,
            }
            for sid in known
        ]
        print(format_table(rows, title="registered benchmark scenarios"))
        return 0

    if args.suite:
        names: list[str] = []
        for chunk in args.suite:
            names.extend(s.strip() for s in chunk.split(",") if s.strip())
        try:
            requested = expand_scenario_ids(names)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
    else:
        requested = known

    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    baseline = None
    if args.compare_to:
        try:
            baseline = load_suite(args.compare_to)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot read baseline {args.compare_to}: {error}", file=sys.stderr)
            return 2

    out_dir = Path(args.out)
    records = {}
    failures: list[str] = []
    for sid in requested:
        spec = get_scenario(sid)
        record = run_scenario(
            spec, jobs=jobs, master_seed=args.master_seed, smoke=args.smoke
        )
        records[sid] = record
        json_path = record.save(out_dir / f"BENCH_{record.bench_id}.json")
        table = format_table(record.rows, columns=spec.columns, title=record.title)
        (out_dir / f"{spec.artifact_stem}.txt").write_text(table + "\n")
        print(f"\n===== {record.bench_id} ({record.elapsed_seconds:.2f}s, jobs={jobs}) =====")
        print(table)
        print(f"wrote {json_path}")
        if not args.no_validate and spec.validate is not None:
            for failure in spec.validate(record):
                failures.append(f"{sid}: {failure}")

    if args.baseline_out:
        path = save_suite(records, args.baseline_out)
        print(f"\nwrote baseline suite ({len(records)} records) to {path}")

    exit_code = 0
    if failures:
        print("\nthreshold failures:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        exit_code = 1

    if baseline is not None:
        regressions = 0
        compared = 0
        for sid, record in records.items():
            if sid not in baseline:
                print(f"\n{sid}: no baseline record; skipping comparison")
                continue
            try:
                report = compare_records(record, baseline[sid])
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            compared += 1
            interesting = [d for d in report.drifts if d.classification != "neutral"]
            title = f"{sid}: drift vs {args.compare_to}"
            if interesting:
                print("\n" + format_table([d.as_row() for d in interesting], title=title))
            else:
                print(f"\n{title}: all metrics neutral")
            regressions += len(report.regressions)
        print(
            f"\ncompared {compared}/{len(records)} records: "
            f"{regressions} regression(s) classified"
        )
        # Threshold failures (exit 1) take precedence over regressions (3):
        # a broken paper-shape invariant is the more fundamental signal.
        if regressions and exit_code == 0:
            exit_code = 3
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.serve import DesignServer, DesignService, run_self_test
    from repro.serve.cache import DEFAULT_MAX_BYTES, ArtifactCache

    if args.self_test:
        try:
            run_self_test()
        except AssertionError as error:
            print(f"self-test FAILED: {error}", file=sys.stderr)
            return 1
        return 0

    cache = ArtifactCache(
        max_bytes=args.cache_bytes if args.cache_bytes is not None else DEFAULT_MAX_BYTES,
        spill_dir=args.spill_dir,
    )
    service = DesignService(cache=cache, workers=args.workers, max_queue=args.max_queue)
    server = DesignServer(service, host=args.host, port=args.port)
    server.start()
    print(
        f"serving on {server.url} (workers={args.workers}, "
        f"cache budget {cache.stats().max_bytes} bytes)"
    )
    print("POST /design with a design-request document; GET /stats; GET /healthz")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nstopping")
    finally:
        server.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json
    import urllib.request

    from repro.api import request_to_dict, result_from_dict

    base = args.url.rstrip("/")
    if args.stats:
        try:
            with urllib.request.urlopen(base + "/stats", timeout=args.timeout) as response:
                payload = json.load(response)
        except OSError as error:
            print(f"error: cannot reach {base}: {error}", file=sys.stderr)
            return 2
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not args.problem:
        print("error: --problem is required (unless --stats)", file=sys.stderr)
        return 2

    problem = load_problem(args.problem)
    request = DesignRequest(
        problem=problem,
        parameters=DesignParameters(seed=args.seed),
        strategy=args.strategy,
    )
    body = json.dumps(request_to_dict(request)).encode("utf-8")
    http_request = urllib.request.Request(
        base + "/design", data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(http_request, timeout=args.timeout) as response:
            document = json.load(response)
    except OSError as error:
        print(f"error: cannot reach {base}: {error}", file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

    result = result_from_dict(document, problem)
    rows = [
        {"metric": key, "value": value}
        for key, value in result.summary().items()
        if key != "stage_seconds"
    ]
    provenance = document.get("cache") or {}
    for key in ("served_from_cache", "deduplicated", "request_digest"):
        if key in provenance:
            rows.append({"metric": f"cache.{key}", "value": provenance[key]})
    for stage, state in (provenance.get("stages") or {}).items():
        rows.append({"metric": f"cache.stage.{stage}", "value": state})
    print(format_table(rows, title=f"design of {problem.name} via {base}"))
    if args.out:
        print(f"\nwrote result document to {args.out}")
    return 0


def _seed_parent(
    help: str = "seed for the run (default: 0)",
) -> argparse.ArgumentParser:
    """Shared ``--seed`` flag: every subcommand spells and types it the same."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0, help=help)
    return parent


def _jobs_parent(
    default: str | None = "1",
    help: str = "worker processes: a number or 'auto' (default: 1)",
) -> argparse.ArgumentParser:
    """Shared ``--jobs`` flag (a number or ``'auto'``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", default=default, help=help)
    return parent


def _strategy_parent(
    default: str | None = "spaa03",
    help: str = "registered design strategy (default: spaa03)",
) -> argparse.ArgumentParser:
    """Shared ``--strategy`` flag resolved via the :mod:`repro.api` registry."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--strategy", default=default, help=help)
    return parent


def _out_parent(
    help: str = "output path",
    required: bool = False,
    default: str | None = None,
) -> argparse.ArgumentParser:
    """Shared ``--out`` flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--out", required=required, default=default, help=help)
    return parent


def _solver_backend_parent() -> argparse.ArgumentParser:
    """Shared ``--solver-backend`` flag (validated against the registry)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--solver-backend",
        default=None,
        help="registered solver backend for the LP/MILP solve (see "
        "--list-backends; default: highs)",
    )
    return parent


def _check_solver_backend(name: str | None) -> str | None:
    """Return an error message when ``name`` is unknown or unavailable.

    Mirrors the sharded-flag guard: usage errors exit 2 with a message that
    names the *installed* backends, so a missing optional library (gurobipy)
    reads the same as a typo.
    """
    from repro.lp import available_backend_names

    if name is None or name in available_backend_names():
        return None
    installed = ", ".join(available_backend_names())
    return (
        f"unknown or unavailable solver backend {name!r} "
        f"(installed backends: {installed})"
    )


def _list_backends() -> int:
    from repro.lp import registered_backends

    rows = [
        {
            "backend": backend.name,
            "available": backend.available(),
            "description": backend.description,
        }
        for backend in registered_backends()
    ]
    print(format_table(rows, title="registered solver backends"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Overlay multicast network designer (SPAA'03 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate",
        help="generate a synthetic problem instance",
        parents=[
            _seed_parent("seed of the instance generator (default: 0)"),
            _out_parent("output problem JSON path", required=True),
        ],
    )
    generate.add_argument(
        "--workload",
        choices=["akamai", "flash-crowd", "random", "internet-scale", "as-geo"],
        default="akamai",
    )
    generate.add_argument(
        "--sinks",
        type=int,
        default=None,
        help="sink count for --workload internet-scale / as-geo "
        "(defaults: 10000 / 600)",
    )
    generate.set_defaults(func=_cmd_generate)

    design = sub.add_parser(
        "design",
        help="design an overlay for a problem JSON",
        parents=[
            _seed_parent(),
            _strategy_parent(
                help="registered design strategy (see --list-strategies; default: "
                "spaa03; 'sharded:<strategy>' runs the hierarchical sharded pipeline)"
            ),
            _jobs_parent(
                default=None,
                help="worker processes for per-shard designs: a number or 'auto' "
                "(sharded:<strategy> only; default: 1)",
            ),
            _out_parent("output solution JSON path"),
            _solver_backend_parent(),
        ],
    )
    design.add_argument("--problem", help="problem JSON path (required unless --list-strategies)")
    design.add_argument(
        "--multiplier",
        type=float,
        default=None,
        help="rounding multiplier c (pipeline strategies only; default 8.0)",
    )
    design.add_argument("--repair", action="store_true", help="greedy repair of weight shortfalls")
    design.add_argument(
        "--isp-diversity", action="store_true", help="enable the Section-6.4 color constraints"
    )
    design.add_argument(
        "--shards",
        default=None,
        help="shard count or 'auto' (sharded:<strategy> only; default: auto)",
    )
    design.add_argument(
        "--partitioner",
        default=None,
        choices=["auto", "metro", "isp", "hash"],
        help="how sinks are grouped into shards (sharded:<strategy> only; "
        "default: auto)",
    )
    design.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="MILP wall-clock limit in seconds (milp-exact only)",
    )
    design.add_argument(
        "--mip-gap",
        type=float,
        default=None,
        help="relative MIP gap at which the solver may stop (milp-exact only)",
    )
    design.add_argument(
        "--list-strategies",
        action="store_true",
        help="list the registered design strategies and exit",
    )
    design.add_argument(
        "--list-backends",
        action="store_true",
        help="list the registered solver backends and exit",
    )
    design.set_defaults(func=_cmd_design)

    evaluate = sub.add_parser("evaluate", help="audit a solution JSON against its problem")
    evaluate.add_argument("--problem", required=True)
    evaluate.add_argument("--solution", required=True)
    evaluate.set_defaults(func=_cmd_evaluate)

    from repro.incremental import CHURN_EVENTS

    update = sub.add_parser(
        "update",
        help="incrementally re-design a standing solution after churn "
        "(new problem JSON, delta document, or sampled churn event)",
        parents=[
            _seed_parent(),
            _strategy_parent(
                default=None,
                help="inner per-shard strategy (default: derived from the "
                "standing design, else spaa03)",
            ),
            _jobs_parent(),
            _out_parent("output solution JSON path"),
            _solver_backend_parent(),
        ],
    )
    update.add_argument("--problem", required=True, help="pre-churn problem JSON path")
    update.add_argument(
        "--solution", required=True, help="standing design solution JSON path"
    )
    update.add_argument("--new-problem", help="post-churn problem JSON path")
    update.add_argument("--delta", help="problem-delta document JSON path")
    update.add_argument(
        "--event",
        choices=list(CHURN_EVENTS),
        help="sample one churn event of this kind instead of loading a file",
    )
    update.add_argument(
        "--churn-seed", type=int, default=0, help="seed for --event sampling"
    )
    update.add_argument("--shards", default="auto")
    update.add_argument(
        "--partitioner", default="auto", choices=["auto", "metro", "isp", "hash"]
    )
    update.add_argument(
        "--resolve",
        default="residual",
        choices=["residual", "full"],
        help="re-solve dirty shards as residual subproblems (default) or whole",
    )
    update.add_argument(
        "--full-redesign-threshold",
        type=float,
        default=0.8,
        help="dirty-shard fraction above which a full redesign runs instead",
    )
    update.add_argument(
        "--delta-out", help="also write the applied delta as a JSON document"
    )
    update.set_defaults(func=_cmd_update)

    compare = sub.add_parser(
        "compare",
        help="compare a strategy against every registered comparison baseline",
        parents=[
            _seed_parent(),
            _strategy_parent(
                help="reference strategy run with repair enabled (default: spaa03)"
            ),
        ],
    )
    compare.add_argument("--problem", required=True)
    compare.add_argument("--multiplier", type=float, default=8.0)
    compare.set_defaults(func=_cmd_compare)

    batch = sub.add_parser(
        "batch",
        help="run a JSON-lines file of design requests through the parallel executor",
        parents=[_jobs_parent(), _out_parent("output results JSONL path")],
    )
    batch.add_argument(
        "--requests", required=True, help="JSONL file, one design-request document per line"
    )
    batch.set_defaults(func=_cmd_batch)

    simulate = sub.add_parser(
        "simulate",
        help="packet-level replay of a solution (single session or Monte-Carlo sweep)",
        parents=[
            _seed_parent(),
            _jobs_parent(
                help="worker processes for scenario sweeps: a number or 'auto' "
                "(default: 1)"
            ),
        ],
    )
    simulate.add_argument("--problem", help="problem JSON path")
    simulate.add_argument("--solution", help="solution JSON path")
    simulate.add_argument("--packets", type=int, default=10_000)
    simulate.add_argument(
        "--trials",
        type=int,
        default=1,
        help="Monte-Carlo trials: independent packet sessions (default: 1)",
    )
    simulate.add_argument(
        "--window",
        type=int,
        default=200,
        help="worst-window statistic size in packets (default: 200)",
    )
    simulate.add_argument(
        "--scenario",
        action="append",
        help="failure scenario(s) to sweep (repeatable / comma-separated; 'all' "
        "for the whole catalogue; a .json/.yaml path compiles and sweeps a "
        "scenario DSL document; see --list-scenarios and docs/scenarios.md)",
    )
    simulate.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the registered failure scenarios and exit",
    )
    simulate.add_argument(
        "--stream",
        action="store_true",
        help="memory-bounded streaming engine: tile the demands x trials plane "
        "and fold exact mergeable accumulators (results independent of tiling "
        "and --jobs)",
    )
    simulate.add_argument(
        "--trace",
        action="append",
        help="replay registered load trace(s) through the streaming fold "
        "(repeatable / comma-separated; requires --stream; see --list-traces)",
    )
    simulate.add_argument(
        "--list-traces",
        action="store_true",
        help="list the registered load traces and exit",
    )
    simulate.add_argument(
        "--max-memory",
        help="working-set byte budget, e.g. 512M or 2G (streaming: shrinks the "
        "tile grid to fit; batched: caps the per-chunk trial block)",
    )
    simulate.add_argument(
        "--demand-tile",
        type=int,
        default=None,
        help="streaming tile height in demands (default: auto)",
    )
    simulate.add_argument(
        "--trial-tile",
        type=int,
        default=None,
        help="streaming tile width in trials (default: auto)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    scenarios = sub.add_parser(
        "scenarios",
        help="list, validate, and inspect the failure-scenario catalogue "
        "(built-ins + DSL files; see docs/scenarios.md)",
    )
    scenarios.add_argument(
        "--list",
        action="store_true",
        help="list the catalogue with sources and tags (the default action)",
    )
    scenarios.add_argument(
        "--validate",
        nargs="*",
        metavar="FILE",
        default=None,
        help="validate scenario DSL file(s); with no FILE, round-trips every "
        "shipped scenario file (the CI gate)",
    )
    scenarios.add_argument(
        "--show",
        metavar="NAME",
        help="print one scenario's description and, for DSL scenarios, its "
        "normalized spec",
    )
    scenarios.set_defaults(func=_cmd_scenarios)

    bench = sub.add_parser(
        "bench",
        help="run registered benchmark scenarios in parallel and emit BENCH_<ID>.json",
        parents=[
            _jobs_parent(
                help="worker processes per scenario: a number or 'auto' (default: 1)"
            ),
            _out_parent(
                "directory for BENCH_<ID>.json and table artifacts",
                default="benchmarks/results",
            ),
        ],
    )
    bench.add_argument(
        "--suite",
        action="append",
        help="scenario id(s) to run (repeatable / comma-separated; default: all)",
    )
    bench.add_argument("--master-seed", type=int, default=0)
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized seed blocks / draw counts / instance sizes",
    )
    bench.add_argument(
        "--compare-to",
        help="baseline suite (or single record) JSON; exit 3 on classified regressions",
    )
    bench.add_argument(
        "--baseline-out",
        help="also write all produced records as one baseline suite JSON",
    )
    bench.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the scenarios' paper-shape threshold checks",
    )
    bench.add_argument("--list", action="store_true", help="list registered scenarios")
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="run the design service (artifact cache + worker pool) over HTTP",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="listen port (0 picks an ephemeral one)"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="design worker threads (default: 2)"
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="artifact-cache byte budget (default: 256 MiB)",
    )
    serve.add_argument(
        "--spill-dir", help="spill evicted artifacts to this directory (default: off)"
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="bound the pending-request queue; full queue answers HTTP 429 "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--self-test",
        action="store_true",
        help="run an in-process round-trip (submit, replay, churn a session) and exit",
    )
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a design request to a running `repro serve` instance",
        parents=[
            _seed_parent("request seed (default: 0; seeded requests are cacheable)"),
            _strategy_parent(),
            _out_parent("write the full result document JSON here"),
        ],
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8080", help="server base URL"
    )
    submit.add_argument("--problem", help="problem JSON path (required unless --stats)")
    submit.add_argument(
        "--stats", action="store_true", help="print the server's /stats and exit"
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, help="HTTP timeout in seconds"
    )
    submit.set_defaults(func=_cmd_submit)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used both by ``python -m repro.cli`` and the tests."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
