"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.serialization import dump_problem, load_problem, load_solution, problem_to_dict
from repro.workloads.tiny import build_tiny_problem


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    dump_problem(build_tiny_problem(), str(path))
    return str(path)


class TestGenerate:
    @pytest.mark.parametrize("workload", ["random", "akamai", "flash-crowd"])
    def test_generate_workloads(self, tmp_path, workload, capsys):
        out = tmp_path / f"{workload}.json"
        code = main(["generate", "--workload", workload, "--seed", "1", "--out", str(out)])
        assert code == 0
        problem = load_problem(str(out))
        assert problem.num_demands > 0
        assert "wrote" in capsys.readouterr().out

    def test_generate_internet_scale_honours_sinks(self, tmp_path, capsys):
        out = tmp_path / "scale.json"
        code = main(
            [
                "generate",
                "--workload",
                "internet-scale",
                "--sinks",
                "120",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        problem = load_problem(str(out))
        assert problem.num_sinks == 120
        assert problem.feasibility_report() == []


class TestDesignEvaluateSimulate:
    def test_design_writes_solution(self, problem_file, tmp_path, capsys):
        out = tmp_path / "design.json"
        code = main(
            [
                "design",
                "--problem",
                problem_file,
                "--out",
                str(out),
                "--seed",
                "3",
                "--repair",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "total_cost" in output
        problem = load_problem(problem_file)
        solution = load_solution(str(out), problem)
        assert solution.assignments

    def test_design_isp_diversity_flag(self, tmp_path, capsys):
        # Build a colored problem with enough ISPs and mild thresholds so the
        # diversity-constrained LP stays feasible.
        from repro.workloads import RandomInstanceConfig, random_problem

        problem = random_problem(
            RandomInstanceConfig(
                num_colors=3,
                num_reflectors=8,
                success_threshold_range=(0.9, 0.96),
            ),
            rng=0,
        )
        problem_path = tmp_path / "colored.json"
        dump_problem(problem, str(problem_path))
        out = tmp_path / "colored-design.json"
        code = main(
            [
                "design",
                "--problem",
                str(problem_path),
                "--out",
                str(out),
                "--isp-diversity",
                "--repair",
            ]
        )
        assert code == 0
        assert out.exists()

    def test_design_reports_infeasible_problem(self, tmp_path, capsys):
        from repro.core.problem import OverlayDesignProblem

        problem = OverlayDesignProblem()
        problem.add_stream("s")
        problem.add_reflector("r", cost=1.0, fanout=1)
        problem.add_sink("d")
        problem.add_stream_edge("s", "r", 0.5, 1.0)
        problem.add_delivery_edge("r", "d", 0.5, 1.0)
        problem.add_demand("d", "s", 0.9999)
        path = tmp_path / "bad.json"
        dump_problem(problem, str(path))
        code = main(["design", "--problem", str(path), "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "cannot be satisfied" in capsys.readouterr().err

    def test_evaluate_and_simulate(self, problem_file, tmp_path, capsys):
        design_path = tmp_path / "design.json"
        assert main(["design", "--problem", problem_file, "--out", str(design_path), "--repair"]) == 0
        capsys.readouterr()

        assert main(["evaluate", "--problem", problem_file, "--solution", str(design_path)]) == 0
        evaluation = capsys.readouterr().out
        assert "min_weight_fraction" in evaluation

        assert (
            main(
                [
                    "simulate",
                    "--problem",
                    problem_file,
                    "--solution",
                    str(design_path),
                    "--packets",
                    "2000",
                ]
            )
            == 0
        )
        simulation = capsys.readouterr().out
        assert "Monte-Carlo simulation (1 trials x 2000 packets)" in simulation
        assert "mean loss" in simulation and "95% CI" not in simulation

    def test_compare(self, problem_file, capsys):
        assert main(["compare", "--problem", problem_file, "--seed", "1"]) == 0
        output = capsys.readouterr().out
        for name in ("spaa03+repair", "greedy", "single-tree", "random"):
            assert name in output

    def test_design_with_baseline_strategy(self, problem_file, tmp_path, capsys):
        out = tmp_path / "greedy.json"
        code = main(
            ["design", "--problem", problem_file, "--strategy", "greedy", "--out", str(out)]
        )
        assert code == 0
        assert "total_cost" in capsys.readouterr().out
        problem = load_problem(problem_file)
        assert load_solution(str(out), problem).assignments

    def test_design_unknown_strategy_errors(self, problem_file, capsys):
        assert main(["design", "--problem", problem_file, "--strategy", "nope"]) == 2
        assert "unknown designer" in capsys.readouterr().err

    def test_design_baseline_strategy_rejects_pipeline_flags(self, problem_file, capsys):
        code = main(["design", "--problem", problem_file, "--strategy", "greedy", "--repair"])
        assert code == 2
        assert "pipeline-only" in capsys.readouterr().err
        code = main(
            ["design", "--problem", problem_file, "--strategy", "random", "--multiplier", "16"]
        )
        assert code == 2
        assert "--multiplier" in capsys.readouterr().err

    def test_design_bound_only_strategy_refuses_out(self, problem_file, tmp_path, capsys):
        out = tmp_path / "bound.json"
        code = main(
            ["design", "--problem", problem_file, "--strategy", "lp-bound", "--out", str(out)]
        )
        assert code == 2
        assert "no integral design" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_with_baseline_reference(self, problem_file, capsys):
        assert main(["compare", "--problem", problem_file, "--strategy", "greedy"]) == 0
        output = capsys.readouterr().out
        # A baseline reference is not labeled "+repair", and the LP bound is
        # fetched separately so the cost_ratio column is still present.
        assert "greedy+repair" not in output
        assert "cost_ratio" in output
        for name in ("greedy", "naive-quality-first", "single-tree", "random"):
            assert name in output

    def test_compare_bound_only_reference_errors(self, problem_file, capsys):
        assert main(["compare", "--problem", problem_file, "--strategy", "lp-bound"]) == 2
        assert "no integral design" in capsys.readouterr().err

    def test_design_list_strategies(self, capsys):
        assert main(["design", "--list-strategies"]) == 0
        output = capsys.readouterr().out
        for name in ("spaa03", "spaa03-extended", "greedy", "milp-exact", "lp-bound"):
            assert name in output

    def test_design_requires_problem_without_list(self, capsys):
        assert main(["design"]) == 2
        assert "--problem is required" in capsys.readouterr().err


class TestBatch:
    def test_batch_roundtrip(self, problem_file, tmp_path, capsys):
        from repro.api import DesignRequest, dump_requests_jsonl
        from repro.core.algorithm import DesignParameters

        problem = load_problem(problem_file)
        requests = [
            DesignRequest(
                problem=problem,
                parameters=DesignParameters(seed=0, repair_shortfall=True),
                strategy="spaa03",
                request_id="a",
            ),
            DesignRequest(problem=problem, strategy="greedy", request_id="b"),
        ]
        requests_path = tmp_path / "requests.jsonl"
        dump_requests_jsonl(requests, requests_path)
        out = tmp_path / "results.jsonl"
        code = main(
            ["batch", "--requests", str(requests_path), "--jobs", "2", "--out", str(out)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "batch of 2 designs" in output
        import json

        documents = [json.loads(line) for line in out.read_text().splitlines()]
        assert [d["kind"] for d in documents] == ["design-result"] * 2
        assert [d["request_id"] for d in documents] == ["a", "b"]

    def test_batch_missing_file_errors(self, tmp_path, capsys):
        assert main(["batch", "--requests", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read requests" in capsys.readouterr().err

    def test_batch_malformed_jsonl_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "design-request", "schema_version": 1\n')
        assert main(["batch", "--requests", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot read requests" in err
        assert "bad.jsonl:1" in err  # names the offending file and line

    def test_batch_wrong_document_kind_errors(self, tmp_path, capsys):
        path = tmp_path / "wrong.jsonl"
        path.write_text('{"kind": "design-result", "schema_version": 1}\n')
        assert main(["batch", "--requests", str(path)]) == 2
        assert "bad request document" in capsys.readouterr().err

    def test_batch_empty_file_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        assert main(["batch", "--requests", str(path)]) == 2
        assert "no requests" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("strategy", "options", "error"),
        [
            ("sharded:spaa03", {"jobs": [1]}, "jobs must be an integer or 'auto', got list"),
            ("sharded:spaa03", {"shards": 1.5}, "shards must be an integer or 'auto', got float"),
            ("nope", {}, "unknown designer 'nope'"),
        ],
    )
    def test_batch_request_the_designer_refuses_is_a_named_error(
        self, problem_file, tmp_path, capsys, strategy, options, error
    ):
        from repro.api import DesignRequest, dump_requests_jsonl

        path = tmp_path / "requests.jsonl"
        problem = load_problem(problem_file)
        request = DesignRequest(problem=problem, strategy=strategy, options=options)
        dump_requests_jsonl([request], path)
        assert main(["batch", "--requests", str(path)]) == 2
        assert error in capsys.readouterr().err


class TestShardedCli:
    @pytest.fixture
    def scale_problem_file(self, tmp_path):
        from repro.core.serialization import dump_problem
        from repro.workloads import InternetScaleConfig, generate_internet_scale_problem

        problem, _registry = generate_internet_scale_problem(
            InternetScaleConfig(num_sinks=80, sinks_per_metro=20), rng=2
        )
        path = tmp_path / "scale.json"
        dump_problem(problem, str(path))
        return str(path)

    def test_sharded_design_end_to_end(self, scale_problem_file, tmp_path, capsys):
        out = tmp_path / "sharded.json"
        code = main(
            [
                "design",
                "--problem",
                scale_problem_file,
                "--strategy",
                "sharded:spaa03",
                "--shards",
                "3",
                "--jobs",
                "2",
                "--seed",
                "5",
                "--repair",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sharded:spaa03" in output
        problem = load_problem(scale_problem_file)
        solution = load_solution(str(out), problem)
        assert not solution.unserved_demands()

    def test_unknown_sharded_inner_strategy_errors(self, problem_file, capsys):
        code = main(
            ["design", "--problem", problem_file, "--strategy", "sharded:bogus"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown inner strategy 'bogus'" in err
        assert "spaa03" in err  # lists the known catalogue

    def test_sharded_bound_only_inner_strategy_errors(self, problem_file, capsys):
        code = main(
            ["design", "--problem", problem_file, "--strategy", "sharded:lp-bound"]
        )
        assert code == 2
        assert "bound only" in capsys.readouterr().err

    def test_shards_flag_rejected_on_bound_only_strategy(self, problem_file, capsys):
        code = main(
            ["design", "--problem", problem_file, "--strategy", "lp-bound", "--shards", "4"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--shards" in err and "sharded:<strategy>" in err

    def test_pipeline_flags_rejected_on_sharded_baseline(self, problem_file, capsys):
        # The wrapper itself is not a baseline, but the flags reach the inner
        # greedy baseline, which ignores them; the guard must look through.
        code = main(
            [
                "design",
                "--problem",
                problem_file,
                "--strategy",
                "sharded:greedy",
                "--multiplier",
                "4",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--multiplier" in err and "sharded:greedy" in err

    def test_isp_diversity_upgrades_sharded_spaa03(self, tmp_path, capsys):
        # Mirrors the monolithic spaa03 -> spaa03-extended upgrade: the shards
        # must run the Section-6 extended rounding, not the standard pipeline.
        from repro.core.serialization import dump_problem
        from repro.workloads import RandomInstanceConfig, random_problem

        problem = random_problem(
            RandomInstanceConfig(
                num_colors=3,
                num_reflectors=8,
                success_threshold_range=(0.9, 0.96),
            ),
            rng=0,
        )
        problem_path = tmp_path / "colored.json"
        dump_problem(problem, str(problem_path))
        code = main(
            [
                "design",
                "--problem",
                str(problem_path),
                "--strategy",
                "sharded:spaa03",
                "--shards",
                "2",
                "--isp-diversity",
                "--repair",
            ]
        )
        assert code == 0
        assert "sharded:spaa03-extended" in capsys.readouterr().out

    def test_sharded_flags_rejected_on_plain_pipeline(self, problem_file, capsys):
        code = main(
            [
                "design",
                "--problem",
                problem_file,
                "--jobs",
                "2",
                "--partitioner",
                "metro",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "--partitioner" in err

    def test_list_strategies_mentions_sharded(self, capsys):
        assert main(["design", "--list-strategies"]) == 0
        assert "sharded:X" in capsys.readouterr().out


@pytest.fixture
def solution_file(problem_file, tmp_path):
    from repro.api import DesignRequest, get_designer
    from repro.core.serialization import dump_solution

    problem = load_problem(problem_file)
    solution = get_designer("greedy").design(DesignRequest(problem=problem)).solution
    path = tmp_path / "solution.json"
    dump_solution(solution, str(path))
    return str(path)


class TestSimulateMonteCarlo:
    def test_list_scenarios(self, capsys):
        assert main(["simulate", "--list-scenarios"]) == 0
        output = capsys.readouterr().out
        for name in ("baseline", "isp-outage", "regional-failure", "flash-crowd", "bursty-links"):
            assert name in output

    def test_trials_switch_to_vectorized_engine(self, problem_file, solution_file, capsys):
        code = main(
            [
                "simulate",
                "--problem",
                problem_file,
                "--solution",
                solution_file,
                "--packets",
                "400",
                "--trials",
                "8",
                "--window",
                "80",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Monte-Carlo simulation (8 trials x 400 packets)" in output
        assert "mean_loss" in output and "95% CI" in output

    @pytest.mark.parametrize("mode", ["single", "traced", "scenario"])
    @pytest.mark.parametrize(
        "flag", ["--packets", "--trials", "--window", "--demand-tile", "--trial-tile"]
    )
    def test_non_positive_numeric_flag_is_a_clean_error(
        self, problem_file, solution_file, capsys, flag, mode
    ):
        args = ["simulate", "--problem", problem_file, "--solution", solution_file]
        args += {
            "single": [],
            "traced": ["--trace", "diurnal"],
            "scenario": ["--scenario", "baseline"],
        }[mode]
        with pytest.raises(SystemExit) as excinfo:
            main(args + [flag, "0"])
        assert excinfo.value.code == 2
        assert f"argument {flag}: must be an integer >= 1, got 0" in capsys.readouterr().err

    def test_scenario_sweep(self, problem_file, solution_file, capsys):
        code = main(
            [
                "simulate",
                "--problem",
                problem_file,
                "--solution",
                solution_file,
                "--packets",
                "300",
                "--trials",
                "4",
                "--window",
                "40",
                "--scenario",
                "baseline,flash-crowd",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "reliability sweep" in output
        assert "flash-crowd" in output and "baseline" in output

    def test_scenario_sweep_parallel_matches_serial(
        self, problem_file, solution_file, capsys
    ):
        args = [
            "simulate",
            "--problem",
            problem_file,
            "--solution",
            solution_file,
            "--packets",
            "200",
            "--trials",
            "3",
            "--window",
            "40",
            "--scenario",
            "all",
        ]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # Deterministic given the seed, independent of --jobs (title aside).
        assert serial.splitlines()[2:] == parallel.splitlines()[2:]

    def test_unknown_scenario_errors(self, problem_file, solution_file, capsys):
        code = main(
            [
                "simulate",
                "--problem",
                problem_file,
                "--solution",
                solution_file,
                "--scenario",
                "nope",
            ]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_simulate_requires_files(self, capsys):
        assert main(["simulate"]) == 2
        assert "--problem and --solution" in capsys.readouterr().err


class TestStreamingCli:
    def test_list_traces(self, capsys):
        assert main(["simulate", "--list-traces"]) == 0
        output = capsys.readouterr().out
        assert "diurnal" in output and "metro-diurnal" in output

    def test_stream_run_with_traces_and_memory_bound(
        self, problem_file, solution_file, capsys
    ):
        code = main(
            [
                "simulate",
                "--problem",
                problem_file,
                "--solution",
                solution_file,
                "--packets",
                "300",
                "--trials",
                "4",
                "--window",
                "100",
                "--seed",
                "1",
                "--max-memory",
                "64M",
                "--trace",
                "diurnal,metro-diurnal",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Monte-Carlo simulation (4 trials x 300 packets)" in output
        assert "trace replay: diurnal" in output
        assert "trace replay: metro-diurnal" in output
        assert "per-demand reliability (worst 2 of 2 by mean loss)" in output
        assert "loss_std" in output and "more demands not shown" not in output

    @pytest.mark.parametrize("mode", ["single", "scenario"])
    def test_trace_and_tiles_work_on_every_path(
        self, problem_file, solution_file, capsys, mode
    ):
        args = ["simulate", "--problem", problem_file, "--solution", solution_file]
        args += ["--packets", "200", "--trials", "4", "--window", "40"]
        args += ["--trace", "diurnal", "--demand-tile", "1", "--trial-tile", "2"]
        if mode == "scenario":
            args += ["--scenario", "baseline"]
        assert main(args) == 0
        output = capsys.readouterr().out
        if mode == "scenario":
            assert "trace:diurnal:peak_window_loss" in output
        else:
            assert "trace replay: diurnal" in output
            # Two served demands x two trial tiles.
            assert "num_tiles                   4" in output

    @pytest.mark.parametrize("mode", ["single", "scenario"])
    def test_impossible_memory_bound_is_a_clean_error(
        self, problem_file, solution_file, capsys, mode
    ):
        args = ["simulate", "--problem", problem_file, "--solution", solution_file]
        args += ["--max-memory", "1"]
        if mode == "scenario":
            args += ["--scenario", "baseline"]
        assert main(args) == 2
        assert "single demand row" in capsys.readouterr().err

    def test_unparseable_memory_size_errors(self, problem_file, solution_file, capsys):
        args = [
            "simulate",
            "--problem",
            problem_file,
            "--solution",
            solution_file,
        ]
        assert main(args + ["--max-memory", "lots"]) == 2
        assert "memory" in capsys.readouterr().err.lower()
        assert main(args + ["--max-memory", "0"]) == 2
        capsys.readouterr()

    def test_unknown_trace_lists_the_catalogue(
        self, problem_file, solution_file, capsys
    ):
        code = main(
            [
                "simulate",
                "--problem",
                problem_file,
                "--solution",
                solution_file,
                "--trace",
                "no-such-trace",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown trace" in err and "diurnal" in err

    def test_per_demand_table_is_bounded_worst_first(self, tmp_path, capsys):
        from repro.api import DesignRequest, get_designer
        from repro.cli import DEMAND_TABLE_ROWS
        from repro.core.serialization import dump_solution
        from repro.workloads import RandomInstanceConfig, random_problem

        problem = random_problem(
            RandomInstanceConfig(num_streams=2, num_reflectors=6, num_sinks=40), rng=3
        )
        solution = get_designer("greedy").design(DesignRequest(problem=problem)).solution
        problem_path, solution_path = tmp_path / "p.json", tmp_path / "s.json"
        dump_problem(problem, str(problem_path))
        dump_solution(solution, str(solution_path))
        args = ["simulate", "--problem", str(problem_path), "--solution", str(solution_path)]
        assert main(args + ["--packets", "400", "--trials", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        total = problem.num_demands
        assert total > DEMAND_TABLE_ROWS
        title = lines.index(
            f"per-demand reliability (worst {DEMAND_TABLE_ROWS} of {total} by mean loss)"
        )
        rows = lines[title + 3 : title + 3 + DEMAND_TABLE_ROWS]
        means = [float(row.split()[2]) for row in rows]
        assert means == sorted(means, reverse=True)
        assert lines[title + 3 + DEMAND_TABLE_ROWS] == (
            f"({total - DEMAND_TABLE_ROWS} more demands not shown)"
        )


class TestBenchSuites:
    def test_unknown_suite_lists_tags(self, capsys):
        assert main(["bench", "--suite", "bogus", "--out", "/tmp/ignored"]) == 2
        err = capsys.readouterr().err
        assert "unknown suite" in err and "reliability" in err

    def test_list_shows_reliability_tag(self, capsys):
        assert main(["bench", "--list"]) == 0
        output = capsys.readouterr().out
        assert "r2" in output and "r3" in output and "reliability" in output

    def test_list_shows_suite_tags_for_every_scenario(self, capsys):
        from repro.analysis.runner import scenario_ids, suite_tags

        assert main(["bench", "--list"]) == 0
        output = capsys.readouterr().out
        tagged = {sid for members in suite_tags().values() for sid in members}
        # Every built-in scenario carries at least one suite tag, and the
        # listing prints the tags so e.g. r2/r3 and t8 are distinguishable
        # from the paper suite at a glance.  (Underscore-prefixed ids are
        # synthetic test doubles registered by other test modules.)
        builtin = {sid for sid in scenario_ids() if not sid.startswith("_")}
        assert builtin <= tagged
        for tag in ("paper", "comparison", "figures", "reliability", "scale", "perf"):
            assert tag in output

    def test_scale_suite_expands_to_i1_and_t8(self):
        from repro.analysis.runner import expand_scenario_ids

        assert expand_scenario_ids(["scale"]) == ["i1", "r3", "t8"]
        assert expand_scenario_ids(["reliability"]) == ["a1", "r2", "r3"]

    def test_reliability_suite_smoke(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--suite",
                "reliability",
                "--smoke",
                "--out",
                str(tmp_path),
                "--master-seed",
                "0",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "R2" in output and "R3" in output
        assert (tmp_path / "BENCH_R2.json").exists()
        assert (tmp_path / "BENCH_R3.json").exists()


class TestParser:
    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            main(["generate", "--workload", "random"])


def _write_bad_document(path, kind: str, role: str) -> None:
    """Write one malformed ``role`` ("problem"/"solution") document, or none."""
    import json

    if kind == "missing-file":
        return
    if kind == "not-json":
        path.write_text("{not json")
        return
    if kind == "empty-object":
        path.write_text("{}")
        return
    if role == "problem":
        document = problem_to_dict(build_tiny_problem())
        del document["demands"][0]["success_threshold"]
    else:
        document = {
            "format_version": 1,
            "kind": "overlay-solution",
            "assignments": [{"sink": "d1", "stream": "s"}],
        }
    path.write_text(json.dumps(document))


class TestBadDocuments:
    """A malformed problem or solution file is a named error (exit 2), never a traceback."""

    #: (command, which of its documents is malformed, extra arguments).
    CASES = [
        ("design", "problem", []),
        ("evaluate", "problem", []),
        ("evaluate", "solution", []),
        ("simulate", "problem", ["--packets", "50"]),
        ("simulate", "solution", ["--packets", "50"]),
        ("update", "problem", ["--event", "sink-churn"]),
        ("update", "solution", ["--event", "sink-churn"]),
    ]

    @pytest.mark.parametrize("kind", ["missing-file", "not-json", "empty-object", "missing-field"])
    @pytest.mark.parametrize("command,role,extra", CASES, ids=[f"{c}-{r}" for c, r, _ in CASES])
    def test_bad_document_exits_2_naming_the_file(
        self, command, role, extra, kind, problem_file, solution_file, tmp_path, capsys
    ):
        bad = tmp_path / f"bad-{role}.json"
        _write_bad_document(bad, kind, role)
        paths = {"problem": problem_file, "solution": solution_file, role: str(bad)}
        argv = [command, "--problem", paths["problem"]]
        if command != "design":
            argv += ["--solution", paths["solution"]]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and str(bad) in err
        assert "Traceback" not in err


class TestSolverCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["design", "--list-backends"],
            ["design", "--problem", "p.json", "--solver-backend", "highs"],
            ["update", "--problem", "p.json", "--solution", "s.json", "--solver-backend", "highs"],
        ],
        ids=["design-list-backends", "design-solver-backend", "update-solver-backend"],
    )
    def test_removed_solver_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_milp_flags_rejected_on_non_milp_strategy(self, problem_file, capsys):
        code = main(
            [
                "design",
                "--problem",
                problem_file,
                "--strategy",
                "greedy",
                "--time-limit",
                "5",
            ]
        )
        assert code == 2
        assert "milp-exact" in capsys.readouterr().err
        code = main(
            [
                "design",
                "--problem",
                problem_file,
                "--strategy",
                "spaa03",
                "--mip-gap",
                "0.01",
            ]
        )
        assert code == 2
        assert "milp-exact" in capsys.readouterr().err

    def test_design_with_milp_exact_strategy(self, problem_file, tmp_path, capsys):
        out = tmp_path / "milp.json"
        code = main(
            [
                "design",
                "--problem",
                problem_file,
                "--strategy",
                "milp-exact",
                "--time-limit",
                "30",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "milp-exact" in output
        solution = load_solution(str(out), load_problem(problem_file))
        assert solution.metadata["algorithm"] == "milp-exact"


class TestScenariosCli:
    """The `repro scenarios` subcommand and DSL files on `simulate --scenario`."""

    def _dsl_spec(self, name="cli-custom"):
        return {
            "version": 1,
            "name": name,
            "description": "a cli test scenario",
            "primitives": [{"kind": "isp-outage"}],
        }

    @pytest.fixture(autouse=True)
    def _clean_catalogue(self):
        from repro.simulation.scenarios import _REGISTRY, _ensure_shipped_scenarios

        _ensure_shipped_scenarios()
        before = set(_REGISTRY)
        yield
        for name in set(_REGISTRY) - before:
            del _REGISTRY[name]

    def test_scenarios_list(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        assert "baseline" in output and "built-in" in output
        assert "metro-quake" in output and "dsl" in output

    def test_scenarios_validate_shipped(self, capsys):
        assert main(["scenarios", "--validate"]) == 0
        output = capsys.readouterr().out
        assert "10 scenario file(s) valid" in output

    def test_scenarios_validate_bad_file_exits_2(self, tmp_path, capsys):
        import json

        good = tmp_path / "good.json"
        good.write_text(json.dumps(self._dsl_spec("cli-good")))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 9, "primitives": []}))
        code = main(["scenarios", "--validate", str(good), str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert "ok" in captured.out and "cli-good" in captured.out
        assert "FAIL" in captured.err
        assert "[bad-version]" in captured.err  # named codes reach the user

    def test_scenarios_show_dsl(self, capsys):
        assert main(["scenarios", "--show", "metro-quake"]) == 0
        output = capsys.readouterr().out
        assert "metro-quake" in output and "normalized spec" in output

    def test_scenarios_show_unknown_exits_2(self, capsys):
        assert main(["scenarios", "--show", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "baseline" in err

    def test_simulate_with_dsl_file(self, problem_file, solution_file, tmp_path, capsys):
        import json

        path = tmp_path / "custom.json"
        path.write_text(json.dumps(self._dsl_spec()))
        code = main(
            [
                "simulate",
                "--problem",
                problem_file,
                "--solution",
                solution_file,
                "--packets",
                "200",
                "--trials",
                "3",
                "--window",
                "40",
                "--scenario",
                f"baseline,{path}",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "cli-custom" in output and "baseline" in output

    def test_simulate_invalid_dsl_file_exits_2(
        self, problem_file, solution_file, tmp_path, capsys
    ):
        import json

        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"version": 1, "name": "x!", "primitives": []}))
        code = main(
            [
                "simulate",
                "--problem",
                problem_file,
                "--solution",
                solution_file,
                "--scenario",
                str(path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid scenario" in err or "FAIL" in err

    def test_simulate_missing_dsl_file_exits_2(
        self, problem_file, solution_file, tmp_path, capsys
    ):
        code = main(
            [
                "simulate",
                "--problem",
                problem_file,
                "--solution",
                solution_file,
                "--scenario",
                str(tmp_path / "nope.yaml"),
            ]
        )
        assert code == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_simulate_unknown_scenario_names_catalogue(
        self, problem_file, solution_file, capsys
    ):
        code = main(
            [
                "simulate",
                "--problem",
                problem_file,
                "--solution",
                solution_file,
                "--scenario",
                "not-a-scenario",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        # The error names the available catalogue, shipped scenarios included.
        assert "unknown scenario" in err
        assert "metro-quake" in err


class TestGenerateAsGeo:
    def test_generate_as_geo(self, tmp_path, capsys):
        out = tmp_path / "asgeo.json"
        code = main(
            [
                "generate",
                "--workload",
                "as-geo",
                "--sinks",
                "60",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        problem = load_problem(str(out))
        assert problem.num_sinks == 60
        assert problem.feasibility_report() == []
        # Metro-grounded names: clusters recoverable, e.g. tokyo-s0.
        assert any(sink.startswith("tokyo-") for sink in problem.sinks)
