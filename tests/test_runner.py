"""Tests for the experiment-orchestration subsystem (repro.analysis.runner)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.experiments import run_size_sweep
from repro.analysis.runner import (
    SCHEMA_VERSION,
    TIMING_SUFFIX,
    BenchRecord,
    MetricPolicy,
    ScenarioSpec,
    aggregate_rows,
    classify_drift,
    compare_records,
    execute_tasks,
    get_scenario,
    register_scenario,
    resolve_jobs,
    run_scenario,
    scenario_ids,
)
from repro.cli import main


def _square_task(task: dict) -> dict:
    return {"seed": task["seed"], "value": float(task["seed"] ** 2)}


def _strip_timings(rows: list[dict]) -> list[dict]:
    return [
        {key: value for key, value in row.items() if not key.endswith(TIMING_SUFFIX)}
        for row in rows
    ]


def _make_record(**overrides) -> BenchRecord:
    base = dict(
        bench_id="X",
        scenario_id="x",
        title="synthetic",
        master_seed=0,
        smoke=False,
        jobs=1,
        rows=[{"metric_a": 1.0, "run_seconds": 0.5}],
        aggregates={"metric_a": {"count": 1, "min": 1.0, "mean": 1.0, "max": 1.0}},
        timings={},
        metrics={},
        environment={},
        created_at="2026-07-26T00:00:00+00:00",
        elapsed_seconds=0.1,
    )
    base.update(overrides)
    return BenchRecord(**base)


class TestExecutor:
    def test_inline_and_parallel_results_are_identical(self):
        tasks = [{"seed": seed} for seed in range(8)]
        serial = execute_tasks(_square_task, tasks, jobs=1)
        parallel = execute_tasks(_square_task, tasks, jobs=2)
        assert serial == parallel
        assert [row["seed"] for row in serial] == list(range(8))

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs("3") == 3
        assert resolve_jobs("auto") >= 1
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_run_scenario_parallel_matches_serial_bit_for_bit(self):
        spec = get_scenario("tiny")
        serial = run_scenario(spec, jobs=1, master_seed=42, smoke=True)
        parallel = run_scenario(spec, jobs=2, master_seed=42, smoke=True)
        assert _strip_timings(serial.rows) == _strip_timings(parallel.rows)
        assert serial.aggregates == parallel.aggregates
        assert serial.metrics == parallel.metrics

    def test_master_seed_changes_the_seed_block(self):
        spec = get_scenario("tiny")
        a = run_scenario(spec, jobs=1, master_seed=0, smoke=True)
        b = run_scenario(spec, jobs=1, master_seed=99, smoke=True)
        assert [row["seed"] for row in a.rows] != [row["seed"] for row in b.rows]

    def test_size_sweep_parallel_matches_serial(self):
        serial = run_size_sweep(sizes=[(1, 4, 4), (1, 5, 6)], seeds=[0, 1], jobs=1)
        parallel = run_size_sweep(sizes=[(1, 4, 4), (1, 5, 6)], seeds=[0, 1], jobs=2)
        assert _strip_timings(serial.rows) == _strip_timings(parallel.rows)


class TestBenchRecordSchema:
    def test_round_trip_through_json_file(self, tmp_path):
        record = run_scenario(get_scenario("f3"), jobs=1, master_seed=0, smoke=True)
        path = record.save(tmp_path / "BENCH_F3.json")
        loaded = BenchRecord.load(path)
        assert loaded.to_dict() == record.to_dict()
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.metrics["fractional_max_flow"] == pytest.approx(3.5, abs=1e-6)

    def test_unknown_schema_version_is_rejected(self):
        data = _make_record().to_dict()
        data["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            BenchRecord.from_dict(data)

    def test_environment_metadata_is_recorded(self):
        record = run_scenario(get_scenario("f3"), jobs=1, smoke=True)
        assert record.environment["python"]
        assert "numpy" in record.environment
        assert "git_commit" in record.environment

    def test_aggregates_skip_timings_and_non_numeric(self):
        rows = [
            {"a": 1.0, "b": "text", "run_seconds": 1.0, "flag": True},
            {"a": 3.0, "b": "text", "run_seconds": 2.0, "flag": False},
        ]
        aggregates = aggregate_rows(rows, ["a", "b", "flag", "missing"])
        assert aggregates["a"] == {"count": 2, "min": 1.0, "mean": 2.0, "max": 3.0}
        assert "b" not in aggregates  # strings are not aggregated
        assert "flag" not in aggregates  # booleans are not metrics
        assert "missing" not in aggregates


class TestDriftClassification:
    def test_lower_is_better_directions(self):
        policy = MetricPolicy("lower", rel_tol=0.1)
        assert classify_drift(policy, 100.0, 120.0)[0] == "regression"
        assert classify_drift(policy, 100.0, 80.0)[0] == "improvement"
        assert classify_drift(policy, 100.0, 105.0)[0] == "neutral"

    def test_higher_is_better_directions(self):
        policy = MetricPolicy("higher", rel_tol=0.1)
        assert classify_drift(policy, 0.9, 0.5)[0] == "regression"
        assert classify_drift(policy, 0.5, 0.9)[0] == "improvement"

    def test_equal_direction_flags_any_drift(self):
        policy = MetricPolicy("equal", rel_tol=0.0, abs_tol=0.5)
        assert classify_drift(policy, 10.0, 11.0)[0] == "regression"
        assert classify_drift(policy, 10.0, 9.0)[0] == "regression"
        assert classify_drift(policy, 10.0, 10.4)[0] == "neutral"

    def test_tolerance_boundary_is_neutral(self):
        policy = MetricPolicy("lower", rel_tol=0.0, abs_tol=1.0)
        # Drift exactly at the tolerance is neutral; just beyond regresses.
        assert classify_drift(policy, 10.0, 11.0)[0] == "neutral"
        assert classify_drift(policy, 10.0, 11.0000001)[0] == "regression"

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            MetricPolicy("sideways")

    def test_missing_metric_in_current_is_a_regression(self):
        baseline = _make_record()
        current = _make_record(rows=[], aggregates={})
        report = compare_records(current, baseline, {"metric_a": MetricPolicy("lower")})
        assert [d.classification for d in report.drifts] == ["missing"]
        assert report.has_regressions

    def test_new_metric_in_current_is_neutral(self):
        baseline = _make_record(aggregates={})
        current = _make_record()
        report = compare_records(current, baseline, {"metric_a": MetricPolicy("lower")})
        assert [d.classification for d in report.drifts] == ["new"]
        assert not report.has_regressions

    def test_unlisted_metric_defaults_to_equal_policy(self):
        baseline = _make_record()
        current = _make_record(
            aggregates={"metric_a": {"count": 1, "min": 2.0, "mean": 2.0, "max": 2.0}}
        )
        report = compare_records(current, baseline, policies={})
        assert report.drifts[0].classification == "regression"

    def test_smoke_mismatch_is_incomparable(self):
        baseline = _make_record(smoke=True)
        current = _make_record(smoke=False)
        with pytest.raises(ValueError, match="smoke"):
            compare_records(current, baseline)

    def test_scenario_policies_used_by_default(self):
        # The registered tiny scenario declares total_cost as lower-is-better.
        record = run_scenario(get_scenario("tiny"), jobs=1, smoke=True)
        cheaper = BenchRecord.from_dict(record.to_dict())
        cheaper.aggregates = json.loads(json.dumps(cheaper.aggregates))
        cheaper.aggregates["total_cost"]["mean"] *= 0.5
        report = compare_records(record, cheaper)
        drift = {d.metric: d.classification for d in report.drifts}
        assert drift["total_cost"] == "regression"


def _failing_task(task: dict) -> dict:
    return {"value": 1.0}


register_scenario(
    ScenarioSpec(
        scenario_id="_always_failing",
        title="synthetic scenario whose thresholds always fail",
        task_fn=_failing_task,
        make_tasks=lambda master_seed, smoke: [{}],
        validate=lambda record: ["synthetic threshold failure"],
    )
)


class TestBenchCli:
    def test_list_shows_registered_scenarios(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for sid in ("t1", "t5", "c1", "f3", "tiny"):
            assert sid in out

    def test_unknown_suite_is_a_usage_error(self, capsys):
        assert main(["bench", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_run_writes_record_and_baseline(self, tmp_path, capsys):
        out = tmp_path / "results"
        baseline = tmp_path / "baseline.json"
        code = main(
            [
                "bench",
                "--suite",
                "tiny,f3",
                "--smoke",
                "--jobs",
                "2",
                "--out",
                str(out),
                "--baseline-out",
                str(baseline),
            ]
        )
        assert code == 0
        assert (out / "BENCH_TINY.json").exists()
        assert (out / "BENCH_F3.json").exists()
        assert (out / "TINY_pipeline.txt").exists()
        record = BenchRecord.load(out / "BENCH_TINY.json")
        assert record.smoke and record.jobs == 2
        suite = json.loads(baseline.read_text())
        assert set(suite["records"]) == {"tiny", "f3"}

    def test_jobs_parallel_matches_serial_artifact(self, tmp_path, capsys):
        for jobs in ("1", "2"):
            code = main(
                [
                    "bench",
                    "--suite",
                    "tiny",
                    "--smoke",
                    "--jobs",
                    jobs,
                    "--out",
                    str(tmp_path / f"jobs{jobs}"),
                ]
            )
            assert code == 0
        one = BenchRecord.load(tmp_path / "jobs1" / "BENCH_TINY.json")
        four = BenchRecord.load(tmp_path / "jobs2" / "BENCH_TINY.json")
        assert one.aggregates == four.aggregates
        assert one.metrics == four.metrics

    def test_clean_comparison_exits_zero(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "bench",
                    "--suite",
                    "tiny",
                    "--smoke",
                    "--out",
                    str(tmp_path / "a"),
                    "--baseline-out",
                    str(baseline),
                ]
            )
            == 0
        )
        code = main(
            [
                "bench",
                "--suite",
                "tiny",
                "--smoke",
                "--out",
                str(tmp_path / "b"),
                "--compare-to",
                str(baseline),
            ]
        )
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_injected_fake_regression_fails_the_run(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "bench",
                    "--suite",
                    "tiny",
                    "--smoke",
                    "--out",
                    str(tmp_path / "a"),
                    "--baseline-out",
                    str(baseline),
                ]
            )
            == 0
        )
        # Inject a seeded fake regression: pretend the baseline was cheaper.
        document = json.loads(baseline.read_text())
        document["records"]["tiny"]["aggregates"]["total_cost"]["mean"] *= 0.5
        baseline.write_text(json.dumps(document))
        code = main(
            [
                "bench",
                "--suite",
                "tiny",
                "--smoke",
                "--out",
                str(tmp_path / "b"),
                "--compare-to",
                str(baseline),
            ]
        )
        assert code == 3
        assert "regression" in capsys.readouterr().out

    def test_threshold_failures_exit_one_unless_disabled(self, tmp_path, capsys):
        args = ["bench", "--suite", "_always_failing", "--out", str(tmp_path)]
        assert main(args) == 1
        assert "synthetic threshold failure" in capsys.readouterr().err
        assert main([*args, "--no-validate"]) == 0

    def test_scenario_catalogue_is_complete(self):
        assert {
            "t1", "t2", "t3", "t4", "t5", "t6", "t7",
            "c1", "c2", "f1", "f2", "f3", "tiny",
        } <= set(scenario_ids())
