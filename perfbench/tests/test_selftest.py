"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.

The injected-delay test runs the benchmark in-process on small instances,
with and without a fixed sleep before every ``request_digest`` call the
design service makes.  The delay must raise that layer's metric
(``serve.digest_s_p50``) and the end-to-end metric it maps to
(``op_p50_s`` on serve-mix), while design-mono, which never enters the
service, stays within its bounds.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import repro.serve.service as service_module  # noqa: E402
import run as bench_run  # noqa: E402
import wl_design  # noqa: E402
import wl_serve  # noqa: E402
from pbcore import Tracer, delayed_call, patched  # noqa: E402

DELAY_S = 0.05
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}


@pytest.fixture(autouse=True)
def small_instances(monkeypatch):
    monkeypatch.setattr(wl_serve, "NUM_SINKS", 100)
    monkeypatch.setattr(wl_design, "NUM_SINKS", 60)
    monkeypatch.setattr(wl_design, "LADDER", (30, 45, 60))


def bench(capsys, workload: str, trace: int, delay: float | None = None) -> dict[str, float]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "6", "--trace", str(trace)]
    slowed = (
        patched(service_module, "request_digest", delayed_call(delay))
        if delay is not None
        else nullcontext()
    )
    with slowed:
        code = bench_run.main(argv)
    out = capsys.readouterr().out
    assert code == 0, out[-2000:]
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("trace,metric", [(1, "serve.digest_s_p50"), (0, "op_p50_s")])
def test_digest_delay_moves_its_layer_and_mapped_metric(capsys, trace, metric):
    base = bench(capsys, "serve-mix", trace)
    slow = bench(capsys, "serve-mix", trace, DELAY_S)
    assert slow[metric] >= base[metric] + 0.5 * DELAY_S


def test_digest_delay_leaves_bypassing_workload_within_bounds(capsys):
    base = bench(capsys, "design-mono", 0)
    slow = bench(capsys, "design-mono", 0, DELAY_S)
    for metric in ("op_p50_s", "op_mean_s"):
        assert slow[metric] <= base[metric] * (1 + BOUNDS[metric])
    assert slow["work_per_s"] >= base["work_per_s"] * (1 - BOUNDS["work_per_s"])
    assert slow["cost_ratio"] == base["cost_ratio"]


def test_self_time_subtracts_children_and_coverage_counts_layers():
    tracer = Tracer()
    with tracer.span("op", op="a"):
        with tracer.span("layer"):
            time.sleep(0.02)
        time.sleep(0.01)
    root, layer = tracer.spans
    own = tracer.self_seconds()
    assert own[layer.index] == pytest.approx(layer.seconds)
    assert own[root.index] == pytest.approx(root.seconds - layer.seconds)
    assert tracer.layer_seconds_by_op() == {"a": {"layer": own[layer.index]}}
    (coverage,) = tracer.coverage()
    assert 0.5 < coverage < 0.8


def test_close_op_adopts_spans_recorded_without_a_parent():
    tracer = Tracer()
    tracer.record("queue", 1.0, 2.0, op="r")
    tracer.record("work", 2.0, 4.0, op="r")
    tracer.close_op("r", 0.0, 4.0)
    assert tracer.coverage() == [pytest.approx(0.75)]


def test_benchmark_json_has_the_declared_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in BOUNDS and all(0 < b <= 0.25 for b in BOUNDS.values())
    assert BOUNDS["setup_s"] == max(BOUNDS.values())
    described = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    assert set(described["layer_map"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(described["workloads"]) == {w["name"] for w in SPEC["workloads"]}
