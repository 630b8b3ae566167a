"""The repository's benchmark: four workloads over the public ``repro`` API.

Run from the repository root::

    python3 perfbench/run.py --workload design-mono --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
tracing; ``--trace 1`` runs the traced variant and reports the per-layer
metrics (layers a workload does not exercise read 0).  Human-readable lines
(every metric with its unit and sample count, ``fail_frac``, run metadata)
come first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when a
correctness gate or a traced-replay check fails, and when ``src/repro`` is
missing.  ``perfbench/spec.json`` describes each workload and maps every
per-layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / "perfbench" / "out"

# One compute thread per process: the benchmark measures the program, not
# how many BLAS threads the machine lends it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

WORKLOADS = {
    "design-mono": "wl_design",
    "serve-mix": "wl_serve",
    "churn-session": "wl_churn",
    "audit-sweep": "wl_audit",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure ({src / 'repro'} is missing)")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _metadata(args: argparse.Namespace, outcome) -> dict:
    import numpy
    import scipy

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "jobs": 1,
        "service_workers": 2,
    }
    meta.update(outcome.info.get("meta", {}))
    return meta


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from pbcore import RunContext

    ctx = RunContext(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    outcome = importlib.import_module(WORKLOADS[args.workload]).run(ctx)

    declared = spec["per_layer"] if ctx.trace else spec["end_to_end"]
    undeclared = sorted(set(outcome.metrics) - {m["name"] for m in spec["per_layer"]}
                        - {m["name"] for m in spec["end_to_end"]})
    if undeclared:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in outcome.metrics:
            value, count = outcome.metrics[name]
        elif ctx.trace:
            value, count = 0.0, 0  # a layer this workload does not exercise
        else:
            raise SystemExit(f"perfbench: {args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit} (n={count})")
    for name, (value, count) in outcome.report.items():
        print(f"{name} = {value:.6g} (n={count}, reported, not gated)")
    print(f"fail_frac = {outcome.failed / max(outcome.attempted, 1):.6g} "
          f"({outcome.failed}/{outcome.attempted})")
    print("meta " + json.dumps(_metadata(args, outcome), sort_keys=True))
    coverage = outcome.metrics.get("trace.coverage_min")
    if coverage is not None and coverage[0] < 0.9:
        print(f"perfbench: layer spans cover only {coverage[0]:.1%} of an operation",
              file=sys.stderr)
    tracer = outcome.info.get("tracer")
    if tracer is not None:
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")

    for message in outcome.gate_failures:
        print(f"perfbench: correctness gate failed: {message}", file=sys.stderr)
    for message in outcome.replay_failures:
        print(f"perfbench: traced replay mismatch: {message}", file=sys.stderr)
    correct = not outcome.gate_failures and not outcome.replay_failures
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
