"""Bench gates as data: every old check survives as a ``Gate`` row.

``repro bench`` checks each record with one validator,
:func:`~repro.analysis.runner.check_gates`, reading each scenario's
``gates`` table and ``gate_values``.  These tests hold that table to the
hand-written checks it replaced (``tests/gate_oracle.py``):

* every gate passes on the committed records, and every gate is evaluated on
  them -- full-only gates on the full records, all others on the smoke
  baseline CI compares against;
* every (gate, record) pair trips when the value it reads is pushed past its
  bound, and the failure line names the gate;
* on seeded perturbations of every committed record's rows (``metrics``
  recomputed by ``derive_metrics``, as ``run_scenario`` does), on per-row
  values set on, just inside and just outside their bounds, and on cells set
  around where a record-level gate crosses its bound, the oracle fails
  exactly when the gates fail.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from pathlib import Path

import pytest
from gate_oracle import oracle_failures

from repro.analysis.runner import (
    BenchRecord,
    Gate,
    ScenarioSpec,
    check_gates,
    evaluate_gates,
    gate_scope,
    get_scenario,
    load_suite,
    scenario_ids,
)

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
SMOKE = load_suite(RESULTS / "baseline.json")
FULL = {
    sid: BenchRecord.load(RESULTS / f"BENCH_{sid.upper()}.json")
    for sid in ("a1", "i1", "s1", "t8", "tiny")
}
RECORDS = {f"smoke-{sid}": record for sid, record in sorted(SMOKE.items())}
RECORDS.update({f"full-{sid}": record for sid, record in sorted(FULL.items())})

#: Shifts onto and around a bound, straddling the 1e-9 slack of the old
#: checks, and the scales and larger shifts of the seeded perturbations.
BOUNDARY_DELTAS = (-2e-9, -1e-10, 0.0, 1e-10, 2e-9)
SCALES = (0.0, 0.5, 0.9, 0.999, 1.001, 1.1, 2.0)
SHIFTS = (-0.05, -2e-9, -1e-10, 1e-10, 2e-9, 0.05)
PERTURBATIONS_PER_RECORD = 400


def _spec(record: BenchRecord) -> ScenarioSpec:
    return get_scenario(record.scenario_id)


def _with_rows(record: BenchRecord, rows: list[dict]) -> BenchRecord | None:
    """``record`` over ``rows``, metrics recomputed as ``run_scenario`` does
    (``None`` when ``derive_metrics`` cannot read the rows)."""
    spec = _spec(record)
    metrics = {}
    if spec.derive_metrics is not None:
        try:
            metrics = {name: float(value) for name, value in spec.derive_metrics(rows).items()}
        except (KeyError, ValueError, ZeroDivisionError):
            return None
    return dataclasses.replace(record, rows=rows, metrics=metrics)


def _fails(check, record: BenchRecord) -> bool:
    """Whether ``check`` reports a failure; raising counts as failing."""
    try:
        return bool(check(record))
    except (KeyError, ValueError, ZeroDivisionError):
        return True


def _agree(record: BenchRecord) -> tuple[bool, bool]:
    return _fails(oracle_failures, record), _fails(lambda r: check_gates(_spec(r), r), record)


def test_the_committed_records_cover_the_catalogue():
    registered = {sid for sid in scenario_ids() if not sid.startswith("_")}
    assert set(SMOKE) == registered
    assert all(record.smoke for record in SMOKE.values())
    assert not any(record.smoke for record in FULL.values())


@pytest.mark.parametrize("label", sorted(RECORDS))
def test_every_gate_passes_on_the_committed_record(label):
    record = RECORDS[label]
    assert check_gates(_spec(record), record) == []
    assert oracle_failures(record) == []


@pytest.mark.parametrize("label", sorted(RECORDS))
def test_every_gate_is_evaluated_on_the_committed_record(label):
    record = RECORDS[label]
    spec = _spec(record)
    expected = {gate for gate in spec.gates if not (record.smoke and gate.full_only)}
    assert {check.gate for check in evaluate_gates(spec, record)} == expected


COMMITTED = sorted(RESULTS.glob("BENCH_*.json"))


def test_every_scenario_has_a_committed_record():
    assert {path.stem[len("BENCH_") :].lower() for path in COMMITTED} == set(SMOKE)


@pytest.mark.parametrize("path", COMMITTED, ids=[path.name for path in COMMITTED])
def test_every_committed_record_passes_and_evaluates_its_gates(path):
    """Each committed ``BENCH_*.json``, smoke or full, passes every gate it
    is held to: the full-only gates too on a full record."""
    record = BenchRecord.load(path)
    spec = _spec(record)
    assert check_gates(spec, record) == []
    expected = {gate for gate in spec.gates if not (record.smoke and gate.full_only)}
    assert {check.gate for check in evaluate_gates(spec, record)} == expected


def test_full_only_gates_are_the_four_wall_clock_speedups():
    full_only = {
        (sid, gate.value)
        for sid in SMOKE
        for gate in get_scenario(sid).gates
        if gate.full_only
    }
    assert full_only == {
        ("t8", "speedup_vs_monolithic"),
        ("i1", "speedup_vs_scratch"),
        ("s1", "repeat_speedup"),
        ("s1", "session_speedup"),
    }


def _push(check) -> float:
    """A value past ``check``'s bound (and past the named-bound slack)."""
    margin = 1.0 + abs(check.bound)
    if check.gate.op in ("<=", "<", "=="):
        return check.bound + margin
    return check.bound - margin


def _trip_cases() -> list[tuple[str, int]]:
    cases = []
    for label, record in sorted(RECORDS.items()):
        spec = _spec(record)
        evaluated = {check.gate for check in evaluate_gates(spec, record)}
        cases.extend(
            (label, index) for index, gate in enumerate(spec.gates) if gate in evaluated
        )
    return cases


@pytest.mark.parametrize(("label", "index"), _trip_cases())
def test_a_gate_trips_when_its_value_is_pushed_past_its_bound(label, index):
    record = RECORDS[label]
    spec = _spec(record)
    gate = spec.gates[index]
    check = next(check for check in evaluate_gates(spec, record) if check.gate == gate)
    pushed = _push(check)
    record = copy.deepcopy(record)
    if gate.per_row:
        record.rows[check.row][gate.value] = pushed
    elif gate.value in record.metrics:
        record.metrics[gate.value] = pushed
    else:
        derive = spec.gate_values
        spec = dataclasses.replace(
            spec, gate_values=lambda rows: {**derive(rows), gate.value: pushed}
        )
    failures = check_gates(spec, record)
    where = f"row {check.row}: " if gate.per_row else ""
    assert any(line.startswith(f"{where}{gate} failed") for line in failures), failures


def _perturbed_rows(rows: list[dict], rng: random.Random) -> list[dict]:
    """``rows`` with one to three numeric cells changed: a 0/1 flag flips, any
    other number is scaled or shifted."""
    rows = copy.deepcopy(rows)
    cells = [
        (index, key)
        for index, row in enumerate(rows)
        for key, value in row.items()
        if isinstance(value, (int, float))
    ]
    for index, key in rng.sample(cells, min(len(cells), rng.randint(1, 3))):
        value = rows[index][key]
        if isinstance(value, bool):
            rows[index][key] = not value
        elif isinstance(value, int) and value in (0, 1):
            rows[index][key] = 1 - value
        elif rng.random() < 0.5:
            rows[index][key] = value * rng.choice(SCALES)
        else:
            rows[index][key] = value + rng.choice(SHIFTS)
    return rows


@pytest.mark.parametrize("label", sorted(RECORDS))
def test_gates_fail_exactly_when_the_old_checks_fail(label):
    record = RECORDS[label]
    rng = random.Random(f"gates-{label}")
    outcomes, mismatches = [], []
    for _ in range(PERTURBATIONS_PER_RECORD):
        perturbed = _with_rows(record, _perturbed_rows(record.rows, rng))
        if perturbed is None:
            continue
        oracle, gates = _agree(perturbed)
        outcomes.append(oracle)
        if oracle != gates:
            mismatches.append((oracle, gates, oracle_failures(perturbed)))
    assert mismatches == []
    # Not vacuous: the perturbations both break and keep the record.
    assert any(outcomes) and not all(outcomes)


def _boundary_cases() -> list[tuple[str, Gate, int, float]]:
    """(record, gate, row, value): every per-row inequality gate's value set
    on, just inside and just outside its bound on every row it reads."""
    cases = []
    for label, record in sorted(RECORDS.items()):
        for check in evaluate_gates(_spec(record), record):
            if check.gate.per_row and check.gate.op != "==":
                cases.extend(
                    (label, check.gate, check.row, check.bound + delta)
                    for delta in BOUNDARY_DELTAS
                )
    return cases


def test_gates_and_old_checks_agree_at_every_per_row_bound():
    cases = _boundary_cases()
    assert any(isinstance(gate.bound, str) for _, gate, _, _ in cases)
    mismatches = []
    for label, gate, row, value in cases:
        record = RECORDS[label]
        rows = copy.deepcopy(record.rows)
        rows[row][gate.value] = value
        oracle, gates = _agree(_with_rows(record, rows))
        if oracle != gates:
            mismatches.append((label, str(gate), row, value, oracle, gates))
    assert mismatches == []


def _scope_crossings(record: BenchRecord) -> list[tuple[int, str, float]]:
    """(row, column, value): each numeric cell set on, just inside and just
    outside the value at which a record-level gate it moves meets its bound.

    The crossing is solved from the gate's change when the cell moves by one
    (exact for the difference relations, a local guess across a max or min).
    """
    spec = _spec(record)
    gates = [
        gate for gate in spec.gates if not gate.per_row and not (record.smoke and gate.full_only)
    ]

    def margins(scope: dict) -> dict[Gate, float]:
        out = {}
        for gate in gates:
            bound = scope.get(gate.bound) if isinstance(gate.bound, str) else gate.bound
            if gate.value in scope and bound is not None:
                out[gate] = scope[gate.value] - bound
        return out

    base = margins(gate_scope(spec, record))
    crossings = set()
    for index, row in enumerate(record.rows):
        for key, cell in row.items():
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                continue
            rows = copy.deepcopy(record.rows)
            rows[index][key] = cell + 1.0
            moved = _with_rows(record, rows)
            try:
                shifted = margins(gate_scope(spec, moved)) if moved is not None else {}
            except (KeyError, ValueError, ZeroDivisionError):
                continue
            for gate, margin in shifted.items():
                slope = margin - base.get(gate, margin)
                if slope:
                    target = cell - base[gate] / slope
                    scale = max(1.0, abs(target))
                    crossings.update(
                        (index, key, target + delta * scale) for delta in BOUNDARY_DELTAS
                    )
    return sorted(crossings)


@pytest.mark.parametrize("label", sorted(RECORDS))
def test_gates_and_old_checks_agree_where_a_record_level_gate_crosses_its_bound(label):
    record = RECORDS[label]
    mismatches = []
    for index, key, value in _scope_crossings(record):
        rows = copy.deepcopy(record.rows)
        rows[index][key] = value
        crossed = _with_rows(record, rows)
        if crossed is None:
            continue
        oracle, gates = _agree(crossed)
        if oracle != gates:
            mismatches.append((index, key, value, oracle, gates))
    assert mismatches == []


class TestCheckGates:
    def _spec(self, *gates: Gate, values=None) -> ScenarioSpec:
        return ScenarioSpec(
            scenario_id="_gates",
            title="gates",
            task_fn=dict,
            make_tasks=lambda master_seed, smoke: [],
            gates=gates,
            gate_values=values,
        )

    def _record(self, rows, metrics=None, smoke=False) -> BenchRecord:
        return BenchRecord(
            bench_id="_GATES",
            scenario_id="_gates",
            title="gates",
            master_seed=0,
            smoke=smoke,
            jobs=1,
            rows=rows,
            aggregates={},
            timings={},
            metrics=metrics or {},
            environment={},
            created_at="",
            elapsed_seconds=0.0,
        )

    def test_unknown_op_is_refused(self):
        with pytest.raises(ValueError, match="gate op"):
            Gate("x", "!=", 0)

    def test_per_row_gate_names_the_row_and_skips_rows_without_the_column(self):
        spec = self._spec(Gate("gap", ">=", 1.0, per_row=True))
        record = self._record([{"gap": 1.5}, {"other": 0.0}, {"gap": 0.5}])
        assert check_gates(spec, record) == ["row 2: gap >= 1.0 failed (read 0.5)"]

    def test_named_bound_allows_the_old_slack_and_no_more(self):
        spec = self._spec(Gate("cost", "<=", "bound", per_row=True))
        inside = self._record([{"cost": 2.0 + 1e-9, "bound": 2.0}])
        outside = self._record([{"cost": 2.0 + 2e-9, "bound": 2.0}])
        assert check_gates(spec, inside) == []
        assert check_gates(spec, outside) == [
            f"row 0: cost <= bound failed (read {2.0 + 2e-9!r} against 2.0)"
        ]

    def test_numeric_bound_is_exact(self):
        spec = self._spec(Gate("cost", "<=", 2.0, per_row=True))
        assert check_gates(spec, self._record([{"cost": 2.0 + 1e-12}])) != []

    def test_missing_named_bound_fails(self):
        spec = self._spec(Gate("cost", "<=", "bound", per_row=True))
        assert check_gates(spec, self._record([{"cost": 1.0}])) == [
            "row 0: cost <= bound: bound 'bound' missing"
        ]

    def test_scope_reads_metrics_and_gate_values(self):
        spec = self._spec(
            Gate("ratio", "<=", 6.0),
            Gate("rows", "==", 2),
            values=lambda rows: {"rows": len(rows)},
        )
        record = self._record([{}], metrics={"ratio": 7.0})
        assert check_gates(spec, record) == [
            "ratio <= 6.0 failed (read 7.0)",
            "rows == 2 failed (read 1)",
        ]

    def test_a_value_left_out_is_not_evaluated(self):
        spec = self._spec(Gate("dominance", ">=", 0.0), values=lambda rows: {})
        assert evaluate_gates(spec, self._record([{}])) == []

    def test_a_name_in_both_scopes_is_an_error(self):
        spec = self._spec(Gate("x", ">=", 0.0), values=lambda rows: {"x": 1.0})
        with pytest.raises(ValueError, match="both metrics and gate_values"):
            gate_scope(spec, self._record([], metrics={"x": 1.0}))

    def test_full_only_gates_are_skipped_on_smoke_records(self):
        spec = self._spec(Gate("speedup", ">=", 10.0, per_row=True, full_only=True))
        rows = [{"speedup": 2.0}]
        assert check_gates(spec, self._record(rows, smoke=True)) == []
        assert check_gates(spec, self._record(rows, smoke=False)) != []

    def test_nan_fails_every_gate(self):
        spec = self._spec(*(Gate("x", op, 0.5, per_row=True) for op in ("<=", ">=", "==")))
        assert len(check_gates(spec, self._record([{"x": float("nan")}]))) == 3
