"""Report emission, parsing, seed-group summaries, and baseline comparison."""
from __future__ import annotations

import statistics

import pytest

from qccdmap.errors import InputError
from qccdmap.reporting import COLUMNS, RunRecord, compare, emit, emit_compare, load_records


def _record(**overrides) -> RunRecord:
    base = dict(
        label="qft-8",
        family="qft",
        qubits=8,
        placement="sta",
        seed=None,
        lookahead=4,
        topology="linear",
        traps=2,
        capacity=6,
        excess=2,
        one_qubit_gates=8,
        two_qubit_gates=28,
        slices=15,
        shuttles=12,
        swaps=3,
        total_time=5.55e-3,
        status="ok",
        invocation="compile ...",
        wall_clock=0.123,
    )
    base.update(overrides)
    return RunRecord(**base)


def test_csv_roundtrip_and_column_order():
    text = emit([_record()])
    assert text.splitlines()[0] == ",".join(COLUMNS)
    rows = load_records(text)
    assert len(rows) == 1
    r = rows[0]
    assert r["label"] == "qft-8"
    assert int(r["shuttles"]) == 12
    assert float(r["total_time"]) == pytest.approx(5.55e-3)
    assert "wall_clock" not in r


def test_json_roundtrip():
    text = emit([_record()], fmt="json")
    rows = load_records(text)
    assert rows[0]["swaps"] == 3
    assert rows[0]["total_time"] == pytest.approx(5.55e-3)


def test_wall_clock_only_on_request():
    with_wc = emit([_record()], include_wall_clock=True)
    assert with_wc.splitlines()[0].endswith(",wall_clock")
    assert load_records(with_wc)[0]["wall_clock"] != ""


def test_emission_is_byte_deterministic():
    records = [_record(placement="random", seed=s, total_time=1e-3 + s * 1e-5) for s in range(3)]
    assert emit(records) == emit(records)
    assert emit(records, fmt="json") == emit(records, fmt="json")


def test_seed_groups_get_mean_and_stddev_rows():
    times = [1.0e-3, 1.2e-3, 1.7e-3]
    records = [
        _record(placement="random", seed=s, total_time=t, shuttles=10 + s, swaps=s)
        for s, t in enumerate(times)
    ]
    rows = load_records(emit(records))
    assert [r["stat"] for r in rows] == ["", "", "", "mean", "stddev"]
    mean_row = rows[3]
    assert mean_row["seed"] == ""
    assert float(mean_row["total_time"]) == pytest.approx(statistics.mean(times))
    assert float(mean_row["shuttles"]) == pytest.approx(11.0)
    assert float(rows[4]["total_time"]) == pytest.approx(statistics.stdev(times))


def test_single_runs_get_no_summary_rows():
    rows = load_records(emit([_record(), _record(label="qaoa-8", family="qaoa")]))
    assert all(r["stat"] == "" for r in rows)


@pytest.mark.parametrize("row", [0, 1])
def test_csv_row_wider_than_header_rejected_with_its_line(row):
    lines = emit([_record(), _record(label="qaoa-8", family="qaoa")]).splitlines()
    lines[1 + row] += ",extra"
    with pytest.raises(InputError, match=f"line {2 + row} is wider than the header"):
        load_records("\n".join(lines) + "\n")


@pytest.mark.parametrize("row", [0, 1])
def test_csv_row_narrower_than_header_rejected_with_its_line(row):
    lines = emit([_record(), _record(label="qaoa-8", family="qaoa")]).splitlines()
    lines[1 + row] = lines[1 + row].rsplit(",", 2)[0]
    with pytest.raises(InputError, match=f"line {2 + row} is narrower than the header"):
        load_records("\n".join(lines) + "\n")


@pytest.mark.parametrize("field", ["label", "invocation"])
def test_csv_field_holding_a_carriage_return_is_refused(field):
    with pytest.raises(InputError, match=f"report field {field} holds a carriage return"):
        emit([_record(**{field: "a\rb"})])
    # JSON escapes it, so it reads back as written
    assert load_records(emit([_record(**{field: "a\rb"})], fmt="json"))[0][field] == "a\rb"


def test_unknown_format_rejected():
    with pytest.raises(InputError):
        emit([_record()], fmt="yaml")


def test_compare_delta_oracle():
    base = load_records(emit([_record(placement="greedy", total_time=5.55e-3)]))
    cand = load_records(emit([_record(placement="sta", total_time=5.48e-3)]))
    rows = compare(base, cand)
    assert len(rows) == 1
    assert rows[0]["time_delta_pct"] == pytest.approx((5.55 - 5.48) / 5.55 * 100.0)
    assert rows[0]["time_delta_pct"] == pytest.approx(1.2612, abs=1e-3)
    assert rows[0]["shuttles_delta"] == 0
    text = emit_compare(rows)
    assert text.splitlines()[0].startswith("label,")
    assert emit_compare(rows) == text


def test_compare_uses_mean_rows_for_seed_groups():
    base_records = [
        _record(placement="random", seed=s, total_time=t)
        for s, t in enumerate((2.0e-3, 4.0e-3))
    ]
    cand = [_record(placement="sta", total_time=1.5e-3)]
    rows = compare(load_records(emit(base_records)), load_records(emit(cand)))
    assert rows[0]["total_time_base"] == pytest.approx(3.0e-3)
    assert rows[0]["time_delta_pct"] == pytest.approx(50.0)


def test_compare_workload_mismatch_rejected():
    base = load_records(emit([_record()]))
    cand = load_records(emit([_record(label="qv-8", family="qv")]))
    with pytest.raises(InputError):
        compare(base, cand)


def test_compare_negative_when_candidate_slower():
    base = load_records(emit([_record(total_time=1.0e-3)]))
    cand = load_records(emit([_record(placement="random", seed=0, total_time=2.0e-3)]))
    assert compare(base, cand)[0]["time_delta_pct"] == pytest.approx(-100.0)


def test_failed_runs_excluded_from_summaries():
    records = [
        _record(placement="random", seed=0, total_time=1.0e-3),
        _record(placement="random", seed=1, total_time=None, shuttles=None, swaps=None,
                status="deadlock"),
    ]
    rows = load_records(emit(records))
    assert [r["stat"] for r in rows] == ["", ""]
    assert rows[1]["status"] == "deadlock"
