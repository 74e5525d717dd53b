"""Run records, report emission, and baseline comparison.

One compilation run produces one RunRecord. Records serialize to CSV or
JSON with a fixed column order and fixed float precision, so re-running the
same inputs re-emits byte-identical reports. Groups of records that differ
only by seed additionally get mean and stddev summary rows (marked in the
``stat`` column).

Wall-clock time is measured and kept on the record, but excluded from
emission unless explicitly requested: it is the one field that can never be
reproducible.
"""
from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, fields

from .errors import InputError


@dataclass(frozen=True)
class RunRecord:
    """One run's report row. The metric fields stay None on a point that was
    not compiled, such as an infeasible sweep point."""

    label: str
    family: str
    qubits: int
    placement: str
    seed: int | None
    lookahead: int | None
    topology: str
    traps: int
    capacity: int
    excess: int
    one_qubit_gates: int | None = None
    two_qubit_gates: int | None = None
    slices: int | None = None
    shuttles: int | None = None
    swaps: int | None = None
    total_time: float | None = None
    status: str = "ok"
    invocation: str = ""
    wall_clock: float | None = None

    def as_row(self) -> dict:
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row["stat"] = ""
        return row


# Report columns: the record's fields in order, with the summary-row marker
# ``stat`` before ``invocation``; wall_clock is appended only on request.
COLUMNS = [f.name for f in fields(RunRecord) if f.name != "wall_clock"]
COLUMNS.insert(COLUMNS.index("invocation"), "stat")

# Metric columns that summary rows aggregate over.
_STAT_COLUMNS = ("shuttles", "swaps", "total_time")

# Columns that identify a seed group (everything identifying the workload).
_GROUP_COLUMNS = (
    "label",
    "family",
    "qubits",
    "placement",
    "lookahead",
    "topology",
    "traps",
    "capacity",
    "excess",
)


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return f"{value:.9f}"
    return str(value)


def _summary_rows(rows: list[dict]) -> list[dict]:
    """Mean/stddev rows appended after each multi-record seed group."""
    out: list[dict] = []
    i = 0
    while i < len(rows):
        group = [rows[i]]
        key = tuple(rows[i][c] for c in _GROUP_COLUMNS)
        j = i + 1
        while j < len(rows) and tuple(rows[j][c] for c in _GROUP_COLUMNS) == key:
            group.append(rows[j])
            j += 1
        out.extend(group)
        ok = [r for r in group if r["status"] == "ok"]
        if len(ok) > 1:
            for stat in ("mean", "stddev"):
                srow = dict(group[0])
                srow["seed"] = None
                srow["wall_clock"] = None
                srow["invocation"] = ""
                srow["stat"] = stat
                for col in _STAT_COLUMNS:
                    values = [float(r[col]) for r in ok]
                    srow[col] = statistics.mean(values) if stat == "mean" else statistics.stdev(values)
                out.append(srow)
        i = j
    return out


def emit(records: list[RunRecord], fmt: str = "csv", include_wall_clock: bool = False) -> str:
    """Serialize records (plus per-group summary rows) to CSV or JSON text."""
    columns = COLUMNS + (["wall_clock"] if include_wall_clock else [])
    return _write(_summary_rows([r.as_row() for r in records]), columns, fmt)


def _write(rows: list[dict], columns: list[str], fmt: str) -> str:
    """Render rows as CSV or JSON text with the given column order."""
    if fmt == "csv":
        # csv.writer quotes a field holding a comma, quote or newline (a
        # label or a command-line token can), so every row keeps the
        # header's width; other fields are written as they are. No reader in
        # text mode gets a carriage return back, so such a field is refused.
        cells = [[_fmt(row[c]) for c in columns] for row in rows]
        for line in cells:
            for column, cell in zip(columns, line):
                if "\r" in cell:
                    raise InputError(f"report field {column} holds a carriage return: {cell!r}")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
        return out.getvalue()
    if fmt == "json":
        payload = []
        for row in rows:
            entry = {}
            for c in columns:
                v = row[c]
                entry[c] = round(v, 12) if isinstance(v, float) else v
            payload.append(entry)
        return json.dumps(payload, indent=2) + "\n"
    raise InputError(f"unknown report format {fmt!r} (csv, json)")


def load_records(text: str) -> list[dict]:
    """Parse emitted CSV or JSON report text back into row dicts."""
    stripped = text.lstrip()
    if not stripped:
        return []
    if stripped.startswith("["):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed report JSON: {exc}") from None
        if not all(isinstance(row, dict) for row in rows):
            raise InputError("malformed report JSON: every row must be an object")
        return rows
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for row in reader:
        if None in row:
            raise InputError(f"malformed report CSV: line {reader.line_num} is wider than the header")
        if None in row.values():  # DictReader's filler for a short row
            raise InputError(f"malformed report CSV: line {reader.line_num} is narrower than the header")
        rows.append(row)
    return rows


_COMPARE_KEY = ("label", "family", "qubits", "topology", "traps", "capacity", "excess")

COMPARE_COLUMNS = list(_COMPARE_KEY) + [
    "placement_base",
    "placement_cand",
    "total_time_base",
    "total_time_cand",
    "time_delta_pct",
    "shuttles_base",
    "shuttles_cand",
    "shuttles_delta",
    "swaps_base",
    "swaps_cand",
    "swaps_delta",
]


def _representatives(rows: list[dict]) -> dict[tuple, dict]:
    """One row per workload key: the mean summary row if present, else the
    single plain row. Multi-seed groups without their mean row are rejected."""
    plain: dict[tuple, list[dict]] = {}
    means: dict[tuple, dict] = {}
    for row in rows:
        stat = row.get("stat", "") or ""
        if row.get("status", "ok") not in ("ok", ""):
            continue
        key = tuple(str(row.get(c, "")) for c in _COMPARE_KEY)
        if stat == "mean":
            means[key] = row
        elif stat == "":
            plain.setdefault(key, []).append(row)
    out: dict[tuple, dict] = {}
    for key, group in plain.items():
        if key in means:
            out[key] = means[key]
        elif len(group) == 1:
            out[key] = group[0]
        else:
            raise InputError(f"multiple rows for {key} but no mean summary row")
    return out


def _number(row: dict, col: str, side: str, key: tuple) -> float:
    try:
        return float(row[col])
    except (KeyError, TypeError, ValueError):
        raise InputError(f"{side} {col} for {key} is not a number: {row.get(col)!r}") from None


def compare(baseline: list[dict], candidate: list[dict]) -> list[dict]:
    """Pair up baseline and candidate rows by workload and compute deltas.

    time_delta_pct is (base - cand) / base * 100: positive means the
    candidate is faster.
    """
    base_by_key = _representatives(baseline)
    cand_by_key = _representatives(candidate)
    if set(base_by_key) != set(cand_by_key):
        only_base = sorted(set(base_by_key) - set(cand_by_key))
        only_cand = sorted(set(cand_by_key) - set(base_by_key))
        raise InputError(
            f"reports do not cover the same workloads (baseline only: {only_base}, candidate only: {only_cand})"
        )
    out = []
    for key in sorted(base_by_key):
        b, c = base_by_key[key], cand_by_key[key]
        tb, tc = _number(b, "total_time", "baseline", key), _number(c, "total_time", "candidate", key)
        if tb <= 0:
            raise InputError(f"baseline total_time must be positive for {key}")
        row = dict(zip(_COMPARE_KEY, key))
        row["placement_base"] = b.get("placement", "")
        row["placement_cand"] = c.get("placement", "")
        row["total_time_base"] = tb
        row["total_time_cand"] = tc
        row["time_delta_pct"] = (tb - tc) / tb * 100.0
        for col in ("shuttles", "swaps"):
            vb, vc = _number(b, col, "baseline", key), _number(c, col, "candidate", key)
            row[f"{col}_base"] = vb
            row[f"{col}_cand"] = vc
            row[f"{col}_delta"] = vb - vc
        out.append(row)
    return out


def emit_compare(rows: list[dict], fmt: str = "csv") -> str:
    return _write(rows, COMPARE_COLUMNS, fmt)
