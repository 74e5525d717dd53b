"""Check an emitted schedule against its circuit, from the text alone.

This module imports nothing from qccdmap: it reads the circuit in the native
text format and the schedule CSV with its ``# key=value`` footer, so a fault
shared by the device model, the scheduler and ``verify_schedule`` cannot hide
a wrong schedule from it. It checks that

* the ``gate1`` and ``gate2`` row counts equal the circuit's,
* the multiset of unordered ``gate2`` pairs equals the circuit's,
* no trap holds two rows whose ``[start, end)`` intervals overlap,
* in start-time order each qubit meets its gate partners (none for a
  one-qubit gate) in the circuit's program order,
* the footer's op counts and ``total_time_us`` agree with the rows.

``check_schedule`` returns a list of problems, each prefixed by its kind
(``format``, ``counts``, ``pairs``, ``overlap``, ``order`` or ``footer``);
an empty list means the schedule passed.
"""
from __future__ import annotations

from collections import Counter

HEADER = "start_us,end_us,kind,qubits,traps"
ARITY = {"gate1": 1, "gate2": 2, "swap": 2, "shuttle": 1}
FOOTER_KEYS = ("total_time_us", "shuttles", "swaps", "one_qubit_gates", "two_qubit_gates")


def parse_circuit_text(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Qubit count and each gate's operands from native circuit text."""
    n_qubits = None
    gates: list[tuple[int, ...]] = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if n_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise ValueError(f"expected 'qubits <N>', got {raw!r}")
            n_qubits = int(tokens[1])
            continue
        gates.append(tuple(int(t) for t in tokens[1:]))
    if n_qubits is None:
        raise ValueError("circuit text declares no qubits")
    return n_qubits, gates


def _ns(us: str) -> int:
    # Times are printed in microseconds with three decimals.
    return round(float(us) * 1000)


def check_schedule(circuit_text: str, schedule_text: str) -> list[str]:
    n_qubits, gates = parse_circuit_text(circuit_text)
    lines = schedule_text.splitlines()
    if not lines or lines[0] != HEADER:
        return [f"format: header is not {HEADER!r}"]
    rows = []
    footer: dict[str, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if not sep:
                return [f"format: line {lineno} is not a key=value footer"]
            footer[key] = value
            continue
        fields = line.split(",")
        try:
            if len(fields) != 5 or fields[2] not in ARITY:
                raise ValueError
            start, end = _ns(fields[0]), _ns(fields[1])
            qubits = tuple(int(q) for q in fields[3].split(":"))
            traps = tuple(int(t) for t in fields[4].split(":"))
            if len(qubits) != ARITY[fields[2]] or not all(0 <= q < n_qubits for q in qubits):
                raise ValueError
        except ValueError:
            return [f"format: line {lineno} is not a schedule row: {line!r}"]
        if not end > start:
            return [f"format: line {lineno} has no positive duration"]
        rows.append((start, end, fields[2], qubits, traps))

    problems = []
    kinds = Counter(r[2] for r in rows)
    want1 = sum(1 for g in gates if len(g) == 1)
    want2 = len(gates) - want1
    if kinds["gate1"] != want1 or kinds["gate2"] != want2:
        problems.append(
            f"counts: {kinds['gate1']} gate1 and {kinds['gate2']} gate2 rows, "
            f"circuit has {want1} and {want2}"
        )

    def pairs(operand_lists):
        return Counter(tuple(sorted(q)) for q in operand_lists if len(q) == 2)

    if pairs(r[3] for r in rows if r[2] == "gate2") != pairs(gates):
        problems.append("pairs: gate2 qubit pairs differ from the circuit's two-qubit gates")

    by_trap: dict[int, list[tuple[int, int]]] = {}
    for start, end, _, _, traps in rows:
        for t in traps:
            by_trap.setdefault(t, []).append((start, end))
    for t in sorted(by_trap):
        spans = sorted(by_trap[t])
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            if s1 < e0:
                problems.append(f"overlap: trap {t} starts an op at {s1} ns before {e0} ns")
                break

    program: list[list[int | None]] = [[] for _ in range(n_qubits)]
    for g in gates:
        for q in g:
            program[q].append(g[1 - g.index(q)] if len(g) == 2 else None)
    seen: list[list[tuple[int, int | None]]] = [[] for _ in range(n_qubits)]
    for start, _, kind, qubits, _ in rows:
        if kind == "gate1":
            seen[qubits[0]].append((start, None))
        elif kind == "gate2":
            a, b = qubits
            seen[a].append((start, b))
            seen[b].append((start, a))
    for q in range(n_qubits):
        order = [partner for _, partner in sorted(seen[q], key=lambda e: e[0])]
        if order != program[q]:
            problems.append(f"order: qubit {q} meets its gates out of program order")
            break

    missing = [k for k in FOOTER_KEYS if k not in footer]
    if missing:
        problems.append(f"footer: missing {', '.join(missing)}")
    else:
        want = {
            "total_time_us": max((r[1] for r in rows), default=0),
            "shuttles": kinds["shuttle"],
            "swaps": kinds["swap"],
            "one_qubit_gates": kinds["gate1"],
            "two_qubit_gates": kinds["gate2"],
        }
        for key in FOOTER_KEYS:
            try:
                got = _ns(footer[key]) if key == "total_time_us" else int(footer[key])
            except ValueError:
                got = None
            if got != want[key]:
                problems.append(f"footer: {key}={footer[key]} disagrees with the rows")
    return problems
