"""Circuit representation and the derived structures every later stage consumes.

A circuit is an ordered list of opaque one- and two-qubit gates over densely
numbered logical qubits. Gate labels are carried through but never
interpreted: placement, routing and scheduling only care about arity and
operands. A ``Gate`` is an immutable named tuple ``(label, qubits, seq)``,
built once per gate by the parsers and never copied. Four derived views
are computed here:

* ASAP time slices over the two-qubit gates (single-qubit gates are not
  sliced), a plain tuple of slices, each a tuple of gates,
* the partner lists: per qubit, its two-qubit gates as (seq, partner) pairs
  and the partner column alone, both in program order, which STA's qubit
  ranking and the router's pending-work tracker read,
* the dependency order, each qubit's gate seqs in program order,
* the weighted qubit interaction graph, a read-only mapping from pair (a, b)
  with a < b to its number of two-qubit gates, which greedy placement reads.

Each is built on first use and kept on the circuit, so every stage and every
compile of one circuit shares it; the first three share one pass.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .devices import new_record
from .errors import InputError


class Gate(NamedTuple):
    """One gate application. ``seq`` is the position in the circuit's gate list."""

    label: str
    qubits: tuple[int, ...]
    seq: int


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if type(self.n_qubits) is not int:
            raise InputError(f"circuit qubit count must be an integer, got {self.n_qubits!r}")
        if self.n_qubits < 1:
            raise InputError("circuit must declare at least one qubit")
        n = self.n_qubits
        # One test per gate on the common path; only a gate that fails it is
        # checked field by field, by _refuse_gate, to say what is wrong.
        for i, gate in enumerate(self.gates):
            qubits = gate[1]
            if len(qubits) == 2:
                a, b = qubits
                if (
                    type(a) is int and type(b) is int and -1 < a < n and -1 < b < n and a != b
                    and gate[2] == i and type(gate[0]) is str
                ):
                    continue
            elif len(qubits) == 1:
                a = qubits[0]
                if type(a) is int and -1 < a < n and gate[2] == i and type(gate[0]) is str:
                    continue
            _refuse_gate(i, gate, n)

    @cached_property
    def _views(self):
        """(slices, partner_lists, dependency order), built in one pass."""
        n = self.n_qubits
        last = [-1] * n
        buckets: list[list[Gate]] = []
        per_qubit: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        order: list[list[int]] = [[] for _ in range(n)]
        for gate in self.gates:
            qubits = gate[1]
            seq = gate[2]
            if len(qubits) != 2:
                order[qubits[0]].append(seq)
                continue
            a, b = qubits
            s = (last[a] if last[a] > last[b] else last[b]) + 1
            if s == len(buckets):
                buckets.append([])
            buckets[s].append(gate)
            last[a] = last[b] = s
            per_qubit[a].append((seq, b))
            per_qubit[b].append((seq, a))
            order[a].append(seq)
            order[b].append(seq)
        partners = tuple([p for _, p in pairs] for pairs in per_qubit)
        return tuple(map(tuple, buckets)), (tuple(per_qubit), partners), tuple(map(tuple, order))

    @property
    def slices(self) -> tuple[tuple[Gate, ...], ...]:
        """Greedy earliest-slice layering of the two-qubit gates: each lands in
        the slice after the last one holding either operand. Each slice is a
        tuple of its gates in program order; single-qubit gates are excluded."""
        return self._views[0]

    @property
    def partner_lists(self) -> tuple[tuple[list[tuple[int, int]], ...], tuple[list[int], ...]]:
        """Per qubit, its two-qubit gates as (seq, partner) in program order, and
        the partner column of those lists. Shared: no reader may change them."""
        return self._views[1]

    @cached_property
    def interaction_graph(self) -> Mapping[tuple[int, int], int]:
        """Interaction weights: (a, b) with a < b -> number of two-qubit gates
        on that pair, in order of each pair's first gate. Read-only, since
        every caller shares it."""
        weights: dict[tuple[int, int], int] = {}
        for _, qubits, _ in self.gates:
            if len(qubits) != 2:
                continue
            a, b = qubits
            key = (a, b) if a < b else (b, a)
            weights[key] = weights.get(key, 0) + 1
        return MappingProxyType(weights)


def _refuse_gate(i: int, gate: Gate, n: int) -> None:
    label, qubits, seq = gate
    if seq != i:
        raise InputError(f"gate {i} has sequence index {seq}")
    if type(label) is not str:
        raise InputError(f"gate {i} label {label!r} is not a string")
    if len(qubits) not in (1, 2):
        raise InputError(f"gate {i} ({label}) has arity {len(qubits)}")
    for q in qubits:
        if type(q) is not int:
            raise InputError(f"gate {i} ({label}) operand {q!r} is not an integer")
        if not 0 <= q < n:
            raise InputError(f"gate {i} ({label}) operand {q} outside 0..{n - 1}")
    if len(qubits) == 2 and qubits[0] == qubits[1]:
        raise InputError(f"gate {i} ({label}) repeats operand {qubits[0]}")


def circuit(n_qubits: int, gate_list) -> Circuit:
    """Build a Circuit from (label, q) / (label, q1, q2) tuples.

    Operands are taken as given, not converted: each must be an ``int``
    (not a bool) in 0..n_qubits-1, or ``Circuit`` raises ``InputError``.
    A label that is not a ``str`` is passed through ``str``. An entry that
    is not a sequence holding a label raises ``InputError`` naming its index.
    """
    try:
        entries = enumerate(gate_list)
    except TypeError:
        raise InputError(f"gate list {gate_list!r} is not iterable") from None
    gates = []
    append = gates.append
    try:
        for i, g in entries:
            # Unpack by arity; any other length takes the generic unpack, so
            # Circuit names the gate's arity.
            size = len(g)
            if size == 3:
                label, a, b = g
                qubits = (a, b)
            elif size == 2:
                label, a = g
                qubits = (a,)
            else:
                label, *qs = g
                qubits = tuple(qs)
            if type(label) is not str:
                label = str(label)
            append(new_record(Gate, (label, qubits, i)))
    except (TypeError, ValueError) as exc:
        # len() or the unpack refused the entry after the last one appended.
        raise InputError(f"gate {len(gates)} is not a (label, qubit, ...) sequence: {exc}") from None
    return Circuit(n_qubits=n_qubits, gates=tuple(gates))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_circuit(text: str) -> Circuit:
    """Parse circuit text in either the native format or the OpenQASM 2.0 subset.

    Native format: ``#`` starts a comment, the first meaningful line is
    ``qubits <N>``, and every following line is ``<label> <q>`` or
    ``<label> <q1> <q2>``.
    """
    stripped = _strip_qasm_comments(text).lstrip()
    if stripped.startswith("OPENQASM"):
        return _parse_qasm(text)
    return _parse_native(text)


def parse_circuit_file(path) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_circuit(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read circuit file {path}: {exc}") from exc


def _parse_native(text: str) -> Circuit:
    # One pass: each line becomes a Gate as it is read. Operand ranges and
    # repeats are left to Circuit's check; only on a failure does
    # _refuse_operands find the first bad gate's line. The stripped line is
    # rebuilt only for the error messages that quote it.
    n_qubits = None
    gates: list[Gate] = []
    append = gates.append
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        if n_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise InputError(f"line {lineno}: expected 'qubits <N>', got {raw.strip()!r}")
            try:
                n_qubits = int(tokens[1])
            except ValueError:
                raise InputError(f"line {lineno}: qubit count {tokens[1]!r} is not an integer")
            if n_qubits < 1:
                raise InputError(f"line {lineno}: qubit count must be positive")
            continue
        n_tokens = len(tokens)
        if n_tokens != 2 and n_tokens != 3:
            _refuse_operands(text, gates, n_qubits)
            raise InputError(f"line {lineno}: expected '<label> <q>' or '<label> <q1> <q2>'")
        try:
            if n_tokens == 3:
                label, a, b = tokens
                qubits = (int(a), int(b))
            else:
                label, a = tokens
                qubits = (int(a),)
        except ValueError:
            _refuse_operands(text, gates, n_qubits)
            raise InputError(f"line {lineno}: operands must be integers, got {raw.strip()!r}")
        append(new_record(Gate, (label, qubits, len(gates))))
    if n_qubits is None:
        raise InputError("circuit text contains no 'qubits <N>' declaration")
    try:
        return Circuit(n_qubits=n_qubits, gates=tuple(gates))
    except InputError:
        _refuse_operands(text, gates, n_qubits)
        raise


def _refuse_operands(text: str, gates: list[Gate], n: int) -> None:
    """Raise the line error of the first parsed gate whose operand is out of
    range or repeated, so the first bad line wins; return if there is none."""
    for i, (_, qubits, _) in enumerate(gates):
        for q in qubits:
            if not 0 <= q < n:
                raise InputError(f"line {_gate_line(text, i)}: operand {q} outside 0..{n - 1}")
        if len(qubits) == 2 and qubits[0] == qubits[1]:
            raise InputError(f"line {_gate_line(text, i)}: two-qubit gate repeats operand {qubits[0]}")


def _gate_line(text: str, index: int) -> int:
    """Line number of gate ``index``: the ``index + 1``-th line after the
    ``qubits`` line that holds more than blanks and a comment."""
    meaningful = [n for n, raw in enumerate(text.splitlines(), start=1) if raw.split("#", 1)[0].split()]
    return meaningful[index + 1]


_QASM_OPERAND = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]$")


def _strip_qasm_comments(text: str) -> str:
    return re.sub(r"//[^\n]*", "", text)


def _parse_qasm(text: str) -> Circuit:
    # Statement-oriented subset: qreg declarations, named single-qubit gates,
    # cx/cz. barrier and measure are accepted and ignored.
    body = _strip_qasm_comments(text)
    registers: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
    total = 0
    entries: list[tuple[str, tuple[int, ...]]] = []
    for lineno, raw in enumerate(body.splitlines(), start=1):
        for stmt in raw.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            head = stmt.split()[0]
            if head == "OPENQASM" or head == "include" or head == "creg":
                continue
            if head == "barrier":
                continue
            if head == "measure":
                continue
            if head == "qreg":
                m = re.match(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$", stmt)
                if not m:
                    raise InputError(f"line {lineno}: malformed qreg statement {stmt!r}")
                name, size = m.group(1), int(m.group(2))
                if name in registers:
                    raise InputError(f"line {lineno}: duplicate qreg {name!r}")
                registers[name] = (total, size)
                total += size
                continue
            m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)(\([^)]*\))?\s+(.+)$", stmt)
            if not m:
                raise InputError(f"line {lineno}: cannot parse statement {stmt!r}")
            name = m.group(1)
            args = [a.strip() for a in m.group(3).split(",")]
            operands = []
            for a in args:
                om = _QASM_OPERAND.match(a)
                if not om:
                    raise InputError(f"line {lineno}: expected indexed operand, got {a!r}")
                reg, idx = om.group(1), int(om.group(2))
                if reg not in registers:
                    raise InputError(f"line {lineno}: unknown register {reg!r}")
                offset, size = registers[reg]
                if idx >= size:
                    raise InputError(
                        f"line {lineno}: index {idx} outside register {reg!r} of size {size}"
                    )
                operands.append(offset + idx)
            if len(operands) == 1:
                entries.append((name, (operands[0],)))
            elif len(operands) == 2:
                if name not in ("cx", "cz"):
                    raise InputError(
                        f"line {lineno}: unsupported two-qubit gate {name!r} (only cx, cz)"
                    )
                if operands[0] == operands[1]:
                    raise InputError(f"line {lineno}: two-qubit gate repeats operand {operands[0]}")
                entries.append((name, tuple(operands)))
            else:
                raise InputError(f"line {lineno}: gates take one or two operands, got {len(operands)}")
    if total == 0:
        raise InputError("OpenQASM input declares no qreg")
    gates = tuple(Gate(label=name, qubits=operands, seq=i) for i, (name, operands) in enumerate(entries))
    return Circuit(n_qubits=total, gates=gates)


# ---------------------------------------------------------------------------
# derived structures
# ---------------------------------------------------------------------------

def compute_slices(circ: Circuit) -> tuple[tuple[Gate, ...], ...]:
    """The circuit's ASAP slices, kept on the circuit (see ``Circuit.slices``)."""
    return circ.slices


def interaction_graph(circ: Circuit) -> Mapping[tuple[int, int], int]:
    """The circuit's interaction weights (see ``Circuit.interaction_graph``)."""
    return circ.interaction_graph


def dependency_graph(circ: Circuit) -> tuple[tuple[int, ...], ...]:
    """Each qubit's gate seqs in program order, indexed by qubit; kept on the
    circuit (see ``Circuit._views``).

    This is the whole dependency structure: a gate depends only on the
    previous gate on each of its operands.
    """
    return circ._views[2]


def circuit_to_text(circ: Circuit, header: str | None = None) -> str:
    """Serialize a circuit in the native text format.

    Raises ``InputError`` for a gate label the format cannot carry: one that
    is empty or holds whitespace or ``#``.
    """
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    lines.append(f"qubits {circ.n_qubits}")
    row = lines.append
    # Circuit holds only int operands in 0..n_qubits-1, so the table covers
    # every one of them.
    text = [str(q) for q in range(circ.n_qubits)]
    written: set[str] = set()
    for label, qubits, seq in circ.gates:
        if label not in written:
            if "#" in label or label.split() != [label]:
                raise InputError(f"gate {seq} label {label!r} cannot be written in the native format")
            written.add(label)
        if len(qubits) == 2:
            a, b = qubits
            row(f"{label} {text[a]} {text[b]}")
        else:
            row(f"{label} {text[qubits[0]]}")
    # The empty last line gives the trailing newline without copying the text.
    row("")
    return "\n".join(lines)
