"""Circuit model, parsers, and derived structures."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccdmap.circuits import (
    Circuit,
    Gate,
    circuit,
    circuit_to_text,
    compute_slices,
    dependency_graph,
    interaction_graph,
    parse_circuit,
)
from qccdmap.devices import DeviceSpec, Topology
from qccdmap.errors import InputError
from qccdmap.placement import place
from qccdmap.scheduling import schedule


def _random_circuit(rng: random.Random, n_qubits: int, n_gates: int):
    gates = []
    for _ in range(n_gates):
        if rng.random() < 0.3:
            gates.append(("h", rng.randrange(n_qubits)))
        else:
            a, b = rng.sample(range(n_qubits), 2)
            gates.append(("cx", a, b))
    return circuit(n_qubits, gates)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_native_roundtrip(worked_circuit):
    text = circuit_to_text(worked_circuit, header="worked example")
    back = parse_circuit(text)
    assert back.n_qubits == worked_circuit.n_qubits
    assert [(g.label, g.qubits) for g in back.gates] == [
        (g.label, g.qubits) for g in worked_circuit.gates
    ]


def test_native_roundtrip_random():
    rng = random.Random(3)
    for _ in range(20):
        circ = _random_circuit(rng, rng.randint(2, 12), rng.randint(1, 40))
        back = parse_circuit(circuit_to_text(circ))
        assert back == circ or [(g.label, g.qubits) for g in back.gates] == [
            (g.label, g.qubits) for g in circ.gates
        ]


def _reference_circuit_to_text(circ, header=None):
    """The writer that joins each row's label and operand texts with spaces."""
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    lines.append(f"qubits {circ.n_qubits}")
    for g in circ.gates:
        lines.append(" ".join([g.label, *map(str, g.qubits)]))
    return "\n".join(lines) + "\n"


_LABELS = st.text("abcxyz0123456789_-+.()[],'=", min_size=1, max_size=6)
_HEADERS = st.none() | st.text("ab =#:\t\r\n", max_size=30)


@st.composite
def _serializable_circuit(draw):
    n = draw(st.sampled_from([1, 2, 3, 9, 10, 11, 99, 100, 101]) | st.integers(1, 5000))
    qubit = st.integers(0, n - 1)
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        label = draw(_LABELS)
        if n > 1 and draw(st.booleans()):
            a = draw(qubit)
            b = draw(qubit.filter(lambda q: q != a))
            gates.append((label, a, b))
        else:
            gates.append((label, draw(qubit)))
    return circuit(n, gates)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_serializable_circuit(), _HEADERS)
def test_circuit_to_text_round_trips_and_matches_reference_writer(circ, header):
    text = circuit_to_text(circ, header=header)
    assert text == _reference_circuit_to_text(circ, header=header)
    assert parse_circuit(text) == circ


@pytest.mark.parametrize("label", ["#x", "x#", "my gate", "", "a\tb", "x\n", "y\u2028z"])
def test_circuit_to_text_refuses_a_label_the_native_format_cannot_carry(label):
    # '#x' would be read back as a comment, so the gate would vanish
    circ = circuit(2, [("h", 0), (label, 1), ("h", 1)])
    with pytest.raises(InputError) as err:
        circuit_to_text(circ)
    assert str(err.value) == f"gate 1 label {label!r} cannot be written in the native format"


def test_qasm_subset():
    text = """
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg a[2];
    qreg b[3];
    creg c[5];
    h a[0];
    cx a[0], b[1];   // register offsets apply
    rz(0.5) b[2];
    barrier a;
    cx b[2], a[1];
    measure a[0] -> c[0];
    """
    circ = parse_circuit(text)
    assert circ.n_qubits == 5
    assert [(g.label, g.qubits) for g in circ.gates] == [
        ("h", (0,)),
        ("cx", (0, 3)),
        ("rz", (4,)),
        ("cx", (4, 1)),
    ]


@pytest.mark.parametrize("n_qubits", [2.0, True, "2"])
def test_circuit_refuses_a_qubit_count_that_is_not_an_integer(n_qubits):
    with pytest.raises(InputError, match="circuit qubit count must be an integer"):
        Circuit(n_qubits, (), ())


def test_qasm_rejects_unknown_register():
    with pytest.raises(InputError):
        parse_circuit("OPENQASM 2.0;\nqreg q[2];\ncx q[0], r[1];")


def test_qasm_rejects_out_of_range_operand():
    with pytest.raises(InputError):
        parse_circuit("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[5];")


def test_qasm_rejects_index_past_its_own_register():
    # a[5] lies inside the 6-qubit register space but outside a, and must not
    # alias b[3]
    with pytest.raises(InputError, match=r"line 3: .*register 'a'"):
        parse_circuit("OPENQASM 2.0;\nqreg a[2]; qreg b[4];\ncx a[5], b[0];")


def test_qasm_rejects_repeated_operand():
    with pytest.raises(InputError):
        parse_circuit("OPENQASM 2.0;\nqreg q[2];\ncx q[1], q[1];")


def test_two_qubit_gate_repeating_operand_rejected_native():
    with pytest.raises(InputError):
        parse_circuit("qubits 3\ncx 2 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "circuit text contains no 'qubits <N>' declaration"),
        ("# only a comment\n\n", "circuit text contains no 'qubits <N>' declaration"),
        ("cx 0 1\n", "line 1: expected 'qubits <N>', got 'cx 0 1'"),
        ("qubits\n", "line 1: expected 'qubits <N>', got 'qubits'"),
        ("\n  qubits 2  3 # trailing\n", "line 2: expected 'qubits <N>', got 'qubits 2  3'"),
        ("qubits two\n", "line 1: qubit count 'two' is not an integer"),
        ("qubits 0\n", "line 1: qubit count must be positive"),
        ("qubits -3\n", "line 1: qubit count must be positive"),
        ("qubits 3\ncx 0 1 2\n", "line 2: expected '<label> <q>' or '<label> <q1> <q2>'"),
        ("qubits 3\nh\n", "line 2: expected '<label> <q>' or '<label> <q1> <q2>'"),
        ("qubits 3\ncx x y z\n", "line 2: expected '<label> <q>' or '<label> <q1> <q2>'"),
        ("qubits 3\ncx 0  x # c\n", "line 2: operands must be integers, got 'cx 0  x'"),
        ("qubits 3\nh 1.5\n", "line 2: operands must be integers, got 'h 1.5'"),
        ("qubits 3\ncx 3 0\n", "line 2: operand 3 outside 0..2"),
        ("qubits 3\ncx 0 5\n", "line 2: operand 5 outside 0..2"),
        ("qubits 3\nh -1\n", "line 2: operand -1 outside 0..2"),
        ("qubits 3\ncx 4 4\n", "line 2: operand 4 outside 0..2"),
        ("qubits 3\ncx 2 2\n", "line 2: two-qubit gate repeats operand 2"),
        ("# header\n\nqubits 3\n# note\n\nh 0  # ok\n\ncx 1 7\n", "line 8: operand 7 outside 0..2"),
        ("qubits 3\r\nh 0\r\n\r\ncx 1 1\r\n", "line 4: two-qubit gate repeats operand 1"),
        # Circuit alone checks operands, yet an earlier bad operand still
        # wins over a later malformed line
        ("qubits 3\ncx 0 5\ncx x y\n", "line 2: operand 5 outside 0..2"),
        ("qubits 3\ncx 0 1\ncx 0 9\nh 0 1 2\n", "line 3: operand 9 outside 0..2"),
        ("qubits 3\nh 0\n\n# c\ncx 1 1\ncx 0 4\n", "line 5: two-qubit gate repeats operand 1"),
    ],
)
def test_native_parser_errors(text, message):
    with pytest.raises(InputError) as err:
        parse_circuit(text)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

def _brute_slices(circ):
    # Earliest slice strictly after the last slice touching either operand.
    last = {}
    out = {}
    for g in circ.gates:
        if len(g.qubits) != 2:
            continue
        a, b = g.qubits
        s = max(last.get(a, -1), last.get(b, -1)) + 1
        out[g.seq] = s
        last[a] = last[b] = s
    return out


def _slice_of(slices) -> dict[int, int]:
    return {seq: s for s, bucket in enumerate(slices) for seq in bucket}


def test_slices_worked_example(worked_circuit):
    sl = compute_slices(worked_circuit)
    assert len(sl) == 7
    assert _slice_of(sl) == _brute_slices(worked_circuit)


def test_slices_disjoint_within_slice():
    rng = random.Random(11)
    for _ in range(30):
        circ = _random_circuit(rng, rng.randint(2, 14), rng.randint(1, 60))
        sl = compute_slices(circ)
        assert _slice_of(sl) == _brute_slices(circ)
        for bucket in sl:
            seen = set()
            for seq in bucket:
                assert not seen & set(circ.operands[seq])
                seen |= set(circ.operands[seq])


def test_slices_skip_single_qubit_gates():
    circ = circuit(3, [("h", 0), ("cx", 0, 1), ("h", 1), ("cx", 0, 1)])
    sl = compute_slices(circ)
    assert len(sl) == 2
    assert set(_slice_of(sl)) == {1, 3}


def test_slices_are_built_once_per_circuit():
    circ = circuit(3, [("cx", 0, 1), ("cx", 1, 2)])
    first = compute_slices(circ)
    assert compute_slices(circ) is first
    assert circ.slices is first
    # the kept slices are no field: equality, hashing and repr ignore them
    twin = circuit(3, [("cx", 0, 1), ("cx", 1, 2)])
    assert twin == circ and hash(twin) == hash(circ) and repr(twin) == repr(circ)
    assert compute_slices(twin) == first and compute_slices(twin) is not first


# ---------------------------------------------------------------------------
# interaction graph
# ---------------------------------------------------------------------------

def test_interaction_graph_counts(worked_circuit):
    g = interaction_graph(worked_circuit)
    assert g == {
        (0, 2): 2,
        (1, 3): 2,
        (1, 4): 2,
        (2, 4): 2,
        (2, 3): 1,
        (1, 2): 1,
        (3, 4): 2,
    }


def test_interaction_graph_symmetric_on_operand_order():
    a = interaction_graph(circuit(3, [("cx", 0, 1), ("cx", 1, 0)]))
    assert a == {(0, 1): 2}


# ---------------------------------------------------------------------------
# dependency order
# ---------------------------------------------------------------------------

def _brute_deps(circ):
    n = len(circ.gates)
    pred = [set() for _ in range(n)]
    for i, g in enumerate(circ.gates):
        for q in g.qubits:
            for j in range(i - 1, -1, -1):
                if q in circ.gates[j].qubits:
                    pred[i].add(j)
                    break
    return pred


_QASM_ONE = ("h", "x", "rz", "u3")


@st.composite
def _built_circuit(draw):
    """(circuit, gate list): the circuit from ``circuit()`` on the list, or
    parsed from OpenQASM written from it over one to three registers."""
    n = draw(st.integers(1, 9))
    qubit = st.integers(0, n - 1)
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        if n > 1 and draw(st.booleans()):
            a = draw(qubit)
            gates.append((draw(st.sampled_from(("cx", "cz"))), a, draw(qubit.filter(lambda q: q != a))))
        else:
            gates.append((draw(st.sampled_from(_QASM_ONE)), draw(qubit)))
    if not draw(st.booleans()):
        return circuit(n, gates), gates
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    bounds = [0, *cuts, n]
    regs = [(f"r{i}", lo, hi) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]

    def operand(q):
        name, lo, _ = next(r for r in regs if r[1] <= q < r[2])
        return f"{name}[{q - lo}]"

    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    lines += [f"qreg {name}[{hi - lo}];" for name, lo, hi in regs]
    for label, *qubits in gates:
        params = "(0.5)" if label == "rz" else ""
        lines.append(f"{label}{params} {', '.join(map(operand, qubits))};")
    return parse_circuit("\n".join(lines)), gates


@settings(max_examples=60, deadline=None)
@given(_built_circuit())
def test_dependency_graph_matches_brute_force(case):
    # The dependency order, the slices and the partner lists come from one
    # pass; each must match its own definition and be built only once.
    circ, _ = case
    order = dependency_graph(circ)
    assert order == tuple(
        tuple(g.seq for g in circ.gates if q in g.qubits) for q in range(circ.n_qubits)
    )
    edges = {(p, s) for seqs in order for p, s in zip(seqs, seqs[1:])}
    brute = {(p, s) for s, pred in enumerate(_brute_deps(circ)) for p in pred}
    assert edges == brute
    slices = circ.slices
    assert _slice_of(slices) == _brute_slices(circ)
    assert all(list(bucket) == sorted(bucket) for bucket in slices)
    seqs, partners = circ.partner_lists
    two_qubit = [g for g in circ.gates if len(g.qubits) == 2]
    for q in range(circ.n_qubits):
        mine = [g for g in two_qubit if q in g.qubits]
        assert seqs[q] == [g.seq for g in mine]
        assert partners[q] == [g.qubits[1] if g.qubits[0] == q else g.qubits[0] for g in mine]
    assert circ.slices is slices and compute_slices(circ) is slices
    assert circ.partner_lists is circ.partner_lists
    assert dependency_graph(circ) is order


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_built_circuit())
def test_circuit_columns_and_records_match_the_gate_list(case):
    circ, gates = case
    # the columns, and the records the builders made one per gate
    assert circ.labels == tuple(label for label, *_ in gates)
    assert circ.operands == tuple(tuple(qubits) for _, *qubits in gates)
    assert circ.gates == tuple(Gate(label, tuple(qubits), seq) for seq, (label, *qubits) in enumerate(gates))
    assert circ.gates is circ.gates
    assert parse_circuit(circuit_to_text(circ)) == circ == circuit(circ.n_qubits, gates)


def test_sta_compile_builds_no_interaction_graph():
    # Only greedy placement reads the interaction graph.
    circ = _random_circuit(random.Random(5), 12, 80)
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=3, capacity=6, excess_capacity=1)
    schedule(circ, place(circ, spec, "sta"), spec)
    assert "interaction_graph" not in circ.__dict__
    place(circ, spec, "greedy")
    assert "interaction_graph" in circ.__dict__


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_gate_on_out_of_range_qubit_rejected():
    with pytest.raises(InputError):
        circuit(2, [("cx", 0, 2)])


def test_circuit_refuses_an_operand_it_would_have_to_truncate():
    # truncated by int(), this would be cx 0 1: a wrong mapping with no error
    with pytest.raises(InputError) as err:
        circuit(3, [("cx", 0.5, 1.9)])
    assert str(err.value) == "gate 0 (cx) operand 0.5 is not an integer"


def test_circuit_type_refuses_a_float_operand():
    # let through, a float operand fails the compile later with a TypeError
    with pytest.raises(InputError) as err:
        Circuit(3, ("cx",), ((0.0, 2),))
    assert str(err.value) == "gate 0 (cx) operand 0.0 is not an integer"


@pytest.mark.parametrize(
    "gate, message",
    [
        (("h", True), "gate 1 (h) operand True is not an integer"),
        (("cx", 2, False), "gate 1 (cx) operand False is not an integer"),
        (("cx", "0", 2), "gate 1 (cx) operand '0' is not an integer"),
        (("cx", 1, 2.0), "gate 1 (cx) operand 2.0 is not an integer"),
        (("h", 1.0), "gate 1 (h) operand 1.0 is not an integer"),
    ],
)
def test_circuit_refuses_an_operand_that_is_not_an_int(gate, message):
    with pytest.raises(InputError) as err:
        circuit(3, [("h", 0), gate])
    assert str(err.value) == message


# Each case is a (labels, operands) pair of columns.
@pytest.mark.parametrize(
    "gates, message",
    [
        ((("h", "cx"), ((0,), [1, 2])), "gate 1 (cx) operands [1, 2] are not a tuple"),
        ((("h", "x"), ((0,), ())), "gate 1 (x) has arity 0"),
        ((("ccx",), ((0, 1, 2),)), "gate 0 (ccx) has arity 3"),
        # the operands' type is checked before their arity
        ((("ccx",), ([0, 1, 2],)), "gate 0 (ccx) operands [0, 1, 2] are not a tuple"),
        ((("cx",), ((0, 3),)), "gate 0 (cx) operand 3 outside 0..2"),
        ((("h",), ((-1,),)), "gate 0 (h) operand -1 outside 0..2"),
        ((("cx",), ((4, 4),)), "gate 0 (cx) operand 4 outside 0..2"),
        ((("cx",), ((2, 2),)), "gate 0 (cx) repeats operand 2"),
        # each operand's type is checked before its range
        ((("cx",), ((5, 0.5),)), "gate 0 (cx) operand 5 outside 0..2"),
        ((("cx",), ((0.5, 5),)), "gate 0 (cx) operand 0.5 is not an integer"),
        # a label must be a str, or the circuit could not be written out
        (((7, "cx"), ((0,), (0, 1))), "gate 0 label 7 is not a string"),
        ((("h", None), ((0,), (1, 2))), "gate 1 label None is not a string"),
    ],
)
def test_circuit_names_the_first_check_a_gate_fails(gates, message):
    with pytest.raises(InputError) as err:
        Circuit(3, *gates)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "labels, operands, message",
    [
        (["h"], ((0,),), "circuit labels and operands must be tuples"),
        (("h",), [(0,)], "circuit labels and operands must be tuples"),
        (("h", "x"), ((0,),), "circuit has 2 labels for 1 operand tuples"),
        ((), ((0,),), "circuit has 0 labels for 1 operand tuples"),
    ],
)
def test_circuit_refuses_columns_that_do_not_line_up(labels, operands, message):
    with pytest.raises(InputError) as err:
        Circuit(3, labels, operands)
    assert str(err.value) == message


@pytest.mark.parametrize("gates, index", [([5], 0), ([("h", 0), None], 1), ([("h", 0), ()], 1)])
def test_circuit_refuses_a_gate_entry_that_is_not_a_sequence(gates, index):
    with pytest.raises(InputError, match=rf"^gate {index} is not a \(label, qubit, \.\.\.\) sequence: "):
        circuit(2, gates)


@pytest.mark.parametrize("gate_list", [5, None])
def test_circuit_refuses_a_gate_list_that_is_not_iterable(gate_list):
    with pytest.raises(InputError) as err:
        circuit(2, gate_list)
    assert str(err.value) == f"gate list {gate_list!r} is not iterable"


def test_circuit_unpacks_any_arity_and_stringifies_labels():
    circ = circuit(3, [(5, 0, 1), ["h", 2], ("cx", 2, 1)])
    assert circ.gates == (Gate("5", (0, 1), 0), Gate("h", (2,), 1), Gate("cx", (2, 1), 2))
    with pytest.raises(InputError, match=r"gate 0 \(ccx\) has arity 3"):
        circuit(3, [("ccx", 0, 1, 2)])
    with pytest.raises(InputError, match=r"gate 0 \(m\) has arity 0"):
        circuit(3, [("m",)])


def test_empty_circuit_slices():
    circ = circuit(3, [])
    assert len(compute_slices(circ)) == 0
    assert interaction_graph(circ) == {}
