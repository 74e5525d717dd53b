"""Benchmark circuit generators.

Families:

* ``qft``: quantum Fourier transform, H plus controlled-phase ladder.
* ``qaoa``: one QAOA round on the complete graph (H layer, ZZ couplers in
  the same pair order as the QFT ladder, RX mixers).
* ``qv``: quantum-volume style rounds; each round pairs all qubits by a
  seeded perfect matching and runs a two-qubit block (u3s around 3 CX).
* ``ca``: ripple-carry adder on k-bit registers (majority/unmajority
  blocks, Toffolis decomposed to the 6-CNOT network).
* ``da``: Fourier-basis adder on k-bit registers (QFT, controlled phases,
  inverse QFT).
* ``rnd``: uniformly random distinct CX pairs, seeded. Each pair is two
  ``randrange`` draws from one ``random.Random(seed)``, taken the way
  ``random.sample(range(n), 2)`` takes them, so a seed gives the same
  circuit as the ``sample``-based generator of earlier versions.

All generators are deterministic given their arguments. Qubit counts, gate
counts and rounds must be ``int`` (not ``bool``); anything else raises
``InputError`` before a gate is drawn.
"""
from __future__ import annotations

import random

from .circuits import Circuit, circuit
from .errors import InputError

FAMILIES = ("qft", "qaoa", "qv", "ca", "da", "rnd")


def _require_int(family: str, what: str, value) -> None:
    if type(value) is not int:
        raise InputError(f"{family} {what} must be an integer, got {value!r}")


def _qft_gates(qubits: list[int]) -> list[tuple]:
    gates: list[tuple] = []
    for i, q in enumerate(qubits):
        gates.append(("h", q))
        for p in qubits[i + 1 :]:
            gates.append(("cp", q, p))
    return gates


def gen_qft(n: int) -> Circuit:
    """QFT on n qubits: n(n-1)/2 controlled phases in 2n-3 slices."""
    _require_int("qft", "qubit count", n)
    if n < 2:
        raise InputError(f"qft needs at least 2 qubits, got {n}")
    return circuit(n, _qft_gates(list(range(n))))


def gen_qaoa(n: int) -> Circuit:
    """One MaxCut QAOA round on the complete graph over n qubits."""
    _require_int("qaoa", "qubit count", n)
    if n < 2:
        raise InputError(f"qaoa needs at least 2 qubits, got {n}")
    gates: list[tuple] = [("h", q) for q in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gates.append(("zz", i, j))
    gates.extend(("rx", q) for q in range(n))
    return circuit(n, gates)


def gen_qv(n: int, rounds: int, seed: int) -> Circuit:
    """Quantum-volume style circuit: per round a random perfect matching,
    each matched pair running u3-wrapped 3 CX."""
    _require_int("qv", "qubit count", n)
    _require_int("qv", "round count", rounds)
    if n < 2 or n % 2:
        raise InputError(f"qv needs an even qubit count of at least 2, got {n}")
    if rounds < 1:
        raise InputError(f"qv needs at least 1 round, got {rounds}")
    if seed is None:
        raise InputError("qv requires a seed")
    rng = random.Random(seed)
    gates: list[tuple] = []
    for _ in range(rounds):
        perm = list(range(n))
        rng.shuffle(perm)
        for k in range(0, n, 2):
            a, b = perm[k], perm[k + 1]
            gates.append(("u3", a))
            gates.append(("u3", b))
            gates.append(("cx", a, b))
            gates.append(("cx", b, a))
            gates.append(("cx", a, b))
            gates.append(("u3", a))
            gates.append(("u3", b))
    return circuit(n, gates)


def _ccx_gates(a: int, b: int, c: int) -> list[tuple]:
    # Standard 6-CNOT Toffoli network (controls a, b; target c).
    return [
        ("h", c),
        ("cx", b, c),
        ("tdg", c),
        ("cx", a, c),
        ("t", c),
        ("cx", b, c),
        ("tdg", c),
        ("cx", a, c),
        ("t", b),
        ("t", c),
        ("cx", a, b),
        ("h", c),
        ("t", a),
        ("tdg", b),
        ("cx", a, b),
    ]


def _maj_gates(x: int, y: int, z: int) -> list[tuple]:
    return [("cx", z, y), ("cx", z, x)] + _ccx_gates(x, y, z)


def _uma_gates(x: int, y: int, z: int) -> list[tuple]:
    return _ccx_gates(x, y, z) + [("cx", z, x), ("cx", x, y)]


def gen_cuccaro(n: int) -> Circuit:
    """Ripple-carry adder over two k-bit registers plus carry-in and carry-out.

    Total qubits n = 2k + 2, laid out carry, b0, a0, b1, a1, ..., z so each
    majority block touches three adjacent indices. 16k + 1 two-qubit gates.
    """
    _require_int("ca", "qubit count", n)
    if n < 4 or n % 2:
        raise InputError(f"ca needs an even qubit count of at least 4, got {n}")
    k = (n - 2) // 2
    gates: list[tuple] = []
    for i in range(k):
        gates.extend(_maj_gates(2 * i, 2 * i + 1, 2 * i + 2))
    gates.append(("cx", 2 * k, 2 * k + 1))
    for i in reversed(range(k)):
        gates.extend(_uma_gates(2 * i, 2 * i + 1, 2 * i + 2))
    return circuit(n, gates)


def gen_draper(n: int) -> Circuit:
    """Fourier-basis adder of register a into register b, k = n/2 bits each.

    QFT on b, k(k+1)/2 cross-register controlled phases, inverse QFT on b:
    (3k^2 - k) / 2 two-qubit gates.
    """
    _require_int("da", "qubit count", n)
    if n < 2 or n % 2:
        raise InputError(f"da needs an even qubit count of at least 2, got {n}")
    k = n // 2
    b = list(range(k, 2 * k))
    gates = _qft_gates(b)
    for i in range(k):
        for j in range(i + 1):
            gates.append(("cp", j, k + i))
    gates.extend(reversed(_qft_gates(b)))
    return circuit(n, gates)


def gen_random(n: int, gates: int, seed: int) -> Circuit:
    """Uniformly random CX gates over distinct qubit pairs."""
    _require_int("rnd", "qubit count", n)
    _require_int("rnd", "gate count", gates)
    if n < 2:
        raise InputError(f"rnd needs at least 2 qubits, got {n}")
    if gates < 1:
        raise InputError(f"rnd needs at least 1 gate, got {gates}")
    if seed is None:
        raise InputError("rnd requires a seed")
    draw = random.Random(seed).randrange
    out: list[tuple] = []
    append = out.append
    # Each pair takes the draws random.sample(range(n), 2) takes, so a seed
    # keeps its circuit. CPython's sample keeps a set of picks once n exceeds
    # its setsize of 21, redrawing a repeat; up to 21 it picks from a pool
    # that moves the last qubit into the first pick's place.
    if n > 21:
        for _ in range(gates):
            a = draw(n)
            b = draw(n)
            while b == a:
                b = draw(n)
            append(("cx", a, b))
    else:
        last = n - 1
        for _ in range(gates):
            a = draw(n)
            b = draw(last)
            if b == a:
                b = last
            append(("cx", a, b))
    return circuit(n, out)


def generate(
    family: str,
    qubits: int,
    rounds: int | None = None,
    gates: int | None = None,
    seed: int | None = None,
) -> Circuit:
    """Dispatch to a family generator, validating family-specific arguments."""
    if family == "qft":
        return gen_qft(qubits)
    if family == "qaoa":
        return gen_qaoa(qubits)
    if family == "qv":
        return gen_qv(qubits, rounds if rounds is not None else qubits, seed)
    if family == "ca":
        return gen_cuccaro(qubits)
    if family == "da":
        return gen_draper(qubits)
    if family == "rnd":
        if gates is None:
            raise InputError("rnd requires --gates")
        return gen_random(qubits, gates, seed)
    raise InputError(f"unknown benchmark family {family!r} (choose from {', '.join(FAMILIES)})")


def largest_valid_size(family: str, cap: int) -> int:
    """Largest qubit count the family accepts that is at most cap.

    Used by sweeps that size a benchmark to the device: families with
    register structure cannot hit every total.
    """
    if family not in FAMILIES:
        raise InputError(f"unknown benchmark family {family!r}")
    n = cap
    if family in ("qv", "da", "ca"):
        n -= n % 2
    floor = 4 if family == "ca" else 2
    if n < floor:
        raise InputError(f"family {family} needs at least {floor} qubits, only {cap} fit")
    return n
