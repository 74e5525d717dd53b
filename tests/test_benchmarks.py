"""Benchmark circuit generators: structural counts and seeding."""
from __future__ import annotations

import random

import pytest

from qccdmap.benchmarks import (
    FAMILIES,
    gen_cuccaro,
    gen_draper,
    gen_qaoa,
    gen_qft,
    gen_qv,
    gen_random,
    generate,
    largest_valid_size,
)
from qccdmap.circuits import circuit, compute_slices, interaction_graph
from qccdmap.errors import InputError


def _two_qubit_count(circ) -> int:
    return sum(len(g.qubits) == 2 for g in circ.gates)


def test_qft_counts():
    c = gen_qft(64)
    assert _two_qubit_count(c) == 2016
    assert len(compute_slices(c)) == 125


def test_qft_pair_structure():
    c = gen_qft(5)
    pairs = {tuple(sorted(g.qubits)) for g in c.gates if len(g.qubits) == 2}
    assert pairs == {(i, j) for i in range(5) for j in range(i + 1, 5)}
    assert _two_qubit_count(c) == 10


def test_qaoa_counts():
    c = gen_qaoa(64)
    assert _two_qubit_count(c) == 2016
    assert len(compute_slices(c)) == 125


def test_qaoa_is_complete_graph_with_mixers():
    c = gen_qaoa(6)
    g = interaction_graph(c)
    assert set(g) == {(i, j) for i in range(6) for j in range(i + 1, 6)}
    assert all(w == 1 for w in g.values())
    labels = {gate.label for gate in c.gates if len(gate.qubits) != 2}
    assert labels == {"h", "rx"}


def test_qv_counts():
    c = gen_qv(64, rounds=64, seed=0)
    assert _two_qubit_count(c) == 6144
    slices = compute_slices(c)
    assert len(slices) == 192
    assert _two_qubit_count(c) / len(slices) == pytest.approx(32.0)


def test_qv_rounds_are_seeded_matchings():
    c = gen_qv(8, rounds=3, seed=12)
    # 3 CX per matched pair, n/2 pairs per round
    assert _two_qubit_count(c) == 3 * 4 * 3
    assert gen_qv(8, 3, 12) == gen_qv(8, 3, 12)
    assert gen_qv(8, 3, 12) != gen_qv(8, 3, 13)


def test_adder_calibration_bands():
    ca = _two_qubit_count(gen_cuccaro(64))
    da = _two_qubit_count(gen_draper(64))
    assert abs(ca - 513) / 513 <= 0.05
    assert abs(da - 1520) / 1520 <= 0.05


def test_adders_reject_bad_sizes():
    with pytest.raises(InputError):
        gen_cuccaro(7)
    with pytest.raises(InputError):
        gen_draper(9)


def test_random_family_is_seeded():
    a = gen_random(10, 40, seed=5)
    b = gen_random(10, 40, seed=5)
    assert a == b
    assert a != gen_random(10, 40, seed=6)
    assert len(a.gates) == 40
    assert all(len(g.qubits) == 2 for g in a.gates)
    assert all(g.qubits[0] != g.qubits[1] for g in a.gates)


def _reference_gen_random(n: int, gates: int, seed: int):
    """The random.sample-based rnd generator of earlier versions."""
    rng = random.Random(seed)
    return circuit(n, [("cx", *rng.sample(range(n), 2)) for _ in range(gates)])


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_random_family_draws_the_pairs_sample_drew(seed):
    # sample takes its pool path up to 21 qubits and its set path above
    for n in range(2, 65):
        assert gen_random(n, 300, seed) == _reference_gen_random(n, 300, seed), n


@pytest.mark.parametrize(
    "family, kwargs",
    [
        ("qft", dict(qubits=6.0)),
        ("qaoa", dict(qubits=True)),
        ("ca", dict(qubits="8")),
        ("da", dict(qubits=8.0)),
        ("qv", dict(qubits=8.0, seed=1)),
        ("qv", dict(qubits=8, rounds=1.0, seed=1)),
        ("rnd", dict(qubits=8.0, gates=2, seed=1)),
        ("rnd", dict(qubits=8, gates=2.5, seed=1)),
        ("rnd", dict(qubits=8, gates=True, seed=1)),
    ],
)
def test_generators_refuse_sizes_that_are_not_integers(family, kwargs):
    with pytest.raises(InputError, match=f"^{family} .* must be an integer, got "):
        generate(family, **kwargs)


def test_generate_dispatch_and_validation():
    assert generate("qft", 16).n_qubits == 16
    with pytest.raises(InputError):
        generate("nope", 16)
    with pytest.raises(InputError):
        generate("rnd", 16)  # needs gates and seed
    with pytest.raises(InputError):
        generate("qv", 16)  # needs seed
    assert set(FAMILIES) == {"qft", "qaoa", "qv", "ca", "da", "rnd"}


def test_largest_valid_size_respects_family_constraints():
    assert largest_valid_size("qft", 65) == 65
    assert largest_valid_size("ca", 65) == 64  # needs n = 2k + 2
    assert largest_valid_size("da", 65) == 64  # needs even n
    assert largest_valid_size("qv", 65) == 64
    assert largest_valid_size("ca", 90) == 90


def test_generators_are_deterministic_across_calls():
    for fam in ("qft", "qaoa", "ca", "da"):
        assert generate(fam, 32) == generate(fam, 32)
