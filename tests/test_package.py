"""The package top level: the README library example and the export list."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import qccdmap
from qccdmap import (
    DeviceSpec, Topology, generate, place, schedule, verify_schedule,
)


def test_readme_library_example_runs_from_top_level():
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=3, capacity=6, excess_capacity=2)
    circ = generate("qaoa", 8)
    pl = place(circ, spec, "sta")
    sched = schedule(circ, pl, spec)
    assert verify_schedule(sched, circ, pl, spec).ok
    assert sched.metrics.two_qubit_gates == sum(len(g.qubits) == 2 for g in circ.gates)


def test_top_level_exports_only_the_library_example_and_errors():
    assert qccdmap.__all__ == [
        "DeviceSpec",
        "Topology",
        "generate",
        "place",
        "schedule",
        "verify_schedule",
        "DeadlockError",
        "DeviceOpError",
        "InputError",
        "QccdError",
        "VerificationError",
        "__version__",
    ]
    for name in qccdmap.__all__:
        assert hasattr(qccdmap, name)


@pytest.mark.parametrize("module", sorted(Path(qccdmap.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_modules_parse_as_python_3_10(module):
    # pyproject.toml declares requires-python >= 3.10.
    ast.parse(module.read_text(encoding="utf-8"), filename=str(module), feature_version=(3, 10))
