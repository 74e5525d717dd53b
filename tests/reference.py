"""Reference op timing and trap holding, written from the device rules.

The scheduler and the verifier each time ops from their own tables; tests
check both against these plain definitions.
"""
from __future__ import annotations

from qccdmap.devices import OpKind, PhysOp, TimingModel


def op_duration(timing: TimingModel, op: PhysOp, occupancy) -> float:
    """Duration in seconds of ``op`` given per-trap occupancy at its start."""
    kind = op.kind
    if kind is OpKind.GATE1:
        return timing.one_qubit
    if kind is OpKind.GATE2:
        return timing.two_qubit(occupancy[op.trap])
    if kind is OpKind.SWAP:
        return timing.swap(occupancy[op.trap])
    if kind is OpKind.SHUTTLE:
        return timing.shuttle
    raise ValueError(f"unknown op kind {kind}")


def held(op: PhysOp) -> tuple[int, ...]:
    """Traps ``op`` occupies for its full duration."""
    if op.kind is OpKind.SHUTTLE:
        return (op.src, op.dst)
    return (op.trap,)
