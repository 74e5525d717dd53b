"""Compilation and timing simulation for trapped-ion QCCD devices.

The pipeline: parse or generate a circuit, place qubits into trap chains,
schedule gates with routing (SWAPs and shuttles) inserted on demand, verify
the schedule by independent replay, and report metrics. The package top level
exports what the README's library example uses and the error types; every
other name is imported from its module.
"""
from .benchmarks import generate
from .devices import DeviceSpec, Topology
from .errors import DeadlockError, DeviceOpError, InputError, QccdError, VerificationError
from .placement import place
from .scheduling import schedule, verify_schedule

__version__ = "0.1.0"

__all__ = [
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
