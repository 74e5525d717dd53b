"""The benchmark's workloads: for a name and a seed, the compile set one pass runs.

Every job carries the circuit as native text, which is all the program sees
of the workload; the device spec stands in for a device file.

Why each workload exists (see README.md for the numbers):

* ``qaoa256``: the ROADMAP scale target; work is spread over placement,
  routing of mostly co-trapped gates, the event loop and verification.
* ``rnd256``: movement-dominated; 20,000 random CX make routing, eviction
  cascades, emission and memory the cost, with placement under 1%.
* ``weak-ring``: one circuit over the paper's weak-scaling device series on
  a ring, from 90-ion chains on 2 traps to 6-ion chains on 26 traps; the
  only workload on the ring paths and the one paying per-compile costs 9
  times per pass.
* ``smoke``: a tiny pass for the self-tests, not listed in BENCHMARK.json.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

WORKLOADS = ("qaoa256", "rnd256", "weak-ring", "smoke")
PLACEMENT = "sta"
LOOKAHEAD = 4

# How many places the seeded reorder may move a gate from its place in the
# generated list. A full qubit relabelling was measured instead and rejected:
# sta placement ties break on qubit index, so on qaoa256 eleven relabellings
# gave 17k to 57k shuttles and a 4 s to 10 s compile, a spread across seeds
# far wider than any bound the benchmark can hold.
REORDER_WINDOW = 64

WEAK_TRAPS = range(2, 27, 3)
WEAK_IONS = 180


@dataclass(frozen=True)
class Job:
    label: str
    text: str
    spec: object


def seeded_order(qubits: list[tuple[int, ...]], seed: int, window: int = REORDER_WINDOW) -> list[int]:
    """A seeded gate order that keeps every qubit's own gate order.

    ``qubits`` lists each gate's operands in circuit order. Each gate gets
    the priority ``index + U(0, window)`` and gates are emitted in priority
    order among those whose predecessors on every operand are out. Slices,
    the interaction graph and the dependency DAG stay the same up to
    renumbering; only the sequence numbers the scheduler breaks ties on move.
    """
    rng = random.Random(seed)
    n = len(qubits)
    priority = [i + rng.random() * window for i in range(n)]
    successors: list[list[int]] = [[] for _ in range(n)]
    waiting = [0] * n
    last: dict[int, int] = {}
    for i, operands in enumerate(qubits):
        for q in operands:
            if q in last:
                successors[last[q]].append(i)
                waiting[i] += 1
            last[q] = i
    ready = [(priority[i], i) for i in range(n) if waiting[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for s in successors[i]:
            waiting[s] -= 1
            if waiting[s] == 0:
                heapq.heappush(ready, (priority[s], s))
    return order


def _reordered_text(qccd, family: str, n: int, seed: int) -> str:
    base = qccd.benchmarks.generate(family, n)
    order = seeded_order([g.qubits for g in base.gates], seed)
    gates = [(base.gates[i].label, *base.gates[i].qubits) for i in order]
    header = f"family={family} qubits={n} reorder_seed={seed} window={REORDER_WINDOW}"
    return qccd.circuits.circuit_to_text(qccd.circuits.circuit(n, gates), header=header)


def build(qccd, name: str, seed: int) -> list[Job]:
    """Generate the workload's circuits from the seed and serialise them."""
    devices = qccd.devices
    linear18 = devices.DeviceSpec(devices.Topology.LINEAR, 18, 17, 2)
    if name == "qaoa256":
        return [Job("qaoa256", _reordered_text(qccd, "qaoa", 256, seed), linear18)]
    if name == "rnd256":
        circ = qccd.benchmarks.generate("rnd", 256, gates=20000, seed=seed)
        header = f"family=rnd qubits=256 gates=20000 seed={seed}"
        return [Job("rnd256", qccd.circuits.circuit_to_text(circ, header=header), linear18)]
    if name == "weak-ring":
        text = _reordered_text(qccd, "qft", 128, seed)
        return [
            Job(
                f"weak-ring-t{traps}",
                text,
                devices.DeviceSpec(devices.Topology.RING, traps, WEAK_IONS // traps, 2),
            )
            for traps in WEAK_TRAPS
        ]
    if name == "smoke":
        text = _reordered_text(qccd, "qft", 16, seed)
        return [
            Job("smoke-linear2", text, devices.DeviceSpec(devices.Topology.LINEAR, 2, 10, 2)),
            Job("smoke-ring3", text, devices.DeviceSpec(devices.Topology.RING, 3, 8, 2)),
        ]
    raise ValueError(f"unknown workload {name!r}")
