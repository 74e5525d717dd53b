"""Reference op timing, trap holding and schedule verification.

The scheduler and the verifier each time ops from their own tables; tests
check both against the plain definitions of ``op_duration`` and ``held``.

``verify_schedule`` is the verifier as it stood when it replayed every op
through ``DeviceState.apply``, the device model the scheduler mutates. The
library's verifier keeps its own chain model; tests require both to reach
the same verdict on every schedule.

``attachment``, ``unattached`` and ``walk_to_boundary`` are the eviction's
victim tests and boundary SWAP as they stood as helpers of ``routing``, the
victim tests read through ``PendingTracker.pending_gates`` rather than the
tracker's seq and partner columns; the reference eviction in the routing
tests uses them against the router's one-scan eviction.

``exit_index`` is the facing rule as a formula of the topology; tests check
``DeviceSpec.exit_slot`` against it, and ``walk_to_boundary`` finds the exit
ion with it rather than with the table.

``compute_ratios`` and ``compute_temporal_weights`` are STA's qubit and pair
rankings as they stood when they read the interaction graph and sorted on
tuple keys; tests require the library's rankings, built from the partner
lists and integer pair codes, to order qubits and pairs as they do.
"""
from __future__ import annotations

import math

from qccdmap.circuits import Circuit
from qccdmap.devices import DeviceSpec, DeviceState, OpKind, PhysOp, TimingModel, Topology
from qccdmap.errors import DeviceOpError, InputError
from qccdmap.placement import Placement
from qccdmap.routing import PendingTracker
from qccdmap.scheduling import Schedule, Verdict


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


def attachment(qubit: int, residents: set[int], tracker: PendingTracker) -> tuple[int, int]:
    """(pending partners among residents, minus the seq of the first), from one
    window walk.

    With no such partner the seq is a sentinel past the circuit's end.
    """
    count = 0
    first = 1 << 60
    for seq, p in tracker.pending_gates(qubit):
        if p in residents:
            if not count:
                first = seq
            count += 1
    return count, -first


def unattached(qubit: int, residents: set[int], tracker: PendingTracker) -> bool:
    """No pending partner of qubit is among residents; attachment's window."""
    return not any(p in residents for _, p in tracker.pending_gates(qubit))


def exit_index(spec: DeviceSpec, trap: int, neighbor: int) -> int:
    """Index in trap's chain of the ion that leaves toward the adjacent trap
    neighbor: -1 (the right end) toward the next trap up, which wraps only on
    a ring of three or more traps, else 0 (the left end)."""
    n = spec.n_traps
    up = (trap + 1) % n if spec.topology is Topology.RING and n > 2 else trap + 1
    return -1 if neighbor == up else 0


def walk_to_boundary(state: DeviceState, qubit: int, trap: int, neighbor: int, commit) -> None:
    """Commit the SWAP that puts qubit, held by trap, at the end facing
    neighbor; no op when it is already there."""
    occupant = state.chains[trap][exit_index(state.spec, trap, neighbor)]
    if occupant != qubit:
        commit(OpKind.SWAP, (qubit, occupant), trap, None, None)


def verify_schedule(
    sched: Schedule, circ: Circuit, placement: Placement, spec: DeviceSpec
) -> Verdict:
    """Independently replay and check a schedule.

    Checks, in replay (time) order: every op's physical preconditions hold,
    trap capacity is respected, per-trap busy intervals never overlap, every
    circuit gate runs exactly once with two-qubit operands co-trapped, each
    qubit sees its gates in program order, and recorded durations match the
    timing model at the occupancy each op started with.
    """
    try:
        placement.validate(spec, circ.n_qubits)
        state = DeviceState(spec, placement)
    except (InputError, DeviceOpError) as exc:
        return Verdict(False, f"invalid initial placement: {exc}")

    ops = sched.ops
    starts = [s.start for s in ops]
    # A stable sort on start alone keeps equal starts in index order.
    order = sorted(range(len(ops)), key=starts.__getitem__)
    n_traps, capacity = spec.n_traps, spec.capacity
    busy_until = [0.0] * n_traps
    seen_gate: dict[int, int] = {}
    per_qubit_runs: dict[int, list[int]] = {q: [] for q in range(circ.n_qubits)}
    # Durations by kind and chain length, from the timing model. A chain
    # never outgrows capacity, since apply refuses to overfill a trap.
    timing = spec.timing
    gate2_time = [timing.two_qubit(n) for n in range(capacity + 1)]
    swap_time = [timing.swap(n) for n in range(capacity + 1)]
    gate1_time, shuttle_time = timing.one_qubit, timing.shuttle
    chains = state.chains
    apply = state.apply
    GATE1, GATE2, SWAP, SHUTTLE = OpKind.GATE1, OpKind.GATE2, OpKind.SWAP, OpKind.SHUTTLE

    for i in order:
        op = ops[i]
        kind, start, end = op.kind, op.start, op.end
        held = (op.src, op.dst) if kind is SHUTTLE else (op.trap,)
        if not end > start:
            return Verdict(False, f"op has non-positive duration {end - start}", i)
        for t in held:
            if t is None or not 0 <= t < n_traps:
                return Verdict(False, f"op references invalid trap {t}", i)
            if start < busy_until[t] - 1e-12:
                return Verdict(
                    False, f"trap {t} is busy until {busy_until[t]:.9f} at start {start:.9f}", i
                )
        if kind is SHUTTLE:
            expected = shuttle_time
        elif kind is SWAP:
            expected = swap_time[len(chains[op.trap])]
        elif kind is GATE2:
            expected = gate2_time[len(chains[op.trap])]
        elif kind is GATE1:
            expected = gate1_time
        else:
            raise InputError(f"unknown op kind {kind}")
        # end was rounded once when start + duration was stored, so allow
        # the float spacing at end as well as the fixed floor.
        if not math.isclose(end - start, expected, rel_tol=1e-9, abs_tol=max(1e-15, math.ulp(end))):
            return Verdict(
                False,
                f"duration {end - start:.12f} does not match timing model {expected:.12f}",
                i,
            )
        if kind is GATE1 or kind is GATE2:
            if op.seq is None or not 0 <= op.seq < len(circ.gates):
                return Verdict(False, f"gate op carries unknown circuit index {op.seq}", i)
            g = circ.gates[op.seq]
            if tuple(op.qubits) not in (g.qubits, g.qubits[::-1]):
                return Verdict(
                    False, f"gate {op.seq} operands {op.qubits} differ from circuit {g.qubits}", i
                )
            if (kind is GATE2) != (len(g.qubits) == 2):
                return Verdict(False, f"gate {op.seq} arity mismatch", i)
            if op.seq in seen_gate:
                return Verdict(False, f"gate {op.seq} scheduled more than once", i)
            seen_gate[op.seq] = i
            for q in g.qubits:
                per_qubit_runs[q].append(op.seq)
        try:
            apply(op)
        except (DeviceOpError, InputError) as exc:
            return Verdict(False, f"illegal op: {exc}", i)
        for t in held:
            if len(chains[t]) > capacity:
                return Verdict(False, f"trap {t} exceeds capacity {capacity}", i)
            busy_until[t] = end
    missing = [g.seq for g in circ.gates if g.seq not in seen_gate]
    if missing:
        return Verdict(False, f"gates never scheduled: {missing[:8]}{'...' if len(missing) > 8 else ''}")
    program: dict[int, list[int]] = {q: [] for q in range(circ.n_qubits)}
    for g in circ.gates:
        for q in g.qubits:
            program[q].append(g.seq)
    for q in range(circ.n_qubits):
        if per_qubit_runs[q] != program[q]:
            return Verdict(False, f"qubit {q} saw gates out of program order")
    return Verdict(True)


def compute_ratios(weights: dict[tuple[int, int], int], n_qubits: int) -> list[tuple[int, float]]:
    """Interaction ratios (distinct partners / qubit count), sorted descending.

    ``weights`` is the ``interaction_graph`` of an ``n_qubits`` circuit. Ties
    break toward the qubit with more total incident gates, then the lower
    index. Qubits without interactions are omitted.
    """
    degree = {q: 0 for q in range(n_qubits)}
    incident = {q: 0 for q in range(n_qubits)}
    for (a, b), w in weights.items():
        degree[a] += 1
        degree[b] += 1
        incident[a] += w
        incident[b] += w
    entries = [(q, d) for q, d in degree.items() if d > 0]
    entries.sort(key=lambda e: (-e[1], -incident[e[0]], e[0]))
    return [(q, d / n_qubits) for q, d in entries]


def compute_temporal_weights(
    slices: tuple[tuple[int, ...], ...], operands: tuple[tuple[int, ...], ...]
) -> list[tuple[tuple[int, int], float]]:
    """Pair weights sum(2^-s over slices s where the pair interacts), descending.

    ``slices`` holds gate seqs and ``operands`` each gate's qubits.

    Ties break lexicographically by (min index, max index). Slice indices
    beyond the double-precision subnormal range contribute exactly zero,
    which is the faithful floating-point reading of the weight formula.
    """
    weights: dict[tuple[int, int], float] = {}
    for s, bucket in enumerate(slices):
        contrib = math.ldexp(1.0, -s) if s <= 1074 else 0.0
        for seq in bucket:
            a, b = operands[seq]
            key = (a, b) if a < b else (b, a)
            weights[key] = weights.get(key, 0.0) + contrib
    return sorted(weights.items(), key=lambda e: (-e[1], e[0]))
