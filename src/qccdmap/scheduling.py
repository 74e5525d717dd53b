"""Discrete-event scheduling of circuits onto a trapped-ion device.

Each trap executes one operation at a time; independent traps run in
parallel. The event loop is one wake heap of (time, seq): a gate enters it
once the previous gate on each of its operands has committed, at the latest
of those gates' ends, and is taken when popped if its operands' traps are
free, or pushed back to when they free up. Ties in time go to the lowest
sequence index. A split two-qubit gate first commits its movement ops (SWAP
walks plus shuttles from the router), chained serially, then the gate itself.

Ops and their timed records (``PhysOp``, ``ScheduledOp``) are immutable named
tuples, built once per op and never copied.

``schedule`` pauses Python's cyclic garbage collector while it builds them.
Each record holds an ``OpKind`` member, which the collector tracks, so every
full collection would walk all records built so far, and a compile builds
hundreds of thousands. The pause frees nothing later than reference counting
would: the records form no cycles, and they all live until ``schedule``
returns. The collector's state is process-wide, so another thread compiling
at the same time sees it paused too.

``verify_schedule`` replays a schedule against a fresh device state and
checks it independently of how it was produced; it times each op from its own
duration tables, built from the ``TimingModel``.
"""
from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

from .circuits import Circuit, dependency_graph
from .devices import DeviceSpec, DeviceState, OpKind, PhysOp, new_record
from .errors import DeadlockError, DeviceOpError, InputError, QccdError
from .placement import Placement
from .routing import DEFAULT_LOOKAHEAD, PendingTracker, resolve_gate


class ScheduledOp(NamedTuple):
    """A physical op with its committed start and end times in seconds."""

    op: PhysOp
    start: float
    end: float


@dataclass(frozen=True)
class Schedule:
    ops: tuple[ScheduledOp, ...]

    @property
    def makespan(self) -> float:
        return max((s.end for s in self.ops), default=0.0)


@dataclass(frozen=True)
class Metrics:
    total_time: float
    shuttles: int
    swaps: int
    one_qubit_gates: int
    two_qubit_gates: int

    @property
    def movement_ops(self) -> int:
        return self.shuttles + self.swaps


def compute_metrics(schedule: Schedule) -> Metrics:
    # list.count compares by identity first, so no Enum is hashed per op.
    kinds = [s.op.kind for s in schedule.ops]
    return Metrics(
        total_time=schedule.makespan,
        shuttles=kinds.count(OpKind.SHUTTLE),
        swaps=kinds.count(OpKind.SWAP),
        one_qubit_gates=kinds.count(OpKind.GATE1),
        two_qubit_gates=kinds.count(OpKind.GATE2),
    )


def _reject_infeasible(circ: Circuit, state: DeviceState, spec: DeviceSpec) -> None:
    """Raise DeadlockError for a split two-qubit gate that no routing can join.

    No trap of capacity 1 holds two ions, and on a device without a free slot
    no shuttle can run, so a gate the placement split stays split.
    """
    if spec.capacity == 1:
        reason = "trap capacity is 1"
    elif sum(map(len, state.chains)) == spec.n_traps * spec.capacity:
        reason = "the device has no free slot to shuttle into"
    else:
        return
    for g in circ.gates:
        if g.is_two_qubit:
            a, b = g.qubits
            ta, tb = state.trap_of(a), state.trap_of(b)
            if ta != tb:
                raise DeadlockError(
                    f"gate {g.seq} on qubits {a},{b} (traps {ta},{tb}) can never be co-trapped: {reason}",
                    state.occupancies(),
                )


def schedule(
    circ: Circuit,
    placement: Placement,
    spec: DeviceSpec,
    lookahead: int | None = DEFAULT_LOOKAHEAD,
) -> Schedule:
    """Compile a circuit to a timed op sequence starting from placement.

    ``lookahead`` is the pending-gate window used for movement scores;
    ``None`` means the whole remaining circuit. The cyclic garbage collector
    is paused while the schedule is built and restored to its prior state on
    return or on error.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _schedule(circ, placement, spec, lookahead)
    finally:
        if was_enabled:
            gc.enable()


def _schedule(circ: Circuit, placement: Placement, spec: DeviceSpec, lookahead: int | None) -> Schedule:
    placement.validate(spec, circ.n_qubits)
    state = DeviceState(spec, [list(c) for c in placement.chains])
    _reject_infeasible(circ, state, spec)
    gates = circ.gates
    # Readiness: heads[q] walks qubit q's gates in program order, waiting[seq]
    # counts the operands whose previous gate has not committed, and
    # qubit_end[q] is when q's last committed gate ended.
    heads = [iter(seqs) for seqs in dependency_graph(circ)]
    waiting = [len(g.qubits) for g in gates]
    for head in heads:
        first = next(head, None)
        if first is not None:
            waiting[first] -= 1
    qubit_end = [0.0] * circ.n_qubits
    tracker = PendingTracker(circ, lookahead)
    mark_done = tracker.mark_done
    trap_free = [0.0] * spec.n_traps
    out: list[ScheduledOp] = []
    # Durations by kind and chain length, from the timing model's own
    # formulas, so every float equals the model's bit for bit.
    timing = spec.timing
    gate2_time = [timing.two_qubit(n) for n in range(spec.capacity + 1)]
    swap_time = [timing.swap(n) for n in range(spec.capacity + 1)]
    gate1_time, shuttle_time = timing.one_qubit, timing.shuttle
    chains = state.chains
    trap_of = state._trap_of
    apply = state.apply
    record = out.append
    SHUTTLE, SWAP, GATE1, GATE2 = OpKind.SHUTTLE, OpKind.SWAP, OpKind.GATE1, OpKind.GATE2
    # Where the next op may start. A gate sets it to the clock tick it was
    # taken at; its movement ops, then the gate itself, each start no earlier
    # than the op before.
    cursor = 0.0

    def commit(op: PhysOp) -> None:
        """Apply op at the first time from cursor on that its traps are free,
        and advance cursor to its end."""
        nonlocal cursor
        kind = op.kind
        if kind is SHUTTLE:
            src, dst = op.src, op.dst
            start = max(cursor, trap_free[src], trap_free[dst])
            dur = shuttle_time
            cursor = trap_free[src] = trap_free[dst] = start + dur
        else:
            t = op.trap
            start = max(cursor, trap_free[t])
            if kind is SWAP:
                dur = swap_time[len(chains[t])]
            elif kind is GATE2:
                dur = gate2_time[len(chains[t])]
            else:
                dur = gate1_time
            cursor = trap_free[t] = start + dur
        # A duration far below the float spacing at start is lost in the sum,
        # and a huge one overflows it; either would record a wrong duration.
        if not start < cursor < math.inf:
            raise InputError(
                f"op {len(out)} starting at {start!r} s with duration {dur!r} s has no"
                " representable end; the timing parameters are too large"
            )
        apply(op)
        record(new_record(ScheduledOp, (op, start, cursor)))

    # Wake heap of (time, seq): a gate enters once, when the previous gate on
    # its last waiting operand commits, and returns at the later of its traps'
    # trap_free while one is busy. This equals rescanning every waiting gate at each clock tick:
    # - every push lies strictly after the popped time, so pops come in
    #   (time, seq) order, which is the lowest-seq-first scan of each tick;
    # - trap_free only grows and a shuttle holds both its traps, so moving a
    #   waiting gate's operand never lets that gate start earlier.
    wake = [(0.0, seq) for seq, n in enumerate(waiting) if n == 0]
    while wake:
        clock, seq = heappop(wake)
        cursor = clock
        g = gates[seq]
        qubits = g.qubits
        try:
            if len(qubits) == 2:
                a, b = qubits
                ta, tb = trap_of[a], trap_of[b]
            else:
                q = qubits[0]
                ta = tb = trap_of[q]
        except KeyError as exc:
            raise DeviceOpError(f"qubit {exc.args[0]} is not on the device") from None
        free = max(trap_free[ta], trap_free[tb])
        if free > clock:
            heappush(wake, (free, seq))
            continue
        if len(qubits) == 2:
            if ta != tb:
                resolve_gate(g, state, tracker, spec, commit)
            commit(new_record(PhysOp, (GATE2, (a, b), trap_of[a], None, None, seq, g.label)))
        else:
            commit(new_record(PhysOp, (GATE1, (q,), ta, None, None, seq, g.label)))
        mark_done(seq)
        for q in qubits:
            qubit_end[q] = cursor
            nxt = next(heads[q], None)
            if nxt is not None:
                waiting[nxt] -= 1
                if waiting[nxt] == 0:
                    heappush(wake, (max([qubit_end[p] for p in gates[nxt].qubits]), nxt))
    if any(waiting):
        raise QccdError("scheduler stalled: gates remain but none can become ready")
    return Schedule(ops=tuple(out))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    op_index: int | None = None


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
        state = DeviceState(spec, [list(c) for c in placement.chains])
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
        op, start, end = ops[i]
        kind = op.kind
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
            if (kind is GATE2) != g.is_two_qubit:
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


def schedule_to_text(sched: Schedule) -> str:
    """Render a schedule as CSV rows plus a key=value metrics footer.

    Times are microseconds with fixed precision so reruns are byte-identical.
    """
    lines = ["start_us,end_us,kind,qubits,traps"]
    row = lines.append
    SHUTTLE = OpKind.SHUTTLE
    # Most ops start where the one before ended, so its end text is reused.
    # Equal floats format alike unless they are 0.0 and -0.0, so a zero start
    # is always formatted.
    prev_end, end_us = None, ""
    for op, start, end in sched.ops:
        start_us = end_us if start == prev_end and start else f"{start * 1e6:.3f}"
        prev_end, end_us = end, f"{end * 1e6:.3f}"
        kind = op.kind
        traps = f"{op.src}:{op.dst}" if kind is SHUTTLE else op.trap
        qubits = op.qubits
        qubits = f"{qubits[0]}:{qubits[1]}" if len(qubits) == 2 else ":".join(map(str, qubits))
        # _value_ is the plain attribute behind Enum.value's descriptor.
        row(f"{start_us},{end_us},{kind._value_},{qubits},{traps}")
    m = compute_metrics(sched)
    lines.append(f"# total_time_us={m.total_time * 1e6:.3f}")
    lines.append(f"# shuttles={m.shuttles}")
    lines.append(f"# swaps={m.swaps}")
    lines.append(f"# one_qubit_gates={m.one_qubit_gates}")
    lines.append(f"# two_qubit_gates={m.two_qubit_gates}")
    return "\n".join(lines) + "\n"
