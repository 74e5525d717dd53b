"""Discrete-event scheduling of circuits onto a trapped-ion device.

Each trap executes one operation at a time; independent traps run in
parallel. The event loop is one wake heap of (time, seq): a gate enters it
once the previous gate on each of its operands has committed, at the latest
of those gates' ends, and is taken when popped if its operands' traps are
free, or re-queued to when they free up. Ties in time go to the lowest
sequence index. A split two-qubit gate first commits its movement ops (SWAP
walks plus shuttles from the router), chained serially, then the gate itself.

Every op, gate, SWAP or shuttle, goes through one ``commit``: it starts the
op at the later of the cursor and its traps' free times, checks that the
op's end is representable, applies a SWAP or shuttle to the state, appends
the op's eight fields to the schedule's flat rows and returns them as a
plain tuple. Only SWAPs and shuttles change the device state, and only
through ``DeviceState.swap_ions`` and ``DeviceState.shuttle_ion``, which
check each one's preconditions. The event loop decides when a gate is ready
and hands a split gate to the router, which commits its movement ops;
before the gate itself it re-reads both operands' traps and raises the
device model's ``DeviceOpError`` if routing left them apart.

A ``Schedule`` keeps its ops as one flat list, eight fields per op in
``PhysOp`` order, not as one record per op. CPython's cyclic collector never
untracks a named tuple, so a record per op would make every full collection
after a compile walk hundreds of thousands of records that free nothing. Of
the fields the rows hold, only a SWAP's operand pair is a new object the
collector tracks, and it stops tracking such a tuple of ints the first time
it examines it. ``Schedule.ops`` builds ``PhysOp`` records from the rows
when read; the compile path never reads it.

``schedule_to_text`` writes each row's qubits and traps from a table of
integer texts built per call; a row the table cannot write, such as one with
a None trap or an index outside the table, is formatted field by field.

``verify_schedule`` checks a schedule independently of how it was produced.
It replays the ops in start order on a chain model of its own, written from
the facing rule in ``devices.py`` and sharing no code with ``DeviceState``,
which only the scheduler mutates: per-trap chain lists copied from the
placement, a qubit-to-trap dict, and per-trap right and left neighbour lists
built from the trap count and topology, which give each shuttle's exit and
landing ends. It times each op from its own duration tables, built from the
``TimingModel``.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush, heapreplace

from .circuits import Circuit, dependency_graph
from .devices import DeviceSpec, DeviceState, OpKind, PhysOp, Topology
from .errors import DeadlockError, DeviceOpError, InputError, QccdError
from .placement import Placement
from .routing import DEFAULT_LOOKAHEAD, PendingTracker, resolve_gate


class Schedule:
    """A timed op sequence. ``rows`` holds the ops' fields back to back in
    ``PhysOp`` order, so op i is ``PhysOp(*rows[8 * i : 8 * i + 8])``.

    ``Schedule(ops=records)`` builds the rows from ``PhysOp`` records, for a
    schedule made by hand; the scheduler passes its rows as ``rows``.
    """

    def __init__(self, ops: Iterable[PhysOp] = (), *, rows: list | None = None):
        if rows is None:
            ops = tuple(ops)
            rows = [field for op in ops for field in op]
            if len(rows) != 8 * len(ops):
                raise InputError("every schedule op needs the eight PhysOp fields")
        self.rows = rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.rows == other.rows

    @property
    def ops(self) -> tuple[PhysOp, ...]:
        """The ops as ``PhysOp`` records, in commit order, built on each read."""
        return tuple(map(PhysOp._make, zip(*[iter(self.rows)] * 8)))

    @property
    def makespan(self) -> float:
        return max(self.rows[7::8], default=0.0)

    @cached_property
    def metrics(self) -> Metrics:
        """Op counts by kind and the makespan, counted on first use and kept,
        so the run report and the schedule writer share one pass."""
        # list.count compares by identity first, so no Enum is hashed per op.
        kinds = self.rows[0::8]
        return Metrics(
            total_time=self.makespan,
            shuttles=kinds.count(OpKind.SHUTTLE),
            swaps=kinds.count(OpKind.SWAP),
            one_qubit_gates=kinds.count(OpKind.GATE1),
            two_qubit_gates=kinds.count(OpKind.GATE2),
        )


@dataclass(frozen=True)
class Metrics:
    total_time: float
    shuttles: int
    swaps: int
    one_qubit_gates: int
    two_qubit_gates: int


def _reject_infeasible(circ: Circuit, state: DeviceState) -> None:
    """Raise DeadlockError for a split two-qubit gate that no routing can join.

    No trap of capacity 1 holds two ions, and on a device without a free slot
    no shuttle can run, so a gate the placement split stays split.
    """
    spec = state.spec
    if spec.capacity == 1:
        reason = "trap capacity is 1"
    elif sum(map(len, state.chains)) == spec.n_traps * spec.capacity:
        reason = "the device has no free slot to shuttle into"
    else:
        return
    for g in circ.gates:
        if len(g.qubits) == 2:
            a, b = g.qubits
            ta, tb = state.trap_of[a], state.trap_of[b]
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
    ``None`` means the whole remaining circuit.
    """
    placement.validate(spec, circ.n_qubits)
    state = DeviceState(spec, placement)
    _reject_infeasible(circ, state)
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
    rows: list = []
    # Durations by kind and chain length (at most the circuit's qubit count),
    # from the timing model's own formulas, so each float is the model's.
    timing = spec.timing
    longest = min(spec.capacity, circ.n_qubits) + 1
    gate2_time = [timing.two_qubit(n) for n in range(longest)]
    swap_time = [timing.swap(n) for n in range(longest)]
    gate1_time, shuttle_time = timing.one_qubit, timing.shuttle
    chains = state.chains
    trap_of = state.trap_of
    shuttle_ion, swap_ions = state.shuttle_ion, state.swap_ions
    extend = rows.extend
    GATE1, GATE2, SWAP, SHUTTLE = OpKind.GATE1, OpKind.GATE2, OpKind.SWAP, OpKind.SHUTTLE
    inf = math.inf
    # Where the next op may start. Each popped gate sets it to the clock tick
    # it was taken at; a split gate's movement ops, then the gate itself, each
    # start no earlier than the op before.
    cursor = 0.0

    def commit(kind, qubits, t, src, dst, seq=None) -> tuple:
        """Time an op at the first moment from cursor on that its traps are
        free, apply a SWAP or shuttle to the state, advance cursor to the op's
        end, and append the op's fields to rows and return them."""
        nonlocal cursor
        # Plain comparisons, not max(): this runs once per op.
        # A duration far below the float spacing at start is lost in the sum,
        # and a huge one overflows it; either would record a wrong duration.
        start = cursor
        if kind is SHUTTLE:
            free = trap_free[src]
            if free > start:
                start = free
            free = trap_free[dst]
            if free > start:
                start = free
            cursor = trap_free[src] = trap_free[dst] = start + shuttle_time
            if not start < cursor < inf:
                raise _no_end(len(rows) // 8, start, shuttle_time)
            shuttle_ion(qubits[0], src, dst)
        else:
            free = trap_free[t]
            if free > start:
                start = free
            if kind is SWAP:
                dur = swap_time[len(chains[t])]
            elif kind is GATE2:
                dur = gate2_time[len(chains[t])]
            else:
                dur = gate1_time
            cursor = trap_free[t] = start + dur
            if not start < cursor < inf:
                raise _no_end(len(rows) // 8, start, dur)
            if kind is SWAP:
                swap_ions(qubits[0], qubits[1], t)
        op = (kind, qubits, t, src, dst, seq, start, cursor)
        extend(op)
        return op

    # Wake heap of (time, seq): a gate enters once, when the previous gate on
    # its last waiting operand commits, and returns at the later of its traps'
    # trap_free while one is busy. This equals rescanning every waiting gate at each clock tick:
    # - every push lies strictly after the popped time, so pops come in
    #   (time, seq) order, which is the lowest-seq-first scan of each tick;
    # - trap_free only grows and a shuttle holds both its traps, so moving a
    #   waiting gate's operand never lets that gate start earlier.
    # A blocked gate is re-queued in place by heapreplace. Each seq is in the
    # heap at most once, so the minimum is unique and pop order is the same
    # as popping and pushing it back.
    wake = [(0.0, seq) for seq, n in enumerate(waiting) if n == 0]
    while wake:
        clock, seq = wake[0]
        qubits = gates[seq][1]
        # A one-qubit gate reads its one trap twice. The placement holds
        # exactly the circuit's qubits and shuttles only move them, so each
        # operand has a trap.
        ta, tb = trap_of[qubits[0]], trap_of[qubits[-1]]
        free, free_b = trap_free[ta], trap_free[tb]
        if free_b > free:
            free = free_b
        if free > clock:
            heapreplace(wake, (free, seq))
            continue
        heappop(wake)
        cursor = clock
        if ta != tb:
            resolve_gate(gates[seq], state, tracker, commit)
            ta, tb = trap_of[qubits[0]], trap_of[qubits[1]]
            if ta != tb:
                raise DeviceOpError(f"gate2 operands {qubits[0]},{qubits[1]} not co-trapped (traps {ta},{tb})")
        commit(GATE2 if len(qubits) == 2 else GATE1, qubits, ta, None, None, seq)
        end = cursor
        mark_done(seq)
        for q in qubits:
            qubit_end[q] = end
            nxt = next(heads[q], None)
            if nxt is not None:
                waiting[nxt] -= 1
                if waiting[nxt] == 0:
                    # The later of its operands' ends; q's is end itself.
                    ready = end
                    for p in gates[nxt][1]:
                        if qubit_end[p] > ready:
                            ready = qubit_end[p]
                    heappush(wake, (ready, nxt))
    if any(waiting):
        raise QccdError("scheduler stalled: gates remain but none can become ready")
    return Schedule(rows=rows)


def _no_end(index: int, start: float, dur: float) -> InputError:
    return InputError(
        f"op {index} starting at {start!r} s with duration {dur!r} s has no"
        " representable end; the timing parameters are too large"
    )


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

    The replay runs on the verifier's own chain model, written from the
    device rules in ``devices.py`` rather than shared with the scheduler:
    per-trap chain lists, a qubit-to-trap dict and per-trap neighbour lists.
    An illegal op is reported in the device model's wording.
    """
    try:
        placement.validate(spec, circ.n_qubits)
    except InputError as exc:
        return Verdict(False, f"invalid initial placement: {exc}")

    chains = [list(c) for c in placement.chains]
    trap_of = {q: t for t, chain in enumerate(chains) for q in chain}
    n_traps, capacity = spec.n_traps, spec.capacity
    # Shuttle ends. Chains run left to right by trap index, and a ring of
    # three or more traps also joins trap T-1's right end to trap 0's left
    # end; a two-trap ring has the single edge 0-1. right_of[t] is the trap
    # whose left end faces t's right end and left_of[t] the mirror, None at
    # a line end. An ion leaves by the end facing its destination and lands
    # at the end facing its source: rightward from src to right_of[src],
    # leftward to left_of[src]; other pairs are not adjacent.
    right_of: list[int | None] = [*range(1, n_traps), None]
    left_of: list[int | None] = [None, *range(n_traps - 1)]
    if spec.topology is Topology.RING and n_traps > 2:
        right_of[-1], left_of[0] = 0, n_traps - 1

    # Op i's fields are rows[8 * i : 8 * i + 8]. A stable sort on start alone
    # keeps equal starts in index order.
    rows = sched.rows
    starts = rows[6::8]
    order = sorted(range(len(starts)), key=starts.__getitem__)
    busy_until = [0.0] * n_traps
    gate_qubits = [g.qubits for g in circ.gates]
    n_gates = len(gate_qubits)
    seen = bytearray(n_gates)
    # Each gate must run exactly once, so a qubit's gates ran in program order
    # exactly when their seqs only grew: last_run[q] is the latest seq run on
    # q, and disordered[q] marks a qubit that saw one lower than it. Neither
    # holds a list per qubit for the collector to track.
    last_run = [-1] * circ.n_qubits
    disordered = bytearray(circ.n_qubits)
    # Durations by kind and chain length, from the timing model. A chain never
    # outgrows capacity (a shuttle into a full trap is illegal) or the circuit.
    timing = spec.timing
    longest = min(capacity, circ.n_qubits) + 1
    gate2_time = [timing.two_qubit(n) for n in range(longest)]
    swap_time = [timing.swap(n) for n in range(longest)]
    gate1_time, shuttle_time = timing.one_qubit, timing.shuttle
    isclose, ulp, inf = math.isclose, math.ulp, math.inf
    GATE1, GATE2, SWAP, SHUTTLE = OpKind.GATE1, OpKind.GATE2, OpKind.SWAP, OpKind.SHUTTLE

    # Each op's checks run in one fixed order: held traps valid and free,
    # duration, circuit gate (gate kinds), legality on the chain model,
    # capacity. _trap_fault reruns the held-trap checks only to name the fault
    # the inline test found.
    #
    # The duration check first tries abs(d - e) <= 1e-9 * e, which implies
    # isclose(d, e, rel_tol=1e-9) for a finite e (the same two floats are
    # compared), and calls isclose only when it fails. An infinite e would
    # pass it with any d, so "< inf" sends that case to isclose, which
    # rejects every finite duration against it. end was rounded once when
    # start + duration was stored, so isclose also allows the float spacing
    # at end as well as the fixed floor.
    for i in order:
        j = 8 * i
        kind, qubits, trap, src, dst, seq, start, end = rows[j : j + 8]
        if not end > start:
            return Verdict(False, f"op has non-positive duration {end - start}", i)
        duration = end - start
        if kind is SHUTTLE:
            if (
                src is None or dst is None or not (0 <= src < n_traps and 0 <= dst < n_traps)
                or start < busy_until[src] - 1e-12 or start < busy_until[dst] - 1e-12
            ):
                return _trap_fault((src, dst), start, busy_until, n_traps, i)
            expected = shuttle_time
        elif trap is None or not 0 <= trap < n_traps or start < busy_until[trap] - 1e-12:
            return _trap_fault((trap,), start, busy_until, n_traps, i)
        elif kind is SWAP:
            expected = swap_time[len(chains[trap])]
        elif kind is GATE2:
            expected = gate2_time[len(chains[trap])]
        elif kind is GATE1:
            expected = gate1_time
        else:
            raise InputError(f"unknown op kind {kind}")
        if not (
            abs(duration - expected) <= 1e-9 * expected < inf
            or isclose(duration, expected, rel_tol=1e-9, abs_tol=max(1e-15, ulp(end)))
        ):
            return _timing_fault(duration, expected, i)
        if kind is SHUTTLE:
            if len(qubits) != 1:
                return _illegal(f"shuttle moves one ion, got {qubits}", i)
            q = qubits[0]
            if right_of[src] == dst:
                right = True
            elif left_of[src] == dst:
                right = False
            else:
                return _illegal(f"shuttle between non-adjacent traps {src} and {dst}", i)
            at = trap_of.get(q)
            if at != src:
                if at is None:
                    return _illegal(f"qubit {q} is not on the device", i)
                return _illegal(f"shuttle qubit {q} is not in source trap {src}", i)
            chain, landing = chains[src], chains[dst]
            if chain[-1 if right else 0] != q:
                return _illegal(f"shuttle qubit {q} is not at the boundary of trap {src} facing trap {dst}", i)
            if len(landing) >= capacity:
                return _illegal(f"shuttle destination trap {dst} is full", i)
            if right:
                chain.pop()
                landing.insert(0, q)
            else:
                del chain[0]
                landing.append(q)
            trap_of[q] = dst
            if len(landing) > capacity:
                return Verdict(False, f"trap {dst} exceeds capacity {capacity}", i)
            busy_until[src] = busy_until[dst] = end
            continue
        if kind is SWAP:
            # All-to-all connectivity inside a trap: a SWAP gate exchanges the
            # chain positions of any two resident ions.
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                return _illegal(f"swap needs two distinct ions, got {qubits}", i)
            a, b = qubits
            ta, tb = trap_of.get(a), trap_of.get(b)
            if ta is None or tb is None:
                return _illegal(f"qubit {b if ta is not None else a} is not on the device", i)
            if ta != tb:
                return _illegal(f"swap ions {a},{b} not co-trapped (traps {ta},{tb})", i)
            if trap != ta:
                return _illegal(f"swap trap {trap} does not hold ions {a},{b}", i)
            chain = chains[ta]
            pa, pb = chain.index(a), chain.index(b)
            chain[pa], chain[pb] = b, a
        else:
            if seq is None or not 0 <= seq < n_gates:
                return Verdict(False, f"gate op carries unknown circuit index {seq}", i)
            operands = gate_qubits[seq]
            if qubits != operands and tuple(qubits) not in (operands, operands[::-1]):
                return Verdict(False, f"gate {seq} operands {qubits} differ from circuit {operands}", i)
            if (kind is GATE2) != (len(operands) == 2):
                return Verdict(False, f"gate {seq} arity mismatch", i)
            if seen[seq]:
                return Verdict(False, f"gate {seq} scheduled more than once", i)
            seen[seq] = 1
            for q in operands:
                if last_run[q] > seq:
                    disordered[q] = 1
                last_run[q] = seq
            # Every circuit qubit is placed and only moves between traps, so
            # an operand is always on the device.
            if kind is GATE2:
                a, b = qubits
                ta, tb = trap_of[a], trap_of[b]
                if ta != tb:
                    return _illegal(f"gate2 operands {a},{b} not co-trapped (traps {ta},{tb})", i)
                if trap != ta:
                    return _illegal(f"gate2 trap {trap} does not hold operands {a},{b}", i)
            elif trap != trap_of[qubits[0]]:
                return _illegal(f"gate1 trap {trap} does not hold qubit {qubits[0]}", i)
        busy_until[trap] = end
    missing = [seq for seq in range(n_gates) if not seen[seq]]
    if missing:
        return Verdict(False, f"gates never scheduled: {missing[:8]}{'...' if len(missing) > 8 else ''}")
    if any(disordered):
        return Verdict(False, f"qubit {disordered.index(1)} saw gates out of program order")
    return Verdict(True)


def _trap_fault(held: tuple, start: float, busy_until: list[float], n_traps: int, i: int) -> Verdict:
    """The verdict on op i for the first of its held traps that is invalid or
    still busy at start; the caller found one that is."""
    for t in held:
        if t is None or not 0 <= t < n_traps:
            return Verdict(False, f"op references invalid trap {t}", i)
        if start < busy_until[t] - 1e-12:
            return Verdict(False, f"trap {t} is busy until {busy_until[t]:.9f} at start {start:.9f}", i)
    raise AssertionError(f"op {i} holds no faulty trap")


def _timing_fault(duration: float, expected: float, i: int) -> Verdict:
    return Verdict(False, f"duration {duration:.12f} does not match timing model {expected:.12f}", i)


def _illegal(reason: str, i: int) -> Verdict:
    return Verdict(False, f"illegal op: {reason}", i)


def schedule_to_text(sched: Schedule) -> str:
    """Render a schedule as CSV rows plus a key=value metrics footer.

    Times are microseconds with fixed precision so reruns are byte-identical.
    """
    lines = ["start_us,end_us,kind,qubits,traps"]
    row = lines.append
    SHUTTLE = OpKind.SHUTTLE
    text = [str(i) for i in range(4096)]
    n = len(text)
    # Most ops start where the one before ended, so its end text is reused.
    # Equal floats format alike unless they are 0.0 and -0.0, so a zero start
    # is always formatted.
    prev_end, end_us = None, ""
    for kind, qubits, trap, src, dst, _, start, end in zip(*[iter(sched.rows)] * 8):
        start_us = end_us if start == prev_end and start else f"{start * 1e6:.3f}"
        prev_end, end_us = end, f"{end * 1e6:.3f}"
        # A negative index would read the table from its end, so each one is
        # range-checked; a None field fails its check by raising TypeError,
        # and another qubit count its unpacking by raising ValueError.
        # _value_ is the plain attribute behind Enum.value's descriptor.
        try:
            if kind is SHUTTLE:
                (q,) = qubits
                if -1 < q < n and -1 < src < n and -1 < dst < n:
                    row(f"{start_us},{end_us},shuttle,{text[q]},{text[src]}:{text[dst]}")
                    continue
            elif len(qubits) == 2:
                a, b = qubits
                if -1 < a < n and -1 < b < n and -1 < trap < n:
                    row(f"{start_us},{end_us},{kind._value_},{text[a]}:{text[b]},{text[trap]}")
                    continue
            else:
                (q,) = qubits
                if -1 < q < n and -1 < trap < n:
                    row(f"{start_us},{end_us},{kind._value_},{text[q]},{text[trap]}")
                    continue
        except (TypeError, ValueError):
            pass
        traps = f"{src}:{dst}" if kind is SHUTTLE else trap
        row(f"{start_us},{end_us},{kind._value_},{':'.join(map(str, qubits))},{traps}")
    m = sched.metrics
    lines.append(f"# total_time_us={m.total_time * 1e6:.3f}")
    lines.append(f"# shuttles={m.shuttles}")
    lines.append(f"# swaps={m.swaps}")
    lines.append(f"# one_qubit_gates={m.one_qubit_gates}")
    lines.append(f"# two_qubit_gates={m.two_qubit_gates}")
    # The empty last line gives the trailing newline without copying the text.
    lines.append("")
    return "\n".join(lines)
