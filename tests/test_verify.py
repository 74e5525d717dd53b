"""Independent schedule verification: random replay sweep plus mutation catches."""
from __future__ import annotations

import random
import time

from qccdmap.circuits import circuit
from qccdmap.cli import run_compile
from qccdmap.devices import DeviceSpec, OpKind, PhysOp, TimingModel, Topology
from qccdmap.placement import Placement, place
from qccdmap.scheduling import Schedule, ScheduledOp, schedule, verify_schedule
from reference import held, op_duration


def _random_tuple(rng: random.Random):
    n = rng.randint(2, 16)
    traps = rng.randint(1, 4)
    excess = 0 if traps == 1 else rng.randint(1, 2)
    usable = -(-n // traps) + rng.randint(0, 2)
    spec = DeviceSpec(
        topology=rng.choice((Topology.LINEAR, Topology.RING)) if traps >= 3 else Topology.LINEAR,
        n_traps=traps,
        capacity=usable + excess,
        excess_capacity=excess,
    )
    gates = []
    for _ in range(rng.randint(1, 30)):
        if n >= 2 and rng.random() < 0.7:
            a, b = rng.sample(range(n), 2)
            gates.append(("cx", a, b))
        else:
            gates.append(("h", rng.randrange(n)))
    strategy = rng.choice(("sta", "greedy", "random"))
    return circuit(n, gates), spec, strategy


def test_random_schedules_all_verify():
    started = time.monotonic()
    rng = random.Random(97)
    for trial in range(1000):
        circ, spec, strategy = _random_tuple(rng)
        pl = place(circ, spec, strategy, seed=trial)
        sched = schedule(circ, pl, spec)
        v = verify_schedule(sched, circ, pl, spec)
        assert v.ok, f"trial {trial} ({strategy}): {v.reason}"
    assert time.monotonic() - started < 120


def _valid(movement_circuit, movement_spec, movement_placement):
    sched = schedule(movement_circuit, movement_placement, movement_spec)
    assert verify_schedule(sched, movement_circuit, movement_placement, movement_spec).ok
    return sched


def test_mutation_gate_deletion_is_caught(movement_circuit, movement_spec, movement_placement):
    sched = _valid(movement_circuit, movement_spec, movement_placement)
    drop = next(i for i, s in enumerate(sched.ops) if s.op.kind is OpKind.GATE2)
    mutated = Schedule(ops=sched.ops[:drop] + sched.ops[drop + 1 :])
    v = verify_schedule(mutated, movement_circuit, movement_placement, movement_spec)
    assert not v.ok
    assert "never scheduled" in v.reason


def test_mutation_time_shift_is_caught(movement_circuit, movement_spec, movement_placement):
    sched = _valid(movement_circuit, movement_spec, movement_placement)
    by_start = sorted(range(len(sched.ops)), key=lambda i: sched.ops[i].start)
    target = None
    for prev, cur in zip(by_start, by_start[1:]):
        a, b = sched.ops[prev], sched.ops[cur]
        if set(held(a.op)) & set(held(b.op)) and b.start >= a.end and b.start - 1e-5 > a.start:
            target = (a, cur)
            break
    assert target is not None
    a, cur = target
    b = sched.ops[cur]
    shifted = ScheduledOp(b.op, b.start - 1e-5, b.end - 1e-5)
    mutated = Schedule(ops=sched.ops[:cur] + (shifted,) + sched.ops[cur + 1 :])
    v = verify_schedule(mutated, movement_circuit, movement_placement, movement_spec)
    assert not v.ok


def test_mutation_trap_overflow_is_caught():
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=3, excess_capacity=1)
    circ = circuit(4, [("cx", 0, 1)])
    pl = Placement(chains=((0, 1, 2), (3,)))
    sched = schedule(circ, pl, spec)
    assert verify_schedule(sched, circ, pl, spec).ok
    t0 = sched.makespan
    pushed = PhysOp(OpKind.SHUTTLE, (3,), src=1, dst=0)
    dur = op_duration(spec.timing, pushed, [3, 1])
    mutated = Schedule(ops=sched.ops + (ScheduledOp(pushed, t0, t0 + dur),))
    v = verify_schedule(mutated, circ, pl, spec)
    assert not v.ok
    assert "full" in v.reason or "capacity" in v.reason


def test_mutation_program_order_swap_is_caught():
    # two gate1 ops on one qubit trade circuit indices: every op stays legal
    # and every gate still runs once, only the qubit's order is wrong
    circ = circuit(2, [("h", 0), ("x", 0), ("cx", 0, 1)])
    pl = Placement(chains=((0, 1),))
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=1, capacity=2, excess_capacity=0)
    sched = schedule(circ, pl, spec)
    assert verify_schedule(sched, circ, pl, spec).ok
    i, j = [k for k, s in enumerate(sched.ops) if s.op.kind is OpKind.GATE1]
    ops = list(sched.ops)
    ops[i], ops[j] = (
        ScheduledOp(ops[i].op._replace(seq=ops[j].op.seq), ops[i].start, ops[i].end),
        ScheduledOp(ops[j].op._replace(seq=ops[i].op.seq), ops[j].start, ops[j].end),
    )
    v = verify_schedule(Schedule(ops=tuple(ops)), circ, pl, spec)
    assert not v.ok
    assert v.reason == "qubit 0 saw gates out of program order"


def test_verdict_reports_offending_op(movement_circuit, movement_spec, movement_placement):
    sched = _valid(movement_circuit, movement_spec, movement_placement)
    idx = next(i for i, s in enumerate(sched.ops) if s.op.kind is OpKind.GATE2)
    s = sched.ops[idx]
    stretched = ScheduledOp(s.op, s.start, s.end + 5e-5)
    mutated = Schedule(ops=sched.ops[:idx] + (stretched,) + sched.ops[idx + 1 :])
    v = verify_schedule(mutated, movement_circuit, movement_placement, movement_spec)
    assert not v.ok
    assert "duration" in v.reason
    assert v.op_index == idx


def test_wrong_placement_rejected(movement_circuit, movement_spec, movement_placement):
    sched = _valid(movement_circuit, movement_spec, movement_placement)
    other = Placement(chains=((5, 4, 2, 3), (0, 1)))
    v = verify_schedule(sched, movement_circuit, other, movement_spec)
    assert not v.ok


def test_duration_is_checked_at_occupancy_where_op_starts():
    # cx 0 2 runs in the trap the shuttle just filled; timing it at the
    # occupancy from before the shuttle must be rejected
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=3, excess_capacity=1)
    circ = circuit(3, [("cx", 0, 2)])
    pl = Placement(chains=((0, 1), (2,)))
    sched = schedule(circ, pl, spec)
    assert verify_schedule(sched, circ, pl, spec).ok
    idx = next(i for i, s in enumerate(sched.ops) if s.op.kind is OpKind.GATE2)
    gate, shuttle = sched.ops[idx], sched.ops[idx - 1]
    assert shuttle.op.kind is OpKind.SHUTTLE and shuttle.op.dst == gate.op.trap
    assert gate.start == shuttle.end
    before = [len(c) for c in pl.chains]
    stale = ScheduledOp(gate.op, gate.start, gate.start + op_duration(spec.timing, gate.op, before))
    assert stale.end != gate.end
    mutated = Schedule(ops=sched.ops[:idx] + (stale,) + sched.ops[idx + 1 :])
    v = verify_schedule(mutated, circ, pl, spec)
    assert not v.ok
    assert "does not match timing model" in v.reason
    assert v.op_index == idx

    # a SWAP on a non-default timing model, timed one ion short of its trap
    timing = TimingModel(two_qubit_slope=0.3, swap_factor=2.5)
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=3, excess_capacity=1, timing=timing)
    circ = circuit(4, [("cx", 0, 2)])
    pl = Placement(chains=((0, 1), (3, 2)))
    sched = schedule(circ, pl, spec)
    assert verify_schedule(sched, circ, pl, spec).ok
    idx = next(i for i, s in enumerate(sched.ops) if s.op.kind is OpKind.SWAP)
    swap = sched.ops[idx]
    assert not any(set(held(s.op)) & set(held(swap.op)) for s in sched.ops[:idx])
    n = len(pl.chains[swap.op.trap])
    assert swap.end - swap.start == timing.swap(n)
    short = ScheduledOp(swap.op, swap.start, swap.start + timing.swap(n - 1))
    mutated = Schedule(ops=sched.ops[:idx] + (short,) + sched.ops[idx + 1 :])
    v = verify_schedule(mutated, circ, pl, spec)
    assert not v.ok
    assert "does not match timing model" in v.reason
    assert v.op_index == idx


def test_invalid_ops_with_equal_starts_report_the_lower_index():
    # two one-qubit gates start together in different traps; both are
    # stretched, and replay in (start, index) order meets the lower first
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=2, excess_capacity=0)
    circ = circuit(4, [("h", 2), ("h", 0)])
    pl = Placement(chains=((0, 1), (2, 3)))
    sched = schedule(circ, pl, spec)
    assert verify_schedule(sched, circ, pl, spec).ok
    assert [s.start for s in sched.ops] == [0.0, 0.0]
    for ops in (sched.ops, sched.ops[::-1]):
        stretched = tuple(ScheduledOp(s.op, s.start, s.end + 5e-5) for s in ops)
        v = verify_schedule(Schedule(ops=stretched), circ, pl, spec)
        assert not v.ok
        assert "does not match timing model" in v.reason
        assert v.op_index == 0


def test_long_schedule_verifies_despite_rounding_at_large_start():
    # 300 one-second gates put the 10 us one-qubit gates at start ~300 s,
    # where start + duration rounds by more than 1e-15
    spec = DeviceSpec(Topology.LINEAR, 1, 4, 1, TimingModel(two_qubit_base=1.0))
    circ = circuit(2, [("cx", 0, 1)] * 300 + [("h", 0)] * 50)
    record, sched = run_compile(circ, spec, "sta")
    assert record.total_time == sched.ops[-1].end
    pl = place(circ, spec, "sta")
    # stretching the last gate by 1 ns, far above the float spacing at 300 s,
    # is still rejected
    last = sched.ops[-1]
    assert last.start > 300.0
    stretched = ScheduledOp(last.op, last.start, last.end + 1e-9)
    v = verify_schedule(Schedule(ops=sched.ops[:-1] + (stretched,)), circ, pl, spec)
    assert not v.ok
    assert "does not match timing model" in v.reason
    assert v.op_index == len(sched.ops) - 1
