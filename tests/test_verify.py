"""Independent schedule verification: random replay sweep, mutation catches,
agreement with the reference verifier, and device-model bugs it must catch."""
from __future__ import annotations

import ast
import dataclasses
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qccdmap import scheduling
from qccdmap.circuits import circuit
from qccdmap.cli import run_compile
from qccdmap.devices import DeviceSpec, DeviceState, OpKind, PhysOp, TimingModel, Topology
from qccdmap.placement import Placement, place
from qccdmap.scheduling import Schedule, schedule, verify_schedule
from reference import held, op_duration
from test_scheduling import _compile_case


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
    drop = next(i for i, s in enumerate(sched.ops) if s.kind is OpKind.GATE2)
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
        if set(held(a)) & set(held(b)) and b.start >= a.end and b.start - 1e-5 > a.start:
            target = (a, cur)
            break
    assert target is not None
    a, cur = target
    b = sched.ops[cur]
    shifted = b._replace(start=b.start - 1e-5, end=b.end - 1e-5)
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
    mutated = Schedule(ops=sched.ops + (pushed._replace(start=t0, end=t0 + dur),))
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
    i, j = [k for k, s in enumerate(sched.ops) if s.kind is OpKind.GATE1]
    ops = list(sched.ops)
    ops[i], ops[j] = (
        ops[i]._replace(seq=ops[j].seq),
        ops[j]._replace(seq=ops[i].seq),
    )
    v = verify_schedule(Schedule(ops=tuple(ops)), circ, pl, spec)
    assert not v.ok
    assert v.reason == "qubit 0 saw gates out of program order"


def test_verdict_reports_offending_op(movement_circuit, movement_spec, movement_placement):
    sched = _valid(movement_circuit, movement_spec, movement_placement)
    idx = next(i for i, s in enumerate(sched.ops) if s.kind is OpKind.GATE2)
    s = sched.ops[idx]
    stretched = s._replace(end=s.end + 5e-5)
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
    idx = next(i for i, s in enumerate(sched.ops) if s.kind is OpKind.GATE2)
    gate, shuttle = sched.ops[idx], sched.ops[idx - 1]
    assert shuttle.kind is OpKind.SHUTTLE and shuttle.dst == gate.trap
    assert gate.start == shuttle.end
    before = [len(c) for c in pl.chains]
    stale = gate._replace(end=gate.start + op_duration(spec.timing, gate, before))
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
    idx = next(i for i, s in enumerate(sched.ops) if s.kind is OpKind.SWAP)
    swap = sched.ops[idx]
    assert not any(set(held(s)) & set(held(swap)) for s in sched.ops[:idx])
    n = len(pl.chains[swap.trap])
    assert swap.end - swap.start == timing.swap(n)
    short = swap._replace(end=swap.start + timing.swap(n - 1))
    mutated = Schedule(ops=sched.ops[:idx] + (short,) + sched.ops[idx + 1 :])
    v = verify_schedule(mutated, circ, pl, spec)
    assert not v.ok
    assert "does not match timing model" in v.reason
    assert v.op_index == idx


def test_duration_against_an_infinite_model_duration_is_rejected():
    # swap(2) overflows to inf on this model; a finite SWAP is no match for it
    timing = TimingModel(swap_factor=1e300, two_qubit_base=1e10)
    assert timing.swap(2) == math.inf
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=1, capacity=2, excess_capacity=0, timing=timing)
    circ = circuit(2, [("h", 0)])
    pl = Placement(chains=((0, 1),))
    swap = PhysOp(OpKind.SWAP, (0, 1), trap=0, end=1.0)
    gate = PhysOp(OpKind.GATE1, (0,), trap=0, seq=0, start=1.0, end=1.0 + timing.one_qubit)
    v = verify_schedule(Schedule(ops=(swap, gate)), circ, pl, spec)
    assert (v.ok, v.reason, v.op_index) == (
        False, "duration 1.000000000000 does not match timing model inf", 0
    )


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
        stretched = tuple(s._replace(end=s.end + 5e-5) for s in ops)
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
    stretched = last._replace(end=last.end + 1e-9)
    v = verify_schedule(Schedule(ops=sched.ops[:-1] + (stretched,)), circ, pl, spec)
    assert not v.ok
    assert "does not match timing model" in v.reason
    assert v.op_index == len(sched.ops) - 1


# ---------------------------------------------------------------------------
# the verifier's own chain model against the reference replay
# ---------------------------------------------------------------------------

MUTATIONS = (
    "shift", "stretch", "retrap", "reverse", "drop", "duplicate", "swap_seqs", "swap_qubits",
    "rekind",
)


def _mutate(sched: Schedule, circ, spec, rng: random.Random, how: str) -> Schedule:
    """One seeded single-op mutation of a schedule."""
    ops = list(sched.ops)
    i = rng.randrange(len(ops))
    op = ops[i]
    start, end = op.start, op.end
    if how == "shift":
        # a small step either way, or to where another op starts
        delta = rng.choice((-1, 1)) * rng.choice((1e-6, 1e-5, 1e-4, end - start))
        if rng.random() < 0.3:
            delta = rng.choice(ops).start - start
        ops[i] = op._replace(start=start + delta, end=end + delta)
    elif how == "stretch":
        ops[i] = op._replace(end=end + rng.choice((1e-9, 5e-5, (start - end) / 2, start - end)))
    elif how == "retrap":
        name = rng.choice(("src", "dst")) if op.kind is OpKind.SHUTTLE else "trap"
        value = rng.choice((None, -1, spec.n_traps, *range(spec.n_traps)))
        ops[i] = op._replace(**{name: value})
    elif how == "reverse":
        shuttles = [j for j, s in enumerate(ops) if s.kind is OpKind.SHUTTLE]
        if shuttles:
            j = rng.choice(shuttles)
            s = ops[j]
            ops[j] = s._replace(src=s.dst, dst=s.src)
    elif how == "drop":
        del ops[i]
    elif how == "duplicate":
        # at the same time, or once the schedule is over
        late = sched.makespan - start
        copy = op._replace(start=start + late, end=end + late) if rng.random() < 0.5 else ops[i]
        ops.insert(rng.randrange(len(ops) + 1), copy)
    elif how == "swap_seqs":
        gates = [j for j, s in enumerate(ops) if s.seq is not None]
        if len(gates) >= 2:
            j, k = rng.sample(gates, 2)
            a, b = ops[j], ops[k]
            ops[j] = a._replace(seq=b.seq)
            ops[k] = b._replace(seq=a.seq)
    elif how == "swap_qubits":
        qubits = list(op.qubits)
        if len(qubits) == 2 and rng.random() < 0.5:
            qubits.reverse()
        else:
            # another ion, or one that no trap holds
            qubits[rng.randrange(len(qubits))] = rng.randrange(circ.n_qubits + 1)
        ops[i] = op._replace(qubits=tuple(qubits))
    elif how == "rekind":
        # another kind, or a value that is no kind; a one-qubit gate is
        # retimed so that the checks after the duration check see it
        kind = rng.choice((*OpKind, "gate1"))
        if kind is OpKind.GATE1:
            end = start + spec.timing.one_qubit
        ops[i] = op._replace(kind=kind, end=end)
    else:
        raise ValueError(how)
    return Schedule(ops=tuple(ops))


def _outcome(verify, sched, circ, pl, spec):
    try:
        return verify(sched, circ, pl, spec)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_compile_case(), st.integers(0, 2**32 - 1))
def test_verifier_agrees_with_reference_replay_on_mutated_schedules(case, mutation_seed):
    circ, spec, strategy, lookahead = case
    pl = place(circ, spec, strategy, seed=0)
    sched = schedule(circ, pl, spec, lookahead=lookahead)
    assert verify_schedule(sched, circ, pl, spec) == reference.verify_schedule(sched, circ, pl, spec)
    if not sched.ops:
        return
    rng = random.Random(mutation_seed)
    for how in MUTATIONS:
        for _ in range(2):
            mutated = _mutate(sched, circ, spec, rng, how)
            mine = _outcome(verify_schedule, mutated, circ, pl, spec)
            theirs = _outcome(reference.verify_schedule, mutated, circ, pl, spec)
            assert mine == theirs, how


def test_verifier_shares_no_code_with_the_device_model():
    # verify_schedule and the module helpers it calls must not replay through
    # DeviceState or read the device's exit-slot table
    tree = ast.parse(Path(scheduling.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    forbidden = {
        "DeviceState", "apply", "shuttle_ion", "swap_ions", "exit_slot", "_facing", "facing_end", "new_record",
    }
    todo, checked = ["verify_schedule"], set()
    while todo:
        name = todo.pop()
        checked.add(name)
        used = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        assert not used & forbidden, (name, sorted(used & forbidden))
        todo.extend(n for n in used if n in functions and n not in checked)
    assert {"verify_schedule", "_illegal"} <= checked


# ---------------------------------------------------------------------------
# device-model bugs: a wrong DeviceState mutation misleads the scheduler, and
# the verifier, which keeps its own chain model, still rejects the result
# ---------------------------------------------------------------------------

def test_wrong_landing_end_across_a_ring_wrap_is_caught(monkeypatch):
    shuttle_ion = DeviceState.shuttle_ion

    def lands_on_the_far_end(self, q, src, dst):
        shuttle_ion(self, q, src, dst)
        last = self.spec.n_traps - 1
        if {src, dst} == {0, last}:
            chain = self.chains[dst]
            chain.remove(q)
            if dst == 0:
                chain.append(q)
            else:
                chain.insert(0, q)

    # for cx 3 0, qubit 0 crosses the wrap edge 0 -> 2 and lands at trap 2's
    # right end, but the buggy model puts it at the left end; cx 0 2 then
    # shuttles it on to trap 1 with no SWAP to the end facing trap 1
    spec = DeviceSpec(topology=Topology.RING, n_traps=3, capacity=4, excess_capacity=1)
    circ = circuit(5, [("cx", 3, 0), ("cx", 0, 2)])
    pl = Placement(chains=((0, 1), (2,), (4, 3)))
    monkeypatch.setattr(DeviceState, "shuttle_ion", lands_on_the_far_end)
    sched = schedule(circ, pl, spec)
    assert [s._replace(start=0.0, end=0.0) for s in sched.ops if s.kind is OpKind.SHUTTLE] == [
        PhysOp(OpKind.SHUTTLE, (0,), src=0, dst=2),
        PhysOp(OpKind.SHUTTLE, (0,), src=2, dst=1),
    ]
    v = verify_schedule(sched, circ, pl, spec)
    assert (v.ok, v.reason, v.op_index) == (
        False, "illegal op: shuttle qubit 0 is not at the boundary of trap 2 facing trap 1", 2
    )


def test_shuttle_into_a_full_trap_is_caught(monkeypatch):
    apply = DeviceState.apply

    def one_ion_too_many(self, op):
        spec = self.spec
        if op.kind is OpKind.SHUTTLE:
            self.spec = dataclasses.replace(spec, capacity=spec.capacity + 1)
        try:
            apply(self, op)
        finally:
            self.spec = spec

    monkeypatch.setattr(DeviceState, "apply", one_ion_too_many)
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=3, excess_capacity=1)
    circ = circuit(4, [("h", 3)])
    pl = Placement(chains=((0, 1, 2), (3,)))
    pushed = PhysOp(OpKind.SHUTTLE, (3,), src=1, dst=0)
    state = DeviceState(spec, pl)
    state.apply(pushed)  # the buggy model lets the ion in
    assert state.chains[0] == [0, 1, 2, 3]
    shuttle = spec.timing.shuttle
    gate = PhysOp(OpKind.GATE1, (3,), trap=0, seq=0, start=shuttle, end=shuttle + spec.timing.one_qubit)
    sched = Schedule(ops=(pushed._replace(end=shuttle), gate))
    v = verify_schedule(sched, circ, pl, spec)
    assert (v.ok, v.reason, v.op_index) == (False, "illegal op: shuttle destination trap 0 is full", 0)


def test_swap_in_a_trap_that_does_not_hold_its_ions_is_caught(monkeypatch):
    apply = DeviceState.apply

    def no_swap_trap_check(self, op):
        apply(self, op._replace(trap=None) if op.kind is OpKind.SWAP else op)

    monkeypatch.setattr(DeviceState, "apply", no_swap_trap_check)
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=3, excess_capacity=1)
    circ = circuit(4, [("cx", 0, 1)])
    pl = Placement(chains=((0, 1), (2, 3)))
    # the SWAP names trap 1 but exchanges ions 0 and 1 of trap 0; it is timed
    # at trap 1's chain length, so only the trap check can catch it
    t = spec.timing.swap(2)
    swap = PhysOp(OpKind.SWAP, (0, 1), trap=1, end=t)
    gate = PhysOp(OpKind.GATE2, (0, 1), trap=0, seq=0, start=t, end=t + spec.timing.two_qubit(2))
    sched = Schedule(ops=(swap, gate))
    v = verify_schedule(sched, circ, pl, spec)
    assert (v.ok, v.reason, v.op_index) == (False, "illegal op: swap trap 1 does not hold ions 0,1", 0)


@pytest.mark.parametrize("qubits", [(), (3, 0)])
def test_shuttle_that_does_not_name_one_ion_is_caught(qubits):
    # Ion 3 is at trap 1's boundary facing trap 0, and ion 0 sits in trap 0.
    # Read as its first ion alone, the two-ion shuttle would pass.
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=3, excess_capacity=1)
    circ = circuit(4, [("h", 3)])
    pl = Placement(chains=((0, 1), (3, 2)))
    shuttle = spec.timing.shuttle
    gate = PhysOp(OpKind.GATE1, (3,), trap=0, seq=0, start=shuttle, end=shuttle + spec.timing.one_qubit)
    moved = PhysOp(OpKind.SHUTTLE, (3,), src=1, dst=0, end=shuttle)
    assert verify_schedule(Schedule(ops=(moved, gate)), circ, pl, spec).ok
    sched = Schedule(ops=(moved._replace(qubits=qubits), gate))
    v = verify_schedule(sched, circ, pl, spec)
    assert (v.ok, v.reason, v.op_index) == (False, f"illegal op: shuttle moves one ion, got {qubits}", 0)
