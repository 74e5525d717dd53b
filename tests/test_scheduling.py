"""Scheduler: serialization, dependencies, timing, and the no-movement case."""
from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccdmap.benchmarks import generate
from qccdmap.circuits import Gate, circuit
from qccdmap.devices import (
    DeviceSpec,
    DeviceState,
    OpKind,
    PhysOp,
    TimingModel,
    Topology,
    shortest_path,
)
from qccdmap.errors import DeadlockError, DeviceOpError, InputError
from qccdmap.placement import Placement, place, sta_place
from qccdmap.routing import DEFAULT_LOOKAHEAD, PendingTracker, resolve_gate
from qccdmap import scheduling
from qccdmap.scheduling import (
    Schedule,
    schedule,
    schedule_to_text,
    verify_schedule,
)
from reference import held, op_duration


def _spec(n_traps, capacity, excess, topology=Topology.LINEAR) -> DeviceSpec:
    return DeviceSpec(topology=topology, n_traps=n_traps, capacity=capacity, excess_capacity=excess)


def _assert_serialized(sched):
    busy: dict[int, list[tuple[float, float]]] = {}
    for s in sched.ops:
        for t in held(s):
            for a, b in busy.get(t, []):
                assert s.end <= a or s.start >= b, f"trap {t} double-booked"
            busy.setdefault(t, []).append((s.start, s.end))


def test_trap_serialization_and_durations(movement_circuit, movement_spec, movement_placement):
    sched = schedule(movement_circuit, movement_placement, movement_spec)
    _assert_serialized(sched)
    assert sched.makespan == max(s.end for s in sched.ops)
    for s in sched.ops:
        assert s.end > s.start


def test_parallel_gates_in_distinct_traps(movement_circuit, movement_spec, movement_placement):
    sched = schedule(movement_circuit, movement_placement, movement_spec)
    g01 = next(s for s in sched.ops if s.kind == OpKind.GATE2 and set(s.qubits) == {0, 1})
    g45 = next(s for s in sched.ops if s.kind == OpKind.GATE2 and set(s.qubits) == {4, 5})
    assert g01.start < g45.end and g45.start < g01.end


def test_gates_respect_program_order_per_qubit(worked_circuit, worked_spec):
    sched = schedule(worked_circuit, sta_place(worked_circuit, worked_spec), worked_spec)
    _assert_serialized(sched)
    order: dict[int, list[int]] = {}
    for s in sched.ops:
        if s.seq is None:
            continue
        for q in s.qubits:
            order.setdefault(q, []).append(s.seq)
    for q, seqs in order.items():
        gate_seqs = [g.seq for g in worked_circuit.gates if q in g.qubits]
        assert seqs == gate_seqs


def test_every_gate_scheduled_exactly_once(worked_circuit, worked_spec):
    sched = schedule(worked_circuit, sta_place(worked_circuit, worked_spec), worked_spec)
    seqs = [s.seq for s in sched.ops if s.seq is not None]
    assert sorted(seqs) == list(range(len(worked_circuit.gates)))


def test_shuttle_blocks_both_traps():
    spec = _spec(2, 4, 2)
    c = circuit(4, [("cx", 1, 2), ("cx", 3, 0)])
    sched = schedule(c, Placement(chains=((0, 1), (2, 3))), spec)
    _assert_serialized(sched)
    shuttle = next(s for s in sched.ops if s.kind == OpKind.SHUTTLE)
    assert set(held(shuttle)) == {0, 1}


def test_durations_match_occupancy_at_start(movement_circuit, movement_spec, movement_placement):
    sched = schedule(movement_circuit, movement_placement, movement_spec)
    # cx 0 1 runs in trap 0 while it still holds 4 ions
    g01 = next(s for s in sched.ops if s.kind == OpKind.GATE2 and set(s.qubits) == {0, 1})
    assert g01.end - g01.start == pytest.approx(100e-6 * (1 + 0.05 * 3))
    # cx 2 4 runs in trap 1 after qubit 2 arrives (3 ions)
    g24 = next(s for s in sched.ops if s.kind == OpKind.GATE2 and set(s.qubits) == {2, 4})
    assert g24.end - g24.start == pytest.approx(100e-6 * (1 + 0.05 * 2))


def test_state_never_aliases_its_placement():
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=3, capacity=3, excess_capacity=0)
    circ = circuit(6, [("cx", 0, 2), ("cx", 2, 3), ("cx", 0, 5)])
    pl = Placement(chains=((1, 0), (2, 3, 4), (5,)))
    chains, trap_of = pl.chains, dict(pl.trap_of)
    state = DeviceState(spec, pl)

    def commit(*fields):
        op = PhysOp(*fields)
        state.apply(op)
        return op

    ops = resolve_gate(circ.gates[0], state, PendingTracker(circ), commit)
    assert state.trap_of[0] == state.trap_of[2] and len(ops) >= 2
    assert pl.chains is chains and pl.chains == ((1, 0), (2, 3, 4), (5,))
    assert pl.trap_of == trap_of
    # the schedule a placement gives does not depend on earlier compiles from it
    assert schedule_to_text(schedule(circ, pl, spec)) == schedule_to_text(schedule(circ, pl, spec))
    assert pl.trap_of == trap_of


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("slope", [0.0, 0.3])
def test_scheduled_durations_equal_timing_model_exactly(topology, slope):
    # the verifier's isclose would pass a duration off by under 1e-9; the
    # scheduler's durations must be the timing model's floats themselves
    timing = TimingModel(two_qubit_slope=slope, swap_factor=2.5)
    spec = DeviceSpec(topology=topology, n_traps=4, capacity=7, excess_capacity=2, timing=timing)
    circ = generate("rnd", 24, gates=300, seed=3)
    pl = place(circ, spec, "sta")
    sched = schedule(circ, pl, spec)
    state = DeviceState(spec, pl)
    lengths = set()
    for s in sched.ops:
        occupancy = state.occupancies()
        assert s.start + op_duration(timing, s, occupancy) == s.end
        if s.kind in (OpKind.GATE2, OpKind.SWAP):
            lengths.add((s.kind, occupancy[s.trap]))
        state.apply(s)
    assert {kind for kind, _ in lengths} == {OpKind.GATE2, OpKind.SWAP}
    assert len(lengths) >= 6
    assert sched.metrics.shuttles > 0


def test_metrics_count_kinds(movement_circuit, movement_spec, movement_placement):
    m = schedule(movement_circuit, movement_placement, movement_spec).metrics
    assert (m.shuttles, m.swaps) == (1, 1)
    assert m.two_qubit_gates == 4
    assert m.one_qubit_gates == 0
    assert m.shuttles + m.swaps == 2
    assert m.total_time > 0


def test_single_qubit_gates_are_timed_and_serialized():
    spec = _spec(1, 3, 1)
    c = circuit(2, [("h", 0), ("h", 0), ("cx", 0, 1)])
    sched = schedule(c, Placement(chains=((0, 1),)), spec)
    _assert_serialized(sched)
    h0, h1 = (s for s in sched.ops if s.kind == OpKind.GATE1)
    assert h0.end - h0.start == pytest.approx(10e-6)
    assert h1.start >= h0.end


def test_default_lookahead_applied():
    c = circuit(4, [("cx", 0, 2), ("cx", 1, 3)])
    spec = _spec(2, 4, 2)
    pl = Placement(chains=((0, 1), (2, 3)))
    assert schedule(c, pl, spec) == schedule(c, pl, spec, DEFAULT_LOOKAHEAD)


def test_schedule_to_text_is_deterministic(movement_circuit, movement_spec, movement_placement):
    a = schedule_to_text(schedule(movement_circuit, movement_placement, movement_spec))
    b = schedule_to_text(schedule(movement_circuit, movement_placement, movement_spec))
    assert a == b
    assert a.splitlines()[0] == "start_us,end_us,kind,qubits,traps"


def test_op_records_are_immutable_hashable_values():
    assert PhysOp._fields == ("kind", "qubits", "trap", "src", "dst", "seq", "start", "end")
    op = PhysOp(OpKind.SHUTTLE, (3,), src=0, dst=1, end=165e-6)
    for field in ("kind", "src", "start", "end"):
        with pytest.raises(AttributeError):
            setattr(op, field, None)
    assert PhysOp(kind=OpKind.SHUTTLE, qubits=(3,), src=0, dst=1, start=0.0, end=165e-6) == op
    assert PhysOp(kind=OpKind.SWAP, qubits=(4, 5), trap=2) == PhysOp(
        OpKind.SWAP, (4, 5), 2, None, None, None, 0.0, 0.0
    )
    assert PhysOp(kind=OpKind.GATE1, qubits=(1,), trap=0, seq=7, start=1e-6, end=11e-6) == PhysOp(
        OpKind.GATE1, (1,), 0, None, None, 7, 1e-6, 11e-6
    )
    assert PhysOp(kind=OpKind.GATE2, qubits=(0, 1), trap=2, seq=5, end=1e-4) == PhysOp(
        OpKind.GATE2, (0, 1), 2, seq=5, end=1e-4
    )
    back = op._replace(src=1, dst=0)
    later = op._replace(start=165e-6, end=330e-6)
    assert len({op, PhysOp(OpKind.SHUTTLE, (3,), src=0, dst=1, end=165e-6), back, later}) == 3
    gate = Gate(label="cx", qubits=(0, 1), seq=4)
    for field in ("label", "qubits", "seq"):
        with pytest.raises(AttributeError):
            setattr(gate, field, None)
    assert gate == Gate("cx", (0, 1), 4)
    assert len({gate, Gate("cx", (0, 1), 4), Gate("cx", (1, 0), 4)}) == 2


# ---------------------------------------------------------------------------
# zero movement for trap-fitting components
# ---------------------------------------------------------------------------

def _component_circuit(rng: random.Random):
    """Equal-size interaction cycles with contiguous indices, sized so every
    component fits in one trap exactly."""
    u = rng.choice((2, 3, 4, 5))
    per_trap = u * rng.choice((1, 2))
    traps = rng.randint(2, 4)
    excess = rng.choice((1, 2))
    spec = _spec(traps, per_trap + excess, excess)
    n_components = (traps * per_trap) // u
    n = u * n_components
    comp_gates = []
    for comp in range(n_components):
        base = comp * u
        if u == 2:
            comp_gates.append([("cx", base, base + 1)])
        else:
            comp_gates.append([("cx", base + i, base + (i + 1) % u) for i in range(u)])
    # interleave components round-robin so emission order is not a crutch
    gates = []
    for i in range(max(len(g) for g in comp_gates)):
        for g in comp_gates:
            if i < len(g):
                gates.append(g[i])
    return circuit(n, gates), spec, u


def test_component_fitting_circuits_need_no_movement():
    rng = random.Random(2024)
    for _ in range(100):
        circ, spec, u = _component_circuit(rng)
        pl = sta_place(circ, spec)
        # precondition: every component really was co-trapped
        for comp in range(circ.n_qubits // u):
            traps = {pl.trap_of[q] for q in range(comp * u, (comp + 1) * u)}
            assert len(traps) == 1, f"component {comp} split across {traps}"
        m = schedule(circ, pl, spec).metrics
        assert m.shuttles == 0
        assert m.swaps == 0


def test_split_pairs_do_move():
    c = circuit(4, [("cx", 0, 2), ("cx", 1, 3)])
    spec = _spec(2, 4, 2)
    m = schedule(c, Placement(chains=((0, 1), (2, 3))), spec).metrics
    assert m.shuttles + m.swaps > 0


def test_schedule_passes_its_own_verifier(worked_circuit, worked_spec):
    pl = sta_place(worked_circuit, worked_spec)
    sched = schedule(worked_circuit, pl, worked_spec)
    assert verify_schedule(sched, worked_circuit, pl, worked_spec).ok


def test_split_gate_left_split_by_the_router_raises_device_op_error(monkeypatch):
    monkeypatch.setattr(scheduling, "resolve_gate", lambda *args: None)
    c = circuit(2, [("cx", 0, 1)])
    with pytest.raises(DeviceOpError) as err:
        schedule(c, Placement(chains=((0,), (1,))), _spec(2, 2, 1))
    assert str(err.value) == "gate2 operands 0,1 not co-trapped (traps 0,1)"


def test_device_state_applies_only_movement_ops(monkeypatch, movement_circuit, movement_spec, movement_placement):
    # every SWAP and shuttle reaches its typed mutation once, in schedule
    # order, and nothing else changes the state
    applied = []
    shuttle_ion, swap_ions = DeviceState.shuttle_ion, DeviceState.swap_ions

    def shuttle_spy(self, q, src, dst):
        applied.append((OpKind.SHUTTLE, (q,), None, src, dst))
        return shuttle_ion(self, q, src, dst)

    def swap_spy(self, a, b, trap):
        applied.append((OpKind.SWAP, (a, b), trap, None, None))
        return swap_ions(self, a, b, trap)

    def no_apply(self, op):
        raise AssertionError(f"apply called with {op}")

    monkeypatch.setattr(DeviceState, "shuttle_ion", shuttle_spy)
    monkeypatch.setattr(DeviceState, "swap_ions", swap_spy)
    monkeypatch.setattr(DeviceState, "apply", no_apply)
    sched = schedule(movement_circuit, movement_placement, movement_spec)
    moves = [s[:5] for s in sched.ops if s.kind in (OpKind.SWAP, OpKind.SHUTTLE)]
    assert moves and applied == moves
    assert {kind for kind, *_ in applied} == {OpKind.SWAP, OpKind.SHUTTLE}
    assert len(sched.ops) == len(moves) + len(movement_circuit.gates)


def test_routed_records_are_the_schedules_own_records(monkeypatch):
    # what resolve_gate returns are the schedule's movement ops, in order
    returned = []
    original = scheduling.resolve_gate

    def spy(*args):
        ops = original(*args)
        returned.extend(ops)
        return ops

    monkeypatch.setattr(scheduling, "resolve_gate", spy)
    spec = _spec(4, 5, 1)
    circ = generate("rnd", 16, gates=200, seed=2)
    sched = schedule(circ, place(circ, spec, "sta"), spec)
    assert all(type(op) is PhysOp for op in sched.ops + tuple(returned))
    moves = [op for op in sched.ops if op.kind in (OpKind.SWAP, OpKind.SHUTTLE)]
    assert len(moves) > 0
    assert returned == moves


def test_duration_tables_are_sized_by_the_circuit_not_the_capacity(monkeypatch):
    # a chain never holds more ions than the circuit has qubits, so a huge
    # trap capacity must not make the scheduler or verifier tabulate more
    calls = []
    original = TimingModel.two_qubit

    def spy(self, chain_length):
        calls.append(chain_length)
        return original(self, chain_length)

    monkeypatch.setattr(TimingModel, "two_qubit", spy)
    spec = _spec(2, 100_000, 0)
    circ = generate("qft", 8)
    pl = Placement(chains=((0, 1, 2, 3), (4, 5, 6, 7)))
    sched = schedule(circ, pl, spec)
    assert sched.metrics.shuttles > 0
    assert verify_schedule(sched, circ, pl, spec).ok
    assert max(calls) <= circ.n_qubits
    assert len(calls) <= 4 * (circ.n_qubits + 1)


# ---------------------------------------------------------------------------
# infeasible inputs and the free-slot property
# ---------------------------------------------------------------------------

def test_full_device_with_split_gate_is_rejected_before_routing():
    c = circuit(4, [("cx", 0, 1), ("cx", 1, 2)])
    with pytest.raises(DeadlockError) as err:
        schedule(c, Placement(chains=((0, 1), (2, 3))), _spec(2, 2, 0))
    assert "gate 1 on qubits 1,2 (traps 0,1)" in str(err.value)
    assert "no free slot" in str(err.value)
    assert err.value.exit_code == 2


def test_capacity_one_with_two_qubit_gate_is_rejected_before_routing():
    # three traps for two ions: slots are free, but no trap holds a pair
    c = circuit(2, [("h", 0), ("cx", 1, 0)])
    with pytest.raises(DeadlockError) as err:
        schedule(c, Placement(chains=((0,), (1,), ())), _spec(3, 1, 0))
    assert "gate 1 on qubits 1,0 (traps 1,0)" in str(err.value)
    assert "capacity is 1" in str(err.value)


@st.composite
def _compile_case(draw):
    topology = draw(st.sampled_from(list(Topology)))
    n_traps = draw(st.integers(1, 6))
    capacity = draw(st.integers(2, 7))
    excess = draw(st.integers(0, capacity - 1))
    spec = DeviceSpec(topology=topology, n_traps=n_traps, capacity=capacity, excess_capacity=excess)
    # at least one slot stays free; few free slots is the hard case
    n = n_traps * capacity - draw(st.integers(1, n_traps * capacity - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gates = []
    for _ in range(draw(st.integers(0, 60))):
        if n > 1 and rng.random() < 0.8:
            gates.append(("cx", *rng.sample(range(n), 2)))
        else:
            gates.append(("h", rng.randrange(n)))
    return (
        circuit(n, gates),
        spec,
        draw(st.sampled_from(["sta", "greedy", "random"])),
        draw(st.sampled_from([None, 1, 4])),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_compile_case())
def test_compile_with_a_free_slot_always_verifies(case):
    circ, spec, strategy, lookahead = case
    pl = place(circ, spec, strategy, seed=0)
    sched = schedule(circ, pl, spec, lookahead=lookahead)
    verdict = verify_schedule(sched, circ, pl, spec)
    assert verdict.ok, verdict.reason


# ---------------------------------------------------------------------------
# the wake heap against a rescanning event loop
# ---------------------------------------------------------------------------

def _rescan_schedule(circ, placement, spec, lookahead):
    """Reference event loop: at each tick, scan every available gate in seq
    order, then advance to the smallest later trap_free or ready time.

    It drives the same ``resolve_gate`` as ``schedule``, so a difference
    between the two can only come from the event loop.
    """
    state = DeviceState(spec, placement)
    # A gate's predecessors are the previous gates on each of its operands.
    predecessors, successors = [], [[] for _ in circ.gates]
    last_on: dict[int, int] = {}
    for g in circ.gates:
        pred = {last_on[q] for q in g.qubits if q in last_on}
        predecessors.append(pred)
        for p in pred:
            successors[p].append(g.seq)
        last_on.update((q, g.seq) for q in g.qubits)
    remaining = [len(p) for p in predecessors]
    end_of = [0.0] * len(circ.gates)
    tracker = PendingTracker(circ, lookahead)
    trap_free = [0.0] * spec.n_traps
    out = []

    def commit_op(op, earliest):
        start = max([earliest] + [trap_free[t] for t in held(op)])
        end = start + op_duration(spec.timing, op, state.occupancies())
        state.apply(op)
        for t in held(op):
            trap_free[t] = end
        out.append(op._replace(start=start, end=end))
        return out[-1]

    cursor = 0.0

    def commit_move(*fields):
        nonlocal cursor
        rec = commit_op(PhysOp(*fields), cursor)
        cursor = rec.end
        return rec

    available = [g.seq for g in circ.gates if remaining[g.seq] == 0]
    ready_at = {s: 0.0 for s in available}
    clock = 0.0
    while available:
        for seq in list(available):
            if ready_at[seq] > clock:
                continue
            g = circ.gates[seq]
            traps = {state.trap_of[q] for q in g.qubits}
            if any(trap_free[t] > clock for t in traps):
                continue
            if len(g.qubits) == 2:
                a, b = g.qubits
                cursor = clock
                if len(traps) == 2:
                    resolve_gate(g, state, tracker, commit_move)
                gate = PhysOp(OpKind.GATE2, (a, b), state.trap_of[a], seq=seq)
                end = commit_op(gate, cursor).end
            else:
                q = g.qubits[0]
                gate = PhysOp(OpKind.GATE1, (q,), state.trap_of[q], seq=seq)
                end = commit_op(gate, clock).end
            end_of[seq] = end
            tracker.mark_done(seq)
            available.remove(seq)
            for s in successors[seq]:
                remaining[s] -= 1
                if remaining[s] == 0:
                    ready_at[s] = max(end_of[p] for p in predecessors[s])
                    available.append(s)
        available.sort()
        later = [v for v in trap_free + [ready_at[s] for s in available] if v > clock]
        if available:
            clock = min(later)
    return Schedule(ops=tuple(out))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_compile_case())
def test_wake_heap_matches_rescanning_loop(case):
    circ, spec, strategy, lookahead = case
    pl = place(circ, spec, strategy, seed=0)
    assert schedule_to_text(schedule(circ, pl, spec, lookahead=lookahead)) == schedule_to_text(
        _rescan_schedule(circ, pl, spec, lookahead)
    )


def test_gate_waits_only_for_the_previous_gate_on_each_operand():
    spec = _spec(2, 4, 1)
    # (gates, chains, {seq: the gate at whose end it starts, None for 0})
    cases = [
        # cx 1 0 follows cx 0 1 on both qubits: it is released once, not twice
        ([("cx", 0, 1), ("cx", 1, 0)], ((0, 1), ()), {0: None, 1: 0}),
        # qubit 1 has no earlier gate and trap 0 is free from the start, yet
        # cx 0 1 waits for cx 2 0, which waits for h 2 in trap 1
        ([("h", 2), ("cx", 2, 0), ("cx", 0, 1)], ((0, 1), (2,)), {0: None, 2: 1}),
        # one-qubit gates only: h 1 runs beside the first h 0
        ([("h", 0), ("h", 1), ("h", 0)], ((0,), (1,)), {0: None, 1: None, 2: 0}),
        ([], ((0,), ()), {}),
    ]
    for gates, chains, after in cases:
        c = circuit(sum(map(len, chains)), gates)
        pl = Placement(chains=chains)
        sched = schedule(c, pl, spec)
        runs = [s for s in sched.ops if s.seq is not None]
        assert [s.seq for s in runs] == list(range(len(gates)))
        for seq, prev in after.items():
            assert runs[seq].start == (0.0 if prev is None else runs[prev].end)
        assert schedule_to_text(sched) == schedule_to_text(_rescan_schedule(c, pl, spec, DEFAULT_LOOKAHEAD))
        assert verify_schedule(sched, c, pl, spec).ok


def test_gate_waits_for_operand_moved_by_lower_seq_eviction():
    # h 2 (seq 3) is ready at 0 but trap 0 is busy with cx 0 1 until 110 us.
    # At 110 us cx 3 0 (seq 2) moves 3 into the full trap 0 and evicts 2 to
    # trap 1 first, so h 2 runs in trap 1 once that routing frees it (770 us),
    # not in trap 0 where it waited.
    spec = _spec(3, 3, 1)
    c = circuit(7, [("cx", 0, 1), ("cx", 3, 4), ("cx", 3, 0), ("h", 2)])
    pl = Placement(chains=((0, 1, 2), (3, 4), (5, 6)))
    sched = schedule(c, pl, spec)
    h2 = next(s for s in sched.ops if s.seq == 3)
    eviction = next(s for s in sched.ops if s.kind is OpKind.SHUTTLE and s.qubits == (2,))
    assert (eviction.src, eviction.dst, eviction.start) == (0, 1, pytest.approx(110e-6))
    assert h2.trap == 1
    assert h2.start == pytest.approx(770e-6)
    assert schedule_to_text(sched) == schedule_to_text(_rescan_schedule(c, pl, spec, DEFAULT_LOOKAHEAD))
    assert verify_schedule(sched, c, pl, spec).ok


# ---------------------------------------------------------------------------
# unrepresentable op ends
# ---------------------------------------------------------------------------

def test_duration_lost_at_a_huge_start_raises_input_error():
    # split = 1e308 puts the gates after the first shuttle at a start so large
    # that their 330 us SWAPs and 110 us gates vanish in start + duration.
    spec = DeviceSpec(Topology.LINEAR, 2, 4, 2, TimingModel(split=1e308))
    c = circuit(6, [("cx", 0, 1), ("cx", 4, 5), ("cx", 2, 4), ("cx", 2, 5)])
    with pytest.raises(InputError) as err:
        schedule(c, sta_place(c, spec), spec)
    assert str(err.value) == (
        "op 4 starting at 1e+308 s with duration 0.00033000000000000005 s has no"
        " representable end; the timing parameters are too large"
    )


def test_end_overflowing_to_infinity_raises_input_error():
    spec = DeviceSpec(Topology.LINEAR, 3, 2, 1, TimingModel(split=1e308))
    c = circuit(2, [("cx", 0, 1)])
    with pytest.raises(InputError, match=r"^op 1 starting at 1e\+308 s with duration 1e\+308 s"):
        schedule(c, Placement(chains=((0,), (), (1,))), spec)


def test_gate_duration_lost_at_a_huge_start_raises_input_error():
    # The one shuttle ends at 1e308, so the gate after it is op 1.
    spec = DeviceSpec(Topology.LINEAR, 2, 2, 1, TimingModel(split=1e308))
    c = circuit(2, [("cx", 0, 1)])
    with pytest.raises(InputError) as err:
        schedule(c, Placement(((0,), (1,))), spec)
    assert str(err.value) == (
        "op 1 starting at 1e+308 s with duration 0.000105 s has no"
        " representable end; the timing parameters are too large"
    )


# ---------------------------------------------------------------------------
# the collector
# ---------------------------------------------------------------------------

@pytest.fixture
def collector():
    """Run a test with the collector enabled and leave it as it was after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_schedule_leaves_the_collector_as_the_caller_set_it(
    collector, monkeypatch, movement_circuit, movement_spec, movement_placement, enabled
):
    seen = []

    def spy(*args):
        seen.append(gc.isenabled())
        return resolve_gate(*args)

    monkeypatch.setattr(scheduling, "resolve_gate", spy)
    if not enabled:
        gc.disable()
    schedule(movement_circuit, movement_placement, movement_spec)
    assert seen and seen == [enabled] * len(seen)
    assert gc.isenabled() == enabled


def test_schedule_keeps_no_tracked_object_per_op(collector):
    # The rows hold floats, ints, None and shared tuples; only a SWAP's
    # operand pair is new. A record per op would add one object per op.
    spec = _spec(4, 10, 2)
    circ = generate("rnd", 32, gates=600, seed=2)
    pl = place(circ, spec, "sta")
    schedule(circ, pl, spec)  # builds the circuit's cached views
    gc.collect()
    gc.disable()
    before = len(gc.get_objects())
    sched = schedule(circ, pl, spec)
    grown = len(gc.get_objects()) - before
    n_ops = len(sched.ops)
    assert sched.metrics.shuttles > n_ops // 3
    assert grown < n_ops // 2


def _evictions(sched) -> int:
    """Shuttles of an ion that is not an operand of the gate they serve.

    The router commits a gate's movement ops just before the gate itself.
    """
    ops = sched.ops
    count = 0
    for i, op in enumerate(ops):
        if op.kind is OpKind.SHUTTLE:
            gate = next(o for o in ops[i:] if o.kind is OpKind.GATE2)
            count += op.qubits[0] not in gate.qubits
    return count


@pytest.mark.parametrize("topology", list(Topology))
def test_compile_leaves_no_reference_cycles(collector, topology):
    # Nothing a compile builds needs the collector: every object it drops is
    # freed by its reference count.
    spec = DeviceSpec(topology, n_traps=4, capacity=5, excess_capacity=1)
    circ = generate("rnd", 16, gates=200, seed=2)
    gc.collect()
    gc.disable()
    pl = place(circ, spec, "sta")
    sched = schedule(circ, pl, spec)
    assert verify_schedule(sched, circ, pl, spec).ok
    schedule_to_text(sched)
    m = sched.metrics
    assert m.swaps > 0 and m.shuttles > 0 and _evictions(sched) > 0
    del pl, sched
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# schedule_to_text against the one-format-per-time writer
# ---------------------------------------------------------------------------

def _reference_schedule_to_text(sched):
    """The writer that formats both times of every row afresh."""
    lines = ["start_us,end_us,kind,qubits,traps"]
    name = {kind: kind.value for kind in OpKind}
    for op in sched.ops:
        traps = f"{op.src}:{op.dst}" if op.kind is OpKind.SHUTTLE else op.trap
        qubits = ":".join(map(str, op.qubits))
        lines.append(f"{op.start * 1e6:.3f},{op.end * 1e6:.3f},{name[op.kind]},{qubits},{traps}")
    m = sched.metrics
    lines.append(f"# total_time_us={m.total_time * 1e6:.3f}")
    lines.append(f"# shuttles={m.shuttles}")
    lines.append(f"# swaps={m.swaps}")
    lines.append(f"# one_qubit_gates={m.one_qubit_gates}")
    lines.append(f"# two_qubit_gates={m.two_qubit_gates}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_compile_case())
def test_schedule_to_text_matches_reference_writer(case):
    circ, spec, strategy, lookahead = case
    sched = schedule(circ, place(circ, spec, strategy, seed=0), spec, lookahead=lookahead)
    assert schedule_to_text(sched) == _reference_schedule_to_text(sched)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_compile_case())
def test_schedule_rebuilt_from_its_ops_writes_and_verifies_alike(case):
    # the records sched.ops builds from the rows carry every field back
    circ, spec, strategy, lookahead = case
    pl = place(circ, spec, strategy, seed=0)
    sched = schedule(circ, pl, spec, lookahead=lookahead)
    rebuilt = Schedule(ops=sched.ops)
    assert rebuilt == sched
    assert schedule_to_text(rebuilt) == schedule_to_text(sched)
    assert verify_schedule(rebuilt, circ, pl, spec) == verify_schedule(sched, circ, pl, spec)


def test_schedule_to_text_reuses_only_the_previous_rows_end():
    def rec(op, start, end):
        return op._replace(start=start, end=end)

    sched = Schedule(
        ops=(
            rec(PhysOp(OpKind.GATE1, (0,), 0), 0.0, 10e-6),
            rec(PhysOp(OpKind.GATE1, (1,), 1), 0.0, 20e-6),
            # starts at the first row's end, not at the second's
            rec(PhysOp(OpKind.GATE2, (0, 2), 0), 10e-6, 30e-6),
            rec(PhysOp(OpKind.SWAP, (0, 2), 0), 30e-6, 60e-6),
            rec(PhysOp(OpKind.SHUTTLE, (2,), src=0, dst=1), 60e-6, 225e-6),
            # zeros of opposite sign compare equal but print differently
            rec(PhysOp(OpKind.GATE1, (3,), 2), -5e-6, 0.0),
            rec(PhysOp(OpKind.GATE1, (3,), 2), -0.0, 10e-6),
            rec(PhysOp(OpKind.GATE1, (4,), 2), -10e-6, -0.0),
            rec(PhysOp(OpKind.GATE1, (4,), 2), 0.0, 10e-6),
        )
    )
    text = schedule_to_text(sched)
    assert text == _reference_schedule_to_text(sched)
    assert text.splitlines()[3] == "10.000,30.000,gate2,0:2,0"


def test_schedule_to_text_writes_rows_outside_its_integer_table_like_the_reference():
    # hand-built rows the integer-text table cannot write, each beside one it can
    big = 4096  # the writer's table size
    ops = [
        PhysOp(OpKind.GATE1, (0,), None),
        PhysOp(OpKind.GATE1, (-1,), 0),
        PhysOp(OpKind.GATE1, (big,), 0),
        PhysOp(OpKind.GATE1, (big - 1,), big - 1),
        PhysOp(OpKind.GATE2, (3, -2), 1),
        PhysOp(OpKind.GATE2, (big + 7, 3), 1),
        PhysOp(OpKind.GATE2, (3, 4), -1),
        PhysOp(OpKind.GATE2, (3, 4), big),
        PhysOp(OpKind.SWAP, (), 2),
        PhysOp(OpKind.SWAP, (1, 2, 3), 2),
        PhysOp(OpKind.SWAP, (1, 2), None),
        PhysOp(OpKind.SHUTTLE, (-5,), src=0, dst=1),
        PhysOp(OpKind.SHUTTLE, (5,), src=-1, dst=0),
        PhysOp(OpKind.SHUTTLE, (5,), src=0, dst=big),
        PhysOp(OpKind.SHUTTLE, (5,), src=None, dst=None),
        PhysOp(OpKind.SHUTTLE, (), src=0, dst=1),
        PhysOp(OpKind.SHUTTLE, (5, 6), src=0, dst=1),
        PhysOp(OpKind.SHUTTLE, (big - 1,), src=big - 1, dst=0),
    ]
    sched = Schedule(ops=tuple(op._replace(start=k * 1e-6, end=(k + 1) * 1e-6) for k, op in enumerate(ops)))
    text = schedule_to_text(sched)
    assert text == _reference_schedule_to_text(sched)
    assert text.splitlines()[1:3] == ["0.000,1.000,gate1,0,None", "1.000,2.000,gate1,-1,0"]


# ---------------------------------------------------------------------------
# the router's path memo lives for one compile
# ---------------------------------------------------------------------------

def _counting_paths(monkeypatch):
    calls = []

    def counting(spec, a, b):
        calls.append((a, b))
        return shortest_path(spec, a, b)

    monkeypatch.setattr("qccdmap.routing.shortest_path", counting)
    return calls


def test_path_memo_does_not_outlive_a_compile(monkeypatch):
    calls = _counting_paths(monkeypatch)
    spec = DeviceSpec(Topology.RING, n_traps=6, capacity=8, excess_capacity=2)
    circ = generate("qft", 32)
    pl = place(circ, spec, "sta")
    attrs = dict(vars(spec))
    first = schedule(circ, pl, spec)
    n_first = len(calls)
    second = schedule(circ, pl, spec)
    assert n_first > 0 and len(calls) == 2 * n_first
    assert first == second
    assert vars(spec) == attrs


def test_path_memo_finds_each_path_once_per_compile(monkeypatch):
    calls = _counting_paths(monkeypatch)
    spec = DeviceSpec(Topology.RING, n_traps=6, capacity=8, excess_capacity=2)
    circ = generate("rnd", 32, gates=300, seed=3)
    schedule(circ, place(circ, spec, "sta"), spec)
    # 30 trap pairs; the router asks for a path twice per split gate
    assert calls and len(calls) == len(set(calls))
