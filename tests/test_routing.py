"""Movement synthesis: mover choice, paths, evictions, deadlock."""
from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qccdmap.circuits import circuit
from qccdmap.devices import DeviceSpec, DeviceState, OpKind, PhysOp, Topology, shortest_path
from qccdmap.errors import DeadlockError, InputError, QccdError
from qccdmap.placement import Placement
from qccdmap.scheduling import schedule
from qccdmap.routing import (
    DEFAULT_LOOKAHEAD,
    PendingTracker,
    _evict_one,
    resolve_gate,
    select_mover,
)
from reference import attachment, exit_index, unattached, walk_to_boundary


def _spec(n_traps, capacity, excess, topology=Topology.LINEAR) -> DeviceSpec:
    return DeviceSpec(topology=topology, n_traps=n_traps, capacity=capacity, excess_capacity=excess)


def _state(spec, chains) -> DeviceState:
    return DeviceState(spec, Placement(tuple(map(tuple, chains))))


def _kinds(ops):
    return [op.kind for op in ops]


def _resolve(gate, state, tracker):
    """Route gate on state in place; the returned ops are exactly those committed."""
    committed = []

    def commit(*fields):
        op = PhysOp(*fields)
        state.apply(op)
        committed.append(op)
        return op

    ops = resolve_gate(gate, state, tracker, commit)
    assert ops == committed
    return ops


def test_exit_slot_indexes_the_ion_on_the_end_facing_the_neighbor():
    st = _state(_spec(2, 4, 2), [[3, 2], [4]])
    chains, slot = st.chains, st.spec.exit_slot
    assert chains[0][slot[0, 1]] == 2
    assert chains[1][slot[1, 0]] == 4
    # ring wrap: trap 0's left end faces trap 2, trap 2's right end faces 0
    ring = _state(_spec(3, 4, 1, Topology.RING), [[0, 1], [2, 3], [4, 5]])
    chains, slot = ring.chains, ring.spec.exit_slot
    assert [chains[0][slot[0, 2]], chains[0][slot[0, 1]]] == [0, 1]
    assert [chains[2][slot[2, 0]], chains[2][slot[2, 1]]] == [5, 4]


# ---------------------------------------------------------------------------
# pending tracker
# ---------------------------------------------------------------------------

def test_tracker_lists_partners_in_program_order():
    c = circuit(4, [("cx", 0, 1), ("cx", 0, 2), ("cx", 0, 3)])
    t = PendingTracker(c)
    assert list(t.pending_gates(0)) == [(0, 1), (1, 2), (2, 3)]
    t.mark_done(0)
    assert list(t.pending_gates(0)) == [(1, 2), (2, 3)]


def test_tracker_window_excludes_resolved_gate():
    c = circuit(5, [("cx", 0, 1), ("cx", 0, 2), ("cx", 0, 3), ("cx", 0, 4)])
    t = PendingTracker(c, lookahead=2)
    # excluding the gate being resolved must not consume window budget
    assert [p for _, p in t.pending_gates(0, exclude_seq=0)] == [2, 3]
    assert [p for _, p in t.pending_gates(0, exclude_seq=None)][:2] == [1, 2]


def test_tracker_rejects_done_gate_out_of_program_order():
    # qubit 0's done gates must stay a prefix of its list
    c = circuit(3, [("cx", 0, 1), ("cx", 0, 2)])
    t = PendingTracker(c)
    with pytest.raises(QccdError) as err:
        t.mark_done(1)
    assert "gate 1" in str(err.value)
    assert "qubit 0" in str(err.value)
    assert t.pending_gates(0) == [(0, 1), (1, 2)]


def test_tracker_rejects_non_positive_window():
    c = circuit(2, [("cx", 0, 1)])
    for lookahead in (0, -3, 2.5, "4", True, 4.0):
        with pytest.raises(InputError, match="lookahead must be a positive integer or None"):
            PendingTracker(c, lookahead=lookahead)
    # refused even when no gate is split, so the window is never read
    spec = _spec(1, 2, 0)
    with pytest.raises(InputError):
        schedule(c, Placement(((0, 1),)), spec, lookahead=2.5)
    assert schedule(c, Placement(((0, 1),)), spec, lookahead=None).ops


def test_partner_lists_are_built_once_per_circuit():
    c = circuit(4, [("cx", 0, 1), ("h", 2), ("cx", 0, 2), ("cx", 3, 0)])
    per_qubit, partners = c.partner_lists
    assert c.partner_lists is c.partner_lists
    assert per_qubit[0] == [(0, 1), (2, 2), (3, 3)] and partners[0] == [1, 2, 3]
    assert per_qubit[2] == [(2, 0)] and partners[2] == [0]
    first, second = PendingTracker(c), PendingTracker(c, lookahead=1)
    for tracker in (first, second):
        assert all(mine is shared for mine, shared in zip(tracker._per_qubit, per_qubit))
        assert all(mine is shared for mine, shared in zip(tracker._partners, partners))
    # the heads stay per tracker
    first.mark_done(0)
    assert first.pending_gates(1) == [] and second.pending_gates(1) == [(0, 0)]


def test_default_lookahead_is_small_window():
    assert DEFAULT_LOOKAHEAD == 4


# ---------------------------------------------------------------------------
# pinned movement traces
# ---------------------------------------------------------------------------

def test_mover_one_swap_one_shuttle(movement_circuit, movement_spec, movement_placement):
    # operand one position from the boundary, room on the other side
    state = _state(movement_spec, movement_placement.chains)
    tracker = PendingTracker(movement_circuit)
    gate = movement_circuit.gates[2]  # cx 2 4
    ops = _resolve(gate, state, tracker)
    assert _kinds(ops) == [OpKind.SWAP, OpKind.SHUTTLE]
    assert state.trap_of[2] == state.trap_of[4] == 1


def test_mover_already_at_boundary_needs_only_shuttle():
    spec = _spec(2, 4, 2)
    c = circuit(3, [("cx", 1, 2)])
    state = _state(spec, [[0, 1], [2]])
    ops = _resolve(c.gates[0], state, PendingTracker(c))
    assert _kinds(ops) == [OpKind.SHUTTLE]


def test_transit_across_middle_trap_shuttles_twice():
    spec = _spec(3, 4, 2)
    c = circuit(2, [("cx", 0, 1)])
    state = _state(spec, [[0], [], [1]])
    ops = _resolve(c.gates[0], state, PendingTracker(c))
    shuttles = [op for op in ops if op.kind == OpKind.SHUTTLE]
    assert len(shuttles) == 2
    assert state.trap_of[0] == state.trap_of[1]


def test_resolve_commits_each_op_once_in_order():
    # eviction, SWAP walk and mover shuttle: each op is chosen against the
    # state the previous commit left, so the log replays from the start state
    spec = _spec(3, 3, 0)
    c = circuit(6, [("cx", 0, 2), ("cx", 2, 3)])
    chains = [[0, 1], [2, 4, 3], [5]]
    state = _state(spec, chains)
    log = []

    def commit(*fields):
        op = PhysOp(*fields)
        log.append(op)
        state.apply(op)
        return op

    ops = resolve_gate(c.gates[0], state, PendingTracker(c), commit)
    assert _kinds(ops) == [OpKind.SWAP, OpKind.SHUTTLE, OpKind.SWAP, OpKind.SHUTTLE]
    assert log == ops
    assert state.trap_of[0] == state.trap_of[2]
    replay = _state(spec, chains)
    for op in ops:
        replay.apply(op)
    assert replay.chains == state.chains


def test_resolve_rejects_cotrapped_gate():
    spec = _spec(2, 4, 2)
    c = circuit(3, [("cx", 0, 1)])
    state = _state(spec, [[0, 1], [2]])
    with pytest.raises(InputError):
        resolve_gate(c.gates[0], state, PendingTracker(c), state.apply)
    assert state.chains == [[0, 1], [2]]


def test_at_most_one_swap_per_hop():
    spec = _spec(4, 5, 1)
    c = circuit(8, [("cx", 0, 7)])
    state = _state(spec, [[0, 1, 2, 3], [4, 5], [6], [7]])
    ops = _resolve(c.gates[0], state, PendingTracker(c))
    swaps = sum(1 for op in ops if op.kind == OpKind.SWAP)
    shuttles = sum(1 for op in ops if op.kind == OpKind.SHUTTLE)
    assert swaps <= shuttles


# ---------------------------------------------------------------------------
# mover selection
# ---------------------------------------------------------------------------

def test_mover_prefers_operand_with_more_to_gain():
    spec = _spec(2, 6, 2)
    # 0 has two future partners in trap 1; 3 has a future partner at home
    c = circuit(6, [("cx", 0, 3), ("cx", 0, 4), ("cx", 0, 5), ("cx", 3, 1)])
    state = _state(spec, [[0, 1, 2], [3, 4, 5]])
    mover, path = select_mover(c.gates[0], state, PendingTracker(c))
    assert mover == 0
    assert path[-1] == 1
    assert path == (0, 1)


def test_mover_scores_count_own_trap_partners_negative():
    spec = _spec(2, 6, 2)
    # mirror image: now 3 gains nothing by staying, 0 wants to stay home
    c = circuit(6, [("cx", 0, 3), ("cx", 0, 1), ("cx", 0, 2), ("cx", 3, 2)])
    state = _state(spec, [[0, 1, 2], [3, 4, 5]])
    mover, path = select_mover(c.gates[0], state, PendingTracker(c))
    assert mover == 3
    assert path[-1] == 0


def test_mover_tie_breaks_on_boundary_distance():
    spec = _spec(2, 6, 2)
    c = circuit(4, [("cx", 1, 2)])
    # both operands scoreless; 2 already sits on its facing boundary
    state = _state(spec, [[1, 0], [2, 3]])
    mover, _ = select_mover(c.gates[0], state, PendingTracker(c))
    assert mover == 2


def test_path_follows_trap_graph_shortest_path():
    spec = _spec(5, 4, 2, topology=Topology.RING)
    c = circuit(2, [("cx", 0, 1)])
    state = _state(spec, [[0], [], [], [], [1]])
    _, path = select_mover(c.gates[0], state, PendingTracker(c))
    assert path in ((0, 4), (4, 0))  # one hop around the ring seam


# ---------------------------------------------------------------------------
# eviction
# ---------------------------------------------------------------------------

def test_full_destination_evicts_least_attached_resident():
    spec = _spec(3, 3, 0)
    # trap 1 is full; 3 still has work there, 4 does not, so 4 must leave
    c = circuit(6, [("cx", 0, 2), ("cx", 2, 3)])
    state = _state(spec, [[1, 0], [2, 3, 4], [5]])
    _resolve(c.gates[0], state, PendingTracker(c))
    assert state.trap_of[4] == 2
    assert state.trap_of[0] == state.trap_of[2] == 1
    assert state.trap_of[3] == 1


def test_eviction_tie_on_attachment_evicts_latest_needed():
    # 3, 4 and 5 each have one pending gate with 2 in trap 1; 4's comes last,
    # so 4 leaves although 3 has the lower index and 5 holds the exit slot
    spec = _spec(3, 4, 0)
    c = circuit(7, [("cx", 0, 2), ("cx", 2, 3), ("cx", 2, 5), ("cx", 2, 4)])
    state = _state(spec, [[1, 0], [2, 3, 4, 5], [6]])
    ops = _resolve(c.gates[0], state, PendingTracker(c))
    assert ops == [
        PhysOp(OpKind.SWAP, (4, 5), 1),
        PhysOp(OpKind.SHUTTLE, (4,), src=1, dst=2),
        PhysOp(OpKind.SHUTTLE, (0,), src=0, dst=1),
    ]


def test_eviction_tie_on_attachment_and_next_gate_evicts_exit_resident():
    # 3 and 5 share their next gate and both count one co-trapped partner;
    # 4 counts two and stays. 5 already holds the slot facing trap 2, so it
    # leaves without a SWAP although 3 has the lower index
    spec = _spec(3, 4, 0)
    c = circuit(7, [("cx", 0, 2), ("cx", 3, 5), ("cx", 2, 4), ("cx", 4, 2)])
    state = _state(spec, [[1, 0], [2, 3, 4, 5], [6]])
    ops = _resolve(c.gates[0], state, PendingTracker(c))
    assert ops == [PhysOp(OpKind.SHUTTLE, (5,), src=1, dst=2), PhysOp(OpKind.SHUTTLE, (0,), src=0, dst=1)]


def _reference_victim(chain, avoid, exit_ion, windows):
    """The full victim key: fewest pending partners among the trap's
    residents, then the latest first such gate, then the exit ion, then the
    lowest qubit."""
    residents = set(chain)

    def key(q):
        hits = [seq for seq, p in windows[q] if p in residents]
        return (len(hits), -hits[0] if hits else -math.inf, q != exit_ion, q)

    return min((q for q in chain if q not in avoid), key=key)


@st.composite
def _eviction_case(draw):
    capacity = draw(st.integers(2, 7))
    n_out = draw(st.integers(0, capacity - 1))  # the destination keeps a free slot
    n = capacity + n_out
    chain = draw(st.permutations(range(capacity)))
    outside = list(range(capacity, n))
    src = draw(st.sampled_from([0, 1]))  # evict rightwards from 0 or leftwards from 1
    exit_ion = chain[-1] if src == 0 else chain[0]
    pinned = draw(st.sets(st.sampled_from(chain), max_size=capacity - 1))
    if draw(st.booleans()) and len(pinned) < capacity - 1:
        pinned.add(exit_ion)  # as when the exit ion is a gate operand
    pair = st.lists(st.sampled_from(range(n)), min_size=2, max_size=2, unique=True)
    done = draw(st.lists(pair, max_size=10))
    forced = []
    if draw(st.booleans()):
        # every candidate's next gate is with another resident
        for q in chain:
            forced.append([q, draw(st.sampled_from([r for r in chain if r != q]))])
    later = draw(st.lists(pair, max_size=25))
    return {
        "capacity": capacity,
        "chains": [list(chain), outside] if src == 0 else [outside, list(chain)],
        "src": src,
        "exit_ion": exit_ion,
        "avoid": frozenset(pinned),
        "gates": done + forced + later,
        "n_done": len(done),
        "n": n,
        "lookahead": draw(st.sampled_from([None, 1, 4])),
    }


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_eviction_case())
def test_eviction_victim_matches_full_key(case):
    spec = _spec(2, case["capacity"], 0)
    state = _state(spec, case["chains"])
    gates = case["gates"]
    c = circuit(case["n"], [("cx", a, b) for a, b in gates])
    tracker = PendingTracker(c, lookahead=case["lookahead"])
    for seq in range(case["n_done"]):
        tracker.mark_done(seq)
    windows = {q: [] for q in range(case["n"])}
    for seq, (a, b) in enumerate(gates[case["n_done"] :], start=case["n_done"]):
        windows[a].append((seq, b))
        windows[b].append((seq, a))
    if case["lookahead"] is not None:
        windows = {q: w[: case["lookahead"]] for q, w in windows.items()}
    src = case["src"]
    expected = _reference_victim(state.chains[src], case["avoid"], case["exit_ion"], windows)
    committed = []

    def commit(*fields):
        op = PhysOp(*fields)
        state.apply(op)
        committed.append(op)
        return op

    _evict_one(state, src, case["avoid"], tracker, commit)
    assert committed[-1] == PhysOp(OpKind.SHUTTLE, (expected,), src=src, dst=1 - src)


# The recursive eviction this module replaced with a relief-route walk: a
# breadth-first search for the nearest slack, then one call per trap on the
# way, threading the visited traps through.
def _reference_dist_to_slack(state, spec, excluded):
    inf = spec.n_traps + 1
    dist = [
        0 if len(chain) < spec.capacity and t not in excluded else inf
        for t, chain in enumerate(state.chains)
    ]
    frontier = [t for t, d in enumerate(dist) if d == 0]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for t in frontier:
            for u in spec.neighbors(t):
                if u not in excluded and dist[u] > d:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def _reference_evict_one(state, spec, trap, avoid, tracker, commit, visited, blocked):
    chains = state.chains
    candidates = [q for q in chains[trap] if q not in avoid]
    if not candidates:
        raise DeadlockError(
            f"trap {trap} is full and every resident is pinned", state.occupancies()
        )
    visited = visited | {trap}
    open_neighbors = [t for t in spec.neighbors(trap) if len(chains[t]) < spec.capacity]
    if open_neighbors:
        dest = min(open_neighbors, key=lambda t: (t in blocked, len(chains[t]), t))
    else:
        dist = _reference_dist_to_slack(state, spec, excluded=visited)
        relievable = [
            t for t in spec.neighbors(trap)
            if t not in visited and dist[t] <= spec.n_traps
        ]
        if not relievable:
            raise DeadlockError(
                f"no free slot reachable from trap {trap}", state.occupancies()
            )
        dest = min(relievable, key=lambda t: (t in blocked, dist[t], t))
        _reference_evict_one(state, spec, dest, avoid, tracker, commit, visited, blocked)
    at_exit = chains[trap][exit_index(spec, trap, dest)]
    residents = set(chains[trap])
    if at_exit not in avoid and unattached(at_exit, residents, tracker):
        victim = at_exit
    else:
        loose = (q for q in sorted(candidates) if unattached(q, residents, tracker))
        victim = next(loose, None)
        if victim is None:
            victim = min(
                candidates,
                key=lambda q: (*attachment(q, residents, tracker), q != at_exit, q),
            )
    walk_to_boundary(state, victim, trap, dest, commit)
    commit(OpKind.SHUTTLE, (victim,), None, trap, dest)


@st.composite
def _relief_case(draw):
    topology = draw(st.sampled_from([Topology.LINEAR, Topology.RING]))
    n_traps = draw(st.integers(1, 7))
    capacity = draw(st.integers(1, 5))
    trap = draw(st.integers(0, n_traps - 1))
    # At most two traps with a free slot, so relief mostly has to cascade.
    others = [t for t in range(n_traps) if t != trap]
    n_open = min(len(others), (draw(st.integers(0, 4)) + 1) // 2)
    open_traps = draw(st.permutations(others))[:n_open]
    fill = [
        draw(st.integers(0, capacity - 1)) if t in open_traps else capacity
        for t in range(n_traps)
    ]
    n = sum(fill)
    order = draw(st.permutations(range(n)))
    chains, start = [], 0
    for k in fill:
        chains.append(list(order[start : start + k]))
        start += k
    avoid = draw(st.sets(st.integers(0, n - 1), max_size=2))
    if others and draw(st.integers(0, 3)) == 0:
        avoid |= set(chains[draw(st.sampled_from(others))])  # pin a whole trap
    spec = _spec(n_traps, capacity, 0, topology)
    if draw(st.booleans()):
        blocked = frozenset(draw(st.sets(st.integers(0, n_traps - 1), max_size=n_traps)))
    else:
        # the rest of a mover's path, the tuple the router passes
        ends = st.integers(0, n_traps - 1)
        path = shortest_path(spec, draw(ends), draw(ends))
        blocked = path[draw(st.integers(1, len(path))) :]
    gates = []
    if n >= 2:
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        gates = draw(st.lists(pair, max_size=20))
    return {
        "spec": spec,
        "chains": chains,
        "trap": trap,
        "avoid": frozenset(avoid),
        "blocked": blocked,
        "n": n,
        "gates": gates,
        "n_done": draw(st.integers(0, len(gates))),
        "lookahead": draw(st.sampled_from([None, 1, 4])),
    }


def _run_eviction(case, evict):
    """Committed ops, final chains and any error of one eviction on a fresh state."""
    spec = case["spec"]
    state = _state(spec, case["chains"])
    tracker = PendingTracker(
        circuit(case["n"], [("cx", a, b) for a, b in case["gates"]]),
        lookahead=case["lookahead"],
    )
    for seq in range(case["n_done"]):
        tracker.mark_done(seq)
    committed = []

    def commit(*fields):
        op = PhysOp(*fields)
        state.apply(op)
        committed.append(op)
        return op

    try:
        evict(state, case["trap"], case["avoid"], tracker, commit, case["blocked"])
        error = None
    except DeadlockError as err:
        error = (type(err), str(err))
    return committed, state.chains, error


def _relief_example(topology, capacity, chains, trap, blocked):
    """A relief case with no pending gates: the route alone decides the ops."""
    return {
        "spec": _spec(len(chains), capacity, 0, topology),
        "chains": chains,
        "trap": trap,
        "avoid": frozenset(),
        "blocked": blocked,
        "n": sum(map(len, chains)),
        "gates": [],
        "n_done": 0,
        "lookahead": None,
    }


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_relief_case())
# an open neighbour on the mover's path beats a full neighbour off it with
# slack beyond: trap 2 evicts into 3, not along 1 to 0
@example(_relief_example(Topology.LINEAR, 2, [[0], [1, 2], [3, 4], [5], [6, 7]], 2, (3, 4)))
# both neighbours full: the walk 0-5-4-3 off the mover's path beats the
# shorter walk 0-1-2 whose first hop is on it
@example(_relief_example(Topology.RING, 2, [[0, 1], [2, 3], [4], [5], [6, 7], [8, 9]], 0, (1, 2)))
# two open neighbours, both on the mover's path: the less occupied one, 2
@example(_relief_example(Topology.LINEAR, 3, [[0, 1], [2, 3, 4], [5]], 1, (0, 2)))
# two open neighbours, equally occupied and off the path: the lower index, 0
@example(_relief_example(Topology.LINEAR, 3, [[0], [1, 2, 3], [4]], 1, ()))
def test_relief_route_matches_recursive_eviction(case):
    def reference(state, trap, avoid, tracker, commit, blocked):
        _reference_evict_one(state, state.spec, trap, avoid, tracker, commit, frozenset(), blocked)

    assert _run_eviction(case, _evict_one) == _run_eviction(case, reference)


def test_eviction_never_moves_gate_operands():
    spec = _spec(3, 2, 0)
    c = circuit(5, [("cx", 0, 2)])
    state = _state(spec, [[0, 1], [2, 3], [4]])
    _resolve(c.gates[0], state, PendingTracker(c))
    assert state.trap_of[0] == state.trap_of[2]


def test_relief_cascades_through_packed_walls():
    # both operand traps and the trap next to them are full; the only slack
    # sits three traps away, so one level of eviction recursion cannot clear
    # the way and relief has to cascade
    spec = _spec(4, 2, 0)
    c = circuit(7, [("cx", 0, 2)])
    state = _state(spec, [[0, 1], [2, 3], [4, 5], [6]])
    ops = _resolve(c.gates[0], state, PendingTracker(c))
    assert state.trap_of[0] == state.trap_of[2]
    shuttles = sum(1 for op in ops if op.kind == OpKind.SHUTTLE)
    assert shuttles >= 4  # eviction chain reaches the slack, then the mover
    assert all(len(state.chains[t]) <= spec.capacity for t in range(4))


def test_deadlock_when_no_slack_exists():
    spec = _spec(2, 2, 0)
    c = circuit(4, [("cx", 0, 2)])
    state = _state(spec, [[0, 1], [2, 3]])
    with pytest.raises(DeadlockError) as err:
        _resolve(c.gates[0], state, PendingTracker(c))
    assert "occupancy" in str(err.value)
    assert err.value.exit_code == 2


def test_routing_keeps_capacity_invariant_under_replay():
    spec = _spec(3, 3, 1)
    c = circuit(7, [("cx", 0, 6), ("cx", 1, 5), ("cx", 2, 4)])
    state = _state(spec, [[0, 1, 2], [3, 4, 5], [6]])
    tracker = PendingTracker(c)

    def commit(*fields):
        op = PhysOp(*fields)
        state.apply(op)
        assert all(len(state.chains[t]) <= spec.capacity for t in range(3))
        return op

    for gate in c.gates:
        a, b = gate.qubits
        if state.trap_of[a] != state.trap_of[b]:
            resolve_gate(gate, state, tracker, commit)
        assert state.trap_of[a] == state.trap_of[b]
        state.apply(PhysOp(OpKind.GATE2, (a, b), state.trap_of[a], seq=gate.seq))
        tracker.mark_done(gate.seq)
