"""Placement strategies against hand-traced references."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qccdmap.benchmarks import gen_qv
from qccdmap.circuits import circuit, compute_slices, interaction_graph
from qccdmap.devices import DeviceSpec, Topology, shortest_path, trap_distance
from qccdmap.errors import InputError
from qccdmap.placement import (
    Placement,
    _final_order,
    compute_ratios,
    greedy_place,
    place,
    random_place,
    rank_pairs,
    sta_place,
)
from reference import compute_temporal_weights, exit_index
from reference import compute_ratios as ref_compute_ratios


def _spec(n_traps=2, capacity=4, excess=2, topology=Topology.LINEAR) -> DeviceSpec:
    return DeviceSpec(topology=topology, n_traps=n_traps, capacity=capacity, excess_capacity=excess)


# ---------------------------------------------------------------------------
# ratio and temporal-weight orderings (worked example)
# ---------------------------------------------------------------------------

def test_ratios_worked_example(worked_circuit):
    r = compute_ratios(worked_circuit.partner_lists[1])
    assert r[0] == (2, pytest.approx(0.8))
    # ties on ratio 0.6 break by total incident gates, then index
    assert [q for q, _ in r] == [2, 4, 1, 3, 0]


def test_ratios_omit_isolated_qubits():
    r = compute_ratios(circuit(4, [("cx", 1, 2)]).partner_lists[1])
    assert [q for q, _ in r] == [1, 2]


# The library ranks pairs without keeping their weights; the weight values
# are checked through the reference ranking, the order through the library's.


def test_temporal_weights_worked_example(worked_circuit):
    t = compute_temporal_weights(compute_slices(worked_circuit))
    assert t[0] == ((0, 2), pytest.approx(1.5))
    assert t[1] == ((1, 3), pytest.approx(1.25))
    assert rank_pairs(compute_slices(worked_circuit), 5)[:2] == [(0, 2), (1, 3)]


def test_temporal_weights_discount_by_slice():
    # same pair twice: slices 0 and 1 -> 1 + 1/2
    c = circuit(4, [("cx", 0, 1), ("cx", 0, 1), ("cx", 2, 3)])
    t = dict(compute_temporal_weights(compute_slices(c)))
    assert t[(0, 1)] == pytest.approx(1.5)
    assert t[(2, 3)] == pytest.approx(1.0)
    assert rank_pairs(compute_slices(c), 4) == [(0, 1), (2, 3)]


def _ranking_circuit(rng: random.Random):
    """A circuit whose rankings tie often: few qubits, some never used, pairs
    repeated in both operand orders, and one-qubit gates between them."""
    n = rng.randint(2, 9)
    active = rng.sample(range(n), rng.randint(2, n))
    gates = []
    for _ in range(rng.randint(0, 40)):
        if rng.random() < 0.25:
            gates.append(("h", rng.choice(active)))
        else:
            gates.append(("cx", *rng.sample(active, 2)))
    return circuit(n, gates)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_rankings_match_reference(seed):
    c = _ranking_circuit(random.Random(seed))
    assert compute_ratios(c.partner_lists[1]) == ref_compute_ratios(interaction_graph(c), c.n_qubits)
    reference = compute_temporal_weights(compute_slices(c))
    assert rank_pairs(compute_slices(c), c.n_qubits) == [pair for pair, _ in reference]


def test_pairs_beyond_the_subnormal_range_rank_by_pair_order():
    # 1,080 gates on (0, 1) fill slices 0..1079; each later pair interacts
    # once, in a slice past 1074, so it weighs exactly 0.0 and must rank by
    # (a, b), not by when it first appears.
    late = [("cx", 1, 7), ("cx", 6, 1), ("cx", 1, 2), ("cx", 5, 2), ("cx", 4, 1), ("cx", 3, 5)]
    c = circuit(8, [("cx", 0, 1)] * 1080 + late)
    slices = compute_slices(c)
    assert len(slices) > 1075
    reference = compute_temporal_weights(slices)
    assert [w for _, w in reference[1:]] == [0.0] * 6
    expected = [(0, 1), (1, 2), (1, 4), (1, 6), (1, 7), (2, 5), (3, 5)]
    assert rank_pairs(slices, 8) == [pair for pair, _ in reference] == expected


# ---------------------------------------------------------------------------
# sta
# ---------------------------------------------------------------------------

def test_sta_worked_example_full_trace(worked_circuit, worked_spec):
    pl = sta_place(worked_circuit, worked_spec)
    assert set(pl.chains[0]) == {0, 2}
    assert set(pl.chains[1]) == {1, 3, 4}
    # boundary ordering: the hottest split pair ends up facing each other
    assert pl.chains[0][-1] == 2  # right end of trap 0 faces trap 1
    assert pl.chains[1][0] == 4  # left end of trap 1 faces trap 0
    assert pl.chains[1][1] == 3  # next split partner sits adjacent
    assert pl.chains == ((0, 2), (4, 3, 1))


def test_sta_co_traps_fitting_component():
    c = circuit(4, [("cx", 0, 1), ("cx", 1, 2), ("cx", 2, 3)])
    pl = sta_place(c, _spec(n_traps=2, capacity=6, excess=2))
    assert set(pl.chains[0]) == {0, 1, 2, 3}


def test_sta_places_isolated_qubits_round_robin():
    c = circuit(6, [("cx", 0, 1)])
    pl = sta_place(c, _spec(n_traps=3, capacity=4, excess=2))
    placed = [q for chain in pl.chains for q in chain]
    assert sorted(placed) == list(range(6))
    pl.validate(_spec(n_traps=3, capacity=4, excess=2), 6)


def test_sta_rejects_oversized_circuit():
    c = circuit(9, [("cx", 0, 8)])
    with pytest.raises(InputError):
        sta_place(c, _spec(n_traps=2, capacity=4, excess=2))


def test_sta_deterministic(worked_circuit, worked_spec):
    assert sta_place(worked_circuit, worked_spec) == sta_place(worked_circuit, worked_spec)


def test_sta_maps_a_long_partner_chain_without_recursion():
    # Pairs (k, k+1) weigh more the higher k, so mapping qubit 1 first has to
    # map 1,199 partners down the chain before it can join its own pair.
    c = circuit(1200, [("cx", k, k + 1) for k in range(1198, -1, -1)])
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=80, capacity=17, excess_capacity=2)
    pl = sta_place(c, spec)
    pl.validate(spec, c.n_qubits)
    assert sorted(pl.trap_of) == list(range(1200))


def test_sta_finds_only_the_relocation_ends_it_uses(monkeypatch):
    # Tabulating every trap pair's end took traps**2 paths of O(traps) each;
    # only a qubit of a split gate pair needs one, once, toward its partner.
    calls = []

    def counting(spec, a, b):
        calls.append((a, b))
        return shortest_path(spec, a, b)

    monkeypatch.setattr("qccdmap.placement.shortest_path", counting)
    spec = DeviceSpec(topology=Topology.RING, n_traps=40, capacity=3, excess_capacity=1)
    c = circuit(8, [("cx", a, b) for a in range(8) for b in range(a + 1, 8)])
    pl = sta_place(c, spec)
    traps = [pl.trap_of[q] for q in range(8)]
    split = {(ta, tb) for ta in traps for tb in traps if ta != tb}
    assert calls and set(calls) <= split
    assert len(calls) == sum(any(t != traps[q] for t in traps) for q in range(8))


@pytest.mark.parametrize("topology", [Topology.LINEAR, Topology.RING])
@pytest.mark.parametrize("strategy", [sta_place, greedy_place])
def test_split_pairs_compare_neighbouring_open_traps_only(monkeypatch, topology, strategy):
    # One usable slot per trap splits every pair. The closest open traps are
    # neighbours in trap order, so a split compares one pair per open trap,
    # not every pair of them.
    calls = 0

    def counting(spec, a, b):
        nonlocal calls
        calls += 1
        return trap_distance(spec, a, b)

    monkeypatch.setattr("qccdmap.placement.trap_distance", counting)
    spec = DeviceSpec(topology=topology, n_traps=100, capacity=2, excess_capacity=1)
    strategy(gen_qv(100, 1, 1), spec).validate(spec, 100)
    assert calls <= 100**2


def _replay_moves(chain, moves):
    """chain after each (qubit, exit slot) move in turn, one list move at a time."""
    chain = list(chain)
    for q, slot in moves:
        chain.remove(q)
        if slot == -1:
            chain.append(q)
        else:
            chain.insert(0, q)
    return chain


def test_final_order_places_a_qubit_by_its_last_move_only():
    # 1 goes left (slot 0), 3 and 4 go right (slot -1), then 1 goes right:
    # 1 ends at the right end, after 3 and 4, which last moved right before it
    moves = [(1, 0), (3, -1), (4, -1), (1, -1), (0, 0)]
    last_move = {q: (turn, slot) for turn, (q, slot) in enumerate(moves)}
    assert _final_order([0, 1, 2, 3, 4, 5], last_move) == [0, 2, 5, 3, 4, 1]
    assert _replay_moves([0, 1, 2, 3, 4, 5], moves) == [0, 2, 5, 3, 4, 1]


@pytest.mark.parametrize("seed", range(20))
def test_final_order_matches_moving_one_qubit_at_a_time(seed):
    rng = random.Random(seed)
    chain = rng.sample(range(40), rng.randint(1, 12))
    moves = [(rng.choice(chain), rng.choice((0, -1))) for _ in range(rng.randint(0, 20))]
    last_move = {q: (turn, slot) for turn, (q, slot) in enumerate(moves)}
    assert _final_order(chain, last_move) == _replay_moves(chain, moves)


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------

def test_greedy_pinned_chain_example():
    # chain 0-1-2 with weights 2 and 1: the heavy pair co-traps, 2 lands in
    # the nearest trap with room
    c = circuit(3, [("cx", 0, 1), ("cx", 0, 1), ("cx", 1, 2)])
    pl = greedy_place(c, _spec())
    assert pl.chains == ((0, 1), (2,))


def test_greedy_weight_ties_break_lexicographically():
    c = circuit(4, [("cx", 2, 3), ("cx", 0, 1)])
    pl = greedy_place(c, _spec(n_traps=2, capacity=4, excess=2))
    assert set(pl.chains[0]) == {0, 1}
    assert set(pl.chains[1]) == {2, 3}


def test_greedy_fills_leftovers_round_robin():
    c = circuit(5, [("cx", 3, 4)])
    pl = greedy_place(c, _spec(n_traps=2, capacity=4, excess=2))
    placed = sorted(q for chain in pl.chains for q in chain)
    assert placed == [0, 1, 2, 3, 4]
    assert {3, 4} <= set(pl.chains[0])


# ---------------------------------------------------------------------------
# random
# ---------------------------------------------------------------------------

def test_random_requires_seed(worked_circuit, worked_spec):
    with pytest.raises(InputError):
        place(worked_circuit, worked_spec, "random")


def test_random_seeded_and_complete(worked_circuit, worked_spec):
    a = random_place(worked_circuit, worked_spec, 0)
    assert a == random_place(worked_circuit, worked_spec, 0)
    assert a != random_place(worked_circuit, worked_spec, 1)
    assert sorted(q for chain in a.chains for q in chain) == list(range(5))


def test_random_fills_traps_to_usable_capacity():
    # 6 qubits over 2 traps x 3 usable: the deal packs trap 0 first
    c = circuit(6, [("cx", 0, 1)])
    spec = _spec(n_traps=2, capacity=5, excess=2)
    for seed in range(10):
        pl = random_place(c, spec, seed)
        assert [len(chain) for chain in pl.chains] == [3, 3]


def test_random_assignment_frequencies_are_uniform():
    c = circuit(6, [("cx", 0, 1)])
    spec = _spec(n_traps=2, capacity=5, excess=2)
    in_trap0 = [0] * 6
    trials = 1000
    for seed in range(trials):
        pl = random_place(c, spec, seed)
        for q in pl.chains[0]:
            in_trap0[q] += 1
    # each qubit lands in trap 0 with p=1/2; 5 sigma ~ 0.079
    for q, k in enumerate(in_trap0):
        assert 0.42 <= k / trials <= 0.58, f"qubit {q} skewed: {k}/{trials}"


def test_random_overflow_spills_into_excess():
    c = circuit(5, [("cx", 0, 1)])
    pl = random_place(c, _spec(n_traps=2, capacity=4, excess=2), 0)
    assert sorted(len(chain) for chain in pl.chains) == [2, 3]
    pl.validate(_spec(n_traps=2, capacity=4, excess=2), 5)


# ---------------------------------------------------------------------------
# placement container
# ---------------------------------------------------------------------------

def test_placement_validate_catches_overflow_and_duplicates():
    spec = _spec(n_traps=2, capacity=2, excess=0)
    with pytest.raises(InputError):
        Placement(chains=((0, 1, 2), (3,))).validate(spec, 4)
    with pytest.raises(InputError):
        Placement(chains=((0, 1), (1,))).validate(spec, 3)
    with pytest.raises(InputError):
        Placement(chains=((0, 1), ())).validate(spec, 3)


def test_placement_validate_names_qubits_outside_the_circuit():
    spec = _spec(n_traps=2, capacity=2, excess=0)
    with pytest.raises(InputError, match=r"placement holds qubits \[-1\] outside 0..2"):
        Placement(chains=((0, 1), (2, -1))).validate(spec, 3)
    with pytest.raises(InputError, match=r"placement holds qubits \[9\] outside 0..2"):
        Placement(chains=((0, 1), (9,))).validate(spec, 3)


def test_placement_trap_lookup(movement_placement):
    assert movement_placement.trap_of[2] == 0
    assert movement_placement.trap_of[4] == 1
    # trap_of is derived from the chains and cannot be passed in
    with pytest.raises(TypeError):
        Placement(chains=((0, 1), (2,)), trap_of={0: 5})


def test_place_dispatch(worked_circuit, worked_spec):
    assert place(worked_circuit, worked_spec, "sta") == sta_place(worked_circuit, worked_spec)
    assert place(worked_circuit, worked_spec, "greedy") == greedy_place(worked_circuit, worked_spec)
    with pytest.raises(InputError):
        place(worked_circuit, worked_spec, "bogus", seed=1)


# ---------------------------------------------------------------------------
# differential: the three strategies against the earlier implementation
# ---------------------------------------------------------------------------
# The reference below is the placement code as it stood before the shared
# slot allocator and STA's forward cursors: a live weight list scanned and
# shrunk per mapped qubit, and random's own deal and overflow loop.


class _RefStaState:
    def __init__(self, circ, spec):
        if circ.n_qubits > spec.n_traps * spec.capacity:
            raise InputError(
                f"device too small: {circ.n_qubits} qubits, {spec.n_traps * spec.capacity} physical slots"
            )
        self.spec = spec
        self.n_qubits = circ.n_qubits
        self.ratios = ref_compute_ratios(interaction_graph(circ), circ.n_qubits)
        self.weights = compute_temporal_weights(compute_slices(circ))
        self.weights_all = list(self.weights)
        self.chains = [[] for _ in range(spec.n_traps)]
        self.trap_of = {}

    def _usable_free(self, trap):
        return max(0, self.spec.usable_capacity - len(self.chains[trap]))

    def _physical_free(self, trap):
        return self.spec.capacity - len(self.chains[trap])

    def _append(self, qubit, trap):
        self.chains[trap].append(qubit)
        self.trap_of[qubit] = trap

    def _place_pair(self, q1, q2):
        spec = self.spec
        for free in (self._usable_free, self._physical_free):
            for t in range(spec.n_traps):
                if free(t) >= 2:
                    self._append(q1, t)
                    self._append(q2, t)
                    return
            open_traps = [t for t in range(spec.n_traps) if free(t) >= 1]
            if len(open_traps) >= 2:
                best = None
                for ta in open_traps:
                    for tb in open_traps:
                        if ta == tb:
                            continue
                        key = (trap_distance(spec, ta, tb), ta, tb)
                        if best is None or key < best:
                            best = key
                if best is not None:
                    self._append(q1, best[1])
                    self._append(q2, best[2])
                    return
            if len(open_traps) == 1 and free is self._usable_free:
                self._append(q1, open_traps[0])
                self._place_single(q2, q1)
                return
        raise InputError("device has no physical space left for a qubit pair")

    def _place_single(self, qubit, partner):
        home = self.trap_of[partner]
        for free in (self._usable_free, self._physical_free):
            candidates = [t for t in range(self.spec.n_traps) if free(t) >= 1]
            if candidates:
                candidates.sort(key=lambda t: (trap_distance(self.spec, home, t), t))
                self._append(qubit, candidates[0])
                return
        raise InputError(f"device has no physical space left for qubit {qubit}")

    def _first_pair_index(self, qubit):
        for i, (pair, _) in enumerate(self.weights):
            if qubit in pair:
                return i
        raise InputError(f"qubit {qubit} has no remaining interaction pair")

    def _appears_before(self, qubit, index):
        return any(qubit in pair for pair, _ in self.weights[:index])

    def _retire(self, q1, q2, pair_index):
        del self.weights[pair_index]
        self.ratios = [e for e in self.ratios if e[0] not in (q1, q2)]

    def map_qubit(self, q1):
        idx = self._first_pair_index(q1)
        pair = self.weights[idx][0]
        q2 = pair[1] if pair[0] == q1 else pair[0]
        if self._appears_before(q2, idx):
            self.map_qubit(q2)
            idx = next(i for i, (p, _) in enumerate(self.weights) if p == pair)
        placed1 = q1 in self.trap_of
        placed2 = q2 in self.trap_of
        if not placed1 and not placed2:
            self._place_pair(q1, q2)
        elif not placed1:
            self._place_single(q1, q2)
        elif not placed2:
            self._place_single(q2, q1)
        self._retire(q1, q2, idx)

    def order_qubits(self):
        for pair, _ in reversed(self.weights_all):
            a, b = pair
            ta, tb = self.trap_of[a], self.trap_of[b]
            if ta == tb:
                continue
            self._move_to_end(a, ta, tb)
            self._move_to_end(b, tb, ta)

    def _move_to_end(self, qubit, trap, toward):
        path = shortest_path(self.spec, trap, toward)
        chain = self.chains[trap]
        chain.remove(qubit)
        if exit_index(self.spec, trap, path[1]) == -1:
            chain.append(qubit)
        else:
            chain.insert(0, qubit)

    def place_isolated(self):
        leftovers = [q for q in range(self.n_qubits) if q not in self.trap_of]
        t = 0
        for free in (self._usable_free, self._physical_free):
            remaining = []
            for q in leftovers:
                placed = False
                for _ in range(self.spec.n_traps):
                    if free(t % self.spec.n_traps) >= 1:
                        self._append(q, t % self.spec.n_traps)
                        t += 1
                        placed = True
                        break
                    t += 1
                if not placed:
                    remaining.append(q)
            leftovers = remaining
            if not leftovers:
                return
        if leftovers:
            raise InputError(f"device has no physical space left for qubits {leftovers}")

    def to_placement(self):
        return Placement(chains=tuple(tuple(c) for c in self.chains))


def _ref_sta_place(circ, spec):
    state = _RefStaState(circ, spec)
    while state.ratios:
        state.map_qubit(state.ratios[0][0])
    state.place_isolated()
    state.order_qubits()
    placement = state.to_placement()
    placement.validate(spec, circ.n_qubits)
    return placement


def _ref_greedy_place(circ, spec):
    state = _RefStaState(circ, spec)
    graph = interaction_graph(circ)
    edges = sorted(graph.items(), key=lambda e: (-e[1], e[0]))
    for (a, b), _ in edges:
        placed_a = a in state.trap_of
        placed_b = b in state.trap_of
        if placed_a and placed_b:
            continue
        if not placed_a and not placed_b:
            state._place_pair(a, b)
        elif placed_a:
            state._place_single(b, a)
        else:
            state._place_single(a, b)
    state.place_isolated()
    placement = state.to_placement()
    placement.validate(spec, circ.n_qubits)
    return placement


def _ref_random_place(circ, spec, seed):
    if circ.n_qubits > spec.n_traps * spec.capacity:
        raise InputError(
            f"device too small: {circ.n_qubits} qubits, {spec.n_traps * spec.capacity} physical slots"
        )
    rng = random.Random(seed)
    order = list(range(circ.n_qubits))
    rng.shuffle(order)
    chains = [[] for _ in range(spec.n_traps)]
    it = iter(order)
    done = False
    for t in range(spec.n_traps):
        while len(chains[t]) < spec.usable_capacity:
            q = next(it, None)
            if q is None:
                done = True
                break
            chains[t].append(q)
        if done:
            break
    t = 0
    for q in it:
        for _ in range(spec.n_traps):
            if len(chains[t % spec.n_traps]) < spec.capacity:
                chains[t % spec.n_traps].append(q)
                t += 1
                break
            t += 1
    placement = Placement(chains=tuple(tuple(c) for c in chains))
    placement.validate(spec, circ.n_qubits)
    return placement


@st.composite
def _placement_cases(draw):
    """Linear and ring devices (2-trap rings included) with 1-7 traps of
    capacity 1-7 and any excess, filled from one qubit up to a full device
    plus one; up to 60 gates, some one-qubit, over a prefix of the qubits so
    that the rest stay isolated.

    Hypothesis leans toward small draws, so the prefix and the gate count are
    drawn as distances from their maximum: STA revisits retired pairs mostly
    in long circuits over many qubits."""
    topology = draw(st.sampled_from([Topology.LINEAR, Topology.RING]))
    n_traps = draw(st.integers(1, 7))
    capacity = draw(st.integers(1, 7))
    spec = _spec(n_traps, capacity, draw(st.integers(0, capacity - 1)), topology)
    full = n_traps * capacity
    near_full = st.integers(max(1, n_traps * spec.usable_capacity - 1), full + 1)
    n_qubits = draw(st.integers(1, full + 1) | near_full)
    active = n_qubits - draw(st.integers(0, n_qubits - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gates = []
    for _ in range(60 - draw(st.integers(0, 60))):
        if active > 1 and rng.random() < 0.7:
            gates.append(("cx", *rng.sample(range(active), 2)))
        else:
            gates.append(("h", rng.randrange(active)))
    return circuit(n_qubits, gates), spec, draw(st.integers(0, 2**16))


def _outcome(fn, *args):
    try:
        return fn(*args).chains
    except InputError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_placement_cases())
def test_placements_match_reference(case):
    circ, spec, seed = case
    assert _outcome(sta_place, circ, spec) == _outcome(_ref_sta_place, circ, spec)
    assert _outcome(greedy_place, circ, spec) == _outcome(_ref_greedy_place, circ, spec)
    assert _outcome(random_place, circ, spec, seed) == _outcome(_ref_random_place, circ, spec, seed)
