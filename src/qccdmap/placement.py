"""Initial qubit-to-trap placement strategies.

Three strategies share one Placement output type and one slot allocator,
``_Slots``, which checks the device size, co-traps or splits pairs, places a
qubit near its partner and round-robins the qubits left over:

* ``sta_place``: spatio-temporal placement. Qubits are ranked by how widely
  they interact (interaction ratio) and pairs by how early and often they
  interact (temporal weight, earlier slices weigh exponentially more). Pairs
  are co-trapped greedily in rank order, then a relocation pass moves split
  pairs to the trap ends nearest their partners, later (heavier) pairs
  displacing earlier ones. It finds each qubit's last move and builds each
  chain once in final order, as a move keeps the other qubits' order.
* ``greedy_place``: heaviest interaction edges first, endpoints co-trapped
  while room allows.
* ``random_place``: seeded uniform shuffle dealt into traps.

Traps reserve ``excess_capacity`` free slots as routing slack. A lone qubit
spills into it only when no usable slot is left. A pair does when fewer than
two traps have a usable slot: it goes to the first trap with two physical
slots before it is split. Overflow is never an error while space remains.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from operator import floordiv, mod

from .circuits import Circuit, compute_slices, interaction_graph
from .devices import DeviceSpec, shortest_path, trap_distance
from .errors import InputError


@dataclass(frozen=True)
class Placement:
    """Initial trap chains: chains[t] lists qubits left to right."""

    chains: tuple[tuple[int, ...], ...]
    trap_of: dict[int, int] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        mapping: dict[int, int] = {}
        for t, chain in enumerate(self.chains):
            for q in chain:
                if q in mapping:
                    raise InputError(f"placement assigns qubit {q} twice")
                mapping[q] = t
        object.__setattr__(self, "trap_of", mapping)

    def validate(self, spec: DeviceSpec, n_qubits: int) -> None:
        if len(self.chains) != spec.n_traps:
            raise InputError(f"placement has {len(self.chains)} chains for {spec.n_traps} traps")
        for t, chain in enumerate(self.chains):
            if len(chain) > spec.capacity:
                raise InputError(f"placement overfills trap {t}: {len(chain)} > {spec.capacity}")
        placed = set(self.trap_of)
        stray = sorted(q for q in placed if not 0 <= q < n_qubits)
        if stray:
            raise InputError(f"placement holds qubits {stray} outside 0..{n_qubits - 1}")
        missing = sorted(set(range(n_qubits)) - placed)
        if missing:
            raise InputError(f"placement misses qubits {missing}")


def compute_ratios(partners: tuple[list[int], ...]) -> list[tuple[int, float]]:
    """Interaction ratios (distinct partners / qubit count), sorted descending.

    ``partners`` is the partner column of a circuit's ``partner_lists``. Ties
    break toward the qubit with more incident gates (a longer list), then the
    lower index. Qubits without interactions are omitted.
    """
    n = len(partners)
    distinct = [len(set(p)) for p in partners]
    incident = [len(p) for p in partners]
    ranked = [q for q in range(n) if incident[q]]
    # Stable sorts, last key first: each keeps the order of the one before on a tie.
    ranked.sort(key=incident.__getitem__, reverse=True)
    ranked.sort(key=distinct.__getitem__, reverse=True)
    return [(q, distinct[q] / n) for q in ranked]


def rank_pairs(
    slices: tuple[tuple[int, ...], ...], operands: tuple[tuple[int, ...], ...], n: int
) -> tuple[list[int], list[int]]:
    """The pairs (a, b), a < b, that interact in an n-qubit circuit's slices,
    by weight sum(2^-s over slices s where the pair interacts), descending,
    as two columns: every pair's a, then every pair's b.

    ``slices`` holds gate seqs and ``operands`` each gate's qubits. Ties
    break lexicographically by (a, b). Slice indices beyond the
    double-precision subnormal range contribute exactly zero, which is the
    faithful floating-point reading of the weight formula.
    """
    # Pairs are coded a * n + b, in (a, b) order; a reversed stable sort keeps ties in code order.
    weights: dict[int, float] = {}
    get = weights.get
    for s, bucket in enumerate(slices):
        contrib = math.ldexp(1.0, -s) if s <= 1074 else 0.0
        for seq in bucket:
            a, b = operands[seq]
            code = a * n + b if a < b else b * n + a
            weights[code] = get(code, 0.0) + contrib
    codes = sorted(weights)
    codes.sort(key=weights.__getitem__, reverse=True)
    return list(map(floordiv, codes, repeat(n))), list(map(mod, codes, repeat(n)))


class _Slots:
    """Chains under construction; every strategy places through these rules."""

    def __init__(self, spec: DeviceSpec, n_qubits: int):
        if n_qubits > spec.n_traps * spec.capacity:
            raise InputError(
                f"device too small: {n_qubits} qubits, {spec.n_traps * spec.capacity} physical slots"
            )
        self.spec = spec
        self.chains: list[list[int]] = [[] for _ in range(spec.n_traps)]
        self.trap_of: dict[int, int] = {}

    def _usable_free(self, trap: int) -> int:
        return max(0, self.spec.usable_capacity - len(self.chains[trap]))

    def _physical_free(self, trap: int) -> int:
        return self.spec.capacity - len(self.chains[trap])

    def _append(self, qubit: int, trap: int) -> None:
        self.chains[trap].append(qubit)
        self.trap_of[qubit] = trap

    def _place_pair(self, q1: int, q2: int) -> None:
        spec = self.spec
        for free in (self._usable_free, self._physical_free):
            for t in range(spec.n_traps):
                if free(t) >= 2:
                    self._append(q1, t)
                    self._append(q2, t)
                    return
            # No trap fits both: split across the closest open pair, lowest
            # traps first on a tie. On a line or a ring that is two neighbours
            # in trap order, or the first and last open trap.
            open_traps = [t for t in range(spec.n_traps) if free(t) >= 1]
            if len(open_traps) >= 2:
                neighbours = [*zip(open_traps, open_traps[1:]), (open_traps[0], open_traps[-1])]
                _, ta, tb = min((trap_distance(spec, a, b), a, b) for a, b in neighbours)
                self._append(q1, ta)
                self._append(q2, tb)
                return
        raise InputError("device has no physical space left for a qubit pair")

    def _place_single(self, qubit: int, partner: int) -> None:
        home = self.trap_of[partner]
        for free in (self._usable_free, self._physical_free):
            candidates = [t for t in range(self.spec.n_traps) if free(t) >= 1]
            if candidates:
                self._append(qubit, min(candidates, key=lambda t: (trap_distance(self.spec, home, t), t)))
                return
        raise InputError(f"device has no physical space left for qubit {qubit}")

    def join(self, q1: int, q2: int) -> None:
        """Place whichever of q1 and q2 is unplaced, as near the other as slots allow."""
        placed1 = q1 in self.trap_of
        placed2 = q2 in self.trap_of
        if not placed1 and not placed2:
            self._place_pair(q1, q2)
        elif not placed1:
            self._place_single(q1, q2)
        elif not placed2:
            self._place_single(q2, q1)

    def place_rest(self, qubits: list[int]) -> None:
        """Round-robin qubits into the remaining slots, usable ones first. One
        counter runs on across both passes: each qubit left over laps it once."""
        n = self.spec.n_traps
        t = 0
        for free in (self._usable_free, self._physical_free):
            remaining = []
            for q in qubits:
                for _ in range(n):
                    trap = t % n
                    t += 1
                    if free(trap) >= 1:
                        self._append(q, trap)
                        break
                else:
                    remaining.append(q)
            qubits = remaining
            if not qubits:
                return
        raise InputError(f"device has no physical space left for qubits {qubits}")

    def to_placement(self, n_qubits: int) -> Placement:
        placement = Placement(chains=tuple(tuple(c) for c in self.chains))
        placement.validate(self.spec, n_qubits)
        return placement


def sta_place(circ: Circuit, spec: DeviceSpec) -> Placement:
    """Spatio-temporal placement: rank by interaction ratio, co-trap by
    temporal weight, then pre-position split pairs at trap boundaries.

    Pairs keep their fixed temporal-weight order; a mapped pair is marked
    retired, and each qubit's cursor over its own pair positions only moves
    forward, past retired ones.
    """
    slots = _Slots(spec, circ.n_qubits)
    trap_of = slots.trap_of
    firsts, seconds = rank_pairs(compute_slices(circ), circ.operands, circ.n_qubits)
    positions: list[list[int]] = [[] for _ in range(circ.n_qubits)]
    for i, a, b in zip(range(len(firsts)), firsts, seconds):
        positions[a].append(i)
        positions[b].append(i)
    cursor = [0] * circ.n_qubits
    retired = bytearray(len(firsts))

    def first_live(q: int) -> int:
        pos, c = positions[q], cursor[q]
        while retired[pos[c]]:
            c += 1
        cursor[q] = c
        return pos[c]

    def map_qubit(q: int) -> None:
        """Place q with its heaviest live partner, mapping the partner first
        if it is in an earlier live pair, and so on down the chain of links.
        Each link's pair is earlier than the one before, so the links are
        distinct and each is joined and retired only after the ones below it."""
        links = []
        idx = first_live(q)
        while True:
            a = firsts[idx]
            partner = seconds[idx] if a == q else a
            links.append((q, partner, idx))
            below = first_live(partner)
            if below >= idx:
                break
            q, idx = partner, below
        for q1, q2, i in reversed(links):
            slots.join(q1, q2)
            retired[i] = 1

    # Mapping places exactly the qubits of the pairs it retires, so skipping
    # placed qubits walks the ranking as a list shrunk after each map would.
    for q, _ in compute_ratios(circ.partner_lists[1]):
        if q not in trap_of:
            map_qubit(q)
    slots.place_rest([q for q in range(circ.n_qubits) if q not in trap_of])

    # Relocate split pairs to the trap ends facing their partners' first hop.
    # Pairs move in ascending weight, so heavier pairs relocate last and win
    # the boundary slots. A qubit's last move is its first in descending
    # weight, so pairs are read heaviest first, each qubit is decided once,
    # and reading stops once all are.
    last_move: dict[int, tuple[int, int]] = {}
    last_turn = len(firsts) - 1
    for j, a, b in zip(range(len(firsts)), firsts, seconds):
        ta, tb = trap_of[a], trap_of[b]
        if ta == tb:
            continue
        for q, t, toward in ((a, ta, tb), (b, tb, ta)):
            if q not in last_move:
                last_move[q] = (last_turn - j, spec.exit_slot[t, shortest_path(spec, t, toward)[1]])
        if len(last_move) == circ.n_qubits:
            break
    slots.chains = [_final_order(chain, last_move) for chain in slots.chains]
    return slots.to_placement(circ.n_qubits)


def _final_order(chain: list[int], last_move: dict[int, tuple[int, int]]) -> list[int]:
    """chain after its qubits' moves to an end, from each moved qubit's last
    (turn, exit slot): those last moved to slot 0, latest first, then the
    unmoved in order, then those last moved to slot -1, latest last."""
    left, stay, right = [], [], []
    for q in chain:
        move = last_move.get(q)
        if move is None:
            stay.append(q)
        elif move[1] == -1:
            right.append((move[0], q))
        else:
            left.append((move[0], q))
    left.sort(reverse=True)
    right.sort()
    return [q for _, q in left] + stay + [q for _, q in right]


def greedy_place(circ: Circuit, spec: DeviceSpec) -> Placement:
    """Co-trap the endpoints of the heaviest interaction edges first."""
    slots = _Slots(spec, circ.n_qubits)
    edges = sorted(interaction_graph(circ).items(), key=lambda e: (-e[1], e[0]))
    for (a, b), _ in edges:
        slots.join(a, b)
    slots.place_rest([q for q in range(circ.n_qubits) if q not in slots.trap_of])
    return slots.to_placement(circ.n_qubits)


def random_place(circ: Circuit, spec: DeviceSpec, seed: int) -> Placement:
    """Uniform shuffle dealt into traps up to usable capacity, then overflow."""
    slots = _Slots(spec, circ.n_qubits)
    order = list(range(circ.n_qubits))
    random.Random(seed).shuffle(order)
    u = spec.usable_capacity
    for t in range(spec.n_traps):
        for q in order[t * u:(t + 1) * u]:
            slots._append(q, t)
    # Leftovers exist only when every usable slot is full; the usable pass
    # then laps once per qubit, so the overflow starts at trap 0.
    slots.place_rest(order[spec.n_traps * u:])
    return slots.to_placement(circ.n_qubits)


def place(circ: Circuit, spec: DeviceSpec, strategy: str, seed: int | None = None) -> Placement:
    if strategy == "sta":
        return sta_place(circ, spec)
    if strategy == "greedy":
        return greedy_place(circ, spec)
    if strategy != "random":
        raise InputError(f"unknown placement strategy {strategy!r} (sta, greedy, random)")
    if seed is None:
        raise InputError("random placement requires a seed")
    return random_place(circ, spec, seed)
