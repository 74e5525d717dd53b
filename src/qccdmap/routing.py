"""Movement synthesis for split two-qubit gates.

When a gate's operands sit in different traps, one of them (the mover) is
walked to its trap boundary by SWAPs and shuttled along the shortest trap
path to its partner. The mover is chosen by comparing how much each operand
still has to gain from relocating. A full trap on the way is cleared along a
relief route, the trap line from it to the nearest trap with a free slot:
each trap on the route, farthest first, evicts its least-attached resident
into the slot the next one holds open.

Each op goes to the caller's ``commit`` as its fields as soon as it is
chosen; ``commit`` applies it and returns its record, so the next choice sees
the state that op left behind.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .circuits import Circuit, Gate
from .devices import DeviceSpec, DeviceState, OpKind, PhysOp, facing_end, shortest_path
from .errors import DeadlockError, InputError, QccdError

# Default pending-gate window for movement scores. A short horizon keeps the
# router focused on imminent work; with a wide one, partners from much later
# program phases dominate the scores and drag ions away from where their next
# few gates actually happen.
DEFAULT_LOOKAHEAD = 4

# Module globals for the per-op paths: on CPython 3.11 an Enum member read
# through its class costs several times a global read.
_SWAP, _SHUTTLE = OpKind.SWAP, OpKind.SHUTTLE


class PendingTracker:
    """Remaining two-qubit work per qubit, in program order.

    The scheduler marks gates done as they commit; the router reads pending
    partners to score movement choices. ``lookahead`` bounds how many pending
    gates per qubit are consulted (None = all of them).

    Gates on one qubit commit in program order, so each qubit's done gates are
    a prefix of its list and a head index per qubit marks where pending work
    starts.
    """

    def __init__(self, circ: Circuit, lookahead: int | None = None):
        if lookahead is not None and lookahead < 1:
            raise InputError(f"lookahead must be positive, got {lookahead}")
        self.lookahead = lookahead
        self._per_qubit: list[list[tuple[int, int]]] = [[] for _ in range(circ.n_qubits)]
        # The partner column of _per_qubit, for membership tests on a window.
        self._partners: list[list[int]] = [[] for _ in range(circ.n_qubits)]
        for g in circ.gates:
            if len(g.qubits) == 2:
                a, b = g.qubits
                self._per_qubit[a].append((g.seq, b))
                self._per_qubit[b].append((g.seq, a))
                self._partners[a].append(b)
                self._partners[b].append(a)
        self._operands = [g.qubits if len(g.qubits) == 2 else () for g in circ.gates]
        self._heads: list[int] = [0] * circ.n_qubits

    def mark_done(self, seq: int) -> None:
        heads = self._heads
        for q in self._operands[seq]:
            head = heads[q]
            entries = self._per_qubit[q]
            if head == len(entries) or entries[head][0] != seq:
                raise QccdError(f"gate {seq} marked done out of program order on qubit {q}")
            heads[q] = head + 1

    def pending_gates(self, qubit: int, exclude_seq: int | None = None) -> list[tuple[int, int]]:
        """(seq, partner) of the next pending gates of qubit, oldest first.

        The excluded gate, the one being routed, sits at the head when given
        and does not consume a lookahead slot.
        """
        entries = self._per_qubit[qubit]
        head = self._heads[qubit]
        if head < len(entries) and entries[head][0] == exclude_seq:
            head += 1
        if self.lookahead is None:
            return entries[head:]
        return entries[head : head + self.lookahead]

    def pending_partners(self, qubit: int) -> list[int]:
        """The partners of ``pending_gates(qubit)``, in the same order."""
        head = self._heads[qubit]
        if self.lookahead is None:
            return self._partners[qubit][head:]
        return self._partners[qubit][head : head + self.lookahead]


@dataclass(frozen=True)
class MoveDecision:
    """Which operand moves where: the full trap path, from the mover's trap to
    its partner's, is committed up front."""

    mover: int
    path: tuple[int, ...]


def _score(
    qubit: int,
    own_trap: int,
    dest_trap: int,
    state: DeviceState,
    tracker: PendingTracker,
    exclude_seq: int,
) -> int:
    # +1 per pending partner already in the destination, -1 per partner this
    # move would leave behind in the current trap.
    s = 0
    # Every partner is a circuit qubit, placed and only ever moved between
    # traps, so the map is read directly.
    trap_of = state._trap_of
    for _, partner in tracker.pending_gates(qubit, exclude_seq=exclude_seq):
        t = trap_of[partner]
        if t == dest_trap:
            s += 1
        elif t == own_trap:
            s -= 1
    return s


def select_mover(
    gate: Gate,
    state: DeviceState,
    tracker: PendingTracker,
    spec: DeviceSpec,
) -> MoveDecision:
    """Pick which operand of a split gate relocates to the other's trap."""
    a, b = gate.qubits
    ta, tb = state.trap_of(a), state.trap_of(b)
    if ta == tb:
        raise InputError(f"gate {gate.seq} operands already share trap {ta}")
    path_a, path_b = shortest_path(spec, ta, tb), shortest_path(spec, tb, ta)
    # All-to-all in-trap connectivity: one SWAP gate moves any ion straight to
    # the boundary slot, so an operand already there saves that SWAP.
    key_a = (-_score(a, ta, tb, state, tracker, gate.seq), a != _exit_ion(state, ta, path_a[1]), a)
    key_b = (-_score(b, tb, ta, state, tracker, gate.seq), b != _exit_ion(state, tb, path_b[1]), b)
    if key_a <= key_b:
        return MoveDecision(mover=a, path=path_a)
    return MoveDecision(mover=b, path=path_b)


def _exit_ion(state: DeviceState, trap: int, neighbor: int) -> int:
    """The ion on the slot of trap's chain end that faces neighbor."""
    chain = state.chains[trap]
    # facing_end only runs to raise its error for a non-adjacent pair.
    end = state.spec._facing.get((trap, neighbor)) or facing_end(state.spec, trap, neighbor)
    return chain[-1] if end == "right" else chain[0]


def _walk_to_boundary(
    state: DeviceState, qubit: int, trap: int, neighbor: int, commit: Callable[..., PhysOp]
) -> None:
    """Commit the SWAP that puts qubit, held by trap, at the end facing neighbor.

    In-trap connectivity is all-to-all, so one SWAP gate exchanges the qubit
    with whatever ion currently holds the boundary slot; no op is needed when
    the qubit is already there.
    """
    # _exit_ion inlined: this runs before every shuttle.
    chain = state.chains[trap]
    end = state.spec._facing.get((trap, neighbor)) or facing_end(state.spec, trap, neighbor)
    occupant = chain[-1] if end == "right" else chain[0]
    if occupant != qubit:
        commit(_SWAP, (qubit, occupant), trap, None, None)


def _attachment(qubit: int, residents: set[int], tracker: PendingTracker) -> tuple[int, int]:
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


def _unattached(qubit: int, residents: set[int], tracker: PendingTracker) -> bool:
    """No pending partner of qubit is among residents; _attachment's window."""
    return residents.isdisjoint(tracker.pending_partners(qubit))


def _require_unpinned(state: DeviceState, trap: int, avoid: frozenset[int]) -> None:
    if avoid.issuperset(state.chains[trap]):
        raise DeadlockError(f"trap {trap} is full and every resident is pinned", state.occupancies())


def _evict_one(
    state: DeviceState,
    spec: DeviceSpec,
    trap: int,
    avoid: frozenset[int],
    tracker: PendingTracker,
    commit: Callable[..., PhysOp],
    blocked: frozenset[int] = frozenset(),
) -> None:
    """Free one slot in trap by shuttling out its least-attached resident.

    Destinations in ``blocked`` (traps the mover still has to pass through)
    are taken only as a last resort. When every neighbour is full, each one
    starts a walk away from trap through full traps to the first free one,
    dropped at a line end or back round a ring at trap; with at most two
    neighbours per trap, a walk is the shortest way to slack on its side.
    Relief cascades back along the chosen route, farthest trap first.
    """
    chains = state.chains
    capacity = spec.capacity
    _require_unpinned(state, trap, avoid)
    open_neighbors = [t for t in spec.neighbors(trap) if len(chains[t]) < capacity]
    if open_neighbors:
        route = [trap, min(open_neighbors, key=lambda t: (t in blocked, len(chains[t]), t))]
    else:
        walks = []
        for first in spec.neighbors(trap):
            walk = [trap, first]
            while len(chains[walk[-1]]) >= capacity:
                ahead = [u for u in spec.neighbors(walk[-1]) if u != walk[-2]]
                if not ahead or ahead[0] == trap:
                    break
                walk.append(ahead[0])
            else:
                walks.append(walk)
        if not walks:
            raise DeadlockError(f"no free slot reachable from trap {trap}", state.occupancies())
        route = min(walks, key=lambda w: (w[1] in blocked, len(w), w[1]))
        for t in route[1:-1]:
            _require_unpinned(state, t, avoid)
    # Deeper evictions leave the traps nearer trap untouched, so each victim
    # is chosen against its own trap as it stood when the route was found.
    for i in range(len(route) - 2, -1, -1):
        src, dest = route[i], route[i + 1]
        # Least attached first, then the latest next co-trapped gate (evicting
        # a soon-needed ion just schedules a refetch), then the exit ion, then
        # the lowest qubit. An unattached candidate beats every attached one,
        # so the full key is needed only when every candidate is attached.
        at_exit = _exit_ion(state, src, dest)
        residents = set(chains[src])
        if at_exit not in avoid and _unattached(at_exit, residents, tracker):
            victim = at_exit
        else:
            candidates = [q for q in chains[src] if q not in avoid]
            victim = next((q for q in sorted(candidates) if _unattached(q, residents, tracker)), None)
            if victim is None:
                victim = min(
                    candidates,
                    key=lambda q: (*_attachment(q, residents, tracker), q != at_exit, q),
                )
        _walk_to_boundary(state, victim, src, dest, commit)
        commit(_SHUTTLE, (victim,), None, src, dest)


def resolve_gate(
    gate: Gate,
    state: DeviceState,
    tracker: PendingTracker,
    spec: DeviceSpec,
    commit: Callable[..., PhysOp],
) -> list[PhysOp]:
    """Co-trap a split gate's operands, committing each SWAP and shuttle in turn.

    ``commit(kind, qubits, trap, src, dst)`` must apply the op to ``state``
    and return its record. Returns the committed records in order; afterwards
    the operands share the destination trap.
    """
    decision = select_mover(gate, state, tracker, spec)
    mover = decision.mover
    avoid = frozenset(gate.qubits)
    ops: list[PhysOp] = []

    def record(kind, qubits, trap, src, dst) -> None:
        ops.append(commit(kind, qubits, trap, src, dst))

    path = decision.path
    for i, (cur, nxt) in enumerate(zip(path, path[1:])):
        if len(state.chains[nxt]) >= spec.capacity:
            _evict_one(state, spec, nxt, avoid, tracker, record, frozenset(path[i + 2 :]))
        _walk_to_boundary(state, mover, cur, nxt, record)
        record(_SHUTTLE, (mover,), None, cur, nxt)
    return ops
