"""Movement synthesis for split two-qubit gates.

When a gate's operands sit in different traps, one of them (the mover) is
walked to its trap boundary by SWAPs and shuttled along the shortest trap
path to its partner. The mover is chosen by comparing how much each operand
still has to gain from relocating. A full trap on the way is cleared along a
relief route. Each of its neighbours starts a walk through full traps to the
first trap with a free slot, and the route is the least walk by (more than
one hop, first hop on the mover's remaining path, hops, first hop's
occupancy, first hop's index). Each trap on the route, farthest first,
evicts its least-attached resident into the slot the next one holds open.

Each routing input has one source: the device comes from ``state.spec``,
each qubit's trap from ``state.trap_of``, and pending work from a
``PendingTracker`` over the circuit's ``partner_lists``.

An eviction finds its route in one search over its neighbours' walks, and
tests each candidate victim's attachment as one slice of the tracker's
partner column, a partner counting when ``trap_of`` puts it in the victim's
trap.

Each op goes to the caller's ``commit`` as its fields as soon as it is
chosen; ``commit`` applies it to the state through the state's typed
mutation and returns the op's eight fields, so the next choice sees the
state that op left behind. The router returns them as ``PhysOp`` records,
which live only as long as its caller keeps them. A shuttle names its ion
by the state's shared one-ion tuple.
"""
from __future__ import annotations

import sys
from collections.abc import Callable

from .circuits import Circuit, Gate
from .devices import DeviceState, OpKind, PhysOp, new_record, shortest_path
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
    gates per qubit are consulted (None = all of them); ``window`` holds that
    bound, ``sys.maxsize`` for all.

    The per-qubit seq and partner columns are the circuit's ``partner_lists``,
    shared by every tracker on it. Gates on one qubit commit in program order,
    so each qubit's done gates are a prefix of its columns and a head index
    per qubit marks where pending work starts.
    """

    def __init__(self, circ: Circuit, lookahead: int | None = None):
        if lookahead is not None and (type(lookahead) is not int or lookahead < 1):
            raise InputError(f"lookahead must be a positive integer or None, got {lookahead!r}")
        self.window = sys.maxsize if lookahead is None else lookahead
        self._operands = circ.operands
        self._seqs, self._partners = circ.partner_lists
        self._heads: list[int] = [0] * circ.n_qubits

    def mark_done(self, seq: int) -> None:
        qubits = self._operands[seq]
        if len(qubits) != 2:
            return
        heads = self._heads
        for q in qubits:
            head = heads[q]
            seqs = self._seqs[q]
            if head == len(seqs) or seqs[head] != seq:
                raise QccdError(f"gate {seq} marked done out of program order on qubit {q}")
            heads[q] = head + 1

    def _start(self, qubit: int, exclude_seq: int | None) -> int:
        """Column index of qubit's first pending gate. The excluded gate, the
        one being routed, sits at the head when given and does not consume a
        lookahead slot."""
        seqs, head = self._seqs[qubit], self._heads[qubit]
        return head + 1 if head < len(seqs) and seqs[head] == exclude_seq else head

    def pending_gates(self, qubit: int, exclude_seq: int | None = None) -> list[tuple[int, int]]:
        """(seq, partner) of the next pending gates of qubit, oldest first."""
        h = self._start(qubit, exclude_seq)
        end = h + self.window
        return list(zip(self._seqs[qubit][h:end], self._partners[qubit][h:end]))


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
    trap_of = state.trap_of
    h = tracker._start(qubit, exclude_seq)
    for partner in tracker._partners[qubit][h : h + tracker.window]:
        t = trap_of[partner]
        if t == dest_trap:
            s += 1
        elif t == own_trap:
            s -= 1
    return s


def select_mover(gate: Gate, state: DeviceState, tracker: PendingTracker) -> tuple[int, tuple[int, ...]]:
    """Pick which operand of a split gate relocates to the other's trap, and
    return it with the full trap path from its trap to its partner's."""
    a, b = gate.qubits
    ta, tb = state.trap_of[a], state.trap_of[b]
    if ta == tb:
        raise InputError(f"gate {gate.seq} operands already share trap {ta}")
    # Both directions are memoised: ring ties break toward increasing index.
    paths = state.paths
    path_a = paths.get((ta, tb))
    if path_a is None:
        path_a = paths[ta, tb] = shortest_path(state.spec, ta, tb)
    path_b = paths.get((tb, ta))
    if path_b is None:
        path_b = paths[tb, ta] = shortest_path(state.spec, tb, ta)
    # All-to-all in-trap connectivity: one SWAP gate moves any ion straight to
    # the boundary slot, so an operand already there saves that SWAP.
    chains, exit_slot = state.chains, state.spec.exit_slot
    key_a = (-_score(a, ta, tb, state, tracker, gate.seq), a != chains[ta][exit_slot[ta, path_a[1]]], a)
    key_b = (-_score(b, tb, ta, state, tracker, gate.seq), b != chains[tb][exit_slot[tb, path_b[1]]], b)
    return (a, path_a) if key_a <= key_b else (b, path_b)


def _require_unpinned(state: DeviceState, trap: int, avoid: frozenset[int]) -> None:
    chain = state.chains[trap]
    if len(chain) <= len(avoid) and avoid.issuperset(chain):
        raise DeadlockError(f"trap {trap} is full and every resident is pinned", state.occupancies())


def _least_attached(
    state: DeviceState, src: int, at_exit: int, avoid: frozenset[int], tracker: PendingTracker
) -> int:
    """The eviction victim in src by the full key, for when every candidate
    is attached and so has a first hit."""
    trap_of, heads, window = state.trap_of, tracker._heads, tracker.window

    def key(q: int) -> tuple:
        h = heads[q]
        hits = [i for i, p in enumerate(tracker._partners[q][h : h + window]) if trap_of[p] == src]
        return (len(hits), -tracker._seqs[q][h + hits[0]], q != at_exit, q)

    return min((q for q in state.chains[src] if q not in avoid), key=key)


def _evict_one(
    state: DeviceState,
    trap: int,
    avoid: frozenset[int],
    tracker: PendingTracker,
    commit: Callable[..., tuple],
    blocked: tuple[int, ...] = (),
) -> list[PhysOp]:
    """Free one slot in trap by shuttling out its least-attached resident, and
    return the records committed, in order.

    Each neighbour starts a walk away from trap through full traps to the
    first trap with a free slot, dropped at a line end or back round a ring
    at trap; an open neighbour is a one-hop walk, and with at most two
    neighbours per trap a walk is the shortest way to slack on its side. The
    route is the least walk by (more than one hop, first hop in ``blocked``,
    hops, first hop's occupancy, first hop's index). ``blocked`` is the rest
    of the mover's path, the traps it still has to pass through, so an open
    neighbour beats every longer walk, and among walks of either kind one
    whose first hop is off the mover's path wins. Relief cascades back along
    the route, farthest trap first.
    """
    chains, spec = state.chains, state.spec
    capacity, adjacency = spec.capacity, spec._adjacency
    _require_unpinned(state, trap, avoid)
    # An open neighbour wins the key's first field, so full traps are walked
    # only when no neighbour is open.
    open_hops = [
        (first in blocked, len(chains[first]), first)
        for first in adjacency[trap]
        if len(chains[first]) < capacity
    ]
    if open_hops:
        route = [trap, min(open_hops)[-1]]
    else:
        # A walk goes in after its key; first hops differ, so min never compares walks.
        walks = []
        for first in adjacency[trap]:
            walk = [trap, first]
            while len(chains[walk[-1]]) >= capacity:
                # The neighbour ahead is the one that is not back, or back
                # itself at a line end.
                back, ahead = walk[-2], adjacency[walk[-1]]
                nxt = ahead[0] if ahead[0] != back else ahead[-1]
                if nxt == back or nxt == trap:
                    break
                walk.append(nxt)
            else:
                walks.append((first in blocked, len(walk), len(chains[first]), first, walk))
        if not walks:
            raise DeadlockError(f"no free slot reachable from trap {trap}", state.occupancies())
        route = min(walks)[-1]
    for t in route[1:-1]:
        _require_unpinned(state, t, avoid)
    # A qubit's pending window is the slice [h : h + window] from its head h,
    # and a candidate is attached when a partner in it has trap_of[p] == src.
    exit_slot, trap_of, singletons = spec.exit_slot, state.trap_of, state.singletons
    partners, heads, window = tracker._partners, tracker._heads, tracker.window
    ops: list[PhysOp] = []
    # Deeper evictions leave the traps nearer trap untouched, so each victim
    # is chosen against its own trap as it stood when the route was found.
    for i in range(len(route) - 2, -1, -1):
        src, dest = route[i], route[i + 1]
        chain = chains[src]
        at_exit = chain[exit_slot[src, dest]]
        # Least attached first, then the latest next co-trapped gate (evicting
        # a soon-needed ion just schedules a refetch), then the exit ion, then
        # the lowest qubit. An unattached candidate beats every attached one,
        # so the first unattached one in (exit ion, lowest qubit up) order
        # wins, and the full key is needed only when every one is attached.
        victim = None
        if at_exit not in avoid:
            h = heads[at_exit]
            for p in partners[at_exit][h : h + window]:
                if trap_of[p] == src:
                    break
            else:
                victim = at_exit
        if victim is None:
            # The exit ion, if not avoided, was tested above and is attached.
            for q in sorted(chain):
                if q != at_exit and q not in avoid:
                    h = heads[q]
                    for p in partners[q][h : h + window]:
                        if trap_of[p] == src:
                            break
                    else:
                        victim = q
                        break
            else:
                victim = _least_attached(state, src, at_exit, avoid, tracker)
        if victim != at_exit:
            ops.append(new_record(PhysOp, commit(_SWAP, (victim, at_exit), src, None, None)))
        ops.append(new_record(PhysOp, commit(_SHUTTLE, singletons[victim], None, src, dest)))
    return ops


def resolve_gate(
    gate: Gate,
    state: DeviceState,
    tracker: PendingTracker,
    commit: Callable[..., tuple],
) -> list[PhysOp]:
    """Co-trap a split gate's operands, committing each SWAP and shuttle in turn.

    ``commit(kind, qubits, trap, src, dst)`` must apply the op to ``state``,
    through ``state.shuttle_ion`` or ``state.swap_ions``, and return the
    op's eight ``PhysOp`` fields. A shuttle's ``qubits`` is
    ``state.singletons[ion]``. Returns the committed ops in order as
    ``PhysOp`` records; afterwards the operands share the destination trap.
    """
    mover, path = select_mover(gate, state, tracker)
    avoid = frozenset(gate.qubits)
    chains, capacity, exit_slot = state.chains, state.spec.capacity, state.spec.exit_slot
    moved = state.singletons[mover]
    ops: list[PhysOp] = []
    record = ops.append
    for i in range(1, len(path)):
        cur, nxt = path[i - 1], path[i]
        if len(chains[nxt]) >= capacity:
            ops += _evict_one(state, nxt, avoid, tracker, commit, path[i + 1 :])
        # In-trap connectivity is all-to-all, so one SWAP gate exchanges the
        # mover with whatever ion holds the end facing nxt.
        occupant = chains[cur][exit_slot[cur, nxt]]
        if occupant != mover:
            record(new_record(PhysOp, commit(_SWAP, (mover, occupant), cur, None, None)))
        record(new_record(PhysOp, commit(_SHUTTLE, moved, None, cur, nxt)))
    return ops
