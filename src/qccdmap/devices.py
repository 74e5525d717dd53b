"""Trap-array device model: geometry, ion chain state, timed physical operations.

Traps hold ordered linear ion chains. Chains are oriented left-to-right along
increasing trap index, and trap t's right end faces trap t+1's left end. A
ring of three or more traps adds the wrap edge: trap T-1's right end faces
trap 0's left end. A two-trap ring has only the edge 0-1 and faces like a
linear pair, and a single trap has no neighbours. A shuttle always leaves
from the source end facing the destination and arrives at the destination
end facing the source.

That rule is one table, ``DeviceSpec.exit_slot``: for each adjacent pair
(t, u) it holds the index in trap t's chain of the ion that leaves toward u,
0 for the left end and -1 for the right end. A pair that is not adjacent is
absent from it.

A ``DeviceState`` is one compile's copy of a validated placement: its chains
and the public qubit-to-trap dict ``trap_of``, changed only by the two typed
mutations ``shuttle_ion`` and ``swap_ions``. ``apply`` dispatches a record to
them.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .errors import DeviceOpError, InputError

if TYPE_CHECKING:
    from .placement import Placement


class Topology(Enum):
    LINEAR = "linear"
    RING = "ring"


@dataclass(frozen=True)
class TimingModel:
    """Operation durations in seconds; two-qubit gates slow with chain length."""

    one_qubit: float = 10e-6
    two_qubit_base: float = 100e-6
    two_qubit_slope: float = 0.05
    swap_factor: float = 3.0
    split: float = 80e-6
    move_per_edge: float = 5e-6
    merge: float = 80e-6

    def __post_init__(self) -> None:
        # The slope alone may be zero; it is checked after the others.
        for f in sorted(fields(self), key=lambda f: f.name == "two_qubit_slope"):
            value = getattr(self, f.name)
            slope = f.name == "two_qubit_slope"
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InputError(f"timing parameter {f.name} must be a number, got {value!r}")
            # isfinite first: nan fails every comparison, so "<= 0" alone lets it in.
            if not (math.isfinite(value) and (value >= 0 if slope else value > 0)):
                sign = "non-negative" if slope else "positive"
                raise InputError(f"timing parameter {f.name} must be finite and {sign}, got {value!r}")

    def two_qubit(self, chain_length: int) -> float:
        return self.two_qubit_base * (1.0 + self.two_qubit_slope * (chain_length - 1))

    def swap(self, chain_length: int) -> float:
        return self.swap_factor * self.two_qubit(chain_length)

    @property
    def shuttle(self) -> float:
        return self.split + self.move_per_edge + self.merge


@dataclass(frozen=True)
class DeviceSpec:
    topology: Topology
    n_traps: int
    capacity: int
    excess_capacity: int
    timing: TimingModel = TimingModel()

    def __post_init__(self) -> None:
        if not isinstance(self.topology, Topology):
            try:
                object.__setattr__(self, "topology", Topology(self.topology))
            except ValueError:
                raise InputError(f"topology must be 'linear' or 'ring', got {self.topology!r}")
        for name in ("n_traps", "capacity", "excess_capacity"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InputError(f"device {name} must be an integer, got {value!r}")
        if self.n_traps < 1:
            raise InputError("device needs at least one trap")
        if self.capacity < 1:
            raise InputError("trap capacity must be positive")
        if self.excess_capacity < 0:
            raise InputError("excess capacity cannot be negative")
        if self.excess_capacity >= self.capacity:
            raise InputError(
                f"excess capacity {self.excess_capacity} must be smaller than capacity {self.capacity}"
            )
        # Adjacency and exit-slot tables, built once. Chains run left to right
        # by trap index; a ring of 3+ traps wraps, so trap T-1's right end faces 0.
        n = self.n_traps
        ring = self.topology is Topology.RING and n > 2
        exit_slot: dict[tuple[int, int], int] = {}
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for t in range(n):
            for u, slot in ((t - 1, 0), (t + 1, -1)):
                if ring or 0 <= u < n:
                    exit_slot[t, u % n] = slot
                    adjacency[t].append(u % n)
        object.__setattr__(self, "exit_slot", exit_slot)
        object.__setattr__(self, "_adjacency", tuple(tuple(sorted(a)) for a in adjacency))

    @property
    def usable_capacity(self) -> int:
        return self.capacity - self.excess_capacity

    def neighbors(self, trap: int) -> tuple[int, ...]:
        self._check_trap(trap)
        return self._adjacency[trap]

    def _check_trap(self, trap: int) -> None:
        if not 0 <= trap < self.n_traps:
            raise InputError(f"trap index {trap} outside 0..{self.n_traps - 1}")


def trap_distance(spec: DeviceSpec, a: int, b: int) -> int:
    """Minimal number of trap-graph edges between traps a and b."""
    spec._check_trap(a)
    spec._check_trap(b)
    d = abs(a - b)
    if spec.topology is Topology.RING:
        return min(d, spec.n_traps - d)
    return d


def shortest_path(spec: DeviceSpec, a: int, b: int) -> tuple[int, ...]:
    """Trap sequence from a to b; ring ties are broken toward increasing index."""
    spec._check_trap(a)
    spec._check_trap(b)
    if a == b:
        return (a,)
    if spec.topology is Topology.LINEAR:
        step = 1 if b > a else -1
        return tuple(range(a, b + step, step))
    t = spec.n_traps
    fwd = (b - a) % t
    bwd = (a - b) % t
    # Each direction is at most two index runs, split where it wraps.
    if fwd <= bwd:
        return (*range(a, min(a + fwd, t - 1) + 1), *range(a + fwd + 1 - t))
    return (*range(a, max(a - bwd, 0) - 1, -1), *range(t - 1, a - bwd + t - 1, -1))


class OpKind(Enum):
    GATE1 = "gate1"
    GATE2 = "gate2"
    SWAP = "swap"
    SHUTTLE = "shuttle"


class PhysOp(NamedTuple):
    """One physical operation, with its start and end in seconds. Unused
    fields stay None for the other kinds; a gate's label is
    ``circ.gates[seq].label``.

    A named tuple: immutable, hashable and equal by field. A schedule keeps
    no record per op, only these eight fields in order, and builds records
    when ``Schedule.ops`` is read.
    """

    kind: OpKind
    qubits: tuple[int, ...] = ()
    trap: int | None = None
    src: int | None = None
    dst: int | None = None
    seq: int | None = None
    start: float = 0.0
    end: float = 0.0


# Builds a named tuple from the tuple of all its fields, skipping the class's
# Python-level __new__: new_record(PhysOp, (kind, qubits, trap, src, dst, seq,
# start, end)). The router builds the records it returns for a gate's SWAPs
# and shuttles this way, which live only as long as its caller keeps them,
# and the circuit builders one Gate per gate.
new_record = tuple.__new__


class DeviceState:
    """Mutable trap-chain state, owned by one compilation run. It copies the
    ``chains`` and ``trap_of`` of a placement the caller has validated.

    ``paths`` memoises the router's ``shortest_path`` calls for the run; a
    spec outlives its compiles, so a memo there would grow to every pair.
    ``singletons`` maps each ion to the one-ion tuple that all its shuttle
    records share, so a shuttle builds no ``qubits`` tuple of its own.
    """

    def __init__(self, spec: DeviceSpec, placement: Placement):
        self.spec = spec
        self.chains = [list(c) for c in placement.chains]
        self.trap_of = dict(placement.trap_of)
        self.paths: dict[tuple[int, int], tuple[int, ...]] = {}
        self.singletons = {q: (q,) for q in self.trap_of}

    def copy(self) -> "DeviceState":
        dup = DeviceState.__new__(DeviceState)
        dup.spec = self.spec
        dup.chains = [list(c) for c in self.chains]
        dup.trap_of = dict(self.trap_of)
        dup.paths = self.paths
        dup.singletons = self.singletons
        return dup

    def occupancies(self) -> list[int]:
        return [len(c) for c in self.chains]

    def shuttle_ion(self, q: int, src: int, dst: int) -> None:
        """Shuttle ion q from trap src to the adjacent trap dst. It leaves by
        src's end facing dst and lands at the opposite end of dst, facing src."""
        spec = self.spec
        # One lookup both tests adjacency and gives the exit slot; slot 0 is
        # falsy, so absence is tested with None.
        slot = spec.exit_slot.get((src, dst))
        if slot is None:
            spec._check_trap(src)
            raise DeviceOpError(f"shuttle between non-adjacent traps {src} and {dst}")
        trap_of = self.trap_of
        try:
            at = trap_of[q]
        except KeyError:
            raise DeviceOpError(f"qubit {q} is not on the device") from None
        if at != src:
            raise DeviceOpError(f"shuttle qubit {q} is not in source trap {src}")
        chain, landing = self.chains[src], self.chains[dst]
        if chain[slot] != q:
            raise DeviceOpError(f"shuttle qubit {q} is not at the boundary of trap {src} facing trap {dst}")
        if len(landing) >= spec.capacity:
            raise DeviceOpError(f"shuttle destination trap {dst} is full")
        del chain[slot]
        # Leaving by a right end lands on dst's left end, and the reverse.
        if slot == -1:
            landing.insert(0, q)
        else:
            landing.append(q)
        trap_of[q] = dst

    def swap_ions(self, a: int, b: int, trap: int | None) -> None:
        """Exchange the chain positions of ions a and b in trap (unchecked when
        None): a trap is all-to-all connected, so any two residents swap."""
        if a == b:
            raise DeviceOpError(f"swap needs two distinct ions, got {(a, b)}")
        trap_of = self.trap_of
        try:
            ta, tb = trap_of[a], trap_of[b]
        except KeyError as exc:
            raise DeviceOpError(f"qubit {exc.args[0]} is not on the device") from None
        if ta != tb:
            raise DeviceOpError(f"swap ions {a},{b} not co-trapped (traps {ta},{tb})")
        if trap is not None and trap != ta:
            raise DeviceOpError(f"swap trap {trap} does not hold ions {a},{b}")
        chain = self.chains[ta]
        pa, pb = chain.index(a), chain.index(b)
        chain[pa], chain[pb] = b, a

    def apply(self, op: PhysOp) -> None:
        """Apply a SWAP or shuttle record through its typed mutation, or check
        that a gate record's trap holds its operands, which changes nothing."""
        kind, qubits, trap, src, dst, _, _, _ = op
        if kind is OpKind.SHUTTLE:
            self.shuttle_ion(qubits[0], src, dst)
            return
        if kind is OpKind.SWAP:
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                raise DeviceOpError(f"swap needs two distinct ions, got {qubits}")
            self.swap_ions(*qubits, trap)
            return
        trap_of = self.trap_of
        try:
            if kind is OpKind.GATE2:
                a, b = qubits
                ta, tb = trap_of[a], trap_of[b]
                if ta != tb:
                    raise DeviceOpError(f"gate2 operands {a},{b} not co-trapped (traps {ta},{tb})")
                if trap is not None and trap != ta:
                    raise DeviceOpError(f"gate2 trap {trap} does not hold operands {a},{b}")
            elif kind is OpKind.GATE1:
                t = trap_of[qubits[0]]
                if trap is not None and trap != t:
                    raise DeviceOpError(f"gate1 trap {trap} does not hold qubit {qubits[0]}")
            else:  # pragma: no cover - enum is closed
                raise DeviceOpError(f"unknown op kind {kind}")
        except KeyError as exc:
            # Only trap_of lookups raise KeyError here: a qubit no trap holds.
            raise DeviceOpError(f"qubit {exc.args[0]} is not on the device") from None


# ---------------------------------------------------------------------------
# device config files
# ---------------------------------------------------------------------------

_DEVICE_KEYS = ("topology", "traps", "capacity", "excess_capacity")
_TIMING_KEYS = frozenset(f.name for f in fields(TimingModel))


def parse_device(text: str) -> DeviceSpec:
    """Parse a device config: a [device] section plus an optional [timing] table."""
    cp = configparser.ConfigParser()
    try:
        cp.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise InputError(f"malformed device config: {exc}") from exc
    for section in cp.sections():
        if section not in ("device", "timing"):
            raise InputError(f"unknown device config section [{section}]")
    if "device" not in cp:
        raise InputError("device config is missing the [device] section")
    dev = cp["device"]
    for key in dev:
        if key not in _DEVICE_KEYS:
            raise InputError(f"unknown device config key {key!r}")
    for key in _DEVICE_KEYS:
        if key not in dev:
            raise InputError(f"device config is missing key {key!r}")
    topo_raw = dev["topology"].strip().lower()
    try:
        topology = Topology(topo_raw)
    except ValueError:
        raise InputError(f"topology must be 'linear' or 'ring', got {topo_raw!r}")
    try:
        n_traps = int(dev["traps"])
        capacity = int(dev["capacity"])
        excess = int(dev["excess_capacity"])
    except ValueError as exc:
        raise InputError(f"device config integer field: {exc}") from exc
    timing = TimingModel()
    if "timing" in cp:
        overrides = {}
        for key, value in cp["timing"].items():
            if key not in _TIMING_KEYS:
                raise InputError(f"unknown timing key {key!r}")
            try:
                overrides[key] = float(value)
            except ValueError:
                raise InputError(f"timing key {key!r} must be a number, got {value!r}")
        timing = replace(timing, **overrides)
    return DeviceSpec(
        topology=topology,
        n_traps=n_traps,
        capacity=capacity,
        excess_capacity=excess,
        timing=timing,
    )


def parse_device_file(path) -> DeviceSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_device(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read device file {path}: {exc}") from exc

