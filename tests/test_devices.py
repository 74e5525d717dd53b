"""Device model: specs, chain mechanics, op legality, timing, topology."""
from __future__ import annotations

from dataclasses import fields

import pytest

from qccdmap.devices import (
    DeviceSpec,
    DeviceState,
    OpKind,
    PhysOp,
    TimingModel,
    Topology,
    parse_device,
    shortest_path,
    trap_distance,
)
from qccdmap.errors import DeviceOpError, InputError
from qccdmap.placement import Placement
from reference import exit_index, held, op_duration


def _linear(n_traps=3, capacity=4, excess=2) -> DeviceSpec:
    return DeviceSpec(topology=Topology.LINEAR, n_traps=n_traps, capacity=capacity, excess_capacity=excess)


def _ring(n_traps=5, capacity=4, excess=2) -> DeviceSpec:
    return DeviceSpec(topology=Topology.RING, n_traps=n_traps, capacity=capacity, excess_capacity=excess)


def _state(spec: DeviceSpec, chains) -> DeviceState:
    return DeviceState(spec, Placement(tuple(map(tuple, chains))))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_shapes():
    with pytest.raises(InputError):
        DeviceSpec(topology=Topology.LINEAR, n_traps=0, capacity=4, excess_capacity=2)
    with pytest.raises(InputError):
        DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=0, excess_capacity=0)
    with pytest.raises(InputError):
        DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=4, excess_capacity=4)
    with pytest.raises(InputError):
        DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=4, excess_capacity=-1)


@pytest.mark.parametrize(
    "sizes, message",
    [
        ((2.5, 4, 2), "device n_traps must be an integer, got 2.5"),
        ((True, 4, 2), "device n_traps must be an integer, got True"),
        ((2, 6.0, 2), "device capacity must be an integer, got 6.0"),
        ((2, 4, 1.5), "device excess_capacity must be an integer, got 1.5"),
        ((2, 4, False), "device excess_capacity must be an integer, got False"),
    ],
    ids=["float-traps", "bool-traps", "float-capacity", "float-excess", "bool-excess"],
)
def test_spec_refuses_a_size_that_is_not_an_integer(sizes, message):
    n_traps, capacity, excess = sizes
    with pytest.raises(InputError) as err:
        DeviceSpec(topology=Topology.LINEAR, n_traps=n_traps, capacity=capacity, excess_capacity=excess)
    assert str(err.value) == message


def test_spec_coerces_topology_string():
    spec = DeviceSpec(topology="ring", n_traps=3, capacity=4, excess_capacity=1)
    assert spec.topology is Topology.RING
    with pytest.raises(InputError):
        DeviceSpec(topology="torus", n_traps=3, capacity=4, excess_capacity=1)


def test_usable_capacity():
    assert _linear(capacity=17, excess=2).usable_capacity == 15


def test_device_config_roundtrip():
    spec = _ring(n_traps=7, capacity=6, excess=1)
    text = (
        f"[device]\ntopology = {spec.topology.value}\ntraps = {spec.n_traps}\n"
        f"capacity = {spec.capacity}\nexcess_capacity = {spec.excess_capacity}\n\n[timing]\n"
    ) + "".join(f"{f.name} = {getattr(spec.timing, f.name)!r}\n" for f in fields(TimingModel))
    assert parse_device(text) == spec


def test_parse_device_rejects_garbage():
    with pytest.raises(InputError):
        parse_device("[device]\ntopology = torus\ntraps = 3\ncapacity = 4\nexcess_capacity = 1\n")
    with pytest.raises(InputError):
        parse_device("not even a config")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "key",
    ["one_qubit", "two_qubit_base", "two_qubit_slope", "swap_factor", "split", "move_per_edge", "merge"],
)
def test_timing_rejects_non_finite_values(key, value):
    text = "[device]\ntopology = linear\ntraps = 2\ncapacity = 4\nexcess_capacity = 2\n"
    with pytest.raises(InputError, match=rf"timing parameter {key} must be finite"):
        parse_device(text + f"[timing]\n{key} = {value}\n")
    with pytest.raises(InputError, match=rf"timing parameter {key} must be finite"):
        TimingModel(**{key: float(value)})


@pytest.mark.parametrize("value", [True, False, "1", None])
@pytest.mark.parametrize("key", ["one_qubit", "two_qubit_slope", "merge"])
def test_timing_refuses_a_value_that_is_not_a_number(key, value):
    # a bool would pass as 1 or 0, and a str or None would reach math.isfinite
    with pytest.raises(InputError) as err:
        TimingModel(**{key: value})
    assert str(err.value) == f"timing parameter {key} must be a number, got {value!r}"


def test_timing_takes_int_and_float_durations():
    t = TimingModel(one_qubit=2, two_qubit_slope=0, split=1e-6)
    assert (t.one_qubit, t.two_qubit_slope, t.split) == (2, 0, 1e-6)


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_linear_neighbors_and_paths():
    spec = _linear(n_traps=4)
    assert spec.neighbors(0) == (1,)
    assert spec.neighbors(2) == (1, 3)
    assert shortest_path(spec, 0, 3) == (0, 1, 2, 3)
    assert shortest_path(spec, 2, 2) == (2,)
    assert trap_distance(spec, 0, 3) == 3


def test_ring_paths_take_short_way_and_break_ties_clockwise():
    spec = _ring(n_traps=6)
    assert spec.neighbors(0) == (1, 5)
    assert shortest_path(spec, 0, 2) == (0, 1, 2)
    assert shortest_path(spec, 0, 4) == (0, 5, 4)
    # antipodal tie routes by increasing index
    assert shortest_path(spec, 0, 3) == (0, 1, 2, 3)
    assert trap_distance(spec, 0, 3) == 3


@pytest.mark.parametrize("n_traps", range(1, 13))
def test_ring_paths_match_the_modular_formula_on_every_pair(n_traps):
    spec = _ring(n_traps=n_traps)
    for a in range(n_traps):
        for b in range(n_traps):
            fwd, bwd = (b - a) % n_traps, (a - b) % n_traps
            # the shorter way round; a tie at distance n/2 goes by increasing index
            if fwd <= bwd:
                expected = tuple((a + i) % n_traps for i in range(fwd + 1))
            else:
                expected = tuple((a - i) % n_traps for i in range(bwd + 1))
            assert shortest_path(spec, a, b) == expected, (a, b)


def test_exit_slot_linear():
    spec = _linear(n_traps=3)
    assert spec.exit_slot[0, 1] == -1
    assert spec.exit_slot[1, 0] == 0
    assert spec.exit_slot[1, 2] == -1
    assert (0, 2) not in spec.exit_slot


def test_exit_slot_ring_wraps():
    spec = _ring(n_traps=4)
    assert spec.exit_slot[0, 3] == 0
    assert spec.exit_slot[3, 0] == -1


def _reference_neighbors(spec, trap):
    # the per-call formula the stored adjacency table replaced
    if spec.n_traps == 1:
        return ()
    if spec.topology is Topology.LINEAR or spec.n_traps == 2:
        out = []
        if trap > 0:
            out.append(trap - 1)
        if trap < spec.n_traps - 1:
            out.append(trap + 1)
        return tuple(out)
    return tuple(sorted({(trap - 1) % spec.n_traps, (trap + 1) % spec.n_traps}))


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("n_traps", range(1, 9))
def test_device_tables_match_reference_formulas(topology, n_traps):
    spec = DeviceSpec(topology=topology, n_traps=n_traps, capacity=4, excess_capacity=2)
    for trap in range(n_traps):
        assert spec.neighbors(trap) == _reference_neighbors(spec, trap)
        for other in range(n_traps):
            if other in spec.neighbors(trap):
                assert spec.exit_slot[trap, other] == exit_index(spec, trap, other)
            else:
                assert (trap, other) not in spec.exit_slot
    # no key names a trap outside the device
    assert len(spec.exit_slot) == sum(len(_reference_neighbors(spec, t)) for t in range(n_traps))
    for bad in (-1, n_traps):
        with pytest.raises(InputError):
            spec.neighbors(bad)


# ---------------------------------------------------------------------------
# chain mechanics (the two pinned traces)
# ---------------------------------------------------------------------------

def test_shuttle_requires_facing_boundary():
    spec = _linear(n_traps=2)
    st = _state(spec, [[2, 3], []])
    with pytest.raises(DeviceOpError, match="boundary"):
        st.apply(PhysOp(OpKind.SHUTTLE, (2,), src=0, dst=1))


def test_shuttle_lands_on_facing_boundary_of_destination():
    spec = _linear(n_traps=2)
    st = _state(spec, [[3, 2], [4]])
    st.apply(PhysOp(OpKind.SHUTTLE, (2,), src=0, dst=1))
    assert st.chains[0] == [3]
    assert st.chains[1] == [2, 4]  # arrives at the end facing trap 0


@pytest.mark.parametrize("spec", [_linear(n_traps=3), _ring(n_traps=4)], ids=["linear", "ring"])
def test_left_end_shuttle_is_applied_and_non_adjacent_is_refused(spec):
    # Slot 0, the left end, is falsy, so adjacency must not be read from a
    # slot's truth. Trap 1's left end faces trap 0; on the ring, trap 0's
    # left end faces trap 3 across the wrap.
    last = spec.n_traps - 1
    chains = [[0, 1], [2, 3]] + [[] for _ in range(last - 1)]
    st = _state(spec, chains)
    st.shuttle_ion(2, 1, 0)
    assert st.chains[:2] == [[0, 1, 2], [3]]  # lands on trap 0's right end
    if spec.topology is Topology.RING:
        st.shuttle_ion(0, 0, last)
        assert st.chains[0] == [1, 2] and st.chains[last] == [0]
    before = [list(c) for c in st.chains]
    with pytest.raises(DeviceOpError, match="non-adjacent"):
        st.shuttle_ion(1, 0, 2)
    assert st.chains == before


def test_swap_exchanges_any_two_residents():
    spec = _linear(n_traps=1, capacity=4, excess=0)
    st = _state(spec, [[5, 6, 7, 8]])
    st.apply(PhysOp(OpKind.SWAP, (5, 8), 0))
    assert st.chains[0] == [8, 6, 7, 5]


def test_swap_rejects_split_pair():
    spec = _linear(n_traps=2)
    st = _state(spec, [[0, 1], [2]])
    with pytest.raises(DeviceOpError):
        st.apply(PhysOp(OpKind.SWAP, (0, 2), 0))
    with pytest.raises(DeviceOpError):
        st.apply(PhysOp(OpKind.SWAP, (1, 1), 0))


def test_shuttle_into_full_trap_rejected():
    spec = _linear(n_traps=2, capacity=2, excess=0)
    st = _state(spec, [[0, 1], [2, 3]])
    with pytest.raises(DeviceOpError, match="capacity|full"):
        st.apply(PhysOp(OpKind.SHUTTLE, (1,), src=0, dst=1))


def test_shuttle_between_non_adjacent_traps_rejected():
    spec = _linear(n_traps=3)
    st = _state(spec, [[0], [], [1]])
    with pytest.raises(DeviceOpError):
        st.apply(PhysOp(OpKind.SHUTTLE, (0,), src=0, dst=2))


@pytest.mark.parametrize(
    "qubit, src, dst, error, message",
    [
        (0, 3, 2, InputError, "trap index 3 outside 0..2"),
        (0, 0, 2, DeviceOpError, "shuttle between non-adjacent traps 0 and 2"),
        (9, 0, 1, DeviceOpError, "qubit 9 is not on the device"),
        (2, 0, 1, DeviceOpError, "shuttle qubit 2 is not in source trap 0"),
        (0, 0, 1, DeviceOpError, "shuttle qubit 0 is not at the boundary of trap 0 facing trap 1"),
        (4, 2, 1, DeviceOpError, "shuttle destination trap 1 is full"),
    ],
    ids=["src-out-of-range", "non-adjacent", "unknown-qubit", "not-in-src", "not-at-boundary", "dst-full"],
)
def test_shuttle_rejections_leave_state_unchanged(qubit, src, dst, error, message):
    # through the record dispatcher and through the typed mutation alike
    _assert_rejected(
        error, message,
        lambda st: st.apply(PhysOp(OpKind.SHUTTLE, (qubit,), src=src, dst=dst)),
        lambda st: st.shuttle_ion(qubit, src, dst),
    )


@pytest.mark.parametrize(
    "a, b, trap, message",
    [
        (1, 1, 0, "swap needs two distinct ions, got (1, 1)"),
        (0, 9, 0, "qubit 9 is not on the device"),
        (0, 2, 0, "swap ions 0,2 not co-trapped (traps 0,1)"),
        (2, 3, 0, "swap trap 0 does not hold ions 2,3"),
    ],
    ids=["same-ion", "unknown-qubit", "not-co-trapped", "wrong-trap"],
)
def test_swap_rejections_leave_state_unchanged(a, b, trap, message):
    _assert_rejected(
        DeviceOpError, message,
        lambda st: st.apply(PhysOp(OpKind.SWAP, (a, b), trap)),
        lambda st: st.swap_ions(a, b, trap),
    )


def _assert_rejected(error, message, *entries):
    """Each entry, run on a fresh 3-trap state, raises exactly error with
    message and leaves the state as it was."""
    spec = _linear(n_traps=3, capacity=2, excess=0)
    for entry in entries:
        st = _state(spec, [[0, 1], [2, 3], [4]])
        with pytest.raises(error) as err:
            entry(st)
        assert type(err.value) is error
        assert str(err.value) == message
        assert st.chains == [[0, 1], [2, 3], [4]]
        assert {q: st.trap_of[q] for q in range(5)} == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2}


def test_gate2_requires_co_trapped_operands():
    spec = _linear(n_traps=2)
    st = _state(spec, [[0, 1], [2]])
    st.apply(PhysOp(OpKind.GATE2, (0, 1), 0))  # fine, chain unchanged
    assert st.chains[0] == [0, 1]
    with pytest.raises(DeviceOpError):
        st.apply(PhysOp(OpKind.GATE2, (1, 2), 0))


def test_copy_is_independent_of_original():
    spec = _linear(n_traps=2)
    st = _state(spec, [[3, 2], [4]])
    out = st.copy()
    out.apply(PhysOp(OpKind.SHUTTLE, (2,), src=0, dst=1))
    assert st.chains == [[3, 2], [4]]
    assert st.trap_of[2] == 0
    assert out.chains == [[3], [2, 4]]
    assert out.trap_of[2] == 1

def test_state_lookups():
    spec = _linear(n_traps=2)
    st = _state(spec, [[3, 2], [4]])
    assert st.trap_of[4] == 1
    assert len(st.chains[0]) == 2


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

def test_default_durations():
    t = TimingModel()
    spec = _linear(n_traps=2, capacity=8, excess=2)
    occ = (5, 1)
    assert op_duration(t, PhysOp(OpKind.GATE1, (0,), 0), occ) == pytest.approx(10e-6)
    # two-qubit gate scales with the host chain length
    assert op_duration(t, PhysOp(OpKind.GATE2, (0, 1), 0), occ) == pytest.approx(100e-6 * (1 + 0.05 * 4))
    assert op_duration(t, PhysOp(OpKind.SWAP, (0, 1), 0), occ) == pytest.approx(3 * 100e-6 * (1 + 0.05 * 4))
    assert op_duration(t, PhysOp(OpKind.SHUTTLE, (0,), src=0, dst=1), occ) == pytest.approx(165e-6)


def test_two_qubit_duration_uses_occupancy_at_op_start():
    t = TimingModel()
    assert op_duration(t, PhysOp(OpKind.GATE2, (0, 1), 1), (1, 2)) == pytest.approx(100e-6 * 1.05)


def test_shuttle_holds_both_traps():
    op = PhysOp(OpKind.SHUTTLE, (0,), src=2, dst=3)
    assert held(op) == (2, 3)
    assert held(PhysOp(OpKind.GATE2, (0, 1), 1)) == (1,)
