"""Full-system acceptance checks.

Each test covers one required behavior of the toolchain, at its stated
tolerance and runtime budget, and records a single PASS/FAIL line that the
terminal summary echoes after the run.
"""
from __future__ import annotations

import random
import statistics
import time

from conftest import ACCEPTANCE_LINES
from reference import compute_temporal_weights, held, op_duration

from qccdmap import cli
from qccdmap.benchmarks import generate
from qccdmap.circuits import circuit, compute_slices
from qccdmap.devices import DeviceSpec, OpKind, PhysOp, Topology
from qccdmap.placement import (
    Placement,
    compute_ratios,
    place,
    rank_pairs,
    sta_place,
)
from qccdmap.scheduling import (
    Schedule,
    schedule,
    verify_schedule,
)

EVAL_DEVICE = DeviceSpec(topology=Topology.LINEAR, n_traps=6, capacity=17, excess_capacity=2)


def _verdict(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] {name}{tail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _metrics(circ, spec, strategy, seed=None):
    pl = place(circ, spec, strategy, seed)
    return schedule(circ, pl, spec).metrics


def _two_qubit_count(circ) -> int:
    return sum(len(g.qubits) == 2 for g in circ.gates)


def test_01_benchmark_structure():
    t0 = time.monotonic()
    ok = True
    for family in ("qft", "qaoa"):
        c = generate(family, 64)
        ok &= _two_qubit_count(c) == 2016 and len(compute_slices(c)) == 125
    qv = generate("qv", 64, rounds=64, seed=0)
    slices = compute_slices(qv)
    ok &= _two_qubit_count(qv) == 6144 and len(slices) == 192
    ok &= _two_qubit_count(qv) / len(slices) == 32.0
    elapsed = time.monotonic() - t0
    _verdict("benchmark structure counts", ok and elapsed < 1, f"{elapsed:.2f}s")


def test_02_adder_calibration():
    t0 = time.monotonic()
    ca = _two_qubit_count(generate("ca", 64))
    da = _two_qubit_count(generate("da", 64))
    ok = abs(ca - 513) / 513 <= 0.05 and abs(da - 1520) / 1520 <= 0.05
    _verdict(
        "adder gate-count calibration",
        ok and time.monotonic() - t0 < 1,
        f"ca={ca} (ref 513), da={da} (ref 1520)",
    )


def test_03_placement_walkthrough(worked_circuit, worked_spec):
    t0 = time.monotonic()
    ratios = compute_ratios(worked_circuit.partner_lists[1])
    # pair order from the library, the weight it ranks by from the reference
    pairs = rank_pairs(compute_slices(worked_circuit), worked_circuit.n_qubits)
    weights = compute_temporal_weights(compute_slices(worked_circuit))
    pl = sta_place(worked_circuit, worked_spec)
    ok = ratios[0] == (2, 0.8)
    ok &= pairs[0] == (0, 2) and weights[0] == ((0, 2), 1.5)
    ok &= tuple(sorted(pl.chains[0])) == (0, 2) and tuple(sorted(pl.chains[1])) == (1, 3, 4)
    # q2 must sit on trap 0's face toward trap 1; q4 on trap 1's face toward
    # trap 0 with q3 next to it
    a, b = pl.chains
    slot = worked_spec.exit_slot
    ok &= a[slot[0, 1]] == 2
    ok &= b[slot[1, 0]] == 4
    # one slot in from that end: index 1 after a left end, -2 after a right one
    ok &= b[1 if slot[1, 0] == 0 else -2] == 3
    elapsed = time.monotonic() - t0
    _verdict("placement walkthrough", ok and elapsed < 1, f"chains={pl.chains}")


def test_04_movement_synthesis(movement_circuit, movement_spec, movement_placement):
    t0 = time.monotonic()
    sched = schedule(movement_circuit, movement_placement, movement_spec)
    m = sched.metrics
    g01 = next(s for s in sched.ops if s.kind is OpKind.GATE2 and set(s.qubits) == {0, 1})
    g45 = next(s for s in sched.ops if s.kind is OpKind.GATE2 and set(s.qubits) == {4, 5})
    overlap = g01.start < g45.end and g45.start < g01.end
    ok = (m.swaps, m.shuttles) == (1, 1) and overlap
    ok &= verify_schedule(sched, movement_circuit, movement_placement, movement_spec).ok
    elapsed = time.monotonic() - t0
    _verdict(
        "movement synthesis example",
        ok and elapsed < 1,
        f"swaps={m.swaps} shuttles={m.shuttles} overlap={overlap}",
    )


def test_05_placement_dominance():
    t0 = time.monotonic()
    failures = []
    for family in ("ca", "da", "qft", "qaoa"):
        circ = generate(family, 64)
        sta = _metrics(circ, EVAL_DEVICE, "sta")
        greedy = _metrics(circ, EVAL_DEVICE, "greedy")
        rand = [_metrics(circ, EVAL_DEVICE, "random", seed=s) for s in range(20)]
        rand_time = statistics.mean(m.total_time for m in rand)
        rand_moves = statistics.mean(m.shuttles + m.swaps for m in rand)
        sta_moves, greedy_moves = sta.shuttles + sta.swaps, greedy.shuttles + greedy.swaps
        if not (sta.total_time <= greedy.total_time <= rand_time):
            failures.append(f"{family} time {sta.total_time:.4f}/{greedy.total_time:.4f}/{rand_time:.4f}")
        if not (sta_moves <= greedy_moves <= rand_moves):
            failures.append(f"{family} moves {sta_moves}/{greedy_moves}/{rand_moves:.1f}")
        if not (sta.total_time < rand_time and sta_moves < rand_moves):
            failures.append(f"{family} not strictly better than random")
    elapsed = time.monotonic() - t0
    _verdict(
        "placement dominance at 64 qubits",
        not failures and elapsed < 300,
        "; ".join(failures) or f"{elapsed:.0f}s",
    )


def test_06_zero_movement():
    t0 = time.monotonic()
    rng = random.Random(4242)
    checked = 0
    ok = True
    for _ in range(100):
        u = rng.choice((2, 3, 4, 5))
        per_trap = u * rng.choice((1, 2))
        traps = rng.randint(2, 4)
        excess = rng.choice((1, 2))
        spec = DeviceSpec(
            topology=Topology.LINEAR, n_traps=traps,
            capacity=per_trap + excess, excess_capacity=excess,
        )
        n = u * ((traps * per_trap) // u)
        gates = []
        for comp in range(n // u):
            base = comp * u
            if u == 2:
                gates.append(("cx", base, base + 1))
            else:
                gates.extend(("cx", base + i, base + (i + 1) % u) for i in range(u))
        circ = circuit(n, gates)
        pl = sta_place(circ, spec)
        ok &= all(
            len({pl.trap_of[q] for q in range(comp * u, (comp + 1) * u)}) == 1
            for comp in range(n // u)
        )
        m = schedule(circ, pl, spec).metrics
        ok &= m.shuttles == 0 and m.swaps == 0
        checked += 1
    elapsed = time.monotonic() - t0
    _verdict(
        "zero movement for trap-fitting components",
        ok and checked == 100 and elapsed < 60,
        f"{checked} circuits in {elapsed:.1f}s",
    )


def test_07_schedule_verifier():
    t0 = time.monotonic()
    rng = random.Random(1234)
    ok = True
    for trial in range(1000):
        n = rng.randint(2, 16)
        traps = rng.randint(1, 4)
        excess = 0 if traps == 1 else rng.randint(1, 2)
        spec = DeviceSpec(
            topology=Topology.LINEAR, n_traps=traps,
            capacity=-(-n // traps) + rng.randint(0, 2) + excess, excess_capacity=excess,
        )
        gates = []
        for _ in range(rng.randint(1, 25)):
            if rng.random() < 0.7:
                gates.append(("cx", *rng.sample(range(n), 2)))
            else:
                gates.append(("h", rng.randrange(n)))
        circ = circuit(n, gates)
        strategy = rng.choice(("sta", "greedy", "random"))
        pl = place(circ, spec, strategy, seed=trial)
        if not verify_schedule(schedule(circ, pl, spec), circ, pl, spec).ok:
            ok = False
            break

    # mutations of a known-good schedule must each be caught
    spec = DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=4, excess_capacity=2)
    circ = circuit(6, [("cx", 0, 1), ("cx", 4, 5), ("cx", 2, 4), ("cx", 2, 5)])
    pl = Placement(chains=((0, 1, 2, 3), (4, 5)))
    sched = schedule(circ, pl, spec)
    ok &= verify_schedule(sched, circ, pl, spec).ok

    drop = next(i for i, s in enumerate(sched.ops) if s.kind is OpKind.GATE2)
    deletion = Schedule(ops=sched.ops[:drop] + sched.ops[drop + 1 :])
    ok &= not verify_schedule(deletion, circ, pl, spec).ok

    by_start = sorted(range(len(sched.ops)), key=lambda i: sched.ops[i].start)
    for prev, cur in zip(by_start, by_start[1:]):
        a, b = sched.ops[prev], sched.ops[cur]
        if set(held(a)) & set(held(b)) and b.start >= a.end and b.start - 1e-5 > a.start:
            moved = b._replace(start=b.start - 1e-5, end=b.end - 1e-5)
            shifted = Schedule(ops=sched.ops[:cur] + (moved,) + sched.ops[cur + 1 :])
            ok &= not verify_schedule(shifted, circ, pl, spec).ok
            break
    else:
        ok = False

    small = DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=3, excess_capacity=1)
    c2 = circuit(4, [("cx", 0, 1)])
    pl2 = Placement(chains=((0, 1, 2), (3,)))
    base = schedule(c2, pl2, small)
    push = PhysOp(OpKind.SHUTTLE, (3,), src=1, dst=0)
    t1 = base.makespan
    overflow = Schedule(
        ops=base.ops + (push._replace(start=t1, end=t1 + op_duration(small.timing, push, [3, 1])),)
    )
    ok &= not verify_schedule(overflow, c2, pl2, small).ok

    elapsed = time.monotonic() - t0
    _verdict("schedule verifier suite", ok and elapsed < 120, f"{elapsed:.1f}s")


def test_08_weak_scaling_minimum():
    t0 = time.monotonic()
    circ = generate("qft", 128)
    times: dict[int, float] = {}
    for traps in range(2, 27):
        capacity = 180 // traps
        if capacity <= 2 or (capacity - 2) * traps < 128:
            continue
        spec = DeviceSpec(
            topology=Topology.LINEAR, n_traps=traps, capacity=capacity, excess_capacity=2
        )
        times[traps] = _metrics(circ, spec, "sta").total_time
    keys = sorted(times)
    best = min(keys, key=lambda t: times[t])
    interior = keys[0] < best < keys[-1]
    dips = times[best] < times[keys[0]] and times[best] < times[keys[-1]]
    elapsed = time.monotonic() - t0
    _verdict(
        "weak scaling has an interior minimum",
        interior and dips and elapsed < 600,
        f"min at traps={best} over {keys[0]}..{keys[-1]}, {elapsed:.0f}s",
    )


def test_09_determinism(tmp_path):
    circ_path = tmp_path / "pair.circ"
    circ_path.write_text("qubits 6\ncx 0 1\ncx 4 5\ncx 2 4\ncx 2 5\n")
    dev_path = tmp_path / "dev.toml"
    dev_path.write_text("[device]\ntopology = linear\ntraps = 2\ncapacity = 4\nexcess_capacity = 2\n")
    out = tmp_path / "out"
    ok = True

    compile_argv = ["compile", str(circ_path), "--device", str(dev_path), "--out", str(out)]
    ok &= cli.main(compile_argv) == 0
    first = [(out / f"pair.{k}.csv").read_bytes() for k in ("schedule", "report")]
    ok &= cli.main(compile_argv) == 0
    ok &= first == [(out / f"pair.{k}.csv").read_bytes() for k in ("schedule", "report")]

    gen_argv = ["bench", "gen", "--family", "qv", "--qubits", "16", "--seed", "11",
                "-o", str(tmp_path / "qv.circ")]
    ok &= cli.main(gen_argv) == 0
    qv_first = (tmp_path / "qv.circ").read_bytes()
    ok &= cli.main(gen_argv) == 0
    ok &= qv_first == (tmp_path / "qv.circ").read_bytes()

    sweep_argv = ["sweep", "strong", "--family", "qft", "--traps-min", "2", "--traps-max", "3",
                  "--out", str(tmp_path)]
    ok &= cli.main(sweep_argv) == 0
    sw_first = (tmp_path / "sweep_strong_qft_sta.csv").read_bytes()
    ok &= cli.main(sweep_argv) == 0
    ok &= sw_first == (tmp_path / "sweep_strong_qft_sta.csv").read_bytes()

    _verdict("byte-identical reruns", ok)
