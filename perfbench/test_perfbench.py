"""Self-tests of the compile benchmark: the output check catches broken
schedules, the seeded reorder keeps program order, and a tiny smoke pass of
the whole harness, traced and untraced, finishes in seconds."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import outcheck
import workloads
from qccdmap.benchmarks import generate
from qccdmap.circuits import circuit_to_text, parse_circuit
from qccdmap.cli import run_compile
from qccdmap.devices import DeviceSpec, Topology
from qccdmap.scheduling import schedule_to_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def qft16():
    """qft 16 on two traps: a small valid schedule with SWAPs and shuttles."""
    text = circuit_to_text(generate("qft", 16))
    _, sched = run_compile(parse_circuit(text), DeviceSpec(Topology.LINEAR, 2, 10, 2), "sta")
    schedule = schedule_to_text(sched)
    assert ",shuttle," in schedule and ",swap," in schedule
    return text, schedule.splitlines()


def _rows(lines):
    return [(i, line.split(",")) for i, line in enumerate(lines) if i and not line.startswith("#")]


def _check(text, lines):
    return outcheck.check_schedule(text, "\n".join(lines) + "\n")


def _kinds(problems):
    return {p.split(":", 1)[0] for p in problems}


def test_valid_schedule_passes(qft16):
    text, lines = qft16
    assert _check(text, lines) == []


def test_dropped_gate_row_is_caught(qft16):
    text, lines = qft16
    i = next(i for i, f in _rows(lines) if f[2] == "gate2")
    assert {"counts", "pairs"} <= _kinds(_check(text, lines[:i] + lines[i + 1 :]))


def test_overlapping_rows_on_one_trap_are_caught(qft16):
    text, lines = qft16
    on_trap0 = sorted(
        ((float(f[0]), i, f) for i, f in _rows(lines) if f[4] == "0"), key=lambda r: r[0]
    )
    (_, _, first), (_, j, second) = on_trap0[0], on_trap0[1]
    mutated = list(lines)
    mutated[j] = ",".join([first[0]] + second[1:])
    assert "overlap" in _kinds(_check(text, mutated))


def test_two_gates_of_one_qubit_swapped_in_time_are_caught(qft16):
    text, lines = qft16
    gate2 = [(i, f) for i, f in _rows(lines) if f[2] == "gate2"]
    for q in range(16):
        mine = [(i, f) for i, f in gate2 if str(q) in f[3].split(":")]
        pair = next(
            ((a, b) for a, b in zip(mine, mine[1:]) if a[1][4] == b[1][4] and a[1][3] != b[1][3]),
            None,
        )
        if pair:
            break
    (i, fi), (j, fj) = pair
    mutated = list(lines)
    mutated[i] = ",".join(fj[:2] + fi[2:])
    mutated[j] = ",".join(fi[:2] + fj[2:])
    assert _kinds(_check(text, mutated)) == {"order"}


@pytest.mark.parametrize("key", ["total_time_us", "shuttles", "two_qubit_gates"])
def test_wrong_footer_is_caught(qft16, key):
    text, lines = qft16
    i = next(i for i, line in enumerate(lines) if line.startswith(f"# {key}="))
    value = lines[i].split("=", 1)[1]
    wrong = f"{float(value) + 1:.3f}" if "." in value else str(int(value) + 1)
    mutated = list(lines)
    mutated[i] = f"# {key}={wrong}"
    assert _kinds(_check(text, mutated)) == {"footer"}


def test_seeded_order_keeps_each_qubit_program_order():
    qubits = [g.qubits for g in generate("qft", 12).gates]
    order = workloads.seeded_order(qubits, seed=5, window=40)
    assert sorted(order) == list(range(len(qubits)))
    assert order != list(range(len(qubits)))
    assert order == workloads.seeded_order(qubits, seed=5, window=40)
    for q in range(12):
        mine = [i for i in order if q in qubits[i]]
        assert mine == sorted(mine)


def _run(workload, trace, cwd, seconds="0.5"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", seconds, "--trace", str(trace)]
    # run.py finds the program through the checkout it sits in, never PYTHONPATH.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=cwd, env=env)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_declared_metric(trace):
    started = time.monotonic()
    out = _run("smoke", trace, ROOT)
    elapsed = time.monotonic() - started
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["end_to_end" if trace == 0 else "per_layer"]}
    assert set(result["metrics"]) == names
    assert elapsed < 30


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("qaoa256", 0, tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
