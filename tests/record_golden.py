"""Recompute the golden schedule ledger in ``tests/test_golden.py``.

Each golden case compiles one circuit onto one device with one placement
strategy and one lookahead window. Its ledger entry is (sha256 of
``schedule_to_text``, makespan in µs as the schedule's footer prints it,
shuttles, SWAPs), so a changed digest comes with the quality change behind
it.

Run from the root of a checkout, with the package importable::

    PYTHONPATH=src python tests/record_golden.py           # check
    PYTHONPATH=src python tests/record_golden.py --write   # re-record

It prints every case as before -> after, then a summary with the geometric
mean of the makespan ratios, and exits 1 if any entry differs from the
table. ``--write`` rewrites the table in ``test_golden.py`` in place and
exits 0. The circuits and devices the cases name are defined here, and
``test_golden.py`` imports ``compute`` from here, so the test and this
script recompute alike.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import math
import re
import sys
from functools import cache
from pathlib import Path

from qccdmap.benchmarks import generate
from qccdmap.devices import DeviceSpec, Topology
from qccdmap.placement import place
from qccdmap.scheduling import schedule, schedule_to_text

CIRCUITS = {
    "qft32": lambda: generate("qft", 32),
    "qaoa32": lambda: generate("qaoa", 32),
    "rnd32": lambda: generate("rnd", 32, gates=400, seed=1),
}

DEVICES = {
    # 32 usable slots for 32 qubits, so each trap starts with only its two
    # excess slots free.
    "linear4": DeviceSpec(topology=Topology.LINEAR, n_traps=4, capacity=10, excess_capacity=2),
    "ring5": DeviceSpec(topology=Topology.RING, n_traps=5, capacity=8, excess_capacity=1),
    # two traps joined by one edge: the ring that faces like a linear device
    "ring2": DeviceSpec(topology=Topology.RING, n_traps=2, capacity=18, excess_capacity=2),
    # an even ring: trap pairs at distance n/2 tie both ways round
    "ring4": DeviceSpec(topology=Topology.RING, n_traps=4, capacity=10, excess_capacity=2),
}

GOLDEN_FILE = Path(__file__).with_name("test_golden.py")
# The table is the text from the "GOLDEN = {" line to the first "}" line.
_TABLE = re.compile(r"^GOLDEN = \{\n.*?^\}\n", re.M | re.S)


@cache
def _circuit(name):
    return CIRCUITS[name]()


def case_id(case) -> str:
    return "{}-{}-{}-la{}".format(*case)


def compute(case) -> tuple[str, float, int, int]:
    """(digest, makespan_us, shuttles, swaps) of one golden case, compiled
    now. Random placement uses seed 0."""
    circ_name, device_name, strategy, lookahead = case
    circ, spec = _circuit(circ_name), DEVICES[device_name]
    placement = place(circ, spec, strategy, seed=0)
    sched = schedule(circ, placement, spec, lookahead=lookahead)
    text = schedule_to_text(sched)
    m = sched.metrics
    makespan_us = float(f"{m.total_time * 1e6:.3f}")
    return hashlib.sha256(text.encode()).hexdigest(), makespan_us, m.shuttles, m.swaps


def read_table(source: str) -> dict:
    """The ledger as ``test_golden.py`` records it."""
    table = _TABLE.search(source)
    return ast.literal_eval(table.group(0).split("=", 1)[1])


def format_table(table: dict) -> str:
    lines = ["GOLDEN = {"]
    for case, (digest, makespan_us, shuttles, swaps) in table.items():
        key = ", ".join(f'"{part}"' if isinstance(part, str) else repr(part) for part in case)
        lines.append(f'    ({key}): ("{digest}", {makespan_us!r}, {shuttles}, {swaps}),')
    lines.append("}")
    return "\n".join(lines) + "\n"


def report(before: dict, after: dict) -> list[str]:
    """One line per case, before -> after, then the summary lines."""
    lines, ratios = [], []
    rose = same = moved = 0
    for case, (digest0, make0, sh0, sw0) in before.items():
        digest1, make1, sh1, sw1 = after[case]
        ratio = make1 / make0 if make0 else 1.0
        ratios.append(ratio)
        rose += make1 > make0
        moved += (sh0, sw0) != (sh1, sw1)
        unchanged = (digest0, make0, sh0, sw0) == (digest1, make1, sh1, sw1)
        same += unchanged
        state = "same" if unchanged else "changed"
        lines.append(
            f"{case_id(case)}: makespan_us {make0:.3f} -> {make1:.3f} ({ratio:.3f}),"
            f" shuttles {sh0} -> {sh1}, swaps {sw0} -> {sw1}, {state}"
        )
    gmean = math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 1.0
    lines.append(
        f"{len(before)} cases, {same} unchanged, shuttles or swaps differ on {moved},"
        f" makespan rose on {rose}"
    )
    lines.append(
        f"makespan ratio: geometric mean {gmean:.3f}, best {min(ratios, default=1.0):.3f},"
        f" worst {max(ratios, default=1.0):.3f}"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the table in test_golden.py")
    args = parser.parse_args(argv)
    source = GOLDEN_FILE.read_text()
    before = read_table(source)
    after = {case: compute(case) for case in before}
    print("\n".join(report(before, after)))
    if args.write:
        GOLDEN_FILE.write_text(_TABLE.sub(lambda _: format_table(after), source, count=1))
        print(f"wrote {GOLDEN_FILE.name}")
        return 0
    return 0 if after == before else 1


if __name__ == "__main__":
    sys.exit(main())
