"""Golden schedule digests over a small compile matrix.

Each case compiles one circuit onto one device with one placement strategy
and one lookahead window, and compares the sha256 of ``schedule_to_text``
with the recorded value. The matrix reaches paths the benchmark does not:
greedy and random placement, a ring device, a near-full linear device and
``lookahead=None``. A digest changes only when a compile decision changes;
a change that alters one must say why and re-record the table.
"""
from __future__ import annotations

import hashlib
from functools import cache

import pytest

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
}

# (circuit, device, placement, lookahead) -> sha256 of schedule_to_text.
# Random placement uses seed 0.
GOLDEN = {
    ("qft32", "linear4", "sta", 4): "f8b9ffd951bcbc509bc9a1509cd2006cb318a3041943c019e4ec41fdcdc5cebf",
    ("qft32", "linear4", "sta", None): "f8b9ffd951bcbc509bc9a1509cd2006cb318a3041943c019e4ec41fdcdc5cebf",
    ("qft32", "linear4", "greedy", 4): "3b1bb48080b94c98b2da72788c74f0b59991c45e3c0071940f0317ea13d1a77a",
    ("qft32", "linear4", "greedy", None): "bc97f35c45d67b9612813b47bf6b469a35130ff3a0fccf07214a37c3457d72f2",
    ("qft32", "linear4", "random", 4): "5747a1d4c06c7afb7372ba9da4e31f66f037344e8e971b4d8b8d8c8e30b249e6",
    ("qft32", "linear4", "random", None): "6ef751e315d3b9fe691032c54e864976f96445d13822fdc7e5260a68479d4a2c",
    ("qft32", "ring5", "sta", 4): "08b4c32f768ce993559851f31f1ded18c60248b082963fa4a0bf025af6b1eca8",
    ("qft32", "ring5", "sta", None): "ec0a71722050e5e4dabaabe52485b105067120e87fdd61aa8544190fed3aa007",
    ("qft32", "ring5", "greedy", 4): "274d6eb11f52a59655d95d4365cdf77cab20d12dfbb51de4c2fc5750173bfb85",
    ("qft32", "ring5", "greedy", None): "e356a8ccdd646eb60a455d3ea8f5fd3e9865aa56f9307db02425f0b07740bade",
    ("qft32", "ring5", "random", 4): "4e3f3cad24e234d68150bdd663577af26e4f58228a1fc9453bfcf3573bc4e586",
    ("qft32", "ring5", "random", None): "d56694587cb90ca54d3f7f80e3601e70506ea1c8343828dc0bf7e02e994de183",
    ("qaoa32", "linear4", "sta", 4): "a589d36735c646803bc3394bc0ddb3a4773e44d8129ed28f74812eb3a7c917b9",
    ("qaoa32", "linear4", "sta", None): "a589d36735c646803bc3394bc0ddb3a4773e44d8129ed28f74812eb3a7c917b9",
    ("qaoa32", "linear4", "greedy", 4): "4bc2836f73d7ed55b67f4f57bdee916b2f079ef9a8c53876f37c19c2ec40d77a",
    ("qaoa32", "linear4", "greedy", None): "78496f9f10fb2b9a7d04c1a8eaf2d77d59d2fb6301cfec7810c3ec67c1807b30",
    ("qaoa32", "linear4", "random", 4): "55c4eb1cbf0bea579d1c8294ca3b84e22b3470202740277bb6779a3bb37d28e8",
    ("qaoa32", "linear4", "random", None): "5c3a3be56e9d91bf1490dfe49fa43174b3180d28905294d4726f769a6c6f0d24",
    ("qaoa32", "ring5", "sta", 4): "92a9bd231d84e3ae6e064a9a36c375b7e137286440cd2674a7790dfda236429e",
    ("qaoa32", "ring5", "sta", None): "b24efcf7b236f69ca3ebf33a042c8247f29c99eb5c3c252bff440580de4c9d45",
    ("qaoa32", "ring5", "greedy", 4): "cca2ea9293c01459a2482f7e59e96ed1d8e497bcc04c768e8af8505ce4655cd3",
    ("qaoa32", "ring5", "greedy", None): "902efe557ab1b2d2a3b0b0f2c692861c579c7df2f25cf2d2503bc1923ff037ab",
    ("qaoa32", "ring5", "random", 4): "39823f1aebe59e51999684475d1aaeee9879527d6bc740e6c9c2bc31cc170ca6",
    ("qaoa32", "ring5", "random", None): "471920366c26ce88970d1cf276f4e6fac76e34b31dda2ec33f969fa43dd3f47c",
    ("rnd32", "linear4", "sta", 4): "aaef15ea646a9544571c6810fe67e7d603ad4ad738f2eacba51b2de167164c1b",
    ("rnd32", "linear4", "sta", None): "e2d785e83e50780417d14dc3bdd279894f5e22ee32047f6db12616eec765d50c",
    ("rnd32", "linear4", "greedy", 4): "ab787b0d540bb1e1992f6d7f5e156d7e6a161a3a8cb1c73e9acd5a6950fe9eb2",
    ("rnd32", "linear4", "greedy", None): "45f350bb486e56ea2ead241dd805a11bd5772fdc13f8e1be68c08c41419dcfc9",
    ("rnd32", "linear4", "random", 4): "ef8d5aec7739bdb9daa02892d7a5554dc9ba799c90a7e66be137aac82905b7b2",
    ("rnd32", "linear4", "random", None): "d17c8056cae7201d6ac33d3ba51524395e1252f0af77f7fc31cf420bb07e6371",
    ("rnd32", "ring5", "sta", 4): "d73a18b1a398bcbf8d81b26eb153c0010abbe85c7915bf41a7d5dd8d37814d04",
    ("rnd32", "ring5", "sta", None): "937bc2c8a3392df908658895aa2f3b1b6380c453685d531d21f45078fc6fd9e0",
    ("rnd32", "ring5", "greedy", 4): "b3fe625123ef10c7f6061932a1f0ad40a6f5f61a4c61f936e4d89b16aa74f996",
    ("rnd32", "ring5", "greedy", None): "15ab57a9e62255b3c9b0fcf39c2e4de2ce6b20e3145dbe949e27f14465602933",
    ("rnd32", "ring5", "random", 4): "51a57aeb14c7da3e813cdb2fafa011c3327da8782741520f3491976b6e666fce",
    ("rnd32", "ring5", "random", None): "59b628757f786f63c7185d85ede2a4592c170e1adb158a5af01b07f9dfaad8c9",
}


@cache
def _circuit(name):
    return CIRCUITS[name]()


@pytest.mark.parametrize(
    "case", list(GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}-la{c[3]}"
)
def test_schedule_digest(case):
    circ_name, device_name, strategy, lookahead = case
    circ, spec = _circuit(circ_name), DEVICES[device_name]
    placement = place(circ, spec, strategy, seed=0)
    text = schedule_to_text(schedule(circ, placement, spec, lookahead=lookahead))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[case]
