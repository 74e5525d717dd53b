"""Golden schedule digests over a small compile matrix.

Each case compiles one circuit onto one device with one placement strategy
and one lookahead window, and compares the sha256 of ``schedule_to_text``
with the recorded value. The matrix reaches paths the benchmark does not:
greedy and random placement, ring devices (a two-trap ring and an even
ring, whose antipodal paths tie, included), a near-full linear device, and ``lookahead`` 1 and ``None``. A digest changes
only when a compile decision changes; a change that alters one must say why
and re-record the table.

``REPORT_GOLDEN`` pins the report writer's bytes the same way: ``emit`` and
``emit_compare`` output, CSV and JSON.

``CIRCUIT_GOLDEN`` pins each generator family's circuit text, as
``circuit_to_text`` writes it. The schedule and report digests cannot catch a
change to that text that parses back to the same circuit.
"""
from __future__ import annotations

import hashlib
from functools import cache

import pytest

from qccdmap import cli
from qccdmap.benchmarks import FAMILIES, generate
from qccdmap.circuits import circuit_to_text
from qccdmap.devices import DeviceSpec, Topology
from qccdmap.placement import place
from qccdmap.reporting import compare, emit, emit_compare, load_records
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

# (circuit, device, placement, lookahead) -> sha256 of schedule_to_text.
# Random placement uses seed 0.
GOLDEN = {
    ("qft32", "linear4", "sta", 4): "f8b9ffd951bcbc509bc9a1509cd2006cb318a3041943c019e4ec41fdcdc5cebf",
    ("qft32", "linear4", "sta", None): "f8b9ffd951bcbc509bc9a1509cd2006cb318a3041943c019e4ec41fdcdc5cebf",
    ("qft32", "linear4", "sta", 1): "f8b9ffd951bcbc509bc9a1509cd2006cb318a3041943c019e4ec41fdcdc5cebf",
    ("qft32", "linear4", "greedy", 4): "3b1bb48080b94c98b2da72788c74f0b59991c45e3c0071940f0317ea13d1a77a",
    ("qft32", "linear4", "greedy", None): "bc97f35c45d67b9612813b47bf6b469a35130ff3a0fccf07214a37c3457d72f2",
    ("qft32", "linear4", "greedy", 1): "3b1bb48080b94c98b2da72788c74f0b59991c45e3c0071940f0317ea13d1a77a",
    ("qft32", "linear4", "random", 4): "5747a1d4c06c7afb7372ba9da4e31f66f037344e8e971b4d8b8d8c8e30b249e6",
    ("qft32", "linear4", "random", None): "6ef751e315d3b9fe691032c54e864976f96445d13822fdc7e5260a68479d4a2c",
    ("qft32", "linear4", "random", 1): "48087269a39a57581e3294bbb89f2a401960268fa93f0132a3192213c827fa53",
    ("qft32", "ring5", "sta", 4): "08b4c32f768ce993559851f31f1ded18c60248b082963fa4a0bf025af6b1eca8",
    ("qft32", "ring5", "sta", None): "ec0a71722050e5e4dabaabe52485b105067120e87fdd61aa8544190fed3aa007",
    ("qft32", "ring5", "sta", 1): "74a41fe300e6f5b28cf24d331632032b492104ef20c8dca38d81d88efa936520",
    ("qft32", "ring5", "greedy", 4): "274d6eb11f52a59655d95d4365cdf77cab20d12dfbb51de4c2fc5750173bfb85",
    ("qft32", "ring5", "greedy", None): "e356a8ccdd646eb60a455d3ea8f5fd3e9865aa56f9307db02425f0b07740bade",
    ("qft32", "ring5", "greedy", 1): "5b30b5bdc97687b02c814d87005612d406f9af845a9935dfff1ca33e716afb85",
    ("qft32", "ring5", "random", 4): "4e3f3cad24e234d68150bdd663577af26e4f58228a1fc9453bfcf3573bc4e586",
    ("qft32", "ring5", "random", None): "d56694587cb90ca54d3f7f80e3601e70506ea1c8343828dc0bf7e02e994de183",
    ("qft32", "ring5", "random", 1): "0279f1cb0eb7a42c77f0fb980884c2eb8d241a39980ada0dd3a3d8c891b4baf9",
    ("qft32", "ring2", "sta", 4): "6ad3830c8e046ef4465be0b6309537fed8102c2824f844f48421028e82095637",
    ("qft32", "ring2", "sta", None): "6ad3830c8e046ef4465be0b6309537fed8102c2824f844f48421028e82095637",
    ("qft32", "ring2", "sta", 1): "6ad3830c8e046ef4465be0b6309537fed8102c2824f844f48421028e82095637",
    ("qft32", "ring2", "greedy", 4): "01a35c9754af50b5c9f9d23cf77c8203488325534869925a3268302c7e2abd66",
    ("qft32", "ring2", "greedy", None): "8c8ed27afe1b9320bd0b87ed972aad5f6e5776d53efed917cf77b3d47297505a",
    ("qft32", "ring2", "greedy", 1): "01a35c9754af50b5c9f9d23cf77c8203488325534869925a3268302c7e2abd66",
    ("qft32", "ring2", "random", 4): "a7309d698cd941a175dacd44a1dba2be5e1fcd4d2b27cb7d57c70aeebcdba203",
    ("qft32", "ring2", "random", None): "3eead1da36a4acb937595f1b413b93e758a88875fb0c5a8d71053b894f2e5a04",
    ("qft32", "ring2", "random", 1): "abcd0d4f029958b5d271c530fd8c4654ce0b86e3f883a0ce0a314f19463e5e3a",
    ("qaoa32", "linear4", "sta", 4): "a589d36735c646803bc3394bc0ddb3a4773e44d8129ed28f74812eb3a7c917b9",
    ("qaoa32", "linear4", "sta", None): "a589d36735c646803bc3394bc0ddb3a4773e44d8129ed28f74812eb3a7c917b9",
    ("qaoa32", "linear4", "sta", 1): "a589d36735c646803bc3394bc0ddb3a4773e44d8129ed28f74812eb3a7c917b9",
    ("qaoa32", "linear4", "greedy", 4): "4bc2836f73d7ed55b67f4f57bdee916b2f079ef9a8c53876f37c19c2ec40d77a",
    ("qaoa32", "linear4", "greedy", None): "78496f9f10fb2b9a7d04c1a8eaf2d77d59d2fb6301cfec7810c3ec67c1807b30",
    ("qaoa32", "linear4", "greedy", 1): "4bc2836f73d7ed55b67f4f57bdee916b2f079ef9a8c53876f37c19c2ec40d77a",
    ("qaoa32", "linear4", "random", 4): "55c4eb1cbf0bea579d1c8294ca3b84e22b3470202740277bb6779a3bb37d28e8",
    ("qaoa32", "linear4", "random", None): "5c3a3be56e9d91bf1490dfe49fa43174b3180d28905294d4726f769a6c6f0d24",
    ("qaoa32", "linear4", "random", 1): "f8659ef86ce05de552210e349b337e607b6aedb0286eafffbda911a87653ba8a",
    ("qaoa32", "ring5", "sta", 4): "92a9bd231d84e3ae6e064a9a36c375b7e137286440cd2674a7790dfda236429e",
    ("qaoa32", "ring5", "sta", None): "b24efcf7b236f69ca3ebf33a042c8247f29c99eb5c3c252bff440580de4c9d45",
    ("qaoa32", "ring5", "sta", 1): "49f7ad00f2bac03b0caafbde1b2b519d1de51c86054d3a75540e8213627a0bab",
    ("qaoa32", "ring5", "greedy", 4): "cca2ea9293c01459a2482f7e59e96ed1d8e497bcc04c768e8af8505ce4655cd3",
    ("qaoa32", "ring5", "greedy", None): "902efe557ab1b2d2a3b0b0f2c692861c579c7df2f25cf2d2503bc1923ff037ab",
    ("qaoa32", "ring5", "greedy", 1): "ce43f161655360754378ab14ac40ed527075605d73027f1fe2b8d73b0af27f01",
    ("qaoa32", "ring5", "random", 4): "39823f1aebe59e51999684475d1aaeee9879527d6bc740e6c9c2bc31cc170ca6",
    ("qaoa32", "ring5", "random", None): "471920366c26ce88970d1cf276f4e6fac76e34b31dda2ec33f969fa43dd3f47c",
    ("qaoa32", "ring5", "random", 1): "c2f6d5bfaf604bd32d8905b662eaa86e9eee6652ecf4f006a6eee4fdf6d2f32b",
    ("qaoa32", "ring2", "sta", 4): "473d7cb68e671ef9f55acbd92d6e8b08be791dcc9152431cb133d2040a2cfb40",
    ("qaoa32", "ring2", "sta", None): "473d7cb68e671ef9f55acbd92d6e8b08be791dcc9152431cb133d2040a2cfb40",
    ("qaoa32", "ring2", "sta", 1): "473d7cb68e671ef9f55acbd92d6e8b08be791dcc9152431cb133d2040a2cfb40",
    ("qaoa32", "ring2", "greedy", 4): "4b840d199e9072b920a80e625c3fd82cd78e664c44626e29777cfd22e88efaf3",
    ("qaoa32", "ring2", "greedy", None): "c11f2145c44e226dd43a932cdfc022243165e20f8d6ce3c9574c56826b2ef8fc",
    ("qaoa32", "ring2", "greedy", 1): "4b840d199e9072b920a80e625c3fd82cd78e664c44626e29777cfd22e88efaf3",
    ("qaoa32", "ring2", "random", 4): "a3aa6f35964660c47fb4e71a51a3610d9978cb06d24036572e9ee3ca6f07af0f",
    ("qaoa32", "ring2", "random", None): "e6dfa891ea4b63ce57387031616e323218d8247bc54c6b33377e2d5848e532b5",
    ("qaoa32", "ring2", "random", 1): "9082b54a33af840e1990b8705a13a8bcd0a6480f4c89a6166819a47b029f6e84",
    ("rnd32", "linear4", "sta", 4): "aaef15ea646a9544571c6810fe67e7d603ad4ad738f2eacba51b2de167164c1b",
    ("rnd32", "linear4", "sta", None): "e2d785e83e50780417d14dc3bdd279894f5e22ee32047f6db12616eec765d50c",
    ("rnd32", "linear4", "sta", 1): "4fe61e6079dc352bc30ad9a09c760b9d027716decd657b9421e3d99eecd3cbdb",
    ("rnd32", "linear4", "greedy", 4): "ab787b0d540bb1e1992f6d7f5e156d7e6a161a3a8cb1c73e9acd5a6950fe9eb2",
    ("rnd32", "linear4", "greedy", None): "45f350bb486e56ea2ead241dd805a11bd5772fdc13f8e1be68c08c41419dcfc9",
    ("rnd32", "linear4", "greedy", 1): "325516d1c65c620e285ea4b24aca74590ca33344f77679a94dabdea5a8554ba9",
    ("rnd32", "linear4", "random", 4): "ef8d5aec7739bdb9daa02892d7a5554dc9ba799c90a7e66be137aac82905b7b2",
    ("rnd32", "linear4", "random", None): "d17c8056cae7201d6ac33d3ba51524395e1252f0af77f7fc31cf420bb07e6371",
    ("rnd32", "linear4", "random", 1): "804ea8fdf543e8999ffa3cb7d5cc8987f53aeb6a483dbbd93ab301ebb50131b1",
    ("rnd32", "ring5", "sta", 4): "d73a18b1a398bcbf8d81b26eb153c0010abbe85c7915bf41a7d5dd8d37814d04",
    ("rnd32", "ring5", "sta", None): "937bc2c8a3392df908658895aa2f3b1b6380c453685d531d21f45078fc6fd9e0",
    ("rnd32", "ring5", "sta", 1): "48d6e87c3c4709d8ed72073e0e031ce46200cd8379e41657c174787132070ab9",
    ("rnd32", "ring5", "greedy", 4): "b3fe625123ef10c7f6061932a1f0ad40a6f5f61a4c61f936e4d89b16aa74f996",
    ("rnd32", "ring5", "greedy", None): "15ab57a9e62255b3c9b0fcf39c2e4de2ce6b20e3145dbe949e27f14465602933",
    ("rnd32", "ring5", "greedy", 1): "6c70ac34953107366a4e474f356961c5ae1872cf17e8da1ace62706779d3c73a",
    ("rnd32", "ring5", "random", 4): "51a57aeb14c7da3e813cdb2fafa011c3327da8782741520f3491976b6e666fce",
    ("rnd32", "ring5", "random", None): "59b628757f786f63c7185d85ede2a4592c170e1adb158a5af01b07f9dfaad8c9",
    ("rnd32", "ring5", "random", 1): "8c12d2c2f4eb866f63943a3973c0156d5155353860be1b2c97a9d6e340f94f0c",
    ("rnd32", "ring2", "sta", 4): "36538aada8dba958d72055d525316ddb7dae8c6a66840eb933c26358cb715a73",
    ("rnd32", "ring2", "sta", None): "bf013bed2c159ef8f2c9fb85e411918e2edd50f80307fa5f0d8e0689e74d0bbd",
    ("rnd32", "ring2", "sta", 1): "8be37c571435705c43c854b50c9a912b7e478d3066ce09fd782335d050a45f68",
    ("rnd32", "ring2", "greedy", 4): "be1f22f48665d91936f78b85417b9ed3928beffad716cb13b5b33e4f88683af2",
    ("rnd32", "ring2", "greedy", None): "67281746f46e1a03b2e83cf57c99da32967b57b821c93b1b637912e42df6c1b3",
    ("rnd32", "ring2", "greedy", 1): "e0dc29d9bbe595049ee9c0c77197ee9f96ae0a362c018960a6b4de83ce008ec7",
    ("rnd32", "ring2", "random", 4): "a6dbf889055cee348c640ccfbe4f28be19fd7427c12e906e0b2bef54a140458e",
    ("rnd32", "ring2", "random", None): "06675b9e1765bf26590c2b4f5754aca350181b6afbd9b21e90b8078b10c08a4e",
    ("rnd32", "ring2", "random", 1): "8949e8c19793eeb548b103ee29a02aa41bbd4f89e03e8019cf21c2d3d3534e89",
    ("qft32", "ring4", "sta", 4): "625c9c5be9419f6f999fc3bae97f099a9c97e0238f217016ca40d01f5935ed86",
    ("rnd32", "ring4", "sta", 4): "3c46936658923af4f4981daad04935c6bb3843423c77dd64498dc950beb98a18",
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


# Report bytes: (case, format) -> sha256 of the emitted text. The cases cover
# a plain compile record, a three-seed random group (which adds mean and
# stddev rows), an infeasible weak-sweep row and a baseline comparison.
REPORT_GOLDEN = {
    ("compile", "csv"): "bc6045f1545a17d1c374fce33cd83aa6b547ac43b0015dc0ddac7793947cf219",
    ("compile", "json"): "a45fdbdad8eda809c77e37c32c55855e5c865e67bcecc434c8ab9177494041c9",
    ("random_group", "csv"): "fe34cf8eda69cfaad8f140cf07e93f576130cc90c0799116b2d3264036199692",
    ("random_group", "json"): "02d1cad33971e1e9c3c7f5ab59e85a9eb07c703693d968f5a7704ab0306494c9",
    ("infeasible_sweep", "csv"): "90ddbcd4ab1e0f46aeaf4df5c8b8ee249c9bf90433beb857ce0ecc5653508e37",
    ("infeasible_sweep", "json"): "187995e315be1f87c7daae8eaa215ca06751983440854c7ceffd6120e8128d20",
    ("compare", "csv"): "d3de9fb32fbf248bb78eb2908bc52526616bf38ebcfcc08f62a3b74d96837008",
    ("compare", "json"): "d22c48f1674f4779f1e66046ab58ca74c27dea76c47ca80f887bc4d6df1bf46a",
}

_REPORT_DEVICE = DeviceSpec(topology=Topology.LINEAR, n_traps=2, capacity=10, excess_capacity=2)


@cache
def _report_records():
    circ = generate("qft", 16)

    def run(strategy, seed):
        return cli.run_compile(
            circ, _REPORT_DEVICE, strategy, seed=seed, label="qft16", family="qft",
            invocation=f"qccdmap compile qft16.circ --placement {strategy}",
        )[0]

    return [run("sta", None)], [run("random", s) for s in range(3)]


def _report_text(case, fmt, tmp_path, monkeypatch):
    single, group = _report_records()
    if case == "compile":
        return emit(single, fmt)
    if case == "random_group":
        return emit(group, fmt)
    if case == "compare":
        rows = compare(load_records(emit(single)), load_records(emit(group)))
        return emit_compare(rows, fmt)
    # traps=70 leaves capacity 180 // 70 = 2, too small to run: one
    # infeasible row and no compile. A relative --out keeps the invocation
    # column the same in every run.
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "weak", "--family", "qft", "--traps-min", "70", "--traps-max", "70",
            "--out", ".", "--format", fmt]
    assert cli.main(argv) == 0
    return (tmp_path / f"sweep_weak_qft_sta.{fmt}").read_text()


@pytest.mark.parametrize("case", list(REPORT_GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}")
def test_report_digest(case, tmp_path, monkeypatch):
    text = _report_text(*case, tmp_path, monkeypatch)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_GOLDEN[case]


# family -> (generate's arguments, sha256 of circuit_to_text of the circuit)
CIRCUIT_GOLDEN = {
    "qft": (dict(qubits=24), "517c98d5843b7dbefae9955dbef00fd2808ee241fdaa36e6d652e5ee3d35f49d"),
    "qaoa": (dict(qubits=24), "7f95eb38d45d3039c2d074a1aa4a0bfe4c30608d3aba71293262df3d68a67462"),
    "qv": (dict(qubits=24, rounds=3, seed=5), "f16f36080ac523082412633e4dc8d5cd43b5265d6c0bfd7f694a35440fef5dbc"),
    "ca": (dict(qubits=24), "326b62d6dc0f0a2b561c0c9942e0106deffefee3f1a52a423b930f80c369ed0a"),
    "da": (dict(qubits=24), "ff626911f486bee4bb3fef91fe9f06f31203bf1e5f14e267c65232379056cb40"),
    "rnd": (dict(qubits=24, gates=300, seed=2), "cb6c5f440307e6bc6927d858e1857775e2c93a80c61e70533350306c7f599ecb"),
}


def test_circuit_golden_covers_every_family():
    assert tuple(CIRCUIT_GOLDEN) == FAMILIES


@pytest.mark.parametrize("family", list(CIRCUIT_GOLDEN))
def test_generated_circuit_text_digest(family):
    kwargs, digest = CIRCUIT_GOLDEN[family]
    text = circuit_to_text(generate(family, **kwargs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generated_rnd_text_digest_below_the_sample_set_size():
    # CIRCUIT_GOLDEN's rnd entry has more than 21 qubits; 12 takes the other
    # of random.sample's two paths, which gen_random reproduces
    text = circuit_to_text(generate("rnd", 12, gates=100, seed=1))
    assert hashlib.sha256(text.encode()).hexdigest() == "cbc7868efb4bbc35abad25005d2c4ad928d8ee424819dc2a1c23bad846c7859a"
