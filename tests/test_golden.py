"""Golden schedule digests over a small compile matrix.

Each case compiles one circuit onto one device with one placement strategy
and one lookahead window, and compares the sha256 of ``schedule_to_text``,
the makespan, the shuttle count and the SWAP count with the recorded values,
so a changed digest comes with its change in schedule quality. The matrix
reaches paths the benchmark does not: greedy and random placement, ring
devices (a two-trap ring and an even ring, whose antipodal paths tie,
included), a near-full linear device, and ``lookahead`` 1 and ``None``. A
digest changes only when a compile decision or an op's timing changes; a
change that alters one must say why and re-record the table with
``PYTHONPATH=src python tests/record_golden.py --write``, which also prints
each case before -> after.

``REPORT_GOLDEN`` pins the report writer's bytes the same way: ``emit`` and
``emit_compare`` output, CSV and JSON. A change that alters one says why and
records the new sha256 of ``_report_text`` for that case by hand.

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
from qccdmap.reporting import compare, emit, emit_compare, load_records
from record_golden import case_id, compute

# (circuit, device, placement, lookahead) -> (sha256 of schedule_to_text,
# makespan in µs, shuttles, SWAPs). Random placement uses seed 0.
# tests/record_golden.py recomputes and rewrites this table.
GOLDEN = {
    ("qft32", "linear4", "sta", 4): ("b7bbf381b6fa0a14f0edb4d59f649ede6a57246eeabd3d884e84e94a319e5e4c", 71590.0, 94, 63),
    ("qft32", "linear4", "sta", None): ("b7bbf381b6fa0a14f0edb4d59f649ede6a57246eeabd3d884e84e94a319e5e4c", 71590.0, 94, 63),
    ("qft32", "linear4", "sta", 1): ("b7bbf381b6fa0a14f0edb4d59f649ede6a57246eeabd3d884e84e94a319e5e4c", 71590.0, 94, 63),
    ("qft32", "linear4", "greedy", 4): ("e967778cb4d96182ec83f201ea0c21614954e40778a3d05652ae9493b8da6321", 70305.0, 98, 66),
    ("qft32", "linear4", "greedy", None): ("71df1d94f862b78e0580f955a5d671d7afa1456ce77fc00cb895ba9262ee7ceb", 72985.0, 94, 67),
    ("qft32", "linear4", "greedy", 1): ("e967778cb4d96182ec83f201ea0c21614954e40778a3d05652ae9493b8da6321", 70305.0, 98, 66),
    ("qft32", "linear4", "random", 4): ("8f21454eac982f45ed8b7013fd09bf96b30a5ab59253aa8a9bd4dca869634b24", 141985.0, 303, 234),
    ("qft32", "linear4", "random", None): ("de5b2aa8ae68254d044efef145b8a65a6ca9165a6a1397622402e4a46ea74f2e", 181135.0, 359, 291),
    ("qft32", "linear4", "random", 1): ("b1e66e00049b7464d7ba54ece920bd494867001ee69365e1574dc0fcd1c1091b", 150610.0, 359, 233),
    ("qft32", "ring5", "sta", 4): ("5a571e2d9edac21967e099993c5e2b1e2b580d413e8653f03c68713a4b932250", 83295.0, 178, 116),
    ("qft32", "ring5", "sta", None): ("8efacb417fc254de342acf2f3ef6e6d2c23ed0b1c9cbb069f8a1ccff40a980bf", 85440.0, 224, 155),
    ("qft32", "ring5", "sta", 1): ("5666c119ad71143c27daaf4fee2fd2036971727ee4ef2393964ff17ef186de24", 78785.0, 214, 139),
    ("qft32", "ring5", "greedy", 4): ("9cbc12fbf87c0dd4f563fca9373b68b08a6bb07307496db2a51b16af056cd0f6", 96905.0, 232, 147),
    ("qft32", "ring5", "greedy", None): ("b90e841728af2ffed603bb4830983f0f74f9f89a4b316a62a78bdb7484d27b4a", 85830.0, 224, 157),
    ("qft32", "ring5", "greedy", 1): ("3e9e6a26a07049bf0cddab86112e142e581fb0078706e6d87105477318fe5190", 78805.0, 223, 135),
    ("qft32", "ring5", "random", 4): ("f6b1399c2b141947c1c763dd00433042a42fde099f59d88e5925af8026a2e8fb", 118165.0, 310, 250),
    ("qft32", "ring5", "random", None): ("9ecd7cdbfe4833263c1aa1843e2c0be77a36b8cf4ec08f75f918b257adef968f", 128730.0, 355, 271),
    ("qft32", "ring5", "random", 1): ("bcdfa618e60f152ec2d7bcb7b51b8b9883215fec8e4409ec69f3c9b13148c71b", 126455.0, 381, 275),
    ("qft32", "ring2", "sta", 4): ("6ad3830c8e046ef4465be0b6309537fed8102c2824f844f48421028e82095637", 84505.0, 30, 14),
    ("qft32", "ring2", "sta", None): ("6ad3830c8e046ef4465be0b6309537fed8102c2824f844f48421028e82095637", 84505.0, 30, 14),
    ("qft32", "ring2", "sta", 1): ("6ad3830c8e046ef4465be0b6309537fed8102c2824f844f48421028e82095637", 84505.0, 30, 14),
    ("qft32", "ring2", "greedy", 4): ("819ab631dedaa25c8614c325899550e003a4d922ec7d0ff0783c60cd80ffdd5e", 81970.0, 38, 21),
    ("qft32", "ring2", "greedy", None): ("8c8ed27afe1b9320bd0b87ed972aad5f6e5776d53efed917cf77b3d47297505a", 85540.0, 30, 16),
    ("qft32", "ring2", "greedy", 1): ("819ab631dedaa25c8614c325899550e003a4d922ec7d0ff0783c60cd80ffdd5e", 81970.0, 38, 21),
    ("qft32", "ring2", "random", 4): ("03c350dd1f61119d1fb831b140942725c279c87a913108bdd879ce49f61d42b6", 115000.0, 86, 51),
    ("qft32", "ring2", "random", None): ("3eead1da36a4acb937595f1b413b93e758a88875fb0c5a8d71053b894f2e5a04", 228935.0, 240, 185),
    ("qft32", "ring2", "random", 1): ("34eb02c671cf9faa20de2b45eb80360e6f3ac21a68831f1bcb4e0e56e4bb89bb", 122545.0, 156, 42),
    ("qaoa32", "linear4", "sta", 4): ("56e6df6f258598b8c886bb0da027921a9559aec72cfbe0eea7fb1bb8de4bf381", 71660.0, 94, 63),
    ("qaoa32", "linear4", "sta", None): ("56e6df6f258598b8c886bb0da027921a9559aec72cfbe0eea7fb1bb8de4bf381", 71660.0, 94, 63),
    ("qaoa32", "linear4", "sta", 1): ("56e6df6f258598b8c886bb0da027921a9559aec72cfbe0eea7fb1bb8de4bf381", 71660.0, 94, 63),
    ("qaoa32", "linear4", "greedy", 4): ("194068b0e190601ba15cfff3687ec843c8582b2937b3f077e539420c225294b7", 70285.0, 98, 66),
    ("qaoa32", "linear4", "greedy", None): ("ba061c6486b432797ac08a7a95c4a1d1900d8dbad3ed3cd0114b291928ad0626", 72740.0, 94, 67),
    ("qaoa32", "linear4", "greedy", 1): ("194068b0e190601ba15cfff3687ec843c8582b2937b3f077e539420c225294b7", 70285.0, 98, 66),
    ("qaoa32", "linear4", "random", 4): ("81c87ed3991459448e14eaf524128977bcaa5739ccb7f738b3b71c914e19fad6", 142055.0, 303, 234),
    ("qaoa32", "linear4", "random", None): ("ff648610c127049af8bb41edbfcc51b943f41719b4631bc51be0ce300309e9b6", 181195.0, 359, 291),
    ("qaoa32", "linear4", "random", 1): ("8dfc3fdb4d739a55d8367740d99f5d0275484647261d778858ee20367eb95a0b", 150885.0, 359, 233),
    ("qaoa32", "ring5", "sta", 4): ("35f98ced7f6298717d6fc10953e278c05b48e9c31f651bdf05d464c12210ed93", 83265.0, 178, 116),
    ("qaoa32", "ring5", "sta", None): ("d6fa469a0f9d4b6caa962f8f7af9183b886d3f1a044a6034aada059e0299b504", 85430.0, 224, 155),
    ("qaoa32", "ring5", "sta", 1): ("d198dcba144a03d12c73108b8262eb55b13587c0b9a741935bc4c4ecaa4f5a63", 78925.0, 214, 139),
    ("qaoa32", "ring5", "greedy", 4): ("4d0cc939debbacaef11c1d5a57f95a5b43baec5865e0209acaf1c96ce04ff69e", 96915.0, 232, 147),
    ("qaoa32", "ring5", "greedy", None): ("77c01d6188d02a34a78efb33ce5d6246aa16916ded5bb49e694f6d7101739367", 85820.0, 224, 157),
    ("qaoa32", "ring5", "greedy", 1): ("073487d0dd143b2904a60ee70a227c4225c79c5f4d8fd7e492864b141ffee73b", 78900.0, 223, 135),
    ("qaoa32", "ring5", "random", 4): ("5bd8e346fb9101bf6f6ccc55b9402a8fd3cd42c488220469078b1928467b4b53", 118235.0, 310, 250),
    ("qaoa32", "ring5", "random", None): ("f4d8151b7645056993f125766386b1629a2314376b9e45c12ac20ad109aae10c", 164490.0, 445, 359),
    ("qaoa32", "ring5", "random", 1): ("fadbfda0642f5109e0953aee434b4018cee75616d61ed341ec38212de230ac5e", 126585.0, 381, 275),
    ("qaoa32", "ring2", "sta", 4): ("473d7cb68e671ef9f55acbd92d6e8b08be791dcc9152431cb133d2040a2cfb40", 84905.0, 30, 14),
    ("qaoa32", "ring2", "sta", None): ("473d7cb68e671ef9f55acbd92d6e8b08be791dcc9152431cb133d2040a2cfb40", 84905.0, 30, 14),
    ("qaoa32", "ring2", "sta", 1): ("473d7cb68e671ef9f55acbd92d6e8b08be791dcc9152431cb133d2040a2cfb40", 84905.0, 30, 14),
    ("qaoa32", "ring2", "greedy", 4): ("5974d04c410b5bd37a801764cc64d9f9fee6389d6ad5fe317e12a806a3f60427", 81990.0, 38, 21),
    ("qaoa32", "ring2", "greedy", None): ("c11f2145c44e226dd43a932cdfc022243165e20f8d6ce3c9574c56826b2ef8fc", 85940.0, 30, 16),
    ("qaoa32", "ring2", "greedy", 1): ("5974d04c410b5bd37a801764cc64d9f9fee6389d6ad5fe317e12a806a3f60427", 81990.0, 38, 21),
    ("qaoa32", "ring2", "random", 4): ("55aac51af7b04ec0cdcbf7b51ffaab9e890cf83180246f57d51ee51904bd495a", 115675.0, 86, 51),
    ("qaoa32", "ring2", "random", None): ("e6dfa891ea4b63ce57387031616e323218d8247bc54c6b33377e2d5848e532b5", 228985.0, 240, 185),
    ("qaoa32", "ring2", "random", 1): ("cb6074ce3fc3b4d3691126c726443703e827cc947d191916b83f8b04891f358e", 122545.0, 156, 42),
    ("rnd32", "linear4", "sta", 4): ("a8a06f3574c0ae95ac4c78791fa790f78530dfe97ff526de5e56704bb222af27", 221465.0, 525, 448),
    ("rnd32", "linear4", "sta", None): ("5dac7fdae54606394dd629a3368a0b4aa8af138d6fd1b0b1c76fe062082d2510", 244380.0, 547, 476),
    ("rnd32", "linear4", "sta", 1): ("ee04719ae6b1de83e732a7b6a8e95e79fb30e9ae29159806eedd36ab81038243", 187215.0, 452, 371),
    ("rnd32", "linear4", "greedy", 4): ("387de12a9231dd8c92afa39020e5e4d5401ff893d6b6f9d10e346bfb356007b6", 216515.0, 491, 430),
    ("rnd32", "linear4", "greedy", None): ("abd8aa9dbd72a50eee5132703522a82a874a95b13f440ee5bc344234aad8f67b", 241110.0, 533, 466),
    ("rnd32", "linear4", "greedy", 1): ("dadb4275e1daa00ba04524b4c85e15aa8aa8d64d5375179b66ab9fe15511a881", 205465.0, 488, 398),
    ("rnd32", "linear4", "random", 4): ("dd4e870d246b74a58ca6ec2b319df3f50cb3b3900acfa24640cade96243b1ae8", 221395.0, 491, 436),
    ("rnd32", "linear4", "random", None): ("438adee9f45f07edda5e5d2b0169505ec1ef87d2b1c3992bed42468993fd8fa4", 255765.0, 595, 490),
    ("rnd32", "linear4", "random", 1): ("870753c8d35c9807a757a160c32f79ffb9932f1ec0ffc47f03b4e534039e9c5f", 191645.0, 476, 378),
    ("rnd32", "ring5", "sta", 4): ("a69851b55847d1b305de96708e4848593c8ff8c0825578eab093a6b1e68c93a2", 157160.0, 485, 403),
    ("rnd32", "ring5", "sta", None): ("52923a5c15a7556a0f0fa137cedd2c9f22158db87a373bef9db242866c242b59", 180055.0, 542, 440),
    ("rnd32", "ring5", "sta", 1): ("e57e8c6c5b8cc96c581738b6a67f20e5ee5dd7cec42e3f38820972015e901375", 153850.0, 536, 393),
    ("rnd32", "ring5", "greedy", 4): ("e59a2d5cf9cb62c820816e65690152527912145d3c56600d4e4630fc119165d7", 147795.0, 479, 413),
    ("rnd32", "ring5", "greedy", None): ("4b5396265892cb16cd23dfd95ab51d107543c80756856398a50e3273902f9d52", 184295.0, 597, 491),
    ("rnd32", "ring5", "greedy", 1): ("7d1f93923b2818c0bd61d09ed8db9b236817cc3a8d954fc6c3ddb3ace492ef68", 146755.0, 502, 365),
    ("rnd32", "ring5", "random", 4): ("1d1c1253cb51430cf0f54da4bd495f4668cc5287e0de18d03c5927d414894f8a", 168180.0, 528, 431),
    ("rnd32", "ring5", "random", None): ("94d1469cce6523843c343a8628b19f6dd52ac15aa385332ab05e14e1f9e4361f", 181090.0, 590, 480),
    ("rnd32", "ring5", "random", 1): ("80a9292bb90bc7469d3966e29fa5e1086316de877d91bf797464bbbfa28eddab", 144970.0, 484, 372),
    ("rnd32", "ring2", "sta", 4): ("775acee5d6a13dbe352bfebad5bc3b2ca584fc0f2fedc59acce5e4120177cee9", 156250.0, 170, 151),
    ("rnd32", "ring2", "sta", None): ("5ec1a1a73a9214a129bb3e94825be3756be8b10715eb746dc8905bbf7c8c7e77", 175700.0, 221, 164),
    ("rnd32", "ring2", "sta", 1): ("1aeabcc10ad57e5bcaa59998ff0b039fed822a9f0166b28bf6d4f5e6db768de2", 144700.0, 158, 142),
    ("rnd32", "ring2", "greedy", 4): ("4ef4f7e4e59d5bec26ab06d7f9190d683e34b02979a8ab85885014ccc9225b12", 163660.0, 181, 161),
    ("rnd32", "ring2", "greedy", None): ("03ab6280d18bee044dd7c04a87135f29d89da65d1868d644086858455ad91323", 184605.0, 246, 167),
    ("rnd32", "ring2", "greedy", 1): ("0e8ae1dbf0f4d02223a556527e2dd73099d30931a64eaf0ff37508226beb9179", 143325.0, 154, 140),
    ("rnd32", "ring2", "random", 4): ("ad26c557f0e8ada36f40484c50c340603bc0397250cbe4fae198f429160d7fc4", 156075.0, 165, 152),
    ("rnd32", "ring2", "random", None): ("731bc12ba499cd0b71a3798e86e26facaebbdbd9a7bb5de68e31edb15293f5cc", 196880.0, 252, 188),
    ("rnd32", "ring2", "random", 1): ("67258af4b23ad0cf879e4c50f6a5958db4a9ea1ceecf36492e9a847b1c845302", 153715.0, 175, 153),
    ("qft32", "ring4", "sta", 4): ("2192970e12125b8eaf48a0def45741345250378a33f18ef677d623228328a5e3", 78460.0, 135, 99),
    ("rnd32", "ring4", "sta", 4): ("36a1c75597fca45d36be2de062e077e937efb83081d5acd81c53e6a78fd1b54e", 156590.0, 406, 336),
}


@pytest.mark.parametrize("case", list(GOLDEN), ids=case_id)
def test_schedule_digest(case):
    assert compute(case) == GOLDEN[case]


# Report bytes: (case, format) -> sha256 of the emitted text. The cases cover
# a plain compile record, a three-seed random group (which adds mean and
# stddev rows), an infeasible weak-sweep row and a baseline comparison.
REPORT_GOLDEN = {
    ("compile", "csv"): "bc6045f1545a17d1c374fce33cd83aa6b547ac43b0015dc0ddac7793947cf219",
    ("compile", "json"): "a45fdbdad8eda809c77e37c32c55855e5c865e67bcecc434c8ab9177494041c9",
    ("random_group", "csv"): "ef730c6ff8ddb027910b24526fc1fa19ed0eccc820974d0d08c4ab6c672c94b4",
    ("random_group", "json"): "0fe2270251826eeafbf97f71b00a5d6809934f8f6236cb30c373b8f583695d63",
    ("infeasible_sweep", "csv"): "90ddbcd4ab1e0f46aeaf4df5c8b8ee249c9bf90433beb857ce0ecc5653508e37",
    ("infeasible_sweep", "json"): "187995e315be1f87c7daae8eaa215ca06751983440854c7ceffd6120e8128d20",
    ("compare", "csv"): "c8ba974e28f82fb7c55ddf2bdd4d064848203aeb235a5fbbf0c28aff0591c7a2",
    ("compare", "json"): "67903a145d48d3113fd0cf3c13c4b78f11aca0453a1a58d94c3ae8087e03bba7",
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
