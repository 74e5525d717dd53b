"""End-to-end CLI runs: exit codes, output files, determinism."""
from __future__ import annotations

from pathlib import Path

import pytest

from qccdmap import cli
from qccdmap.benchmarks import generate
from qccdmap.circuits import parse_circuit_file
from qccdmap.reporting import load_records
from qccdmap.scheduling import Verdict

SIX_QUBIT_CIRC = "qubits 6\ncx 0 1\ncx 4 5\ncx 2 4\ncx 2 5\n"
DEVICE_2X4E2 = "[device]\ntopology = linear\ntraps = 2\ncapacity = 4\nexcess_capacity = 2\n"


def _write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_compile_writes_schedule_and_report(tmp_path, capsys):
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    out = tmp_path / "out"
    rc = cli.main(["compile", circ, "--device", dev, "--placement", "sta", "--out", str(out)])
    assert rc == 0
    assert (out / "pair.schedule.csv").exists()
    rows = load_records((out / "pair.report.csv").read_text())
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert rows[0]["placement"] == "sta"
    assert int(rows[0]["two_qubit_gates"]) == 4
    assert "pair:" in capsys.readouterr().out


def test_compile_reruns_are_byte_identical(tmp_path):
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    out = tmp_path / "out"
    argv = ["compile", circ, "--device", dev, "--out", str(out)]
    assert cli.main(argv) == 0
    first = [(out / f"pair.{k}.csv").read_bytes() for k in ("schedule", "report")]
    assert cli.main(argv) == 0
    second = [(out / f"pair.{k}.csv").read_bytes() for k in ("schedule", "report")]
    assert first == second


def test_compile_json_report(tmp_path):
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    rc = cli.main(
        ["compile", circ, "--device", dev, "--out", str(tmp_path / "o"), "--format", "json"]
    )
    assert rc == 0
    rows = load_records((tmp_path / "o" / "pair.report.json").read_text())
    assert rows[0]["status"] == "ok"
    assert isinstance(rows[0]["shuttles"], int) and isinstance(rows[0]["total_time"], float)


def test_compile_lookahead_zero_means_whole_circuit(tmp_path):
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    rc = cli.main(
        ["compile", circ, "--device", dev, "--out", str(tmp_path / "o"), "--lookahead", "0"]
    )
    assert rc == 0
    assert load_records((tmp_path / "o" / "pair.report.csv").read_text())[0]["lookahead"] == ""


@pytest.mark.parametrize("command", ["compile", "sweep"])
@pytest.mark.parametrize("value", ["-1", "two", "2.5"])
def test_lookahead_is_refused_in_cli_terms(tmp_path, capsys, command, value):
    if command == "compile":
        argv = ["compile", _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC), "--device",
                _write(tmp_path, "dev.toml", DEVICE_2X4E2)]
    else:
        argv = ["sweep", "strong", "--family", "qft", "--traps-min", "2", "--traps-max", "2"]
    out = tmp_path / "out"
    assert cli.main([*argv, f"--lookahead={value}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: argument --lookahead: must be 0 (the whole circuit) or a positive integer, got {value!r}" in err
    assert not out.exists()


def test_sweep_lookahead_zero_means_whole_circuit(tmp_path, capsys):
    argv = ["sweep", "strong", "--family", "qft", "--traps-min", "2", "--traps-max", "2",
            "--lookahead", "0", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    rows = load_records((tmp_path / "sweep_strong_qft_sta.csv").read_text())
    assert [(r["lookahead"], r["invocation"]) for r in rows] == [("", "qccdmap " + " ".join(argv))]
    capsys.readouterr()


def test_exit_1_on_missing_file(tmp_path, capsys):
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    rc = cli.main(["compile", str(tmp_path / "nope.circ"), "--device", dev])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_exit_1_on_usage_error(capsys):
    assert cli.main(["compile"]) == 1
    assert cli.main(["sweep", "sideways", "--family", "qft"]) == 1
    capsys.readouterr()


def test_exit_1_on_malformed_circuit(tmp_path, capsys):
    circ = _write(tmp_path, "bad.circ", "qubits 2\ncx 0 5\n")
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    assert cli.main(["compile", circ, "--device", dev]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("timing", ["one_qubit = nan", "split = inf"])
def test_exit_1_on_non_finite_timing(tmp_path, capsys, timing):
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2 + f"\n[timing]\n{timing}\n")
    assert cli.main(["compile", circ, "--device", dev, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"timing parameter {timing.split()[0]} must be finite" in err


def test_exit_1_on_timing_too_large_for_the_schedule(tmp_path, capsys):
    # finite, but a later op's duration is lost when added to a start near 1e308
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2 + "\n[timing]\nsplit = 1e308\n")
    assert cli.main(["compile", circ, "--device", dev, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "op 4 starting at 1e+308 s" in err
    assert "the timing parameters are too large" in err


def test_exit_2_on_deadlock(tmp_path, capsys):
    circ = _write(tmp_path, "stuck.circ", "qubits 4\ncx 0 1\ncx 0 2\n")
    dev = _write(
        tmp_path,
        "dev.toml",
        "[device]\ntopology = linear\ntraps = 2\ncapacity = 2\nexcess_capacity = 0\n",
    )
    rc = cli.main(["compile", circ, "--device", dev, "--placement", "sta", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_exit_3_on_verification_failure(tmp_path, monkeypatch, capsys):
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    monkeypatch.setattr(cli, "verify_schedule", lambda *a, **k: Verdict(False, "forced failure"))
    rc = cli.main(["compile", circ, "--device", dev, "--out", str(tmp_path)])
    assert rc == 3
    assert "forced failure" in capsys.readouterr().err


def test_bench_gen_to_file(tmp_path, capsys):
    out = tmp_path / "qft8.circ"
    rc = cli.main(["bench", "gen", "--family", "qft", "--qubits", "8", "-o", str(out)])
    assert rc == 0
    circ = parse_circuit_file(str(out))
    assert circ.n_qubits == 8
    assert sum(len(g.qubits) == 2 for g in circ.gates) == 28
    assert out.read_text().startswith("# family=qft qubits=8")
    capsys.readouterr()


def test_bench_gen_to_stdout(capsys):
    rc = cli.main(["bench", "gen", "--family", "rnd", "--qubits", "4", "--gates", "5", "--seed", "1"])
    assert rc == 0
    assert "qubits 4" in capsys.readouterr().out


def test_bench_gen_requires_seed_for_qv(capsys):
    assert cli.main(["bench", "gen", "--family", "qv", "--qubits", "8"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "family, extra, option",
    [
        ("qft", ["--gates", "7"], "--gates"),
        ("qft", ["--seed", "9"], "--seed"),
        ("qaoa", ["--rounds", "2"], "--rounds"),
        ("rnd", ["--gates", "5", "--seed", "1", "--rounds", "2"], "--rounds"),
        ("qv", ["--seed", "1", "--gates", "5"], "--gates"),
    ],
)
def test_bench_gen_refuses_an_option_its_family_ignores(tmp_path, capsys, family, extra, option):
    out = tmp_path / "c.circ"
    argv = ["bench", "gen", "--family", family, "--qubits", "4", *extra, "-o", str(out)]
    assert cli.main(argv) == 1
    assert f"error: {option} is not read by family {family}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("placement", [[], ["--placement", "sta"], ["--placement", "greedy"]])
def test_compile_refuses_a_seed_the_placement_ignores(tmp_path, capsys, placement):
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    out = tmp_path / "out"
    assert cli.main(["compile", circ, "--device", dev, *placement, "--seed", "5", "--out", str(out)]) == 1
    strategy = placement[1] if placement else "sta"
    assert f"error: --seed is read only by --placement random, not {strategy}" in capsys.readouterr().err
    assert not out.exists()
    # random placement reads the seed and records it
    assert cli.main(["compile", circ, "--device", dev, "--placement", "random", "--seed", "5",
                     "--out", str(out)]) == 0
    assert load_records((out / "pair.report.csv").read_text())[0]["seed"] == "5"
    capsys.readouterr()


def test_sweep_strong_single_point(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "strong", "--family", "qft", "--traps-min", "2", "--traps-max", "2",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = load_records((tmp_path / "sweep_strong_qft_sta.csv").read_text())
    assert len(rows) == 1
    assert (int(rows[0]["traps"]), int(rows[0]["qubits"])) == (2, 30)
    capsys.readouterr()


def test_sweep_excess_writes_both_regimes(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "excess", "--family", "rnd", "--gates", "40", "--seed", "3",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    for regime in ("excess_fixed_ions", "excess_var_ions"):
        rows = load_records((tmp_path / f"sweep_{regime}_rnd_sta.csv").read_text())
        assert len(rows) == 10
        assert [int(r["excess"]) for r in rows] == list(range(1, 11))
    capsys.readouterr()


def test_sweep_random_seed_group(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "strong", "--family", "rnd", "--gates", "25", "--placement", "random",
         "--seed", "0", "--seeds", "3", "--traps-min", "2", "--traps-max", "2",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = load_records((tmp_path / "sweep_strong_rnd_random.csv").read_text())
    assert [r["stat"] for r in rows] == ["", "", "", "mean", "stddev"]
    assert [r["seed"] for r in rows[:3]] == ["0", "1", "2"]
    capsys.readouterr()


def test_sweep_weak_on_a_ring(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "weak", "--family", "rnd", "--gates", "40", "--seed", "1", "--topology", "ring",
         "--traps-min", "5", "--traps-max", "5", "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = load_records((tmp_path / "sweep_weak_rnd_sta.csv").read_text())
    assert [(r["topology"], int(r["traps"]), r["status"]) for r in rows] == [("ring", 5, "ok")]
    capsys.readouterr()


def test_sweep_generates_each_circuit_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_generate(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(cli, "generate", counting_generate)
    rc = cli.main(
        ["sweep", "weak", "--family", "rnd", "--gates", "40", "--seed", "1",
         "--traps-min", "2", "--traps-max", "6", "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = load_records((tmp_path / "sweep_weak_rnd_sta.csv").read_text())
    assert [int(r["traps"]) for r in rows] == [2, 3, 4, 5, 6]
    assert calls == [("rnd", 128)]
    capsys.readouterr()


def test_sweep_infeasible_ring_point_keeps_its_topology(tmp_path, capsys):
    # 180 ions over 61 traps leaves chains of 2, too short to route through
    rc = cli.main(
        ["sweep", "weak", "--family", "qft", "--topology", "ring",
         "--traps-min", "61", "--traps-max", "61", "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = load_records((tmp_path / "sweep_weak_qft_sta.csv").read_text())
    assert [(r["topology"], int(r["traps"]), r["status"]) for r in rows] == [("ring", 61, "infeasible")]
    assert "skipping traps=61" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, lo, hi",
    [("weak", "0", "1"), ("weak", "-3", "-1"), ("weak", "5", "3"), ("strong", "5", "3")],
)
def test_sweep_rejects_trap_range_outside_one_to_max(tmp_path, capsys, mode, lo, hi):
    rc = cli.main(
        ["sweep", mode, "--family", "qft", "--traps-min", lo, "--traps-max", hi,
         "--out", str(tmp_path)]
    )
    assert rc == 1
    assert "1 <= --traps-min <= --traps-max" in capsys.readouterr().err
    assert not list(tmp_path.glob("sweep_*"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["excess", "--family", "rnd", "--seed", "1"], "rnd requires --gates"),
        (["excess", "--family", "qv"], "qv requires a seed"),
        (["strong", "--family", "qft", "--placement", "random", "--traps-min", "2", "--traps-max", "2"],
         "random placement requires a seed"),
    ],
    ids=["rnd-without-gates", "qv-without-seed", "random-without-seed"],
)
def test_sweep_refused_at_generation_or_placement_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert cli.main(["sweep", *argv, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "family, extra, message",
    [
        ("qft", ["--gates", "99"], "--gates is not read by family qft"),
        ("qaoa", ["--rounds", "3"], "--rounds is not read by family qaoa"),
        ("rnd", ["--gates", "5", "--seed", "1", "--rounds", "2"], "--rounds is not read by family rnd"),
        ("qft", ["--seed", "7"], "--seed is not read by family qft or by --placement sta"),
        ("qft", ["--placement", "greedy", "--seed", "7"],
         "--seed is not read by family qft or by --placement greedy"),
        ("qft", ["--seeds", "4"], "--seeds is read only by --placement random, not sta"),
        ("rnd", ["--gates", "5", "--seed", "1", "--seeds", "2"],
         "--seeds is read only by --placement random, not sta"),
        ("qft", ["--seed", "7", "--gates", "99", "--rounds", "3", "--seeds", "4"],
         "--rounds is not read by family qft"),
    ],
)
def test_sweep_refuses_an_option_nothing_reads(tmp_path, capsys, family, extra, message):
    out = tmp_path / "out"
    argv = ["sweep", "weak", "--family", family, *extra, "--traps-min", "3", "--traps-max", "4",
            "--out", str(out)]
    assert cli.main(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra", [["--traps-min", "3"], ["--traps-max", "4"], ["--traps-min", "3", "--traps-max", "4"]]
)
def test_sweep_excess_refuses_a_trap_range(tmp_path, capsys, extra):
    # both excess series fix their own trap counts
    out = tmp_path / "out"
    assert cli.main(["sweep", "excess", "--family", "qft", *extra, "--out", str(out)]) == 1
    assert "error: --traps-min and --traps-max are read only by sweep strong and weak" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_random_placement_reads_the_seed_of_any_family(tmp_path, capsys):
    rc = cli.main(
        ["sweep", "strong", "--family", "qft", "--placement", "random", "--seed", "4", "--seeds", "2",
         "--traps-min", "2", "--traps-max", "2", "--out", str(tmp_path)]
    )
    assert rc == 0
    rows = load_records((tmp_path / "sweep_strong_qft_random.csv").read_text())
    assert [r["seed"] for r in rows[:2]] == ["4", "5"]
    capsys.readouterr()


def test_compare_end_to_end(tmp_path, capsys):
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    for strategy in ("greedy", "sta"):
        rc = cli.main(
            ["compile", circ, "--device", dev, "--placement", strategy,
             "--out", str(tmp_path / strategy)]
        )
        assert rc == 0
    out = tmp_path / "cmp.csv"
    rc = cli.main(
        ["compare", str(tmp_path / "greedy" / "pair.report.csv"),
         str(tmp_path / "sta" / "pair.report.csv"), "-o", str(out)]
    )
    assert rc == 0
    header, row = out.read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["placement_base"] == "greedy" and cols["placement_cand"] == "sta"
    assert float(cols["total_time_base"]) > 0
    capsys.readouterr()


def test_compare_mismatch_exits_1(tmp_path, capsys):
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    other = _write(tmp_path, "other.circ", "qubits 2\ncx 0 1\n")
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    assert cli.main(["compile", circ, "--device", dev, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["compile", other, "--device", dev, "--out", str(tmp_path / "b")]) == 0
    rc = cli.main(
        ["compare", str(tmp_path / "a" / "pair.report.csv"),
         str(tmp_path / "b" / "other.report.csv")]
    )
    assert rc == 1
    capsys.readouterr()


def test_compare_reads_reports_whose_fields_hold_commas(tmp_path, capsys):
    # the label and the invocation column both carry a comma
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    out = tmp_path / "o,3"
    assert cli.main(["compile", circ, "--device", dev, "--label", "a,b", "--out", str(out)]) == 0
    capsys.readouterr()
    report = out / "a,b.report.csv"
    (row,) = load_records(report.read_text())
    assert row["label"] == "a,b"
    assert row["invocation"].endswith(f"--label a,b --out {out}")
    assert cli.main(["compare", str(report), str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith('"a,b",')


def test_compile_refuses_a_label_holding_a_carriage_return(tmp_path, capsys):
    # read back in text mode, the report would name the workload "b"
    circ = _write(tmp_path, "pair.circ", SIX_QUBIT_CIRC)
    dev = _write(tmp_path, "dev.toml", DEVICE_2X4E2)
    out = tmp_path / "o"
    assert cli.main(["compile", circ, "--device", dev, "--label", "a\rb", "--out", str(out)]) == 1
    assert "report field label holds a carriage return: 'a\\rb'" in capsys.readouterr().err
    assert not out.exists()


REPORT_CSV = "label,status,total_time,shuttles,swaps\npair,ok,0.0015,2,3\n"


def test_compare_names_a_row_narrower_than_the_header(tmp_path, capsys):
    good = _write(tmp_path, "good.csv", REPORT_CSV)
    short = _write(tmp_path, "short.csv", "label,status,total_time,shuttles,swaps\npair,ok,1.0\n")
    assert cli.main(["compare", short, good]) == 1
    assert "malformed report CSV: line 2 is narrower than the header" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[", "malformed report JSON"),
        ("[1, 2]", "malformed report JSON: every row must be an object"),
    ],
    ids=["truncated", "scalar-rows"],
)
def test_compare_malformed_json_exits_1(tmp_path, capsys, text, message):
    good = _write(tmp_path, "good.csv", REPORT_CSV)
    bad = _write(tmp_path, "bad.json", text)
    assert cli.main(["compare", good, bad]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("column", ["total_time", "shuttles", "swaps"])
@pytest.mark.parametrize("value", ["", "fast"])
def test_compare_non_numeric_column_exits_1(tmp_path, capsys, column, value):
    header, row = REPORT_CSV.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    cells[column] = value
    good = _write(tmp_path, "good.csv", REPORT_CSV)
    bad = _write(tmp_path, "bad.csv", header + "\n" + ",".join(cells.values()) + "\n")
    assert cli.main(["compare", good, bad]) == 1
    assert f"candidate {column} for" in capsys.readouterr().err
    assert cli.main(["compare", bad, good]) == 1
    assert f"baseline {column} for" in capsys.readouterr().err
