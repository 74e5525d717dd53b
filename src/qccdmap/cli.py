"""Command line interface.

Subcommands:

* ``compile``: map one circuit onto a device, write the schedule and a
  run report.
* ``bench gen``: generate a benchmark circuit file.
* ``sweep strong|weak|excess``: run a predefined device sweep and write
  one report per sweep regime.
* ``compare``: diff two reports, positive time delta meaning the candidate
  run is faster.

Exit codes: 0 success, 1 bad input, 2 routing deadlock, 3 schedule failed
verification.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .benchmarks import FAMILIES, generate, largest_valid_size
from .circuits import Circuit, circuit_to_text, compute_slices, parse_circuit_file
from .devices import DeviceSpec, Topology, parse_device_file
from .errors import InputError, QccdError, VerificationError
from .placement import place
from .reporting import RunRecord, compare, emit, emit_compare, load_records
from .routing import DEFAULT_LOOKAHEAD
from .scheduling import schedule, schedule_to_text, verify_schedule

PLACEMENTS = ("sta", "greedy", "random")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    deadlocks, so usage problems are rethrown as input errors instead."""

    def error(self, message):
        raise InputError(message)


def _lookahead(text: str) -> int | None:
    """--lookahead: a pending-gate window, 0 for the whole circuit (None)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 (the whole circuit) or a positive integer, got {text!r}")
    return value or None


def run_compile(
    circ: Circuit,
    spec: DeviceSpec,
    strategy: str,
    seed: int | None = None,
    lookahead: int | None = DEFAULT_LOOKAHEAD,
    label: str = "run",
    family: str = "custom",
    invocation: str = "",
):
    """Place, schedule, verify; returns (record, schedule). The schedule has
    passed verification, or this raises."""
    t0 = time.perf_counter()
    placement = place(circ, spec, strategy, seed)
    sched = schedule(circ, placement, spec, lookahead)
    verdict = verify_schedule(sched, circ, placement, spec)
    if not verdict.ok:
        where = "" if verdict.op_index is None else f" at op {verdict.op_index}"
        raise VerificationError(f"schedule failed verification{where}: {verdict.reason}")
    m = sched.metrics
    record = RunRecord(
        label=label,
        family=family,
        qubits=circ.n_qubits,
        placement=strategy,
        seed=seed,
        lookahead=lookahead,
        topology=spec.topology.value,
        traps=spec.n_traps,
        capacity=spec.capacity,
        excess=spec.excess_capacity,
        one_qubit_gates=m.one_qubit_gates,
        two_qubit_gates=m.two_qubit_gates,
        slices=len(compute_slices(circ)),
        shuttles=m.shuttles,
        swaps=m.swaps,
        total_time=m.total_time,
        status="ok",
        invocation=invocation,
        wall_clock=time.perf_counter() - t0,
    )
    return record, sched


def _cmd_compile(args) -> int:
    # The report records the seed, so one the placement would ignore is refused.
    if args.seed is not None and args.placement != "random":
        raise InputError(f"--seed is read only by --placement random, not {args.placement}")
    circ = parse_circuit_file(args.circuit)
    spec = parse_device_file(args.device)
    label = args.label if args.label else Path(args.circuit).stem
    record, sched = run_compile(
        circ,
        spec,
        args.placement,
        seed=args.seed,
        lookahead=args.lookahead,
        label=label,
        invocation=args.invocation,
    )
    # The report is rendered first: a record it refuses leaves no files.
    report = emit([record], args.format, args.with_wall_clock)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    sched_path = outdir / f"{label}.schedule.csv"
    sched_path.write_text(schedule_to_text(sched))
    report_path = outdir / f"{label}.report.{args.format}"
    report_path.write_text(report)
    print(
        f"{label}: total_time_us={record.total_time * 1e6:.3f} "
        f"shuttles={record.shuttles} swaps={record.swaps} "
        f"(schedule: {sched_path}, report: {report_path})"
    )
    return 0


# The bench gen options each family reads; the header records every option given.
_GEN_OPTIONS = {"rounds": ("qv",), "gates": ("rnd",), "seed": ("qv", "rnd")}


def _cmd_bench_gen(args) -> int:
    for option, families in _GEN_OPTIONS.items():
        if getattr(args, option) is not None and args.family not in families:
            raise InputError(f"--{option} is not read by family {args.family}")
    circ = generate(args.family, args.qubits, rounds=args.rounds, gates=args.gates, seed=args.seed)
    parts = [f"family={args.family}", f"qubits={args.qubits}"]
    if args.family == "qv":
        parts.append(f"rounds={args.rounds if args.rounds is not None else args.qubits}")
    if args.gates is not None:
        parts.append(f"gates={args.gates}")
    if args.seed is not None:
        parts.append(f"seed={args.seed}")
    text = circuit_to_text(circ, header=" ".join(parts))
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(circ.gates)} gates)")
    else:
        sys.stdout.write(text)
    return 0


# Sweep point: (traps, capacity, excess, qubits, feasible).

def _trap_range(args, default_max: int) -> range:
    lo = args.traps_min if args.traps_min is not None else 2
    hi = args.traps_max if args.traps_max is not None else default_max
    if not 1 <= lo <= hi:
        raise InputError(f"sweep trap range needs 1 <= --traps-min <= --traps-max, got {lo}..{hi}")
    return range(lo, hi + 1)


def _strong_points(args):
    for traps in _trap_range(args, 14):
        n = largest_valid_size(args.family, traps * 15)
        yield traps, 17, 2, n, True


def _weak_points(args):
    total_ions = 180
    n = largest_valid_size(args.family, 128)
    for traps in _trap_range(args, 26):
        capacity = total_ions // traps
        feasible = capacity > 2 and n <= traps * capacity
        yield traps, capacity, 2, n, feasible


def _excess_fixed_points(args):
    n = largest_valid_size(args.family, 64)
    for e in range(1, 11):
        yield 5, 14 + e, e, n, True


def _excess_var_points(args):
    n = largest_valid_size(args.family, 64)
    for e in range(1, 11):
        usable = 14 - e
        traps = -(-n // usable)
        yield traps, 14, e, n, True


def _infeasible_record(args, traps, capacity, excess, n) -> RunRecord:
    return RunRecord(
        label=f"{args.family}{n}",
        family=args.family,
        qubits=n,
        placement=args.placement,
        seed=args.seed,
        lookahead=args.lookahead,
        topology=args.topology,
        traps=traps,
        capacity=capacity,
        excess=excess,
        status="infeasible",
        invocation=args.invocation,
    )


def _sweep_run(args, circ, traps, capacity, excess) -> list[RunRecord]:
    spec = DeviceSpec(
        topology=Topology(args.topology), n_traps=traps, capacity=capacity, excess_capacity=excess
    )
    label = f"{args.family}{circ.n_qubits}"
    # --seeds above 1 comes only with a random placement; without --seed,
    # place refuses a random one.
    seeds = [None] if args.seed is None else range(args.seed, args.seed + args.seeds)
    return [
        run_compile(
            circ, spec, args.placement, seed=seed, lookahead=args.lookahead,
            label=label, family=args.family, invocation=args.invocation,
        )[0]
        for seed in seeds
    ]


def _cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise InputError(f"--seeds must be positive, got {args.seeds}")
    # The reports record the seed, so an option nothing in the sweep reads is
    # refused: generation reads the family's options, and a random placement
    # also reads --seed and --seeds.
    for option, families in _GEN_OPTIONS.items():
        if getattr(args, option) is None or args.family in families:
            continue
        if option != "seed":
            raise InputError(f"--{option} is not read by family {args.family}")
        if args.placement != "random":
            raise InputError(f"--seed is not read by family {args.family} or by --placement {args.placement}")
    if args.seeds != 1 and args.placement != "random":
        raise InputError(f"--seeds is read only by --placement random, not {args.placement}")
    if args.mode == "strong":
        regimes = [("strong", _strong_points)]
    elif args.mode == "weak":
        regimes = [("weak", _weak_points)]
    elif args.traps_min is not None or args.traps_max is not None:
        raise InputError("--traps-min and --traps-max are read only by sweep strong and weak")
    else:
        regimes = [("excess_fixed_ions", _excess_fixed_points), ("excess_var_ions", _excess_var_points)]
    outdir = Path(args.out)
    # Qubit count -> circuit. Points of equal size share one circuit, and with
    # it every view it keeps.
    circuits: dict[int, Circuit] = {}
    # Every report is rendered before any is written: a sweep refused or
    # failed part-way leaves no files.
    reports: list[tuple[Path, str, int]] = []
    for name, points in regimes:
        records: list[RunRecord] = []
        for traps, capacity, excess, n, feasible in points(args):
            if not feasible:
                print(
                    f"warning: skipping traps={traps} capacity={capacity}: "
                    f"{n} qubits do not fit",
                    file=sys.stderr,
                )
                records.append(_infeasible_record(args, traps, capacity, excess, n))
                continue
            circ = circuits.get(n)
            if circ is None:
                circ = circuits[n] = generate(
                    args.family, n, rounds=args.rounds, gates=args.gates, seed=args.seed
                )
            records.extend(_sweep_run(args, circ, traps, capacity, excess))
        path = outdir / f"sweep_{name}_{args.family}_{args.placement}.{args.format}"
        reports.append((path, emit(records, args.format, args.with_wall_clock), len(records)))
    outdir.mkdir(parents=True, exist_ok=True)
    for path, text, count in reports:
        path.write_text(text)
        print(f"wrote {path} ({count} records)")
    return 0


def _cmd_compare(args) -> int:
    baseline = load_records(Path(args.baseline).read_text())
    candidate = load_records(Path(args.candidate).read_text())
    rows = compare(baseline, candidate)
    text = emit_compare(rows, args.format)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qccdmap", description="QCCD circuit mapping toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a circuit onto a device")
    c.add_argument("circuit", help="circuit file (native text or a qasm subset)")
    c.add_argument("--device", required=True, help="device config file")
    c.add_argument("--placement", choices=PLACEMENTS, default="sta")
    c.add_argument("--seed", type=int, help="seed for the random placement")
    c.add_argument(
        "--lookahead",
        type=_lookahead,
        default=DEFAULT_LOOKAHEAD,
        help="pending-gate window for routing scores (0 = whole circuit)",
    )
    c.add_argument("--out", default=".", help="output directory")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--label", help="record label (default: circuit file stem)")
    c.add_argument("--with-wall-clock", action="store_true", help="include wall_clock in the report")
    c.set_defaults(func=_cmd_compile)

    b = sub.add_parser("bench", help="benchmark utilities")
    bsub = b.add_subparsers(dest="bench_command", required=True)
    bg = bsub.add_parser("gen", help="generate a benchmark circuit")
    bg.add_argument("--family", choices=FAMILIES, required=True)
    bg.add_argument("--qubits", type=int, required=True)
    bg.add_argument("--rounds", type=int, help="qv rounds (default: qubit count)")
    bg.add_argument("--gates", type=int, help="rnd gate count")
    bg.add_argument("--seed", type=int, help="qv/rnd generation seed")
    bg.add_argument("-o", "--output", help="output file (default: stdout)")
    bg.set_defaults(func=_cmd_bench_gen)

    s = sub.add_parser("sweep", help="run a predefined device sweep")
    s.add_argument("mode", choices=("strong", "weak", "excess"))
    s.add_argument("--family", choices=FAMILIES, required=True)
    s.add_argument("--placement", choices=PLACEMENTS, default="sta")
    s.add_argument(
        "--topology", choices=[t.value for t in Topology], default=Topology.LINEAR.value,
        help="topology of every device in the sweep",
    )
    s.add_argument("--seed", type=int, help="generation seed (qv/rnd) and base placement seed")
    s.add_argument("--seeds", type=int, default=1, help="random placement seeds per point")
    s.add_argument("--lookahead", type=_lookahead, default=DEFAULT_LOOKAHEAD)
    s.add_argument("--out", default=".", help="output directory")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--rounds", type=int, help="qv rounds (default: qubit count)")
    s.add_argument("--gates", type=int, help="rnd gate count")
    s.add_argument("--traps-min", type=int, help="override sweep start (strong/weak)")
    s.add_argument("--traps-max", type=int, help="override sweep end (strong/weak)")
    s.add_argument("--with-wall-clock", action="store_true")
    s.set_defaults(func=_cmd_sweep)

    cp = sub.add_parser("compare", help="diff two run reports")
    cp.add_argument("baseline", help="baseline report file (csv or json)")
    cp.add_argument("candidate", help="candidate report file (csv or json)")
    cp.add_argument("-o", "--output", help="output file (default: stdout)")
    cp.add_argument("--format", choices=("csv", "json"), default="csv")
    cp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(tokens)
        args.invocation = "qccdmap " + " ".join(tokens)
        return args.func(args)
    except QccdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
