"""Compile benchmark for qccdmap.

    python3 perfbench/run.py --workload qaoa256 --seed 1 --seconds 25 --trace 0

One compile is what ``qccdmap compile`` does minus the file writes: parse the
circuit text, ``cli.run_compile`` (place, schedule, verify, report record),
``schedule_to_text`` and ``emit``. Compiles run one at a time in this single
process and thread (a closed loop with one client), and a pass runs the
workload's whole compile set once.

With ``--trace 0`` the run sets up several times, then repeats passes for
``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` it runs
one untraced pass, then traced passes for the rest of ``--seconds``, and
reports the per-layer metrics; spans go to ``perfbench/out/``. Both modes
check every schedule with ``outcheck`` and compare digests between repeats,
and between traced and untraced passes. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every time it reports is scaled to a reference machine speed (``speed.py``).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import outcheck
import workloads
from spans import LAYER_SPANS, Tracer
from speed import REFERENCE, SpeedProbe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
SETUP_FIRST = 3
MODULES = ("benchmarks", "circuits", "devices", "placement", "routing", "scheduling", "reporting", "cli")

UNITS = {
    "compile_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "makespan_us": "us",
    "shuttles": "count",
    "swaps": "count",
}


class Qccd:
    """The qccdmap modules of one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "qccdmap" or m.startswith("qccdmap.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"qccdmap.{name}"))


class Setup:
    """Set-up: import qccdmap afresh, generate the workload from the seed and
    serialise it to text.

    It runs SETUP_FIRST times before the first pass and once more after every
    untraced pass, so its median covers the same stretch of the run as the
    compile samples. Every repetition must give the same circuit text.
    """

    def __init__(self, name: str, seed: int, probe):
        self.name, self.seed, self.probe = name, seed, probe
        self.times: list[float] = []
        self.texts: set = set()
        for _ in range(SETUP_FIRST):
            self.qccd, self.jobs = self.again()

    def again(self):
        mark, t0 = self.probe.mark(), perf_counter()
        qccd = Qccd()
        jobs = workloads.build(qccd, self.name, self.seed)
        self.times.append((perf_counter() - t0) * self.probe.scale(mark))
        self.texts.add(tuple(job.text for job in jobs))
        return qccd, jobs

    @property
    def repeats(self) -> bool:
        return len(self.texts) == 1


def compile_one(qccd, job):
    circ = qccd.circuits.parse_circuit(job.text)
    record, sched = qccd.cli.run_compile(
        circ, job.spec, workloads.PLACEMENT, lookahead=workloads.LOOKAHEAD, label=job.label
    )
    return record, qccd.scheduling.schedule_to_text(sched), qccd.reporting.emit([record])


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs passes, checks their outputs and tallies failures."""

    def __init__(self, qccd, jobs, probe):
        self.qccd = qccd
        self.jobs = jobs
        self.probe = probe
        self.wall: list[float] = []  # unscaled seconds of each good pass
        self.attempted = 0
        self.failed = 0
        self.digests = None  # per job (schedule sha, report sha), from the first good pass
        self.totals = None  # makespan_us, shuttles, swaps, schedule bytes of the first good pass

    def run_pass(self, tracer=None):
        """One pass over the jobs, traced when given a tracer. Returns the
        pass's compile seconds at the reference speed and the factor that
        scaled them, or None if any compile failed."""
        gc.collect()
        mark = self.probe.mark()
        fn = compile_one
        if tracer is not None:
            tracer.reset_pass()
            fn = tracer.wrap("compile", compile_one)
        seconds, digests, totals = 0.0, [], [0, 0, 0, 0]
        for i, job in enumerate(self.jobs):
            self.attempted += 1
            if tracer is not None:
                tracer.compile_id += 1
            try:
                t0 = perf_counter()
                record, text, report = fn(self.qccd, job)
                seconds += perf_counter() - t0
            except Exception:
                traceback.print_exc()
                self.failed += 1
                continue
            digest = (sha(text), sha(report))
            if self.digests is None:
                problems = outcheck.check_schedule(job.text, text)
            elif digest != self.digests[i]:
                problems = ["schedule or report differs from the first pass"]
            else:
                problems = []
            for p in problems:
                print(f"{job.label}: {p}", file=sys.stderr)
            if problems:
                self.failed += 1
                continue
            digests.append(digest)
            totals[0] += record.total_time * 1e6
            totals[1] += record.shuttles
            totals[2] += record.swaps
            totals[3] += len(text)
        if len(digests) < len(self.jobs):
            return None
        if self.digests is None:
            self.digests, self.totals = digests, totals
        self.wall.append(seconds)
        scale = self.probe.scale(mark)
        return seconds * scale, scale

    def timed_passes(self, seconds: float, between):
        """Untraced passes until ``seconds`` have passed; ``between`` runs
        after each pass, outside the timing."""
        started = perf_counter()
        samples = []
        while True:
            done = self.run_pass()
            if done is not None:
                samples.append(done[0])
            between()
            if perf_counter() - started >= seconds:
                return samples


def report_digest(name: str, seed: int, runner) -> None:
    """Print the workload's digests and how they compare with digests.json."""
    schedule = sha("".join(d[0] for d in runner.digests))
    report = sha("".join(d[1] for d in runner.digests))
    recorded = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed)) if DIGESTS.exists() else None
    if recorded is None:
        status = "unrecorded"
    elif recorded == {"schedule": schedule, "report": report}:
        status = "same"
    else:
        status = "changed"
    print(f"digest {name} seed={seed} schedule={schedule} report={report} recorded={status}")


def percentile_line(samples) -> str:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    line = f"median {statistics.median(samples):.6f} s over {len(samples)} samples"
    if len(samples) > 10:
        ordered = sorted(samples)
        k = len(ordered) - 10
        line += f", p{100 * k // len(ordered)} {ordered[k - 1]:.6f} s"
    return line


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, runner, setup) -> dict:
    samples = runner.timed_passes(args.seconds, between=setup.again)
    if not samples:
        return {}
    makespan, shuttles, swaps, _ = runner.totals
    setup_s = statistics.median(setup.times)
    values = {
        "compile_s": statistics.median(samples),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "makespan_us": round(makespan, 3),
        "shuttles": shuttles,
        "swaps": swaps,
    }
    print(f"compile_s {percentile_line(samples)} at the reference speed")
    print(
        f"  wall median {statistics.median(runner.wall):.6f} s; speed probe median "
        f"{statistics.median(runner.probe.samples) * 1e6:.2f} us, reference {REFERENCE * 1e6:.2f} us"
    )
    print(f"setup_s median {setup_s:.6f} s over {len(setup.times)} set-ups at the reference speed")
    for key in ("peak_rss_mb", "makespan_us", "shuttles", "swaps"):
        print(f"{key} {values[key]} {UNITS[key]}")
    return {key: metric(v, UNITS[key]) for key, v in values.items()}


def per_layer(args, runner, tracer) -> tuple[dict, bool]:
    started = perf_counter()
    done = runner.run_pass()
    if done is None:
        return {}, False
    untraced = done[0]
    with tracer.installed(runner.qccd):
        passes = []
        while True:
            before = len(tracer.spans)
            done = runner.run_pass(tracer)
            if done is not None:
                total, own = tracer.self_times(before, scale=done[1])
                passes.append((total, own, tracer.pass_counts(runner.qccd.devices.OpKind)))
            if perf_counter() - started >= args.seconds:
                break
    if not passes:
        return {}, False
    counts = passes[0][2]
    steady = all(p[2] == counts for p in passes)
    if not steady:
        print("trace: per-layer counts differ between traced passes", file=sys.stderr)

    def med(fn):
        return statistics.median(fn(total, own) for total, own, _ in passes)

    values = {
        key: med(lambda t, o, names=names: sum(o[x] for x in names))
        for key, names in LAYER_SPANS.items()
    }
    compile_s = med(lambda t, o: t["compile"])
    values["trace.compile_s"] = compile_s
    values["trace.compile_self_s"] = med(lambda t, o: o["compile"])
    values["trace.accounted_share"] = med(lambda t, o: 1 - o["compile"] / t["compile"])
    values["trace.overhead_s"] = compile_s - untraced
    units = {key: "s" for key in values}
    units["trace.accounted_share"] = "ratio"
    for key, v in counts.items():
        values[key] = v
        units[key] = "ratio" if key.endswith("_share") else "count"
    values["scheduling.schedule_to_text_bytes"] = runner.totals[3]
    units["scheduling.schedule_to_text_bytes"] = "bytes"
    print(f"trace: {len(passes)} traced passes after one untraced pass of {untraced:.6f} s")
    for key in sorted(values):
        print(f"{key} {values[key]} {units[key]}")
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    print(f"spans written to {path.relative_to(HERE.parent)}")
    return {key: metric(values[key], units[key]) for key in sorted(values)}, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    with SpeedProbe() as probe:
        try:
            setup = Setup(args.workload, args.seed, probe)
        except ImportError as exc:
            print(f"error: cannot import qccdmap from {SRC}: {exc}", file=sys.stderr)
            return 1
        runner = Runner(setup.qccd, setup.jobs, probe)
        if args.trace:
            metrics, steady = per_layer(args, runner, Tracer())
        else:
            metrics, steady = end_to_end(args, runner, setup), True
    if runner.digests is None:
        print("error: no compile of the workload succeeded", file=sys.stderr)
        return 1
    report_digest(args.workload, args.seed, runner)
    if not setup.repeats:
        print("error: the same seed generated different circuits", file=sys.stderr)
    print(f"failed_share {runner.failed / runner.attempted} ratio ({runner.failed} of {runner.attempted} compiles)")
    result = {
        "correct": runner.failed == 0 and steady and setup.repeats,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
