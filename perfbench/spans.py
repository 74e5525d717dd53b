"""Spans and counts recorded around qccdmap's layer boundaries.

Nothing under ``src/`` changes: ``Tracer.installed`` rebinds each public
function where its caller looks it up (``qccdmap.scheduling.resolve_gate``,
because ``scheduling`` imports it by name) and four ``DeviceState`` /
``DeviceSpec`` methods, and puts the originals back on exit. Spans are kept
in memory as ``(compile_id, name, start, end, parent)`` tuples; every span of
one compile shares its ``compile_id`` and ``parent`` indexes the enclosing
span (-1 for the root ``compile`` span).
"""
from __future__ import annotations

import gzip
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). The harness itself calls parse_circuit,
# schedule_to_text and emit through their modules.
SPAN_SITES = (
    ("circuits", "parse_circuit", "parse_circuit"),
    ("cli", "place", "place"),
    ("placement", "compute_slices", "compute_slices"),
    ("placement", "interaction_graph", "interaction_graph"),
    ("cli", "compute_slices", "compute_slices"),
    ("cli", "schedule", "schedule"),
    ("scheduling", "dependency_graph", "dependency_graph"),
    ("scheduling", "resolve_gate", "resolve_gate"),
    ("routing", "select_mover", "select_mover"),
    ("cli", "verify_schedule", "verify_schedule"),
    ("scheduling", "schedule_to_text", "schedule_to_text"),
    ("reporting", "emit", "emit"),
)

# (class, method, counter). Both classes live in qccdmap.devices.
COUNT_SITES = (
    ("DeviceState", "copy", "devices.state_copies"),
    ("DeviceState", "apply", "devices.apply_calls"),
    ("DeviceSpec", "neighbors", "devices.neighbors_calls"),
    ("DeviceState", "occupancies", "devices.occupancies_calls"),
)

# Layer metric -> the spans whose self time it sums.
LAYER_SPANS = {
    "circuits.parse_circuit_s": ("parse_circuit",),
    "circuits.derive_s": ("compute_slices", "interaction_graph", "dependency_graph"),
    "placement.place_s": ("place",),
    "routing.resolve_gate_s": ("resolve_gate",),
    "routing.select_mover_s": ("select_mover",),
    "scheduling.loop_self_s": ("schedule",),
    "scheduling.verify_schedule_s": ("verify_schedule",),
    "scheduling.schedule_to_text_s": ("schedule_to_text",),
    "reporting.emit_s": ("emit",),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.compile_id = 0
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        # Results kept by reference and counted after the compile, so the
        # counting costs no span any time.
        self.routed: list[tuple] = []
        self.placed: list[tuple] = []
        self.scheduled: list = []

    def wrap(self, name, fn, keep=None):
        """``fn`` recording a span per call; ``keep(args, result)`` runs after
        the span closes."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.compile_id, name, start, end, parent)
            if keep is not None:
                keep(args, result)
            return result

        return traced

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, qccd):
        keeps = {
            "place": lambda args, res: self.placed.append((args[0], res)),
            "resolve_gate": lambda args, res: self.routed.append((args[0], res)),
            "schedule": lambda args, res: self.scheduled.append(res),
        }
        saved = []
        try:
            for module_name, attr, name in SPAN_SITES:
                module = getattr(qccd, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, keeps.get(name)))
            for cls_name, attr, key in COUNT_SITES:
                cls = getattr(qccd.devices, cls_name)
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, self._counted(key, original))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def reset_pass(self):
        """Forget counts and kept results; spans stay for the write-out."""
        self.counts.clear()
        self.routed.clear()
        self.placed.clear()
        self.scheduled.clear()

    def self_times(self, first: int, scale: float = 1.0) -> tuple[dict, dict]:
        """Total and self seconds per span name over ``spans[first:]``,
        multiplied by ``scale``."""
        spans = self.spans
        child = [0.0] * (len(spans) - first)
        for _, _, start, end, parent in spans[first:]:
            if parent >= first:
                child[parent - first] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        for i, (_, name, start, end, _) in enumerate(spans[first:]):
            total[name] += (end - start) * scale
            own[name] += (end - start - child[i]) * scale
        return total, own

    def pass_counts(self, kinds) -> dict:
        """Per-layer counts of the pass since the last ``reset_pass``."""
        out = {key: self.counts[key] for _, _, key in COUNT_SITES}
        split_gate2 = 0
        for circ, placement in self.placed:
            trap_of = {q: t for t, chain in enumerate(placement.chains) for q in chain}
            split_gate2 += sum(
                1 for g in circ.gates if len(g.qubits) == 2 and trap_of[g.qubits[0]] != trap_of[g.qubits[1]]
            )
        out["placement.split_gate2"] = split_gate2
        calls = len(self.routed)
        split = mover = eviction = swaps = ops = 0
        for gate, moves in self.routed:
            ops += len(moves)
            split += bool(moves)
            for op in moves:
                if op.kind is kinds.SWAP:
                    swaps += 1
                elif op.kind is kinds.SHUTTLE:
                    if op.qubits[0] in gate.qubits:
                        mover += 1
                    else:
                        eviction += 1
        out["routing.calls"] = calls
        out["routing.split_calls"] = split
        out["routing.cotrapped_share"] = (calls - split) / calls if calls else 0.0
        out["routing.ops"] = ops
        out["routing.mover_shuttles"] = mover
        out["routing.eviction_shuttles"] = eviction
        out["routing.swaps"] = swaps
        out["scheduling.ops"] = sum(len(s.ops) for s in self.scheduled)
        return out

    def write(self, path):
        """Write every span as one JSON array per line, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for cid, name, start, end, parent in self.spans:
                fh.write(json.dumps([cid, name, round(start - t0, 9), round(end - t0, 9), parent]))
                fh.write("\n")
