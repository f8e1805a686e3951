"""Per-layer metrics and the self-time ledger, computed from spans.

Time metrics named ``*_s`` are *self* time (the span's duration minus
what its wrapped children cover) unless commented as inclusive in
:func:`layer_metrics`; counts are exact and repeat across traced runs at
one seed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from tracer import CALLS, EXTRA, SELF, TOTAL, Span

#: (metric, unit) in report order.  ``s`` metrics are times, the rest
#: counts (``ratio`` and ``bytes`` included).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sched.self_s", "s"), ("sched.runs", "count"),
    ("sched.decisions", "count"),
    ("vm.step_s", "s"), ("vm.run_local_s", "s"), ("vm.steps", "count"),
    ("vm.local_bursts", "count"),
    ("vm.make_s", "s"), ("vm.makes", "count"),
    ("vm.snapshot_s", "s"), ("vm.snapshots", "count"),
    ("vm.restore_s", "s"), ("vm.restores", "count"),
    ("vm.compile_s", "s"), ("vm.compiled_functions", "count"),
    ("memory.flush_s", "s"), ("memory.flushes", "count"),
    ("memory.buffer_depth_hwm", "count"),
    ("spec.check_s", "s"), ("spec.checks", "count"),
    ("spec.violations", "count"), ("spec.violation_ratio", "ratio"),
    ("sat.solve_s", "s"), ("sat.solves", "count"),
    ("sat.conflicts", "count"), ("sat.clauses", "count"),
    ("synth.self_s", "s"), ("synth.enforce_s", "s"),
    ("synth.rounds", "count"), ("synth.executions", "count"),
    ("synth.fences", "count"),
    ("parallel.broadcast_s", "s"), ("parallel.broadcasts", "count"),
    ("parallel.wait_s", "s"), ("parallel.ipc_bytes", "bytes"),
    ("explorer.self_s", "s"), ("explorer.paths", "count"),
    ("explorer.pruned", "count"), ("explorer.cache_hits", "count"),
    ("explorer.cache_states", "count"), ("explorer.cache_hit_ratio", "ratio"),
    ("explorer.snapshot_bytes", "bytes"),
    ("minic.compile_s", "s"), ("minic.compiles", "count"),
    ("minic.ir_instrs", "count"),
    ("fuzz.generate_s", "s"), ("fuzz.programs", "count"),
    ("fuzz.oracle_explore_s", "s"), ("fuzz.oracle_sample_s", "s"),
    ("fuzz.oracle_synth_s", "s"), ("fuzz.inconclusive", "count"),
    ("trace.overhead_s", "s"),
)


class _Totals:
    """Span and hot-call totals over a set of spans."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # calls/total/self
        self.hot = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.info: Dict[Tuple[str, str], float] = defaultdict(float)
        self.fuzz_spans = defaultdict(float)              # inclusive s
        for span in spans:
            agg = self.spans[span.name]
            agg[0] += 1
            agg[1] += span.duration
            agg[2] += span.self_time
            for key, value in span.info.items():
                self.info[(span.name, key)] += value
            for name, hot in span.hot.items():
                mine = self.hot[name]
                for slot in (CALLS, TOTAL, SELF, EXTRA):
                    mine[slot] += hot[slot]
            if span.op is not None and span.op.startswith("fuzz:"):
                self.fuzz_spans[span.name] += span.duration


def layer_metrics(spans: List[Span], depth_hwm: int,
                  inconclusive: int = 0,
                  overhead: Optional[float] = None) -> Dict[str, float]:
    """Every per-layer metric over *spans* (one operation or a pass)."""
    t = _Totals(spans)
    hot, sp, info = t.hot, t.spans, t.info
    checks = hot["spec.check"][CALLS]
    violations = hot["spec.check"][EXTRA]
    hits = info[("explorer.explore", "cache_hits")]
    states = info[("explorer.explore", "cache_states")]
    values = {
        "sched.self_s": hot["sched.run"][SELF],
        "sched.runs": hot["sched.run"][CALLS],
        "sched.decisions": hot["sched.decision"][CALLS],
        "vm.step_s": hot["vm.step"][SELF],
        "vm.run_local_s": hot["vm.run_local"][SELF],
        "vm.steps": hot["vm.step"][CALLS] + hot["vm.run_local"][EXTRA],
        "vm.local_bursts": hot["vm.run_local"][CALLS],
        "vm.make_s": hot["vm.make"][SELF],
        "vm.makes": hot["vm.make"][CALLS],
        "vm.snapshot_s": hot["vm.snapshot"][SELF],
        "vm.snapshots": hot["vm.snapshot"][CALLS],
        "vm.restore_s": hot["vm.restore"][SELF],
        "vm.restores": hot["vm.restore"][CALLS],
        "vm.compile_s": hot["vm.compile"][SELF],
        "vm.compiled_functions": hot["vm.compile"][EXTRA],
        "memory.flush_s": (hot["memory.flush_one"][SELF]
                           + hot["memory.drain"][SELF]),
        "memory.flushes": hot["memory.flush_one"][EXTRA],
        "memory.buffer_depth_hwm": depth_hwm,
        "spec.check_s": hot["spec.check"][SELF],
        "spec.checks": checks,
        "spec.violations": violations,
        "spec.violation_ratio": violations / checks if checks else 0.0,
        "sat.solve_s": sp["sat.minimal_repair"][SELF],
        "sat.solves": info[("sat.minimal_repair", "solves")],
        "sat.conflicts": info[("sat.minimal_repair", "conflicts")],
        "sat.clauses": info[("sat.minimal_repair", "clauses")],
        "synth.self_s": sp["synth.synthesize"][SELF],
        "synth.enforce_s": sp["synth.enforce"][SELF],
        "synth.rounds": info[("synth.synthesize", "rounds")],
        "synth.executions": info[("synth.synthesize", "executions")],
        "synth.fences": info[("synth.synthesize", "fences")],
        "parallel.broadcast_s": sp["parallel.broadcast"][SELF],
        "parallel.broadcasts": sp["parallel.broadcast"][0],
        "parallel.wait_s": hot["parallel.wait"][TOTAL],
        "parallel.ipc_bytes": info[("parallel.batch", "ipc_bytes")],
        "explorer.self_s": sp["explorer.explore"][SELF],
        "explorer.paths": info[("explorer.explore", "paths")],
        "explorer.pruned": info[("explorer.explore", "pruned")],
        "explorer.cache_hits": hits,
        "explorer.cache_states": states,
        "explorer.cache_hit_ratio": (hits / (hits + states)
                                     if hits + states else 0.0),
        "explorer.snapshot_bytes": info[("explorer.explore",
                                         "snapshot_bytes")],
        "minic.compile_s": sp["minic.compile"][SELF],
        "minic.compiles": sp["minic.compile"][0],
        "minic.ir_instrs": info[("minic.compile", "ir_instrs")],
        "fuzz.generate_s": sp["fuzz.generate"][SELF],
        "fuzz.programs": sp["fuzz.generate"][0],
        # Oracle phases, inclusive of the layers they call.
        "fuzz.oracle_explore_s": t.fuzz_spans["explorer.explore"],
        "fuzz.oracle_sample_s": hot["fuzz.sample"][TOTAL],
        "fuzz.oracle_synth_s": t.fuzz_spans["synth.synthesize"],
        "fuzz.inconclusive": inconclusive,
    }
    if overhead is not None:
        values["trace.overhead_s"] = overhead
    for name, unit in PER_LAYER:
        if unit != "s" and unit != "ratio" and name in values:
            values[name] = int(values[name])
    return values


def counts_only(values: Dict[str, float]) -> Dict[str, float]:
    """The exact (non-time) subset of *values*."""
    units = dict(PER_LAYER)
    return {name: value for name, value in values.items()
            if units.get(name) != "s"}


# ----------------------------------------------------------------------
# The self-time ledger

#: Layer -> (span or hot-call names whose self time it owns).
LAYERS = (
    ("sched", ("sched.run",)),
    ("vm", ("vm.step", "vm.run_local", "vm.make", "vm.snapshot",
            "vm.restore", "vm.compile")),
    ("memory", ("memory.flush_one", "memory.drain")),
    ("spec", ("spec.check",)),
    ("sat", ("sat.minimal_repair",)),
    ("synth", ("synth.synthesize", "synth.enforce")),
    ("parallel", ("parallel.broadcast",)),
    ("explorer", ("explorer.explore",)),
    ("minic", ("minic.compile",)),
    ("fuzz", ("fuzz.generate", "fuzz.sample")),
    ("unwrapped", ("op", "run", "parallel.batch")),
)

WAIT = "parallel.wait"

#: The row the ROADMAP's cProfile figures were taken on (at K=1000).
ROADMAP_OP = "chase_lev/sc/pso"

#: (label, names, share, tolerance) the ROADMAP records for that row.
ROADMAP = (
    ("under FlushDelayScheduler.run", ("sched.run",), 0.83, 0.10),
    ("spec checking", ("spec.check",), 0.06, 0.03),
    ("SAT + enforcement", ("sat.minimal_repair", "synth.enforce"),
     0.0025, 0.0025),
)


def _self_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.self_time
        for name, hot in span.hot.items():
            out[name] += hot[SELF]
    return out


def _total_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.duration
        for name, hot in span.hot.items():
            out[name] += hot[TOTAL]
    return out


def ledger_lines(workload: str, spans: List[Span], wall: float,
                 op_times: Dict[str, float], main_pid: int) -> List[str]:
    """Self-time shares per layer, and the ROADMAP comparison.

    Shares are of the summed self time of every process (the pass's
    work); time the engine spends blocked on pool workers is listed
    separately, since the workers' own spans cover it."""
    work = _work(spans)
    lines = ["ledger %s: self time per layer; traced pass %.3f s, work "
             "%.3f s summed over processes" % (workload, wall, work)]
    groups = (("engine process", [s for s in spans if s.pid == main_pid]),
              ("pool workers", [s for s in spans if s.pid != main_pid]))
    for title, group in groups:
        if not group:
            continue
        own = _self_by_name(group)
        lines.append("  %s:" % title)
        for layer, names in LAYERS:
            seconds = sum(own.get(n, 0.0) for n in names)
            if seconds > 0:
                lines.append("    %-10s %9.4f s  %6.2f%%"
                             % (layer, seconds, 100.0 * seconds / work))
        if own.get(WAIT, 0.0) > 0:
            lines.append("    %-10s %9.4f s  (blocked on workers)"
                         % ("waiting", own[WAIT]))
    scopes = [("whole pass", spans)]
    if ROADMAP_OP in op_times:
        # The ROADMAP profiled this row alone.
        scopes.append((ROADMAP_OP, [s for s in spans if s.op == ROADMAP_OP]))
    for scope, group in scopes:
        total = _total_by_name(group)
        seconds = _work(group)
        for label, names, expected, tolerance in ROADMAP:
            share = sum(total.get(n, 0.0) for n in names) / seconds
            verdict = ("agrees" if abs(share - expected) <= tolerance
                       else "DISAGREES")
            lines.append("  ROADMAP (%s): %s %.1f%% inclusive vs ~%.1f%% "
                         "-> %s" % (scope, label, 100 * share,
                                    100 * expected, verdict))
    if workload != "table3_synth":
        lines.append("  (the ROADMAP's figures profile serial Table-3 "
                     "synthesis; %s is a different mix)" % workload)
    return lines


def _work(spans: List[Span]) -> float:
    """Summed self time of every span and hot call, waiting excluded."""
    own = _self_by_name(spans)
    return sum(v for name, v in own.items() if name != WAIT) or 1e-9


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
