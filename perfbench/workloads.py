"""The four workloads: operation lists, set-up, verdicts and answers.

Every workload is a fixed list of *operations*; each operation drives one
public entry point of the program and returns one JSON-able verdict:

* ``table3_synth`` / ``table3_synth_j2`` — ``SynthesisEngine.synthesize``
  on seven Table-3 rows (serial / ``workers=2``);
* ``certify_explore`` — ``repro.sched.explorer.explore`` on 39 client
  entries of the fenced programs;
* ``fuzz_campaign`` — ``run_campaign`` on one generated program.

``check`` compares a verdict with the committed answer (``answers.json``)
and lists every problem; an empty list means the operation passed.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS_PATH = os.path.join(HERE, "answers.json")

WORKLOADS = ("table3_synth", "table3_synth_j2", "certify_explore",
             "fuzz_campaign")

#: Table-3 rows: (algorithm, specification, memory model).
TABLE3_ROWS = (
    ("chase_lev", "sc", "pso"),
    ("chase_lev", "sc", "tso"),
    ("cilk_the", "sc", "pso"),
    ("fifo_wsq", "sc", "pso"),
    ("msn_queue", "sc", "pso"),
    ("lifo_iwsq", "memory_safety", "pso"),
    ("michael_allocator", "memory_safety", "pso"),
)
EXECUTIONS_PER_ROUND = 600
MAX_ROUNDS = 12
#: The Table-3 configuration's synthesis seed (EXPERIMENTS.md).
TABLE3_SEED = 7

#: Rows whose repaired program is certified (every client entry), plus
#: lazy_list, which needs no fence, on two of its clients under PSO.
CERTIFY_ROWS = TABLE3_ROWS[:6]
CERTIFY_EXTRA = (("lazy_list", "pso", ("client1", "client3")),)
CERTIFY_MAX_STEPS = 4000
CERTIFY_REDUCTION = "sleep+cache"

FUZZ_SEED = 0
FUZZ_ITERS = 40

#: Per-op trace counts that are part of the known answer (the RNG draw
#: sequence must stay byte-identical); other counts only report drift.
JOINED_COUNTS = ("vm.steps", "memory.flushes", "sched.decisions")

#: Per-op counts that depend on the order operations run in: entries of
#: one certified program share its compiled code, so the first one to
#: run compiles it; a snapshot's pickled size depends on which equal
#: strings the process happens to share.  Both repeat exactly at one
#: ``--seed``.
ORDER_DEPENDENT = ("vm.compiled_functions", "explorer.snapshot_bytes")

Verdict = dict
Operation = Tuple[str, Callable[[], Verdict]]


def row_id(row) -> str:
    return "/".join(row)


def default_input_seed(workload: str) -> Optional[int]:
    if workload.startswith("table3"):
        return TABLE3_SEED
    if workload == "fuzz_campaign":
        return FUZZ_SEED
    return None


def answer_key(workload: str, input_seed: Optional[int]) -> str:
    """Serial and -j2 synthesis share one answer set."""
    if workload.startswith("table3"):
        return "table3_synth@%d" % input_seed
    if workload == "fuzz_campaign":
        return "fuzz_campaign@%d" % input_seed
    return workload


def load_answers() -> dict:
    with open(ANSWERS_PATH) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Verdicts

def synth_verdict(result) -> Verdict:
    return {
        "outcome": result.outcome.value,
        "fences": result.fence_locations(),
        "rounds": len(result.rounds),
        "executions": result.total_executions,
        "violations_per_round": [r.violations for r in result.rounds],
        "repair": [[p.predicate.store_label, p.predicate.access_label,
                    p.predicate.kind.value] for p in result.placements],
    }


def explore_verdict(result) -> Verdict:
    stats = result.stats
    return {
        "complete": result.complete,
        "outcomes": sorted(list(o) for o in result.outcomes),
        "violations": sorted(result.violations),
        # Reduction counters: recorded, drift is reported, never failed.
        "explorer": {"paths": stats.paths, "pruned": stats.pruned,
                     "cache_hits": stats.cache_hits,
                     "cache_states": stats.cache_states},
    }


def fuzz_verdict(report) -> Verdict:
    return {
        "ok": report.ok,
        "inconclusive": len(report.inconclusive),
        "failures": ["%s/%s: %s" % (v.oracle, v.model, v.detail)
                     for f in report.failures for v in f.failures],
        "violating": bool(report.violating_seeds),
        "explorer": {"paths": report.paths, "pruned": report.pruned,
                     "cache_hits": report.cache_hits},
    }


#: Verdict keys that may drift without failing the operation.
DRIFT_KEYS = ("explorer",)


def inconclusive(workload: str, verdict: Verdict) -> List[str]:
    """Seed-independent failures: budget hits and failed oracles."""
    problems = []
    if workload.startswith("table3"):
        if verdict["outcome"] == "round_limit":
            problems.append("ROUND_LIMIT after %d rounds" % verdict["rounds"])
    elif workload == "certify_explore":
        if not verdict["complete"]:
            problems.append("exploration incomplete (path budget)")
    else:
        if verdict["inconclusive"]:
            problems.append("%d inconclusive oracle(s)"
                            % verdict["inconclusive"])
        problems.extend("oracle failed: " + f for f in verdict["failures"])
    return problems


def check(workload: str, op_id: str, verdict: Verdict,
          answer: Optional[dict]) -> Tuple[List[str], List[str]]:
    """``(problems, drift)`` of *verdict* against the committed *answer*
    (``None`` when this input seed ships no answer)."""
    problems = inconclusive(workload, verdict)
    drift: List[str] = []
    if answer is None:
        return problems, drift
    for key, value in verdict.items():
        expected = answer["verdict"].get(key)
        if value == expected:
            continue
        text = "%s: %r, expected %r" % (key, value, expected)
        (drift if key in DRIFT_KEYS else problems).append(text)
    return problems, drift


def check_counts(workload: str, op_id: str, counts: Dict[str, float],
                 answer: Optional[dict]) -> Tuple[List[str], List[str]]:
    """Traced per-op counts against the committed ones: the joined
    counts fail the operation, every other count only reports drift."""
    problems: List[str] = []
    drift: List[str] = []
    if answer is None or "counts" not in answer:
        return problems, drift
    for name, expected in sorted(answer["counts"].items()):
        value = counts.get(name)
        if value == expected:
            continue
        text = "%s: %r, expected %r" % (name, value, expected)
        if name in JOINED_COUNTS:
            problems.append(text)
        elif workload != "table3_synth_j2" and name not in ORDER_DEPENDENT:
            # Under -j2 compile and IPC counts depend on which worker
            # ran which batch; only the joined counts are exact there.
            drift.append(text)
    return problems, drift


# ----------------------------------------------------------------------
# Set-up and operation lists

def _bundle(name):
    """The bundle and its freshly compiled module.  MiniC compilation
    happens here, in set-up, through the public front end (looked up at
    call time, so a traced set-up sees it).  Operations never mutate the
    module: synthesis clones its input, exploration only reads it."""
    from repro.algorithms import ALGORITHMS
    from repro.minic import lower

    bundle = ALGORITHMS[name]
    return bundle, lower.compile_source(bundle.source, bundle.name)


def _synth_ops(input_seed: int, workers: Optional[int]) -> List[Operation]:
    from repro.synth import SynthesisConfig, SynthesisEngine

    ops = []
    for row in TABLE3_ROWS:
        name, kind, model = row
        bundle, module = _bundle(name)

        def run(bundle=bundle, module=module, kind=kind,
                model=model) -> Verdict:
            config = SynthesisConfig(
                memory_model=model, flush_prob=bundle.flush_prob[model],
                executions_per_round=EXECUTIONS_PER_ROUND,
                max_rounds=MAX_ROUNDS, seed=input_seed, workers=workers)
            result = SynthesisEngine(config).synthesize(
                module, bundle.spec(kind),
                entries=bundle.entries, operations=bundle.operations)
            return synth_verdict(result)
        ops.append((row_id(row), run))
    return ops


def start_pool() -> None:
    """Pool start for set-up: fork two workers and make one round trip
    (the cost each ``workers=2`` synthesis pays before its first round)."""
    from repro.parallel.pool import make_pool

    name, kind, model = TABLE3_ROWS[0]
    bundle, module = _bundle(name)
    with make_pool(2, model, bundle.flush_prob[model]) as pool:
        pool.broadcast(module, bundle.spec(kind), bundle.operations)
        jobs = [(i, bundle.entries[0], i) for i in range(2)]
        for _summary in pool.run(jobs):
            pass


def fenced_program(row, answers: dict):
    """Rebuild a row's repaired program from its committed repair."""
    from repro.ir.instructions import FenceKind
    from repro.memory.predicates import OrderingPredicate
    from repro.synth.enforce import enforce, synthesized_fences

    bundle, module = _bundle(row[0])
    verdict = answers["table3_synth@%d" % TABLE3_SEED][row_id(row)]["verdict"]
    enforce(module, [OrderingPredicate(store, access, FenceKind(kind))
                     for store, access, kind in verdict["repair"]])
    fences = len(synthesized_fences(module))
    if fences != len(verdict["fences"]):
        raise RuntimeError("rebuilt %s has %d fences, answer has %d"
                           % (row_id(row), fences, len(verdict["fences"])))
    return bundle, module


def _certify_ops(answers: dict) -> List[Operation]:
    from repro.sched import explorer

    targets = []
    for row in CERTIFY_ROWS:
        bundle, module = fenced_program(row, answers)
        targets.append((row_id(row), module, row[2], bundle.entries))
    for name, model, entries in CERTIFY_EXTRA:
        targets.append(("%s/-/%s" % (name, model), _bundle(name)[1],
                        model, entries))

    ops = []
    for target, module, model, entries in targets:
        outcome_globals = tuple(sorted(module.globals))
        for entry in entries:
            def run(module=module, model=model, entry=entry,
                    outcome_globals=outcome_globals) -> Verdict:
                # Looked up at call time, so a traced run sees the wrapper.
                return explore_verdict(explorer.explore(
                    module, model, entry=entry,
                    outcome_globals=outcome_globals,
                    reduction=CERTIFY_REDUCTION,
                    max_steps=CERTIFY_MAX_STEPS))
            ops.append(("%s:%s" % (target, entry), run))
    return ops


def _fuzz_ops(input_seed: int) -> List[Operation]:
    from repro.fuzz import runner

    ops = []
    for seed in range(input_seed, input_seed + FUZZ_ITERS):
        def run(seed=seed) -> Verdict:
            return fuzz_verdict(runner.run_campaign(
                seed, iters=1, shrink_failures=False))
        ops.append(("fuzz:%d" % seed, run))
    return ops


def setup(workload: str, input_seed: Optional[int],
          answers: dict) -> List[Operation]:
    """Everything before the first operation: imports, MiniC
    compilation, fenced-program rebuild and pool start."""
    if workload == "table3_synth":
        return _synth_ops(input_seed, None)
    if workload == "table3_synth_j2":
        ops = _synth_ops(input_seed, 2)
        start_pool()
        return ops
    if workload == "certify_explore":
        return _certify_ops(answers)
    if workload == "fuzz_campaign":
        return _fuzz_ops(input_seed)
    raise ValueError("unknown workload %r" % workload)
