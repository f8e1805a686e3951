"""Differential validation of the closure-compiled VM.

:class:`repro.vm.interp.VM`, which runs closure-compiled bodies, must be
observationally identical to the generic interpreter kept in
``tests/reference_vm.py`` — same outcomes, same operation histories, same
``avoid(p)`` predicates, same step/seq/flush counters, same coverage
sets, and (through the engine) the same synthesized fences.  The
interpreter is the audited reference; these tests are what make the
compiled VM trustworthy.

The fast subset runs in every tier-1 invocation; the full sweep (whole
litmus catalog, corpus reproducers, fresh fuzz programs per model) is
``slow``-marked and runs in CI's explore-equivalence job.
"""

import contextlib
import glob
import os

import pytest

from repro.fuzz.generator import ProgramGenerator
from repro.ir.instructions import FenceKind, Store
from repro.ir.passes.fences import insert_fence_after
from repro.litmus import LITMUS_TESTS, thread_results
from repro.memory.models import make_model
from repro.minic import compile_source
from repro.sched.explorer import explore
from repro.sched.flush_random import FlushDelayScheduler
from repro.spec import MemorySafetySpec
from repro.synth import SynthesisConfig, SynthesisEngine
from repro.vm.compile import (
    COMPILE_STATS,
    code_for,
    compile_stats_delta,
    make_vm,
)
from repro.vm.driver import run_execution
from repro.vm.interp import VM
from tests.reference_vm import ReferenceVM, reference_vms

MODELS = ["sc", "tso", "pso"]
FAST_LITMUS = ["sb", "mp", "coww", "sb_one_fence"]
CORPUS_FILES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "corpus", "*.c")))

#: Scheduler seeds per program for execution-level differentials.
EXEC_SEEDS = 8
#: Fresh fuzz programs per memory model for the slow sweep.
FUZZ_SEEDS = 10

SB_SOURCE = """
int X; int Y;
int t1() { X = 1; int r = Y; return r; }
int main() {
  int t = fork(t1);
  Y = 1;
  int r = X;
  join(t);
  return r;
}
"""

OP_SOURCE = """
int X;
int bump(int n) { X = X + n; return X; }
int main() {
  int a = bump(2);
  int b = bump(3);
  return a + b;
}
"""

MP_ASSERT = """
int DATA;
int FLAG;

void reader() {
  while (FLAG == 0) {}
  assert(DATA == 1);
}

int main() {
  int t = fork(reader);
  DATA = 1;
  FLAG = 1;
  join(t);
  return 0;
}
"""


# ----------------------------------------------------------------------
# Fingerprints

#: The two legs of every comparison, reference first: each is a context
#: manager under which ``make_vm`` builds that leg's VM.
LEGS = (reference_vms, contextlib.nullcontext)


def _result_fingerprint(result):
    """Everything observable about one execution, as plain tuples."""
    history = tuple(
        (op.tid, op.name, tuple(op.args), op.result, op.call_seq,
         op.ret_seq)
        for op in result.history)
    predicates = tuple(
        (p.store_label, p.access_label, p.kind.value)
        for p in result.predicates)
    return (result.status.value, result.error, result.steps,
            result.flushes, result.thread_results, predicates, history)


def assert_executions_equivalent(module, model_name, operations=(),
                                 seeds=range(EXEC_SEEDS),
                                 flush_prob=0.4):
    """Seed-for-seed, the VM and the reference produce identical
    executions."""
    for seed in seeds:
        prints = []
        for leg in LEGS:
            scheduler = FlushDelayScheduler(seed=seed,
                                            flush_prob=flush_prob)
            coverage = set()
            with leg():
                result = run_execution(
                    module, make_model(model_name), scheduler,
                    operations=operations, coverage=coverage,
                    max_steps=20_000)
            prints.append((_result_fingerprint(result),
                           frozenset(coverage)))
        assert prints[0] == prints[1], (model_name, seed)


def assert_explorations_equivalent(module, model_name, max_paths=60_000,
                                   max_steps=2_000):
    """Exhaustive enumeration agrees path-for-path on both legs."""
    runs = []
    for leg in LEGS:
        with leg():
            runs.append(explore(module, model_name,
                                outcome_fn=thread_results,
                                max_paths=max_paths, max_steps=max_steps))
    base, new = runs
    assert new.complete == base.complete, model_name
    assert new.outcomes == base.outcomes, model_name
    assert new.violations == base.violations, model_name
    assert new.paths == base.paths, model_name


# ----------------------------------------------------------------------
# Fast subset (tier-1)

@pytest.mark.parametrize("name", FAST_LITMUS)
@pytest.mark.parametrize("model", MODELS)
def test_litmus_executions_match(name, model):
    assert_executions_equivalent(LITMUS_TESTS[name].compile(), model)


@pytest.mark.parametrize("model", MODELS)
def test_operation_histories_match(model):
    """Recorded operations (call/ret seq numbers included) agree."""
    module = compile_source(OP_SOURCE, "ops")
    assert_executions_equivalent(module, model, operations=("bump",))


@pytest.mark.parametrize("name", FAST_LITMUS)
@pytest.mark.parametrize("model", MODELS)
def test_litmus_explorations_match(name, model):
    assert_explorations_equivalent(LITMUS_TESTS[name].compile(), model)


@pytest.mark.parametrize("model,source",
                         [pytest.param("tso", SB_SOURCE, id="tso-sb"),
                          pytest.param("pso", MP_ASSERT, id="pso-mp")])
def test_synthesized_fences_match(model, source):
    """The whole engine — rounds, clauses, placements — is backend-blind."""
    results = []
    for leg in LEGS:
        engine = SynthesisEngine(SynthesisConfig(
            memory_model=model, flush_prob=0.3, executions_per_round=200,
            max_rounds=6, seed=7))
        module = compile_source(source, "prog")
        with leg():
            result = engine.synthesize(module, MemorySafetySpec())
        results.append((
            result.outcome,
            result.total_executions,
            tuple((p.location(), p.kind.value) for p in result.placements),
            tuple((r.violations, r.discarded, r.clauses,
                   tuple(f.fence_label for f in r.inserted))
                  for r in result.rounds),
        ))
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# Compile-cache invalidation (fence insertion bumps body_version)

def test_fence_insertion_recompiles_only_repaired_function():
    module = compile_source(SB_SOURCE, "sb")
    main, t1 = module.functions["main"], module.functions["t1"]
    code_main, code_t1 = code_for(main), code_for(t1)

    before = COMPILE_STATS.snapshot()
    assert code_for(main) is code_main
    assert code_for(t1) is code_t1
    delta = compile_stats_delta(before)
    assert delta["cache_hits"] == 2
    assert delta["functions"] == 0

    version_main, version_t1 = main.body_version, t1.body_version
    store_label = next(i.label for i in main.body
                       if isinstance(i, Store))
    insert_fence_after(module, store_label, FenceKind.ST_ST)
    assert main.body_version == version_main + 1
    assert t1.body_version == version_t1

    before = COMPILE_STATS.snapshot()
    recompiled = code_for(main)
    assert recompiled is not code_main
    assert recompiled.version == main.body_version
    assert code_for(t1) is code_t1  # untouched function: cached closures
    delta = compile_stats_delta(before)
    assert delta["functions"] == 1
    assert delta["recompiles"] == 1
    assert delta["cache_hits"] == 1


def test_repaired_module_executes_identically():
    """After a fence lands, the VM and the reference see the repaired
    body."""
    module = compile_source(SB_SOURCE, "sb")
    store_label = next(i.label for i in module.functions["main"].body
                       if isinstance(i, Store))
    insert_fence_after(module, store_label, FenceKind.FULL)
    for model in MODELS:
        assert_executions_equivalent(module, model, seeds=range(4))


@pytest.mark.parametrize("backend,expected",
                         [("compiled", VM), ("interpreted", ReferenceVM)],
                         indirect=["backend"])
def test_backend_fixture_selects_the_vm(backend, expected):
    """Sanity: the two legs really build different VMs."""
    vm = make_vm(compile_source(OP_SOURCE, "ops"), make_model("sc"))
    assert type(vm) is expected


# ----------------------------------------------------------------------
# Full sweep (slow; CI explore-equivalence job)

@pytest.mark.slow
@pytest.mark.parametrize("model", MODELS)
def test_sweep_litmus_catalog(model):
    for name in sorted(LITMUS_TESTS):
        module = LITMUS_TESTS[name].compile()
        assert_executions_equivalent(module, model, seeds=range(4))
        assert_explorations_equivalent(module, model, max_paths=120_000)


@pytest.mark.slow
@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
@pytest.mark.parametrize("model", MODELS)
def test_sweep_corpus(path, model):
    with open(path) as handle:
        module = compile_source(handle.read(), os.path.basename(path))
    assert_executions_equivalent(module, model, seeds=range(4))
    assert_explorations_equivalent(module, model)


@pytest.mark.slow
@pytest.mark.parametrize("model", MODELS)
def test_sweep_fuzz_programs(model):
    generator = ProgramGenerator()
    for seed in range(FUZZ_SEEDS):
        module = generator.generate(seed).compile()
        assert_executions_equivalent(module, model, seeds=range(4))
        assert_explorations_equivalent(module, model, max_paths=120_000,
                                       max_steps=4_000)
