"""The delta-debugging shrinker."""

import pytest

from repro.fuzz.generator import (
    FuzzProgram,
    LoadStmt,
    LoopStmt,
    ProgramGenerator,
    StoreStmt,
)
from repro.fuzz.oracles import thread_results
from repro.fuzz.shrink import shrink
from repro.sched.explorer import explore

pytestmark = pytest.mark.fuzz


def relaxed_under_pso(program):
    """The 'failure' used for shrinking: PSO admits non-SC outcomes."""
    module = program.compile()
    sc = explore(module, "sc", outcome_fn=thread_results, max_paths=50_000)
    pso = explore(module, "pso", outcome_fn=thread_results,
                  max_paths=50_000)
    return (sc.complete and pso.complete
            and bool(pso.outcomes - sc.outcomes))


def violating_program():
    gen = ProgramGenerator()
    for seed in range(50):
        program = gen.generate(seed)
        if relaxed_under_pso(program):
            return program
    pytest.fail("no violating program in the first 50 seeds")


def test_seeded_failure_shrinks_to_litmus_size():
    """Acceptance: a fuzz-found relaxed-behaviour witness minimizes to
    at most 10 MiniC statements, and the minimized program still
    exhibits the behaviour."""
    program = violating_program()
    shrunk = shrink(program, relaxed_under_pso)
    assert relaxed_under_pso(shrunk)
    assert shrunk.statement_count() <= 10
    assert shrunk.statement_count() <= program.statement_count()


def test_original_program_is_not_mutated():
    program = violating_program()
    before = program.source()
    shrink(program, relaxed_under_pso)
    assert program.source() == before


def test_always_failing_predicate_reaches_minimum():
    program = ProgramGenerator().generate(0)
    shrunk = shrink(program, lambda candidate: True)
    # Everything droppable goes: no forked threads, no statements.
    assert len(shrunk.threads) == 1
    assert shrunk.statement_count() == 0


def test_never_failing_predicate_returns_input_unchanged():
    program = ProgramGenerator().generate(0)
    shrunk = shrink(program, lambda candidate: False)
    assert shrunk.source() == program.source()


def test_loop_unwrapping_and_constant_shrinking():
    program = FuzzProgram(
        seed=0, global_vars=["A", "B"],
        threads=[[LoopStmt(3, [StoreStmt("A", 3)])],
                 [LoadStmt(0, "A"), StoreStmt("B", 2)]])

    def touches_a(candidate):
        return "A" in candidate.source()

    shrunk = shrink(program, touches_a)
    # The loop is gone (unwrapped or dropped); one A-access remains.
    assert shrunk.statement_count() <= 1
    assert "A" in shrunk.source()
