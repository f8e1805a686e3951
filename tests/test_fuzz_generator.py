"""The random program generator: deterministic, bounded, compilable."""

import pytest

from repro.fuzz.generator import (
    GeneratorConfig,
    ProgramGenerator,
    _access_cost,
)
from repro.memory import make_model
from repro.sched.flush_random import FlushDelayScheduler
from repro.vm.driver import run_execution

pytestmark = pytest.mark.fuzz

SEEDS = range(30)


def total_accesses(program):
    return sum(_access_cost(stmt)
               for body in program.threads for stmt in body)


def test_same_seed_same_program():
    gen = ProgramGenerator()
    for seed in SEEDS:
        first = gen.generate(seed)
        second = gen.generate(seed)
        assert first.source() == second.source()
        # A second generator instance agrees too (no hidden state).
        assert ProgramGenerator().generate(seed).source() == first.source()


def test_different_seeds_differ():
    gen = ProgramGenerator()
    sources = {gen.generate(seed).source() for seed in SEEDS}
    assert len(sources) > len(SEEDS) // 2


def test_programs_compile_and_run():
    gen = ProgramGenerator()
    for seed in SEEDS:
        module = gen.generate(seed).compile()
        assert "main" in module.functions
        result = run_execution(module, make_model("pso"),
                               FlushDelayScheduler(seed=0, flush_prob=0.3),
                               collect_predicates=False)
        assert result.usable, (seed, result.error)
        assert result.thread_results is not None
        assert all(r is not None for r in result.thread_results), seed


def test_bounds_respected():
    cfg = GeneratorConfig()
    gen = ProgramGenerator(cfg)
    for seed in SEEDS:
        program = gen.generate(seed)
        assert cfg.min_globals <= len(program.global_vars) <= cfg.max_globals
        assert 2 <= len(program.threads) <= 3
        cap = cfg.max_accesses if len(program.threads) == 2 \
            else cfg.max_accesses_three_threads
        assert cfg.min_accesses <= total_accesses(program) <= cap, seed
        for body in program.threads:
            assert len(body) <= cfg.max_stmts_per_body


def test_programs_iterator_matches_generate():
    gen = ProgramGenerator()
    streamed = [p.source() for p in gen.programs(5, 4)]
    direct = [gen.generate(seed).source() for seed in range(5, 9)]
    assert streamed == direct


def test_skeletons_make_some_programs_racy():
    """With conflict skeletons planted, a fair share of programs must
    actually exhibit relaxed behaviour — otherwise the synthesis oracle
    never runs and the campaign fuzzes only the easy half of the system.
    """
    from repro.fuzz.oracles import thread_results
    from repro.sched.explorer import explore

    gen = ProgramGenerator()
    racy = 0
    for seed in range(8):
        module = gen.generate(seed).compile()
        sc = explore(module, "sc", outcome_fn=thread_results,
                     max_paths=30_000)
        pso = explore(module, "pso", outcome_fn=thread_results,
                      max_paths=30_000)
        if sc.complete and pso.complete \
                and pso.outcomes - sc.outcomes:
            racy += 1
    assert racy >= 2


def test_clone_is_deep():
    program = ProgramGenerator().generate(0)
    copy = program.clone()
    assert copy.source() == program.source()
    copy.threads[0].insert(0, copy.threads[0][0].clone())
    assert copy.source() != program.source()
