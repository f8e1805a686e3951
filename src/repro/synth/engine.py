"""The dynamic synthesis engine — Algorithm 1 of the paper.

Round-based loop: run K executions under the flush-delaying scheduler;
check each against the specification; accumulate ``avoid(p)`` clauses for
the violating ones; when the round ends, enforce a minimal satisfying
assignment of Φ as fences and reset Φ; terminate when a whole round
exposes no violation (or a violating execution has no repairing predicate,
the "cannot be fixed" abort).

The paper's non-deterministic choice "?" of when to enforce is realised —
as in DFENCE — by the executions-per-round count K.
"""

from __future__ import annotations

import enum
import time
from typing import Dict, List, Optional, Sequence

from ..ir.module import Module
from ..obs.recorder import NULL_RECORDER, NullRecorder
from ..parallel.pool import ExecutionPool, Job, make_pool
from ..sched.replay import Witness
from ..spec.specifications import Specification
from ..vm.compile import COMPILE_STATS, compile_stats_delta
from ..vm.interp import DEFAULT_MAX_STEPS
from .enforce import (
    FencePlacement,
    enforce,
    fence_still_present,
    synthesized_fences,
)
from .formula import RepairFormula

#: Seed offset applied to check-only (``test_program``) runs so that
#: validation never replays the exact executions synthesis already saw:
#: ``synthesize`` uses seeds ``cfg.seed + 0 .. cfg.seed + rounds*K - 1``,
#: while check-only sampling starts at ``cfg.seed + CHECK_SEED_STRIDE``.
#: The stride (2**24 ≈ 16.7M) exceeds any realistic rounds×K product.
CHECK_SEED_STRIDE = 1 << 24


class SynthesisOutcome(enum.Enum):
    CLEAN = "clean"             # a full round with no violations
    CANNOT_FIX = "cannot_fix"   # violation with no repairing predicate
    ROUND_LIMIT = "round_limit"  # max_rounds exhausted while still failing


class SynthesisConfig:
    """Tunable parameters of the engine (the paper's four dimensions).

    ``workers`` selects the execution backend: ``None`` runs every
    execution in-process (serial, the default); ``0`` fans rounds out to
    one worker process per CPU; a positive integer uses exactly that many
    worker processes.  All settings produce identical results — see
    ``repro.parallel`` for the determinism contract.
    """

    def __init__(self, memory_model: str = "pso", flush_prob: float = 0.5,
                 executions_per_round: int = 200, max_rounds: int = 12,
                 seed: int = 0, max_steps: int = DEFAULT_MAX_STEPS,
                 merge_fences: bool = True, por: bool = True,
                 abort_on_unfixable: bool = False,
                 workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 witness_limit: int = 5) -> None:
        self.memory_model = memory_model
        self.flush_prob = flush_prob
        self.executions_per_round = executions_per_round
        self.max_rounds = max_rounds
        self.seed = seed
        self.max_steps = max_steps
        self.merge_fences = merge_fences
        self.por = por
        #: The paper's Algorithm 1 aborts on the first violating execution
        #: whose avoid(p) is empty.  The default here is the softer policy:
        #: count such executions and declare CANNOT_FIX only when a round's
        #: violations are *all* unfixable (no repair clause to enforce) —
        #: one blind-spot execution then cannot mask repairs that other
        #: violating executions of the same round do expose.
        self.abort_on_unfixable = abort_on_unfixable
        self.workers = workers
        #: Jobs per worker batch (None → sized by the pool).
        self.chunk_size = chunk_size
        if witness_limit < 0:
            raise ValueError("witness_limit must be non-negative")
        #: Reproducible violation witnesses kept per round (0 disables).
        self.witness_limit = witness_limit


class RoundReport:
    """What happened during one round of K executions."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.executions = 0
        self.violations = 0
        self.unfixable = 0           # violations with an empty avoid(p)
        self.discarded = 0           # timeouts / deadlocks
        self.distinct_predicates = 0
        self.clauses = 0
        self.inserted: List[FencePlacement] = []
        self.example_violation: Optional[str] = None
        #: Reproducible (entry, seed) records of violating executions
        #: found this round (capped at ``SynthesisConfig.witness_limit``).
        self.witnesses: List[Witness] = []
        #: Wall-clock timing (seconds); machine-dependent, excluded from
        #: the serial ≡ parallel determinism contract.
        self.duration = 0.0
        self.execute_time = 0.0
        self.solve_time = 0.0
        self.enforce_time = 0.0

    def __repr__(self) -> str:
        return ("<Round %d: %d runs, %d violations, %d clauses, "
                "%d fences inserted>" % (
                    self.index, self.executions, self.violations,
                    self.clauses, len(self.inserted)))


class SynthesisResult:
    """Outcome of a synthesis run."""

    def __init__(self, program: Module, outcome: SynthesisOutcome,
                 rounds: List[RoundReport],
                 placements: List[FencePlacement]) -> None:
        self.program = program
        self.outcome = outcome
        self.rounds = rounds
        self.placements = placements
        #: Total wall-clock of the run (seconds); machine-dependent.
        self.duration = 0.0

    @property
    def total_executions(self) -> int:
        return sum(r.executions for r in self.rounds)

    @property
    def total_violations(self) -> int:
        return sum(r.violations for r in self.rounds)

    @property
    def fence_count(self) -> int:
        return len(synthesized_fences(self.program))

    @property
    def witnesses(self) -> List[Witness]:
        """Reproducible violating executions from every round."""
        return [w for r in self.rounds for w in r.witnesses]

    def fence_locations(self) -> List[str]:
        """Paper-style (method, line1:line2) strings, sorted."""
        return sorted("%s/%s" % (p.location(), p.kind.value)
                      for p in self.placements)

    def __repr__(self) -> str:
        return "<SynthesisResult %s: %d fences after %d rounds, %d runs>" % (
            self.outcome.value, self.fence_count, len(self.rounds),
            self.total_executions)


class CheckStats:
    """Outcome of a check-only (``test_program``) sampling run.

    ``runs`` counts completed executions, ``discarded`` the subset that
    was cut off (timeout/deadlock) and therefore never judged against the
    spec; ``violations`` only counts usable runs.  Unpacks like the legacy
    3-tuple: ``runs, violations, example = engine.test_program(...)``.
    """

    __slots__ = ("runs", "violations", "discarded", "example")

    def __init__(self, runs: int, violations: int, discarded: int,
                 example: Optional[str]) -> None:
        self.runs = runs
        self.violations = violations
        self.discarded = discarded
        self.example = example

    @property
    def usable(self) -> int:
        """Executions that actually reached the specification check."""
        return self.runs - self.discarded

    def __iter__(self):
        """Legacy unpacking: ``(runs, violations, example)``."""
        yield self.runs
        yield self.violations
        yield self.example

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CheckStats):
            return NotImplemented
        return (self.runs == other.runs
                and self.violations == other.violations
                and self.discarded == other.discarded
                and self.example == other.example)

    def __repr__(self) -> str:
        return "<CheckStats %d runs, %d violations, %d discarded>" % (
            self.runs, self.violations, self.discarded)


class SynthesisEngine:
    """Runs Algorithm 1 for one program/spec/model combination.

    ``recorder`` plugs in the observability subsystem (``repro.obs``):
    pass a :class:`~repro.obs.recorder.Recorder` to collect spans,
    metrics, and live progress.  The default is the shared no-op recorder
    — instrumentation then costs one no-op call per hook and the
    :class:`SynthesisResult` is identical to an uninstrumented run.
    """

    def __init__(self, config: SynthesisConfig,
                 recorder: Optional[NullRecorder] = None) -> None:
        self.config = config
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    def _make_pool(self) -> ExecutionPool:
        """Build the execution backend selected by ``config.workers``."""
        cfg = self.config
        return make_pool(cfg.workers, cfg.memory_model, cfg.flush_prob,
                         por=cfg.por, max_steps=cfg.max_steps,
                         chunk_size=cfg.chunk_size)

    # ------------------------------------------------------------------

    def synthesize(self, program: Module, spec: Specification,
                   entries: Sequence[str] = ("main",),
                   operations: Sequence[str] = ()) -> SynthesisResult:
        """Infer fences for *program* against *spec*.

        The input module is cloned; the returned result holds the repaired
        program.  ``entries`` lists the client entry functions (executions
        rotate through them, broadening coverage); ``operations`` names the
        functions recorded in histories.

        Each round's K executions run on the configured execution pool
        (serial in-process by default, multiprocess with ``workers`` set);
        summaries are folded in execution-index order, so the result is
        identical for every backend.
        """
        cfg = self.config
        rec = self.recorder
        module = program.clone()
        rounds: List[RoundReport] = []
        placements: List[FencePlacement] = []
        exec_counter = 0
        run_start = time.perf_counter()
        compile_before = COMPILE_STATS.snapshot() if rec.enabled else None

        with self._make_pool() as pool:
            with rec.span("broadcast"):
                pool.broadcast(module, spec, operations)
            for round_index in range(cfg.max_rounds):
                report = RoundReport(round_index)
                rounds.append(report)
                formula = RepairFormula()

                jobs: List[Job] = []
                for _ in range(cfg.executions_per_round):
                    entry = entries[exec_counter % len(entries)]
                    jobs.append((exec_counter, entry,
                                 cfg.seed + exec_counter))
                    exec_counter += 1

                outcome: Optional[SynthesisOutcome] = None
                round_start = time.perf_counter()
                with rec.span("round", index=round_index):
                    with rec.span("execute", index=round_index,
                                  jobs=len(jobs)):
                        aborted = self._fold_round(pool, jobs, report,
                                                   formula)
                    report.execute_time = \
                        time.perf_counter() - round_start
                    report.clauses = formula.num_clauses
                    report.distinct_predicates = formula.num_predicates

                    if aborted:
                        outcome = SynthesisOutcome.CANNOT_FIX
                    elif report.violations == 0:
                        outcome = SynthesisOutcome.CLEAN
                    elif formula.num_clauses == 0:
                        # Every violation this round was unfixable: the
                        # property fails independently of memory-model
                        # reordering (e.g. the algorithm itself is not
                        # linearizable).
                        outcome = SynthesisOutcome.CANNOT_FIX
                    else:
                        outcome = self._repair_round(
                            pool, module, spec, operations, report,
                            formula, placements, round_index)
                report.duration = time.perf_counter() - round_start
                rec.round_end(report, report.duration)
                if outcome is not None:
                    return self._finish(module, outcome, rounds,
                                        placements, run_start,
                                        compile_before)

        return self._finish(module, SynthesisOutcome.ROUND_LIMIT, rounds,
                            placements, run_start, compile_before)

    def _repair_round(self, pool: ExecutionPool, module: Module,
                      spec: Specification, operations: Sequence[str],
                      report: RoundReport, formula: RepairFormula,
                      placements: List[FencePlacement],
                      round_index: int) -> Optional[SynthesisOutcome]:
        """SAT-solve the round's Φ and enforce the minimal repair.

        Returns the run outcome when the round is terminal (no repair
        exists), None when synthesis continues into the next round.
        """
        cfg = self.config
        rec = self.recorder
        sat_stats: Optional[Dict[str, int]] = {} if rec.enabled else None
        solve_start = time.perf_counter()
        with rec.span("sat_solve", index=round_index,
                      clauses=report.clauses,
                      predicates=report.distinct_predicates):
            repair = formula.minimal_repair(stats=sat_stats)
        report.solve_time = time.perf_counter() - solve_start
        if sat_stats is not None:
            rec.sat(sat_stats)
        if repair is None:
            return SynthesisOutcome.CANNOT_FIX

        enforce_start = time.perf_counter()
        with rec.span("enforce", index=round_index,
                      predicates=len(repair)):
            inserted = enforce(module, repair, merge=cfg.merge_fences)
        report.enforce_time = time.perf_counter() - enforce_start
        report.inserted = inserted
        placements.extend(inserted)
        # The module changed: re-publish it to the workers for the
        # next round.
        with rec.span("broadcast", index=round_index):
            pool.broadcast(module, spec, operations)
        return None

    def _finish(self, module: Module, outcome: SynthesisOutcome,
                rounds: List[RoundReport],
                placements: List[FencePlacement],
                run_start: float,
                compile_before: Optional[dict] = None) -> SynthesisResult:
        result = SynthesisResult(module, outcome, rounds,
                                 self._surviving(module, placements))
        result.duration = time.perf_counter() - run_start
        if compile_before is not None:
            self.recorder.vm_compile(compile_stats_delta(compile_before))
        self.recorder.run_end(outcome.value, len(rounds),
                              result.fence_count, result.duration)
        return result

    def _fold_round(self, pool: ExecutionPool, jobs: Sequence[Job],
                    report: RoundReport, formula: RepairFormula) -> bool:
        """Merge one round's summaries (in index order) into the report.

        Returns True when the abort-on-unfixable policy fired; remaining
        executions are then cancelled/skipped, exactly like the serial
        loop's early return.
        """
        cfg = self.config
        rec = self.recorder
        summaries = pool.run(jobs)
        try:
            for summary in summaries:
                rec.execution(summary)
                report.executions += 1
                if not summary.usable:
                    report.discarded += 1
                    continue
                message = summary.violation
                if message is None:
                    continue
                report.violations += 1
                if report.example_violation is None:
                    report.example_violation = message
                if len(report.witnesses) < cfg.witness_limit:
                    report.witnesses.append(
                        Witness(summary.entry, summary.seed,
                                cfg.flush_prob, message, por=cfg.por))
                if not formula.add_execution(summary.predicate_objects()):
                    # avoid(p) is empty: no pending-store bypass occurred,
                    # so the predicate formalism offers no repair for this
                    # particular execution.
                    report.unfixable += 1
                    if cfg.abort_on_unfixable:
                        return True
        finally:
            summaries.close()
        return False

    # ------------------------------------------------------------------

    def test_program(self, program: Module, spec: Specification,
                     entries: Sequence[str] = ("main",),
                     operations: Sequence[str] = (),
                     executions: Optional[int] = None,
                     stop_on_first_violation: bool = False) -> CheckStats:
        """Check-only mode: run executions without repairing.

        Returns a :class:`CheckStats` (which still unpacks as the legacy
        ``(runs, violations, example)`` triple) — used both to validate
        repaired programs and to test properties under SC (e.g. the
        paper's finding that Cilk's THE queue is not linearizable even
        without memory-model effects).

        Seeds are offset by :data:`CHECK_SEED_STRIDE` from the synthesis
        seed space, so validating a repaired program samples fresh
        schedules instead of replaying the executions synthesis saw.

        With ``stop_on_first_violation`` the sampling stops — and, on the
        multiprocess backend, outstanding batches are cancelled — as soon
        as one violation is found; ``runs`` then reflects only the
        executions actually merged.  Plain counting always runs every
        execution to completion.
        """
        cfg = self.config
        rec = self.recorder
        module = program  # no mutation in check-only mode
        total = executions if executions is not None \
            else cfg.executions_per_round
        jobs: List[Job] = [
            (i, entries[i % len(entries)], cfg.seed + CHECK_SEED_STRIDE + i)
            for i in range(total)]
        runs = 0
        violations = 0
        discarded = 0
        example: Optional[str] = None
        compile_before = COMPILE_STATS.snapshot() if rec.enabled else None
        with self._make_pool() as pool:
            with rec.span("broadcast"):
                pool.broadcast(module, spec, operations)
            with rec.span("check", jobs=total):
                summaries = pool.run(jobs)
                try:
                    for summary in summaries:
                        rec.execution(summary)
                        runs += 1
                        if not summary.usable:
                            discarded += 1
                            continue
                        if summary.violation is not None:
                            violations += 1
                            if example is None:
                                example = summary.violation
                            if stop_on_first_violation:
                                break
                finally:
                    summaries.close()
        if compile_before is not None:
            rec.vm_compile(compile_stats_delta(compile_before))
        return CheckStats(runs, violations, discarded, example)

    @staticmethod
    def _surviving(module: Module,
                   placements: List[FencePlacement]) -> List[FencePlacement]:
        """Placements whose fence is still in the module (merge may have
        removed earlier-round fences)."""
        return [placement for placement in placements
                if fence_still_present(module, placement.fence_label)]
