"""The in-process execution backend (current behaviour, no dependencies).

One memory-model instance and one predicate sink are allocated per pool
and reused across every execution — the same worker-loop discipline the
process backend applies per worker, so the two backends share one code
path for the actual run+check step (:func:`run_jobs`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ..ir.module import Module
from ..memory.models import StoreBufferModel, make_model
from ..memory.predicates import PredicateSink
from ..sched.flush_random import FlushDelayScheduler
from ..spec.specifications import Specification
from ..vm.driver import run_execution
from ..vm.interp import DEFAULT_MAX_STEPS
from .pool import ExecutionPool, Job
from .summary import ExecutionSummary, summarize_execution


def run_jobs(jobs: Iterable[Job], module: Module, spec: Specification,
             operations: Sequence[str], model: StoreBufferModel,
             sink: PredicateSink, flush_prob: float, por: bool,
             max_steps: int,
             worker: Optional[str] = None) -> Iterator[ExecutionSummary]:
    """Run each job and yield its summary — the shared worker loop.

    The model and sink are reused across jobs (``run_execution`` resets
    them); every job gets a fresh scheduler seeded from the job itself, so
    results depend only on the job, never on loop position or backend.
    ``worker`` tags each summary with the identity of the loop that ran
    it (per-worker job-count metrics); it never affects results.
    """
    for (index, entry, seed) in jobs:
        scheduler = FlushDelayScheduler(seed=seed, flush_prob=flush_prob,
                                        por=por)
        result = run_execution(module, model, scheduler, entry=entry,
                               operations=operations, max_steps=max_steps,
                               sink=sink)
        violation = spec.check(result) if result.usable else None
        yield summarize_execution(index, entry, seed, result, violation,
                                  worker=worker)


class SerialPool(ExecutionPool):
    """Runs every job in the calling process, in submission order."""

    def __init__(self, model_name: str, flush_prob: float, por: bool = True,
                 max_steps: int = DEFAULT_MAX_STEPS) -> None:
        self.model_name = model_name
        self.flush_prob = flush_prob
        self.por = por
        self.max_steps = max_steps
        self._model = make_model(model_name)
        self._sink = PredicateSink()
        self._module: Optional[Module] = None
        self._spec: Optional[Specification] = None
        self._operations: Sequence[str] = ()

    def broadcast(self, module: Module, spec: Specification,
                  operations: Sequence[str] = ()) -> None:
        self._module = module
        self._spec = spec
        self._operations = tuple(operations)

    def run(self, jobs: Iterable[Job]) -> Iterator[ExecutionSummary]:
        if self._module is None or self._spec is None:
            raise RuntimeError("broadcast() must be called before run()")
        return run_jobs(jobs, self._module, self._spec, self._operations,
                        self._model, self._sink, self.flush_prob, self.por,
                        self.max_steps, worker="serial")
