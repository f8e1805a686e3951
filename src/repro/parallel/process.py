"""The multiprocess execution backend.

Built on :class:`concurrent.futures.ProcessPoolExecutor`:

* A per-worker initializer installs the static run configuration (memory
  model name, flush probability, POR, step budget) and allocates one
  long-lived :class:`StoreBufferModel` + :class:`PredicateSink` pair that
  every execution in that worker reuses.
* The engine broadcasts the module under repair (and the spec) as one
  pickled blob per round; each *batch* submission carries the blob plus
  its version, and a worker deserializes it only when the version moved —
  i.e. once per worker per round, re-broadcast after every ``enforce()``.
* Jobs are shipped in batches (chunks) to amortize IPC, and come back as
  compact :class:`ExecutionSummary` records, never live VM objects.

``run`` yields summaries in execution-index order regardless of worker
scheduling: batches are submitted in index order and their futures are
consumed in submission order.  Closing the generator early cancels every
batch that has not started yet.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, List, Optional, Sequence

from ..ir.module import Module
from ..memory.models import make_model
from ..memory.predicates import PredicateSink
from ..spec.specifications import Specification
from ..vm.interp import DEFAULT_MAX_STEPS
from .pool import ExecutionPool, Job
from .serial import run_jobs
from .summary import ExecutionSummary

#: Target number of batches per worker: >1 so a slow batch cannot stall
#: the round (load balancing), small enough to amortize per-batch IPC.
BATCHES_PER_WORKER = 4

# ----------------------------------------------------------------------
# Worker-side state (one copy per worker process)

_worker_state: dict = {}


def _init_worker(model_name: str, flush_prob: float, por: bool,
                 max_steps: int) -> None:
    """Per-worker initializer: static config + reusable model and sink."""
    _worker_state.clear()
    _worker_state.update(
        model=make_model(model_name),
        sink=PredicateSink(),
        flush_prob=flush_prob,
        por=por,
        max_steps=max_steps,
        version=None,
        module=None,
        spec=None,
        operations=(),
        worker="pid%d" % os.getpid(),
    )


def _run_batch(version: int, blob: bytes,
               jobs: List[Job]) -> List[ExecutionSummary]:
    """Execute one batch of jobs against the blob's module snapshot."""
    state = _worker_state
    if state.get("version") != version:
        module, spec, operations = pickle.loads(blob)
        state["version"] = version
        state["module"] = module
        state["spec"] = spec
        state["operations"] = operations
    return list(run_jobs(jobs, state["module"], state["spec"],
                         state["operations"], state["model"], state["sink"],
                         state["flush_prob"], state["por"],
                         state["max_steps"], worker=state["worker"]))


def _mp_context():
    """Prefer fork (cheap workers, no re-import) where it exists."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# ----------------------------------------------------------------------


class ProcessPool(ExecutionPool):
    """Fans rounds of executions out to worker processes."""

    def __init__(self, workers: int, model_name: str, flush_prob: float,
                 por: bool = True, max_steps: int = DEFAULT_MAX_STEPS,
                 chunk_size: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError("ProcessPool needs at least one worker")
        self.workers = workers
        self.model_name = model_name
        self.flush_prob = flush_prob
        self.por = por
        self.max_steps = max_steps
        self.chunk_size = chunk_size
        self._executor: Optional[ProcessPoolExecutor] = None
        self._version = 0
        self._blob: Optional[bytes] = None

    # -- lifecycle -----------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_mp_context(),
                initializer=_init_worker,
                initargs=(self.model_name, self.flush_prob, self.por,
                          self.max_steps))
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- round protocol ------------------------------------------------

    def broadcast(self, module: Module, spec: Specification,
                  operations: Sequence[str] = ()) -> None:
        """Pickle the module snapshot once; workers deserialize lazily."""
        self._version += 1
        self._blob = pickle.dumps(
            (module, spec, tuple(operations)),
            protocol=pickle.HIGHEST_PROTOCOL)

    def _chunk(self, jobs: List[Job]) -> List[List[Job]]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(jobs) // (self.workers * BATCHES_PER_WORKER)))
        return [jobs[i:i + size] for i in range(0, len(jobs), size)]

    def run(self, jobs: Iterable[Job]) -> Iterator[ExecutionSummary]:
        if self._blob is None:
            raise RuntimeError("broadcast() must be called before run()")
        job_list = list(jobs)
        return self._run_batches(job_list)

    def _run_batches(self, job_list: List[Job]
                     ) -> Iterator[ExecutionSummary]:
        if not job_list:
            return
        executor = self._ensure_executor()
        futures = [executor.submit(_run_batch, self._version, self._blob,
                                   batch)
                   for batch in self._chunk(job_list)]
        try:
            for future in futures:
                for summary in future.result():
                    yield summary
        finally:
            # Early generator close (engine round decided, test_program
            # early stop): drop every batch that has not started.
            for future in futures:
                future.cancel()
