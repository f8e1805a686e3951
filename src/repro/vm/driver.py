"""Execution driver: run one program once and package the outcome.

The driver wires together module + memory model + scheduler + predicate
sink, runs to completion, and returns an :class:`ExecutionResult` holding
the status, the operation history (for SC/linearizability checking), and
the ordering predicates collected by the instrumented semantics (the
paper's ``avoid(p)`` repair disjunction for this execution).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

from ..ir.module import Module
from typing import TYPE_CHECKING

from ..memory.models import StoreBufferModel, make_model
from ..memory.predicates import OrderingPredicate, PredicateSink
from .errors import (
    AssertionViolation,
    DeadlockError,
    MemorySafetyViolation,
    StepLimitExceeded,
)
from .compile import make_vm
from .events import History
from .interp import DEFAULT_MAX_STEPS, VM

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..sched.base import Scheduler


class ExecutionStatus(enum.Enum):
    """How an execution ended."""

    OK = "ok"                        # ran to completion
    MEMORY_VIOLATION = "memory_violation"
    ASSERTION_VIOLATION = "assertion_violation"
    TIMEOUT = "timeout"              # step budget exhausted; discarded
    DEADLOCK = "deadlock"


class ExecutionResult:
    """Outcome of one execution."""

    def __init__(self, status: ExecutionStatus, history: History,
                 predicates: List[OrderingPredicate], steps: int,
                 error: Optional[str] = None, flushes: int = 0,
                 max_buffer_depth: int = 0,
                 thread_results: Optional[tuple] = None) -> None:
        self.status = status
        self.history = history
        self.predicates = predicates
        self.steps = steps
        self.error = error
        #: Observability counters: stores committed to shared memory and
        #: the deepest any thread's store buffer got during the run.
        self.flushes = flushes
        self.max_buffer_depth = max_buffer_depth
        #: Per-thread return values in tid order (entries are None for
        #: threads that never finished, e.g. after a crash).  Outcome-set
        #: specifications — the fuzzing oracles' :class:`OutcomeSpec` —
        #: judge executions by this tuple.
        self.thread_results = thread_results

    @property
    def crashed(self) -> bool:
        """True for safety-spec violations (memory safety / assertions)."""
        return self.status in (ExecutionStatus.MEMORY_VIOLATION,
                               ExecutionStatus.ASSERTION_VIOLATION)

    @property
    def usable(self) -> bool:
        """True if the run is meaningful for checking (not cut off)."""
        return self.status not in (ExecutionStatus.TIMEOUT,
                                   ExecutionStatus.DEADLOCK)

    def __repr__(self) -> str:
        return "<ExecutionResult %s, %d ops, %d preds, %d steps>" % (
            self.status.value, len(self.history), len(self.predicates),
            self.steps)


def run_execution(module: Module, model: StoreBufferModel,
                  scheduler: "Scheduler", entry: str = "main",
                  entry_args: Sequence[int] = (),
                  operations: Sequence[str] = (),
                  max_steps: int = DEFAULT_MAX_STEPS,
                  collect_predicates: bool = True,
                  coverage: Optional[set] = None,
                  sink: Optional[PredicateSink] = None) -> ExecutionResult:
    """Run *module* once under *model*, driven by *scheduler*.

    The memory model instance is reset before use, so one instance can be
    reused across many executions.  Pass a set as *coverage* to collect
    the labels of executed instructions across runs.  A *sink* may also be
    supplied to reuse one :class:`PredicateSink` (and its intern table)
    across a worker's run loop; it is cleared before the execution.
    """
    if collect_predicates:
        if sink is None:
            sink = PredicateSink()
        else:
            sink.clear()
    else:
        sink = None
    vm = make_vm(module, model, entry=entry, entry_args=entry_args,
                 operations=operations, sink=sink, max_steps=max_steps,
                 coverage=coverage)

    status = ExecutionStatus.OK
    error: Optional[str] = None
    try:
        scheduler.run(vm)
    except MemorySafetyViolation as exc:
        status, error = ExecutionStatus.MEMORY_VIOLATION, str(exc)
    except AssertionViolation as exc:
        status, error = ExecutionStatus.ASSERTION_VIOLATION, str(exc)
    except StepLimitExceeded as exc:
        status, error = ExecutionStatus.TIMEOUT, str(exc)
    except DeadlockError as exc:
        status, error = ExecutionStatus.DEADLOCK, str(exc)

    predicates = sink.predicates() if sink is not None else []
    thread_results = tuple(vm.threads[tid].result
                           for tid in sorted(vm.threads))
    return ExecutionResult(status, vm.history, predicates, vm.steps, error,
                           flushes=vm.flushes,
                           max_buffer_depth=model.depth_hwm,
                           thread_results=thread_results)


def run_once(module: Module, model_name: str = "sc", seed: int = 0,
             flush_prob: float = 0.5, **kwargs) -> ExecutionResult:
    """Convenience wrapper: build a model + flush-delaying scheduler and run."""
    from ..sched.flush_random import FlushDelayScheduler

    model = make_model(model_name)
    scheduler = FlushDelayScheduler(seed=seed, flush_prob=flush_prob)
    return run_execution(module, model, scheduler, **kwargs)
