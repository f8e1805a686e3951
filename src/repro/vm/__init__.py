"""The DIR virtual machine — the reproduction's extended lli.

Multi-threaded interpretation of DIR modules with pluggable memory models
and schedulers, operation-history recording, and built-in memory-safety
checking.
"""

from .compile import COMPILE_STATS, make_vm
from .driver import ExecutionResult, ExecutionStatus, run_execution, run_once
from .errors import (
    AssertionViolation,
    DeadlockError,
    InterpreterError,
    MemorySafetyViolation,
    SpecViolationError,
    StepLimitExceeded,
    VMError,
)
from .events import History, Operation
from .heap import NULL_GUARD, SharedMemory
from .interp import DEFAULT_MAX_STEPS, VM
from .state import Frame, Thread, ThreadStatus

__all__ = [
    "AssertionViolation", "COMPILE_STATS", "DEFAULT_MAX_STEPS",
    "DeadlockError", "ExecutionResult", "ExecutionStatus", "Frame",
    "History", "InterpreterError", "MemorySafetyViolation", "NULL_GUARD",
    "Operation", "SharedMemory", "SpecViolationError", "StepLimitExceeded",
    "Thread", "ThreadStatus", "VM", "VMError", "make_vm", "run_execution",
    "run_once",
]
