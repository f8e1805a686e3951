"""The DIR virtual machine — the reproduction's version of the extended lli.

One :class:`VM` instance executes one program run.  The VM performs the
*thread* steps; the *memory-system* steps (flushes) are driven externally
by a scheduler, which also chooses which thread steps next.  This mirrors
the paper's architecture where the scheduler plug-in controls both thread
interleaving and flushing.

Each step runs one closure of the function's compiled body
(:mod:`repro.vm.compile`); the closures for call/return, fork/join and
page allocation call back into the handlers defined here.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..ir import instructions as ins
from ..ir.function import Function
from ..ir.module import Module
from ..ir.operands import Const, Reg, Sym
from ..memory.models import StoreBufferModel
from ..memory.predicates import PredicateSink
from .compile import CompiledCode, code_for
from .errors import InterpreterError, StepLimitExceeded
from .events import History
from .heap import SharedMemory
from .state import Frame, Thread, ThreadStatus

#: Default per-execution step budget.
DEFAULT_MAX_STEPS = 200_000

_RUNNABLE = ThreadStatus.RUNNABLE
_FINISHED = ThreadStatus.FINISHED
_BLOCKED_JOIN = ThreadStatus.BLOCKED_JOIN


class VMSnapshot:
    """One captured VM execution state (see :meth:`VM.snapshot`).

    Opaque to callers: hand it back to :meth:`VM.restore` on the *same*
    VM instance.  Snapshots deep-copy all mutable execution state
    (threads, frames, registers, shared memory, store buffers, history,
    counters) and share everything immutable (module, functions,
    compiled bodies).
    """

    __slots__ = ("threads", "next_tid", "steps", "seq", "flushes",
                 "history", "memory", "model")


class VM:
    """A single execution of a DIR module under a memory model.

    Args:
        module: the program.
        model: a fresh (or reset) memory model instance.
        entry: name of the function the main thread starts in.
        entry_args: integer arguments for the entry function.
        operations: names of functions whose calls/returns are recorded in
            the execution history for specification checking.
        sink: optional predicate sink (instrumented semantics).
        max_steps: step budget to cut off livelocked schedules.
    """

    def __init__(self, module: Module, model: StoreBufferModel,
                 entry: str = "main", entry_args: Sequence[int] = (),
                 operations: Iterable[str] = (),
                 sink: Optional[PredicateSink] = None,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 coverage: Optional[set] = None) -> None:
        self.module = module
        self.model = model
        self.memory = SharedMemory(module)
        self.operations = frozenset(operations)
        self.history = History()
        self.max_steps = max_steps
        self.steps = 0
        self.seq = 0
        #: Stores committed to shared memory this execution (every flush
        #: lands in ``_commit``, including SC's immediate writes) — one of
        #: the per-execution observability counters.
        self.flushes = 0
        #: Optional set collecting the labels of executed instructions
        #: (client-coverage measurement, paper section 6.4).
        self.coverage = coverage

        model.reset()
        model.attach(self._commit, sink)

        #: Compiled bodies by function name.  Function bodies only mutate
        #: *between* executions (fence insertion), never during one, so
        #: this VM checks ``body_version`` once per function (in
        #: ``code_for``) and reuses the body for its whole lifetime.
        self._fn_code: Dict[str, CompiledCode] = {}

        self.threads: Dict[int, Thread] = {}
        self._next_tid = 0
        #: Incrementally maintained scheduling sets: tids whose status is
        #: RUNNABLE, and blocked-join tid → join-target tid.  Decision
        #: points hit ``enabled_tids`` constantly; these avoid rescanning
        #: every thread's status per call.
        self._runnable: set = set()
        self._blocked_join: Dict[int, int] = {}
        #: ``enabled_tids`` result, rebuilt on the next call after any
        #: change to the sets above (None = stale).  A change replaces
        #: the list, never mutates it, so callers may hold on to one.
        self._enabled: Optional[List[int]] = None
        self._spawn(entry, [int(a) for a in entry_args])

    # ------------------------------------------------------------------
    # Thread management

    def _spawn(self, fn_name: str, args: List[int]) -> int:
        fn = self.module.function(fn_name)
        if len(args) != len(fn.params):
            raise InterpreterError(
                "spawn of %s with %d args (expects %d)"
                % (fn_name, len(args), len(fn.params)))
        tid = self._next_tid
        self._next_tid += 1
        thread = Thread(tid)
        frame = Frame(fn)
        for param, value in zip(fn.params, args):
            frame.regs[param] = value
        thread.frames.append(frame)
        self.threads[tid] = thread
        self._runnable.add(tid)
        self._enabled = None
        return tid

    def enabled_tids(self) -> List[int]:
        """Threads that can take a step right now, ascending by tid.

        A thread blocked on join becomes enabled once its target finishes
        (the join step itself then drains the target's buffers).  The
        list is cached until the scheduling sets change; treat it as
        read-only.
        """
        enabled = self._enabled
        if enabled is None:
            enabled = sorted(self._runnable)
            if self._blocked_join:
                threads = self.threads
                for tid, target_tid in self._blocked_join.items():
                    target = threads.get(target_tid)
                    if target is not None and target.finished:
                        enabled.append(tid)
                enabled.sort()
            self._enabled = enabled
        return enabled

    def all_finished(self) -> bool:
        return all(t.finished for t in self.threads.values())

    def tids_with_pending(self) -> List[int]:
        """Threads (running or finished) with buffered stores to flush."""
        return self.model.pending_tids()

    def peek(self, tid: int) -> Optional[ins.Instr]:
        """The instruction the thread would execute next (None if blocked
        or finished) — used by the scheduler's partial-order reduction."""
        thread = self.threads[tid]
        if thread.status is not ThreadStatus.RUNNABLE or not thread.frames:
            return None
        frame = thread.top
        return frame.fn.body[frame.ip]

    # ------------------------------------------------------------------
    # Snapshot / restore (fork-and-backtrack exploration)

    def snapshot(self) -> VMSnapshot:
        """Capture the complete execution state.

        The snapshot is independent of further execution: the DFS
        explorer forks the choice tree by executing one branch, restoring,
        and executing the next — one VM step per tree edge instead of an
        O(depth) replay per path.
        """
        snap = VMSnapshot.__new__(VMSnapshot)
        history, opmap = self.history.clone()
        snap.history = history
        snap.threads = {tid: thread.clone(opmap)
                        for tid, thread in self.threads.items()}
        snap.next_tid = self._next_tid
        snap.steps = self.steps
        snap.seq = self.seq
        snap.flushes = self.flushes
        snap.memory = self.memory.snapshot()
        snap.model = self.model.snapshot()
        return snap

    def restore(self, snap: VMSnapshot, consume: bool = False) -> None:
        """Reinstate a snapshot taken on this VM.

        A snapshot may be restored any number of times; each restore
        rebuilds fresh mutable state.  ``consume=True`` moves the
        snapshot's containers in without copying — a backtracking
        optimisation valid only for the *last* restore of that snapshot.
        """
        if consume:
            self.history = snap.history
            self.threads = snap.threads
        else:
            history, opmap = snap.history.clone()
            self.history = history
            self.threads = {tid: thread.clone(opmap)
                            for tid, thread in snap.threads.items()}
        self._next_tid = snap.next_tid
        self.steps = snap.steps
        self.seq = snap.seq
        self.flushes = snap.flushes
        self.memory.restore(snap.memory, consume=consume)
        self.model.restore(snap.model)
        runnable = set()
        blocked: Dict[int, int] = {}
        for tid, thread in self.threads.items():
            if thread.status is ThreadStatus.RUNNABLE:
                runnable.add(tid)
            elif thread.status is ThreadStatus.BLOCKED_JOIN:
                blocked[tid] = thread.join_target
        self._runnable = runnable
        self._blocked_join = blocked
        self._enabled = None

    # ------------------------------------------------------------------
    # Memory plumbing

    def _commit(self, tid: int, addr: int, value: int, label: int) -> None:
        """Write a flushed store to shared memory (safety check included:
        the paper checks addresses when a flush occurs)."""
        self.flushes += 1
        self.memory.check(addr, "store flush", tid, label)
        self.memory.write(addr, value)

    def flush_one(self, tid: int, addr: Optional[int] = None) -> bool:
        """Commit one buffered store of *tid* (scheduler action)."""
        return self.model.flush_one(tid, addr)

    def drain_all(self) -> None:
        """Flush every remaining buffer (end of execution), oldest first."""
        for tid in sorted(self.threads):
            self.model.drain(tid)

    # ------------------------------------------------------------------
    # Value evaluation

    def _value(self, operand, frame: Frame) -> int:
        if isinstance(operand, Reg):
            return frame.regs.get(operand.name, 0)
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, Sym):
            return self.memory.global_addr[operand.name]
        raise InterpreterError("bad operand %r" % (operand,))

    # ------------------------------------------------------------------
    # Stepping

    def _code_for(self, fn: Function) -> CompiledCode:
        code = self._fn_code.get(fn.name)
        if code is None:
            code = self._fn_code[fn.name] = code_for(fn)
        return code

    def step(self, tid: int) -> bool:
        """Execute one instruction of thread *tid*.

        Returns True when the thread can still step and its next
        instruction is thread-local (:data:`~repro.vm.compile.LOCAL_OPS`),
        i.e. when a partial-order-reduction burst (:meth:`run_local`)
        would execute anything; schedulers skip the burst otherwise.
        """
        thread = self.threads[tid]
        status = thread.status
        if status is _FINISHED:
            raise InterpreterError("stepping finished thread %d" % tid)

        self.steps += 1
        if self.steps > self.max_steps:
            raise StepLimitExceeded(
                "execution exceeded %d steps" % self.max_steps)
        self.seq += 1

        if status is _BLOCKED_JOIN:
            self._complete_join(thread)
            frame = None
        else:
            frame = thread.frames[-1]
            code = frame.handlers
            if code is None:
                code = frame.handlers = self._code_for(frame.fn)
            ip = frame.ip
            if self.coverage is not None:
                self.coverage.add(code.label_of[ip])
            code.closures[ip](self, thread, frame)
        # A finished thread has no frames left; one that just blocked in
        # join still sits on its join, which is not local.
        frames = thread.frames
        if not frames:
            return False
        top = frames[-1]
        if top is not frame:
            # A call, return or join completion moved the thread.
            code = top.handlers
            if code is None:
                code = top.handlers = self._code_for(top.fn)
        return code.local[top.ip]

    def run_local(self, tid: int, budget: int,
                  with_assert: bool = False) -> int:
        """Execute up to *budget* consecutive thread-local instructions.

        Stops early as soon as the thread's next instruction is not local
        (shared access, fence, call/return, fork/join, allocation — the
        scheduler-visible actions) or the thread cannot step.  Returns the
        number of instructions executed.  ``with_assert`` additionally
        treats ``assert`` as local (the exploration variant).

        Semantically this is exactly ``budget`` repetitions of "stop if
        the next instruction is non-local; step", with the same
        per-instruction accounting (steps, seq, coverage, step limit).
        """
        thread = self.threads[tid]
        if thread.status is not _RUNNABLE or not thread.frames:
            return 0
        # Local instructions never push or pop a frame.
        frame = thread.frames[-1]
        code = frame.handlers
        if code is None:
            code = frame.handlers = self._code_for(frame.fn)
        local = code.local_assert if with_assert else code.local
        closures = code.closures
        label_of = code.label_of
        coverage = self.coverage
        max_steps = self.max_steps
        executed = 0
        while executed < budget:
            ip = frame.ip
            if not local[ip]:
                break
            self.steps += 1
            if self.steps > max_steps:
                raise StepLimitExceeded(
                    "execution exceeded %d steps" % max_steps)
            self.seq += 1
            if coverage is not None:
                coverage.add(label_of[ip])
            closures[ip](self, thread, frame)
            executed += 1
        return executed

    def _complete_join(self, thread: Thread) -> None:
        target = self.threads.get(thread.join_target)
        if target is None or not target.finished:
            raise InterpreterError(
                "join completion on unfinished thread %r" % thread.join_target)
        # JOIN rule: the joined thread's buffers must be empty; draining
        # them here is the demonic-scheduler-compatible equivalent.
        self.model.drain(target.tid)
        thread.status = ThreadStatus.RUNNABLE
        thread.join_target = None
        self._blocked_join.pop(thread.tid, None)
        self._runnable.add(thread.tid)
        self._enabled = None
        thread.top.ip += 1

    # ------------------------------------------------------------------
    # Handlers for the instructions that reshape frames or threads.  The
    # compiled closures for these delegate here (see :data:`DELEGATED`).

    def _exec_fork(self, thread, frame, instr) -> None:
        args = [self._value(a, frame) for a in instr.args]
        # Thread creation is a full fence (pthread_create
        # synchronises-with the start of the new thread), so the
        # parent's buffered stores are visible to the child.
        self.model.drain(thread.tid)
        child = self._spawn(instr.fn, args)
        if instr.dst is not None:
            frame.regs[instr.dst.name] = child
        frame.ip += 1

    def _exec_join(self, thread, frame, instr) -> None:
        target_tid = self._value(instr.tid, frame)
        target = self.threads.get(target_tid)
        if target is None:
            raise InterpreterError("join on unknown thread %d" % target_tid)
        if target.finished:
            self.model.drain(target_tid)
            frame.ip += 1
        else:
            thread.status = ThreadStatus.BLOCKED_JOIN
            thread.join_target = target_tid
            self._runnable.discard(thread.tid)
            self._blocked_join[thread.tid] = target_tid
            self._enabled = None

    def _exec_pagealloc(self, thread, frame, instr) -> None:
        size = self._value(instr.size, frame)
        frame.regs[instr.dst.name] = self.memory.pagealloc(size)
        frame.ip += 1

    def _exec_pagefree(self, thread, frame, instr) -> None:
        addr = self._value(instr.addr, frame)
        self.memory.pagefree(addr)
        frame.ip += 1

    def _do_call(self, thread: Thread, frame: Frame, instr: ins.Call) -> None:
        callee = self.module.function(instr.fn)
        args = [self._value(a, frame) for a in instr.args]
        record = None
        if instr.fn in self.operations:
            record = self.history.begin(thread.tid, instr.fn, args, self.seq)
        new_frame = Frame(callee, ret_dst=instr.dst, op_record=record)
        for param, value in zip(callee.params, args):
            new_frame.regs[param] = value
        thread.frames.append(new_frame)

    def _do_ret(self, thread: Thread, frame: Frame, instr: ins.Ret) -> None:
        value = self._value(instr.value, frame) if instr.value is not None else 0
        if frame.op_record is not None:
            frame.op_record.result = value
            frame.op_record.ret_seq = self.seq
        frames = thread.frames
        frames.pop()
        if not frames:
            thread.status = ThreadStatus.FINISHED
            thread.result = value
            self._runnable.discard(thread.tid)
            self._enabled = None
            return
        caller = frames[-1]
        if frame.ret_dst is not None:
            caller.regs[frame.ret_dst.name] = value
        caller.ip += 1


#: Instruction class → VM handler, for the instructions whose compiled
#: closure delegates to the VM (:func:`repro.vm.compile._compile_delegate`).
DELEGATED = {
    ins.Call: VM._do_call,
    ins.Ret: VM._do_ret,
    ins.Fork: VM._exec_fork,
    ins.Join: VM._exec_join,
    ins.PageAlloc: VM._exec_pagealloc,
    ins.PageFree: VM._exec_pagefree,
}
