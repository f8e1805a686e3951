"""The DIR interpreter — the reproduction's version of the extended lli.

One :class:`VM` instance executes one program run.  The VM performs the
*thread* steps; the *memory-system* steps (flushes) are driven externally
by a scheduler, which also chooses which thread steps next.  This mirrors
the paper's architecture where the scheduler plug-in controls both thread
interleaving and flushing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..ir import instructions as ins
from ..ir.module import Module
from ..ir.operands import Const, Reg, Sym
from ..memory.models import StoreBufferModel
from ..memory.predicates import PredicateSink
from .errors import (
    AssertionViolation,
    InterpreterError,
    StepLimitExceeded,
)
from .events import History
from .heap import SharedMemory
from .state import Frame, Thread, ThreadStatus

#: Default per-execution step budget.
DEFAULT_MAX_STEPS = 200_000

#: Instruction classes that only touch thread-local state (registers and
#: control flow).  They commute with every other thread's actions, so the
#: schedulers' partial-order reduction may run them back to back without
#: offering the decision point to other threads.  The exploration variant
#: additionally treats ``assert`` as local (its violation surfaces on
#: every interleaving once its operands are fixed); the random scheduler
#: keeps asserts as scheduling points, matching its historical behaviour.
LOCAL_OPS = frozenset((
    ins.ConstInstr, ins.Mov, ins.BinOp, ins.UnOp,
    ins.Br, ins.Cbr, ins.Nop, ins.SelfId, ins.AddrOf,
))
LOCAL_OPS_ASSERT = LOCAL_OPS | frozenset((ins.Assert,))


class VMSnapshot:
    """One captured VM execution state (see :meth:`VM.snapshot`).

    Opaque to callers: hand it back to :meth:`VM.restore` on the *same*
    VM instance.  Snapshots deep-copy all mutable execution state
    (threads, frames, registers, shared memory, store buffers, history,
    counters) and share everything immutable (module, functions,
    dispatch tables).
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

        #: Per-function precomputed dispatch lists (function name → list of
        #: handlers aligned with ``fn.body``).  Function bodies only mutate
        #: *between* executions (fence insertion), never during one, so the
        #: cache is valid for this VM's lifetime.
        self._fn_handlers: Dict[str, list] = {}

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

    def step(self, tid: int) -> bool:
        """Execute one instruction of thread *tid*.

        Returns True when the thread can still step and its next
        instruction is thread-local (:data:`LOCAL_OPS`), i.e. when a
        partial-order-reduction burst (:meth:`run_local`) would execute
        anything; schedulers skip the burst otherwise.
        """
        thread = self.threads[tid]
        if thread.status is ThreadStatus.FINISHED:
            raise InterpreterError("stepping finished thread %d" % tid)

        self.steps += 1
        if self.steps > self.max_steps:
            raise StepLimitExceeded(
                "execution exceeded %d steps" % self.max_steps)
        self.seq += 1

        if thread.status is ThreadStatus.BLOCKED_JOIN:
            self._complete_join(thread)
        else:
            frame = thread.top
            handlers = frame.handlers
            if handlers is None:
                handlers = frame.handlers = self._handlers_for(frame.fn)
            ip = frame.ip
            instr = frame.fn.body[ip]
            if self.coverage is not None:
                self.coverage.add(instr.label)
            handlers[ip](self, thread, frame, instr)
        nxt = self.peek(tid)
        return nxt is not None and nxt.__class__ in LOCAL_OPS

    def run_local(self, tid: int, budget: int,
                  with_assert: bool = False) -> int:
        """Execute up to *budget* consecutive thread-local instructions.

        Stops early as soon as the thread's next instruction is not local
        (shared access, fence, call/return, fork/join, allocation — the
        scheduler-visible actions) or the thread cannot step.  Returns the
        number of instructions executed.  ``with_assert`` additionally
        treats ``assert`` as local (the exploration variant).

        Semantically this is exactly ``budget`` repetitions of
        "peek; stop if non-local; step" — the compiled VM overrides it
        with superinstruction execution whose per-instruction accounting
        (steps, seq, coverage, step limit) is identical.
        """
        local = LOCAL_OPS_ASSERT if with_assert else LOCAL_OPS
        executed = 0
        step = self.step
        peek = self.peek
        while executed < budget:
            nxt = peek(tid)
            if nxt is None or nxt.__class__ not in local:
                break
            step(tid)
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
    # Instruction dispatch
    #
    # Handlers are resolved once per function (not per step, and not via
    # an isinstance chain): ``_handlers_for`` maps a function body to a
    # parallel list of bound-method slots, cached on the frame.

    def _handlers_for(self, fn) -> list:
        handlers = self._fn_handlers.get(fn.name)
        if handlers is None:
            table = _DISPATCH
            try:
                handlers = [table[instr.__class__] for instr in fn.body]
            except KeyError:
                bad = next(i for i in fn.body if i.__class__ not in table)
                raise InterpreterError("unknown instruction %r" % (bad,))
            self._fn_handlers[fn.name] = handlers
        return handlers

    def _exec_const(self, thread, frame, instr) -> None:
        frame.regs[instr.dst.name] = instr.value
        frame.ip += 1

    def _exec_mov(self, thread, frame, instr) -> None:
        frame.regs[instr.dst.name] = self._value(instr.src, frame)
        frame.ip += 1

    def _exec_binop(self, thread, frame, instr) -> None:
        a = self._value(instr.a, frame)
        b = self._value(instr.b, frame)
        frame.regs[instr.dst.name] = _apply_binop(instr.binop, a, b)
        frame.ip += 1

    def _exec_unop(self, thread, frame, instr) -> None:
        a = self._value(instr.a, frame)
        frame.regs[instr.dst.name] = _apply_unop(instr.unop, a)
        frame.ip += 1

    def _exec_load(self, thread, frame, instr) -> None:
        tid = thread.tid
        addr = self._value(instr.addr, frame)
        self.memory.check(addr, "load", tid, instr.label)
        hit, value = self.model.read(tid, addr, instr.label)
        if not hit:
            value = self.memory.read(addr)
        frame.regs[instr.dst.name] = value
        frame.ip += 1

    def _exec_store(self, thread, frame, instr) -> None:
        addr = self._value(instr.addr, frame)
        value = self._value(instr.src, frame)
        self.model.write(thread.tid, addr, value, instr.label)
        frame.ip += 1

    def _exec_cas(self, thread, frame, instr) -> None:
        tid = thread.tid
        addr = self._value(instr.addr, frame)
        expected = self._value(instr.expected, frame)
        new = self._value(instr.new, frame)
        self.model.pre_cas(tid, addr, instr.label)
        self.memory.check(addr, "cas", tid, instr.label)
        if self.memory.read(addr) == expected:
            self.memory.write(addr, new)
            frame.regs[instr.dst.name] = 1
        else:
            frame.regs[instr.dst.name] = 0
        frame.ip += 1

    def _exec_fence(self, thread, frame, instr) -> None:
        self.model.fence(thread.tid, instr.kind)
        frame.ip += 1

    def _exec_br(self, thread, frame, instr) -> None:
        frame.ip = frame.fn.index_of(instr.target)

    def _exec_cbr(self, thread, frame, instr) -> None:
        cond = self._value(instr.cond, frame)
        target = instr.then_target if cond else instr.else_target
        frame.ip = frame.fn.index_of(target)

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

    def _exec_selfid(self, thread, frame, instr) -> None:
        frame.regs[instr.dst.name] = thread.tid
        frame.ip += 1

    def _exec_pagealloc(self, thread, frame, instr) -> None:
        size = self._value(instr.size, frame)
        frame.regs[instr.dst.name] = self.memory.pagealloc(size)
        frame.ip += 1

    def _exec_pagefree(self, thread, frame, instr) -> None:
        addr = self._value(instr.addr, frame)
        self.memory.pagefree(addr)
        frame.ip += 1

    def _exec_addrof(self, thread, frame, instr) -> None:
        frame.regs[instr.dst.name] = self.memory.global_addr[instr.sym.name]
        frame.ip += 1

    def _exec_assert(self, thread, frame, instr) -> None:
        if not self._value(instr.cond, frame):
            raise AssertionViolation(
                instr.message or "assertion failed",
                tid=thread.tid, label=instr.label)
        frame.ip += 1

    def _exec_nop(self, thread, frame, instr) -> None:
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


# ----------------------------------------------------------------------
# Dispatch table: instruction class → VM handler.  Built once at import;
# ``_handlers_for`` specialises it into per-function lists.

_DISPATCH = {
    ins.ConstInstr: VM._exec_const,
    ins.Mov: VM._exec_mov,
    ins.BinOp: VM._exec_binop,
    ins.UnOp: VM._exec_unop,
    ins.Load: VM._exec_load,
    ins.Store: VM._exec_store,
    ins.Cas: VM._exec_cas,
    ins.Fence: VM._exec_fence,
    ins.Br: VM._exec_br,
    ins.Cbr: VM._exec_cbr,
    ins.Call: VM._do_call,
    ins.Ret: VM._do_ret,
    ins.Fork: VM._exec_fork,
    ins.Join: VM._exec_join,
    ins.SelfId: VM._exec_selfid,
    ins.PageAlloc: VM._exec_pagealloc,
    ins.PageFree: VM._exec_pagefree,
    ins.AddrOf: VM._exec_addrof,
    ins.Assert: VM._exec_assert,
    ins.Nop: VM._exec_nop,
}


# ----------------------------------------------------------------------
# Operator evaluation (C-like semantics on Python ints)

def _apply_binop(op: str, a: int, b: int) -> int:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b == 0:
            raise InterpreterError("division by zero")
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if op == "mod":
        if b == 0:
            raise InterpreterError("modulo by zero")
        q = abs(a) % abs(b)
        return q if a >= 0 else -q
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << b
    if op == "shr":
        return a >> b
    if op == "eq":
        return int(a == b)
    if op == "ne":
        return int(a != b)
    if op == "lt":
        return int(a < b)
    if op == "le":
        return int(a <= b)
    if op == "gt":
        return int(a > b)
    if op == "ge":
        return int(a >= b)
    raise InterpreterError("unknown binary operator %r" % op)


def _apply_unop(op: str, a: int) -> int:
    if op == "neg":
        return -a
    if op == "not":
        return int(a == 0)
    if op == "bnot":
        return ~a
    raise InterpreterError("unknown unary operator %r" % op)
