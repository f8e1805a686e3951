"""The generic DIR interpreter: the differential-testing reference.

:class:`repro.vm.interp.VM` runs closure-compiled function bodies
(:mod:`repro.vm.compile`).  :class:`ReferenceVM` overrides its ``step``
and ``run_local`` with the plain per-instruction interpreter it replaced:
one handler per instruction class, operands decoded and operators looked
up on every step, branch labels resolved on every jump, and locality read
through ``peek``.  Only the handlers for call/return, fork/join and page
allocation are shared with the VM.  Its operator semantics are a separate
copy, so a mistake in the VM's operator table shows up as a divergence.

Tests compare the two byte for byte (``tests/test_compile_equivalence.py``,
``tests/test_schedule_golden.py``, ``tests/test_vm_snapshot.py``).  Use
:func:`reference_vms` — or the ``backend`` fixture in
``tests/conftest.py`` — to make every VM the package builds through
:func:`repro.vm.compile.make_vm` a :class:`ReferenceVM`.
"""

from __future__ import annotations

import contextlib
from typing import Dict

from repro.ir import instructions as ins
from repro.vm import interp
from repro.vm.compile import LOCAL_OPS, LOCAL_OPS_ASSERT
from repro.vm.errors import (
    AssertionViolation,
    InterpreterError,
    StepLimitExceeded,
)
from repro.vm.interp import VM
from repro.vm.state import ThreadStatus

#: Parameter ids of the ``backend`` fixture: the production VM (it runs
#: closure-compiled bodies) and this module's interpreter.
BACKENDS = ("compiled", "interpreted")


@contextlib.contextmanager
def reference_vms():
    """Within the block, ``make_vm`` builds :class:`ReferenceVM` instances
    (it looks ``repro.vm.interp.VM`` up on every call)."""
    saved = interp.VM
    interp.VM = ReferenceVM
    try:
        yield ReferenceVM
    finally:
        interp.VM = saved


class ReferenceVM(VM):
    """The VM with the generic interpreter's stepping loop."""

    def __init__(self, *args, **kwargs) -> None:
        #: Per-function dispatch lists (function name → list of handlers
        #: aligned with ``fn.body``), valid for this VM's lifetime.
        self._fn_handlers: Dict[str, list] = {}
        super().__init__(*args, **kwargs)

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
        "peek; stop if non-local; step".
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

    def _exec_selfid(self, thread, frame, instr) -> None:
        frame.regs[instr.dst.name] = thread.tid
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


# ----------------------------------------------------------------------
# Dispatch table: instruction class → handler.  Built once at import;
# ``_handlers_for`` specialises it into per-function lists.

_DISPATCH = {
    ins.ConstInstr: ReferenceVM._exec_const,
    ins.Mov: ReferenceVM._exec_mov,
    ins.BinOp: ReferenceVM._exec_binop,
    ins.UnOp: ReferenceVM._exec_unop,
    ins.Load: ReferenceVM._exec_load,
    ins.Store: ReferenceVM._exec_store,
    ins.Cas: ReferenceVM._exec_cas,
    ins.Fence: ReferenceVM._exec_fence,
    ins.Br: ReferenceVM._exec_br,
    ins.Cbr: ReferenceVM._exec_cbr,
    ins.Call: VM._do_call,
    ins.Ret: VM._do_ret,
    ins.Fork: VM._exec_fork,
    ins.Join: VM._exec_join,
    ins.SelfId: ReferenceVM._exec_selfid,
    ins.PageAlloc: VM._exec_pagealloc,
    ins.PageFree: VM._exec_pagefree,
    ins.AddrOf: ReferenceVM._exec_addrof,
    ins.Assert: ReferenceVM._exec_assert,
    ins.Nop: ReferenceVM._exec_nop,
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
