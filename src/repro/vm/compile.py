"""Closure-compiled DIR: the template compiler behind the VM's hot loop.

A generic interpreter pays a per-instruction tax on every step: an
attribute chase through ``instr.dst``/``instr.a``, an ``isinstance`` test
per operand, a string-compare chain per operator, and a label→index
lookup per branch.  The paper's DFENCE amortizes the equivalent cost by
riding LLVM ``lli``'s pre-decoded bytecode; this module is the
reproduction's analogue: each function body is lowered *once* into a
dense list of single-instruction Python closures —

* register operands are pre-resolved to interned frame-dict keys and
  constant operands are captured in the closure, so an operand access is
  a single hash probe (or none) with no operand dispatch,
* operators are pre-resolved to their :data:`BINOPS`/:data:`UNOPS`
  function — the one table of C operator semantics, which the IR
  optimizer's constant folding uses too,
* branch targets are pre-bound to instruction *offsets* instead of
  label lookups.

:class:`~repro.vm.interp.VM` executes one closure per step, in
``step()`` and in the ``run_local`` partial-order-reduction burst alike,
so the ``steps``/``seq`` counters, coverage sets and the step-limit check
advance per instruction.  ``tests/reference_vm.py`` keeps the generic
per-instruction interpreter as the differential oracle; the VM must
match it byte for byte (outcomes, histories, predicates, traces) — see
``tests/test_compile_equivalence.py``.

Compiled bodies are cached per ``(function, body_version)``:
:class:`~repro.ir.function.Function` bumps ``body_version`` on every
mutation, so a synthesis round that inserts a fence recompiles only the
repaired function while all untouched functions reuse their closures.
"""

from __future__ import annotations

import operator
import sys
import time
from typing import TYPE_CHECKING, Callable, Tuple
from weakref import WeakKeyDictionary

from ..ir import instructions as ins
from ..ir.function import Function
from ..ir.operands import Const, Reg, Sym
from .errors import AssertionViolation, InterpreterError
from .state import Frame, Thread

if TYPE_CHECKING:
    from .interp import VM

#: A compiled instruction: executes its op and sets ``frame.ip``.
Closure = Callable[["VM", Thread, Frame], None]

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


def make_vm(module, model, **kwargs) -> "VM":
    """Build the VM for one execution.

    The package builds every VM here (``run_execution``, the explorers),
    so this is the one place to count or time VM construction.
    """
    from .interp import VM  # deferred: interp imports this module
    return VM(module, model, **kwargs)


# ----------------------------------------------------------------------
# Compile-time counters (surfaced as vm/compile/* recorder metrics)

class CompileStats:
    """Process-global template-compiler counters."""

    __slots__ = ("functions", "recompiles", "instructions", "cache_hits",
                 "seconds")

    def __init__(self) -> None:
        self.functions = 0          # bodies compiled (incl. recompiles)
        self.recompiles = 0         # of those, version-bump recompiles
        self.instructions = 0       # instructions lowered
        self.cache_hits = 0         # code_for() calls served from cache
        self.seconds = 0.0          # wall-clock spent compiling

    def snapshot(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __repr__(self) -> str:
        return "<CompileStats %d fns (%d recompiles), %d instrs>" % (
            self.functions, self.recompiles, self.instructions)


#: The shared counter instance (per process; worker processes have their
#: own — the recorder only ever folds the engine process's counters).
COMPILE_STATS = CompileStats()


def compile_stats_delta(before: dict) -> dict:
    """Counters accumulated since *before* (a ``snapshot()``)."""
    now = COMPILE_STATS.snapshot()
    return {key: now[key] - before.get(key, 0) for key in now}


# ----------------------------------------------------------------------
# Operand decoding (compile time only)

def _operand(operand) -> Tuple[str, object]:
    """Classify an operand once, at compile time."""
    if isinstance(operand, Reg):
        return "r", sys.intern(operand.name)
    if isinstance(operand, Const):
        return "c", operand.value
    if isinstance(operand, Sym):
        return "s", sys.intern(operand.name)
    raise InterpreterError("bad operand %r" % (operand,))


def _thunk(kind: str, payload):
    """A generic value getter for the rare operand shapes."""
    if kind == "r":
        name = payload

        def get(vm, frame):
            return frame.regs.get(name, 0)
    elif kind == "c":
        value = payload

        def get(vm, frame):
            return value
    else:
        sym = payload

        def get(vm, frame):
            return vm.memory.global_addr[sym]
    return get


def _value_thunk(operand):
    kind, payload = _operand(operand)
    return _thunk(kind, payload)


# ----------------------------------------------------------------------
# Operator tables: the package's one copy of C-like operator semantics
# on Python ints (the VM's templates and the optimizer's constant folding
# both evaluate through them).

def _div(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("modulo by zero")
    q = abs(a) % abs(b)
    return q if a >= 0 else -q


def _eq(a, b):
    return 1 if a == b else 0


def _ne(a, b):
    return 1 if a != b else 0


def _lt(a, b):
    return 1 if a < b else 0


def _le(a, b):
    return 1 if a <= b else 0


def _gt(a, b):
    return 1 if a > b else 0


def _ge(a, b):
    return 1 if a >= b else 0


BINOPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": _div, "mod": _mod,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "shl": operator.lshift, "shr": operator.rshift,
    "eq": _eq, "ne": _ne, "lt": _lt, "le": _le, "gt": _gt, "ge": _ge,
}

UNOPS = {
    "neg": operator.neg,
    "not": lambda a: 1 if a == 0 else 0,
    "bnot": operator.invert,
}


# ----------------------------------------------------------------------
# Per-instruction templates.  Every closure ends by setting ``frame.ip``
# (branches to a pre-resolved offset, straight-line code to ``nxt``).

def _compile_const(instr: ins.ConstInstr, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    value = instr.value

    def op(vm, thread, frame):
        frame.regs[dst] = value
        frame.ip = nxt
    return op


def _compile_mov(instr: ins.Mov, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    kind, payload = _operand(instr.src)
    if kind == "r":
        src = payload

        def op(vm, thread, frame):
            regs = frame.regs
            regs[dst] = regs.get(src, 0)
            frame.ip = nxt
    elif kind == "c":
        value = payload

        def op(vm, thread, frame):
            frame.regs[dst] = value
            frame.ip = nxt
    else:
        sym = payload

        def op(vm, thread, frame):
            frame.regs[dst] = vm.memory.global_addr[sym]
            frame.ip = nxt
    return op


def _compile_binop(instr: ins.BinOp, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    fn = BINOPS[instr.binop]
    ka, a = _operand(instr.a)
    kb, b = _operand(instr.b)
    if ka == "r" and kb == "r":
        def op(vm, thread, frame):
            regs = frame.regs
            regs[dst] = fn(regs.get(a, 0), regs.get(b, 0))
            frame.ip = nxt
    elif ka == "r" and kb == "c":
        def op(vm, thread, frame):
            regs = frame.regs
            regs[dst] = fn(regs.get(a, 0), b)
            frame.ip = nxt
    elif ka == "c" and kb == "r":
        def op(vm, thread, frame):
            regs = frame.regs
            regs[dst] = fn(a, regs.get(b, 0))
            frame.ip = nxt
    else:
        ga, gb = _thunk(ka, a), _thunk(kb, b)

        def op(vm, thread, frame):
            frame.regs[dst] = fn(ga(vm, frame), gb(vm, frame))
            frame.ip = nxt
    return op


def _compile_unop(instr: ins.UnOp, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    fn = UNOPS[instr.unop]
    kind, payload = _operand(instr.a)
    if kind == "r":
        a = payload

        def op(vm, thread, frame):
            regs = frame.regs
            regs[dst] = fn(regs.get(a, 0))
            frame.ip = nxt
    else:
        ga = _thunk(kind, payload)

        def op(vm, thread, frame):
            frame.regs[dst] = fn(ga(vm, frame))
            frame.ip = nxt
    return op


def _compile_load(instr: ins.Load, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    label = instr.label
    kind, payload = _operand(instr.addr)
    if kind == "r":
        a = payload

        def op(vm, thread, frame):
            regs = frame.regs
            addr = regs.get(a, 0)
            tid = thread.tid
            memory = vm.memory
            memory.check(addr, "load", tid, label)
            hit, value = vm.model.read(tid, addr, label)
            regs[dst] = value if hit else memory.read(addr)
            frame.ip = nxt
    else:
        ga = _thunk(kind, payload)

        def op(vm, thread, frame):
            addr = ga(vm, frame)
            tid = thread.tid
            memory = vm.memory
            memory.check(addr, "load", tid, label)
            hit, value = vm.model.read(tid, addr, label)
            frame.regs[dst] = value if hit else memory.read(addr)
            frame.ip = nxt
    return op


def _compile_store(instr: ins.Store, nxt: int) -> Closure:
    label = instr.label
    ka, a = _operand(instr.addr)
    ks, s = _operand(instr.src)
    if ka == "r" and ks == "r":
        def op(vm, thread, frame):
            regs = frame.regs
            vm.model.write(thread.tid, regs.get(a, 0), regs.get(s, 0),
                           label)
            frame.ip = nxt
    elif ka == "r" and ks == "c":
        def op(vm, thread, frame):
            vm.model.write(thread.tid, frame.regs.get(a, 0), s, label)
            frame.ip = nxt
    else:
        ga, gs = _thunk(ka, a), _thunk(ks, s)

        def op(vm, thread, frame):
            # Interpreter evaluation order: address, then value.
            addr = ga(vm, frame)
            vm.model.write(thread.tid, addr, gs(vm, frame), label)
            frame.ip = nxt
    return op


def _compile_cas(instr: ins.Cas, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    label = instr.label
    ga = _value_thunk(instr.addr)
    ge = _value_thunk(instr.expected)
    gn = _value_thunk(instr.new)

    def op(vm, thread, frame):
        tid = thread.tid
        addr = ga(vm, frame)
        expected = ge(vm, frame)
        new = gn(vm, frame)
        vm.model.pre_cas(tid, addr, label)
        memory = vm.memory
        memory.check(addr, "cas", tid, label)
        if memory.read(addr) == expected:
            memory.write(addr, new)
            frame.regs[dst] = 1
        else:
            frame.regs[dst] = 0
        frame.ip = nxt
    return op


def _compile_fence(instr: ins.Fence, nxt: int) -> Closure:
    kind = instr.kind

    def op(vm, thread, frame):
        vm.model.fence(thread.tid, kind)
        frame.ip = nxt
    return op


def _compile_br(instr: ins.Br, fn: Function) -> Closure:
    target = fn.index_of(instr.target)

    def op(vm, thread, frame):
        frame.ip = target
    return op


def _compile_cbr(instr: ins.Cbr, fn: Function) -> Closure:
    then_ip = fn.index_of(instr.then_target)
    else_ip = fn.index_of(instr.else_target)
    kind, payload = _operand(instr.cond)
    if kind == "r":
        cond = payload

        def op(vm, thread, frame):
            frame.ip = then_ip if frame.regs.get(cond, 0) else else_ip
    elif kind == "c":
        target = then_ip if payload else else_ip

        def op(vm, thread, frame):
            frame.ip = target
    else:
        gc = _thunk(kind, payload)

        def op(vm, thread, frame):
            frame.ip = then_ip if gc(vm, frame) else else_ip
    return op


def _compile_selfid(instr: ins.SelfId, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)

    def op(vm, thread, frame):
        frame.regs[dst] = thread.tid
        frame.ip = nxt
    return op


def _compile_addrof(instr: ins.AddrOf, nxt: int) -> Closure:
    dst = sys.intern(instr.dst.name)
    sym = sys.intern(instr.sym.name)

    def op(vm, thread, frame):
        frame.regs[dst] = vm.memory.global_addr[sym]
        frame.ip = nxt
    return op


def _compile_assert(instr: ins.Assert, nxt: int) -> Closure:
    label = instr.label
    message = instr.message or "assertion failed"
    kind, payload = _operand(instr.cond)
    if kind == "r":
        cond = payload

        def op(vm, thread, frame):
            if not frame.regs.get(cond, 0):
                raise AssertionViolation(message, tid=thread.tid,
                                         label=label)
            frame.ip = nxt
    else:
        gc = _thunk(kind, payload)

        def op(vm, thread, frame):
            if not gc(vm, frame):
                raise AssertionViolation(message, tid=thread.tid,
                                         label=label)
            frame.ip = nxt
    return op


def _compile_nop(instr: ins.Nop, nxt: int) -> Closure:
    def op(vm, thread, frame):
        frame.ip = nxt
    return op


def _compile_delegate(instr: ins.Instr) -> Closure:
    """Template for the frame- and thread-shape-changing instructions
    (call/return, fork/join, page allocation): their cost is dominated by
    the operation itself, not operand decoding, so the closure calls the
    VM's handler for the instruction."""
    from .interp import DELEGATED  # deferred: interp imports this module
    handler = DELEGATED.get(instr.__class__)
    if handler is None:
        raise InterpreterError("unknown instruction %r" % (instr,))

    def op(vm, thread, frame):
        handler(vm, thread, frame, instr)
    return op


def _compile_instr(instr: ins.Instr, offset: int, fn: Function) -> Closure:
    nxt = offset + 1
    cls = instr.__class__
    if cls is ins.ConstInstr:
        return _compile_const(instr, nxt)
    if cls is ins.Mov:
        return _compile_mov(instr, nxt)
    if cls is ins.BinOp:
        return _compile_binop(instr, nxt)
    if cls is ins.UnOp:
        return _compile_unop(instr, nxt)
    if cls is ins.Load:
        return _compile_load(instr, nxt)
    if cls is ins.Store:
        return _compile_store(instr, nxt)
    if cls is ins.Cas:
        return _compile_cas(instr, nxt)
    if cls is ins.Fence:
        return _compile_fence(instr, nxt)
    if cls is ins.Br:
        return _compile_br(instr, fn)
    if cls is ins.Cbr:
        return _compile_cbr(instr, fn)
    if cls is ins.SelfId:
        return _compile_selfid(instr, nxt)
    if cls is ins.AddrOf:
        return _compile_addrof(instr, nxt)
    if cls is ins.Assert:
        return _compile_assert(instr, nxt)
    if cls is ins.Nop:
        return _compile_nop(instr, nxt)
    return _compile_delegate(instr)


# ----------------------------------------------------------------------
# Compiled bodies

class CompiledCode:
    """One function body, lowered.  Immutable once built.

    Parallel tuples indexed by instruction offset:

    * ``closures`` — the instruction's compiled closure.
    * ``label_of`` — its label (coverage sets).
    * ``local`` / ``local_assert`` — scheduler-locality flags (the two
      POR variants; see :data:`LOCAL_OPS`).
    """

    __slots__ = ("fn_name", "version", "closures", "label_of", "local",
                 "local_assert")

    def __init__(self, fn: Function) -> None:
        body = fn.body
        self.fn_name = fn.name
        self.version = fn.body_version
        self.closures = tuple(_compile_instr(instr, i, fn)
                              for i, instr in enumerate(body))
        self.label_of = tuple(instr.label for instr in body)
        self.local = tuple(instr.__class__ in LOCAL_OPS for instr in body)
        self.local_assert = tuple(instr.__class__ in LOCAL_OPS_ASSERT
                                  for instr in body)
        COMPILE_STATS.instructions += len(body)

    def __repr__(self) -> str:
        return "<CompiledCode %s v%d: %d instrs>" % (
            self.fn_name, self.version, len(self.closures))


#: Compiled-body cache: function → CompiledCode, validated against
#: ``body_version`` on every lookup.  Weak keys, so repaired-and-dropped
#: module clones do not accumulate; worker processes each hold their own.
_CACHE: "WeakKeyDictionary[Function, CompiledCode]" = WeakKeyDictionary()


def code_for(fn: Function) -> CompiledCode:
    """The compiled body for *fn*, (re)compiling if the body changed."""
    cached = _CACHE.get(fn)
    if cached is not None and cached.version == fn.body_version:
        COMPILE_STATS.cache_hits += 1
        return cached
    start = time.perf_counter()
    compiled = CompiledCode(fn)
    COMPILE_STATS.seconds += time.perf_counter() - start
    COMPILE_STATS.functions += 1
    if cached is not None:
        COMPILE_STATS.recompiles += 1
    _CACHE[fn] = compiled
    return compiled
