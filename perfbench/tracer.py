"""Per-layer span ledger, installed from outside the program.

``install(ledger, work_dir)`` wraps each layer's public functions at the
name its caller looks up (a module global such as
``repro.fuzz.oracles.explore``, or a class attribute such as
``FlushDelayScheduler.run``).  Nothing under ``src/`` changes; the
program runs unmodified between the wrappers.

Two kinds of wrapper feed one :class:`Ledger`:

* *span* wrappers (synthesis, SAT, enforcement, exploration, MiniC
  compilation, pool broadcast, fuzz generation) record a :class:`Span`
  with name, start, end, parent span and operation id;
* *hot* wrappers (per-execution and per-instruction calls: scheduler
  runs, VM steps, flushes, spec checks, snapshots) do not allocate a
  span per call; they aggregate ``[calls, total_s, self_s, extra]`` per
  name inside the innermost open span.

Every wrapped call pushes a frame ``[name, child_s]`` on one stack, so a
span's self time is its duration minus the time its wrapped children
cover, whichever kind they are.  Worker processes of the ``-j2`` pool
inherit the wrappers by fork; each batch writes its own spans to a file
in *work_dir*, which the parent merges with :meth:`Ledger.merge_workers`.
"""

from __future__ import annotations

import copyreg
import io
import os
import pickle
import sys
import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter

#: Hot aggregate slots.
CALLS, TOTAL, SELF, EXTRA = range(4)


class Span:
    """One recorded call of a span-wrapped function."""

    __slots__ = ("name", "start", "end", "parent", "op", "child", "hot",
                 "info", "pid")

    def __init__(self, name: str, parent: Optional[int],
                 op: Optional[str]) -> None:
        self.name = name
        self.start = _now()
        self.end = self.start
        self.parent = parent
        self.op = op
        self.child = 0.0
        #: name -> [calls, total_s, self_s, extra] of hot calls beneath.
        self.hot: Dict[str, list] = {}
        #: counters read from the call's arguments or result.
        self.info: Dict[str, float] = {}
        self.pid = os.getpid()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "pid": self.pid, "self_s": self.self_time,
                "info": self.info,
                "hot": {name: {"calls": agg[CALLS], "total_s": agg[TOTAL],
                               "self_s": agg[SELF], "extra": agg[EXTRA]}
                        for name, agg in sorted(self.hot.items())}}


class Ledger:
    """Spans of one traced run, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: open frames, innermost last:
        #: [name, child_s, span_index, enclosing_span_index]
        self.stack: List[list] = []
        #: index of the innermost open span (hot calls aggregate there).
        self.current: Optional[int] = None
        self.op: Optional[str] = None
        #: op -> deepest store buffer seen at any flush.
        self.depth_hwm: Dict[Optional[str], int] = {}
        # The root span catches calls made outside any operation.
        self.spans.append(Span("run", None, None))
        self.current = 0

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> list:
        span = Span(name, self.current, self.op)
        self.spans.append(span)
        frame = [name, 0.0, len(self.spans) - 1, self.current]
        self.current = frame[2]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> Span:
        span = self.spans[frame[2]]
        span.end = _now()
        span.child = frame[1]
        self.stack.pop()
        self.current = frame[3]
        if self.stack:
            self.stack[-1][1] += span.end - span.start
        return span

    def hot(self, name: str) -> list:
        """The aggregate for *name* in the innermost open span."""
        table = self.spans[self.current].hot
        agg = table.get(name)
        if agg is None:
            agg = table[name] = [0, 0.0, 0.0, 0]
        return agg

    def begin_op(self, op: str) -> list:
        self.op = op
        return self.open("op")

    def end_op(self, frame: list) -> None:
        self.close(frame)
        self.op = None

    # -- worker processes ----------------------------------------------

    def reset_for_worker(self) -> None:
        """Drop what the parent had recorded before the fork (in place:
        the wrappers hold references to these containers)."""
        del self.spans[:]
        del self.stack[:]
        self.current = None
        self.depth_hwm.clear()

    def merge_workers(self, work_dir: str) -> None:
        """Fold the span files worker batches wrote into this ledger."""
        for name in sorted(os.listdir(work_dir)):
            if not name.startswith("worker-"):
                continue
            path = os.path.join(work_dir, name)
            with open(path, "rb") as handle:
                spans, hwm = pickle.load(handle)
            os.unlink(path)
            base = len(self.spans)
            for span in spans:
                if span.parent is not None:
                    span.parent += base
                self.spans.append(span)
            for op, depth in hwm.items():
                self.depth_hwm[op] = max(depth, self.depth_hwm.get(op, 0))

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        import json
        self.spans[0].end = _now()
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.as_dict(index)) + "\n")


# ----------------------------------------------------------------------
# Wrapper factories

def _span_wrapper(ledger: Ledger, name: str, fn: Callable,
                  info: Optional[Callable] = None) -> Callable:
    """Record a span per call; *info(span, args, kwargs, result)* may
    add counters read from the call."""
    def wrapper(*args, **kwargs):
        frame = ledger.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = ledger.close(frame)
        if info is not None:
            info(span, args, kwargs, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _hot_wrapper(ledger: Ledger, name: str, fn: Callable,
                 extra: Optional[Callable] = None,
                 decision: bool = False) -> Callable:
    """Aggregate calls per enclosing span.  *extra(args, result)* is
    added to the aggregate's ``extra`` slot; with *decision* a call made
    directly by the scheduler's run loop also counts as one decision."""
    stack = ledger.stack

    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = _now() - start
            stack.pop()
            if parent is not None:
                parent[1] += duration
            agg = ledger.hot(name)
            agg[CALLS] += 1
            agg[TOTAL] += duration
            agg[SELF] += duration - frame[1]
            if decision and parent is not None and parent[0] == "sched.run":
                ledger.hot("sched.decision")[CALLS] += 1
        if extra is not None:
            agg[EXTRA] += extra(args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _timed_iter(ledger: Ledger, name: str, iterator):
    """Re-yield *iterator*, charging the time blocked in ``next`` to
    *name* (the engine waiting for worker summaries)."""
    try:
        while True:
            parent = ledger.stack[-1] if ledger.stack else None
            start = _now()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                duration = _now() - start
                if parent is not None:
                    parent[1] += duration
                agg = ledger.hot(name)
                agg[CALLS] += 1
                agg[TOTAL] += duration
                agg[SELF] += duration
            yield item
    finally:
        iterator.close()


def _frame_state(fn, regs, ip, ret_dst, op_record):
    """Stand-in constructor named by the size-only pickle below."""


def _reduce_frame(frame):
    # Compiled handlers are closures shared by every frame of a function;
    # they are code, not execution state, and cannot be pickled.
    return _frame_state, (frame.fn, frame.regs, frame.ip, frame.ret_dst,
                          frame.op_record)


def snapshot_size(snapshot) -> int:
    """Pickled size of a VM snapshot's state.  The explorer measures its
    first snapshot the same way but reports -1 when the frames hold
    compiled code, so the ledger measures it here instead."""
    from repro.vm.interp import VMSnapshot
    from repro.vm.state import Frame

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = dict(copyreg.dispatch_table)
    pickler.dispatch_table[Frame] = _reduce_frame
    pickler.dump(tuple(getattr(snapshot, slot)
                       for slot in VMSnapshot.__slots__))
    return buffer.tell()


# ----------------------------------------------------------------------
# Installation

#: The ledger the forked pool workers record into (see _traced_run_batch).
_ACTIVE: dict = {}


def _patch_attr(owner, attr: str, wrapper_factory) -> None:
    setattr(owner, attr, wrapper_factory(getattr(owner, attr)))


def _patch_global(original: Callable, wrapper: Callable) -> None:
    """Rebind every ``repro.*`` module global that names *original*."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _classes_defining(base: type, attr: str) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in vars(cls):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _traced_run_batch(version, blob, jobs):
    """Worker-side replacement of ``repro.parallel.process._run_batch``:
    run the batch under a fresh ledger and leave its spans in a file."""
    ledger = _ACTIVE["ledger"]
    op = ledger.op
    ledger.reset_for_worker()
    ledger.op = op
    frame = ledger.open("parallel.batch")
    try:
        result = _ACTIVE["run_batch"](version, blob, jobs)
    finally:
        span = ledger.close(frame)
    span.info["ipc_bytes"] = len(pickle.dumps(
        result, protocol=pickle.HIGHEST_PROTOCOL))
    _ACTIVE["batches"] += 1
    path = os.path.join(_ACTIVE["work_dir"], "worker-%d-%06d.pkl"
                        % (os.getpid(), _ACTIVE["batches"]))
    with open(path, "wb") as handle:
        pickle.dump((ledger.spans, dict(ledger.depth_hwm)), handle,
                    protocol=pickle.HIGHEST_PROTOCOL)
    return result


def install(ledger: Ledger, work_dir: str) -> None:
    """Wrap every traced layer of the imported ``repro`` package."""
    from repro.fuzz import generator as fuzz_generator
    from repro.fuzz import oracles as fuzz_oracles
    from repro.memory import models
    from repro.minic import lower
    from repro.parallel import process
    from repro.sched import explorer
    from repro.sched.flush_random import FlushDelayScheduler
    from repro.spec import quiescent  # noqa: F401  (registers its spec)
    from repro.spec.specifications import Specification
    from repro.synth import engine, formula
    from repro.vm import compile as vm_compile
    from repro.vm.interp import VM
    import repro.algorithms  # noqa: F401  (bundle-specific specs)

    _ACTIVE.update(ledger=ledger, work_dir=work_dir, batches=0,
                   run_batch=process._run_batch)

    def hot(name, extra=None, decision=False):
        return lambda fn: _hot_wrapper(ledger, name, fn, extra, decision)

    def span(name, info=None):
        return lambda fn: _span_wrapper(ledger, name, fn, info)

    # Scheduler, VM dispatch, snapshots.
    _patch_attr(FlushDelayScheduler, "run", hot("sched.run"))
    for cls in _classes_defining(VM, "step"):
        _patch_attr(cls, "step", hot("vm.step", decision=True))
    for cls in _classes_defining(VM, "run_local"):
        _patch_attr(cls, "run_local",
                    hot("vm.run_local", extra=lambda a, r: r))
    def first_snapshot(args, snapshot):
        span_ = ledger.spans[ledger.current]
        if (span_.name == "explorer.explore"
                and "snapshot_bytes" not in span_.info):
            span_.info["snapshot_bytes"] = snapshot_size(snapshot)
        return 0
    _patch_attr(VM, "snapshot", hot("vm.snapshot", extra=first_snapshot))
    _patch_attr(VM, "restore", hot("vm.restore"))
    _patch_global(vm_compile.make_vm,
                  _hot_wrapper(ledger, "vm.make", vm_compile.make_vm))

    stats = vm_compile.COMPILE_STATS
    code_for = vm_compile.code_for

    def traced_code_for(fn):
        before = stats.functions
        result = wrapped_code_for(fn)
        ledger.hot("vm.compile")[EXTRA] += stats.functions - before
        return result
    wrapped_code_for = _hot_wrapper(ledger, "vm.compile", code_for)
    _patch_global(code_for, traced_code_for)

    # Store-buffer models.
    def flushed(args, result):
        model = args[0]
        op = ledger.op
        if model.depth_hwm > ledger.depth_hwm.get(op, 0):
            ledger.depth_hwm[op] = model.depth_hwm
        return 1 if result else 0
    for cls in _classes_defining(models.StoreBufferModel, "flush_one"):
        _patch_attr(cls, "flush_one",
                    hot("memory.flush_one", extra=flushed, decision=True))
    for cls in _classes_defining(models.StoreBufferModel, "drain"):
        _patch_attr(cls, "drain", hot("memory.drain"))

    # Specification checking (every subclass that defines check()).
    for cls in _classes_defining(Specification, "check"):
        if cls is not Specification:
            _patch_attr(cls, "check", hot(
                "spec.check", extra=lambda a, r: 0 if r is None else 1))

    # Synthesis, SAT, enforcement.
    def synth_info(span, args, kwargs, result):
        span.info.update(rounds=len(result.rounds),
                         executions=result.total_executions,
                         fences=len(result.placements))
    _patch_attr(engine.SynthesisEngine, "synthesize",
                span("synth.synthesize", synth_info))
    _patch_global(engine.enforce,
                  _span_wrapper(ledger, "synth.enforce", engine.enforce))

    minimal_repair = formula.RepairFormula.minimal_repair

    def traced_minimal_repair(self, stats=None):
        own = {} if stats is None else stats
        before = dict(own)
        frame = ledger.open("sat.minimal_repair")
        try:
            result = minimal_repair(self, stats=own)
        finally:
            span_ = ledger.close(frame)
        span_.info.update(
            clauses=self.num_clauses,
            solves=own.get("solves", 0) - before.get("solves", 0),
            conflicts=own.get("conflicts", 0) - before.get("conflicts", 0))
        return result
    formula.RepairFormula.minimal_repair = traced_minimal_repair

    # Process pool.
    _patch_attr(process.ProcessPool, "broadcast", span("parallel.broadcast"))
    pool_run = process.ProcessPool.run
    process.ProcessPool.run = lambda self, jobs: _timed_iter(
        ledger, "parallel.wait", pool_run(self, jobs))
    process._run_batch = _traced_run_batch

    # Explorer.
    def explore_info(span, args, kwargs, result):
        st = result.stats
        span.info.update(paths=st.paths, pruned=st.pruned,
                         cache_hits=st.cache_hits,
                         cache_states=st.cache_states)
        if st.snapshot_bytes > 0:
            span.info["snapshot_bytes"] = st.snapshot_bytes
    _patch_global(explorer.explore,
                  _span_wrapper(ledger, "explorer.explore",
                                explorer.explore, explore_info))

    # MiniC front end.
    def minic_info(span, args, kwargs, result):
        span.info["ir_instrs"] = sum(len(fn.body)
                                     for fn in result.functions.values())
    _patch_global(lower.compile_source,
                  _span_wrapper(ledger, "minic.compile",
                                lower.compile_source, minic_info))

    # Fuzzing.
    _patch_attr(fuzz_generator.ProgramGenerator, "generate",
                span("fuzz.generate"))
    # The sampling oracle only: the pools look up their own binding.
    _patch_attr(fuzz_oracles, "run_execution", hot("fuzz.sample"))
