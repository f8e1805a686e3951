"""The flush-delaying demonic scheduler (paper §5.2).

At each scheduling point:

* if some thread has buffered stores — running, blocked in join, or
  already finished — the scheduler flushes with probability
  ``flush_prob`` (always, when no thread is enabled): it picks one of
  those threads uniformly at random and commits the oldest store of its
  buffer (TSO) or of a uniformly chosen per-variable buffer (PSO);
* otherwise an enabled thread is selected uniformly at random and
  executes its next instruction;
* partial-order reduction: once selected, a thread keeps running while its
  next instruction only touches thread-local state (registers / control
  flow), since such steps commute with every other thread.

Low ``flush_prob`` keeps stores buffered for long stretches, exposing
relaxed-memory violations; a value near 1.0 makes the run effectively SC.
The paper's tuned defaults are ~0.1 for TSO and ~0.5 for PSO.
"""

from __future__ import annotations

import random

from ..vm.interp import VM
from .base import Scheduler

#: Cap on consecutive local steps, so register-only loops cannot starve
#: the scheduler (real programs always reach a shared access or branch out).
MAX_LOCAL_RUN = 64


class FlushDelayScheduler(Scheduler):
    """Random demonic scheduler with delayed flushing.

    Args:
        seed: RNG seed (every execution is reproducible from its seed).
        flush_prob: probability of flushing (vs stepping) when some
            thread has pending buffered stores.
        por: enable the local-access partial-order reduction.
    """

    def __init__(self, seed: int = 0, flush_prob: float = 0.5,
                 por: bool = True, trace=None) -> None:
        if not 0.0 <= flush_prob <= 1.0:
            raise ValueError("flush_prob must be in [0, 1]")
        self.rng = random.Random(seed)
        self.flush_prob = flush_prob
        self.por = por
        #: Optional list collecting ("step", tid) / ("flush", tid, addr)
        #: events for deterministic replay (see repro.sched.replay).
        self.trace = trace

    def run(self, vm: VM) -> None:
        # One flat decision loop.  The bounded draws inline CPython's
        # ``randrange(n)`` (``Random._randbelow_with_getrandbits``), so
        # the RNG stream — and with it every seed, witness and fence set
        # — is the one ``randrange`` would produce.
        getrandbits = self.rng.getrandbits
        coin = self.rng.random
        flush_prob = self.flush_prob
        por = self.por
        trace = self.trace
        model = vm.model
        pso = model.name == "pso"
        enabled_tids = vm.enabled_tids
        pending_tids = model.pending_tids
        pending_addrs = model.pending_addrs
        flush_one = model.flush_one
        step = vm.step
        run_local = vm.run_local
        while True:
            enabled = enabled_tids()
            # Flushing is a memory-system action: any thread's buffers may
            # flush, including threads blocked in join or already finished
            # (otherwise a blocked producer could starve a spinning
            # consumer forever).
            pending = pending_tids()
            if pending and (not enabled or coin() < flush_prob):
                n = len(pending)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                tid = pending[r]
                # PSO: pick a random per-variable buffer; TSO flushes the
                # head of its single FIFO.  A pending thread always has a
                # buffered store, so the flush always commits one.
                if pso:
                    addrs = pending_addrs(tid)
                    n = len(addrs)
                    k = n.bit_length()
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    addr = addrs[r]
                else:
                    addr = None
                if flush_one(tid, addr) and trace is not None:
                    trace.append(("flush", tid, addr))
                continue
            if not enabled:
                self._check_deadlock(vm)
                self._finish(vm)
                return
            n = len(enabled)
            if n > 1:
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                tid = enabled[r]
            else:
                tid = enabled[0]
            if trace is not None:
                trace.append(("step", tid))
            # ``step`` reports whether the next instruction is local, so
            # a burst that would execute nothing is never started.  The
            # burst's budget counts instructions, so a trace holds one
            # ``step`` event per instruction.
            if step(tid) and por:
                executed = run_local(tid, MAX_LOCAL_RUN)
                if trace is not None:
                    trace.extend(("step", tid) for _ in range(executed))
