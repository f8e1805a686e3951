"""Store-buffer models for SC, TSO and PSO (paper Semantics 1 + 2).

The models own the per-thread write buffers; committed values land in
shared memory through a ``commit`` callback supplied by the VM (which is
also where memory-safety checks on flushed addresses happen, matching the
paper's rule that a flush into freed memory is a safety violation).

Buffered entries carry the issuing instruction's label, which doubles as
the paper's instrumented auxiliary buffer ``B-flat``: whenever a shared
access at label ``k`` finds pending stores to *other* variables in its own
thread, it reports the predicates ``[l_pending < k]`` to the attached
:class:`~repro.memory.predicates.PredicateSink`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..ir.instructions import FenceKind
from .predicates import PredicateSink

#: commit(tid, addr, value, label) — write a flushed value to shared memory.
CommitFn = Callable[[int, int, int, int], None]

#: Shared empty list for the no-pending-stores fast path (allocation-free
#: common case).  Callers treat ``pending_addrs`` results as read-only.
_EMPTY_LIST: List[int] = []


class StoreBufferModel:
    """Abstract base for the three memory models."""

    name = "abstract"

    def __init__(self) -> None:
        self._commit: Optional[CommitFn] = None
        self.sink: Optional[PredicateSink] = None
        #: Deepest any single thread's buffer got this execution (the
        #: store-buffer pressure metric; 0 under SC).
        self.depth_hwm = 0
        self._depths: Dict[int, int] = {}
        #: Threads with at least one buffered store, maintained
        #: incrementally by write/flush so schedulers do not rescan every
        #: thread's buffers at each decision point.
        self._pending_tids: set = set()
        #: ``pending_tids`` result, rebuilt on the next call after the
        #: set above gains or loses a thread (None = stale).  A change
        #: replaces the list, never mutates it.
        self._pending_list: Optional[List[int]] = None

    def attach(self, commit: CommitFn,
               sink: Optional[PredicateSink] = None) -> None:
        """Connect the model to shared memory and (optionally) a sink."""
        self._commit = commit
        self.sink = sink

    # -- interface used by the VM -------------------------------------

    def read(self, tid: int, addr: int, label: int) -> Tuple[bool, int]:
        """Attempt a buffered read.

        Returns ``(hit, value)``; on a miss the VM reads shared memory.
        Also reports bypass predicates for the access.
        """
        raise NotImplementedError

    def write(self, tid: int, addr: int, value: int, label: int) -> None:
        """Issue a store (buffered under TSO/PSO, immediate under SC)."""
        raise NotImplementedError

    def pre_cas(self, tid: int, addr: int, label: int) -> None:
        """Drain whatever the model's CAS rule requires before the atomic
        update executes, reporting bypass predicates first."""
        raise NotImplementedError

    def fence(self, tid: int, kind: FenceKind) -> None:
        """Execute a fence: drain per the model's ordering guarantees."""
        raise NotImplementedError

    def has_pending(self, tid: int) -> bool:
        """True if the thread has any buffered stores."""
        raise NotImplementedError

    def pending_addrs(self, tid: int) -> List[int]:
        """Addresses with buffered stores (PSO: buffer keys; TSO: queue)."""
        raise NotImplementedError

    def pending_count(self, tid: int) -> int:
        raise NotImplementedError

    def pending_tids(self) -> List[int]:
        """Threads with buffered stores, ascending (cached; read-only)."""
        if self._pending_list is None:
            self._pending_list = sorted(self._pending_tids)
        return self._pending_list

    def head_addr(self, tid: int) -> Optional[int]:
        """Address the next ``flush_one(tid)`` would commit (None if no
        buffered store) — the flush's concrete footprint for POR."""
        raise NotImplementedError

    def flush_one(self, tid: int, addr: Optional[int] = None) -> bool:
        """Commit the oldest buffered store (of ``addr``, if given).

        Returns True if something was flushed.
        """
        raise NotImplementedError

    def drain(self, tid: int) -> None:
        """Commit every buffered store of the thread, oldest first."""
        while self.flush_one(tid):
            pass

    def reset(self) -> None:
        """Discard all buffers (start of a new execution)."""
        raise NotImplementedError

    # -- snapshot/restore (schedule exploration) -----------------------
    #
    # ``snapshot()`` captures the model's complete mutable state as an
    # immutable-enough value; ``restore()`` reinstates it.  One snapshot
    # may be restored many times (fork-and-backtrack DFS), so restore
    # always rebuilds fresh mutable containers.  ``fingerprint()`` is a
    # canonical hashable encoding of the buffers for state dedup.

    def snapshot(self):
        return (self.depth_hwm, dict(self._depths),
                self._buffers_snapshot())

    def restore(self, state) -> None:
        self.depth_hwm = state[0]
        self._depths = dict(state[1])
        self._buffers_restore(state[2])
        self._pending_list = None

    def _buffers_snapshot(self):
        return None

    def _buffers_restore(self, state) -> None:
        if state is not None:
            raise NotImplementedError(
                "%s does not implement buffer restore" % type(self).__name__)

    def fingerprint(self):
        """Canonical hashable encoding of all buffered stores."""
        return ()

    # -- helpers -------------------------------------------------------

    def _reset_tracking(self) -> None:
        """Forget depths and pending threads (buffers were discarded)."""
        self.depth_hwm = 0
        self._depths.clear()
        self._pending_tids.clear()
        self._pending_list = None

    def _note_push(self, tid: int) -> None:
        """A store entered the thread's buffer: bump the depth HWM and
        mark the thread pending.  The pending set lives here (not in the
        concrete write/flush methods) so subclasses overriding those —
        the broken-model oracle tests do — keep it consistent for free."""
        depth = self._depths.get(tid, 0) + 1
        self._depths[tid] = depth
        if depth == 1:
            self._pending_tids.add(tid)
            self._pending_list = None
        if depth > self.depth_hwm:
            self.depth_hwm = depth

    def _note_pop(self, tid: int) -> None:
        depth = self._depths[tid] - 1
        self._depths[tid] = depth
        if depth <= 0:
            self._pending_tids.discard(tid)
            self._pending_list = None

    def _do_commit(self, tid: int, addr: int, value: int, label: int) -> None:
        if self._commit is None:
            raise RuntimeError("memory model not attached to shared memory")
        self._commit(tid, addr, value, label)


class SCModel(StoreBufferModel):
    """Sequentially consistent memory: no buffering at all.

    Running the engine under SC is how the paper checks algorithmic
    correctness independent of memory-model effects (e.g. discovering that
    Cilk's THE queue is not linearizable even without reordering).
    """

    name = "sc"

    def read(self, tid, addr, label):
        return (False, 0)

    def write(self, tid, addr, value, label):
        self._do_commit(tid, addr, value, label)

    def pre_cas(self, tid, addr, label):
        pass

    def fence(self, tid, kind):
        pass

    def has_pending(self, tid):
        return False

    def pending_addrs(self, tid):
        return _EMPTY_LIST

    def pending_count(self, tid):
        return 0

    def head_addr(self, tid):
        return None

    def flush_one(self, tid, addr=None):
        return False

    def reset(self):
        pass


class TSOModel(StoreBufferModel):
    """Total Store Order: one FIFO buffer of (addr, value, label) per thread.

    Loads may bypass earlier stores to *different* addresses; loads of a
    buffered address forward the newest buffered value.  Store-store order
    is preserved (single FIFO), so only store→load predicates arise and a
    ``ST_ST`` fence is a no-op.
    """

    name = "tso"

    def __init__(self) -> None:
        super().__init__()
        self._buffers: Dict[int, Deque[Tuple[int, int, int]]] = {}

    def _buffer(self, tid: int) -> Deque[Tuple[int, int, int]]:
        buf = self._buffers.get(tid)
        if buf is None:
            buf = deque()
            self._buffers[tid] = buf
        return buf

    def read(self, tid, addr, label):
        buf = self._buffers.get(tid)
        if not buf:
            return (False, 0)
        if self.sink is not None:
            for (pending_addr, _value, pending_label) in buf:
                if pending_addr != addr:
                    self.sink.add(pending_label, label, FenceKind.ST_LD)
        # Store forwarding: newest buffered value for this address wins.
        for (pending_addr, value, _pl) in reversed(buf):
            if pending_addr == addr:
                return (True, value)
        return (False, 0)

    def write(self, tid, addr, value, label):
        # TSO never reorders store-store: no predicates on a store.
        self._buffer(tid).append((addr, value, label))
        self._note_push(tid)

    def pre_cas(self, tid, addr, label):
        # x86 LOCK'd operations are full barriers: drain everything.  With
        # an empty buffer no bypass is possible, hence no predicates.
        self.drain(tid)

    def fence(self, tid, kind):
        if kind is FenceKind.ST_ST:
            return  # TSO already orders store-store.
        self.drain(tid)

    def has_pending(self, tid):
        buf = self._buffers.get(tid)
        return bool(buf)

    def pending_addrs(self, tid):
        buf = self._buffers.get(tid)
        if not buf:
            return _EMPTY_LIST
        return [entry[0] for entry in buf]

    def pending_count(self, tid):
        buf = self._buffers.get(tid)
        return len(buf) if buf else 0

    def head_addr(self, tid):
        buf = self._buffers.get(tid)
        return buf[0][0] if buf else None

    def flush_one(self, tid, addr=None):
        buf = self._buffers.get(tid)
        if not buf:
            return False
        # TSO flushes strictly in FIFO order; a requested addr that is not
        # at the head cannot be flushed out of order.
        if addr is not None and buf[0][0] != addr:
            return False
        pending_addr, value, label = buf.popleft()
        self._note_pop(tid)
        self._do_commit(tid, pending_addr, value, label)
        return True

    def reset(self):
        self._buffers.clear()
        self._reset_tracking()

    def _buffers_snapshot(self):
        return {tid: tuple(buf)
                for tid, buf in self._buffers.items() if buf}

    def _buffers_restore(self, state):
        self._buffers = {tid: deque(entries)
                         for tid, entries in state.items()}
        self._pending_tids = set(state)

    def fingerprint(self):
        return tuple(sorted((tid, tuple(buf))
                            for tid, buf in self._buffers.items() if buf))


class PSOModel(StoreBufferModel):
    """Partial Store Order: one FIFO buffer per (thread, address).

    Stores to different addresses may be committed in any relative order,
    so both store→load and store→store bypasses occur, and predicates of
    both kinds are generated (paper Semantics 2).
    """

    name = "pso"

    def __init__(self) -> None:
        super().__init__()
        # tid -> addr -> deque of (value, label)
        self._buffers: Dict[int, Dict[int, Deque[Tuple[int, int]]]] = {}

    def _thread_buffers(self, tid: int) -> Dict[int, Deque[Tuple[int, int]]]:
        bufs = self._buffers.get(tid)
        if bufs is None:
            bufs = {}
            self._buffers[tid] = bufs
        return bufs

    def _report_bypasses(self, tid: int, addr: int, label: int,
                         kind: FenceKind) -> None:
        if self.sink is None:
            return
        bufs = self._buffers.get(tid)
        if not bufs:
            return
        for other_addr, entries in bufs.items():
            if other_addr == addr or not entries:
                continue
            for (_value, pending_label) in entries:
                self.sink.add(pending_label, label, kind)

    def read(self, tid, addr, label):
        self._report_bypasses(tid, addr, label, FenceKind.ST_LD)
        bufs = self._buffers.get(tid)
        if bufs:
            entries = bufs.get(addr)
            if entries:
                return (True, entries[-1][0])
        return (False, 0)

    def write(self, tid, addr, value, label):
        self._report_bypasses(tid, addr, label, FenceKind.ST_ST)
        bufs = self._thread_buffers(tid)
        entries = bufs.get(addr)
        if entries is None:
            entries = deque()
            bufs[addr] = entries
        entries.append((value, label))
        self._note_push(tid)

    def pre_cas(self, tid, addr, label):
        # The paper's CAS rule requires only B(x) = empty under PSO; other
        # variables' buffers stay pending — and are reported as bypassed.
        self._report_bypasses(tid, addr, label, FenceKind.FULL)
        self.drain_addr(tid, addr)

    def fence(self, tid, kind):
        # The paper's FENCE rule demands all of the thread's buffers empty
        # regardless of flavour; TSO-only distinctions don't apply here.
        self.drain(tid)

    def drain_addr(self, tid: int, addr: int) -> None:
        while self.flush_one(tid, addr):
            pass

    def has_pending(self, tid):
        bufs = self._buffers.get(tid)
        if not bufs:
            return False
        return any(entries for entries in bufs.values())

    def pending_addrs(self, tid):
        bufs = self._buffers.get(tid)
        if not bufs:
            return _EMPTY_LIST
        return sorted(addr for addr, entries in bufs.items() if entries)

    def pending_count(self, tid):
        bufs = self._buffers.get(tid)
        if not bufs:
            return 0
        return sum(len(entries) for entries in bufs.values())

    def head_addr(self, tid):
        bufs = self._buffers.get(tid)
        if not bufs:
            return None
        candidates = [a for a, entries in bufs.items() if entries]
        return min(candidates) if candidates else None

    def flush_one(self, tid, addr=None):
        bufs = self._buffers.get(tid)
        if not bufs:
            return False
        if addr is None:
            candidates = [a for a, entries in bufs.items() if entries]
            if not candidates:
                return False
            addr = min(candidates)  # deterministic pick for drain()
        entries = bufs.get(addr)
        if not entries:
            return False
        value, label = entries.popleft()
        if not entries:
            del bufs[addr]
        self._note_pop(tid)
        self._do_commit(tid, addr, value, label)
        return True

    def reset(self):
        self._buffers.clear()
        self._reset_tracking()

    def _buffers_snapshot(self):
        return {tid: {addr: tuple(entries)
                      for addr, entries in bufs.items() if entries}
                for tid, bufs in self._buffers.items() if bufs}

    def _buffers_restore(self, state):
        self._buffers = {tid: {addr: deque(entries)
                               for addr, entries in bufs.items()}
                         for tid, bufs in state.items()}
        self._pending_tids = {tid for tid, bufs in self._buffers.items()
                              if bufs}

    def fingerprint(self):
        return tuple(sorted(
            (tid, tuple(sorted((addr, tuple(entries))
                               for addr, entries in bufs.items()
                               if entries)))
            for tid, bufs in self._buffers.items()
            if any(bufs.values())))


_MODELS = {"sc": SCModel, "tso": TSOModel, "pso": PSOModel}


def make_model(name: str) -> StoreBufferModel:
    """Instantiate a memory model by name ("sc", "tso" or "pso")."""
    try:
        return _MODELS[name.lower()]()
    except KeyError:
        raise ValueError("unknown memory model %r (want sc/tso/pso)"
                         % (name,)) from None
