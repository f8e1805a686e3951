"""VM snapshot/restore: the foundation of the fork-and-backtrack DFS.

A snapshot must be a complete, independent copy of the execution state:
restoring it (any number of times) must reproduce the exact behaviour of
a fresh run replayed to the same point, under every memory model.
"""

import pickle
import random

import pytest

from repro.litmus import LITMUS_TESTS, thread_results
from repro.memory.models import make_model
from repro.minic import compile_source
from repro.obs import Recorder
from repro.sched.explorer import explore
from repro.vm.compile import LOCAL_OPS, make_vm
from repro.vm.interp import VM
from repro.vm.state import ThreadStatus
from tests.reference_vm import BACKENDS, ReferenceVM

SB_SOURCE = """
int X; int Y;
int t1() { X = 1; int r = Y; return r; }
int main() {
  int t = fork(t1);
  Y = 1;
  int r = X;
  join(t);
  return r;
}
"""

OP_SOURCE = """
int X;
int bump() { X = X + 1; return X; }
int main() {
  int a = bump();
  int b = bump();
  return a + b;
}
"""

MODELS = ["sc", "tso", "pso"]


def _drive(vm, steps):
    """Round-robin *steps* enabled-thread steps (deterministic)."""
    for _ in range(steps):
        enabled = vm.enabled_tids()
        if not enabled:
            return
        vm.step(enabled[0])


def _run_to_end(vm):
    while True:
        enabled = vm.enabled_tids()
        if enabled:
            vm.step(enabled[0])
        elif vm.tids_with_pending():
            vm.flush_one(vm.tids_with_pending()[0])
        else:
            return tuple(vm.threads[tid].result for tid in sorted(vm.threads))


def _observable_state(vm):
    return (
        {tid: (t.status.value, t.join_target, t.result,
               [(f.fn.name, f.ip, dict(f.regs)) for f in t.frames])
         for tid, t in vm.threads.items()},
        vm.memory.fingerprint(),
        vm.model.fingerprint(),
        vm.steps, vm.seq, vm.flushes, vm._next_tid,
    )


@pytest.mark.parametrize("model", MODELS)
def test_snapshot_restore_roundtrip(model):
    module = compile_source(SB_SOURCE, "sb")
    vm = VM(module, make_model(model), max_steps=500)
    _drive(vm, 6)
    snap = vm.snapshot()
    before = _observable_state(vm)

    first = _run_to_end(vm)
    assert _observable_state(vm) != before  # execution really moved

    vm.restore(snap)
    assert _observable_state(vm) == before
    second = _run_to_end(vm)
    assert second == first  # deterministic continuation reproduced


@pytest.mark.parametrize("model", MODELS)
def test_snapshot_is_isolated_from_execution(model):
    """Running past a snapshot must not mutate the snapshot."""
    module = compile_source(SB_SOURCE, "sb")
    vm = VM(module, make_model(model), max_steps=500)
    _drive(vm, 5)
    snap = vm.snapshot()
    reference = vm.snapshot()
    _run_to_end(vm)

    vm.restore(snap)
    restored = _observable_state(vm)
    vm.restore(reference)
    assert _observable_state(vm) == restored


@pytest.mark.parametrize("model", MODELS)
def test_consume_restore_matches_copy_restore(model):
    module = compile_source(SB_SOURCE, "sb")
    vm = VM(module, make_model(model), max_steps=500)
    _drive(vm, 6)
    snap = vm.snapshot()
    expected = _observable_state(vm)
    _run_to_end(vm)
    vm.restore(snap, consume=True)
    assert _observable_state(vm) == expected
    assert _run_to_end(vm) is not None


@pytest.mark.parametrize("model", MODELS)
def test_restore_rebuilds_scheduling_sets(model):
    """enabled_tids/tids_with_pending are incremental sets; a restore
    must leave them consistent with a full scan of the thread table."""
    module = compile_source(SB_SOURCE, "sb")
    vm = VM(module, make_model(model), max_steps=500)
    _drive(vm, 4)
    snap = vm.snapshot()
    _run_to_end(vm)
    vm.restore(snap)

    runnable_scan = sorted(
        tid for tid, t in vm.threads.items()
        if t.status.value == "runnable"
        or (t.status.value == "blocked_join"
            and vm.threads[t.join_target].finished))
    assert vm.enabled_tids() == runnable_scan
    pending_scan = sorted(tid for tid in vm.threads
                          if vm.model.has_pending(tid))
    assert vm.tids_with_pending() == pending_scan


def test_history_cloned_with_inflight_operations():
    """Snapshots taken inside a recorded operation remap the frame's
    op_record onto the cloned history, so completing the restored run
    does not retroactively complete the original history's record."""
    module = compile_source(OP_SOURCE, "ops")
    vm = VM(module, make_model("sc"), operations=("bump",), max_steps=500)
    # Step until we are inside the first bump() call.
    while not any(f.op_record is not None
                  for t in vm.threads.values() for f in t.frames):
        vm.step(vm.enabled_tids()[0])
    snap = vm.snapshot()
    in_flight = [op for op in vm.history if not op.complete]
    assert in_flight, "expected an in-flight operation"

    _run_to_end(vm)
    assert all(op.complete for op in vm.history)
    finished_history = vm.history

    vm.restore(snap)
    assert vm.history is not finished_history
    assert any(not op.complete for op in vm.history)
    frames = [f for t in vm.threads.values() for f in t.frames
              if f.op_record is not None]
    for frame in frames:
        assert frame.op_record in list(vm.history)
        assert frame.op_record not in list(finished_history)
    _run_to_end(vm)
    assert all(op.complete for op in vm.history)


# ----------------------------------------------------------------------
# Snapshots through make_vm, and against the reference interpreter
# (tests/reference_vm.py).

@pytest.mark.parametrize("model", MODELS)
def test_compiled_snapshot_restore_roundtrip(model):
    module = compile_source(SB_SOURCE, "sb")
    vm = make_vm(module, make_model(model), max_steps=500)
    assert type(vm) is VM
    _drive(vm, 6)
    snap = vm.snapshot()
    before = _observable_state(vm)

    first = _run_to_end(vm)
    vm.restore(snap)
    assert _observable_state(vm) == before
    assert _run_to_end(vm) == first


@pytest.mark.parametrize("model", MODELS)
def test_compiled_and_interpreted_snapshots_agree(model):
    """Step-for-step, the VM and the reference interpreter expose the
    same observable state."""
    module = compile_source(SB_SOURCE, "sb")
    vms = [cls(module, make_model(model), max_steps=500)
           for cls in (ReferenceVM, VM)]
    for _ in range(6):
        for vm in vms:
            _drive(vm, 1)
        assert _observable_state(vms[0]) == _observable_state(vms[1])
    assert _run_to_end(vms[0]) == _run_to_end(vms[1])


@pytest.mark.parametrize("model", ["tso", "pso"])
def test_snapshot_captures_buffered_stores(model):
    module = compile_source(SB_SOURCE, "sb")
    vm = VM(module, make_model(model), max_steps=500)
    # Step main until its store to Y is buffered.
    while not vm.model.has_pending(0):
        vm.step(0)
    snap = vm.snapshot()
    pending_before = vm.model.pending_addrs(0)
    vm.flush_one(0)
    assert vm.model.pending_addrs(0) != pending_before or \
        not vm.model.has_pending(0)
    vm.restore(snap)
    assert vm.model.pending_addrs(0) == pending_before
    assert vm.tids_with_pending() == [0]


# ----------------------------------------------------------------------
# Cached scheduling lists: ``enabled_tids`` and ``tids_with_pending``
# are cached and only rebuilt when a thread spawns, finishes, blocks in
# or completes a join, or a store buffer fills or empties.  Random
# schedules with snapshots, restores and model resets must keep them
# equal to a from-scratch scan, and must never mutate a list handed out
# earlier.  Along the way, ``step()``'s locality answer must match what
# ``peek`` shows.

FORK_JOIN_SOURCE = """
int X; int Y; int Z;
int leaf(int v) { X = v; int r = Y; Y = r + v; return r; }
int waiter(int target) { Z = 1; join(target); return X + Z; }
int mid() {
  int t = fork(leaf, 2);
  Y = 5;
  join(t);
  Z = Y;
  return Z;
}
int main() {
  int a = fork(mid);
  int b = fork(leaf, 3);
  int c = fork(waiter, b);
  X = 7;
  join(a);
  join(c);
  return X + Y;
}
"""


def _scan_enabled(vm):
    threads = vm.threads
    return sorted(
        tid for tid, t in threads.items()
        if t.status is ThreadStatus.RUNNABLE
        or (t.status is ThreadStatus.BLOCKED_JOIN
            and threads[t.join_target].finished))


def _scan_pending(vm):
    return sorted(tid for tid in vm.threads if vm.model.has_pending(tid))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_cached_scheduling_lists_stay_coherent(backend, model, seed):
    rng = random.Random(seed)
    module = compile_source(FORK_JOIN_SOURCE, "forkjoin")
    vm = make_vm(module, make_model(model), max_steps=100_000)
    assert type(vm) is backend
    start = vm.snapshot()
    snaps = []
    handed_out = []  # (list object, copy at the time it was returned)
    seen = set()
    for _ in range(600):
        enabled = vm.enabled_tids()
        pending = vm.tids_with_pending()
        assert enabled == _scan_enabled(vm)
        assert pending == _scan_pending(vm)
        for lst, copy in handed_out:
            assert lst == copy, "a returned list was mutated"
        handed_out.append((enabled, list(enabled)))
        handed_out.append((pending, list(pending)))
        seen.update(t.status for t in vm.threads.values())

        action = rng.random()
        if action < 0.08:
            snaps.append(vm.snapshot())
        elif action < 0.14 and snaps:
            vm.restore(rng.choice(snaps))
        elif action < 0.16:
            vm.model.reset()
        elif pending and (action < 0.40 or not enabled):
            vm.flush_one(rng.choice(pending))
        elif enabled:
            tid = rng.choice(enabled)
            if action < 0.55:
                vm.run_local(tid, 64)
            else:
                local = vm.step(tid)
                nxt = vm.peek(tid)
                assert local == (nxt is not None
                                 and nxt.__class__ in LOCAL_OPS)
        else:
            vm.restore(start)  # run finished: start it over
    assert ThreadStatus.BLOCKED_JOIN in seen
    assert ThreadStatus.FINISHED in seen


# ----------------------------------------------------------------------
# Snapshot size: frames cache their function's compiled closures, which
# do not pickle; a snapshot must still pickle (without them) so the
# explorer can report its size.

def test_snapshot_pickles_without_compiled_code():
    module = compile_source(SB_SOURCE, "sb")
    vm = make_vm(module, make_model("tso"), max_steps=500)
    _drive(vm, 4)
    assert vm.threads[0].top.handlers is not None
    snap = vm.snapshot()
    frames = pickle.loads(pickle.dumps(snap.threads))
    for tid, thread in frames.items():
        for copy, frame in zip(thread.frames, snap.threads[tid].frames):
            assert copy.handlers is None
            assert (copy.fn.name, copy.regs, copy.ip) == \
                (frame.fn.name, frame.regs, frame.ip)
    before = _run_to_end(vm)
    vm.restore(snap)
    for thread in vm.threads.values():
        for frame in thread.frames:
            frame.handlers = None  # as an unpickled frame arrives
    assert _run_to_end(vm) == before


def test_explore_reports_snapshot_bytes():
    recorder = Recorder()
    result = explore(LITMUS_TESTS["sb"].compile(), "tso",
                     outcome_fn=thread_results, recorder=recorder)
    assert result.stats.snapshot_bytes > 0
    histograms = recorder.snapshot()["histograms"]
    assert "explore/snapshot_bytes" in histograms
