"""The explorer's incremental state key stays coherent.

Each thread caches its canonical tuple in ``Thread.key`` until the
explorer moves it (:func:`repro.sched.explorer._state_key`).  A key the
explorer forgets to drop makes two different states compare equal, and
the state cache then silently skips unexplored subtrees.  These tests
check, at every ``_state_key`` call of whole explorations (litmus
catalog, corpus reproducers, fuzz programs × SC/TSO/PSO × both VM legs),
that every cached thread key equals a from-scratch computation, and that
the assembled key equals the non-incremental one.  A cached key is also
not part of a pickled snapshot.
"""

import glob
import os
import pickle

import pytest

from repro.fuzz.generator import ProgramGenerator
from repro.litmus import LITMUS_TESTS, thread_results
from repro.memory.models import make_model
from repro.minic import compile_source
from repro.sched import explorer
from repro.vm.compile import make_vm
from repro.vm.interp import VMSnapshot
from tests.reference_vm import BACKENDS

MODELS = ["sc", "tso", "pso"]
CORPUS_FILES = sorted(glob.glob(
    os.path.join(os.path.dirname(__file__), "corpus", "*.c")))
FUZZ_SEEDS = range(6)


def _scratch_key(vm):
    """The state key computed with no cache at all."""
    threads = tuple(explorer._thread_key(thread)
                    for _, thread in sorted(vm.threads.items()))
    return (threads, vm._next_tid, vm.memory.fingerprint(),
            vm.model.fingerprint())


def _explore_with(monkeypatch, key_fn, module, model, max_steps):
    """Explore under ``sleep+cache`` with *key_fn* as the state key."""
    real = explorer._state_key
    monkeypatch.setattr(explorer, "_state_key", key_fn)
    try:
        return explorer.explore(module, model, outcome_fn=thread_results,
                                max_paths=120_000, max_steps=max_steps)
    finally:
        monkeypatch.setattr(explorer, "_state_key", real)


def _assert_coherent(monkeypatch, module, model, max_steps=2_000):
    real = explorer._state_key
    reused = [0]

    def checked(vm):
        for tid, thread in vm.threads.items():
            if thread.key is not None:
                assert thread.key == explorer._thread_key(thread), \
                    "stale cached key of thread %d" % tid
                reused[0] += 1
        key = real(vm)
        assert key == _scratch_key(vm)
        return key

    result = _explore_with(monkeypatch, checked, module, model, max_steps)
    assert reused[0] > 0  # the cache was exercised, not only rebuilt
    # Same equality relation: the same states hit the cache.
    scratch = _explore_with(monkeypatch, _scratch_key, module, model,
                            max_steps)
    assert result.outcomes == scratch.outcomes
    assert result.violations == scratch.violations
    assert result.complete == scratch.complete
    for counter in ("paths", "pruned", "cache_hits", "cache_states"):
        assert getattr(result.stats, counter) \
            == getattr(scratch.stats, counter), counter


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_keys_coherent(monkeypatch, backend, model, name):
    _assert_coherent(monkeypatch, LITMUS_TESTS[name].compile(), model)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("path", CORPUS_FILES,
                         ids=[os.path.basename(p) for p in CORPUS_FILES])
def test_corpus_keys_coherent(monkeypatch, backend, model, path):
    with open(path) as handle:
        module = compile_source(handle.read(), os.path.basename(path))
    _assert_coherent(monkeypatch, module, model)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_keys_coherent(monkeypatch, backend, model, seed):
    module = ProgramGenerator().generate(seed).compile()
    _assert_coherent(monkeypatch, module, model, max_steps=4_000)


LOCAL_RUNS = """
int X;
int t1() { int a = 3; int b = a * 2; X = b; return b; }
int main() { int t = fork(t1); int c = 5; int d = c + 1; X = d; join(t);
             return d; }
"""


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_advance_local_drops_keys_of_threads_it_runs(backend):
    # Through explore() every keyed thread already sits on a non-local
    # instruction, so this drop is only reachable by calling
    # _advance_local on a keyed state directly.
    vm = make_vm(compile_source(LOCAL_RUNS, "local_runs"), make_model("tso"))
    explorer._advance_local(vm)
    vm.step(0)  # fork: both threads now sit on local instructions
    explorer._state_key(vm)
    ips = {tid: t.top.ip for tid, t in vm.threads.items()}
    explorer._advance_local(vm)
    assert all(t.top.ip != ips[tid] for tid, t in vm.threads.items())
    assert all(t.key is None for t in vm.threads.values())
    assert explorer._state_key(vm) == _scratch_key(vm)


def _keyed_snapshot():
    """A snapshot of the SB litmus test whose threads all hold keys."""
    vm = make_vm(LITMUS_TESTS["sb"].compile(), make_model("tso"))
    explorer._advance_local(vm)
    vm.step(0)  # fork
    explorer._advance_local(vm)
    explorer._state_key(vm)
    snap = vm.snapshot()
    assert len(snap.threads) == 2
    assert all(t.key is not None for t in snap.threads.values())
    return snap


def _pickled(snap):
    return pickle.dumps(tuple(getattr(snap, slot)
                              for slot in VMSnapshot.__slots__),
                        protocol=pickle.HIGHEST_PROTOCOL)


def test_pickled_snapshot_omits_thread_keys():
    snap = _keyed_snapshot()
    keyed = _pickled(snap)
    for thread in snap.threads.values():
        thread.key = None
    assert keyed == _pickled(snap)
    assert explorer._snapshot_size(snap) == len(keyed)
    threads = pickle.loads(keyed)[VMSnapshot.__slots__.index("threads")]
    assert all(t.key is None for t in threads.values())
    assert [t.tid for t in threads.values()] == [0, 1]


def test_clone_carries_key():
    snap = _keyed_snapshot()
    for thread in snap.threads.values():
        assert thread.clone().key is thread.key
