"""Snapshot-based incremental DFS explorer with partial-order reduction.

The replay-based explorer in :mod:`repro.sched.exhaustive` re-executes the
program from scratch for every path — O(depth) work per path.  This module
walks the same choice tree by *fork-and-backtrack*: at each decision point
with more than one live branch it captures a :class:`~repro.vm.interp.VMSnapshot`,
executes the first branch in place, and restores the snapshot for each
sibling — one VM step per tree edge.

On top of the incremental walk it layers two sound reductions:

* **Sleep sets** (Godefroid).  After a branch ``c`` is fully explored at a
  node, every sibling subtree carries ``c`` in its *sleep set* for as long
  as only actions independent of ``c`` execute; a slept action is never
  branched on, because the interleaving it would start is a commuted copy
  of one already explored.  Independence comes from action *footprints*
  (read/write address sets): thread-local steps, buffered stores (which
  touch only the issuing thread's own buffer), and flushes/accesses of
  disjoint addresses all commute.  Sleep sets alone still visit every
  reachable state, so outcome and violation sets are preserved exactly.
* **State caching**.  Distinct interleavings frequently converge on the
  same state (same thread frames, memory, and buffers).  A canonical hash
  of the state dedupes re-exploration, with the standard sleep-set
  proviso: a cached state only covers a revisit whose sleep set is a
  superset of the one it was first explored with.

``reduction`` selects the level: ``"none"`` (exact mirror of the replay
tree, for differential validation), ``"sleep"``, or ``"sleep+cache"``
(default).  ``workers`` > 1 additionally fans top-level subtrees out
across processes (see :mod:`repro.parallel.explore`) with an
index-ordered deterministic merge.

Caveats (documented, not enforced): the state cache keys on threads,
memory, buffers, and spawn counter — not on the step count — so if
``max_steps`` is small enough to truncate *finite* paths, a cached run
may explore outcomes past a step horizon the replay baseline stops at.
All catalog litmus tests and generated fuzz programs have bounded loops,
where budget ``max_steps`` is never the binding constraint.
"""

from __future__ import annotations

import pickle
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..ir import instructions as ins
from ..ir.module import Module
from ..memory.models import make_model
from ..obs.recorder import NULL_RECORDER
from ..vm.compile import make_vm
from ..vm.errors import SpecViolationError, StepLimitExceeded
from ..vm.interp import VM, VMSnapshot
from .exhaustive import (
    ExplorationResult,
    ModelFactory,
    OutcomeFn,
    _advance_local,
)

#: Supported reduction levels, weakest first.
REDUCTIONS = ("none", "sleep", "sleep+cache")

#: An action footprint: (is_global, reads, writes).  Global actions
#: (fences, CAS, fork/join, allocation, calls/returns — anything whose
#: commutativity we do not prove) conflict with everything.
Footprint = Tuple[bool, FrozenSet[int], FrozenSet[int]]

_EMPTY: FrozenSet[int] = frozenset()
_GLOBAL_FP: Footprint = (True, _EMPTY, _EMPTY)
#: A buffered store: appends to the issuing thread's own FIFO buffer,
#: invisible to every other thread until a *flush* commits it — so it
#: commutes with everything except that thread's own actions (which are
#: never candidates for each other's sleep sets anyway).
_LOCAL_FP: Footprint = (False, _EMPTY, _EMPTY)


class ExploreStats:
    """Reduction and snapshot counters for one exploration."""

    __slots__ = ("paths", "pruned", "cache_hits", "cache_states",
                 "snapshots", "restores", "snapshot_bytes", "subtrees")

    def __init__(self) -> None:
        self.paths = 0            # leaves reached (terminal/violation/limit)
        self.pruned = 0           # branches skipped because slept
        self.cache_hits = 0       # nodes skipped as already-explored states
        self.cache_states = 0     # distinct states entered into the cache
        self.snapshots = 0
        self.restores = 0
        self.snapshot_bytes = 0   # pickled size of the first snapshot taken
        self.subtrees = 0         # parallel fan-out tasks (0 = serial)

    def merge(self, other: "ExploreStats") -> None:
        self.paths += other.paths
        self.pruned += other.pruned
        self.cache_hits += other.cache_hits
        self.cache_states += other.cache_states
        self.snapshots += other.snapshots
        self.restores += other.restores
        if self.snapshot_bytes == 0:
            self.snapshot_bytes = other.snapshot_bytes
        self.subtrees += other.subtrees

    @property
    def estimated_unreduced(self) -> int:
        """Lower bound on the replay-baseline path count: every pruned
        branch and cache hit stands for at least one whole subtree."""
        return self.paths + self.pruned + self.cache_hits

    def as_dict(self) -> dict:
        return {
            "paths": self.paths,
            "pruned_branches": self.pruned,
            "cache_hits": self.cache_hits,
            "cache_states": self.cache_states,
            "snapshots": self.snapshots,
            "restores": self.restores,
            "snapshot_bytes": self.snapshot_bytes,
            "subtrees": self.subtrees,
            "estimated_unreduced": self.estimated_unreduced,
        }

    def __repr__(self) -> str:
        return ("<ExploreStats paths=%d pruned=%d cache_hits=%d "
                "snapshots=%d>" % (self.paths, self.pruned,
                                   self.cache_hits, self.snapshots))


# ----------------------------------------------------------------------
# Footprints and independence

def _step_footprint(vm: VM, tid: int, instr) -> Footprint:
    """The shared-state footprint of thread *tid*'s next step."""
    if instr is None:
        # Blocked-join completion: drains the target's buffers and
        # changes scheduling state — treat as global.
        return _GLOBAL_FP
    cls = instr.__class__
    if cls is ins.Load:
        addr = vm._value(instr.addr, vm.threads[tid].top)
        return (False, frozenset((addr,)), _EMPTY)
    if cls is ins.Store:
        if vm.model.name == "sc":
            # SC commits immediately: a real shared write.
            addr = vm._value(instr.addr, vm.threads[tid].top)
            return (False, _EMPTY, frozenset((addr,)))
        return _LOCAL_FP
    return _GLOBAL_FP


def _flush_footprint(addr: Optional[int]) -> Footprint:
    if addr is None:
        return _GLOBAL_FP  # unknown target: be conservative
    return (False, _EMPTY, frozenset((addr,)))


def _conflict(a: Footprint, b: Footprint) -> bool:
    """Two actions are *dependent* iff their footprints conflict."""
    if a[0] or b[0]:
        return True
    return bool(a[2] & b[2]) or bool(a[2] & b[1]) or bool(a[1] & b[2])


#: One branch option: (choice-to-apply, stable identity, footprint).
#: The identity is what sleep sets are keyed on; it must stay meaningful
#: while the action is deferred.  ("step", tid) is stable because a slept
#: thread cannot move; a TSO flush is applied as ("flush", tid, None) but
#: identified by its head address, which is pinned while slept (only the
#: thread's own global actions could drain it, and those conflict).
Option = Tuple[Tuple, Tuple, Footprint]


def _options(vm: VM) -> List[Option]:
    """Branch options in the exact order of the replay baseline's
    ``_decision_options`` (enabled tids ascending, then flushes)."""
    opts: List[Option] = []
    for tid in vm.enabled_tids():
        ident = ("step", tid)
        opts.append((ident, ident,
                     _step_footprint(vm, tid, vm.peek(tid))))
    model = vm.model
    if model.name == "pso":
        for tid in vm.tids_with_pending():
            for addr in model.pending_addrs(tid):
                ident = ("flush", tid, addr)
                opts.append((ident, ident, _flush_footprint(addr)))
    else:
        for tid in vm.tids_with_pending():
            head = model.head_addr(tid)
            opts.append((("flush", tid, None), ("flush", tid, head),
                         _flush_footprint(head)))
    return opts


# ----------------------------------------------------------------------
# State canonicalisation (dedup cache)

def _state_key(vm: VM) -> Tuple:
    """Canonical hashable encoding of the full execution state.

    Deliberately excludes the step/seq counters so interleavings that
    converge on the same state dedupe (see module caveat on
    ``max_steps``), and the history (outcome extraction for explored
    programs depends on globals and thread results only).
    """
    threads = tuple(
        (tid, thread.status.value, thread.join_target, thread.result,
         tuple((frame.fn.name, frame.ip, tuple(sorted(frame.regs.items())))
               for frame in thread.frames))
        for tid, thread in sorted(vm.threads.items()))
    return (threads, vm._next_tid, vm.memory.fingerprint(),
            vm.model.fingerprint())


# ----------------------------------------------------------------------
# The DFS core

class _Node:
    """One open interior node of the DFS tree."""

    __slots__ = ("snap", "branch", "index", "sleep", "needs_restore")

    def __init__(self, snap: Optional[VMSnapshot], branch: List[Option],
                 sleep: Dict[Tuple, Footprint]) -> None:
        self.snap = snap
        self.branch = branch
        self.index = 0
        self.sleep = sleep          # mutated: explored siblings added
        self.needs_restore = False  # first child runs on the live state


class _Search:
    """Iterative fork-and-backtrack DFS over one VM's choice tree."""

    def __init__(self, vm: VM, outcome_fn: OutcomeFn, max_paths: int,
                 use_sleep: bool, cache: Optional[dict],
                 stats: ExploreStats, outcomes: Set[Tuple],
                 violations: Set[str]) -> None:
        self.vm = vm
        self.outcome_fn = outcome_fn
        self.max_paths = max_paths
        self.use_sleep = use_sleep
        self.cache = cache
        self.stats = stats
        self.outcomes = outcomes
        self.violations = violations
        self.stack: List[_Node] = []

    def run(self, sleep: Dict[Tuple, Footprint]) -> bool:
        """Explore the subtree rooted at the VM's current state.

        Returns True iff the subtree was fully explored within budget.
        """
        vm = self.vm
        stats = self.stats
        if not self._root(sleep):
            return True
        stack = self.stack
        while stack:
            if stats.paths >= self.max_paths:
                return False
            node = stack[-1]
            if node.index >= len(node.branch):
                stack.pop()
                continue
            choice, ident, fp = node.branch[node.index]
            node.index += 1
            if node.needs_restore:
                vm.restore(node.snap, consume=node.index >= len(node.branch))
                stats.restores += 1
            node.needs_restore = True
            if self.use_sleep:
                child_sleep = {i: f for i, f in node.sleep.items()
                               if not _conflict(f, fp)}
                node.sleep[ident] = fp
            else:
                child_sleep = node.sleep
            if self._edge(choice):
                self._visit(child_sleep)
        return True

    def _root(self, sleep: Dict[Tuple, Footprint]) -> bool:
        """Advance local steps and open the root node.  Returns False if
        the root itself is a leaf (nothing pushed)."""
        try:
            _advance_local(self.vm)
        except SpecViolationError as exc:
            self.violations.add(str(exc))
            self.stats.paths += 1
            return False
        except StepLimitExceeded:
            self.stats.paths += 1
            return False
        self._visit(dict(sleep))
        return bool(self.stack)

    def _edge(self, choice: Tuple) -> bool:
        """Execute one choice plus eager local steps.  Returns False when
        the edge terminates the path (violation or step limit)."""
        vm = self.vm
        try:
            if choice[0] == "step":
                vm.step(choice[1])
            else:
                vm.flush_one(choice[1], choice[2])
            _advance_local(vm)
        except SpecViolationError as exc:
            self.violations.add(str(exc))
            self.stats.paths += 1
            return False
        except StepLimitExceeded:
            self.stats.paths += 1  # unbounded path (e.g. spin loop): prune
            return False
        return True

    def _visit(self, sleep: Dict[Tuple, Footprint]) -> None:
        """Classify the VM's current state: leaf, pruned, cached, or a
        new interior node pushed onto the stack."""
        vm = self.vm
        stats = self.stats
        options = _options(vm)
        if not options:
            self.outcomes.add(self.outcome_fn(vm))
            stats.paths += 1
            return
        if sleep:
            branch = [o for o in options if o[1] not in sleep]
            stats.pruned += len(options) - len(branch)
            if not branch:
                return  # fully slept: every continuation already covered
        else:
            branch = options
        cache = self.cache
        if cache is not None:
            key = _state_key(vm)
            slept = frozenset(sleep)
            stored = cache.get(key)
            if stored is None:
                cache[key] = [slept]
                stats.cache_states += 1
            else:
                # This state covers the revisit only if it was explored
                # with a sleep set no larger than ours (it explored at
                # least every branch we would).
                for prev in stored:
                    if prev <= slept:
                        stats.cache_hits += 1
                        return
                stored[:] = [p for p in stored if not slept <= p]
                stored.append(slept)
        snap = None
        if len(branch) > 1:
            snap = vm.snapshot()
            stats.snapshots += 1
            if stats.snapshot_bytes == 0:
                stats.snapshot_bytes = _snapshot_size(snap)
        self.stack.append(_Node(snap, branch, sleep))


def _snapshot_size(snap: VMSnapshot) -> int:
    try:
        payload = tuple(getattr(snap, slot) for slot in VMSnapshot.__slots__)
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return -1  # unpicklable snapshot contents: size unknown


# ----------------------------------------------------------------------
# Entry points

def _make_outcome_fn(outcome_globals: Sequence[str]) -> OutcomeFn:
    def outcome_fn(vm: VM) -> Tuple:
        return tuple(vm.memory.read(vm.memory.global_addr[g])
                     for g in outcome_globals)
    return outcome_fn


def _replay_prefix(vm: VM, prefix: Sequence[int]) -> None:
    """Drive *vm* down a recorded choice-index prefix (parallel workers
    and frontier expansion).  Raises like normal execution."""
    _advance_local(vm)
    for index in prefix:
        options = _options(vm)
        if index >= len(options):
            raise RuntimeError(
                "stale subtree prefix: index %d of %d options — "
                "deterministic replay diverged" % (index, len(options)))
        choice = options[index][0]
        if choice[0] == "step":
            vm.step(choice[1])
        else:
            vm.flush_one(choice[1], choice[2])
        _advance_local(vm)


def explore_subtree(module: Module, model_factory: Optional[ModelFactory],
                    model_name: str, entry: str,
                    outcome_fn: Optional[OutcomeFn],
                    outcome_globals: Sequence[str],
                    prefix: Sequence[int],
                    sleep_items: Sequence[Tuple[Tuple, Footprint]],
                    reduction: str, max_paths: int, max_steps: int):
    """Explore one subtree (identified by a choice-index prefix) to
    completion.  This is the unit of work shipped to parallel workers;
    it is also used in-process for the picklability fallback.

    Returns ``(outcomes, violations, paths, complete, stats)``.
    """
    if model_factory is None:
        def model_factory():
            return make_model(model_name)
    if outcome_fn is None:
        outcome_fn = _make_outcome_fn(outcome_globals)
    stats = ExploreStats()
    outcomes: Set[Tuple] = set()
    violations: Set[str] = set()
    vm = make_vm(module, model_factory(), entry=entry, max_steps=max_steps)
    try:
        _replay_prefix(vm, prefix)
    except SpecViolationError as exc:
        violations.add(str(exc))
        stats.paths += 1
        return outcomes, violations, stats.paths, True, stats
    except StepLimitExceeded:
        stats.paths += 1
        return outcomes, violations, stats.paths, True, stats
    cache = {} if reduction == "sleep+cache" else None
    search = _Search(vm, outcome_fn, max_paths, reduction != "none",
                     cache, stats, outcomes, violations)
    complete = search.run(dict(sleep_items))
    return outcomes, violations, stats.paths, complete, stats


def _expand_frontier(module: Module, model_factory: ModelFactory,
                     entry: str, outcome_fn: OutcomeFn, max_steps: int,
                     target: int, max_depth: int, use_sleep: bool,
                     stats: ExploreStats, outcomes: Set[Tuple],
                     violations: Set[str]):
    """Breadth-first expand the top of the choice tree into >= *target*
    subtree tasks (or fewer if the tree is small).

    Shallow leaves are folded directly into ``outcomes``/``violations``.
    Returns a list of ``(prefix, sleep_items)`` tasks in deterministic
    left-to-right tree order.
    """
    tasks: List[Tuple[Tuple[int, ...], Tuple]] = []
    queue: List[Tuple[Tuple[int, ...], Tuple]] = [((), ())]
    while queue:
        prefix, sleep_items = queue.pop(0)
        if (len(tasks) + len(queue) + 1 >= target
                or len(prefix) >= max_depth):
            tasks.append((prefix, sleep_items))
            continue
        vm = make_vm(module, model_factory(), entry=entry,
                     max_steps=max_steps)
        try:
            _replay_prefix(vm, prefix)
        except SpecViolationError as exc:
            violations.add(str(exc))
            stats.paths += 1
            continue
        except StepLimitExceeded:
            stats.paths += 1
            continue
        options = _options(vm)
        if not options:
            outcomes.add(outcome_fn(vm))
            stats.paths += 1
            continue
        sleep: Dict[Tuple, Footprint] = dict(sleep_items)
        if sleep:
            branch = [(i, o) for i, o in enumerate(options)
                      if o[1] not in sleep]
            stats.pruned += len(options) - len(branch)
        else:
            branch = list(enumerate(options))
        for i, (_choice, ident, fp) in branch:
            if use_sleep:
                child = tuple((i2, f2) for i2, f2 in sleep.items()
                              if not _conflict(f2, fp))
                queue.append((prefix + (i,), child))
                sleep[ident] = fp
            else:
                queue.append((prefix + (i,), ()))
    return tasks


def explore(module: Module, model_name: str = "sc", entry: str = "main",
            outcome_globals: Sequence[str] = (),
            outcome_fn: Optional[OutcomeFn] = None,
            max_paths: int = 20_000,
            max_steps: int = 2_000,
            model_factory: Optional[ModelFactory] = None,
            reduction: str = "sleep+cache",
            workers: Optional[int] = None,
            recorder=NULL_RECORDER) -> ExplorationResult:
    """Enumerate schedules of *module* under *model_name*.

    Drop-in replacement for :func:`repro.sched.exhaustive.explore` with
    the same outcome/violation semantics; ``reduction="none"`` visits the
    identical tree (identical ``paths`` count) one VM step per edge.
    The result carries an :class:`ExploreStats` in ``.stats``.

    ``workers``: ``None``/``1`` explores serially; ``n > 1`` splits
    top-level subtrees across ``n`` processes; ``0`` means one per CPU.
    Parallel runs fall back to serial transparently when the module,
    model factory, or outcome function cannot be pickled.
    """
    if reduction not in REDUCTIONS:
        raise ValueError("unknown reduction %r (expected one of %s)"
                         % (reduction, ", ".join(REDUCTIONS)))
    stats = ExploreStats()
    outcomes: Set[Tuple] = set()
    violations: Set[str] = set()
    if max_paths <= 0:
        return ExplorationResult(outcomes, 0, False, violations, stats=stats)

    from ..parallel.explore import plan_workers, run_parallel
    count = plan_workers(workers)
    if count > 1:
        # Pass the *user's* factory/outcome_fn (possibly None) through:
        # workers rebuild the defaults locally, so default explorations
        # stay picklable.
        result = run_parallel(
            module, model_factory, model_name, entry, outcome_fn,
            outcome_globals, reduction, max_paths, max_steps, count,
            stats, outcomes, violations)
        if result is not None:
            recorder.explore(stats)
            return result

    if model_factory is None:
        def model_factory():
            return make_model(model_name)
    if outcome_fn is None:
        outcome_fn = _make_outcome_fn(outcome_globals)
    vm = make_vm(module, model_factory(), entry=entry, max_steps=max_steps)
    cache = {} if reduction == "sleep+cache" else None
    search = _Search(vm, outcome_fn, max_paths, reduction != "none",
                     cache, stats, outcomes, violations)
    complete = search.run({})
    recorder.explore(stats)
    return ExplorationResult(outcomes, stats.paths, complete, violations,
                             stats=stats)
