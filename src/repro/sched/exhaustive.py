"""Exhaustive schedule exploration for litmus-sized programs.

The random flush-delaying scheduler samples the schedule space; this
module *enumerates* it.  A schedule is a sequence of choices, each either
"step thread t" or "flush one entry of (t, addr)".  The explorer performs
a stateless depth-first search over choice sequences: each path re-runs
the program from scratch following a choice prefix, then branches on
every decision point past the prefix (the standard replay-based DFS used
by stateless model checkers).

This is exact but exponential — use it on litmus tests and toy programs
to validate the memory-model semantics (see tests/test_exhaustive.py),
not on the Table-2 benchmarks.  The search honours a path budget and
reports whether it completed.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..ir.module import Module
from ..memory.models import StoreBufferModel, make_model
from ..vm.compile import make_vm
from ..vm.errors import SpecViolationError, StepLimitExceeded
from ..vm.interp import VM

#: Builds a fresh memory-model instance for one explored path.
ModelFactory = Callable[[], StoreBufferModel]

#: Per-call budget handed to ``VM.run_local`` while advancing local
#: instructions (the burst is repeated until no thread makes progress,
#: so the value only bounds work per call, not total local progress).
_LOCAL_BURST = 4096

#: A choice: ("step", tid) or ("flush", tid, addr_or_None).
Choice = Tuple

#: Outcome extractor: maps a finished VM to a hashable outcome.
OutcomeFn = Callable[[VM], Tuple]


class ExplorationResult:
    """Outcome set of an exhaustive exploration.

    ``stats`` is ``None`` for the replay baseline; the snapshot explorer
    (:mod:`repro.sched.explorer`) attaches an
    :class:`~repro.sched.explorer.ExploreStats` with reduction counters.
    """

    def __init__(self, outcomes: Set[Tuple], paths: int,
                 complete: bool, violations: Set[str],
                 stats=None) -> None:
        self.outcomes = outcomes
        self.paths = paths
        self.complete = complete
        self.violations = violations
        self.stats = stats

    def __repr__(self) -> str:
        return "<ExplorationResult %d outcomes, %d paths%s, %d violations>" \
            % (len(self.outcomes), self.paths,
               "" if self.complete else " (budget hit)",
               len(self.violations))


def _advance_local(vm: VM) -> None:
    """Eagerly run register-only instructions of every thread.

    Local steps commute with all other threads' actions, so executing
    them without branching preserves the reachable outcome set while
    collapsing the search tree (the explorer's partial-order reduction).
    Each thread's local run is executed to completion before moving to
    the next thread (rather than one op per thread round-robin) — the
    commutativity that justifies the reduction also makes the two orders
    reach the same state at every decision point, and one
    :meth:`~repro.vm.interp.VM.run_local` call per thread covers a whole
    run.
    """
    progress = True
    while progress:
        progress = False
        for tid in vm.enabled_tids():
            if vm.run_local(tid, _LOCAL_BURST, with_assert=True):
                progress = True


def _decision_options(vm: VM) -> List[Choice]:
    """All choices available in the current VM state."""
    options: List[Choice] = [("step", tid) for tid in vm.enabled_tids()]
    for tid in vm.tids_with_pending():
        if vm.model.name == "pso":
            for addr in vm.model.pending_addrs(tid):
                options.append(("flush", tid, addr))
        else:
            options.append(("flush", tid, None))
    return options


def _apply(vm: VM, choice: Choice) -> None:
    if choice[0] == "step":
        vm.step(choice[1])
    else:
        vm.flush_one(choice[1], choice[2])


def _run_with_prefix(module: Module, model_factory: ModelFactory,
                     entry: str, prefix: Sequence[int], max_steps: int,
                     outcome_fn: OutcomeFn):
    """Replay *prefix*, then default (first option) to completion.

    Returns (choices_taken, option_counts, outcome, violation).
    """
    model = model_factory()
    vm = make_vm(module, model, entry=entry, max_steps=max_steps)
    taken: List[int] = []
    counts: List[int] = []
    violation: Optional[str] = None
    outcome: Optional[Tuple] = None
    try:
        while True:
            _advance_local(vm)
            options = _decision_options(vm)
            if not options:
                break
            index = prefix[len(taken)] if len(taken) < len(prefix) else 0
            if index >= len(options):
                # A prefix recorded by a previous run must replay
                # identically (the VM is deterministic given the choice
                # sequence), so an out-of-range index means the replay
                # diverged — silently taking option 0 here would corrupt
                # the search invisibly.  Fail loudly instead.
                raise RuntimeError(
                    "stale replay branch: prefix index %d at depth %d but "
                    "only %d options — deterministic replay diverged"
                    % (index, len(taken), len(options)))
            taken.append(index)
            counts.append(len(options))
            _apply(vm, options[index])
        outcome = outcome_fn(vm)
    except SpecViolationError as exc:
        violation = str(exc)
    except StepLimitExceeded:
        violation = None  # unbounded path (e.g. spin loop): prune
    return taken, counts, outcome, violation


def explore(module: Module, model_name: str = "sc", entry: str = "main",
            outcome_globals: Sequence[str] = (),
            outcome_fn: Optional[OutcomeFn] = None,
            max_paths: int = 20_000,
            max_steps: int = 2_000,
            model_factory: Optional[ModelFactory] = None) -> ExplorationResult:
    """Enumerate schedules of *module* under *model_name*.

    Outcomes are tuples of the named globals' final values (or whatever
    ``outcome_fn`` extracts).  Paths that crash with a spec violation are
    collected separately in ``violations``.

    ``model_factory`` overrides how the per-path memory model is built
    (default: ``make_model(model_name)``).  The differential fuzzing
    oracles use it to run the explorer against deliberately broken model
    variants; the factory's models must keep the ``name`` of the model
    family they mimic, since flush-choice enumeration keys on it.
    """
    if model_factory is None:
        def model_factory():
            return make_model(model_name)
    if outcome_fn is None:
        def outcome_fn(vm: VM) -> Tuple:
            return tuple(vm.memory.read(vm.memory.global_addr[g])
                         for g in outcome_globals)

    outcomes: Set[Tuple] = set()
    violations: Set[str] = set()
    stack: List[List[int]] = [[]]
    paths = 0
    complete = True

    while stack:
        if paths >= max_paths:
            complete = False
            break
        prefix = stack.pop()
        taken, counts, outcome, violation = _run_with_prefix(
            module, model_factory, entry, prefix, max_steps, outcome_fn)
        paths += 1
        if outcome is not None:
            outcomes.add(outcome)
        if violation is not None:
            violations.add(violation)
        # Branch on every decision point at or past the prefix length.
        for i in range(len(prefix), len(taken)):
            for alternative in range(1, counts[i]):
                stack.append(taken[:i] + [alternative])

    return ExplorationResult(outcomes, paths, complete, violations)
