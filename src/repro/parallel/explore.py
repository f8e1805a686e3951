"""Parallel subtree fan-out for the snapshot explorer.

The exhaustive choice tree splits naturally at the top: the parent
expands a shallow *frontier* of subtree roots (choice-index prefixes,
each carrying the sleep set the serial DFS would reach it with, so
cross-subtree sleep pruning survives the split), ships one task per
subtree root to a ``ProcessPoolExecutor``, and merges results in
submission (tree) order — the same deterministic-merge contract as
:class:`~repro.parallel.process.ProcessPool`.

Because sleep sets flow strictly *down* the tree, exploring the subtrees
in separate processes visits exactly the interleavings the serial
sleep-set DFS would: outcome and violation sets are identical for
complete runs.  The state cache (``sleep+cache``) is per-worker, so a
parallel run may explore more paths than a serial cached run — never
fewer outcomes.

Payloads must cross a process boundary: if the module, a custom model
factory, or a custom outcome function cannot be pickled, ``run_parallel``
returns ``None`` and the caller falls back to the serial engine.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Set, Tuple

from .pool import resolve_workers
from .process import _mp_context

#: Target number of subtree tasks per worker: >1 for load balancing
#: (subtree sizes are wildly uneven), small enough that the parent's
#: frontier expansion stays a negligible fraction of the search.
SUBTREES_PER_WORKER = 4

#: Never split deeper than this many choices: the frontier is expanded
#: by replaying prefixes, which is O(depth) per node.
MAX_SPLIT_DEPTH = 6


def plan_workers(workers: Optional[int]) -> int:
    """Map the ``workers`` knob to a process count for the explorer.

    ``None`` or ``1`` → serial; ``0`` → one per CPU; ``n`` → exactly n.
    """
    if workers is None:
        return 1
    return resolve_workers(workers) or 1


def _run_subtree(payload):
    from ..sched.explorer import explore_subtree
    return explore_subtree(*payload)


def run_parallel(module, model_factory, model_name, entry, outcome_fn,
                 outcome_globals, reduction, max_paths, max_steps,
                 count, stats, outcomes: Set[Tuple],
                 violations: Set[str]):
    """Explore by fanning top-level subtrees across *count* processes.

    Mutates *stats*/*outcomes*/*violations* and returns an
    :class:`~repro.sched.exhaustive.ExplorationResult`, or ``None`` when
    the fan-out is not applicable (unpicklable payload, tree too small,
    broken pool) — in which case the shared accumulators are untouched
    and the caller runs serially.

    The path budget is per-subtree (each task gets the full
    ``max_paths``), so a truncated parallel run can report more paths
    than a serial one; complete runs report exact counts.
    """
    from ..memory.models import make_model
    from ..sched.exhaustive import ExplorationResult
    from ..sched.explorer import (
        ExploreStats,
        _expand_frontier,
        _make_outcome_fn,
    )

    try:
        pickle.dumps((module, model_factory, outcome_fn),
                     protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None

    if model_factory is None:
        parent_factory = lambda: make_model(model_name)  # noqa: E731
    else:
        parent_factory = model_factory
    parent_outcome = outcome_fn or _make_outcome_fn(outcome_globals)

    front_stats = ExploreStats()
    front_outcomes: Set[Tuple] = set()
    front_violations: Set[str] = set()
    tasks = _expand_frontier(
        module, parent_factory, entry, parent_outcome, max_steps,
        count * SUBTREES_PER_WORKER, MAX_SPLIT_DEPTH,
        reduction != "none", front_stats, front_outcomes, front_violations)
    if len(tasks) <= 1:
        return None  # tree too small to split; serial recomputes it

    payloads = [
        (module, model_factory, model_name, entry, outcome_fn,
         tuple(outcome_globals), prefix, sleep_items, reduction,
         max_paths, max_steps)
        for prefix, sleep_items in tasks
    ]
    try:
        with ProcessPoolExecutor(max_workers=min(count, len(tasks)),
                                 mp_context=_mp_context()) as executor:
            futures = [executor.submit(_run_subtree, payload)
                       for payload in payloads]
            results = [future.result() for future in futures]
    except Exception:
        return None  # broken pool / worker crash: serial fallback

    # Index-ordered deterministic merge (submission order == tree order).
    stats.merge(front_stats)
    outcomes |= front_outcomes
    violations |= front_violations
    complete = True
    for sub_outcomes, sub_violations, _paths, sub_complete, sub_stats in results:
        outcomes |= sub_outcomes
        violations |= sub_violations
        stats.merge(sub_stats)
        complete = complete and sub_complete
    stats.subtrees = len(tasks)
    return ExplorationResult(outcomes, stats.paths, complete, violations,
                             stats=stats)
