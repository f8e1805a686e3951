"""Scheduler plug-ins controlling thread interleaving and flushing.

The paper's key exploration device is the *flush-delaying demonic
scheduler* (:class:`FlushDelayScheduler`): it randomly interleaves threads
and, whenever some thread has buffered stores, flushes one of them with a
user-supplied *flush probability* — low probabilities keep stores buffered
long and expose relaxed behaviours, high probabilities approach SC.
"""

from .base import Scheduler
from .exhaustive import ExplorationResult
from .exhaustive import explore as explore_replay
from .explorer import REDUCTIONS, ExploreStats, explore
from .flush_random import FlushDelayScheduler
from .replay import ReplayScheduler, TracingScheduler, Witness
from .round_robin import RoundRobinScheduler

__all__ = ["ExplorationResult", "ExploreStats", "FlushDelayScheduler",
           "REDUCTIONS", "ReplayScheduler", "RoundRobinScheduler",
           "Scheduler", "TracingScheduler", "Witness", "explore",
           "explore_replay"]
