"""Explorer scaling — snapshot DFS + sleep-set POR vs the replay baseline.

For each workload x model the benchmark times four engines on the same
program: the replay-based reference DFS (``tests/reference_explorer.py``),
and the snapshot engine at every reduction level.  Every run must
terminate with the *byte-identical* outcome set, so the numbers below
are comparisons between provably-equivalent explorations, not between
different answers.  Reported per engine: paths explored, wall time,
paths/second, the path-reduction ratio and wall-time speedup over the
replay baseline.  Written to ``BENCH_explore.json`` at the repository
root and a readable table to ``benchmarks/results/explore_scaling.txt``.
The reference lives under ``tests/``, so run this with the repository
root on ``PYTHONPATH`` as well as ``src``::

    cd benchmarks
    PYTHONPATH=../src:.:.. python -m pytest -q -s test_explore_scaling.py

Wall times are machine-dependent; path counts are deterministic, and the
reduction ratios are the acceptance-relevant shape: the 3-thread
workloads must show at least a 5x paths-explored reduction under
``sleep+cache``.
"""

import json
import os
import platform
import time

import pytest

from common import format_table, write_result

from repro.litmus import LITMUS_TESTS, thread_results
from repro.minic import compile_source
from repro.sched.explorer import REDUCTIONS, explore
from tests.reference_explorer import explore as explore_replay

pytestmark = [pytest.mark.slow]

ROOT_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_explore.json")

MAX_PATHS = 1_500_000

# Three-way store buffering: every thread publishes to its own global
# and reads a neighbour's.  The litmus catalog is all 2-thread, so this
# is the 3-thread scaling point; under SC the full version stays small
# enough for a complete unreduced baseline.
SB3_SOURCE = """
int X; int Y; int Z;
int t1() { Y = 1; int r = Z; return r; }
int t2() { Z = 1; int r = X; return r; }
int main() {
  int a = fork(t1);
  int b = fork(t2);
  X = 1;
  int r = Y;
  join(a);
  join(b);
  return r;
}
"""

# Trimmed variant whose unreduced baseline still terminates under TSO
# (~730k paths); the full version exceeds 2M buffered interleavings.
SB3_TSO_SOURCE = """
int X; int Y; int Z;
int t1() { Y = 1; return Z; }
int t2() { Z = 1; return 0; }
int main() {
  int a = fork(t1);
  int b = fork(t2);
  X = 1;
  int r = Y;
  join(a);
  join(b);
  return r;
}
"""


def _workloads():
    return [
        ("sb/tso", LITMUS_TESTS["sb"].compile(), "tso", 2),
        ("2+2w/pso", LITMUS_TESTS["2+2w"].compile(), "pso", 2),
        ("sb3/sc", compile_source(SB3_SOURCE, "sb3"), "sc", 3),
        ("sb3/tso", compile_source(SB3_TSO_SOURCE, "sb3"), "tso", 3),
    ]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_explore_scaling():
    workloads = []
    for name, module, model, threads in _workloads():
        base, base_wall = _timed(lambda: explore_replay(
            module, model, outcome_fn=thread_results,
            max_paths=MAX_PATHS))
        assert base.complete, "baseline budget too small for %s" % name
        engines = [dict(
            engine="replay", paths=base.paths,
            wall_s=round(base_wall, 3),
            paths_per_s=round(base.paths / max(base_wall, 1e-9)),
            reduction_ratio=1.0, speedup=1.0)]
        for reduction in REDUCTIONS:
            run, wall = _timed(lambda: explore(
                module, model, outcome_fn=thread_results,
                max_paths=MAX_PATHS, reduction=reduction))
            assert run.complete, (name, reduction)
            # Byte-identical outcome sets at every reduction level.
            assert run.outcomes == base.outcomes, (name, reduction)
            assert run.violations == base.violations, (name, reduction)
            engines.append(dict(
                engine=reduction, paths=run.paths,
                wall_s=round(wall, 3),
                paths_per_s=round(run.paths / max(wall, 1e-9)),
                reduction_ratio=round(base.paths / run.paths, 1),
                speedup=round(base_wall / max(wall, 1e-9), 1),
                pruned=run.stats.pruned,
                cache_hits=run.stats.cache_hits,
                snapshot_bytes=run.stats.snapshot_bytes))
        workloads.append(dict(
            name=name, model=model, threads=threads,
            baseline_paths=base.paths, outcomes=len(base.outcomes),
            engines=engines))

    # Acceptance: >=5x paths-explored reduction with sleep+cache on a
    # 3-thread workload, outcome sets identical (asserted above).
    three_thread_ratios = [
        engine["reduction_ratio"]
        for wl in workloads if wl["threads"] >= 3
        for engine in wl["engines"] if engine["engine"] == "sleep+cache"]
    assert max(three_thread_ratios) >= 5.0, three_thread_ratios

    summary = dict(
        machine=dict(platform=platform.platform(),
                     cpu_count=os.cpu_count()),
        max_paths=MAX_PATHS,
        best_3thread_reduction=max(three_thread_ratios),
        workloads=workloads)
    with open(ROOT_JSON, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)

    rows = []
    for wl in workloads:
        for engine in wl["engines"]:
            rows.append([
                wl["name"], engine["engine"], str(engine["paths"]),
                "%.3f" % engine["wall_s"], str(engine["paths_per_s"]),
                "%.1fx" % engine["reduction_ratio"],
                "%.1fx" % engine["speedup"]])
    table = format_table(
        ["workload", "engine", "paths", "wall s", "paths/s",
         "path reduction", "speedup"], rows)
    write_result("explore_scaling.txt",
                 "explorer scaling vs replay baseline "
                 "(identical outcome sets everywhere)\n\n%s\n" % table)
