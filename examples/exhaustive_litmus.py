#!/usr/bin/env python
"""Exact memory-model semantics via exhaustive schedule enumeration.

Where `memory_model_explorer.py` samples schedules randomly, this example
*enumerates* them: the snapshot DFS explorer covers every interleaving
and flush ordering of bounded litmus tests (skipping only commuted
copies) and prints the exact outcome sets each memory model admits — the
ground truth the random scheduler is sampling from.

Run:  python examples/exhaustive_litmus.py
"""

from repro.minic import compile_source
from repro.sched import explore

SB = """
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

MP = """
int D; int F;
int reader() {
  if (F == 1) { return D; }
  return 9;        // flag not seen yet
}
int main() {
  int t = fork(reader);
  D = 1; F = 1;
  join(t);
  return 0;
}
"""


def thread_results(vm):
    return tuple(vm.threads[tid].result for tid in sorted(vm.threads))


def show(title, source, legend):
    print("=" * 64)
    print(title)
    print("=" * 64)
    module = compile_source(source)
    for model in ("sc", "tso", "pso"):
        result = explore(module, model, outcome_fn=thread_results)
        status = "exact" if result.complete else "budget hit"
        outcomes = ", ".join(str(o) for o in sorted(result.outcomes))
        print("%-4s (%5d paths, %s): %s"
              % (model.upper(), result.paths, status, outcomes))
    print(legend)
    print()


def main():
    show("SB / Dekker — outcomes are (main's read of X, t1's read of Y)",
         SB,
         "(0, 0) is the store-buffering relaxation: forbidden under SC,\n"
         "admitted by TSO and PSO.")
    show("MP / message passing — outcomes are (0, reader's result)",
         MP,
         "(0, 0) means the reader saw the flag but stale data: only PSO\n"
         "(store-store reordering) admits it; 9 = flag not yet visible.")


if __name__ == "__main__":
    main()
