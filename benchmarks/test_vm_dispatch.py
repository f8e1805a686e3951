"""VM dispatch throughput — closure-compiled bodies vs the interpreter.

The compiled side is the VM (:class:`repro.vm.interp.VM`); the
interpreted side is the generic reference interpreter from
``tests/reference_vm.py``, so run this with the repository root on
``PYTHONPATH`` as well as ``src``::

    cd benchmarks
    PYTHONPATH=../src:.. python -m pytest -q test_vm_dispatch.py

Two measurements, written to ``BENCH_vm.json`` at the repository root
(and a readable table to ``benchmarks/results/vm_dispatch.txt``):

* a steady-state microbenchmark: a register-arithmetic loop executed
  through ``run_local`` bursts — the scheduler hot path — reported as
  steps/second per backend.  Acceptance: the compiled VM must
  sustain at least 2x the interpreter's dispatch rate.
* end-to-end fence synthesis on the Chase-Lev work-stealing deque (the
  paper's flagship workload), same config and seed on both backends.
  The runs must synthesize byte-identical fences; the compiled VM
  must show a wall-time improvement.

Wall times are machine-dependent; the equivalence assertions are what
make the speedups comparisons between identical computations.
"""

import contextlib
import json
import os
import platform
import time

import pytest

from common import format_table, write_result

from repro.algorithms import ALGORITHMS
from repro.memory.models import make_model
from repro.minic import compile_source
from repro.synth import SynthesisConfig, SynthesisEngine
from repro.vm.compile import make_vm
from tests.reference_vm import reference_vms

pytestmark = [pytest.mark.slow]

ROOT_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_vm.json")

# A pure register-arithmetic loop: every instruction is thread-local, so
# the whole program runs inside run_local bursts — steady-state dispatch
# with no memory-model or scheduler noise.
HOT_LOOP = """
int main() {
  int acc = 0;
  int i = 0;
  while (i < 20000) {
    int a = i + 3;
    int b = a * 2;
    int c = b - i;
    acc = acc + c;
    i = i + 1;
  }
  return acc;
}
"""

#: Microbenchmark repetitions; the best run is reported (steady state).
MICRO_REPS = 5


def _backend(compiled):
    """The VM when *compiled*, else the reference interpreter."""
    return contextlib.nullcontext() if compiled else reference_vms()


def _run_micro(compiled):
    """One full hot-loop execution; returns (steps, wall_s, result)."""
    module = compile_source(HOT_LOOP, "hot_loop")
    with _backend(compiled):
        vm = make_vm(module, make_model("sc"), max_steps=10_000_000)
    start = time.perf_counter()
    while True:
        enabled = vm.enabled_tids()
        if not enabled:
            break
        tid = enabled[0]
        if not vm.run_local(tid, 4096):
            vm.step(tid)
    wall = time.perf_counter() - start
    return vm.steps, wall, vm.threads[0].result


def _best_micro(compiled):
    best = None
    for _ in range(MICRO_REPS):
        steps, wall, result = _run_micro(compiled)
        if best is None or wall < best[1]:
            best = (steps, wall, result)
    return best


def _synthesize_wsq(compiled):
    bundle = ALGORITHMS["chase_lev"]
    config = SynthesisConfig(
        memory_model="pso", flush_prob=bundle.flush_prob["pso"],
        executions_per_round=800, max_rounds=12, seed=7)
    engine = SynthesisEngine(config)
    start = time.perf_counter()
    with _backend(compiled):
        result = engine.synthesize(bundle.compile(), bundle.spec("sc"),
                                   entries=bundle.entries,
                                   operations=bundle.operations)
    return result, time.perf_counter() - start


def test_vm_dispatch():
    # -- steady-state dispatch rate ------------------------------------
    interp_steps, interp_wall, interp_result = _best_micro(False)
    comp_steps, comp_wall, comp_result = _best_micro(True)
    assert comp_result == interp_result
    assert comp_steps == interp_steps  # same instruction count, exactly
    interp_rate = interp_steps / max(interp_wall, 1e-9)
    comp_rate = comp_steps / max(comp_wall, 1e-9)
    micro_speedup = comp_rate / interp_rate

    # -- end-to-end synthesis on the work-stealing deque ---------------
    interp_synth, interp_synth_wall = _synthesize_wsq(False)
    comp_synth, comp_synth_wall = _synthesize_wsq(True)
    fences = tuple((p.location(), p.kind.value)
                   for p in comp_synth.placements)
    assert comp_synth.outcome == interp_synth.outcome
    assert fences == tuple((p.location(), p.kind.value)
                           for p in interp_synth.placements)
    synth_speedup = interp_synth_wall / max(comp_synth_wall, 1e-9)

    # Acceptance: >=2x steady-state dispatch, and an end-to-end win.
    assert micro_speedup >= 2.0, micro_speedup
    assert synth_speedup > 1.0, synth_speedup

    summary = dict(
        machine=dict(platform=platform.platform(),
                     cpu_count=os.cpu_count()),
        micro=dict(
            steps=interp_steps,
            interpreted=dict(wall_s=round(interp_wall, 4),
                             steps_per_s=round(interp_rate)),
            compiled=dict(wall_s=round(comp_wall, 4),
                          steps_per_s=round(comp_rate)),
            speedup=round(micro_speedup, 2)),
        wsq_synthesis=dict(
            workload="chase_lev/pso/sc",
            executions=comp_synth.total_executions,
            outcome=comp_synth.outcome.value,
            fences=[" ".join(f) for f in fences],
            interpreted=dict(wall_s=round(interp_synth_wall, 2)),
            compiled=dict(wall_s=round(comp_synth_wall, 2)),
            speedup=round(synth_speedup, 2)))
    with open(ROOT_JSON, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)

    table = format_table(
        ["benchmark", "backend", "wall s", "rate", "speedup"],
        [["hot loop (%d steps)" % interp_steps, "interpreted",
          "%.4f" % interp_wall, "%d steps/s" % interp_rate, "1.0x"],
         ["hot loop (%d steps)" % interp_steps, "compiled",
          "%.4f" % comp_wall, "%d steps/s" % comp_rate,
          "%.2fx" % micro_speedup],
         ["chase_lev synthesis (pso)", "interpreted",
          "%.2f" % interp_synth_wall, "-", "1.0x"],
         ["chase_lev synthesis (pso)", "compiled",
          "%.2f" % comp_synth_wall, "-", "%.2fx" % synth_speedup]])
    write_result("vm_dispatch.txt",
                 "VM dispatch: closure-compiled vs interpreted "
                 "(identical results asserted)\n\n%s\n" % table)
