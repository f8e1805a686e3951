#!/usr/bin/env python3
"""End-to-end benchmark of the DFENCE reproduction, with a per-layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3_synth --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` repeats the workload's operation list for ``--seconds``
seconds with tracing off and reports the end-to-end metrics (medians over
passes, scaled to a reference machine speed by a speed probe that runs
between operations; the measured seconds are printed beside them).
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics (see README.md).  Every verdict is checked against
``answers.json``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--seed`` fixes the order in which a pass runs the operations; the
operations themselves are the committed configuration (``--input-seed``
selects another synthesis seed or fuzz campaign seed).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Operation id of the traced set-up.
SETUP_OP = "setup"

END_TO_END = (("wall_s", "s"), ("verdict_geomean_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Reported times are scaled to the speed at which one ``speed_probe``
#: takes this long (see README.md, "Machine speed").
PROBE_REF_S = 0.010
#: Least time between two probes inside a pass.
PROBE_GAP_S = 0.2


def speed_probe() -> float:
    """Seconds a fixed, stdlib-only piece of interpreter work takes now.
    The program never runs it, so a change to the program cannot move
    it; a change in the machine's speed does."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(40000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return time.perf_counter() - start


def probe_now() -> float:
    """The median of three speed probes in a row."""
    return statistics.median(speed_probe() for _ in range(3))


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program source at %s\n" % SRC)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write("perfbench: repro imported from %s, not %s\n"
                         % (repro.__file__, SRC))
        raise SystemExit(2)


def parse_args(argv=None) -> argparse.Namespace:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs every workload in turn and "
                        "prints one table")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the operations of every pass")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement window (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input-seed", type=int, default=None,
                        help="synthesis / fuzz campaign seed (default: the "
                        "committed one)")
    parser.add_argument("--ops", type=int, default=None,
                        help="run only the first N operations")
    parser.add_argument("--setup-repeats", type=int, default=6,
                        help="extra set-ups in fresh processes (setup_s is "
                        "their median with this process's own)")
    parser.add_argument("--record", action="store_true",
                        help="write this run's verdicts and counts to "
                        "answers.json")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Passes

class Pass:
    """One run over the operation list."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.times = {}
        self.verdicts = {}
        self.probes = []


def run_pass(ops, order, ledger=None, work_dir=None, probe=False) -> Pass:
    """Run every operation once.  Each starts from a collected heap, so
    cyclic garbage one operation leaves is not collected on the clock of
    whichever operation follows (the pass wall time includes it).  With
    *probe*, a speed probe runs between operations at least
    ``PROBE_GAP_S`` apart; its time is left out of the pass wall time."""
    result = Pass()
    start = time.perf_counter()
    probing = 0.0
    last_probe = -PROBE_GAP_S
    for index in order:
        op_id, run = ops[index]
        gc.collect()
        if probe and time.perf_counter() - last_probe >= PROBE_GAP_S:
            probe_start = time.perf_counter()
            result.probes.append(speed_probe())
            last_probe = time.perf_counter()
            probing += last_probe - probe_start
        frame = ledger.begin_op(op_id) if ledger is not None else None
        op_start = time.perf_counter()
        try:
            verdict = run()
        except Exception as exc:  # an operation that raises has failed
            traceback.print_exc(file=sys.stderr)
            verdict = {"error": "%s: %s" % (type(exc).__name__, exc)}
        result.times[op_id] = time.perf_counter() - op_start
        # A -j2 synthesis closes its pool without waiting for the workers
        # to exit; let them go before the next probe or operation starts.
        wait_for_children()
        if ledger is not None:
            ledger.end_op(frame)
            ledger.merge_workers(work_dir)
        result.verdicts[op_id] = verdict
    result.wall = time.perf_counter() - start - probing
    return result


def wait_for_children() -> None:
    """Pool workers exit after their pool closes; wait until they have."""
    for child in multiprocessing.active_children():
        child.join(30)


def judge(workload, passes, labels, answers, reference=None):
    """The failed ``(pass, op)`` pairs, and the lines that explain them
    (drift lines too, which do not fail an operation)."""
    import workloads
    failed = set()
    lines = []
    first = passes[0].verdicts
    for number, (label, p) in enumerate(zip(labels, passes)):
        for op_id, verdict in p.verdicts.items():
            if "error" in verdict:
                problems, drift = ["raised " + verdict["error"]], []
            else:
                problems, drift = workloads.check(workload, op_id, verdict,
                                                  answers.get(op_id))
            if verdict != first[op_id]:
                problems.append("verdict differs from %s" % labels[0])
            if reference is not None and verdict != reference.get(op_id):
                problems.append("differs from the serial verdict")
            if problems:
                failed.add((number, op_id))
            lines.extend("FAIL %s %s: %s" % (label, op_id, text)
                         for text in problems)
            if number == 0:
                lines.extend("drift %s: %s" % (op_id, text)
                             for text in drift)
    return failed, lines


def machine_record() -> dict:
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "loadavg_before": list(os.getloadavg())}


def setup_probes(args, repeats: int):
    """Set the workload up again in fresh interpreters: a list of
    ``(set-up seconds, speed probe seconds right after it)``."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload]
    if args.input_seed is not None:
        command += ["--input-seed", str(args.input_seed)]
    times = []
    for _ in range(repeats):
        done = subprocess.run(command, stdout=subprocess.PIPE, check=True,
                              timeout=120, cwd=ROOT)
        probe = json.loads(done.stdout.decode().splitlines()[-1])
        times.append((probe["setup_s"], probe["probe_s"]))
    return times


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import_program()
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import workloads

    answers_all = workloads.load_answers()
    input_seed = args.input_seed
    if input_seed is None:
        input_seed = workloads.default_input_seed(args.workload)
    ops = workloads.setup(args.workload, input_seed, answers_all)
    own_setup = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup, "probe_s": probe_now()}))
        return 0

    if args.ops is not None:
        ops = ops[:args.ops]
    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)
    key = workloads.answer_key(args.workload, input_seed)
    answers = answers_all.get(key, {})
    os.makedirs(OUT, exist_ok=True)
    machine = machine_record()
    lines = ["workload %s  seed %d  input %s  ops %d  answers %s"
             % (args.workload, args.seed, key, len(ops),
                "committed" if answers else "none (seed-independent checks)")]

    if args.trace:
        result = traced_run(args, ops, order, answers, key, answers_all,
                            input_seed, lines)
    else:
        result = timed_run(args, ops, order, answers, own_setup, input_seed,
                           lines)
    wait_for_children()
    machine["loadavg_after"] = list(os.getloadavg())
    lines.append("machine " + json.dumps(machine, sort_keys=True))
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as handle:
        json.dump({"machine": machine, "result": result, "log": lines},
                  handle, indent=1, sort_keys=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def timed_run(args, ops, order, answers, own_setup, input_seed, lines):
    import layers
    import workloads

    setups = ([(own_setup, probe_now())]
              + setup_probes(args, args.setup_repeats))
    deadline = time.perf_counter() + args.seconds
    passes = []
    while True:
        passes.append(run_pass(ops, order, probe=True))
        # Start another pass only if even the slowest so far would fit.
        if time.perf_counter() + max(p.wall for p in passes) > deadline:
            break
    reference = None
    if not answers and args.workload == "table3_synth_j2":
        # No committed answer: -j2 must still agree with serial synthesis.
        serial = workloads.setup("table3_synth", input_seed, {})
        reference = run_pass(serial[:len(ops)], range(len(ops))).verdicts
    labels = ["pass %d" % (n + 1) for n in range(len(passes))]
    failures, problem_lines = judge(args.workload, passes, labels, answers,
                                    reference)
    lines.extend(problem_lines)
    failed = len(failures)

    op_medians = [statistics.median(p.times[op_id] for p in passes)
                  for op_id, _ in ops]
    raw = {
        "wall_s": statistics.median(p.wall for p in passes),
        "verdict_geomean_s": layers.geomean(op_medians),
        "setup_s": statistics.median(s for s, _ in setups),
    }
    # Scale the pass times by the probes taken between their operations,
    # each set-up by the probe taken right after it.
    probe = statistics.mean(t for p in passes for t in p.probes)
    values = {
        "wall_s": raw["wall_s"] * PROBE_REF_S / probe,
        "verdict_geomean_s": raw["verdict_geomean_s"] * PROBE_REF_S / probe,
        "setup_s": statistics.median(s * PROBE_REF_S / t for s, t in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    attempted = len(ops) * len(passes)
    lines.append("passes %d  ops %d  ops_failed %d  pass walls %s  setups %s"
                 % (len(passes), attempted, failed,
                    " ".join("%.3f" % p.wall for p in passes),
                    " ".join("%.3f" % s for s, _ in setups)))
    lines.append("speed probe: mean %.5f s over %d probes in the passes "
                 "(reference %.3f s); after set-ups %s"
                 % (probe, sum(len(p.probes) for p in passes), PROBE_REF_S,
                    " ".join("%.5f" % t for _, t in setups)))
    units = dict(END_TO_END)
    for name, _ in END_TO_END:
        measured = ("   (measured %.4f %s)" % (raw[name], units[name])
                    if name in raw else "")
        lines.append("%-18s %12.4f %s%s" % (name, values[name], units[name],
                                            measured))
    lines.append("pass times " + json.dumps(
        [{"wall": p.wall, "ops": p.times, "probes": p.probes}
         for p in passes]))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name, _ in END_TO_END}}


def traced_run(args, ops, order, answers, key, answers_all, input_seed,
               lines):
    import layers
    import tracer
    import workloads

    plain = run_pass(ops, order)
    work_dir = os.path.join(OUT, "workers-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    ledger = tracer.Ledger()
    tracer.install(ledger, work_dir)
    # Set up again under the tracer, so set-up layers (MiniC, enforce,
    # pool start) show; the traced pass runs on these operations.
    frame = ledger.begin_op(SETUP_OP)
    traced_ops = workloads.setup(args.workload, input_seed, answers_all)
    ledger.end_op(frame)
    ledger.merge_workers(work_dir)
    if args.ops is not None:
        traced_ops = traced_ops[:args.ops]
    traced = run_pass(traced_ops, order, ledger, work_dir)
    ledger.merge_workers(work_dir)
    shutil.rmtree(work_dir, ignore_errors=True)

    failures, problem_lines = judge(args.workload, [plain, traced],
                                    ["untraced pass", "traced pass"],
                                    answers)
    lines.extend(problem_lines)
    by_op = {}
    for span in ledger.spans:
        by_op.setdefault(span.op, []).append(span)
    per_op_counts = {}
    for op_id, _ in ops:
        verdict = traced.verdicts[op_id]
        counts = layers.counts_only(layers.layer_metrics(
            by_op.get(op_id, []), ledger.depth_hwm.get(op_id, 0),
            inconclusive=verdict.get("inconclusive", 0)))
        per_op_counts[op_id] = counts
        problems, drift = workloads.check_counts(
            args.workload, op_id, counts, answers.get(op_id))
        if problems:
            failures.add((1, op_id))
        lines.extend("FAIL traced pass %s: %s" % (op_id, t)
                     for t in problems)
        lines.extend("drift %s: %s" % (op_id, t) for t in drift)

    failed = len(failures)
    inconclusive = sum(v.get("inconclusive", 0)
                       for v in traced.verdicts.values())
    values = layers.layer_metrics(
        ledger.spans, max(ledger.depth_hwm.values(), default=0),
        inconclusive=inconclusive, overhead=traced.wall - plain.wall)
    lines.extend(layers.ledger_lines(
        args.workload, [s for s in ledger.spans if s.op != SETUP_OP],
        traced.wall, traced.times, os.getpid()))
    ledger.write(os.path.join(OUT, "trace-%s-seed%d.jsonl"
                              % (args.workload, args.seed)))
    lines.append("untraced pass %.3f s, traced pass %.3f s, ops_failed %d"
                 % (plain.wall, traced.wall, failed))
    units = dict(layers.PER_LAYER)
    for name, unit in layers.PER_LAYER:
        lines.append("%-26s %14s %s" % (name, _fmt(values[name]), unit))

    if args.record and failed:
        lines.append("record: %d failed operation(s); nothing written"
                     % failed)
    elif args.record:
        record_answers(args, key, answers_all, plain, per_op_counts, lines)
    return {"correct": failed == 0, "attempted": 2 * len(ops),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name, _ in layers.PER_LAYER}}


def record_answers(args, key, answers_all, plain, per_op_counts, lines):
    import workloads
    if args.workload == "table3_synth_j2":
        lines.append("record: -j2 shares the serial answers; not written")
        return
    section = answers_all.setdefault(key, {})
    for op_id, verdict in plain.verdicts.items():
        section[op_id] = {"verdict": verdict,
                          "counts": per_op_counts[op_id]}
    with open(workloads.ANSWERS_PATH, "w") as handle:
        json.dump(answers_all, handle, indent=1, sort_keys=True)
        handle.write("\n")
    lines.append("record: wrote %d answers under %s"
                 % (len(plain.verdicts), key))


def run_all(args) -> int:
    """Each workload in its own process, then one table of the metrics
    and one JSON line with every workload's metrics under its name."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    rows = []
    for workload in workloads.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--setup-repeats",
                   str(args.setup_repeats)]
        for flag, value in (("--ops", args.ops),
                            ("--input-seed", args.input_seed)):
            if value is not None:
                command += [flag, str(value)]
        done = subprocess.run(command, stdout=subprocess.PIPE, check=True,
                              cwd=ROOT, text=True)
        output = done.stdout.strip().splitlines()
        sys.stdout.write("\n".join(output[:-1]) + "\n")
        result = json.loads(output[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
        rows.append((workload, result))
    names = list(rows[0][1]["metrics"])
    print("%-16s %6s %10s  %s" % ("workload", "ops", "ops_failed",
                                  "  ".join(names)))
    for workload, result in rows:
        print("%-16s %6d %10d  %s" % (
            workload, result["attempted"], result["failed"],
            "  ".join("%s %s" % (_fmt(m["value"]), m["unit"])
                      for m in result["metrics"].values())))
    print(json.dumps(combined))
    return 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.6f" % value
    return str(value)


if __name__ == "__main__":
    sys.exit(main())
