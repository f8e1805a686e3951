"""Tests for synthesis reports, source annotation, CAS enforcement, and
the command-line interface."""

import pytest

from repro.cli import main as cli_main
from repro.ir.instructions import Cas, FenceKind
from repro.ir.operands import Sym
from repro.memory.predicates import OrderingPredicate
from repro.minic import compile_source
from repro.spec import MemorySafetySpec
from repro.synth import (
    CAS_DUMMY_GLOBAL,
    SynthesisConfig,
    SynthesisEngine,
    annotate_source,
    enforce_with_cas,
    summarize,
)

MP_ASSERT = """
int DATA;
int FLAG;

void reader() {
  while (FLAG == 0) {}
  assert(DATA == 1);
}

int main() {
  int t = fork(reader);
  DATA = 1;
  FLAG = 1;
  join(t);
  return 0;
}
"""

SB_ASSERT = """
int X; int Y;
int r1; int r2;

void t1() {
  X = 1;
  r1 = Y;
}

int main() {
  int t = fork(t1);
  Y = 1;
  r2 = X;
  join(t);
  assert(r1 == 1 || r2 == 1);
  return 0;
}
"""


def synthesize_mp():
    module = compile_source(MP_ASSERT)
    engine = SynthesisEngine(SynthesisConfig(
        memory_model="pso", flush_prob=0.3, executions_per_round=300,
        seed=3))
    return engine.synthesize(module, MemorySafetySpec())


class TestReport:
    def test_summary_mentions_rounds_and_fences(self):
        result = synthesize_mp()
        text = summarize(result)
        assert "clean" in text
        assert "round 0" in text
        assert "fences:" in text

    def test_annotation_marks_the_data_store(self):
        result = synthesize_mp()
        annotated = annotate_source(result)
        lines = annotated.splitlines()
        data_line = next(i for i, line in enumerate(lines)
                         if "DATA = 1;" in line)
        assert ">>>" in lines[data_line + 1]
        assert "store-store" in lines[data_line + 1] or \
            "full" in lines[data_line + 1]

    def test_annotation_requires_source(self):
        result = synthesize_mp()
        result.program.source = None
        with pytest.raises(ValueError):
            annotate_source(result)


class TestEnforceWithCas:
    def test_cas_inserted_after_store(self):
        module = compile_source(SB_ASSERT)
        main_fn = module.function("main")
        store = next(i for i in main_fn.body if i.is_store())
        pred = OrderingPredicate(store.label, store.label + 1,
                                 FenceKind.ST_LD)
        inserted = enforce_with_cas(module, [pred])
        assert len(inserted) == 1
        cas = main_fn.body[main_fn.index_of(store.label) + 1]
        assert isinstance(cas, Cas)
        assert cas.addr == Sym(CAS_DUMMY_GLOBAL)

    def test_idempotent(self):
        module = compile_source(SB_ASSERT)
        store = next(i for i in module.function("main").body
                     if i.is_store())
        pred = OrderingPredicate(store.label, store.label + 1,
                                 FenceKind.ST_LD)
        enforce_with_cas(module, [pred])
        assert enforce_with_cas(module, [pred]) == []

    def test_cas_repairs_store_buffering_on_tso(self):
        # Find the SB fences, then enforce them with CAS instead and
        # validate the repaired program on TSO (paper: CAS to a dummy
        # location works as a fence on TSO).
        module = compile_source(SB_ASSERT)
        engine = SynthesisEngine(SynthesisConfig(
            memory_model="tso", flush_prob=0.1,
            executions_per_round=400, seed=3))
        result = engine.synthesize(module, MemorySafetySpec())
        assert result.fence_count >= 1
        preds = [p.predicate for p in result.placements]

        cas_module = module.clone()
        enforce_with_cas(cas_module, preds)
        checker = SynthesisEngine(SynthesisConfig(
            memory_model="tso", flush_prob=0.1, seed=777))
        _runs, violations, example = checker.test_program(
            cas_module, MemorySafetySpec(), executions=400)
        assert violations == 0, example


class TestCli:
    def test_builtin_algorithm(self, capsys):
        code = cli_main(["--algorithm", "lifo_wsq", "--model", "pso",
                         "--spec", "sc", "-k", "300", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "synthesis outcome: clean" in out
        assert "(put," in out

    def test_minic_file(self, tmp_path, capsys):
        path = tmp_path / "mp.c"
        path.write_text(MP_ASSERT)
        code = cli_main([str(path), "--model", "pso", "-k", "300",
                         "--seed", "3", "--annotate"])
        out = capsys.readouterr().out
        assert code == 0
        assert ">>>" in out  # annotated source printed

    def test_check_only_reports_violations(self, tmp_path, capsys):
        path = tmp_path / "mp.c"
        path.write_text(MP_ASSERT)
        code = cli_main([str(path), "--model", "pso", "--check-only",
                         "-k", "300"])
        out = capsys.readouterr().out
        assert code == 1
        assert "violations" in out

    def test_check_only_clean_program(self, tmp_path, capsys):
        path = tmp_path / "ok.c"
        path.write_text("int main() { return 0; }")
        code = cli_main([str(path), "--model", "pso", "--check-only",
                         "-k", "50"])
        assert code == 0

    def test_requires_exactly_one_input(self):
        with pytest.raises(SystemExit):
            cli_main(["--model", "pso"])
        with pytest.raises(SystemExit):
            cli_main(["foo.c", "--algorithm", "chase_lev"])

    def test_sc_spec_on_file_needs_seq_spec(self, tmp_path):
        path = tmp_path / "q.c"
        path.write_text("int main() { return 0; }")
        with pytest.raises(SystemExit, match="seq-spec"):
            cli_main([str(path), "--spec", "sc"])


class TestCliExplore:
    def test_explore_litmus_by_name(self, capsys):
        code = cli_main(["sb", "--explore"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split()[0] for line in out.splitlines()
                if "paths," in line]
        assert rows == ["SC", "TSO", "PSO"]  # no --model: all three
        assert "(0, 0)" in out  # the relaxed outcome appears

    def test_explore_honours_model(self, capsys):
        code = cli_main(["sb", "--explore", "--model", "tso"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split()[0] for line in out.splitlines()
                if "paths," in line]
        assert rows == ["TSO"]
        assert "(0, 0)" in out

    def test_explore_minic_file(self, tmp_path, capsys):
        path = tmp_path / "lit.c"
        path.write_text("""
        int X;
        int t1() { X = 1; return 0; }
        int main() { int t = fork(t1); int r = X; join(t); return r; }
        """)
        code = cli_main([str(path), "--explore"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact" in out

    def test_explore_without_input_rejected(self):
        with pytest.raises(SystemExit, match="litmus"):
            cli_main(["--explore"])

    def test_explore_honours_metrics_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "explore.json"
        code = cli_main(["sb", "--explore", "--metrics",
                         "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "explore/paths" in out
        assert trace.exists()

    @pytest.mark.parametrize("argv", [
        ["sb", "--explore", "--explore-workers", "2"],
        ["fuzz", "--explore-workers", "2"],
    ], ids=["repro", "repro-fuzz"])
    def test_explore_workers_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            cli_main(argv)
        assert "--explore-workers" in capsys.readouterr().err
