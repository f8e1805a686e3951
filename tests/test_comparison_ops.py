"""Every comparison operator, at a<b, a==b and a>b (negatives included),
through the VM on both backend legs and through constant folding.

A comparison that silently acts as its strict or non-strict neighbour
(``le`` as ``<``, ``ge`` as ``>``) changes only the a==b row, so each
operator is checked on all three orderings.
"""

import operator

import pytest

from repro.ir import IRBuilder, Module, Reg
from repro.ir import instructions as ins
from repro.ir.passes import fold_constants
from repro.memory import make_model
from repro.sched import RoundRobinScheduler
from repro.vm.compile import make_vm
from tests.reference_vm import BACKENDS

COMPARISONS = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}

#: (a, b) pairs: less, equal and greater, each with and without negatives.
PAIRS = [(1, 2), (-7, -2), (-3, 2),
         (4, 4), (0, 0), (-5, -5),
         (2, 1), (-2, -7), (3, -2)]


def _compare_fn(op, a, b):
    module = Module()
    builder = IRBuilder(module, "main")
    builder.const(Reg("a"), a)
    builder.const(Reg("b"), b)
    builder.binop(Reg("c"), op, Reg("a"), Reg("b"))
    builder.ret(Reg("c"))
    return module, builder.finish()


def test_pairs_cover_every_ordering():
    orderings = {(a > b) - (a < b) for a, b in PAIRS if min(a, b) < 0}
    assert orderings == {-1, 0, 1}


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("op", sorted(COMPARISONS))
def test_vm_comparison(backend, op):
    for a, b in PAIRS:
        module, _ = _compare_fn(op, a, b)
        vm = make_vm(module, make_model("sc"), entry="main")
        assert type(vm) is backend
        RoundRobinScheduler().run(vm)
        assert vm.threads[0].result == int(COMPARISONS[op](a, b)), (a, b)


@pytest.mark.parametrize("op", sorted(COMPARISONS))
def test_folded_comparison(op):
    for a, b in PAIRS:
        _, fn = _compare_fn(op, a, b)
        assert fold_constants(fn) >= 1
        folded = fn.body[2]
        assert isinstance(folded, ins.ConstInstr), (a, b)
        assert folded.value == int(COMPARISONS[op](a, b)), (a, b)
