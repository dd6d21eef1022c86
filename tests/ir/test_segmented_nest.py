"""Segmented (triangular / CSR) nest classification and runtime pins.

PR 7's tentpole: imperfect outer-inner pairs whose inner trip count is
affine in the outer IV (triangular ``j = i+1 .. n``) or loaded from a
monotone offset array (CSR row loops) classify ``nest_segmented`` and
evaluate whole-space via prefix-sum index construction — with the
offset-array contract *proved at runtime* (shuffled offsets log a
reasoned bail and rerun on the always-correct scalar tier).
"""

import logging

import numpy as np
import pytest

from repro.dialects import arith, builtin, func, memref, scf
from repro.ir import Builder, Interpreter
from repro.ir.types import FunctionType, MemRefType, f32, i32, index
from repro.ir.vectorize import loop_vector_mode


def _index_constants(builder, *values):
    return [
        builder.insert(arith.Constant.index(v)).results[0] for v in values
    ]


def _build_triangular(n: int):
    """y[i] = sum_{j=i+1..n} a[i,j]: inner lower bound affine in i."""
    module = builtin.ModuleOp()
    mat = MemRefType(f32, [n, n])
    vec = MemRefType(f32, [n])
    fn = func.FuncOp("f", FunctionType([mat, vec], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n, 1)
    outer = b.insert(scf.For(lb, ub, step))
    i = outer.induction_var
    ob = Builder.at_end(outer.body)
    one = ob.insert(arith.Constant.index(1)).results[0]
    j_lb = ob.insert(arith.AddI(i, one)).results[0]
    inner = ob.insert(scf.For(j_lb, ub, step))
    j = inner.induction_var
    ib = Builder.at_end(inner.body)
    a_arg, y_arg = fn.body.args
    yv = ib.insert(memref.Load(y_arg, [i])).results[0]
    av = ib.insert(memref.Load(a_arg, [i, j])).results[0]
    acc = ib.insert(arith.AddF(yv, av)).results[0]
    ib.insert(memref.Store(acc, y_arg, [i]))
    ib.insert(scf.Yield())
    ob.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, outer


def _build_csr(n: int):
    """y[i] = sum_{j=ptr[i]..ptr[i+1]} vals[j]: CSR row-offset bounds."""
    module = builtin.ModuleOp()
    ptr_ty = MemRefType(i32, [n + 1])
    vals_ty = MemRefType(f32, [8 * n])
    vec = MemRefType(f32, [n])
    fn = func.FuncOp("f", FunctionType([ptr_ty, vals_ty, vec], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n, 1)
    outer = b.insert(scf.For(lb, ub, step))
    i = outer.induction_var
    ob = Builder.at_end(outer.body)
    ptr_arg, vals_arg, y_arg = fn.body.args
    one = ob.insert(arith.Constant.index(1)).results[0]
    i1 = ob.insert(arith.AddI(i, one)).results[0]
    start_i = ob.insert(memref.Load(ptr_arg, [i])).results[0]
    end_i = ob.insert(memref.Load(ptr_arg, [i1])).results[0]
    start = ob.insert(arith.IndexCast(start_i, index)).results[0]
    end = ob.insert(arith.IndexCast(end_i, index)).results[0]
    inner = ob.insert(scf.For(start, end, step))
    j = inner.induction_var
    ib = Builder.at_end(inner.body)
    yv = ib.insert(memref.Load(y_arg, [i])).results[0]
    vv = ib.insert(memref.Load(vals_arg, [j])).results[0]
    acc = ib.insert(arith.AddF(yv, vv)).results[0]
    ib.insert(memref.Store(acc, y_arg, [i]))
    ib.insert(scf.Yield())
    ob.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, outer


def _csr_inputs(n: int, rng, *, shuffled: bool = False):
    counts = rng.integers(0, 8, n)
    ptr = np.zeros(n + 1, np.int32)
    np.cumsum(counts, out=ptr[1:])
    if shuffled:
        # swap two interior offsets: ptr is no longer monotone, but every
        # [ptr[i], ptr[i+1]) with ptr[i] <= ptr[i+1] still indexes vals
        # validly (rows with ptr[i] > ptr[i+1] are zero-trip)
        ptr[n // 2], ptr[n // 2 + 1] = ptr[n // 2 + 1], ptr[n // 2]
    vals = rng.standard_normal(8 * n).astype(np.float32)
    return ptr, vals


class TestClassification:
    def test_triangular_classifies_segmented(self):
        _, outer = _build_triangular(64)
        mode, plan = loop_vector_mode(outer)
        assert mode == "nest_segmented"
        # affine bounds need no runtime offset proof
        assert plan.ragged.needs_monotone == ()

    def test_csr_offsets_classify_segmented_with_monotone_proof(self):
        _, outer = _build_csr(64)
        mode, plan = loop_vector_mode(outer)
        assert mode == "nest_segmented"
        # both bounds are loaded from an offset array: runtime-proved
        assert set(plan.ragged.needs_monotone) == {"lb", "ub"}


class TestRuntimeEquivalence:
    def test_triangular_bit_identical_and_same_steps(self):
        n = 32
        rng = np.random.default_rng(11)
        a = rng.standard_normal((n, n)).astype(np.float32)
        outs = []
        steps = []
        for vectorize in (False, True):
            module, _ = _build_triangular(n)
            y = np.zeros(n, np.float32)
            interp = Interpreter(module, compiled=False, vectorize=vectorize)
            interp.call("f", a.copy(), y)
            outs.append(y)
            steps.append(interp.steps)
        assert outs[0].tobytes() == outs[1].tobytes()
        assert steps[0] == steps[1]

    def test_csr_bit_identical_and_same_steps(self):
        n = 48
        rng = np.random.default_rng(12)
        ptr, vals = _csr_inputs(n, rng)
        outs = []
        steps = []
        for vectorize in (False, True):
            module, _ = _build_csr(n)
            y = np.zeros(n, np.float32)
            interp = Interpreter(module, compiled=False, vectorize=vectorize)
            interp.call("f", ptr.copy(), vals.copy(), y)
            outs.append(y)
            steps.append(interp.steps)
        assert outs[0].tobytes() == outs[1].tobytes()
        assert steps[0] == steps[1]

    def test_shuffled_offsets_bail_reasoned_and_stay_correct(self, caplog):
        """A non-monotone offset array violates the CSR contract: the
        fast tier must refuse (logging why) and the scalar walk must
        still produce the exact scalar-tier bits."""
        n = 48
        rng = np.random.default_rng(13)
        ptr, vals = _csr_inputs(n, rng, shuffled=True)
        outs = []
        for vectorize in (False, True):
            module, _ = _build_csr(n)
            y = np.zeros(n, np.float32)
            interp = Interpreter(module, compiled=False, vectorize=vectorize)
            if vectorize:
                with caplog.at_level(
                    logging.DEBUG, logger="repro.ir.vectorize"
                ):
                    interp.call("f", ptr.copy(), vals.copy(), y)
            else:
                interp.call("f", ptr.copy(), vals.copy(), y)
            outs.append(y)
        assert outs[0].tobytes() == outs[1].tobytes()
        assert any(
            "monotone" in record.message for record in caplog.records
        ), "expected a reasoned monotone bail-out in the debug log"


def _build_triangular_scratch(n: int):
    """y[i] = a[i,i] + sum_{j=i+1..n} a[i,j] through a scratch cell: the
    prologue and the inner body both read ``a``."""
    module = builtin.ModuleOp()
    fn = func.FuncOp(
        "f",
        FunctionType(
            [MemRefType(f32, [n, n]), MemRefType(f32, [n]), MemRefType(f32, [])],
            [],
        ),
    )
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n, 1)
    outer = b.insert(scf.For(lb, ub, step))
    i = outer.induction_var
    ob = Builder.at_end(outer.body)
    a_arg, y_arg, s_arg = fn.body.args
    one = ob.insert(arith.Constant.index(1)).results[0]
    diag = ob.insert(memref.Load(a_arg, [i, i])).results[0]
    ob.insert(memref.Store(diag, s_arg, []))
    j_lb = ob.insert(arith.AddI(i, one)).results[0]
    inner = ob.insert(scf.For(j_lb, ub, step))
    ib = Builder.at_end(inner.body)
    sv = ib.insert(memref.Load(s_arg, [])).results[0]
    av = ib.insert(memref.Load(a_arg, [i, inner.induction_var])).results[0]
    acc = ib.insert(arith.AddF(sv, av)).results[0]
    ib.insert(memref.Store(acc, s_arg, []))
    ib.insert(scf.Yield())
    total = ob.insert(memref.Load(s_arg, [])).results[0]
    ob.insert(memref.Store(total, y_arg, [i]))
    ob.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, outer


def test_buffer_read_by_prologue_and_inner_body():
    """A buffer the prologue and the inner body both read reaches the
    inner program as itself, not spread per row like a prologue value."""
    n = 32
    a = np.random.default_rng(14).standard_normal((n, n)).astype(np.float32)
    runs = []
    for compiled, vectorize in ((True, True), (False, False)):
        module, outer = _build_triangular_scratch(n)
        assert loop_vector_mode(outer)[0] == "nest_segmented"
        y = np.zeros(n, np.float32)
        s = np.zeros((), np.float32)
        interp = Interpreter(module, compiled=compiled, vectorize=vectorize)
        interp.call("f", a.copy(), y, s)
        runs.append((y.tobytes(), s.tobytes(), interp.steps))
    assert runs[0] == runs[1]
