"""Rank-3 nest classification: `classify` on IR fixtures.

The whole-space nest evaluator has three outcomes — elementwise,
innermost-dim reduction folding, and a *reasoned* bail-out — and each is
pinned here directly on hand-built IR, so a vectorizer regression
surfaces without running full workloads (the gallery's heat3d /
batched_gemm conformance runs exercise the same machinery end to end).
"""

import numpy as np
import pytest

from repro.dialects import arith, builtin, func, memref, omp, scf
from repro.ir import Builder, Interpreter
from repro.ir.types import FunctionType, MemRefType, f32
from repro.ir.vectorize import classify, loop_vector_mode


def _index_constants(builder, *values):
    return [
        builder.insert(arith.Constant.index(v)).results[0] for v in values
    ]


def _build_rank3_elementwise(n: int):
    """b[i,j,k] = a[i,j,k] + 1.0 under a rank-3 omp.loop_nest."""
    module = builtin.ModuleOp()
    cube = MemRefType(f32, [n, n, n])
    fn = func.FuncOp("f", FunctionType([cube, cube], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n - 1, 1)
    nest = b.insert(
        omp.LoopNestOp([lb, lb, lb], [ub, ub, ub], [step, step, step])
    )
    inner = Builder.at_end(nest.body)
    i, j, k = nest.body.args
    a_arg, b_arg = fn.body.args
    av = inner.insert(memref.Load(a_arg, [i, j, k])).results[0]
    one = inner.insert(arith.Constant.float(1.0, 32)).results[0]
    r = inner.insert(arith.AddF(av, one)).results[0]
    inner.insert(memref.Store(r, b_arg, [i, j, k]))
    inner.insert(omp.YieldOp())
    b.insert(func.ReturnOp())
    return module, nest


def _build_rank3_innermost_reduction(n: int):
    """c[i,j] = c[i,j] + a[i,j,k] under a rank-3 (i, j, k) nest — the
    collapse(3) GEMM shape whose innermost dim is the reduction."""
    module = builtin.ModuleOp()
    cube = MemRefType(f32, [n, n, n])
    mat = MemRefType(f32, [n, n])
    fn = func.FuncOp("f", FunctionType([cube, mat], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n - 1, 1)
    nest = b.insert(
        omp.LoopNestOp([lb, lb, lb], [ub, ub, ub], [step, step, step])
    )
    inner = Builder.at_end(nest.body)
    i, j, k = nest.body.args
    a_arg, c_arg = fn.body.args
    cv = inner.insert(memref.Load(c_arg, [i, j])).results[0]
    av = inner.insert(memref.Load(a_arg, [i, j, k])).results[0]
    acc = inner.insert(arith.AddF(cv, av)).results[0]
    inner.insert(memref.Store(acc, c_arg, [i, j]))
    inner.insert(omp.YieldOp())
    b.insert(func.ReturnOp())
    return module, nest


def _build_scf_chain_elementwise(n: int):
    """A perfect scf.for chain i { j { k { b[i,j,k] = a[i,j,k] * 2 } } }
    — the shape lower-omp-to-hls emits for collapse(3)."""
    module = builtin.ModuleOp()
    cube = MemRefType(f32, [n, n, n])
    fn = func.FuncOp("f", FunctionType([cube, cube], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n, 1)
    root = b.insert(scf.For(lb, ub, step))
    ivs = [root.induction_var]
    builder = Builder.at_end(root.body)
    loops = [root]
    for _ in range(2):
        loop = builder.insert(scf.For(lb, ub, step))
        ivs.append(loop.induction_var)
        builder.insert(scf.Yield())
        builder = Builder.at_end(loop.body)
        loops.append(loop)
    a_arg, b_arg = fn.body.args
    av = builder.insert(memref.Load(a_arg, ivs)).results[0]
    two = builder.insert(arith.Constant.float(2.0, 32)).results[0]
    r = builder.insert(arith.MulF(two, av)).results[0]
    builder.insert(memref.Store(r, b_arg, ivs))
    builder.insert(scf.Yield())
    b.insert(func.ReturnOp())
    return module, root


class TestClassification:
    def test_rank3_elementwise(self):
        _, nest = _build_rank3_elementwise(8)
        mode, plan = loop_vector_mode(nest)
        assert mode == "nest_elementwise"
        assert classify(nest) is plan
        assert len(plan.ivs) == 3 and plan.root_dims == 3
        assert plan.folds == ()
        assert plan.program is not None

    def test_rank3_innermost_reduction(self):
        _, nest = _build_rank3_innermost_reduction(8)
        mode, plan = loop_vector_mode(nest)
        assert mode == "nest_reduction"
        assert classify(nest) is plan
        assert len(plan.folds) == 1
        assert plan.folds[0].op_name == "arith.addf"

    def test_scf_chain_classifies_via_loop_vector_mode(self):
        _, root = _build_scf_chain_elementwise(8)
        mode, plan = loop_vector_mode(root)
        assert mode == "nest_elementwise"
        assert len(plan.ivs) == 3 and plan.root_dims == 1
        assert len(plan.chain) == 2


class TestReasonedBails:
    def test_store_not_covering_every_dim(self):
        """b[i,j] = f(a[i,j,k]) without a reduction chain: the k dim is
        not covered, and repeated writes per (i,j) cell would reorder."""
        n = 8
        module = builtin.ModuleOp()
        cube = MemRefType(f32, [n, n, n])
        mat = MemRefType(f32, [n, n])
        fn = func.FuncOp("f", FunctionType([cube, mat], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb, ub, step = _index_constants(b, 0, n - 1, 1)
        nest = b.insert(
            omp.LoopNestOp([lb, lb, lb], [ub, ub, ub], [step, step, step])
        )
        inner = Builder.at_end(nest.body)
        i, j, k = nest.body.args
        a_arg, c_arg = fn.body.args
        av = inner.insert(memref.Load(a_arg, [i, j, k])).results[0]
        inner.insert(memref.Store(av, c_arg, [i, j]))
        inner.insert(omp.YieldOp())
        b.insert(func.ReturnOp())
        mode, _ = loop_vector_mode(nest)
        reason = classify(nest)
        assert mode is None
        assert reason == "a buffer is both loaded and stored in the nest body" or (
            "cover" in reason
        )

    def test_coupled_store_subscript(self):
        """b[i+j, k, k] couples two IVs in one subscript."""
        n = 8
        module = builtin.ModuleOp()
        cube = MemRefType(f32, [3 * n, n, n])
        fn = func.FuncOp("f", FunctionType([cube], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb, ub, step = _index_constants(b, 0, n - 1, 1)
        nest = b.insert(
            omp.LoopNestOp([lb, lb, lb], [ub, ub, ub], [step, step, step])
        )
        inner = Builder.at_end(nest.body)
        i, j, k = nest.body.args
        coupled = inner.insert(arith.AddI(i, j)).results[0]
        v = inner.insert(arith.Constant.float(1.0, 32)).results[0]
        inner.insert(memref.Store(v, fn.body.args[0], [coupled, k, k]))
        inner.insert(omp.YieldOp())
        b.insert(func.ReturnOp())
        mode, _ = loop_vector_mode(nest)
        reason = classify(nest)
        assert mode is None
        assert reason == "store subscript couples two IVs"

    def test_accumulator_not_covering_outer_dims(self):
        """s[i] = s[i] + a[i,j,k] under an (i, j, k) nest: the j dim is
        uncovered, so two outer points fold into one cell — the plan must
        bail with the coverage reason (the scalar walk stays correct)."""
        n = 8
        module = builtin.ModuleOp()
        cube = MemRefType(f32, [n, n, n])
        vec = MemRefType(f32, [n])
        fn = func.FuncOp("f", FunctionType([cube, vec], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb, ub, step = _index_constants(b, 0, n - 1, 1)
        nest = b.insert(
            omp.LoopNestOp([lb, lb, lb], [ub, ub, ub], [step, step, step])
        )
        inner = Builder.at_end(nest.body)
        i, j, k = nest.body.args
        a_arg, s_arg = fn.body.args
        sv = inner.insert(memref.Load(s_arg, [i])).results[0]
        av = inner.insert(memref.Load(a_arg, [i, j, k])).results[0]
        acc = inner.insert(arith.AddF(sv, av)).results[0]
        inner.insert(memref.Store(acc, s_arg, [i]))
        inner.insert(omp.YieldOp())
        b.insert(func.ReturnOp())
        mode, _ = loop_vector_mode(nest)
        reason = classify(nest)
        assert mode is None
        assert reason == "accumulator subscripts do not cover the outer nest dims"

    def test_chain_bounds_varying_with_outer_iv(self):
        """A triangular chain (inner ub = outer iv) cannot be collapsed
        into one rectangular space."""
        n = 8
        module = builtin.ModuleOp()
        mat = MemRefType(f32, [n, n])
        fn = func.FuncOp("f", FunctionType([mat], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb, ub, step = _index_constants(b, 0, n, 1)
        root = b.insert(scf.For(lb, ub, step))
        outer = Builder.at_end(root.body)
        inner_loop = outer.insert(scf.For(lb, root.induction_var, step))
        outer.insert(scf.Yield())
        inner = Builder.at_end(inner_loop.body)
        v = inner.insert(arith.Constant.float(1.0, 32)).results[0]
        inner.insert(
            memref.Store(
                v, fn.body.args[0],
                [root.induction_var, inner_loop.induction_var],
            )
        )
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())
        mode, _ = loop_vector_mode(root)
        reason = classify(root)
        assert mode is None
        assert reason == (
            "nested loop bounds vary with an outer induction variable"
        )

    def test_scaled_reduction_subscript_is_not_invariant(self):
        """c[i, k*m] with a *runtime* (non-constant) scale m: the
        subscript varies along k even though the affine walk sees an
        invariant multiplier with placeholder offset 0 — folding one
        representative cell per outer point would corrupt results, so
        the nest must stay scalar (and the tiers must agree)."""
        n = 8

        def build():
            from repro.ir.types import i32, index

            module = builtin.ModuleOp()
            mat = MemRefType(f32, [n, n * n])
            fn = func.FuncOp(
                "f",
                FunctionType(
                    [MemRefType(f32, [n, n]), mat, MemRefType(i32, [])], []
                ),
            )
            module.body.add_op(fn)
            b = Builder.at_end(fn.body)
            lb, ub, step = _index_constants(b, 1, n - 1, 1)
            nest = b.insert(omp.LoopNestOp([lb, lb], [ub, ub], [step, step]))
            inner = Builder.at_end(nest.body)
            i, k = nest.body.args
            a_arg, c_arg, m_arg = fn.body.args
            mv = inner.insert(memref.Load(m_arg, [])).results[0]
            m_idx = inner.insert(arith.IndexCast(mv, index)).results[0]
            scaled = inner.insert(arith.MulI(k, m_idx)).results[0]
            cv = inner.insert(memref.Load(c_arg, [i, scaled])).results[0]
            av = inner.insert(memref.Load(a_arg, [i, k])).results[0]
            acc = inner.insert(arith.AddF(cv, av)).results[0]
            inner.insert(memref.Store(acc, c_arg, [i, scaled]))
            inner.insert(omp.YieldOp())
            b.insert(func.ReturnOp())
            return module, nest

        module, nest = build()
        mode, _ = loop_vector_mode(nest)
        reason = classify(nest)
        assert mode is None, (mode, reason)

        rng = np.random.default_rng(71)
        a = rng.standard_normal((n, n)).astype(np.float32)
        c0 = np.zeros((n, n * n), dtype=np.float32)
        outs = []
        for vectorize in (False, True):
            mod, _ = build()
            c = c0.copy()
            Interpreter(mod, compiled=False, vectorize=vectorize).call(
                "f", a.copy(), c, np.array(1, np.int32)
            )
            outs.append(c.tobytes())
        assert outs[0] == outs[1]

    def test_nested_region_in_body(self):
        """An scf.if inside the innermost body keeps the nest scalar."""
        n = 8
        module = builtin.ModuleOp()
        fn = func.FuncOp("f", FunctionType([], []))
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb, ub, step = _index_constants(b, 0, n - 1, 1)
        nest = b.insert(omp.LoopNestOp([lb, lb], [ub, ub], [step, step]))
        inner = Builder.at_end(nest.body)
        cond = inner.insert(arith.Constant.bool(True)).results[0]
        if_op = inner.insert(scf.If(cond))
        Builder.at_end(if_op.then_block).insert(scf.Yield())
        Builder.at_end(if_op.else_block).insert(scf.Yield())
        inner.insert(omp.YieldOp())
        b.insert(func.ReturnOp())
        mode, _ = loop_vector_mode(nest)
        reason = classify(nest)
        assert mode is None
        assert reason == "body has nested regions or unsupported ops"


class TestRuntimeEquivalence:
    """The classified fast paths must match the scalar walk bit for bit
    *and* in step accounting (the conformance suite's contract)."""

    @pytest.mark.parametrize(
        "build, out_pos",
        [
            (_build_rank3_elementwise, 1),
            (_build_rank3_innermost_reduction, 1),
            (_build_scf_chain_elementwise, 1),
        ],
    )
    def test_bit_identical_and_same_steps(self, build, out_pos):
        n = 6  # 216 innermost iterations >= the 64-trip threshold
        rng = np.random.default_rng(61)
        outs = []
        steps = []
        for vectorize in (False, True):
            module, _ = build(n)
            fn_args = []
            for arg in module.body.first_op.body.args:
                shape = tuple(
                    dim for dim in arg.type.shape
                )
                fn_args.append(
                    rng.standard_normal(shape).astype(np.float32)
                    if not outs
                    else first_args[len(fn_args)].copy()
                )
            if not outs:
                first_args = [a.copy() for a in fn_args]
            interp = Interpreter(module, compiled=False, vectorize=vectorize)
            interp.call("f", *fn_args)
            outs.append(fn_args[out_pos].tobytes())
            steps.append(interp.steps)
        assert outs[0] == outs[1]
        assert steps[0] == steps[1]

    def test_zero_trip_nest_skips_faulting_chain_bounds(self):
        """A chain whose inner bound divides by a runtime value must not
        evaluate that bound when the outer loop runs zero trips — the
        scalar walk never reaches it, so the fast path may not fault
        (here: divsi by 0) where the scalar tier completes."""
        from repro.ir.types import i32, index

        n = 8
        module = builtin.ModuleOp()
        mat = MemRefType(f32, [n, n])
        fn = func.FuncOp(
            "f", FunctionType([mat, MemRefType(i32, [])], [])
        )
        module.body.add_op(fn)
        b = Builder.at_end(fn.body)
        lb, ub, step = _index_constants(b, 0, n, 1)
        root = b.insert(scf.For(lb, lb, step))  # ub == lb: zero trips
        outer = Builder.at_end(root.body)
        d_arg = fn.body.args[1]
        dv = outer.insert(memref.Load(d_arg, [])).results[0]
        d_idx = outer.insert(arith.IndexCast(dv, index)).results[0]
        inner_ub = outer.insert(arith.DivSI(ub, d_idx)).results[0]
        inner_loop = outer.insert(scf.For(lb, inner_ub, step))
        outer.insert(scf.Yield())
        inner = Builder.at_end(inner_loop.body)
        v = inner.insert(arith.Constant.float(1.0, 32)).results[0]
        inner.insert(
            memref.Store(
                v, fn.body.args[0],
                [root.induction_var, inner_loop.induction_var],
            )
        )
        inner.insert(scf.Yield())
        b.insert(func.ReturnOp())

        mode, plan = loop_vector_mode(root)
        assert mode == "nest_elementwise"
        assert plan.prelude[0]  # the divide sits in a level prelude
        out = np.zeros((n, n), np.float32)
        # divisor 0: the scalar walk completes (zero outer trips); the
        # vectorized tier must too, instead of faulting in the prelude
        for vectorize in (False, True):
            interp = Interpreter(module, compiled=False, vectorize=vectorize)
            interp.call("f", out, np.array(0, np.int32))
        assert not out.any()

    def test_reduction_fold_matches_numpy_order(self):
        """The innermost-dim fold accumulates k strictly in order per
        (i, j) cell — bit-exact against the sequential NumPy fold."""
        n = 6  # inclusive ub n-1: the nest covers the full 0..n-1 cube
        module, _ = _build_rank3_innermost_reduction(n)
        rng = np.random.default_rng(67)
        a = rng.standard_normal((n, n, n)).astype(np.float32)
        c = rng.standard_normal((n, n)).astype(np.float32)
        expected = c.copy()
        for k in range(n):
            expected = expected + a[:, :, k]
        out = c.copy()
        Interpreter(module).call("f", a.copy(), out)
        assert out.tobytes() == expected.tobytes()


def _build_rank2_scatter(n: int):
    """out[perm[i], j] = 2 * a[i,j]: one store dimension picked through
    an index array — vectorizable only under the nest-level runtime
    injectivity proof (PR 4's per-store lattice lifted to rank 2)."""
    from repro.ir.types import i32, index

    module = builtin.ModuleOp()
    mat = MemRefType(f32, [n, n])
    perm_ty = MemRefType(i32, [n])
    fn = func.FuncOp("f", FunctionType([mat, perm_ty, mat], []))
    module.body.add_op(fn)
    b = Builder.at_end(fn.body)
    lb, ub, step = _index_constants(b, 0, n - 1, 1)
    nest = b.insert(omp.LoopNestOp([lb, lb], [ub, ub], [step, step]))
    inner = Builder.at_end(nest.body)
    i, j = nest.body.args
    a_arg, perm_arg, out_arg = fn.body.args
    pv = inner.insert(memref.Load(perm_arg, [i])).results[0]
    pi = inner.insert(arith.IndexCast(pv, index)).results[0]
    av = inner.insert(memref.Load(a_arg, [i, j])).results[0]
    two = inner.insert(arith.Constant.float(2.0, 32)).results[0]
    scaled = inner.insert(arith.MulF(two, av)).results[0]
    inner.insert(memref.Store(scaled, out_arg, [pi, j]))
    inner.insert(omp.YieldOp())
    b.insert(func.ReturnOp())
    return module, nest


class TestNestScatter:
    def test_classifies_nest_scatter(self):
        _, nest = _build_rank2_scatter(16)
        mode, plan = loop_vector_mode(nest)
        assert mode == "nest_scatter"
        assert classify(nest) is plan
        assert plan.deferred

    def test_permutation_rows_bit_identical(self):
        n = 16
        module, _ = _build_rank2_scatter(n)
        rng = np.random.default_rng(29)
        a = rng.standard_normal((n, n)).astype(np.float32)
        perm = rng.permutation(n).astype(np.int32)
        out_vec = np.zeros((n, n), np.float32)
        out_scalar = np.zeros((n, n), np.float32)
        Interpreter(module).call("f", a.copy(), perm, out_vec)
        Interpreter(module, compiled=False, vectorize=False).call(
            "f", a.copy(), perm, out_scalar
        )
        assert out_vec.tobytes() == out_scalar.tobytes()
        expected = np.zeros((n, n), np.float32)
        expected[perm] = (np.float32(2.0) * a).astype(np.float32)
        assert np.array_equal(out_vec, expected)

    def test_colliding_rows_bail_and_match_scalar(self, caplog):
        """Duplicate target rows fail the tuple-injectivity proof: the
        nest logs the reasoned bail, reruns scalar, and keeps the
        last-write-wins bits."""
        import logging

        n = 16
        module, _ = _build_rank2_scatter(n)
        rng = np.random.default_rng(31)
        a = rng.standard_normal((n, n)).astype(np.float32)
        perm = rng.integers(0, 4, n).astype(np.int32)  # heavy collisions
        out_vec = np.zeros((n, n), np.float32)
        out_scalar = np.zeros((n, n), np.float32)
        with caplog.at_level(logging.DEBUG, logger="repro.ir.vectorize"):
            Interpreter(module).call("f", a.copy(), perm, out_vec)
        Interpreter(module, compiled=False, vectorize=False).call(
            "f", a.copy(), perm, out_scalar
        )
        assert out_vec.tobytes() == out_scalar.tobytes()
        assert any("injectivity" in r.message for r in caplog.records)
