"""Tests for *lower omp loops to HLS*: pipelining, unroll, reductions."""

import numpy as np
import pytest

from repro.dialects import hls
from repro.frontend import compile_to_core
from repro.ir import PassManager, print_op
from repro.session import KernelOverrides, Session
from repro.transforms import (
    ExtractDeviceModulePass,
    LowerOmpMappedDataPass,
    LowerOmpTargetRegionPass,
    LowerOmpToHlsPass,
    split_host_device,
)


def device_module(source: str, **hls_kwargs):
    module = compile_to_core(source).module
    pm = PassManager(verify_each=True)
    pm.add(
        LowerOmpMappedDataPass(),
        LowerOmpTargetRegionPass(),
        ExtractDeviceModulePass(),
    )
    pm.run(module)
    _, device = split_host_device(module)
    pm2 = PassManager(verify_each=True)
    pm2.add(LowerOmpToHlsPass(**hls_kwargs))
    pm2.run(device)
    return device


class TestListing4Shape:
    def test_simple_parallel_do(self):
        source = """
subroutine k(a, b, c, n)
  integer, intent(in) :: n
  real, intent(in) :: a(n), b(n)
  real, intent(out) :: c(n)
  integer :: i
!$omp target parallel do
  do i = 1, n
    c(i) = a(i) + b(i)
  end do
!$omp end target parallel do
end subroutine k
"""
        device = device_module(source)
        text = print_op(device)
        # Listing 4 artifacts
        assert '"hls.axi_protocol"' in text
        assert 'bundle = "gmem0"' in text
        assert 'bundle = "gmem1"' in text
        assert 'bundle = "gmem2"' in text
        assert '"hls.pipeline"' in text
        assert '"scf.for"' in text
        assert "omp." not in text  # all omp lowered away

    def test_pipeline_is_first_loop_op(self):
        source = """
subroutine k(a, n)
  integer, intent(in) :: n
  real, intent(inout) :: a(n)
  integer :: i
!$omp target parallel do
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
!$omp end target parallel do
end subroutine k
"""
        device = device_module(source)
        loop = next(op for op in device.walk() if op.name == "scf.for")
        body_names = [op.name for op in loop.regions[0].block.ops]
        pipeline_at = body_names.index("hls.pipeline")
        assert pipeline_at <= 1  # after its II constant at most

    def test_scalar_args_use_axilite(self, saxpy_mini_source):
        device = device_module(saxpy_mini_source)
        interfaces = [
            op for op in device.walk() if isinstance(op, hls.InterfaceOp)
        ]
        bundles = {op.bundle for op in interfaces}
        assert "control" in bundles  # the scalar a and n
        assert "gmem0" in bundles and "gmem1" in bundles


class TestSimdUnroll:
    def test_main_and_remainder_loops(self, saxpy_mini_source):
        device = device_module(saxpy_mini_source)
        loops = [op for op in device.walk() if op.name == "scf.for"]
        assert len(loops) == 2  # main (step=4) + remainder
        unrolls = [op for op in device.walk() if isinstance(op, hls.UnrollOp)]
        assert len(unrolls) == 1 and unrolls[0].factor == 4

    def test_body_replicated(self, saxpy_mini_source):
        device = device_module(saxpy_mini_source)
        loops = [op for op in device.walk() if op.name == "scf.for"]
        main = loops[0]
        mulfs = [
            op for op in main.regions[0].walk() if op.name == "arith.mulf"
        ]
        assert len(mulfs) == 4  # simdlen(4) copies

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 17, 64])
    def test_remainder_correct_for_any_trip_count(self, n):
        """simdlen partial unroll preserves semantics incl. remainders."""
        program = Session(
            """
subroutine k(x, y, n)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
!$omp target parallel do simd simdlen(4)
  do i = 1, n
    y(i) = 2.0 * x(i)
  end do
!$omp end target parallel do simd
end subroutine k
"""
        ).program()
        x = np.arange(1, n + 1, dtype=np.float32)
        y = np.zeros(n, dtype=np.float32)
        program.executor().run("k", x, y, np.array(n, np.int32))
        assert np.allclose(y, 2.0 * x)


REDUCTION_SOURCE = """
subroutine sdot(x, y, s, n)
  integer, intent(in) :: n
  real, intent(in) :: x(n), y(n)
  real, intent(out) :: s
  integer :: i
  s = 0.0
!$omp target parallel do reduction(+: s)
  do i = 1, n
    s = s + x(i) * y(i)
  end do
!$omp end target parallel do
end subroutine sdot
"""


class TestReductionRewrite:
    def test_round_robin_copies_allocated(self):
        device = device_module(REDUCTION_SOURCE, reduction_copies=8)
        allocas = [
            op for op in device.walk() if op.name == "memref.alloca"
        ]
        shapes = [op.results[0].type.shape for op in allocas]
        assert (8,) in shapes  # the copy buffer

    def test_periodic_access_pattern(self):
        """Copy accesses go through remsi — the periodic index pattern the
        scheduler credits with distance-N dependences."""
        device = device_module(REDUCTION_SOURCE, reduction_copies=8)
        names = {op.name for op in device.walk()}
        assert "arith.remsi" in names

    def test_combine_after_loop(self):
        device = device_module(REDUCTION_SOURCE, reduction_copies=4)
        kernel = next(op for op in device.walk() if op.name == "func.func")
        top_names = [op.name for op in kernel.body.ops]
        loop_at = top_names.index("scf.for")
        adds_after = [
            n for n in top_names[loop_at + 1 :] if n == "arith.addf"
        ]
        assert len(adds_after) == 4  # one combine per copy

    @pytest.mark.parametrize("ncopies", [1, 2, 8])
    def test_reduction_value_preserved(self, ncopies):
        program = Session(REDUCTION_SOURCE).program(
            KernelOverrides(reduction_copies=ncopies)
        )
        n = 300
        rng = np.random.default_rng(4)
        x = rng.standard_normal(n).astype(np.float32)
        y = rng.standard_normal(n).astype(np.float32)
        s = np.zeros((), np.float32)
        program.executor().run("sdot", x, y, s, np.array(n, np.int32))
        expected = float(np.dot(x.astype(np.float64), y.astype(np.float64)))
        assert float(s) == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize(
        "op,identity,combine",
        [("max", "maxval", np.max), ("min", "minval", np.min)],
    )
    def test_minmax_reductions(self, op, identity, combine):
        source = f"""
subroutine extreme(x, s, n)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: s
  integer :: i
  s = x(1)
!$omp target parallel do reduction({op}: s)
  do i = 1, n
    s = {op}(s, x(i))
  end do
!$omp end target parallel do
end subroutine extreme
"""
        program = Session(source).program(KernelOverrides(reduction_copies=4))
        rng = np.random.default_rng(9)
        x = rng.standard_normal(200).astype(np.float32)
        s = np.zeros((), np.float32)
        program.executor().run("extreme", x, s, np.array(200, np.int32))
        assert float(s) == pytest.approx(float(combine(x)), rel=1e-6)
