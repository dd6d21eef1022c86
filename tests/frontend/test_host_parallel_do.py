"""Host-side (non-target) ``!$omp parallel do`` support."""

import numpy as np

from repro.frontend import compile_to_core
from repro.ir import Interpreter
from repro.session import Session

HOST_PARALLEL = """
subroutine scale(a, n)
  integer, intent(in) :: n
  real, intent(inout) :: a(n)
  integer :: i
!$omp parallel do
  do i = 1, n
    a(i) = a(i) * 2.0
  end do
!$omp end parallel do
end subroutine scale
"""


class TestHostParallelDo:
    def test_no_target_ops(self):
        module = compile_to_core(HOST_PARALLEL).module
        names = {op.name for op in module.walk()}
        assert "omp.parallel" in names
        assert "omp.wsloop" in names
        assert "omp.target" not in names
        assert "omp.map_info" not in names

    def test_sequential_semantics(self):
        module = compile_to_core(HOST_PARALLEL).module
        a = np.arange(50, dtype=np.float32)
        Interpreter(module).call("scale", a, np.array(50, np.int32))
        assert np.allclose(a, 2.0 * np.arange(50))

    def test_full_pipeline_keeps_host_loop(self):
        """With no target region, nothing is offloaded: no kernels, no
        transfers — the loop runs on the host."""
        program = Session(HOST_PARALLEL).program()
        assert program.bitstream.kernels == {}
        a = np.arange(30, dtype=np.float32)
        result = program.executor().run("scale", a, np.array(30, np.int32))
        assert np.allclose(a, 2.0 * np.arange(30))
        assert result.launches == 0
        assert result.transfers == 0

    def test_host_codegen_emits_pragma(self):
        program = Session(HOST_PARALLEL).program()
        assert "#pragma omp parallel" in program.host_cpp
        assert "#pragma omp for" in program.host_cpp
