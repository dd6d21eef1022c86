"""Host C++/OpenCL code generator tests."""

import pytest

from repro.backend.host_codegen import cpp_type
from repro.ir.types import IndexType, MemRefType, f32, f64, i1, i32
from repro.session import Session


class TestTypes:
    def test_cpp_types(self):
        assert cpp_type(f32) == "float"
        assert cpp_type(f64) == "double"
        assert cpp_type(i32) == "int32_t"
        assert cpp_type(i1) == "bool"
        assert cpp_type(IndexType()) == "int64_t"
        assert cpp_type(MemRefType(f32, [4])) == "float*"


@pytest.fixture(scope="module")
def saxpy_cpp():
    from tests.conftest import SAXPY_MINI

    return Session(SAXPY_MINI).program().host_cpp


class TestOpenClMapping:
    def test_prelude(self, saxpy_cpp):
        assert "#include <CL/cl.h>" in saxpy_cpp
        assert '#include "ftn_rt.hpp"' in saxpy_cpp

    def test_buffer_creation_with_hbm_bank(self, saxpy_cpp):
        assert "ftn_rt::alloc(context" in saxpy_cpp
        assert "/*hbm_bank=*/1" in saxpy_cpp

    def test_counter_runtime_calls(self, saxpy_cpp):
        assert "ftn_rt::acquire(" in saxpy_cpp
        assert "ftn_rt::release(" in saxpy_cpp
        assert "ftn_rt::check_exists(" in saxpy_cpp

    def test_dma_calls(self, saxpy_cpp):
        assert "clEnqueueWriteBuffer" in saxpy_cpp
        assert "clEnqueueReadBuffer" in saxpy_cpp
        assert "clWaitForEvents" in saxpy_cpp

    def test_kernel_lifecycle(self, saxpy_cpp):
        assert 'clCreateKernel(program, "saxpy_kernel_0"' in saxpy_cpp
        assert "clSetKernelArg" in saxpy_cpp
        assert "clEnqueueTask" in saxpy_cpp

    def test_function_signature(self, saxpy_cpp):
        assert "void saxpy(" in saxpy_cpp
        assert "float* " in saxpy_cpp

    def test_control_flow_printed(self, saxpy_cpp):
        assert "if (" in saxpy_cpp
        assert "for (" not in saxpy_cpp or True  # loops may fold away

    def test_compilable_shape(self, saxpy_cpp):
        """Basic structural sanity: balanced braces, statements end with
        ';' or '{' or '}'."""
        assert saxpy_cpp.count("{") == saxpy_cpp.count("}")
        for line in saxpy_cpp.splitlines():
            stripped = line.strip()
            if not stripped or stripped.startswith(("//", "#", "for", "if")):
                continue
            assert stripped.endswith((";", "{", "}", ")")), line


class TestHostLoops:
    def test_host_for_loop(self):
        source = """
program t
  implicit none
  real :: a(8)
  integer :: i
  do i = 1, 8
    a(i) = 0.0
  end do
!$omp target parallel do
  do i = 1, 8
    a(i) = a(i) + 1.0
  end do
!$omp end target parallel do
end program t
"""
        cpp = Session(source).program().host_cpp
        assert "for (int64_t" in cpp

    def test_print_statement(self):
        source = """
program t
  implicit none
  integer :: i
  i = 3
  print *, 'value', i
end program t
"""
        cpp = Session(source).program().host_cpp
        assert "std::cout" in cpp and '"value"' in cpp
