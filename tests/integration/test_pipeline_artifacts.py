"""Artifact-level integration checks across the whole pipeline."""

import numpy as np
import pytest

from repro.ir.pass_manager import Instrumentation
from repro.session import Session
from repro.workloads import SGESL_SOURCE
from tests.conftest import SAXPY_MINI


class TestStageCapture:
    def test_stage_order_and_content(self):
        program = Session(
            SAXPY_MINI, instrumentation=Instrumentation(capture_ir=True)
        ).program()
        assert program.stage_names == [
            "fir+omp", "core+omp", "device-dialect", "device-hls",
            "llvm-ir", "amd-hls-llvm7",
        ]
        by_name = {s.name: s.ir for s in program.stages}
        # each stage contains its characteristic construct and NOT later ones
        assert "fir.declare" in by_name["fir+omp"]
        assert "device.alloc" not in by_name["core+omp"]
        assert "device.alloc" in by_name["device-dialect"]
        assert "hls.pipeline" not in by_name["device-dialect"]
        assert "hls.pipeline" in by_name["device-hls"]

    def test_vitis_does_not_mutate_device_module(self):
        """The LLVM path runs on a clone: hls ops stay in the module."""
        program = Session(SAXPY_MINI).program()
        names = {op.name for op in program.device_module.walk()}
        assert "hls.pipeline" in names
        assert "func.call" not in names  # lower-hls-to-func ran on a clone


class TestSgeslHostCode:
    @pytest.fixture(scope="class")
    def cpp(self):
        return Session(SGESL_SOURCE).program().host_cpp

    def test_all_units_emitted(self, cpp):
        assert "void sgesl(" in cpp
        assert "void sgesl_update(" in cpp
        assert "void sgesl_back_update(" in cpp

    def test_subroutine_calls(self, cpp):
        assert "sgesl_update(" in cpp.split("void sgesl(")[1]

    def test_two_kernels_created(self, cpp):
        assert 'clCreateKernel(program, "sgesl_update_kernel_0"' in cpp
        assert 'clCreateKernel(program, "sgesl_back_update_kernel_1"' in cpp

    def test_balanced_braces(self, cpp):
        assert cpp.count("{") == cpp.count("}")


class TestLlvmArtifacts:
    def test_sgesl_kernels_in_llvm(self):
        program = Session(SGESL_SOURCE).program()
        llvm = program.bitstream.llvm_ir
        assert "define void @sgesl_update_kernel_0" in llvm
        assert "define void @sgesl_back_update_kernel_1" in llvm
        amd = program.bitstream.amd_artifact.llvm_ir
        assert "_ssdm_op_SpecPipeline" in amd
        assert "source_filename" not in amd  # downgrade stripped it

    def test_memory_spaces_in_kernel_signatures(self):
        program = Session(SAXPY_MINI).program()
        kernel = program.bitstream.kernels["saxpy_kernel_0"]
        for arg in kernel.func_op.body.args:
            assert arg.type.memory_space == 1


class TestDeterminism:
    def test_compilation_is_deterministic(self):
        first = Session(SAXPY_MINI).program()
        second = Session(SAXPY_MINI).program()
        from repro.ir import print_op

        assert print_op(first.device_module) == print_op(second.device_module)
        assert first.host_cpp == second.host_cpp
        assert first.bitstream.utilization().rounded() == \
            second.bitstream.utilization().rounded()

    def test_execution_is_deterministic(self):
        program = Session(SAXPY_MINI).program()
        rng = np.random.default_rng(8)
        x = rng.standard_normal(200).astype(np.float32)
        y = rng.standard_normal(200).astype(np.float32)

        def run():
            out = y.copy()
            result = program.executor().run(
                "saxpy", np.array(1.5, np.float32), x, out,
                np.array(200, np.int32),
            )
            return out, result.device_time_s

        out1, t1 = run()
        out2, t2 = run()
        assert out1.tobytes() == out2.tobytes()
        assert t1 == t2
