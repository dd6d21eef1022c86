"""End-to-end integration: compile + run the paper's workloads."""

import numpy as np
import pytest

from repro.baselines import HandwrittenSaxpy, HandwrittenSgesl
from repro.session import Session
from repro.workloads import (
    SAXPY_SOURCE,
    SGESL_SOURCE,
    SaxpyCase,
    SgeslCase,
    saxpy_reference,
    sgefa_reference,
    sgesl_reference,
)


@pytest.fixture(scope="module")
def saxpy_program():
    return Session(SAXPY_SOURCE).program()


@pytest.fixture(scope="module")
def sgesl_program():
    return Session(SGESL_SOURCE).program()


class TestSaxpy:
    def test_correct_vs_reference(self, saxpy_program):
        case = SaxpyCase(5000)
        x, y = case.arrays()
        expected = saxpy_reference(case.a, x, y)
        saxpy_program.executor().run(
            "saxpy", np.array(case.a, np.float32), x, y,
            np.array(case.n, np.int32),
        )
        assert np.allclose(y, expected, rtol=1e-6)

    def test_matches_handwritten_hls_output(self, saxpy_program):
        case = SaxpyCase(3000)
        x, y = case.arrays()
        y_fortran, y_hls = y.copy(), y.copy()
        saxpy_program.executor().run(
            "saxpy", np.array(case.a, np.float32), x, y_fortran,
            np.array(case.n, np.int32),
        )
        HandwrittenSaxpy.build().run(case.a, x, y_hls)
        assert y_fortran.tobytes() == y_hls.tobytes()

    def test_runtime_parity_with_baseline(self, saxpy_program):
        case = SaxpyCase(100_000)
        x, y = case.arrays()
        fortran = saxpy_program.executor().run(
            "saxpy", np.array(case.a, np.float32), x, y.copy(),
            np.array(case.n, np.int32),
        )
        hls = HandwrittenSaxpy.build().run(case.a, x, y.copy())
        assert abs(hls.device_time_s / fortran.device_time_s - 1) < 0.02


class TestSgesl:
    def test_solves_system(self, sgesl_program):
        case = SgeslCase(96)
        a, lu, ipvt, b = case.system()
        x = b.copy()
        sgesl_program.executor().run(
            "sgesl", lu.copy(), x, (ipvt + 1).astype(np.int64),
            np.array(case.n, np.int32),
        )
        residual = np.abs(a.astype(np.float64) @ x - b).max()
        assert residual < 1e-3

    def test_matches_scipy(self, sgesl_program):
        import scipy.linalg

        case = SgeslCase(80)
        a, lu, ipvt, b = case.system()
        x = b.copy()
        sgesl_program.executor().run(
            "sgesl", lu.copy(), x, (ipvt + 1).astype(np.int64),
            np.array(case.n, np.int32),
        )
        expected = scipy.linalg.solve(
            a.astype(np.float64), b.astype(np.float64)
        )
        assert np.allclose(x, expected, rtol=5e-3, atol=5e-3)

    def test_matches_handwritten_hls_output(self, sgesl_program):
        case = SgeslCase(64)
        _, lu, ipvt, b = case.system()
        x_fortran = b.copy()
        sgesl_program.executor().run(
            "sgesl", lu.copy(), x_fortran, (ipvt + 1).astype(np.int64),
            np.array(case.n, np.int32),
        )
        x_hls = b.copy()
        HandwrittenSgesl.build().run(lu.copy(), x_hls, ipvt)
        assert np.allclose(x_fortran, x_hls, rtol=1e-5, atol=1e-6)

    def test_launch_count(self, sgesl_program):
        case = SgeslCase(32)
        _, lu, ipvt, b = case.system()
        result = sgesl_program.executor().run(
            "sgesl", lu.copy(), b.copy(), (ipvt + 1).astype(np.int64),
            np.array(case.n, np.int32),
        )
        assert result.launches == 2 * case.n - 1


class TestSgefaReference:
    @pytest.mark.parametrize("n", [2, 8, 33])
    def test_lu_solve_identity(self, n):
        case = SgeslCase(n)
        a, lu, ipvt, b = case.system()
        x = sgesl_reference(lu, ipvt, b)
        assert np.allclose(
            a.astype(np.float64) @ x, b, atol=1e-3
        )

    def test_pivoting_actually_happens(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        lu, ipvt = sgefa_reference(a)
        assert ipvt[0] == 1  # row swap recorded


class TestCompiledProgramApi:
    def test_run_defaults_to_program_unit(self):
        program = Session(
            "program p\ninteger :: i\ni = 1\nend program p\n"
        ).program()
        result = program.run()
        assert result.launches == 0

    def test_stage_capture_off_by_default(self, saxpy_program):
        assert saxpy_program.stages == []

    def test_bitstream_artifacts(self, saxpy_program):
        artifact = saxpy_program.bitstream.amd_artifact
        assert artifact.llvm_version == 7
        assert "_ssdm_op_" in artifact.llvm_ir
        assert "saxpy_kernel_0" in saxpy_program.bitstream.kernels
