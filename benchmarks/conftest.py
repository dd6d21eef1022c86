"""Shared fixtures for the table/figure reproduction benchmarks.

Programs and baselines are compiled once per session; runtime results are
computed lazily and cached so the runtime, power and resource benches
share the same runs.  Every bench writes its paper-vs-measured table to
``benchmarks/reports/`` and echoes it to the terminal.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.baselines import HandwrittenSaxpy, HandwrittenSgesl
from repro.session import CompiledProgram, Session
from repro.workloads import (
    SAXPY_SOURCE,
    SGESL_SOURCE,
    SaxpyCase,
    SgeslCase,
    saxpy_reference,
    sgesl_reference,
)

REPORTS_DIR = Path(__file__).parent / "reports"

#: Published values (median runtime in ms) — paper Tables 1 and 2.
PAPER_TABLE1 = {
    10_000: (1.251, 1.258),
    100_000: (10.931, 10.925),
    1_000_000: (110.245, 110.148),
    10_000_000: (1073.044, 1072.888),
}
PAPER_TABLE2 = {
    256: (20.445, 20.594),
    512: (80.791, 81.121),
    1024: (325.117, 325.573),
    2048: (1317.247, 1318.418),
}
#: Published resource rows (LUT %, BRAM %, DSP %) — Tables 3 and 4.
PAPER_TABLE3 = {"fortran": (8.29, 10.07, 0.10), "hls": (8.29, 10.07, 0.10)}
PAPER_TABLE4 = {"fortran": (8.24, 10.07, 0.10), "hls": (8.22, 10.07, 0.23)}
#: Published power rows (W) — Tables 5 and 6.
PAPER_TABLE5 = {
    10_000: (21.847, 22.178, 56.13),
    100_000: (23.528, 22.496, 55.08),
    1_000_000: (25.535, 23.998, 57.31),
    10_000_000: (24.167, 24.297, 54.91),
}
PAPER_TABLE6 = {
    256: (21.866, 22.363, 52.70),
    512: (22.989, 23.121, 53.71),
    1024: (24.243, 23.640, 52.44),
    2048: (24.278, 24.066, 52.82),
}

#: The single-kernel source matching the paper's Listing 6 (used for the
#: Table 4 synthesis comparison).
SGESL_UPDATE_SOURCE = """
subroutine sgesl_update(b, col, t, k, n)
  implicit none
  integer, intent(in) :: k, n
  real, intent(in) :: t
  real, intent(in) :: col(n)
  real, intent(inout) :: b(n)
  integer :: j
!$omp target parallel do
  do j = k + 1, n
    b(j) = b(j) + t * col(j)
  end do
!$omp end target parallel do
end subroutine sgesl_update
"""


def write_report(name: str, table: str) -> None:
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / f"{name}.txt").write_text(table + "\n")


def emit(capsys, name: str, table: str) -> None:
    """Persist + echo a paper-vs-measured table."""
    write_report(name, table)
    with capsys.disabled():
        print(f"\n{table}\n")


# -- compiled programs ----------------------------------------------------------


@pytest.fixture(scope="session")
def saxpy_program() -> CompiledProgram:
    return Session(SAXPY_SOURCE).program()


@pytest.fixture(scope="session")
def sgesl_program() -> CompiledProgram:
    return Session(SGESL_SOURCE).program()


@pytest.fixture(scope="session")
def sgesl_update_program() -> CompiledProgram:
    return Session(SGESL_UPDATE_SOURCE).program()


@pytest.fixture(scope="session")
def saxpy_baseline() -> HandwrittenSaxpy:
    return HandwrittenSaxpy.build()


@pytest.fixture(scope="session")
def sgesl_baseline() -> HandwrittenSgesl:
    return HandwrittenSgesl.build()


# -- cached runtime results --------------------------------------------------------


class _SaxpyRuns:
    def __init__(self, program, baseline):
        self.program = program
        self.baseline = baseline
        self._cache: dict[int, tuple] = {}

    def results(self, n: int):
        if n not in self._cache:
            case = SaxpyCase(n)
            x, y = case.arrays()
            expected = saxpy_reference(case.a, x, y)
            y_fortran = y.copy()
            fortran = self.program.executor().run(
                "saxpy",
                np.array(case.a, dtype=np.float32),
                x,
                y_fortran,
                np.array(n, dtype=np.int32),
            )
            assert np.allclose(y_fortran, expected, rtol=1e-5)
            y_hls = y.copy()
            hls = self.baseline.run(case.a, x, y_hls)
            assert np.allclose(y_hls, expected, rtol=1e-5)
            self._cache[n] = (fortran, hls)
        return self._cache[n]


class _SgeslRuns:
    def __init__(self, program, baseline):
        self.program = program
        self.baseline = baseline
        self._cache: dict[int, tuple] = {}

    def results(self, n: int):
        if n not in self._cache:
            case = SgeslCase(n)
            _, lu, ipvt, b = case.system()
            expected = sgesl_reference(lu, ipvt, b)
            b_fortran = b.copy()
            fortran = self.program.executor().run(
                "sgesl",
                lu.copy(),
                b_fortran,
                (ipvt + 1).astype(np.int64),
                np.array(n, dtype=np.int32),
            )
            assert np.allclose(b_fortran, expected, rtol=1e-3, atol=1e-3)
            b_hls = b.copy()
            hls = self.baseline.run(lu.copy(), b_hls, ipvt)
            assert np.allclose(b_hls, expected, rtol=1e-3, atol=1e-3)
            self._cache[n] = (fortran, hls)
        return self._cache[n]


@pytest.fixture(scope="session")
def saxpy_runs(saxpy_program, saxpy_baseline) -> _SaxpyRuns:
    return _SaxpyRuns(saxpy_program, saxpy_baseline)


@pytest.fixture(scope="session")
def sgesl_runs(sgesl_program, sgesl_baseline) -> _SgeslRuns:
    return _SgeslRuns(sgesl_program, sgesl_baseline)
