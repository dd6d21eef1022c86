#!/usr/bin/env python
"""SAXPY benchmark scenario (paper §4, Listing 5).

Runs the paper's SAXPY — ``!$omp target parallel do simd simdlen(10)`` —
for the four problem sizes of Table 1, comparing the Fortran OpenMP flow
against the hand-written Vitis HLS baseline, and prints a Table-1-shaped
comparison.

Run:  python examples/saxpy.py [--quick]
"""

import sys

import numpy as np

from repro.baselines import HandwrittenSaxpy
from repro.session import Session
from repro.workloads import SAXPY_SIZES, SAXPY_SOURCE, SaxpyCase, saxpy_reference


def main() -> None:
    sizes = SAXPY_SIZES[:2] if "--quick" in sys.argv else SAXPY_SIZES
    program = Session(SAXPY_SOURCE).program()
    baseline = HandwrittenSaxpy.build()

    header = f"{'N':>10} | {'Fortran OpenMP (ms)':>20} | {'Hand HLS (ms)':>15} | {'diff':>7}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        case = SaxpyCase(n)
        x, y = case.arrays()
        expected = saxpy_reference(case.a, x, y)

        y_fortran = y.copy()
        fortran = program.executor().run(
            "saxpy",
            np.array(case.a, dtype=np.float32),
            x,
            y_fortran,
            np.array(n, dtype=np.int32),
        )
        assert np.allclose(y_fortran, expected, rtol=1e-5)

        y_hls = y.copy()
        hls = baseline.run(case.a, x, y_hls)
        assert np.allclose(y_hls, expected, rtol=1e-5)

        diff = (hls.device_time_s / fortran.device_time_s - 1.0) * 100.0
        print(
            f"{n:>10} | {fortran.device_time_ms:>20.3f} "
            f"| {hls.device_time_ms:>15.3f} | {diff:>+6.2f}%"
        )

    print()
    print("Fortran-flow kernel utilisation:")
    print(program.bitstream.report())


if __name__ == "__main__":
    main()
