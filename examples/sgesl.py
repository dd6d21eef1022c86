#!/usr/bin/env python
"""SGESL benchmark scenario (paper §4, Listing 6).

Factorizes a random system with the LINPACK SGEFA reference, then solves
it with the Fortran OpenMP SGESL (both update loops offloaded via
``target parallel do``) and with the hand-written HLS baseline, checking
both against SciPy and printing a Table-2-shaped comparison.

Run:  python examples/sgesl.py [--quick]
"""

import sys

import numpy as np

from repro.baselines import HandwrittenSgesl
from repro.session import Session
from repro.workloads import SGESL_SIZES, SGESL_SOURCE, SgeslCase, sgesl_reference


def main() -> None:
    sizes = SGESL_SIZES[:2] if "--quick" in sys.argv else SGESL_SIZES
    program = Session(SGESL_SOURCE).program()
    baseline = HandwrittenSgesl.build()

    header = f"{'N':>6} | {'Fortran OpenMP (ms)':>20} | {'Hand HLS (ms)':>15} | {'diff':>7}"
    print(header)
    print("-" * len(header))
    for n in sizes:
        case = SgeslCase(n)
        a, lu, ipvt, b = case.system()
        expected = sgesl_reference(lu, ipvt, b)

        b_fortran = b.copy()
        fortran = program.executor().run(
            "sgesl",
            lu.copy(),
            b_fortran,
            (ipvt + 1).astype(np.int64),  # Fortran: 1-based pivots
            np.array(n, dtype=np.int32),
        )
        assert np.allclose(b_fortran, expected, rtol=1e-3, atol=1e-3)
        residual = np.abs(a.astype(np.float64) @ b_fortran - b).max()

        b_hls = b.copy()
        hls = baseline.run(lu.copy(), b_hls, ipvt)
        assert np.allclose(b_hls, expected, rtol=1e-3, atol=1e-3)

        diff = (hls.device_time_s / fortran.device_time_s - 1.0) * 100.0
        print(
            f"{n:>6} | {fortran.device_time_ms:>20.3f} "
            f"| {hls.device_time_ms:>15.3f} "
            f"| {diff:>+6.2f}%   (residual {residual:.2e})"
        )

    print()
    print("Fortran-flow kernel utilisation:")
    print(program.bitstream.report())
    print("Hand-written-HLS kernel utilisation (note the DSP-mapped MAC):")
    print(baseline.bitstream.report())


if __name__ == "__main__":
    main()
