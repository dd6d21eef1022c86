#!/usr/bin/env python
"""Nested OpenMP data regions (paper §3, Listing 1).

Demonstrates the reference-counted residency the ``device`` dialect
implements: a structured ``target data`` region makes the arrays
resident, so the implicit ``tofrom`` maps of the enclosed ``target``
constructs become *no-op transfers* — the counter tells the host code
the data is already on the device.

The example runs the same two offloaded loops with and without the
enclosing data region and shows the transferred-byte difference.

Run:  python examples/nested_data_regions.py
"""

import numpy as np

from repro.session import Session

WITH_REGION = """
subroutine stages(x, y, n)
  implicit none
  integer, intent(in) :: n
  real, intent(inout) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
!$omp target data map(tofrom: x) map(from: y)
!$omp target parallel do
  do i = 1, n
    x(i) = x(i) * 2.0
  end do
!$omp end target parallel do
!$omp target parallel do
  do i = 1, n
    y(i) = x(i) + 1.0
  end do
!$omp end target parallel do
!$omp end target data
end subroutine stages
"""

WITHOUT_REGION = """
subroutine stages(x, y, n)
  implicit none
  integer, intent(in) :: n
  real, intent(inout) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
!$omp target parallel do
  do i = 1, n
    x(i) = x(i) * 2.0
  end do
!$omp end target parallel do
!$omp target parallel do
  do i = 1, n
    y(i) = x(i) + 1.0
  end do
!$omp end target parallel do
end subroutine stages
"""


def run(source: str, n: int):
    program = Session(source).program()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n).astype(np.float32)
    y = np.zeros(n, dtype=np.float32)
    x0 = x.copy()
    result = program.executor().run("stages", x, y, np.array(n, np.int32))
    assert np.allclose(x, x0 * 2.0, rtol=1e-6)
    assert np.allclose(y, x0 * 2.0 + 1.0, rtol=1e-6)
    return result


def main() -> None:
    n = 200_000
    scoped = run(WITH_REGION, n)
    bare = run(WITHOUT_REGION, n)

    print(f"two offloaded loops over {n} floats ({4 * n} bytes/array)")
    print(f"{'':24}{'with target data':>18}{'without':>14}")
    print(f"{'transfers':24}{scoped.transfers:>18}{bare.transfers:>14}")
    print(f"{'bytes host->device':24}{scoped.bytes_h2d:>18}{bare.bytes_h2d:>14}")
    print(f"{'bytes device->host':24}{scoped.bytes_d2h:>18}{bare.bytes_d2h:>14}")
    print(f"{'device time (ms)':24}{scoped.device_time_ms:>18.3f}"
          f"{bare.device_time_ms:>14.3f}")
    print()
    print("The data region makes the second kernel's implicit maps no-ops:")
    print("the reference counter reports the arrays resident, so the")
    print("conditional DMA around device.alloc/device.lookup is skipped.")


if __name__ == "__main__":
    main()
