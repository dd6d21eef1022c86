"""A bare ``!$omp target`` region (no combined loop construct) offloads
sequential code to the device — no pipelining directives, but the same
data mapping and kernel plumbing."""

import numpy as np
import pytest

from repro.session import Session

BARE_TARGET = """
subroutine init(a, v, n)
  integer, intent(in) :: n
  real, intent(in) :: v
  real, intent(out) :: a(n)
  integer :: i
!$omp target
  do i = 1, n
    a(i) = v * real(i)
  end do
!$omp end target
end subroutine init
"""


@pytest.fixture(scope="module")
def program():
    return Session(BARE_TARGET).program()


def test_compiles_to_one_kernel(program):
    assert list(program.bitstream.kernels) == ["init_kernel_0"]


def test_loop_unpipelined(program):
    kernel = program.bitstream.kernels["init_kernel_0"]
    schedules = list(kernel.loops.values())
    assert schedules, "the do loop must still be scheduled"
    assert all(not sched.pipelined for sched in schedules)
    # unpipelined: II carries the full body latency, well above 1
    assert all(sched.achieved_ii > 1 for sched in schedules)


def test_functional(program):
    n = 500
    a = np.zeros(n, dtype=np.float32)
    result = program.executor().run(
        "init", a, np.array(1.5, np.float32), np.array(n, np.int32)
    )
    assert np.allclose(a, 1.5 * np.arange(1, n + 1, dtype=np.float32))
    assert result.launches == 1


def test_slower_than_pipelined(program):
    """The paper's point of `parallel do`: without it the kernel loop is
    sequential and substantially slower."""
    pipelined = Session(
        BARE_TARGET.replace("!$omp target\n", "!$omp target parallel do\n")
        .replace("!$omp end target\n", "!$omp end target parallel do\n")
    ).program()
    n = 20_000
    a = np.zeros(n, dtype=np.float32)
    bare_run = program.executor().run(
        "init", a.copy(), np.array(1.0, np.float32), np.array(n, np.int32)
    )
    piped_run = pipelined.executor().run(
        "init", a.copy(), np.array(1.0, np.float32), np.array(n, np.int32)
    )
    # the body is memory-dominated, so the sequential penalty is the
    # uncovered compute latency: strictly slower, by ~latency/memory_ii
    assert piped_run.kernel_time_s < bare_run.kernel_time_s * 0.85
