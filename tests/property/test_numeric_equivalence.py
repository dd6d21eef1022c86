"""Property tests: offloaded programs compute what NumPy computes.

These drive the *entire* pipeline (frontend, device-dialect passes, HLS
lowering, simulated execution) on randomized programs/data and compare
against direct NumPy evaluation — the strongest end-to-end invariant the
reproduction has.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.session import Session

ELEMENTWISE_TEMPLATE = """
subroutine apply(x, y, n)
  integer, intent(in) :: n
  real, intent(in) :: x(n)
  real, intent(out) :: y(n)
  integer :: i
!$omp target parallel do{simd}
  do i = 1, n
    y(i) = {expr}
  end do
!$omp end target parallel do{simd}
end subroutine apply
"""

#: (fortran expression, numpy equivalent)
EXPRESSIONS = [
    ("x(i) + 1.0", lambda x, i: x + np.float32(1.0)),
    ("2.0 * x(i) - 3.0", lambda x, i: np.float32(2.0) * x - np.float32(3.0)),
    ("x(i) * x(i)", lambda x, i: x * x),
    ("abs(x(i))", lambda x, i: np.abs(x)),
    ("max(x(i), 0.0)", lambda x, i: np.maximum(x, np.float32(0.0))),
    ("x(i) / 2.0", lambda x, i: x / np.float32(2.0)),
    ("sqrt(abs(x(i)))", lambda x, i: np.sqrt(np.abs(x))),
    ("x(i) + real(i)", lambda x, i: x + i.astype(np.float32)),
]


@pytest.mark.parametrize("simd", ["", " simd simdlen(4)"])
@pytest.mark.parametrize("expr,reference", EXPRESSIONS)
def test_elementwise_expressions(expr, reference, simd):
    source = ELEMENTWISE_TEMPLATE.format(expr=expr, simd=simd)
    program = Session(source).program()
    n = 97  # deliberately not a multiple of the simd factor
    rng = np.random.default_rng(13)
    x = rng.standard_normal(n).astype(np.float32)
    y = np.zeros(n, dtype=np.float32)
    program.executor().run("apply", x, y, np.array(n, np.int32))
    i = np.arange(1, n + 1)
    expected = reference(x, i).astype(np.float32)
    assert np.allclose(y, expected, rtol=1e-6, atol=1e-6)


@given(
    n=st.integers(min_value=1, max_value=300),
    a=st.floats(
        min_value=-100, max_value=100, allow_nan=False, width=32
    ),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=25, deadline=None)
def test_saxpy_any_size_and_scale(n, a, seed):
    """SAXPY through the whole flow == NumPy, for arbitrary N/a/data."""
    from repro.workloads import SAXPY_SOURCE

    program = _cached_saxpy()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n).astype(np.float32)
    y = rng.standard_normal(n).astype(np.float32)
    expected = (y + np.float32(a) * x).astype(np.float32)
    program.executor().run(
        "saxpy", np.array(a, np.float32), x, y, np.array(n, np.int32)
    )
    assert y.tobytes() == expected.tobytes()


_SAXPY_CACHE = []


def _cached_saxpy():
    if not _SAXPY_CACHE:
        from repro.workloads import SAXPY_SOURCE

        _SAXPY_CACHE.append(Session(SAXPY_SOURCE).program())
    return _SAXPY_CACHE[0]


@given(n=st.integers(min_value=2, max_value=48), seed=st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_sgesl_random_systems(n, seed):
    """Random well-conditioned systems solve correctly end-to-end."""
    from repro.workloads import SGESL_SOURCE, SgeslCase, sgesl_reference

    program = _cached_sgesl()
    case = SgeslCase(n, seed=seed)
    a, lu, ipvt, b = case.system()
    x = b.copy()
    program.executor().run(
        "sgesl", lu.copy(), x, (ipvt + 1).astype(np.int64),
        np.array(n, np.int32),
    )
    expected = sgesl_reference(lu, ipvt, b)
    assert np.allclose(x, expected, rtol=1e-3, atol=1e-3)


_SGESL_CACHE = []


def _cached_sgesl():
    if not _SGESL_CACHE:
        from repro.workloads import SGESL_SOURCE

        _SGESL_CACHE.append(Session(SGESL_SOURCE).program())
    return _SGESL_CACHE[0]
