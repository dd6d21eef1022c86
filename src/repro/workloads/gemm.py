"""Tiled GEMM — C += A*B with a ``collapse(2)`` output nest and a
k-tiled accumulation loop.

The offloaded region is a rank-2 ``omp.loop_nest`` over the output
tile-free (i, j) space; each point accumulates through tiles of
``TILE`` k-values into the scalar ``t``, initialised from and written
back to ``c(i, j)``.  The vectorizer runs the whole ``i / j / kk / k``
nest as one ``nest_reduction``: the kk/k pair is one tiled dim whose
index vector concatenates the per-tile k ranges (partial last tile
included), and ``t`` is a scratch-cell fold, ordered along k from each
(i, j)'s own init.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import GalleryWorkload, WorkloadInstance, register

#: k-tile edge
TILE = 64

GEMM_SOURCE = f"""
subroutine gemm_tiled(a, b, c, n)
  implicit none
  integer, intent(in) :: n
  real, intent(in) :: a(n, n)
  real, intent(in) :: b(n, n)
  real, intent(inout) :: c(n, n)
  integer :: i, j, k, kk
  real :: t
!$omp target parallel do collapse(2)
  do i = 1, n
    do j = 1, n
      t = c(i, j)
      do kk = 1, n, {TILE}
        do k = kk, min(kk + {TILE - 1}, n)
          t = t + a(i, k) * b(k, j)
        end do
      end do
      c(i, j) = t
    end do
  end do
!$omp end target parallel do
end subroutine gemm_tiled
"""


def gemm_reference(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """C + A@B in float32 with the kernel's exact accumulation order:
    every (i, j) folds k = 0..n-1 sequentially starting from c(i, j)."""
    acc = c.astype(np.float32).copy()
    n = a.shape[0]
    for k in range(n):
        acc += a[:, k : k + 1] * b[k : k + 1, :]
    return acc


GEMM_SIZES = (64, 128, 192, 256)


def _make_instance(n: int, seed: int) -> WorkloadInstance:
    rng = np.random.default_rng(41 + seed)
    a = rng.standard_normal((n, n)).astype(np.float32)
    b = rng.standard_normal((n, n)).astype(np.float32)
    c = rng.standard_normal((n, n)).astype(np.float32)
    expected = gemm_reference(a, b, c)
    args = (a, b, c, np.array(n, dtype=np.int32))
    return WorkloadInstance(args=args, expected={2: expected})


GEMM = register(
    GalleryWorkload(
        name="gemm",
        description=f"k-tiled dense GEMM (tile {TILE}) under "
        "target parallel do collapse(2)",
        source=GEMM_SOURCE,
        entry="gemm_tiled",
        sizes=GEMM_SIZES,
        smoke_size=64,
        make_instance=_make_instance,
        loop_shape="2-D collapse + tiled k loop",
    )
)
