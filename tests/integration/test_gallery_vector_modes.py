"""Pin the vectorizer's classification of every gallery device loop.

Each loop is keyed by workload, source line and loop depth in its
kernel; the source line is the loop's own ``loc`` or, for loops the
pipeline synthesised (``collapse`` chains), the first ``loc`` inside
it.  A key holds the modes of its loops in IR walk order, a bailing
loop's entry its reason instead.  A refactor of the vectorizer must
leave this table alone; a change that vectorizes more loops updates it
on purpose.
"""

import pytest

from repro.ir.vectorize import classify, loop_vector_mode
from repro.workloads import get_workload, workload_names

LOOPS = ("scf.for", "omp.loop_nest")

EXPECTED = {
    ("batched_gemm", 10, 0): ["nest_reduction"],
    ("batched_gemm", 10, 1): ["nest_reduction"],
    ("batched_gemm", 10, 2): ["nest_reduction"],
    ("batched_gemm", 13, 3): ["memref_reduction"],
    ("dot", 10, 0): ["memref_reduction"],
    # the k-tiled accumulation: kk/k are one tiled dim folding into the
    # scratch cell ``t`` (the kk loop on its own: a tiled root)
    ("gemm", 11, 0): ["nest_reduction"],
    ("gemm", 11, 1): ["nest_reduction"],
    ("gemm", 14, 2): ["nest_reduction"],
    ("gemm", 15, 3): ["memref_reduction"],
    ("heat3d", 9, 0): ["nest_elementwise"],
    ("heat3d", 9, 1): ["nest_elementwise"],
    ("heat3d", 9, 2): ["nest_segmented"],
    ("histogram", 12, 0): ["memref_reduction"],
    ("histogram", 17, 0): ["scatter_store"],
    ("jacobi2d", 9, 0): ["nest_elementwise"],
    ("jacobi2d", 9, 1): ["nest_segmented"],
    ("saxpy", 10, 0): ["nest_segmented", "nest_segmented"],
    ("sgesl", 10, 0): ["nest_segmented"],
    ("sgesl", 24, 0): ["nest_segmented"],
    ("spmv", 13, 0): ["nest_segmented"],
    ("spmv", 15, 1): ["memref_reduction"],
}


def _source_line(loop):
    for op in loop.walk():
        loc = op.attributes.get("loc")
        if loc is not None:
            return loc.value
    return None


def _depth(loop):
    depth = 0
    parent = loop.parent_op
    while parent is not None:
        depth += parent.name in LOOPS
        parent = parent.parent_op
    return depth


def _classified(workload):
    table: dict[tuple, list] = {}
    for op in workload.compile().device_module.walk():
        if op.name in LOOPS:
            mode, _ = loop_vector_mode(op)
            key = (workload.name, _source_line(op), _depth(op))
            table.setdefault(key, []).append(mode or classify(op))
    return table


@pytest.mark.parametrize("name", sorted(workload_names()))
def test_gallery_loop_modes_are_pinned(name):
    expected = {k: v for k, v in EXPECTED.items() if k[0] == name}
    assert _classified(get_workload(name)) == expected
