"""The workload gallery: registry, end-to-end runs, reporting."""

import numpy as np
import pytest

from repro.reporting import gallery_table
from repro.workloads import (
    GalleryWorkload,
    WorkloadInstance,
    all_workloads,
    get_workload,
    register,
    workload_names,
)

EXPECTED_NAMES = {
    "saxpy", "sgesl", "jacobi2d", "spmv", "dot", "gemm", "histogram",
    "heat3d", "batched_gemm",
}


class TestRegistry:
    def test_gallery_contents(self):
        assert set(workload_names()) == EXPECTED_NAMES

    def test_lookup_by_name(self):
        workload = get_workload("jacobi2d")
        assert workload.entry == "jacobi2d"
        assert "collapse(2)" in workload.source

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="no workload"):
            get_workload("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(get_workload("saxpy"))

    def test_every_workload_is_well_formed(self):
        for workload in all_workloads():
            assert isinstance(workload, GalleryWorkload)
            assert workload.sizes, workload.name
            assert workload.smoke_size > 0
            instance = workload.instance(workload.smoke_size)
            assert isinstance(instance, WorkloadInstance)
            assert instance.expected, workload.name
            for pos in instance.expected:
                assert 0 <= pos < len(instance.args)


class TestEndToEnd:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_compiles_and_matches_reference(self, name):
        workload = get_workload(name)
        program = workload.compile()
        result, instance = workload.run(program)
        workload.check(instance)  # bit-exact
        assert result.launches >= 1

    def test_instances_are_deterministic(self):
        a = get_workload("spmv").instance(64)
        b = get_workload("spmv").instance(64)
        for x, y in zip(a.args, b.args):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()

    def test_seeds_differ(self):
        a = get_workload("dot").instance(256, seed=0)
        b = get_workload("dot").instance(256, seed=1)
        assert np.asarray(a.args[0]).tobytes() != np.asarray(b.args[0]).tobytes()


class TestReporting:
    def test_gallery_table_lists_every_workload(self):
        table = gallery_table()
        for name in EXPECTED_NAMES:
            assert name in table
        assert "2-D collapse" in table
