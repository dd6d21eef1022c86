"""Block-JIT compilations are cached on the module they compile.

A compilation lives in its module's ``analysis_cache`` slot, so a
program dropped by its owner is collectable — no process-wide cache
keeps its device or host module alive.
"""

import gc
import weakref

from repro.ir.compile import get_module_compilation, invalidate_compilation
from repro.workloads import get_workload


def test_dropped_program_releases_both_modules():
    workload = get_workload("saxpy")
    program = workload.compile()
    result, instance = workload.run(program, 256)
    workload.check(instance)
    device_ref = weakref.ref(program.device_module)
    host_ref = weakref.ref(program.host_module)
    del program, result, instance
    gc.collect()
    assert device_ref() is None
    assert host_ref() is None


def test_compilation_is_cached_per_override_set():
    module = get_workload("dot").compile().device_module
    plain = get_module_compilation(module, frozenset())
    assert get_module_compilation(module, frozenset()) is plain
    overridden = get_module_compilation(module, frozenset({"arith.addf"}))
    assert overridden is not plain
    assert module.analysis_cache[frozenset()] is plain
    invalidate_compilation(module)
    assert get_module_compilation(module, frozenset()) is not plain

