"""Tiled chain levels and scratch-cell folds on the whole-space nest plan.

The gallery's hand-tiled GEMM (``do kk = 1, n, T; do k = kk, min(kk+T-1,
n)`` accumulating into a scalar ``t`` that is initialised from and
written back to ``c(i, j)``) runs as one ``nest_reduction``: the kk/k
pair is one dim whose index vector concatenates the per-tile ranges, and
the fold starts from each outer point's ``t = c(i, j)``.  These tests pin
every tier to the scalar walk bit for bit (outputs, steps, cycles and
device time), full and partial tiles included, plus the runtime and
classification bails.
"""

import logging

import numpy as np
import pytest

from repro.ir import Interpreter
from repro.ir.vectorize import classify, loop_vector_mode, run_vectorized
from repro.session import Session
from repro.workloads import get_workload
from repro.workloads.gemm import GEMM_SOURCE, TILE, gemm_reference

TIERS = ((True, True), (True, False), (False, True), (False, False))

#: the gallery source at tile edge 4: n=8 is two full tiles, n=10 ends
#: in a partial tile, n=13 in a one-element tile
TILE4_SOURCE = GEMM_SOURCE.replace(f"n, {TILE}", "n, 4").replace(
    f"kk + {TILE - 1}", "kk + 3"
)
#: ``k = kk, min(kk + 4, n)``: each tile's last k is the next tile's first
OVERLAP_SOURCE = TILE4_SOURCE.replace("kk + 3", "kk + 4")
#: the tile IV read inside the fold body
TILE_IV_SOURCE = TILE4_SOURCE.replace("b(k, j)", "b(kk, j)")
#: a writeback that is not injective over (i, j): the i/j nests stay
#: unplanned, so every (i, j) dispatches the kk loop's own plan
KK_ROOT_SOURCE = TILE4_SOURCE.replace("c(i, j) = t", "c(i, 1) = t")
#: the scratch-cell fold over a plain (untiled) k dim of extent m
UNTILED_SOURCE = """
subroutine gemm_untiled(a, b, c, n, m)
  implicit none
  integer, intent(in) :: n
  integer, intent(in) :: m
  real, intent(in) :: a(n, n)
  real, intent(in) :: b(n, n)
  real, intent(inout) :: c(n, n)
  integer :: i, j, k
  real :: t
!$omp target parallel do collapse(2)
  do i = 1, n
    do j = 1, n
      t = c(i, j)
      do k = 1, m
        t = t + a(i, k) * b(k, j)
      end do
      c(i, j) = t
    end do
  end do
!$omp end target parallel do
end subroutine gemm_untiled
"""


def _inputs(n: int, *extra):
    rng = np.random.default_rng(7 + n)
    mats = [rng.standard_normal((n, n)).astype(np.float32) for _ in range(3)]
    return [*mats, *(np.array(v, dtype=np.int32) for v in (n, *extra))]


def _run(program, entry, args, compiled=True, vectorize=True):
    args = [a.copy() for a in args]
    result = program.executor(compiled=compiled, vectorize=vectorize).run(
        entry, *args
    )
    return args, result


def _assert_tiers_identical(program, entry, args):
    """Every tier's outputs and modelled values equal the scalar walk's;
    returns the scalar run's outputs."""
    runs = [_run(program, entry, args, *tier) for tier in TIERS]
    scalar_args, scalar = runs[-1]
    for (tier_args, result), tier in zip(runs, TIERS):
        for got, want in zip(tier_args, scalar_args):
            assert got.tobytes() == want.tobytes(), tier
        assert result.interpreter_steps == scalar.interpreter_steps, tier
        assert result.kernel_cycles == scalar.kernel_cycles, tier
        assert result.device_time_ms == scalar.device_time_ms, tier
    return scalar_args


def _device_loops(program):
    return [
        op for op in program.device_module.walk() if op.name == "scf.for"
    ]


@pytest.fixture(scope="module")
def tile4_program():
    return Session(TILE4_SOURCE).program()


class TestTiledGemmParity:
    def test_outer_loops_plan_as_one_nest(self, tile4_program):
        i_loop, j_loop, kk_loop, k_loop = _device_loops(tile4_program)
        plan = classify(i_loop)
        assert plan.mode == "nest_reduction"
        assert [level.tile is not None for level in plan.chain] == [
            False, True,
        ]
        assert plan.frame is not None
        assert loop_vector_mode(j_loop)[0] == "nest_reduction"
        assert loop_vector_mode(k_loop)[0] == "memref_reduction"
        # a tile loop at the root: the tiled k dim is its only dim
        kk_plan = classify(kk_loop)
        assert kk_plan.mode == "nest_reduction"
        assert kk_plan.root_dims == 0 and kk_plan.chain[0].tile is not None

    @pytest.mark.parametrize("n", [8, 10, 13])
    def test_partial_tiles_bit_identical_on_every_tier(self, tile4_program, n):
        args = _inputs(n)
        outputs = _assert_tiers_identical(tile4_program, "gemm_tiled", args)
        expected = gemm_reference(*args[:3])
        assert outputs[2].tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "n, steps, cycles",
        [(65, 4_292_879, 8_694_990), (70, 5_346_189, 10_843_270)],
    )
    def test_gallery_gemm_pins(self, n, steps, cycles):
        """The real tile-64 kernel with a partial last tile: the fast
        tier against the JIT-only walk, at the recorded modelled values."""
        workload = get_workload("gemm")
        program = workload.compile()
        instance = workload.instance(n)
        jit_args, jit = _run(
            program, workload.entry, instance.args, vectorize=False
        )
        fast_args, fast = _run(program, workload.entry, instance.args)
        assert fast_args[2].tobytes() == jit_args[2].tobytes()
        assert fast_args[2].tobytes() == instance.expected[2].tobytes()
        for result in (jit, fast):
            assert result.interpreter_steps == steps
            assert result.kernel_cycles == cycles
        assert fast.device_time_ms == jit.device_time_ms


def test_tiled_root_plan_runs_per_outer_point(monkeypatch):
    """With the (i, j) nest unplanned, the kk loop's own plan folds each
    (i, j)'s 64 k values as one tiled dim: identical to the JIT walk."""
    import repro.ir.vectorize as vectorize

    program = Session(KK_ROOT_SOURCE).program()
    i_loop, j_loop, kk_loop, _ = _device_loops(program)
    assert classify(i_loop) == (
        "epilogue store subscripts do not cover every outer dim"
    )
    assert classify(j_loop) == "epilogue store hits the same cell every row"
    assert loop_vector_mode(kk_loop)[0] == "nest_reduction"
    tiled = []
    index = vectorize._tile_index
    monkeypatch.setattr(
        vectorize, "_tile_index", lambda *a: tiled.append(1) or index(*a)
    )
    args = _inputs(64)
    jit_args, jit = _run(program, "gemm_tiled", args, vectorize=False)
    assert not tiled
    for compiled in (True, False):
        fast_args, fast = _run(program, "gemm_tiled", args, compiled=compiled)
        assert len(tiled) == 64 * 64
        tiled.clear()
        assert fast_args[2].tobytes() == jit_args[2].tobytes()
        assert fast.interpreter_steps == jit.interpreter_steps
        assert fast.kernel_cycles == jit.kernel_cycles
        assert fast.device_time_ms == jit.device_time_ms


class TestScratchCellFold:
    @pytest.fixture(scope="class")
    def program(self):
        return Session(UNTILED_SOURCE).program()

    def test_untiled_fold_dim_classifies(self, program):
        plan = classify(_device_loops(program)[0])
        assert plan.mode == "nest_reduction"
        assert plan.frame is not None
        assert all(level.tile is None for level in plan.chain)

    @pytest.mark.parametrize("m", [0, 9])
    def test_bit_identical_on_every_tier(self, program, m):
        """m=0 leaves the fold dim empty: the prologue and epilogue still
        run at every outer point, exactly like the scalar walk."""
        _assert_tiers_identical(program, "gemm_untiled", _inputs(9, m))


class TestTiledBails:
    def test_overlapping_tiles_fail_the_runtime_check(self, caplog):
        program = Session(OVERLAP_SOURCE).program()
        root = _device_loops(program)[0]
        assert loop_vector_mode(root)[0] == "nest_reduction"
        args = _inputs(10)

        # driven directly: the bail returns None with nothing mutated
        module = program.device_module
        fn = next(op for op in module.walk() if op.name == "func.func")
        interp = Interpreter(module)
        env = dict(zip(fn.body.args, [a.copy() for a in args]))
        for op in fn.body.ops:
            if op is root:
                break
            interp.run_op(op, env)
        before = {v: np.array(val, copy=True) for v, val in env.items()
                  if isinstance(val, np.ndarray)}
        steps = interp.steps
        bounds = [tuple(interp.get(env, v) for v in root.operands[:3])]
        with caplog.at_level(logging.DEBUG, logger="repro.ir.vectorize"):
            assert run_vectorized(interp, root, env, bounds) is None
        assert interp.steps == steps
        for v, val in before.items():
            assert env[v].tobytes() == val.tobytes()
        assert any(
            "tiled loop ranges overlap" in r.message for r in caplog.records
        )
        # every tier reruns it on the scalar walk: identical to scalar
        _assert_tiers_identical(program, "gemm_tiled", args)

    def test_tile_iv_in_fold_body_stays_unplanned(self):
        program = Session(TILE_IV_SOURCE).program()
        i_loop, j_loop, _, _ = _device_loops(program)
        reason = "tile loop values are used inside the tiled loop body"
        assert loop_vector_mode(i_loop) == (None, None)
        assert classify(i_loop) == reason
        assert classify(j_loop) == reason
        _assert_tiers_identical(program, "gemm_tiled", _inputs(10))
