"""``collapse(n)`` frontend support: directive, lowering, loop nests."""

import pytest

from repro.dialects import omp
from repro.frontend.directives import parse_directive, print_directive
from repro.frontend.driver import compile_to_fir
from repro.frontend.lowering import LoweringError
from repro.frontend.lexer import FortranSyntaxError
from repro.frontend.sema import SemanticError

NEST_2D = """
subroutine sweep(a, b, n)
  implicit none
  integer, intent(in) :: n
  real, intent(in) :: a(n, n)
  real, intent(inout) :: b(n, n)
  integer :: i, j
!$omp target parallel do collapse(2)
  do i = 1, n
    do j = 1, n
      b(i, j) = a(i, j) + 1.0
    end do
  end do
!$omp end target parallel do
end subroutine sweep
"""


class TestDirective:
    def test_collapse_clause_parsed(self):
        directive = parse_directive("target parallel do collapse(2)")
        assert directive.clauses.collapse == 2

    def test_collapse_requires_positive_integer(self):
        with pytest.raises(FortranSyntaxError, match="collapse"):
            parse_directive("target parallel do collapse(x)")

    def test_collapse_round_trips(self):
        directive = parse_directive("target parallel do collapse(3)")
        assert "collapse(3)" in print_directive(directive)

    @pytest.mark.parametrize(
        "text",
        [
            "target data map(tofrom: a) collapse(2)",
            "target update to(a) collapse(3)",
            "target collapse(2)",
        ],
    )
    def test_collapse_rejected_off_loop_directives(self, text):
        """collapse names a loop-nest depth; data/update/bare-target
        constructs have no associated loop to collapse."""
        with pytest.raises(FortranSyntaxError, match="work-sharing loop"):
            parse_directive(text)


NEST_3D = """
subroutine sweep3(a, b, n)
  implicit none
  integer, intent(in) :: n
  real, intent(in) :: a(n, n, n)
  real, intent(inout) :: b(n, n, n)
  integer :: i, j, k
!$omp target parallel do collapse(3)
  do i = 1, n
    do j = 1, n
      do k = 1, n
        b(i, j, k) = a(i, j, k) + 1.0
      end do
    end do
  end do
!$omp end target parallel do
end subroutine sweep3
"""


class TestLoopNestOp:
    def test_rank_two_nest(self):
        result = compile_to_fir(NEST_2D)
        nests = [
            op for op in result.module.walk()
            if isinstance(op, omp.LoopNestOp)
        ]
        assert len(nests) == 1
        nest = nests[0]
        assert nest.rank == 2
        assert len(nest.induction_vars) == 2
        assert len(nest.lbs) == len(nest.ubs) == len(nest.steps) == 2

    def test_rank_three_nest(self):
        result = compile_to_fir(NEST_3D)
        nest = next(
            op for op in result.module.walk()
            if isinstance(op, omp.LoopNestOp)
        )
        assert nest.rank == 3
        assert len(nest.induction_vars) == 3
        assert len(nest.lbs) == len(nest.ubs) == len(nest.steps) == 3

    def test_rank_one_unchanged(self):
        source = NEST_2D.replace(" collapse(2)", "").replace(
            "b(i, j) = a(i, j) + 1.0", "b(i, i) = a(i, i) + 1.0"
        )
        result = compile_to_fir(source)
        nest = next(
            op for op in result.module.walk()
            if isinstance(op, omp.LoopNestOp)
        )
        assert nest.rank == 1
        assert nest.lb is nest.lbs[0]


class TestLoweringErrors:
    def test_imperfect_nest_rejected(self):
        source = NEST_2D.replace(
            "  do i = 1, n\n    do j = 1, n",
            "  do i = 1, n\n    b(i, 1) = 0.0\n    do j = 1, n",
        )
        with pytest.raises(SemanticError, match="perfect nest"):
            compile_to_fir(source)

    def test_inner_bound_may_not_use_outer_iv(self):
        source = NEST_2D.replace("do j = 1, n", "do j = 1, i")
        with pytest.raises(LoweringError, match="outer collapsed"):
            compile_to_fir(source)


class TestSemantics:
    def test_rank3_nest_interprets_like_python(self):
        import numpy as np

        from repro.frontend.driver import compile_to_core
        from repro.ir.interpreter import Interpreter

        result = compile_to_core(NEST_3D)
        n = 4
        a = np.arange(n**3, dtype=np.float32).reshape(n, n, n)
        b = np.zeros((n, n, n), dtype=np.float32)
        Interpreter(result.module).call(
            "sweep3", a, b, np.array(n, np.int32)
        )
        assert np.array_equal(b, a + np.float32(1.0))

    def test_rank3_nest_scalar_and_vector_tiers_agree(self):
        import numpy as np

        from repro.frontend.driver import compile_to_core
        from repro.ir.interpreter import Interpreter

        n = 6  # 216 iterations >= the vector threshold
        outs = []
        steps = []
        for vectorize in (False, True):
            result = compile_to_core(NEST_3D)
            a = np.arange(n**3, dtype=np.float32).reshape(n, n, n)
            b = np.zeros((n, n, n), dtype=np.float32)
            interp = Interpreter(
                result.module, compiled=False, vectorize=vectorize
            )
            interp.call("sweep3", a, b, np.array(n, np.int32))
            outs.append(b.tobytes())
            steps.append(interp.steps)
        assert outs[0] == outs[1]
        assert steps[0] == steps[1]

    def test_nest_interprets_like_python(self):
        import numpy as np

        from repro.frontend.driver import compile_to_core
        from repro.ir.interpreter import Interpreter

        result = compile_to_core(NEST_2D)
        n = 5
        a = np.arange(n * n, dtype=np.float32).reshape(n, n)
        b = np.zeros((n, n), dtype=np.float32)
        Interpreter(result.module).call(
            "sweep", a, b, np.array(n, np.int32)
        )
        assert np.array_equal(b, a + np.float32(1.0))

    def test_nest_scalar_and_vector_tiers_agree(self):
        import numpy as np

        from repro.frontend.driver import compile_to_core
        from repro.ir.interpreter import Interpreter

        n = 16  # 256 iterations >= the vector threshold
        outs = []
        steps = []
        for vectorize in (False, True):
            result = compile_to_core(NEST_2D)
            a = np.arange(n * n, dtype=np.float32).reshape(n, n)
            b = np.zeros((n, n), dtype=np.float32)
            interp = Interpreter(
                result.module, compiled=False, vectorize=vectorize
            )
            interp.call("sweep", a, b, np.array(n, np.int32))
            outs.append(b.tobytes())
            steps.append(interp.steps)
        assert outs[0] == outs[1]
        assert steps[0] == steps[1]


class TestHostCollapse:
    def test_host_parallel_do_collapse_codegen_and_run(self):
        """A bare (non-target) parallel do collapse(2) must survive the
        host C++ printer and execute tier-identically."""
        import numpy as np

        from repro.session import Session

        source = NEST_2D.replace(
            "!$omp target parallel do collapse(2)",
            "!$omp parallel do collapse(2)",
        ).replace("!$omp end target parallel do", "!$omp end parallel do")
        program = Session(source).program()
        assert program.host_cpp.count("for (int64_t") >= 2
        n = 12
        a = np.arange(n * n, dtype=np.float32).reshape(n, n)
        b = np.zeros((n, n), np.float32)
        program.executor().run("sweep", a, b, np.array(n, np.int32))
        assert np.array_equal(b, a + np.float32(1.0))


class TestNestSlicing:
    def test_sliced_evaluation_is_bit_identical(self, monkeypatch):
        """Above _MAX_NEST_ELEMS the nest is evaluated one outer slice at
        a time; results and step accounting must not change."""
        import numpy as np

        from repro.frontend.driver import compile_to_core
        from repro.ir import vectorize
        from repro.ir.interpreter import Interpreter

        n = 20  # 400 iterations
        outs = []
        steps = []
        for cap in (1 << 22, 64):  # single-shot vs forced slicing
            monkeypatch.setattr(vectorize, "_MAX_NEST_ELEMS", cap)
            result = compile_to_core(NEST_2D)
            a = np.arange(n * n, dtype=np.float32).reshape(n, n)
            b = np.zeros((n, n), np.float32)
            interp = Interpreter(result.module, compiled=False)
            interp.call("sweep", a, b, np.array(n, np.int32))
            outs.append(b.tobytes())
            steps.append(interp.steps)
        assert outs[0] == outs[1]
        assert steps[0] == steps[1]
        assert outs[0] == (
            np.arange(n * n, dtype=np.float32).reshape(n, n)
            + np.float32(1.0)
        ).tobytes()
