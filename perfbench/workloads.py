"""The benchmark's workloads: their sizes, set-up and the ops of one pass.

Each workload is a closed loop with one client: one op runs at a time,
and the next starts only when it has finished and been checked.  An op
has three parts: ``prepare`` (fresh copies of its inputs, untimed),
``run`` (the timed call into the public API) and ``check`` (untimed: the
outputs against their NumPy reference, returning the op's modelled
values, which the harness compares with the pinned ones).

The program under test only ever receives the generated inputs; the
references come from the gallery's NumPy builders, never from a run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.baselines import HandwrittenSaxpy, HandwrittenSgesl
from repro.fpga.power import FpgaPowerModel
from repro.frontend import compile_to_core
from repro.runtime.cpu import CpuExecutor
from repro.session import KernelOverrides, Session
from repro.workloads import all_workloads, get_workload

WORKLOADS = ("compile_dse", "gallery_run", "paper_tables")

#: compile_dse: programs swept, at each one's ``smoke_size``
SWEEP_PROGRAMS = ("jacobi2d", "saxpy")

#: engine tiers of the traced run's tier table: label -> executor kwargs
TIERS = {
    "vectorize_jit": {"compiled": True, "vectorize": True},
    "vectorize": {"compiled": False, "vectorize": True},
    "jit": {"compiled": True, "vectorize": False},
}


@dataclass(frozen=True)
class Profile:
    """Sizes and pass counts; the sizes are part of each workload."""

    name: str
    #: gallery_run: program -> n
    gallery_sizes: dict[str, int]
    #: compile_dse: the sweep grid
    simdlens: tuple[int, ...] = (1, 2, 4)
    compute_units: tuple[int, ...] = (1, 2, 4)
    #: paper_tables: both flows at these sizes
    saxpy_sizes: tuple[int, ...] = (10_000, 100_000, 1_000_000)
    sgesl_sizes: tuple[int, ...] = (256, 512)
    #: paper_tables: CPU baseline sizes (timed) and warm-up sizes (set-up).
    #: Each timed run takes about 0.3 s, so a run holds enough passes for
    #: its per-op minimum to find the host's quiet moments.
    cpu_sizes: dict[str, int] = field(
        default_factory=lambda: {"saxpy": 10_000, "sgesl": 64}
    )
    cpu_warm_sizes: dict[str, int] = field(
        default_factory=lambda: {"saxpy": 1_000, "sgesl": 16}
    )
    #: fewest timed passes per workload; compile_dse needs 12 passes so
    #: that ten or more of its 108+ compiles lie beyond the p90
    min_passes: dict[str, int] = field(
        default_factory=lambda: {
            "compile_dse": 12, "gallery_run": 3, "paper_tables": 2,
        }
    )
    #: set-ups per untraced run (setup_s is their median)
    setup_reps: int = 5
    #: whether every op must have a pinned value
    pinned: bool = True


FULL = Profile(
    name="full",
    gallery_sizes={
        "saxpy": 1_000_000,
        "dot": 1_000_000,
        "spmv": 4096,
        "jacobi2d": 512,
        "heat3d": 64,
        "histogram": 262_144,
        "batched_gemm": 64,
        "sgesl": 512,
        "gemm": 128,
    },
)

TINY = Profile(
    name="tiny",
    gallery_sizes={w.name: w.smoke_size for w in all_workloads()},
    simdlens=(1, 2),
    compute_units=(1, 2),
    saxpy_sizes=(1_000, 2_000),
    sgesl_sizes=(16, 32),
    cpu_sizes={"saxpy": 1_000, "sgesl": 16},
    cpu_warm_sizes={"saxpy": 500, "sgesl": 8},
    min_passes={"compile_dse": 1, "gallery_run": 1, "paper_tables": 1},
    setup_reps=1,
    pinned=False,
)

PROFILES = {p.name: p for p in (FULL, TINY)}


@dataclass
class Op:
    """One checked call into the system (see the module docstring)."""

    key: str
    kind: str
    program: str
    prepare: Callable[[], object]
    run: Callable[[object], object]
    check: Callable[[object, object], dict]


# -- checks and modelled values ------------------------------------------------------


def fresh(args: tuple) -> tuple:
    return tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)


def check_exact(args: tuple, expected: dict[int, np.ndarray]) -> None:
    for pos, want in expected.items():
        if np.asarray(args[pos]).tobytes() != want.tobytes():
            raise AssertionError(
                f"output argument {pos} differs from the NumPy reference"
            )


def check_close(actual, expected, **tolerance) -> None:
    if not np.allclose(actual, expected, **tolerance):
        raise AssertionError(
            f"output differs from the NumPy reference beyond {tolerance}"
        )


def executor_values(result) -> dict:
    return {
        "interpreter_steps": result.interpreter_steps,
        "device_time_ms": result.device_time_ms,
        "kernel_cycles": result.kernel_cycles,
        "launches": result.launches,
        "transfers": result.transfers,
        "degradations": len(result.report.degradations) if result.report else 0,
    }


def utilization(bitstream) -> dict:
    pct = bitstream.utilization()
    return {"lut_pct": pct.lut, "bram_pct": pct.bram, "dsp_pct": pct.dsp}


# -- op builders ---------------------------------------------------------------------


def compile_op(workload) -> Op:
    """Cold compile: a fresh Session, then ``program()``."""

    def run(_):
        session = Session(workload.source)
        return session, session.program()

    def check(_, out) -> dict:
        session, program = out
        return {
            "kernels": len(program.bitstream.kernels),
            **utilization(program.bitstream),
            "frontend_compiles": session.counters["frontend_compiles"],
            "device_builds": session.counters["device_builds"],
        }

    return Op(
        f"compile:{workload.name}", "compile", workload.name,
        lambda: None, run, check,
    )


def sweep_ops(workload, instance, n: int, profile: Profile) -> list[Op]:
    """One shared-Session DSE sweep over simdlen x compute units.

    The sweep's frontend and host stages run here, once and untimed, so
    each point is ``device_build`` + Vitis model + a checked run at ``n``.
    A point records the device builds it made and the frontend compiles
    its sweep has made so far (1 while the stage cache holds)."""
    session = Session(workload.source)
    session.host_device()
    ops = []
    for simdlen in profile.simdlens:
        for units in profile.compute_units:
            overrides = KernelOverrides(simdlen=simdlen, compute_units=units)

            def run(args, overrides=overrides):
                builds = session.counters["device_builds"]
                program = session.program(overrides)
                result = program.executor().run(workload.entry, *args)
                return builds, program, result

            def check(args, out, overrides=overrides) -> dict:
                builds, program, result = out
                check_exact(args, instance.expected)
                values = {
                    **executor_values(result),
                    **utilization(program.bitstream),
                    "device_builds": session.counters["device_builds"] - builds,
                    "sweep_frontend_compiles":
                        session.counters["frontend_compiles"],
                }
                session.release_build(overrides)
                return values

            ops.append(Op(
                f"dse:{workload.name}:n={n}:simdlen={simdlen}:cu={units}",
                "dse_point", workload.name,
                lambda: fresh(instance.args), run, check,
            ))
    return ops


def fortran_op(kind, workload, program, instance, n, extra=None, **tier) -> Op:
    """A run of the compiled Fortran program, checked bit for bit."""

    def check(args, result) -> dict:
        check_exact(args, instance.expected)
        values = executor_values(result)
        return values if extra is None else {**values, **extra()}

    return Op(
        f"{kind}:{workload.name}:n={n}", kind, workload.name,
        lambda: fresh(instance.args),
        lambda args: program.executor(**tier).run(workload.entry, *args),
        check,
    )


def fpga_power(bitstream, work: int, label: str) -> dict:
    return {
        **utilization(bitstream),
        "power_w": FpgaPowerModel().median_power_w(
            work, bitstream.resources, label
        ),
    }


def hls_values(result, baseline, work: int, label: str) -> dict:
    return {
        "device_time_ms": result.device_time_ms,
        "kernel_cycles": result.kernel_cycles,
        "launches": result.launches,
        "transfers": result.transfers,
        **fpga_power(baseline.bitstream, work, label),
    }


def hls_saxpy_op(baseline, instance, n: int) -> Op:
    a, x, y, _ = instance.args

    def check(args, result) -> dict:
        check_close(args[2], instance.expected[2], rtol=1e-5)
        return hls_values(result, baseline, n, "saxpy-hls")

    return Op(
        f"hls:saxpy:n={n}", "hls", "saxpy",
        lambda: (float(a), x.copy(), y.copy()),
        lambda args: baseline.run(*args),
        check,
    )


def hls_sgesl_op(baseline, instance, n: int) -> Op:
    lu, b, ipvt, _ = instance.args

    def check(args, result) -> dict:
        check_close(args[1], instance.expected[1], rtol=1e-3, atol=1e-3)
        return hls_values(result, baseline, n * n, "sgesl-hls")

    return Op(
        f"hls:sgesl:n={n}", "hls", "sgesl",
        lambda: (lu.copy(), b.copy(), ipvt - 1),
        lambda args: baseline.run(*args),
        check,
    )


def cpu_op(name: str, executor: CpuExecutor, instance, n: int) -> Op:
    """The Tables 5/6 single-core CPU baseline (``runtime/cpu.py``)."""
    out, tolerance = (
        (2, {"rtol": 1e-5}) if name == "saxpy"
        else (1, {"rtol": 1e-3, "atol": 1e-3})
    )

    def check(args, result) -> dict:
        check_close(args[out], instance.expected[out], **tolerance)
        return {
            "cpu_steps": result.interpreter_steps,
            "cpu_time_ms": result.time_s * 1e3,
            "cpu_power_w": result.power_w,
        }

    return Op(
        f"cpu:{name}:n={n}", "cpu", name,
        lambda: fresh(instance.args),
        lambda args: executor.run(name, *args, label=f"{name}-{n}"),
        check,
    )


# -- workloads -----------------------------------------------------------------------


class CompileDse:
    """Cold compiles of every gallery source plus shared-Session sweeps."""

    name = "compile_dse"

    def setup(self, setup, seed: int, profile: Profile) -> dict:
        instances = {
            name: setup.instance(
                name, lambda w=get_workload(name): w.instance(w.smoke_size, seed)
            )
            for name in SWEEP_PROGRAMS
        }
        state = {"instances": instances, "profile": profile}
        for op in self.ops(state):  # warm-up: one untimed pass
            setup.warm(op)
        return state

    def ops(self, state) -> list[Op]:
        profile = state["profile"]
        ops = [compile_op(w) for w in all_workloads()]
        for name, instance in state["instances"].items():
            workload = get_workload(name)
            ops += sweep_ops(workload, instance, workload.smoke_size, profile)
        return ops


class GalleryRun:
    """Every gallery program, compiled and warmed in set-up, run once
    per pass on the default tiers."""

    name = "gallery_run"

    def setup(self, setup, seed: int, profile: Profile) -> dict:
        runs = {}
        for name, n in profile.gallery_sizes.items():
            workload = get_workload(name)
            program = Session(workload.source).program()
            instance = setup.instance(name, lambda: workload.instance(n, seed))
            runs[name] = (workload, program, instance, n)
        state = {"runs": runs}
        for op in self.ops(state):
            setup.warm(op)
        return state

    def ops(self, state, **tier) -> list[Op]:
        return [
            fortran_op("run", workload, program, instance, n, **tier)
            for workload, program, instance, n in state["runs"].values()
        ]


class PaperTables:
    """SAXPY and SGESL as the paper's Tables 1-6 use them: the Fortran
    flow, the hand-written HLS flow and the single-core CPU baseline."""

    name = "paper_tables"

    def setup(self, setup, seed: int, profile: Profile) -> dict:
        saxpy, sgesl = get_workload("saxpy"), get_workload("sgesl")
        state = {
            "programs": {
                w.name: Session(w.source).program() for w in (saxpy, sgesl)
            },
            "hls": {
                "saxpy": HandwrittenSaxpy.build(),
                "sgesl": HandwrittenSgesl.build(),
            },
            "cpu": {
                w.name: CpuExecutor(compile_to_core(w.source).module)
                for w in (saxpy, sgesl)
            },
            "instances": {},
        }

        def make(workload, n):
            return setup.instance(
                workload.name, lambda: workload.instance(n, seed)
            )

        for n in profile.saxpy_sizes:
            state["instances"][("saxpy", n)] = make(saxpy, n)
        for n in profile.sgesl_sizes:
            state["instances"][("sgesl", n)] = make(sgesl, n)
        state["cpu_instances"] = {
            name: (n, make(get_workload(name), n))
            for name, n in profile.cpu_sizes.items()
        }
        # The CPU baseline's first-run cost (JIT build, classification)
        # does not depend on n, so it is warmed at a small size.
        for name, n in profile.cpu_warm_sizes.items():
            warm = make(get_workload(name), n)
            setup.warm(cpu_op(name, state["cpu"][name], warm, n))
        for op in self.ops(state, cpu=False):
            setup.warm(op)
        return state

    def ops(self, state, cpu: bool = True) -> list[Op]:
        ops = []
        for (name, n), instance in state["instances"].items():
            workload = get_workload(name)
            program = state["programs"][name]
            work, label = (n, "saxpy") if name == "saxpy" else (n * n, "sgesl")
            ops.append(fortran_op(
                "fortran", workload, program, instance, n,
                extra=lambda p=program, w=work, lb=label: fpga_power(
                    p.bitstream, w, f"{lb}-fortran"
                ),
            ))
            build_hls = hls_saxpy_op if name == "saxpy" else hls_sgesl_op
            ops.append(build_hls(state["hls"][name], instance, n))
        if cpu:
            for name, (n, instance) in state["cpu_instances"].items():
                ops.append(cpu_op(name, state["cpu"][name], instance, n))
        return ops


def get(name: str):
    return {w.name: w for w in (CompileDse(), GalleryRun(), PaperTables())}[name]
