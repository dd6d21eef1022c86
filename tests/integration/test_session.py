"""Staged-session API: stage caching, artifact reuse, and the frozen,
digest-stable config values that key the stage caches."""

import dataclasses

import pytest

import repro
from repro.ir import print_op
from repro.ir.pass_manager import Instrumentation
from repro.session import KernelOverrides, Session, TargetConfig
from repro.transforms import MemorySpacePolicy
from repro.workloads import SAXPY_SOURCE, get_workload
from tests.conftest import SAXPY_MINI


class TestStageCaching:
    def test_frontend_computed_once(self):
        session = Session(SAXPY_MINI)
        assert session.frontend() is session.frontend()
        assert session.counters["frontend_compiles"] == 1

    def test_host_device_cached_per_policy(self):
        """One host build per session; a different policy is a different
        session (its TargetConfig), never a second cache entry."""
        single = Session(SAXPY_MINI)
        robin = Session(
            SAXPY_MINI, target=TargetConfig(memory_space_policy="round_robin")
        )
        for session in (single, robin):
            assert session.host_device() is session.host_device()
            assert session.counters["host_device_builds"] == 1
        assert print_op(single.host_device().device_module) != print_op(
            robin.host_device().device_module
        )

    def test_device_build_cached_per_overrides(self):
        session = Session(SAXPY_MINI)
        base = session.device_build()
        assert session.device_build(KernelOverrides()) is base
        wide = session.device_build(KernelOverrides(simdlen=4))
        assert wide is not base
        assert session.counters["frontend_compiles"] == 1
        assert session.counters["device_builds"] == 2

    def test_programs_share_host_artifacts(self):
        session = Session(SAXPY_MINI)
        a = session.program()
        b = session.program(KernelOverrides(simdlen=2))
        assert a.host_module is b.host_module
        assert a.host_cpp is b.host_cpp
        assert a.bitstream is not b.bitstream

    def test_frontend_module_stays_pristine(self):
        """Stages clone before mutating: the frontend module keeps its
        omp form, and the pre-HLS device module keeps omp loops."""
        session = Session(SAXPY_MINI)
        session.program()
        names = {op.name for op in session.frontend().module.walk()}
        assert "omp.target" in names
        device_names = {
            op.name for op in session.host_device().device_module.walk()
        }
        assert "omp.parallel" in device_names  # not yet HLS-lowered
        assert "hls.pipeline" not in device_names

    def test_rebuild_after_pristine_reuse_is_deterministic(self):
        """Two sessions over the same source produce identical builds
        even after the first session ran multiple device builds."""
        first = Session(SAXPY_MINI)
        first.program(KernelOverrides(simdlen=2))
        first_base = first.program()
        second_base = Session(SAXPY_MINI).program()
        assert print_op(first_base.device_module) == print_op(
            second_base.device_module
        )


class TestStageFailureEviction:
    """A raise mid-stage must leave the session reusable: the failed
    stage's cache key is evicted (never a partial artifact), earlier
    stages stay cached, and an immediate retry succeeds."""

    def test_failed_device_build_evicts_key_and_retry_succeeds(
        self, monkeypatch
    ):
        from repro.backend.vitis import VitisCompiler
        from repro.reliability import DeviceBuildError

        session = Session(SAXPY_MINI)
        session.host_device()  # warm the earlier stages
        counters_before = dict(session.counters)

        real_compile = VitisCompiler.compile
        calls = {"n": 0}

        def flaky_compile(self, module, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthesis backend crashed")
            return real_compile(self, module, **kwargs)

        monkeypatch.setattr(VitisCompiler, "compile", flaky_compile)
        with pytest.raises(DeviceBuildError) as excinfo:
            session.device_build()
        assert excinfo.value.__cause__ is not None
        assert not session._builds  # the poisoned key was evicted

        # earlier stage caches survived — nothing recompiled
        assert session.counters["frontend_compiles"] == \
            counters_before["frontend_compiles"]
        assert session.counters["host_device_builds"] == \
            counters_before["host_device_builds"]

        # the retry re-runs only the failed stage, bit-identically to a
        # fresh session over the same source
        retried = session.program()
        assert calls["n"] == 2  # one failed attempt + one retry
        pristine = Session(SAXPY_MINI).program()
        assert print_op(retried.device_module) == print_op(
            pristine.device_module
        )

    def test_keyboard_interrupt_evicts_and_reraises_unwrapped(
        self, monkeypatch
    ):
        """Ctrl-C mid-build is a BaseException, not an Exception: it must
        still evict the stage key (session stays reusable) and must
        propagate as KeyboardInterrupt, never wrapped into a ReproError."""
        from repro.backend.vitis import VitisCompiler

        session = Session(SAXPY_MINI)
        session.host_device()
        real_compile = VitisCompiler.compile
        calls = {"n": 0}

        def interrupted_compile(self, module, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return real_compile(self, module, **kwargs)

        monkeypatch.setattr(VitisCompiler, "compile", interrupted_compile)
        with pytest.raises(KeyboardInterrupt):
            session.device_build()
        assert not session._builds

        retried = session.program()
        assert calls["n"] == 2
        pristine = Session(SAXPY_MINI).program()
        assert print_op(retried.device_module) == print_op(
            pristine.device_module
        )

    def test_keyboard_interrupt_in_frontend_leaves_session_reusable(
        self, monkeypatch
    ):
        import repro.session as session_mod

        session = Session(SAXPY_MINI)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(session_mod, "compile_to_core", interrupt)
        with pytest.raises(KeyboardInterrupt):
            session.frontend()
        monkeypatch.undo()

        assert session._frontend is None
        assert session.frontend() is session.frontend()
        assert session.counters["frontend_compiles"] == 1

    def test_failed_frontend_caches_nothing(self, monkeypatch):
        import repro.session as session_mod
        from repro.reliability import FrontendError

        session = Session(SAXPY_MINI)

        def crash(*args, **kwargs):
            raise RuntimeError("instrumentation hook crashed")

        monkeypatch.setattr(session_mod, "compile_to_core", crash)
        with pytest.raises(FrontendError):
            session.frontend()
        monkeypatch.undo()

        assert session.frontend() is session.frontend()  # retried fine
        assert session.counters["frontend_compiles"] == 1

    def test_executor_forwards_reliability_kwargs(self):
        from repro.reliability import DmaError, FaultPlan, FaultSpec

        program = Session(SAXPY_MINI).program()
        plan = FaultPlan([FaultSpec(site="dma_start", transient=False)])
        executor = program.executor(fault_plan=plan, watchdog_steps=10_000)
        workload = get_workload("saxpy")
        instance = workload.instance(64)
        with pytest.raises(DmaError):
            executor.run(workload.entry, *instance.args)


class TestInstrumentedSession:
    def test_stage_snapshots(self):
        session = Session(
            SAXPY_MINI, instrumentation=Instrumentation(capture_ir=True)
        )
        program = session.program()
        assert program.stage_names == [
            "fir+omp", "core+omp", "device-dialect", "device-hls",
            "llvm-ir", "amd-hls-llvm7",
        ]
        assert "hls.pipeline" in session.instrumentation.stage("device-hls")

    def test_pass_timings_recorded(self):
        session = Session(SAXPY_MINI)
        session.program()
        names = [t.pass_name for t in session.instrumentation.pass_traces]
        assert "fir-to-core" in names
        assert "lower-omp-to-hls" in names
        assert all(t.duration_s >= 0 for t in session.instrumentation.pass_traces)

    def test_no_snapshots_without_capture(self):
        session = Session(SAXPY_MINI)
        assert session.program().stages == []


class TestTargetConfig:
    def test_policy_applies_to_memory_spaces(self):
        session = Session(
            SAXPY_SOURCE,
            target=TargetConfig(memory_space_policy="round_robin"),
        )
        program = session.program()
        kernel = next(iter(program.bitstream.kernels.values()))
        assert [
            arg.type.memory_space for arg in kernel.func_op.body.args
        ] == [1, 2, 3, 4]  # spread across HBM banks

    def test_policy_object_rejected(self):
        with pytest.raises(TypeError, match="mode string"):
            TargetConfig(memory_space_policy=MemorySpacePolicy("round_robin"))


class TestFrozenConfig:
    """TargetConfig and KernelOverrides are cache and digest keys: they
    cannot be mutated, and their digests are pinned so existing artifact
    and DSE store entries stay addressable."""

    @pytest.mark.parametrize(
        "config,field",
        [(TargetConfig(), "memory_space_policy"), (KernelOverrides(), "simdlen")],
    )
    def test_assignment_raises(self, config, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(config, field)

    @pytest.mark.parametrize(
        "config,digest",
        [
            (
                TargetConfig(),
                "829c2c6d9edec2d8a2ce4be4624e2a16"
                "d8e7a6b9373d26f4047d651a739726fe",
            ),
            (
                TargetConfig(memory_space_policy="round_robin"),
                "7a5082452d2dbfcc3f6640a46f711d18"
                "650e34639c20ef86ad420bb5c8e08106",
            ),
            (
                KernelOverrides(),
                "e583d44a466457d4e51e0624603c453f"
                "ef463de2984fbcfdf21f7a73ace2e812",
            ),
        ],
    )
    def test_digest_pinned(self, config, digest):
        assert config.digest() == digest


def test_public_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
