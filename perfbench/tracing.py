"""Span recorder for the benchmark's traced run.

The benchmark wraps the public entry point of each layer (frontend
stages, pass pipelines and passes, the verifier, host code generation,
the Vitis model, the FPGA executor, the kernel runner, the CPU baseline
and the hand-written HLS baselines) while a traced phase runs, and
removes every wrapper when it ends.  Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``, its times
in CPU nanoseconds of the process (``time.process_time_ns``).  Spans stay
in memory and are written out once, when the run ends.  A layer's self
time is its spans' duration minus the part covered by their direct
child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

#: passes whose ``apply`` is timed as ``transforms.<name>``, in pipeline order
PASS_NAMES = (
    "lower-omp-mapped-data",
    "lower-omp-target-region",
    "extract-device-module",
    "lower-omp-to-hls",
    "canonicalize",
    "cse",
)

#: frontend stages: span name suffix -> ``repro.frontend.driver`` global
FRONTEND_STAGES = {
    "parse": "parse_source",
    "sema": "analyze",
    "lower": "lower_program",
    "verify": "verify",
}


def count_ops(module) -> int:
    """Number of operations in ``module``, the module op included."""
    return sum(1 for _ in module.walk())


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.process_time_ns(), 0, parent, self.op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.process_time_ns()
            self._stack.pop()

    # -- wrappers --------------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        owned = attr in vars(owner)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original if owned else None))

    def install(self) -> None:
        """Wrap every traced layer entry point (see the module docstring)."""
        from repro import session
        from repro.backend.vitis import VitisCompiler
        from repro.baselines import HandwrittenSaxpy, HandwrittenSgesl
        from repro.frontend import driver
        from repro.frontend.fir_to_core import FirToCorePass
        from repro.ir import pass_manager
        from repro.ir.pass_manager import get_pass_class
        from repro.runtime.cpu import CpuExecutor
        from repro.runtime.executor import FpgaExecutor
        from repro.runtime.kernel_runner import KernelRunner

        if self._patches:
            raise RuntimeError("tracer already installed")
        for stage, attr in FRONTEND_STAGES.items():
            self._wrap(driver, attr, f"frontend.{stage}")
        self._wrap(FirToCorePass, "apply", "frontend.fir_to_core")
        self._wrap(
            session, "compile_to_core", "frontend",
            observe=lambda t, _a, r: t.counts.update(
                {"frontend.ops_out": count_ops(r.module)}
            ),
        )
        for method in ("frontend", "host_device", "device_build", "program"):
            self._wrap(session.Session, method, f"session.{method}")
        self._wrap(pass_manager.PassManager, "run", "transforms.pipeline")
        for name in PASS_NAMES:
            self._wrap(get_pass_class(name), "apply", f"transforms.{name}")
        self._wrap(pass_manager, "verify", "verifier.verify")
        self._wrap(session, "generate_host_code", "backend.host_codegen")
        self._wrap(
            VitisCompiler, "compile", "backend.vitis",
            observe=lambda t, a, _r: t.counts.update(
                {"transforms.ops_after_hls": count_ops(a[1])}
            ),
        )
        self._wrap(FpgaExecutor, "run", "runtime.executor")
        self._wrap(KernelRunner, "run", "runtime.kernel")
        self._wrap(CpuExecutor, "run", "cpu.run")
        self._wrap(HandwrittenSaxpy, "run", "baselines.hls_run")
        self._wrap(HandwrittenSgesl, "run", "baselines.hls_run")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------------------

    def totals_ns(self, first: int = 0) -> tuple[dict, dict]:
        """(inclusive, self) nanoseconds per span name over spans[first:]."""
        spans = self.spans
        inclusive: dict[str, int] = defaultdict(int)
        children: list[int] = [0] * len(spans)
        for name, start, end, parent, _ in spans[first:]:
            inclusive[name] += end - start
            if parent >= first:
                children[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for index in range(first, len(spans)):
            name, start, end, _, _ = spans[index]
            self_ns[name] += end - start - children[index]
        return inclusive, self_ns

    def nested_ns(self, name: str, ancestor: str, first: int = 0) -> int:
        """Inclusive time of ``name`` spans whose parent is ``ancestor``."""
        spans = self.spans
        return sum(
            end - start
            for span_name, start, end, parent, _ in spans[first:]
            if span_name == name and parent >= 0 and spans[parent][0] == ancestor
        )

    def outermost_ns(self, prefix: str, first: int = 0) -> int:
        """Inclusive time of ``prefix`` spans not directly inside another
        ``prefix`` span."""
        spans = self.spans
        return sum(
            end - start
            for name, start, end, parent, _ in spans[first:]
            if name.startswith(prefix)
            and not (parent >= 0 and spans[parent][0].startswith(prefix))
        )

    def write(self, path: Path, **header) -> None:
        """Write every span (times relative to the first) and the
        per-name self times to ``path`` as JSON."""
        origin = self.spans[0][1] if self.spans else 0
        _, self_ns = self.totals_ns()
        payload = {
            **header,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
            "self_ms": {k: v / 1e6 for k, v in sorted(self_ns.items())},
            "spans": [
                [name, start - origin, end - origin, parent, op]
                for name, start, end, parent, op in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


#: the tracer stand-in for untraced phases: spans cost one call
NO_SPAN = nullcontext()


class NullTracer:
    op_id = None

    def span(self, name: str):
        return NO_SPAN
