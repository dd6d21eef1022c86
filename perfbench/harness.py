"""Runs one workload: set-up, timed passes, checks and metrics.

``measure`` is the untraced run that gives the end-to-end metrics.
``measure_traced`` gives the per-layer metrics: one traced set-up, then
untraced passes, then the same number of seconds of traced passes (their
ratio is ``trace.overhead_frac``), then, on gallery_run, the engine-tier
table.  Both return a dict from metric name to value (units are in
:data:`UNITS`); the ops attempted and failed are counted on the
:class:`Bench`.
"""

from __future__ import annotations

import gc
import logging
import math
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import reference, workloads
from perfbench.tracing import PASS_NAMES, NullTracer, Tracer
from perfbench.workloads import TIERS, Op, Profile

#: kinds of op that go through ``FpgaExecutor`` (the runtime layer)
EXECUTOR_KINDS = ("run", "fortran", "dse_point")

#: the nine gallery programs, in registry order
GALLERY = tuple(w.name for w in workloads.all_workloads())

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "run_ms_geomean": "ms",
    "sim_msteps_per_s": "Msteps/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "failed_frac": "ratio",
    "modelled_device_ms": "model_ms",
    "compile_ms_p50": "ms",
    "compile_ms_p90": "ms",
    "dse_points_per_s": "1/s",
    "cpu_baseline_s": "s",
    **{f"frontend.{s}_ms": "ms"
       for s in ("parse", "sema", "lower", "verify", "fir_to_core")},
    "frontend.ops_out": "count",
    **{f"transforms.{p.replace('-', '_')}_ms": "ms" for p in PASS_NAMES},
    "transforms.ops_after_hls": "count",
    "verifier.ms": "ms",
    "verifier.share": "ratio",
    "backend.host_codegen_ms": "ms",
    "backend.vitis_ms": "ms",
    "session.frontend_compiles": "count",
    "session.device_builds": "count",
    **{f"ir.{tier}_ms.{w}": "ms" for tier in TIERS for w in GALLERY},
    **{f"ir.vectorize.bailouts.{w}": "count" for w in GALLERY},
    "runtime.kernel_ms": "ms",
    "runtime.host_ms": "ms",
    "runtime.launches": "count",
    "runtime.transfers": "count",
    "runtime.interpreter_steps": "count",
    "runtime.kernel_cycles": "cycles",
    "cpu.ms": "ms",
    "cpu.steps": "count",
    "cpu.steps_per_s": "1/s",
    **{f"workloads.instance_ms.{w}": "ms" for w in GALLERY},
    **{f"ir.first_run_ms.{w}": "ms" for w in GALLERY},
    "baselines.hls_run_ms": "ms",
    "reliability.degradations": "count",
    "trace.overhead_frac": "ratio",
    "host.reference_ms": "ms",
}

UNITS = {**END_TO_END, **PER_LAYER}

VECTORIZE_LOGGER = "repro.ir.vectorize"

#: the clock of every host time: CPU seconds of this process.  The
#: benchmark is one thread, so this is its wall time minus the time its
#: vCPU spent on other processes or, given to another guest, on none.
cpu_time = time.process_time


@dataclass
class OpResult:
    """What a pass keeps of an op (not the op, which holds its inputs)."""

    key: str
    kind: str
    program: str
    seconds: float
    values: dict | None


@dataclass
class PassRecord:
    seconds: float
    results: list[OpResult]

    def total(self, key: str, kinds=None) -> float:
        return sum(
            r.values.get(key, 0)
            for r in self.results
            if r.values is not None and (kinds is None or r.kind in kinds)
        )


class _BailoutCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record) -> None:
        if record.getMessage().startswith("scalar bail-out"):
            self.count += 1


@dataclass
class Setup:
    """Records what one set-up spends on test data and first runs."""

    bench: "Bench"
    tracer: object
    count_bailouts: bool = False
    instance_ms: Counter = field(default_factory=Counter)
    first_run_ms: dict = field(default_factory=dict)
    bailouts: Counter = field(default_factory=Counter)

    def instance(self, program: str, build):
        with self.tracer.span("workloads.instance"):
            start = cpu_time()
            value = build()
            self.instance_ms[program] += (cpu_time() - start) * 1e3
        return value

    def warm(self, op: Op) -> None:
        """Run one set-up op; a program's first executor run is its cold
        run, during which the vectorizer's bail-outs are counted."""
        if op.kind not in EXECUTOR_KINDS or op.program in self.first_run_ms:
            self.bench.execute(op, self.tracer)
            return
        handler = _BailoutCounter()
        logger = logging.getLogger(VECTORIZE_LOGGER)
        level = logger.level
        if self.count_bailouts:
            logger.addHandler(handler)
            logger.setLevel(logging.DEBUG)
        try:
            result = self.bench.execute(op, self.tracer)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
        self.first_run_ms[op.program] = result.seconds * 1e3
        self.bailouts[op.program] = handler.count


class Bench:
    """One workload at one seed: runs ops and counts every failed check.

    An op fails if it raises, if an output differs from its reference,
    if a modelled value differs from its pinned value, or if it differs
    from an earlier run of the same op in this process (traced vs
    untraced, tier vs tier, pass vs pass).
    """

    def __init__(self, workload: str, seed: int, profile: Profile, pins: dict):
        self.workload = workloads.get(workload)
        self.seed = seed
        self.profile = profile
        self.pins = pins
        self.seen: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.degradations = 0
        self.reference_s = math.inf

    def execute(self, op: Op, tracer) -> OpResult:
        self.attempted += 1
        tracer.op_id = op.key
        values, problems = None, []
        with tracer.span(f"op.{op.kind}"):
            start = cpu_time()
            try:
                args = op.prepare()
                start = cpu_time()
                out = op.run(args)
                seconds = cpu_time() - start
                values = op.check(args, out)
            except Exception as error:  # every failure is counted, never dropped
                seconds = cpu_time() - start
                problems.append(f"raised {type(error).__name__}: {error}")
        tracer.op_id = None
        if values is not None:
            problems += self._compare(op.key, values)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {op.key}: {problem}", file=sys.stderr)
        if values is not None:
            self.degradations += values.get("degradations", 0)
        return OpResult(op.key, op.kind, op.program, seconds, values)

    def _compare(self, key: str, values: dict) -> list[str]:
        problems = []
        pinned = self.pins.get(key)
        if pinned is None:
            if self.profile.pinned:
                problems.append("no pinned modelled value for this op")
        elif pinned != values:
            diff = {
                k: (pinned.get(k), values.get(k))
                for k in sorted(set(pinned) | set(values))
                if pinned.get(k) != values.get(k)
            }
            problems.append(f"modelled values differ from pinned: {diff}")
        first = self.seen.setdefault(key, values)
        if first != values:
            problems.append("modelled values differ from an earlier run")
        return problems

    def setup(self, tracer, count_bailouts=False) -> tuple[object, Setup]:
        record = Setup(self, tracer, count_bailouts)
        with tracer.span("setup"):
            state = self.workload.setup(record, self.seed, self.profile)
        return state, record

    def passes(self, state, seconds: float, min_passes: int, tracer):
        """Timed passes; before each, the host-speed reference is timed
        twice (``reference_s`` keeps its fastest time)."""
        records = []
        deadline = time.perf_counter() + seconds  # the wall clock
        while len(records) < min_passes or time.perf_counter() < deadline:
            ops = self.workload.ops(state)
            gc.collect()
            for _ in range(2):
                start = cpu_time()
                reference.work()
                self.reference_s = min(self.reference_s, cpu_time() - start)
            with tracer.span("pass"):
                start = cpu_time()
                results = [self.execute(op, tracer) for op in ops]
                records.append(PassRecord(cpu_time() - start, results))
        return records


# -- metrics ------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def op_seconds(records, kinds=None) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for record in records:
        for r in record.results:
            if kinds is None or r.kind in kinds:
                times.setdefault(r.key, []).append(r.seconds)
    return times


def steps(record: PassRecord) -> float:
    return record.total("interpreter_steps") + record.total("cpu_steps")


def measure(bench: Bench, seconds: float, import_s: float):
    """The untraced run: end-to-end metrics.

    Each op's time is its fastest over the run's passes: the host's
    moments of load only ever add time.  Op times are then scaled to the
    host speed of ``reference.REFERENCE_S`` (see that module), which
    takes out the load that lasts longer than a run.  ``setup_s`` is not
    scaled: the set-ups run in one burst at the start, and the reference's
    fastest moment in the passes does not tell how loaded the host was
    then."""
    tracer = NullTracer()
    setup_times = []
    for _ in range(bench.profile.setup_reps):
        state = None  # free the previous set-up before building the next
        gc.collect()
        start = cpu_time()
        state, _ = bench.setup(tracer)
        setup_times.append(cpu_time() - start)
    records = bench.passes(
        state, seconds, bench.profile.min_passes[bench.workload.name], tracer
    )
    scale = reference.REFERENCE_S / bench.reference_s
    best = [scale * min(t) for t in op_seconds(records).values()]
    run_s = sum(best)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "run_s": run_s,
        "run_ms_geomean": 1e3 * math.exp(
            statistics.fmean(math.log(b) for b in best)
        ),
        "sim_msteps_per_s": statistics.median(map(steps, records)) / run_s / 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics


def host_metrics(bench: Bench, records: list[PassRecord]) -> dict:
    """Workload-specific host-time metrics from untraced passes."""
    def samples(kind: str) -> list[float]:
        return [s for t in op_seconds(records, (kind,)).values() for s in t]

    compiles, points = samples("compile"), samples("dse_point")
    cpu = [
        sum(r.seconds for r in rec.results if r.kind == "cpu")
        for rec in records
    ]
    return {
        "compile_ms_p50": 1e3 * statistics.median(compiles) if compiles else 0.0,
        "compile_ms_p90": (
            1e3 * statistics.quantiles(compiles, n=10)[8]
            if len(compiles) >= 2 else 0.0
        ),
        "dse_points_per_s": len(points) / sum(points) if points else 0.0,
        "cpu_baseline_s": float(statistics.median(cpu)),
    }


def tier_table(bench: Bench, state) -> dict:
    """Wall time of each gallery program on each engine tier (one run
    each, after set-up warmed the default tier)."""
    metrics = {}
    tracer = NullTracer()
    for tier, kwargs in TIERS.items():
        for op in bench.workload.ops(state, **kwargs):
            gc.collect()
            result = bench.execute(op, tracer)
            metrics[f"ir.{tier}_ms.{op.program}"] = result.seconds * 1e3
    return metrics


def layer_metrics(tracer: Tracer, first: int, records, counts: Counter) -> dict:
    """Per-pass layer times and counts from the traced passes."""
    n = len(records)
    inclusive, self_ns = tracer.totals_ns(first)

    def ms(ns: float) -> float:
        return ns / 1e6 / n

    frontend = {
        f"frontend.{s}_ms": ms(inclusive.get(f"frontend.{s}", 0))
        for s in ("parse", "sema", "lower", "verify", "fir_to_core")
    }
    verifier_ns = inclusive.get("verifier.verify", 0) + inclusive.get(
        "frontend.verify", 0
    )
    compile_ns = tracer.outermost_ns("session.", first)
    cpu_ms = ms(inclusive.get("cpu.run", 0))
    cpu_steps = sum(r.total("cpu_steps") for r in records) / n

    def per_pass(key: str) -> float:
        return sum(r.total(key, EXECUTOR_KINDS) for r in records) / n

    return {
        **frontend,
        "frontend.ops_out": counts["frontend.ops_out"] / n,
        **{
            f"transforms.{p.replace('-', '_')}_ms": ms(
                inclusive.get(f"transforms.{p}", 0)
            )
            for p in PASS_NAMES
        },
        "transforms.ops_after_hls": counts["transforms.ops_after_hls"] / n,
        "verifier.ms": ms(verifier_ns),
        "verifier.share": verifier_ns / compile_ns if compile_ns else 0.0,
        "backend.host_codegen_ms": ms(inclusive.get("backend.host_codegen", 0)),
        "backend.vitis_ms": ms(inclusive.get("backend.vitis", 0)),
        "runtime.kernel_ms": ms(
            tracer.nested_ns("runtime.kernel", "runtime.executor", first)
        ),
        "runtime.host_ms": ms(self_ns.get("runtime.executor", 0)),
        "runtime.launches": per_pass("launches"),
        "runtime.transfers": per_pass("transfers"),
        "runtime.interpreter_steps": per_pass("interpreter_steps"),
        "runtime.kernel_cycles": per_pass("kernel_cycles"),
        "cpu.ms": cpu_ms,
        "cpu.steps": cpu_steps,
        "cpu.steps_per_s": cpu_steps / (cpu_ms / 1e3) if cpu_ms else 0.0,
        "baselines.hls_run_ms": ms(inclusive.get("baselines.hls_run", 0)),
    }


def sweep_counts(records: list[PassRecord]) -> dict:
    """Stage-cache counters per sweep: device builds summed over its
    points, frontend compiles as its last point saw them."""
    last = {}
    for index, record in enumerate(records):
        for r in record.results:
            if r.kind == "dse_point" and r.values is not None:
                last[index, r.program] = r.values
    sweeps = len(workloads.SWEEP_PROGRAMS) * len(records)
    return {
        "session.frontend_compiles": sum(
            v["sweep_frontend_compiles"] for v in last.values()
        ) / sweeps,
        "session.device_builds": sum(
            r.total("device_builds", ("dse_point",)) for r in records
        ) / sweeps,
    }


def measure_traced(bench: Bench, seconds: float, trace_path: Path):
    """The traced run: per-layer metrics (see the module docstring)."""
    tracer = Tracer()
    with tracer.installed():
        state, setup = bench.setup(tracer, count_bailouts=True)
    min_passes = bench.profile.min_passes[bench.workload.name]
    untraced = bench.passes(state, seconds / 2, min_passes, NullTracer())
    first, counts_before = len(tracer.spans), Counter(tracer.counts)
    with tracer.installed():
        traced = bench.passes(state, seconds / 2, min(2, min_passes), tracer)
    counts = Counter(tracer.counts)
    counts.subtract(counts_before)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(host_metrics(bench, untraced))
    metrics.update(layer_metrics(tracer, first, traced, counts))
    if bench.workload.name == "compile_dse":
        metrics.update(sweep_counts(traced))
    for w, value in setup.instance_ms.items():
        metrics[f"workloads.instance_ms.{w}"] = value
    for w, value in setup.first_run_ms.items():
        metrics[f"ir.first_run_ms.{w}"] = value
    for w, value in setup.bailouts.items():
        metrics[f"ir.vectorize.bailouts.{w}"] = value
    metrics["modelled_device_ms"] = statistics.median(
        r.total("device_time_ms") for r in untraced
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in untraced)
        - 1.0
    )
    if bench.workload.name == "gallery_run":
        metrics.update(tier_table(bench, state))
    metrics["reliability.degradations"] = bench.degradations
    metrics["host.reference_ms"] = bench.reference_s * 1e3
    metrics["failed_frac"] = bench.failed / bench.attempted
    tracer.write(
        trace_path, workload=bench.workload.name, seed=bench.seed,
        traced_passes=len(traced), first_traced_span=first,
    )
    return metrics
