"""Reporting helpers: paper-style tables and the Table 7 LoC census.

The benchmarks print every reproduced table in the paper's row/column
layout next to the published values, so EXPERIMENTS.md can be regenerated
mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

#: Repository source root (src/repro).
_SRC_ROOT = Path(__file__).resolve().parent

#: Paper Table 7: component -> (published LoC, our module globs).
TABLE7_COMPONENTS: dict[str, tuple[int, tuple[str, ...]]] = {
    "OpenMP to HLS dialect (this work)": (
        2363,
        (
            "dialects/device.py",
            "transforms/lower_omp_mapped_data.py",
            "transforms/lower_omp_target_region.py",
            "transforms/extract_device_module.py",
            "transforms/lower_omp_to_hls.py",
            "transforms/loop_analysis.py",
        ),
    ),
    "HLS dialect and lowering from [20]": (
        2382,
        (
            "dialects/hls.py",
            "transforms/lower_hls_to_func.py",
            "backend/vitis.py",
        ),
    ),
    "Integrating LLVM and AMD HLS backend [19]": (
        1654,
        (
            "backend/llvm_ir.py",
            "backend/amd_hls.py",
        ),
    ),
    "Lowering from HLFIR & FIR to core dialects [3]": (
        5956,
        (
            "frontend/lexer.py",
            "frontend/ast_nodes.py",
            "frontend/parser.py",
            "frontend/directives.py",
            "frontend/sema.py",
            "frontend/lowering.py",
            "frontend/fir_to_core.py",
            "frontend/driver.py",
        ),
    ),
}


def count_loc(path: Path) -> int:
    """Physical non-blank lines of code in a file."""
    return sum(
        1 for line in path.read_text().splitlines() if line.strip()
    )


@dataclass
class LocRow:
    component: str
    paper_loc: int
    our_loc: int
    files: tuple[str, ...]


def table7_loc() -> list[LocRow]:
    """Lines-of-code census mapped onto the paper's Table 7 components."""
    rows = []
    for component, (paper_loc, files) in TABLE7_COMPONENTS.items():
        total = 0
        for rel in files:
            path = _SRC_ROOT / rel
            if not path.exists():
                raise FileNotFoundError(f"Table 7 census: missing {path}")
            total += count_loc(path)
        rows.append(LocRow(component, paper_loc, total, files))
    return rows


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Monospace table with a title rule (used by every benchmark)."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def relative_difference(ours: float, reference: float) -> float:
    """Signed relative difference in percent (reference vs ours)."""
    return (reference / ours - 1.0) * 100.0


def pass_table(instrumentation) -> str:
    """Per-pass summary of an instrumented compilation, aggregated by
    pass name in first-run order: runs and the op count after the last
    run (recorded under ``capture_ir``).  Deterministic, unlike the
    traces' wall-clock ``duration_s`` (a
    :class:`~repro.ir.pass_manager.Instrumentation` consumer — the
    Figure-2 benchmark prints this next to the stage trace)."""
    totals: dict[str, tuple[int, int | None]] = {}
    for trace in instrumentation.pass_traces:
        runs, _ = totals.get(trace.pass_name, (0, None))
        totals[trace.pass_name] = (runs + 1, trace.ops_after)
    rows = [
        (name, runs, "-" if ops is None else ops)
        for name, (runs, ops) in totals.items()
    ]
    return format_table("Passes", ["pass", "runs", "ops after"], rows)


def stage_trace_table(instrumentation) -> str:
    """The captured pipeline-stage snapshots as a summary table (stage
    name + IR size), for reports that trace the Figure-2 flow."""
    rows = [
        (snap.name, len(snap.ir.splitlines()), len(snap.ir))
        for snap in instrumentation.snapshots
    ]
    return format_table(
        "Pipeline stages", ["stage", "IR lines", "IR bytes"], rows
    )


def counter_table(instrumentation) -> str:
    """Artifact-build counters (frontend/host/device) — the DSE
    artifact-reuse evidence in human-readable form."""
    rows = sorted(instrumentation.counters.items())
    return format_table("Build counters", ["event", "count"], rows)


def service_stats_table(stats) -> str:
    """Aggregate :class:`~repro.service.service.ServiceStats` counters
    as a table (requests, tier hits, coalesced, builds, rejections)."""
    rows = sorted(stats.as_dict().items())
    return format_table("Compile service", ["counter", "count"], rows)


def service_request_table(responses) -> str:
    """Per-request :class:`~repro.service.service.ServiceMetrics` rows
    for a batch of :class:`ServiceResponse` objects — the coalesced
    burst evidence in human-readable form."""
    rows = [
        (
            r.metrics.digest[:12],
            r.metrics.outcome,
            f"{r.metrics.queue_wait_s * 1e3:.3f}",
            f"{r.metrics.build_s * 1e3:.3f}",
            f"{r.metrics.total_s * 1e3:.3f}",
        )
        for r in responses
    ]
    return format_table(
        "Service requests",
        ["digest", "outcome", "queue (ms)", "build (ms)", "total (ms)"],
        rows,
    )


def store_stats_table(stats) -> str:
    """Tier-level :class:`~repro.service.store.StoreStats` counters."""
    rows = sorted(stats.as_dict().items())
    return format_table("Artifact store", ["counter", "count"], rows)


def gallery_table() -> str:
    """The workload gallery as a paper-style table (name, loop shape,
    entry point, size sweep) — regenerated from the registry so reports
    can never drift from the code."""
    from repro.workloads import all_workloads

    rows = [
        (
            w.name,
            w.loop_shape,
            w.entry,
            ", ".join(str(s) for s in w.sizes),
            w.description,
        )
        for w in all_workloads()
    ]
    return format_table(
        "Workload gallery",
        ["workload", "loop shape", "entry", "sizes", "description"],
        rows,
    )


def scaling_table(curves: dict[str, Sequence[tuple[int, float]]]) -> str:
    """Multi-compute-unit scaling curves as a report table.

    ``curves`` maps a workload label to its ``(compute_units,
    device_time_s)`` samples; each row reports the modelled time at that
    CU count, the speedup over the curve's 1-CU sample and the parallel
    efficiency (``speedup / CUs``).  This is the human-readable twin of
    the ``scaling_tiers`` section the perf-smoke bench gates on.
    """
    rows = []
    for label in sorted(curves):
        samples = sorted(curves[label])
        base = next(
            (time_s for units, time_s in samples if units == 1), None
        )
        for units, time_s in samples:
            speedup = base / time_s if base else float("nan")
            rows.append(
                (
                    label,
                    units,
                    f"{time_s * 1e3:.3f}",
                    f"{speedup:.2f}x",
                    f"{100.0 * speedup / units:.1f}%",
                )
            )
    if not rows:
        rows = [("-", "-", "-", "-", "no samples")]
    return format_table(
        "Multi-CU scaling",
        ["workload", "CUs", "time (ms)", "speedup", "efficiency"],
        rows,
    )


def diagnostics_table(diagnostics) -> str:
    """Kernel static-analysis findings (``Session.diagnostics()`` /
    ``check-kernels``) as a report table, one row per finding."""
    rows = [
        (d.severity, d.code, d.kernel, d.line if d.line > 0 else "-", d.message)
        for d in diagnostics
    ]
    if not rows:
        rows = [("-", "-", "-", "-", "no findings")]
    return format_table(
        "Kernel diagnostics",
        ["severity", "code", "kernel", "line", "message"],
        rows,
    )
