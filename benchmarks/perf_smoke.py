#!/usr/bin/env python
"""Perf smoke: wall-clock of the compiled execution engine, plus the CI
bench-regression gate.

Times compilation and simulated runs of **every gallery workload**
(``repro.workloads`` registry: SAXPY, SGESL, dot, Jacobi 2-D, SpMV,
tiled GEMM, histogram, heat3d, batched GEMM) and writes
``BENCH_pr14.json`` (at the repo root) with seconds and interpreter-step
counts, so later PRs have a perf trajectory to regress against.  The
simulator's *modelled* numbers (device time, cycles) are recorded too —
they must stay constant across engine optimisations; only wall-clock may
move.  Every run is checked bit-for-bit against the workload's NumPy
reference.

New in PR 10: the ``scaling_tiers`` benchmark — multi-compute-unit
weak/strong scaling curves (saxpy/heat3d/jacobi2d at 1/2/4 CUs) on
*modelled* device time; the recorded speedups are deterministic
simulator ratios whose floors gate the sharded cycle model.  PR 8 added
``service_tiers`` (warm vs cold compile, 8-way coalesced burst, parallel
vs serial DSE).  The ``--check-against`` bench gate (hardened in PR 7):

    PYTHONPATH=src python benchmarks/perf_smoke.py \\
        --out bench.json --check-against BENCH_pr14.json

compares the fresh run to the committed baseline and exits non-zero when

* any modelled ``interpreter_steps`` / ``device_time_ms`` /
  ``kernel_cycles`` drifts for a bench present in both files (these are
  simulator outputs, not wall-clock: an engine change must not move
  them),
* any recorded scalar-vs-vectorized speedup falls below the baseline's
  ``floor`` (wall-clock ratio: the fast tier must stay >= 5x), or
* a bench or ``*_tiers`` entry the baseline records is missing from the
  current run — a dropped tier bench would otherwise un-gate its
  regression silently.

Benches only the *current* run has are reported but never fail the
gate; they become binding once the fresh JSON is committed as the new
baseline.

Run:  PYTHONPATH=src python benchmarks/perf_smoke.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.ir.pass_manager import Instrumentation
from repro.session import KernelOverrides, Session
from repro.workloads import all_workloads, get_workload

#: (workload, sizes timed, best-of rounds) — interpreter-bound benches
#: first; the allocation-heavy n=10M SAXPY goes last so its memory
#: pressure cannot skew them.
BENCH_PLAN: tuple[tuple[str, tuple[int, ...], int], ...] = (
    ("sgesl", (256, 512), 5),
    ("dot", (50_000,), 5),
    ("spmv", (1024, 4096), 5),
    ("jacobi2d", (256, 512), 5),
    ("gemm", (64, 128), 3),
    ("histogram", (16384, 65536), 5),
    ("heat3d", (32, 64), 5),
    ("batched_gemm", (32, 64), 3),
    ("saxpy", (1_000_000, 10_000_000), 3),
)

#: wall-clock ratio the vectorized tier must keep over the scalar tier
#: in the ``*_tiers`` benches; recorded into the JSON so the bench gate
#: can hold later PRs to it.
TIER_SPEEDUP_FLOOR = 5.0

#: (workload, fixed size) for the strong-scaling curves and the CU
#: counts swept.  These are *modelled* device-time ratios (deterministic
#: simulator outputs), so the floors guard the multi-CU cycle model
#: itself: if sharding regresses (e.g. a CU stops getting its block),
#: the speedup collapses and the gate trips.
SCALING_PLAN: tuple[tuple[str, int], ...] = (
    ("saxpy", 1_000_000),
    ("heat3d", 64),
    ("jacobi2d", 512),
)
SCALING_CUS: tuple[int, ...] = (1, 2, 4)
#: modelled-speedup floor per CU count (recorded speedups: ~1.95x at 2
#: CUs, ~3.7x at 4 across the plan; floors sit well below to gate model
#: breakage, not calibration nudges — like every other tier floor).
SCALING_STRONG_FLOORS = {1: 1.0, 2: 1.6, 4: 2.5}
#: weak scaling (work grows with the CU count): time must stay within
#: 1/floor of the 1-CU baseline (recorded efficiency ~0.93-0.97).
SCALING_WEAK_FLOOR = 0.7
SCALING_WEAK_BASE_N = 250_000


def _best_of(fn, rounds: int = 5):
    """Best-of-N with the cycle collector paused during the timed region
    (the live programs' IR graphs make gen-2 collections expensive and
    noisy, exactly like pytest-benchmark's calibrated mode avoids)."""
    import gc

    best = None
    result = None
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench_compile(name: str) -> tuple[dict, object]:
    workload = get_workload(name)
    seconds, program = _best_of(lambda: workload.compile())
    return {"name": f"compile:{name}", "seconds": round(seconds, 6)}, program


def _timed_checked_run(
    program, workload, instance, rounds: int, **executor_kwargs
):
    """Best-of-N of one executor run, outputs checked bit-for-bit.

    Instance construction and the NumPy reference are *not* part of the
    timed region — only executor work is; mutated outputs get a fresh
    copy per round (the copy cost is negligible next to the run).
    """

    def run():
        args = list(instance.args)
        for pos in instance.expected:
            args[pos] = instance.args[pos].copy()
        result = program.executor(**executor_kwargs).run(
            workload.entry, *args
        )
        for pos, expected in instance.expected.items():
            assert args[pos].tobytes() == expected.tobytes(), (
                f"{workload.name}: output {pos} diverged from the "
                "NumPy reference"
            )
        return result

    return _best_of(run, rounds=rounds)


def bench_run(program, name: str, n: int, rounds: int) -> dict:
    workload = get_workload(name)
    instance = workload.instance(n)
    seconds, result = _timed_checked_run(program, workload, instance, rounds)
    return {
        "name": f"{name}:n={n}",
        "seconds": round(seconds, 6),
        "interpreter_steps": result.interpreter_steps,
        "device_time_ms": result.device_time_ms,
        "kernel_cycles": result.kernel_cycles,
    }


#: (workload, simdlen sweep, evaluation size) for the DSE reuse bench —
#: small n so compile cost dominates and the reuse win is what's measured.
DSE_PLAN: tuple[tuple[str, tuple[int, ...], int], ...] = (
    ("saxpy", (1, 2, 4, 8), 2000),
    ("jacobi2d", (1, 2, 4), 32),
)


def bench_dse_reuse(name: str, factors: tuple[int, ...], n: int) -> dict:
    """One sweep, two ways: fresh session per point vs shared session."""
    workload = get_workload(name)
    evaluate = workload.evaluator(n)

    def sweep_fresh_sessions() -> int:
        compiles = 0
        for factor in factors:
            session = Session(
                workload.source, instrumentation=Instrumentation()
            )
            evaluate(session.program(KernelOverrides(simdlen=factor)))
            compiles += session.counters["frontend_compiles"]
        return compiles

    def sweep_shared_session() -> int:
        session = Session(workload.source, instrumentation=Instrumentation())
        for factor in factors:
            evaluate(session.program(KernelOverrides(simdlen=factor)))
        return session.counters["frontend_compiles"]

    fresh_s, fresh_compiles = _best_of(sweep_fresh_sessions, rounds=3)
    shared_s, shared_compiles = _best_of(sweep_shared_session, rounds=3)
    return {
        "name": f"dse:{name}:points={len(factors)}",
        "fresh_seconds": round(fresh_s, 6),
        "shared_seconds": round(shared_s, 6),
        "speedup": round(fresh_s / shared_s, 3),
        "fresh_frontend_compiles": fresh_compiles,
        "shared_frontend_compiles": shared_compiles,
    }


def bench_tiers(program, name: str, n: int) -> dict:
    """Scalar vs vectorized tier on one workload: both tiers must agree
    bit-for-bit and in step accounting; only wall-clock may differ.  The
    scalar side interprets millions of ops per kernel, so it runs once;
    the vectorized side is best-of-3."""
    workload = get_workload(name)
    instance = workload.instance(n)
    scalar_s, scalar_result = _timed_checked_run(
        program, workload, instance, rounds=1,
        compiled=False, vectorize=False,
    )
    fast_s, fast_result = _timed_checked_run(
        program, workload, instance, rounds=3,
        compiled=True, vectorize=True,
    )
    assert scalar_result.interpreter_steps == fast_result.interpreter_steps
    assert scalar_result.kernel_cycles == fast_result.kernel_cycles
    return {
        "name": f"{name}:n={n}",
        "scalar_seconds": round(scalar_s, 6),
        "vectorized_seconds": round(fast_s, 6),
        "speedup": round(scalar_s / fast_s, 2),
        "floor": TIER_SPEEDUP_FLOOR,
        "interpreter_steps": scalar_result.interpreter_steps,
    }


def bench_scaling() -> list[dict]:
    """Multi-CU weak/strong scaling curves on modelled device time.

    Strong: fixed problem size, CU count swept — ``speedup`` is the
    1-CU modelled time over this CU count's.  Weak: the problem grows
    with the CU count (saxpy: work linear in n), ``speedup`` is the
    parallel efficiency (1.0 = perfect).  Every entry's outputs are
    checked bit-for-bit by the executor path itself (the evaluator runs
    the workload's NumPy reference check); determinism across CU counts
    is separately pinned by tests/runtime/test_multi_cu.py.
    """
    entries = []
    for name, n in SCALING_PLAN:
        workload = get_workload(name)
        evaluate = workload.evaluator(n)
        session = Session(workload.source)
        results = {}
        for units in SCALING_CUS:
            overrides = KernelOverrides(compute_units=units)
            results[units] = evaluate(session.program(overrides))
            session.release_build(overrides)
        base_ms = results[1].device_time_ms
        for units in SCALING_CUS:
            result = results[units]
            entries.append(
                {
                    "name": f"strong:{name}:n={n}:cu={units}",
                    "device_time_ms": result.device_time_ms,
                    "kernel_cycles": result.kernel_cycles,
                    "speedup": round(base_ms / result.device_time_ms, 3),
                    "floor": SCALING_STRONG_FLOORS[units],
                }
            )
    workload = get_workload("saxpy")
    session = Session(workload.source)
    base_ms = None
    for units in SCALING_CUS:
        n = SCALING_WEAK_BASE_N * units
        overrides = KernelOverrides(compute_units=units)
        result = workload.evaluator(n)(session.program(overrides))
        session.release_build(overrides)
        if base_ms is None:
            base_ms = result.device_time_ms
        entries.append(
            {
                "name": f"weak:saxpy:n={n}:cu={units}",
                "device_time_ms": result.device_time_ms,
                "kernel_cycles": result.kernel_cycles,
                "speedup": round(base_ms / result.device_time_ms, 3),
                "floor": 1.0 if units == 1 else SCALING_WEAK_FLOOR,
            }
        )
    return entries


#: regression floor for the warm-cache service compile over a cold
#: build.  The *recorded* speedup is ~20-24x (the PR 8 acceptance bar);
#: the floor sits well below it, like every other tier floor (e.g.
#: segmented 688x recorded / 5x floor), because its job is to catch the
#: cache breaking (ratio collapsing toward 1x), not 10% timer jitter on
#: a ~1 ms unpickle.
SERVICE_WARM_FLOOR = 10.0
#: an 8-way coalesced burst must beat 8 serial cold builds by at least
#: this much (it performs exactly one build).
SERVICE_COALESCE_FLOOR = 2.0
#: parallel-vs-serial DSE floor: an overhead bound, not a speedup claim.
#: CI runners may expose a single core, where process-parallel builds
#: cannot win wall-clock; the floor guards against the parallel path
#: degrading catastrophically (e.g. losing per-worker session reuse).
SERVICE_DSE_FLOOR = 0.25


def bench_service_tiers() -> list[dict]:
    """The compile-service benches: warm cache vs cold build, an 8-way
    coalesced burst vs 8 serial builds, and a parallel vs serial 8-point
    DSE sweep (identical tables asserted)."""
    from repro.dse import explore_workload
    from repro.service import (
        ArtifactStore,
        CompileRequest,
        CompileService,
        reset_worker_sessions,
    )

    source = get_workload("saxpy").source
    request = CompileRequest(source)

    # -- warm vs cold --------------------------------------------------
    def cold_build():
        reset_worker_sessions()
        with CompileService(store=ArtifactStore(), max_workers=0) as svc:
            svc.compile(request)

    cold_s, _ = _best_of(cold_build, rounds=5)
    with CompileService(store=ArtifactStore(), max_workers=0) as service:
        service.compile(request)
        # the warm path unpickles a fresh artifact per hit (~1-2 ms); a
        # deep best-of keeps the recorded minimum stable against GC /
        # allocator noise so the floor compares stable minima
        warm_s, _ = _best_of(
            lambda: service.compile(request), rounds=25
        )
        assert service.stats.memory_hits >= 25
    warm_vs_cold = {
        "name": "saxpy:warm_vs_cold",
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 2),
        "floor": SERVICE_WARM_FLOOR,
    }

    # -- coalesced 8-way burst vs 8 serial builds ----------------------
    def serial_8():
        for _ in range(8):
            cold_build()

    serial_s, _ = _best_of(serial_8, rounds=2)
    with CompileService(
        store=ArtifactStore(), max_workers=2
    ) as service:
        service.warm_pool()

        def burst_8():
            futures = [service.submit(request) for _ in range(8)]
            for future in futures:
                future.result()

        start = time.perf_counter()
        burst_8()
        burst_s = time.perf_counter() - start
        builds = service.stats.builds
    assert builds == 1, f"coalesced burst performed {builds} builds"
    coalesced = {
        "name": "saxpy:coalesced8",
        "serial_seconds": round(serial_s, 6),
        "burst_seconds": round(burst_s, 6),
        "speedup": round(serial_s / burst_s, 2),
        "floor": SERVICE_COALESCE_FLOOR,
        "builds": builds,
    }

    # -- parallel vs serial 8-point DSE sweep --------------------------
    factors = (1, 2, 3, 4, 5, 6, 7, 8)
    start = time.perf_counter()
    serial_sweep = explore_workload("saxpy", simdlen_factors=factors)
    dse_serial_s = time.perf_counter() - start
    with CompileService(
        store=ArtifactStore(), max_workers=2, queue_depth=len(factors)
    ) as service:
        service.warm_pool()
        start = time.perf_counter()
        parallel_sweep = explore_workload(
            "saxpy", simdlen_factors=factors, service=service
        )
        dse_parallel_s = time.perf_counter() - start
    assert parallel_sweep.table() == serial_sweep.table(), (
        "parallel DSE sweep produced a different table than serial"
    )
    dse = {
        "name": "saxpy:dse8",
        "serial_seconds": round(dse_serial_s, 6),
        "parallel_seconds": round(dse_parallel_s, 6),
        "speedup": round(dse_serial_s / dse_parallel_s, 2),
        "floor": SERVICE_DSE_FLOOR,
        "points": len(factors),
    }
    return [warm_vs_cold, coalesced, dse]


# ---------------------------------------------------------------------------
# Bench gate (--check-against)
# ---------------------------------------------------------------------------

#: per-bench values the simulator *models*; an engine change must not
#: move them, so the gate requires exact equality against the baseline.
MODELLED_KEYS = ("interpreter_steps", "device_time_ms", "kernel_cycles")


def _tier_sections(payload: dict) -> dict[str, dict]:
    """name -> entry over every ``*_tiers`` section of a bench JSON."""
    entries = {}
    for key, section in payload.items():
        if key.endswith("_tiers") and isinstance(section, list):
            for entry in section:
                entries[f"{key}:{entry['name']}"] = entry
    return entries


def check_against(
    baseline: dict, current: dict, baseline_name: str = "baseline"
) -> list[str]:
    """Compare a fresh run to the committed baseline; returns the list
    of human-readable gate failures (empty == gate passes).  Every
    failure line names ``baseline_name`` (the baseline file), so a CI
    log line is attributable to the exact file that gated it.

    Anything the *baseline* records must exist in the current run: a
    bench or tier entry that disappeared is a reported gate failure (a
    retired workload means the baseline must be re-committed), never a
    silent pass or a traceback.  Entries only the current run has are
    informational — they become binding once the fresh JSON is
    committed as the new baseline.
    """
    failures: list[str] = []
    base_benches = {b["name"]: b for b in baseline.get("benches", ())}
    cur_benches = {b["name"]: b for b in current.get("benches", ())}
    only_cur = sorted(set(cur_benches) - set(base_benches))
    if only_cur:
        print(f"bench gate: new benches not in baseline: {only_cur}")
    for name in sorted(base_benches):
        base = base_benches[name]
        cur = cur_benches.get(name)
        if cur is None:
            failures.append(
                f"{name}: bench missing from current run (baseline has "
                "it); retire it by re-committing the baseline"
            )
            continue
        for key in MODELLED_KEYS:
            if key not in base and key not in cur:
                continue  # compile:* entries carry wall-clock only
            if base.get(key) != cur.get(key):
                failures.append(
                    f"{name}: modelled {key} drifted from the baseline "
                    f"({base.get(key)!r} -> {cur.get(key)!r}); engine "
                    "changes must keep modelled values constant (or the "
                    "baseline must be re-committed with the reviewed "
                    "change)"
                )
    base_tiers = _tier_sections(baseline)
    cur_tiers = _tier_sections(current)
    for name in sorted(base_tiers):
        if name not in cur_tiers:
            failures.append(
                f"{name}: tier missing from current run (baseline "
                "records a speedup floor for it); a dropped tier bench "
                "would otherwise un-gate its regression silently"
            )
            continue
        floor = base_tiers[name].get("floor", TIER_SPEEDUP_FLOOR)
        speedup = cur_tiers[name].get("speedup", 0.0)
        if speedup < floor:
            failures.append(
                f"{name}: speedup {speedup:.2f}x fell below the "
                f"recorded floor {floor:.2f}x"
            )
    return [
        f"{failure} [baseline: {baseline_name}]" for failure in failures
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "BENCH_pr14.json"),
        help="output JSON path (default: <repo>/BENCH_pr14.json)",
    )
    parser.add_argument(
        "--check-against",
        metavar="BASELINE",
        default=None,
        help="committed baseline JSON to gate against: exit 1 when any "
        "modelled value drifts or a tier speedup falls below its "
        "recorded floor",
    )
    args = parser.parse_args()

    # service benches run first, while the process heap is still small:
    # the warm path is a ~1 ms unpickle, and running it after the gallery
    # has filled gen-2 with live IR graphs measurably slows allocation
    # inside pickle.loads (enough to blur the recorded cold/warm ratio).
    service_benches = bench_service_tiers()
    scaling_benches = bench_scaling()

    benches = []
    programs: dict[str, object] = {}
    for workload in all_workloads():
        entry, program = bench_compile(workload.name)
        benches.append(entry)
        programs[workload.name] = program

    for name, sizes, rounds in BENCH_PLAN:
        for n in sizes:
            benches.append(bench_run(programs[name], name, n, rounds))

    dse_benches = [
        bench_dse_reuse(name, factors, n) for name, factors, n in DSE_PLAN
    ]

    scatter_benches = [
        bench_tiers(
            programs["histogram"], "histogram",
            max(get_workload("histogram").sizes),
        )
    ]
    nest_benches = [
        bench_tiers(
            programs["heat3d"], "heat3d", max(get_workload("heat3d").sizes)
        ),
        bench_tiers(
            programs["batched_gemm"], "batched_gemm",
            max(get_workload("batched_gemm").sizes),
        ),
        # the k-tiled scratch-cell fold; n=64 because its scalar walk
        # grows as n**3 (9-13 s on a 2-vCPU VM, over 10 minutes at n=256)
        bench_tiers(programs["gemm"], "gemm", 64),
    ]
    segmented_benches = [
        bench_tiers(
            programs["spmv"], "spmv", max(get_workload("spmv").sizes)
        ),
        bench_tiers(
            programs["sgesl"], "sgesl", max(get_workload("sgesl").sizes)
        ),
    ]
    payload = {
        "pr": 14,
        "description": (
            "Workload gallery through the three-tier engine: every "
            "registered workload compiled + run, outputs checked bit-for-"
            "bit against NumPy references. Wall-clock of the simulator; "
            "device_time_ms/kernel_cycles are modelled values and must "
            "stay constant across engine changes (the --check-against "
            "bench gate enforces this in CI). dse_artifact_reuse "
            "compares a sweep with a fresh Session per point (old cost "
            "model) against one shared Session. scatter_tiers, "
            "nest_tiers and segmented_tiers record scalar-vs-vectorized "
            "wall-clock at each workload's largest sweep size (ufunc.at "
            "scatter; rank-3 collapse(3) whole-space nests, plus gemm's "
            "k-tiled scratch-cell fold at n=64; spmv's CSR "
            "row loops and sgesl's triangular updates on the segmented "
            "tier); each records the speedup floor the gate holds later "
            "runs to. service_tiers (PR 8) records the compile-service "
            "wins: warm-cache vs cold compile, an 8-way coalesced burst "
            "(exactly one build) vs 8 serial builds, and parallel vs "
            "serial 8-point DSE (the dse8 floor is an overhead bound — "
            "single-core runners cannot win wall-clock on process-"
            "parallel builds). scaling_tiers (PR 10) records multi-"
            "compute-unit weak/strong scaling curves on *modelled* "
            "device time (saxpy/heat3d/jacobi2d at 1/2/4 CUs): the "
            "speedups are deterministic simulator ratios, so their "
            "floors gate the sharded cycle model itself, not wall-clock "
            "noise."
        ),
        "python": platform.python_version(),
        "benches": benches,
        "dse_artifact_reuse": dse_benches,
        "scatter_tiers": scatter_benches,
        "nest_tiers": nest_benches,
        "segmented_tiers": segmented_benches,
        "service_tiers": service_benches,
        "scaling_tiers": scaling_benches,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    width = max(len(b["name"]) for b in benches)
    for bench in benches:
        steps = bench.get("interpreter_steps")
        extra = f"  steps={steps:,}" if steps is not None else ""
        print(f"{bench['name']:<{width}}  {bench['seconds']*1e3:9.2f} ms{extra}")
    for bench in dse_benches:
        print(
            f"{bench['name']}  fresh {bench['fresh_seconds']*1e3:8.2f} ms "
            f"({bench['fresh_frontend_compiles']} frontend compiles)  "
            f"shared {bench['shared_seconds']*1e3:8.2f} ms "
            f"({bench['shared_frontend_compiles']})  "
            f"speedup {bench['speedup']:.2f}x"
        )
    for section, entries in (
        ("scatter_tiers", scatter_benches),
        ("nest_tiers", nest_benches),
        ("segmented_tiers", segmented_benches),
    ):
        for bench in entries:
            print(
                f"{section}:{bench['name']}  "
                f"scalar {bench['scalar_seconds']*1e3:9.2f} ms  "
                f"vectorized {bench['vectorized_seconds']*1e3:8.2f} ms  "
                f"speedup {bench['speedup']:.1f}x (floor {bench['floor']:.0f}x)"
            )
    for bench in service_benches:
        slow_key, fast_key = [
            k for k in bench if k.endswith("_seconds")
        ]
        print(
            f"service_tiers:{bench['name']}  "
            f"{slow_key.removesuffix('_seconds')} "
            f"{bench[slow_key]*1e3:9.2f} ms  "
            f"{fast_key.removesuffix('_seconds')} "
            f"{bench[fast_key]*1e3:8.2f} ms  "
            f"speedup {bench['speedup']:.2f}x (floor {bench['floor']:g}x)"
        )
    for bench in scaling_benches:
        print(
            f"scaling_tiers:{bench['name']}  "
            f"{bench['device_time_ms']:9.3f} ms  "
            f"speedup {bench['speedup']:.3f}x (floor {bench['floor']:g}x)"
        )
    print(f"\nwrote {out}")

    if args.check_against:
        baseline = json.loads(Path(args.check_against).read_text())
        failures = check_against(
            baseline, payload, baseline_name=args.check_against
        )
        if failures:
            print(
                f"\nbench gate FAILED against {args.check_against}:",
                file=sys.stderr,
            )
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            sys.exit(1)
        print(f"bench gate passed against {args.check_against}")


if __name__ == "__main__":
    main()
