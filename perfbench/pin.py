"""Regenerate ``pins.json``: every op's modelled values at the reference seed.

    python3 perfbench/pin.py

Runs one set-up and one pass of each workload at seed 0 and records the
modelled values each op returns (interpreter steps, device time, kernel
cycles, launches, transfers, degradations, resources, power, CPU steps).
Every value that ``BENCH_pr10.json`` also records for the same program
and size is cross-checked and must be identical; the script exits 1
otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().parent / "pins.json"
BASELINE = ROOT / "BENCH_pr10.json"
REFERENCE_SEED = 0
CROSS_CHECKED = ("interpreter_steps", "device_time_ms", "kernel_cycles")


def collect() -> dict:
    from perfbench import harness, workloads
    from perfbench.tracing import NullTracer

    profile = dataclasses.replace(
        workloads.FULL, pinned=False, setup_reps=1,
        min_passes=dict.fromkeys(workloads.WORKLOADS, 1),
    )
    pins = {}
    for name in workloads.WORKLOADS:
        bench = harness.Bench(name, REFERENCE_SEED, profile, {})
        state, _ = bench.setup(NullTracer())
        bench.passes(state, 0.0, 1, NullTracer())
        if bench.failed:
            raise SystemExit(f"{name}: {bench.failed} ops failed; not pinning")
        pins.update(bench.seen)
    return dict(sorted(pins.items()))


def baseline_values(baseline: dict) -> dict[str, dict]:
    """``program:n=N`` -> modelled values over every section of the file."""
    found: dict[str, dict] = {}
    for section in baseline.values():
        if isinstance(section, list):
            for entry in section:
                values = {k: entry[k] for k in CROSS_CHECKED if k in entry}
                if values:
                    found.setdefault(entry["name"], {}).update(values)
    return found


def cross_check(pins: dict, baseline: dict) -> tuple[int, list[str]]:
    """(number of values compared, mismatches) between pins and baseline."""
    reference = baseline_values(baseline)
    compared, mismatches = 0, []
    for key, values in pins.items():
        kind, program_size = key.split(":", 1)
        if kind not in ("run", "fortran"):
            continue
        for field, expected in reference.get(program_size, {}).items():
            compared += 1
            if values.get(field) != expected:
                mismatches.append(
                    f"{key}: {field} pinned {values.get(field)!r}, "
                    f"{BASELINE.name} has {expected!r}"
                )
    return compared, mismatches


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    pins = collect()
    compared, mismatches = cross_check(
        pins, json.loads(BASELINE.read_text())
    )
    for line in mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(f"{compared} pinned values cross-checked against {BASELINE.name}")
    if mismatches:
        return 1
    PINS.write_text(json.dumps(
        {"reference_seed": REFERENCE_SEED, "ops": pins}, indent=1
    ) + "\n")
    print(f"wrote {len(pins)} ops to {PINS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
