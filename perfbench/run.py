"""The repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload gallery_run --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written to ``perfbench/traces/``).
Every metric is printed as ``name value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

START = time.process_time()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().parent / "pins.json"


#: glibc ``mallopt`` parameters (``<malloc.h>``)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory() -> None:
    """Let glibc reuse freed NumPy buffers instead of returning them to
    the kernel and faulting them in again on the next run.  On a shared
    VM the page-fault cost of a multi-megabyte buffer swings 2x with the
    host's memory pressure, which otherwise dominates the spread of the
    simulated runs.  Parent and change are measured the same way."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024)  # the 64-bit maximum
    libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)


def load_pins(path: Path = PINS) -> dict:
    return json.loads(path.read_text())["ops"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--profile", default="full", choices=("full", "tiny"),
        help="tiny: smoke sizes and one pass, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # One client, one thread: NumPy's BLAS pool would only add idle threads.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401  (part of the measured import time)

    from perfbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    profile = workloads.PROFILES[args.profile]
    bench = harness.Bench(
        args.workload, args.seed, profile,
        load_pins() if profile.pinned else {},
    )
    import_s = time.process_time() - START
    if args.trace:
        trace_path = (
            ROOT / "perfbench" / "traces"
            / f"{args.workload}-seed{args.seed}.json"
        )
        metrics = harness.measure_traced(bench, args.seconds, trace_path)
    else:
        metrics = harness.measure(bench, args.seconds, import_s)
    for name, value in metrics.items():
        print(f"{name} {value!r} {harness.UNITS[name]}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": harness.UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    keep_freed_memory()
    sys.exit(main())
