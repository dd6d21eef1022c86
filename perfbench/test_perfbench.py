"""The benchmark's own tests, on the tiny profile (seconds per workload)."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, pin, run, workloads
from perfbench.tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_bench(workload: str, seed: int = 0, pins=None) -> harness.Bench:
    return harness.Bench(workload, seed, workloads.TINY, pins or {})


def one_pass(bench: harness.Bench):
    state, _ = bench.setup(NullTracer())
    bench.passes(state, 0.0, 1, NullTracer())
    return state


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_profile_prints_every_declared_metric(workload, trace, capsys):
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.01",
        "--trace", str(trace), "--profile", "tiny",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert f"{name} {metric['value']!r} {metric['unit']}" in lines
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in declared)


def test_corrupted_expected_output_counts_as_failed():
    bench = tiny_bench("gallery_run")
    state, _ = bench.setup(NullTracer())
    assert bench.failed == 0
    _, _, instance, _ = state["runs"]["saxpy"]
    instance.expected[2][0] += np.float32(1.0)
    bench.passes(state, 0.0, 1, NullTracer())
    assert bench.failed == 1
    assert bench.failed / bench.attempted > 0


def test_corrupted_pinned_value_counts_as_failed():
    reference = tiny_bench("paper_tables")
    one_pass(reference)
    assert reference.failed == 0
    pins = copy.deepcopy(reference.seen)
    control = tiny_bench("paper_tables", pins=pins)
    one_pass(control)
    assert control.failed == 0
    key = "fortran:sgesl:n=16"
    pins[key]["device_time_ms"] = math.nextafter(
        pins[key]["device_time_ms"], math.inf
    )
    corrupted = tiny_bench("paper_tables", pins=pins)
    one_pass(corrupted)
    assert corrupted.failed >= 1
    assert corrupted.failed / corrupted.attempted > 0


def test_missing_pin_fails_on_the_pinned_profile():
    bench = harness.Bench("compile_dse", 0, workloads.FULL, {})
    op = workloads.compile_op(workloads.get_workload("dot"))
    bench.execute(op, NullTracer())
    assert bench.failed == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_but_not_the_op_list(workload):
    ops = {}
    for seed in (0, 1):
        bench = tiny_bench(workload, seed)
        state, _ = bench.setup(NullTracer())
        ops[seed] = bench.workload.ops(state)
    assert [op.key for op in ops[0]] == [op.key for op in ops[1]]

    def input_bytes(op_list):
        return b"".join(
            a.tobytes()
            for op in op_list
            for a in (op.prepare() or ())
            if isinstance(a, np.ndarray)
        )

    assert input_bytes(ops[0]) and input_bytes(ops[0]) != input_bytes(ops[1])


def test_traced_run_restores_every_wrapped_entry_point(tmp_path):
    from repro.frontend import driver
    from repro.runtime.executor import FpgaExecutor
    from repro.session import Session
    from repro.transforms import CsePass

    before = (driver.parse_source, FpgaExecutor.run, Session.program,
              "apply" in vars(CsePass))
    bench = tiny_bench("compile_dse")
    metrics = harness.measure_traced(bench, 0.01, tmp_path / "trace.json")
    assert bench.failed == 0
    after = (driver.parse_source, FpgaExecutor.run, Session.program,
             "apply" in vars(CsePass))
    assert after == before
    assert metrics["frontend.parse_ms"] > 0
    assert metrics["session.frontend_compiles"] == 1
    assert metrics["session.device_builds"] == 4
    trace = json.loads((tmp_path / "trace.json").read_text())
    names = {span[0] for span in trace["spans"]}
    assert {"frontend.parse", "transforms.cse", "verifier.verify",
            "backend.vitis", "runtime.executor", "runtime.kernel"} <= names


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0, 100, -1, None],
        ["inner", 10, 40, 0, None],
        ["inner", 50, 60, 0, None],
    ]
    inclusive, self_ns = tracer.totals_ns()
    assert inclusive == {"outer": 100, "inner": 40}
    assert self_ns == {"outer": 60, "inner": 40}
    assert tracer.nested_ns("inner", "outer") == 40


def test_outermost_time_skips_spans_nested_in_the_same_layer():
    tracer = Tracer()
    tracer.spans = [
        ["session.program", 0, 100, -1, None],
        ["session.device_build", 10, 90, 0, None],
        ["session.host_device", 200, 230, -1, None],
        ["session.frontend", 205, 215, 2, None],
    ]
    assert tracer.outermost_ns("session.") == 130


def test_pins_match_the_recorded_perf_baseline():
    pins = run.load_pins()
    compared, mismatches = pin.cross_check(
        pins, json.loads(pin.BASELINE.read_text())
    )
    assert mismatches == []
    assert compared >= 30


def test_benchmark_json_declares_the_harness_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(
        harness.PER_LAYER
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS
    )
