"""Parallel + resumable DSE: deterministic ordering, restart safety."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.dse import DseResultStore, explore_workload
from repro.reliability import DataIntegrityError

FACTORS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def serial_result():
    return explore_workload("saxpy", simdlen_factors=FACTORS)


def test_parallel_sweep_table_identical_to_serial(serial_result):
    """The ordering bugfix pin: worker completion order must never
    reorder rows or change any value."""
    parallel = explore_workload(
        "saxpy", simdlen_factors=FACTORS, workers=2
    )
    assert parallel.table() == serial_result.table()
    assert parallel.best.simdlen == serial_result.best.simdlen
    assert [
        (p.simdlen, p.reduction_copies) for p in parallel.points
    ] == [(f, 8) for f in FACTORS]


def test_parallel_keep_programs_returns_runnable_programs():
    result = explore_workload(
        "saxpy", simdlen_factors=(1, 4), workers=2, keep_programs=True
    )
    for point in result.points:
        assert point.program is not None
        assert point.program.bitstream is not None


def test_session_with_workers_is_rejected():
    from repro.session import Session
    from repro.workloads import get_workload

    workload = get_workload("saxpy")
    with pytest.raises(ValueError, match="cannot be combined"):
        explore_workload(
            workload,
            simdlen_factors=(1,),
            workers=2,
            session=Session(workload.source),
        )


# -- resumable result store --------------------------------------------------


def test_resumed_sweep_skips_completed_points(tmp_path, serial_result):
    store = DseResultStore(tmp_path)
    explore_workload(
        "saxpy", simdlen_factors=FACTORS[:2], result_store=store
    )
    assert store.saves == 2
    resumed_store = DseResultStore(tmp_path)
    full = explore_workload(
        "saxpy", simdlen_factors=FACTORS, result_store=resumed_store
    )
    assert resumed_store.loads == 2
    assert resumed_store.saves == 2
    assert full.table() == serial_result.table()


def test_completed_sweep_is_served_entirely_from_store(
    tmp_path, serial_result
):
    store = DseResultStore(tmp_path)
    explore_workload("saxpy", simdlen_factors=FACTORS, result_store=store)
    replay_store = DseResultStore(tmp_path)
    replay = explore_workload(
        "saxpy", simdlen_factors=FACTORS, result_store=replay_store
    )
    assert replay_store.loads == len(FACTORS)
    assert replay_store.saves == 0
    assert replay.table() == serial_result.table()
    # nothing was compiled: no session was ever created
    assert replay.session is None


def test_store_counters_reset_per_sweep(tmp_path):
    """``loads``/``saves`` count the last sweep only: a reused store
    whose second sweep is served wholly from disk reads 2 loads and 0
    saves, not the running totals."""
    store = DseResultStore(tmp_path)
    explore_workload("saxpy", simdlen_factors=FACTORS[:2], result_store=store)
    assert (store.loads, store.saves) == (0, 2)
    explore_workload("saxpy", simdlen_factors=FACTORS[:2], result_store=store)
    assert (store.loads, store.saves) == (2, 0)


def test_corrupt_record_raises_data_integrity_error(tmp_path):
    store = DseResultStore(tmp_path)
    explore_workload("saxpy", simdlen_factors=(1,), result_store=store)
    record = next(tmp_path.glob("*.json"))
    record.write_text("{truncated")
    with pytest.raises(DataIntegrityError, match="unreadable record"):
        explore_workload(
            "saxpy", simdlen_factors=(1,), result_store=DseResultStore(
                tmp_path
            )
        )


_KILLED_SWEEP = """
import os, sys
from repro.dse import DseResultStore, explore_workload
from repro.workloads import get_workload

store = DseResultStore(sys.argv[1])
workload = get_workload("saxpy")
inner = workload.evaluator()
budget = int(sys.argv[2])
evaluated = 0

def evaluate(program):
    global evaluated
    if evaluated >= budget:
        os._exit(42)  # simulate a kill mid-sweep, no cleanup
    evaluated += 1
    return inner(program)

from repro.dse import explore
explore(
    workload.source, evaluate,
    simdlen_factors=(1, 2, 4, 8), result_store=store,
)
"""


@pytest.mark.slow
def test_killed_and_restarted_sweep_is_bit_identical(
    tmp_path, serial_result
):
    """The acceptance bar: kill a sweep after two points, restart with
    the same store — it completes without re-evaluating finished points
    and produces a table bit-identical to an uninterrupted run."""
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_SWEEP, str(tmp_path), "2"],
        cwd=Path(__file__).resolve().parents[2],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 42, proc.stderr
    assert len(DseResultStore(tmp_path)) == 2
    store = DseResultStore(tmp_path)
    resumed = explore_workload(
        "saxpy", simdlen_factors=FACTORS, result_store=store
    )
    assert store.loads == 2, "finished points were re-evaluated"
    assert store.saves == 2
    assert resumed.table() == serial_result.table()
