"""Morsel streaming throughput: rows/sec vs workers and morsel size.

A Q6-class scan (selective filter + int-SUM reduction over lineitem)
through the engine's morsel path on the thread pool, swept over
``n_workers`` ∈ {1, 2, 4}, plus a morsel-size sweep at one worker.  The
NumPy kernels release the GIL but Python-level dispatch does not, so on
a 4-core host the bar is ≥2x at 4 workers; on smaller hosts (CI
containers) the assertion degrades to "parallel overhead stays
bounded".  The sweep is emitted as ``BENCH_morsel_scaling.json`` next
to the other ``BENCH_*`` artifacts.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import print_table, record_run
from repro.engine import Engine, MorselConfig
from repro.engine.morsel import MAX_FRAGMENT_MORSELS, TUNED_MORSEL_ROWS
from repro.sqlir import AggFunc, col, lit, lit_date, scan

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_morsel_scaling.json"

WORKER_SWEEP = (1, 2, 4)
MORSEL_SWEEP = (8192, 16384, 32768)
REPEATS = 3


def _q6_class_plan():
    return (
        scan("lineitem")
        .filter(
            (col("l_shipdate") >= lit_date("1994-01-01"))
            & (col("l_shipdate") < lit_date("1995-01-01"))
            & (col("l_quantity") < lit(24))
        )
        .aggregate(
            aggs=[
                ("n", AggFunc.COUNT, None),
                ("qty", AggFunc.SUM, col("l_quantity")),
            ]
        )
        .plan
    )


def _rows_per_sec(db, morsel_rows, n_workers):
    engine = Engine(
        db,
        morsels=MorselConfig(
            parallel=True,
            morsel_rows=morsel_rows,
            n_workers=n_workers,
            worker_backend="thread",
        ),
    )
    plan = _q6_class_plan()
    nrows = db.table("lineitem").nrows
    # Warm once outside the clock: starts the pool threads and faults
    # the column pages in.
    engine.execute_relation(plan)
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = engine.execute_relation(plan)
        best = min(best, time.perf_counter() - start)
    return nrows / best, result


def test_morsel_scaling(benchmark, db):
    def run():
        rates = {}
        reference = None
        for n_workers in WORKER_SWEEP:
            rate, rel = _rows_per_sec(db, 8192, n_workers)
            rates[n_workers] = rate
            if reference is None:
                reference = rel
            else:
                assert np.array_equal(
                    rel.column("qty").values,
                    reference.column("qty").values,
                )
        sizes = {
            rows: _rows_per_sec(db, rows, 1)[0] for rows in MORSEL_SWEEP
        }
        return rates, sizes

    thread, sizes = benchmark.pedantic(run, rounds=1, iterations=1)

    cpus = os.cpu_count() or 1
    print_table(
        "Morsel scaling [thread]: rows/sec vs workers (morsel_rows=8192)",
        ["workers", "M rows/s", "speedup vs 1"],
        [
            [n, f"{thread[n] / 1e6:.2f}", f"{thread[n] / thread[1]:.2f}x"]
            for n in WORKER_SWEEP
        ],
    )
    print_table(
        "Morsel scaling: rows/sec vs morsel size (1 worker)",
        ["morsel_rows", "M rows/s"],
        [[rows, f"{sizes[rows] / 1e6:.2f}"] for rows in MORSEL_SWEEP],
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "morsel_scaling",
                "query": "q6-class filter + int-SUM over lineitem",
                "lineitem_rows": db.table("lineitem").nrows,
                "cpu_count": cpus,
                "repeats_best_of": REPEATS,
                "backends": ["thread"],
                "rows_per_sec_by_workers": {
                    "thread": {str(n): thread[n] for n in WORKER_SWEEP},
                },
                "rows_per_sec_by_morsel_rows": {
                    str(r): sizes[r] for r in MORSEL_SWEEP
                },
                "speedup_4_vs_1": {"thread": thread[4] / thread[1]},
                # the retune the size sweep justifies: CLI defaults
                # moved 8192 -> 32768
                "tuned_morsel_rows": TUNED_MORSEL_ROWS,
                "max_fragment_morsels": MAX_FRAGMENT_MORSELS,
            },
            indent=2,
        )
        + "\n"
    )

    # One probe run whose trace yields the machine-independent metric
    # (scan bytes) the committed baseline can gate on; the wall-clock
    # rates ride along under noise-tolerant prefixes.
    probe = Engine(
        db,
        morsels=MorselConfig(parallel=True, morsel_rows=8192, n_workers=1),
    )
    probe.execute_relation(_q6_class_plan())
    metrics = {
        "model.flash_bytes": float(probe.trace.total_flash_bytes),
        "speedup.workers4": thread[4] / thread[1],
        "rate.rows_per_sec_w1": thread[1],
        "rate.rows_per_sec_w4": thread[4],
    }
    record_run(
        "morsel_scaling",
        metrics,
        meta={"cpu_count": cpus,
              "lineitem_rows": db.table("lineitem").nrows},
    )

    if cpus >= 4:
        assert thread[4] >= 2.0 * thread[1], (
            f"thread 4-worker speedup {thread[4] / thread[1]:.2f}x < 2x"
        )
    else:
        # Small host: four workers cannot speed this up — only check
        # the thread pool does not drown the pipeline in overhead.
        assert thread[4] >= 0.5 * thread[1], (
            f"4-worker throughput collapsed to "
            f"{thread[4] / thread[1]:.2f}x of single-worker"
        )
    # Bigger morsels amortise dispatch; the sweep must not be wildly
    # inverted (tiny morsels an order of magnitude faster is a bug).
    assert sizes[32768] >= 0.3 * sizes[8192]
