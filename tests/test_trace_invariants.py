"""Cross-executor trace invariants.

Both executors model the same physical story — column pages leaving
flash — so their traces must agree wherever the execution strategy
doesn't differ: a hybrid engine that offloads nothing charges exactly
the baseline's flash bytes, and page-skip accounting always partitions
a column's page span into read + skipped.
"""

import pytest

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.core.compiler import CompiledQuery, OffloadDecision
from repro.core.device import AquomanDevice
from repro.core.simulator import HybridEngine
from repro.engine import Engine
from repro.engine.morsel import MorselConfig
from repro.perf.trace import QueryTrace
from repro.storage.layout import FlashLayout


class TestChannelPagePadding:
    """Regression: meters of different widths must not lose pages."""

    def test_shorter_then_longer_accumulates_all(self):
        trace = QueryTrace()
        trace.record_channel_pages([1, 2, 3])
        trace.record_channel_pages([4, 5])          # narrower meter
        assert trace.flash_channel_pages == [5, 7, 3]
        trace.record_channel_pages([1, 1, 1, 9])    # wider meter
        assert trace.flash_channel_pages == [6, 8, 4, 9]

    def test_total_is_preserved(self):
        trace = QueryTrace()
        trace.record_channel_pages([7] * 8)
        trace.record_channel_pages([3] * 16)
        assert sum(trace.flash_channel_pages) == 7 * 8 + 3 * 16


class TestHostPathFlashAgreement:
    """A hybrid engine that offloads nothing == the baseline engine."""

    @pytest.mark.parametrize("qnum", [1, 3, 6])
    def test_flash_bytes_agree_per_column(self, tiny_db, qnum):
        plan = tpch.query(qnum)
        baseline = Engine(tiny_db)
        baseline.execute_relation(plan)

        device = AquomanDevice(tiny_db, DeviceConfig())
        trace = QueryTrace()
        # A compilation that marks every node host has no offload
        # roots, forcing every node down the host path; only the trace
        # bookkeeping differs from Engine.
        plan = tpch.query(qnum)
        all_host = CompiledQuery(
            plan, {id(node): OffloadDecision(False) for node in plan.walk()}
        )
        hybrid = HybridEngine(tiny_db, device, all_host, trace)
        hybrid.execute_relation(plan)

        assert trace.flash_read_bytes == baseline.trace.flash_read_bytes
        assert device.meters.flash_bytes == 0  # nothing ran on-device

    def test_simulator_result_matches_baseline_table(self, tiny_db):
        plan = tpch.query(6)
        expected = Engine(tiny_db).execute(plan)
        result = AquomanSimulator(tiny_db, DeviceConfig()).run(
            tpch.query(6), query="q06"
        )
        assert expected.equals(result.table.renamed("result"))


class TestPageSpanInvariant:
    """pages_read + pages_skipped must cover the column's page span."""

    @pytest.mark.parametrize("qnum", [1, 6])
    def test_morsel_accounting_partitions_span(self, small_db, qnum):
        engine = Engine(
            small_db,
            morsels=MorselConfig(parallel=True, morsel_rows=8192),
        )
        engine.execute_relation(tpch.query(qnum))
        trace = engine.trace
        assert trace.flash_pages_read, "morsel path did not run"

        layout = FlashLayout(small_db)
        for (table, column), n_read in trace.flash_pages_read.items():
            n_skipped = trace.flash_pages_skipped[(table, column)]
            extent = layout.extent(table, column)
            assert n_read + n_skipped == extent.n_pages, (
                f"{table}.{column}: {n_read} read + {n_skipped} skipped "
                f"!= {extent.n_pages} pages in extent"
            )

    def test_channel_pages_equal_pages_read(self, small_db):
        engine = Engine(
            small_db,
            morsels=MorselConfig(parallel=True, morsel_rows=8192),
        )
        engine.execute_relation(tpch.query(6))
        trace = engine.trace
        assert sum(trace.flash_channel_pages) == sum(
            trace.flash_pages_read.values()
        )
