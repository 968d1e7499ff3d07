"""The AQUOMAN simulator: functional equivalence and trace behaviour.

The central correctness property of the whole reproduction: for every
TPC-H query, hybrid device+host execution returns *bit-identical*
results to the pure-software baseline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tpch
from repro.core import AquomanSimulator, DeviceConfig
from repro.core.compiler import SuspendReason
from repro.core.device import AquomanDevice
from repro.core.simulator import DeviceExecutor, _DeviceRel
from repro.engine import Engine
from repro.engine.morsel import MorselConfig
from repro.engine.relation import Relation
from repro.perf.trace import QueryTrace
from repro.sqlir import AggFunc, col, lit_date, scan
from repro.storage.layout import PAGE_BYTES
from repro.util.units import GB, MB

SF1000_RATIO = 1000 / 0.01


@pytest.fixture(scope="module")
def config():
    return DeviceConfig(dram_bytes=40 * GB, scale_ratio=SF1000_RATIO)


class TestEquivalence:
    @pytest.mark.parametrize("number", tpch.ALL_QUERIES)
    def test_query_matches_baseline(self, small_db, config, number):
        baseline = Engine(small_db).execute(tpch.query(number))
        result = AquomanSimulator(small_db, config).run(
            tpch.query(number), query=f"q{number:02d}"
        )
        assert baseline.equals(result.table.renamed("result")), (
            f"q{number:02d} diverged from the software baseline"
        )


class TestOffloadBehaviour:
    def test_q6_fully_offloaded(self, small_db, config):
        result = AquomanSimulator(small_db, config).run(
            tpch.query(6), query="q06"
        )
        trace = result.trace
        assert trace.offload_fraction_rows > 0.99
        assert trace.aquoman_flash_bytes > 0
        assert not trace.suspended

    def test_filters_run_on_the_row_selector(self, small_db, config):
        # The device's Row Selector evaluates the CP terms, so its
        # counters (Fig. 17's selector stage) see every scanned row.
        result = AquomanSimulator(small_db, config).run(
            tpch.query(6), query="q06"
        )
        selector = result.device.row_selector
        assert selector.rows_scanned == small_db.table("lineitem").nrows
        assert selector.masks_produced > 0

    def test_q9_stays_on_host(self, small_db, config):
        result = AquomanSimulator(small_db, config).run(
            tpch.query(9), query="q09"
        )
        assert result.trace.offload_fraction_rows < 0.1
        assert SuspendReason.STRING_HEAP in result.suspend_reasons

    def test_q18_device_assisted_aggregate(self, small_db, config):
        result = AquomanSimulator(small_db, config).run(
            tpch.query(18), query="q18"
        )
        assisted = [op for op in result.trace.ops if op.assisted]
        assert assisted, "the mid-plan group-by should be device-assisted"
        assert result.trace.aquoman_flash_bytes > 0
        assert result.trace.groupby_spill_groups > 0

    def test_q21_dram_usage_between_16_and_40gb(self, small_db, config):
        result = AquomanSimulator(small_db, config).run(
            tpch.query(21), query="q21"
        )
        scaled_peak = (
            result.trace.aquoman_dram_peak_bytes * SF1000_RATIO
        )
        assert 16 * GB < scaled_peak <= 40 * GB

    def test_q21_suspends_at_16gb(self, small_db):
        cfg16 = DeviceConfig(dram_bytes=16 * GB, scale_ratio=SF1000_RATIO)
        result = AquomanSimulator(small_db, cfg16).run(
            tpch.query(21), query="q21"
        )
        assert SuspendReason.DRAM_EXCEEDED in result.suspend_reasons
        baseline = Engine(small_db).execute(tpch.query(21))
        assert baseline.equals(result.table.renamed("result"))

    def test_fourteen_ish_queries_mostly_offloaded(self, small_db, config):
        high = 0
        for n in tpch.ALL_QUERIES:
            result = AquomanSimulator(small_db, config).run(
                tpch.query(n), query=f"q{n:02d}"
            )
            if result.trace.offload_fraction_rows > 0.9:
                high += 1
        assert 12 <= high <= 17  # the paper offloads 14 of 22 fully

    def test_page_skipping_reduces_traffic(self, small_db, config):
        # A selective filter must stream fewer bytes than a full scan of
        # the projected column.
        selective = (
            scan("lineitem", ("l_shipdate", "l_extendedprice"))
            .filter(col("l_shipdate") == lit_date("1994-01-01"))
            .project(v=col("l_extendedprice"))
            .aggregate(aggs=[("s", AggFunc.SUM, col("v"))])
            .plan
        )
        broad = (
            scan("lineitem", ("l_shipdate", "l_extendedprice"))
            .filter(col("l_shipdate") >= lit_date("1900-01-01"))
            .project(v=col("l_extendedprice"))
            .aggregate(aggs=[("s", AggFunc.SUM, col("v"))])
            .plan
        )
        sim = AquomanSimulator(small_db, config)
        t_selective = sim.run(selective).trace.aquoman_flash_bytes
        t_broad = AquomanSimulator(small_db, config).run(
            broad
        ).trace.aquoman_flash_bytes
        assert t_selective < t_broad

    def test_join_index_shortcut_avoids_dram(self, small_db, config):
        # Q12's lineitem -> orders join rides the FK join index.
        result = AquomanSimulator(small_db, config).run(
            tpch.query(12), query="q12"
        )
        assert result.trace.aquoman_dram_peak_bytes == 0
        assert result.trace.offload_fraction_rows > 0.95

    def test_bare_scan_not_offloaded(self, small_db, config):
        plan = scan("lineitem", ("l_orderkey",)).plan
        result = AquomanSimulator(small_db, config).run(plan)
        assert result.trace.aquoman_flash_bytes == 0

    def test_trace_scale_factor_recorded(self, small_db, config):
        result = AquomanSimulator(small_db, config).run(tpch.query(6))
        assert result.trace.scale_factor == small_db.scale_factor


class TestSuspensionRollback:
    def test_tiny_dram_suspends_but_stays_correct(self, small_db):
        cfg = DeviceConfig(dram_bytes=1 * MB, scale_ratio=SF1000_RATIO)
        for n in (3, 5, 10):
            baseline = Engine(small_db).execute(tpch.query(n))
            result = AquomanSimulator(small_db, cfg).run(
                tpch.query(n), query=f"q{n:02d}"
            )
            assert baseline.equals(result.table.renamed("result"))

    def test_rollback_restores_meters(self, small_db):
        cfg = DeviceConfig(dram_bytes=1 * MB, scale_ratio=SF1000_RATIO)
        result = AquomanSimulator(small_db, cfg).run(
            tpch.query(5), query="q05"
        )
        # The suspended join subtree re-ran on the host: its flash
        # traffic must appear in host reads, not double-billed.
        assert SuspendReason.DRAM_EXCEEDED in result.suspend_reasons
        assert result.trace.total_flash_bytes > 0


class TestMeteringInvariance:
    """Page metering depends on the set of row ids, not their order."""

    @staticmethod
    def _charged(db, rowids):
        executor = DeviceExecutor(AquomanDevice(db), scalar_executor=None)
        dev = _DeviceRel(
            relation=Relation({}),
            rowid_map={"lineitem": rowids},
            origin={"v": ("lineitem", "l_extendedprice")},
            charged=set(),
        )
        executor._consume(dev, "v")
        return executor.device.meters.flash_bytes

    @settings(max_examples=40, deadline=None)
    @given(
        # tiny_db holds ~6k lineitems: every id is in range, and 80 ids
        # never cover the whole table (which would charge it unmasked).
        ids=st.lists(st.integers(0, 5_000), min_size=1, max_size=80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_consume_ignores_order_and_duplicates(self, tiny_db, ids, seed):
        ids = np.array(ids, dtype=np.int64)
        unique = np.unique(ids)
        shuffled = np.random.default_rng(seed).permutation(
            np.concatenate([ids, ids[::2]])
        )
        per_page = AquomanDevice(tiny_db).layout.extent(
            "lineitem", "l_extendedprice"
        ).rows_per_page()
        expected = len(np.unique(unique // per_page)) * PAGE_BYTES
        assert self._charged(tiny_db, unique) == expected
        assert self._charged(tiny_db, shuffled) == expected


# Per-query modeled flash bytes on the ``small_db`` catalog (SF 0.01,
# default seed).  They depend only on which pages the row ids touch, so
# a wrong row-id -> page mask fails here by query name.
SIM_FLASH_BYTES = {
    1: 2670592, 2: 458752, 3: 1966080, 4: 1228800, 5: 1687552,
    6: 1695744, 7: 1671168, 8: 1523712, 9: 40960, 10: 2039808,
    11: 393216, 12: 1654784, 13: 0, 14: 1712128, 15: 1458176,
    16: 32768, 17: 991232, 18: 966656, 19: 1507328, 20: 1269760,
    21: 3399680, 22: 0,
}
MORSEL_FLASH_BYTES = {
    1: 2634280, 2: 295080, 3: 1988360, 4: 1197920, 5: 1929500,
    6: 1676360, 7: 2109040, 8: 2185080, 9: 2719800, 10: 1964560,
    11: 322000, 12: 1616880, 13: 246000, 14: 1452880, 15: 2875360,
    16: 96800, 17: 1939840, 18: 2287840, 19: 2187320, 20: 1311200,
    21: 3294640, 22: 108000,
}


class TestMeteringPins:
    @pytest.mark.parametrize("number", tpch.ALL_QUERIES)
    def test_simulator_flash_bytes(self, small_db, config, number):
        result = AquomanSimulator(small_db, config).run(
            tpch.query(number), query=f"q{number:02d}"
        )
        assert result.trace.aquoman_flash_bytes == SIM_FLASH_BYTES[number]

    @pytest.mark.parametrize("number", tpch.ALL_QUERIES)
    def test_morsel_flash_bytes(self, small_db, number):
        trace = QueryTrace()
        Engine(
            small_db, trace, morsels=MorselConfig(n_workers=2)
        ).execute_relation(tpch.query(number))
        assert trace.total_flash_bytes == MORSEL_FLASH_BYTES[number]
