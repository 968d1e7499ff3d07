"""The device running the paper's running example (Fig. 1/Fig. 5).

Plans over the intro's ``sales_transactions`` / ``inventory`` store go
through :class:`~repro.core.AquomanSimulator`, whose ``DeviceExecutor``
runs each offloaded subtree as Table Tasks on the device's component
models; the assertions read those models' meters.
"""

import numpy as np
import pytest

from repro.core import AquomanDevice, AquomanSimulator, DeviceConfig
from repro.engine import Engine
from repro.sqlir import AggFunc, JoinKind, col, lit, lit_date, scan
from repro.storage import Catalog, Column, Table
from repro.storage.types import DECIMAL, INT64, date_to_days


@pytest.fixture()
def store_db():
    """The paper's running example: sales_transactions + inventory."""
    cat = Catalog()
    cat.add_table(
        Table(
            "inventory",
            [
                Column("invt_id", INT64, np.arange(1, 7, dtype=np.int64)),
                Column.strings(
                    "category",
                    ["Shoes", "Hats", "Shoes", "Bags", "Shoes", "Hats"],
                ),
            ],
        ),
        primary_key="invt_id",
    )
    cat.add_table(
        Table(
            "sales_transactions",
            [
                Column("txn_id", INT64, np.arange(8, dtype=np.int64)),
                Column("s_invt_id", INT64,
                       np.array([1, 2, 3, 4, 5, 1, 3, 6])),
                Column.from_logical(
                    "price", DECIMAL,
                    [10.0, 5.0, 20.0, 8.0, 12.0, 11.0, 21.0, 6.0],
                ),
                Column(
                    "saledate",
                    INT64,
                    np.array(
                        [
                            date_to_days(d)
                            for d in (
                                "2018-01-10", "2018-02-10", "2018-03-20",
                                "2018-04-10", "2018-05-10", "2018-02-01",
                                "2018-06-10", "2018-03-16",
                            )
                        ]
                    ),
                ),
            ],
        ),
    )
    return cat


def simulate(catalog, builder):
    """Run a plan on the simulator, checked against the host engine."""
    plan = builder.plan
    result = AquomanSimulator(catalog, DeviceConfig()).run(plan)
    assert Engine(catalog).execute(plan).equals(
        result.table.renamed("result")
    )
    assert result.trace.offload_fraction_rows == 1.0
    return result


def late_sales():
    return scan("sales_transactions").filter(
        col("saledate") > lit_date("2018-03-15")
    )


def shoes():
    return scan("inventory").filter(col("category") == lit("Shoes"))


class TestSingleTableTask:
    def test_filter_transform_aggregate(self, store_db):
        """The Fig. 1 aggregate query as one Table Task."""
        result = simulate(
            store_db,
            late_sales().aggregate(
                aggs=[("total", AggFunc.SUM, col("price"))]
            ),
        )
        # Included: 20 + 8 + 12 + 21 + 6 = 67.
        assert result.table.column("total").logical() == [67.0]
        device = result.device
        assert device.row_selector.rows_scanned == 8
        assert device.meters.rows_selected == 5
        assert device.meters.flash_bytes > 0

    def test_groupby_task(self, store_db):
        result = simulate(
            store_db,
            scan("sales_transactions").aggregate(
                keys=("s_invt_id",),
                aggs=[("total", AggFunc.SUM, col("price"))],
            ),
        )
        got = dict(
            zip(
                result.table.column("s_invt_id").logical(),
                result.table.column("total").logical(),
            )
        )
        assert got[1] == 21.0  # 10.0 + 11.0
        assert got[3] == 41.0
        assert result.device.meters.spilled_groups == 0

    def test_transform_runs_on_pes(self, store_db):
        result = simulate(
            store_db,
            scan("sales_transactions")
            .project(net=col("price") * (1 - lit(0.5)))
            .aggregate(aggs=[("net", AggFunc.SUM, col("net"))]),
        )
        assert result.table.column("net").logical() == [46.5]
        assert result.device.meters.rows_transformed == 8
        assert result.device.meters.pe_fallback_exprs == 0  # pure PE path

    def test_regex_prelowering(self, store_db):
        result = simulate(
            store_db,
            shoes().aggregate(aggs=[("n", AggFunc.COUNT, None)]),
        )
        assert result.table.column("n").logical() == [3]
        # The small-domain category heap fits the regex cache: the
        # string predicate became a one-bit column on the device.
        assert result.device.regex_accel.rows_evaluated == 6
        assert result.device.meters.pe_fallback_exprs == 0


class TestJoinTaskChain:
    def test_fig5_join_pipeline(self, store_db):
        """The paper's Fig. 5: shoe sales after a date, joined on-device."""
        result = simulate(
            store_db,
            late_sales()
            .join(shoes(), "s_invt_id", "invt_id")
            .aggregate(aggs=[("total", AggFunc.SUM, col("price"))]),
        )
        # Late shoe sales: items 3, 5, 3 -> 20 + 12 + 21.
        assert result.table.column("total").logical() == [53.0]
        assert result.device.meters.sorter_bytes > 0

    def test_mask_src_from_dram(self, store_db):
        """A semi-join: the DRAM-resident shoe ids mask the sales scan."""
        result = simulate(
            store_db,
            scan("sales_transactions")
            .join(shoes(), "s_invt_id", "invt_id", kind=JoinKind.SEMI)
            .aggregate(aggs=[("total", AggFunc.SUM, col("price"))]),
        )
        # Shoe items 1, 3, 5: 10 + 20 + 12 + 11 + 21.
        assert result.table.column("total").logical() == [74.0]
        assert result.device.memory.peak_effective > 0

    def test_memory_lifecycle(self, store_db):
        result = simulate(
            store_db,
            late_sales()
            .join(shoes(), "s_invt_id", "invt_id")
            .aggregate(aggs=[("total", AggFunc.SUM, col("price"))]),
        )
        memory = result.device.memory
        # The join build side and its RowID pairs lived in DRAM and
        # were freed when the subtree finished.
        assert memory.peak_effective > 0
        assert memory.allocations == []
        assert memory.used_effective == 0


class TestTrafficAccounting:
    def test_unmasked_read_charges_whole_column(self, store_db):
        device = AquomanDevice(store_db)
        nbytes = device.charge_column_read("sales_transactions", "price")
        assert nbytes == 8192  # one 8 KB page

    def test_masked_read_skips_pages(self, small_db):
        from repro.util.bitvector import BitVector

        device = AquomanDevice(small_db)
        extent = device.layout.extent("lineitem", "l_orderkey")
        # Selecting one row touches exactly one page.
        mask = BitVector.from_indices([0], extent.nrows)
        assert device.charge_column_read(
            "lineitem", "l_orderkey", mask
        ) == 8192
        full = device.charge_column_read("lineitem", "l_orderkey")
        assert full == extent.n_pages * 8192

    def test_effective_heap_scaling(self, small_db):
        cfg = DeviceConfig(scale_ratio=1000.0)
        device = AquomanDevice(small_db, cfg)
        comments = small_db.table("orders").column("o_comment").heap
        modes = small_db.table("lineitem").column("l_shipmode").heap
        assert device.effective_heap_bytes(comments) > comments.heap_bytes
        assert device.effective_heap_bytes(modes) == modes.heap_bytes
