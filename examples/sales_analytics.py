"""The paper's running example, run through the AQUOMAN simulator.

Builds the intro's ``sales_transactions`` / ``inventory`` store
(Sec. III), then runs:

1. the Fig. 1 aggregate query — net sale and revenue per department
   before a date — whose filter, arithmetic and group-by the device
   runs as one Table Task: Row Selector, PE systolic array,
   Aggregate-GroupBy;
2. the Fig. 4/Fig. 5 join query — total shoe sales after a date —
   whose two filtered scans meet in a sort-merge join through device
   DRAM, as the paper's ``tabletask_0/1/2`` chain does.

Each plan is checked against the host engine's result.

    python examples/sales_analytics.py
"""

import numpy as np

from repro.core import AquomanSimulator, DeviceConfig
from repro.engine import Engine
from repro.sqlir import AggFunc, col, lit, lit_date, scan
from repro.storage import Catalog, Column, Table
from repro.storage.types import DECIMAL, INT64, date_to_days
from repro.util.rng import RngStream
from repro.util.units import fmt_bytes


def build_store(n_items: int = 200, n_sales: int = 5000) -> Catalog:
    """A synthetic store in the paper's schema."""
    rng = RngStream(7, "store")
    categories = ["Shoes", "Hats", "Bags", "Coats", "Socks"]

    catalog = Catalog()
    catalog.add_table(
        Table(
            "inventory",
            [
                Column(
                    "invt_id", INT64,
                    np.arange(1, n_items + 1, dtype=np.int64),
                ),
                Column.strings(
                    "category",
                    [
                        categories[i]
                        for i in rng.child("cat").integers(
                            0, len(categories) - 1, size=n_items
                        )
                    ],
                ),
            ],
        ),
        primary_key="invt_id",
    )

    sale_rng = rng.child("sales")
    start = date_to_days("2018-01-01")
    catalog.add_table(
        Table(
            "sales_transactions",
            [
                Column(
                    "txn_id", INT64, np.arange(n_sales, dtype=np.int64)
                ),
                Column(
                    "invt_id", INT64,
                    sale_rng.child("item").integers(
                        1, n_items, size=n_sales
                    ).astype(np.int64),
                ),
                Column.strings(
                    "department",
                    [
                        ["mens", "womens", "kids"][i]
                        for i in sale_rng.child("dept").integers(
                            0, 2, size=n_sales
                        )
                    ],
                ),
                Column(
                    "saledate", INT64,
                    (start + sale_rng.child("day").integers(
                        0, 364, size=n_sales
                    )).astype(np.int64),
                ),
                Column(
                    "price", DECIMAL,
                    sale_rng.child("price").integers(
                        500, 20000, size=n_sales
                    ),
                ),
                Column(
                    "discount", DECIMAL,
                    sale_rng.child("disc").integers(0, 30, size=n_sales),
                ),
                Column(
                    "tax", DECIMAL,
                    sale_rng.child("tax").integers(0, 10, size=n_sales),
                ),
            ],
        ),
    )
    return catalog


def fig1_aggregate_query():
    """Net sale and revenue per department before 2018-12-01 (Fig. 1)."""
    netsale = col("price") * (1 - col("discount"))
    return (
        scan("sales_transactions")
        .filter(col("saledate") <= lit_date("2018-12-01"))
        .project(
            department=col("department"),
            netsale=netsale,
            revenue=netsale * (1 + col("tax")),
        )
        .aggregate(
            keys=("department",),
            aggs=[
                ("netsale", AggFunc.SUM, col("netsale")),
                ("revenue", AggFunc.SUM, col("revenue")),
            ],
        )
        .plan
    )


def fig5_join_query():
    """Total shoe sales after 2018-03-15 (Fig. 4/Fig. 5)."""
    shoes = (
        scan("inventory")
        .filter(col("category") == lit("Shoes"))
        .project(shoe_id=col("invt_id"))
    )
    return (
        scan("sales_transactions")
        .filter(col("saledate") > lit_date("2018-03-15"))
        .join(shoes, "invt_id", "shoe_id")
        .aggregate(aggs=[("shoe_sales", AggFunc.SUM, col("price"))])
        .plan
    )


def run(catalog: Catalog, title: str, plan) -> None:
    print(title)
    result = AquomanSimulator(catalog, DeviceConfig()).run(plan)
    baseline = Engine(catalog).execute(plan)
    assert baseline.equals(result.table.renamed("result")), title
    print(result.table.head())
    trace, device = result.trace, result.device
    print("  matches host engine : yes")
    print(f"  rows on device      : {trace.offload_fraction_rows:.0%}")
    print(f"  flash streamed      : {fmt_bytes(trace.aquoman_flash_bytes)}")
    print(f"  rows transformed    : {device.meters.rows_transformed}")
    print(f"  sorter traffic      : {trace.aquoman_sorter_bytes} bytes")
    print(f"  device DRAM peak    : "
          f"{fmt_bytes(trace.aquoman_dram_peak_bytes)}\n")


def main() -> None:
    catalog = build_store()
    run(catalog, "Fig. 1 — aggregate query", fig1_aggregate_query())
    run(catalog, "Fig. 5 — join query", fig5_join_query())


if __name__ == "__main__":
    main()
