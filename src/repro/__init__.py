"""repro — a from-scratch Python reproduction of AQUOMAN (MICRO 2020).

AQUOMAN is an in-SSD analytic-query offloading machine: a fixed streaming
pipeline of three programmable accelerators (Row Selector, Row Transformer,
SQL Swissknife) that executes *Table Tasks* — static dataflow graphs of SQL
operators — directly against NAND flash, returning only reduced results to
the host.

The package is organised bottom-up:

- :mod:`repro.util`      — bit-vectors, units, deterministic RNG streams.
- :mod:`repro.storage`   — MonetDB-style columnar storage (BATs, string
  heaps, implicit RowIDs, materialised foreign-key join indices).
- :mod:`repro.flash`     — NAND flash array + controller-switch simulator.
- :mod:`repro.sqlir`     — logical query-plan IR and expression AST.
- :mod:`repro.engine`    — the software baseline: a column-at-a-time
  vectorised executor standing in for MonetDB, plus a host cost model.
- :mod:`repro.tpch`      — TPC-H dbgen and all 22 queries as plan builders.
- :mod:`repro.core`      — AQUOMAN itself: the three accelerators, the
  streaming sorter, DRAM management, the query compiler, and the
  simulator whose ``DeviceExecutor`` models each Table Task component
  by component.
- :mod:`repro.perf`      — trace records, SF scaling and the timing /
  memory models behind every figure and table of the paper's evaluation.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
