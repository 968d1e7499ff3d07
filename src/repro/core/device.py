"""The AQUOMAN device: flash + the three accelerators + DRAM.

Holds the component models that
:class:`~repro.core.simulator.DeviceExecutor` drives when it runs an
offloaded subtree as the paper's Table Tasks (Sec. V/VI): the Row
Selector's predicate evaluators, the Table Reader's page-skip flash
metering, the PE array behind :meth:`AquomanDevice._transform` (with
string predicates pre-lowered by the regex accelerator), the
Aggregate-GroupBy hash model and the device DRAM manager.

Flash traffic, sorter traffic, DRAM residency and group-by spills are
all metered; the simulator turns those meters into run times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataflow import (
    UnsupportedTransform,
    build_transform_graph,
)
from repro.core.memory import DeviceMemory
from repro.core.regex_accel import RegexAccelerator
from repro.core.row_selector import RowSelector
from repro.core.swissknife.groupby import AggregateGroupBy
from repro.engine.relation import Relation
from repro.faults.injector import get_fault_injector
from repro.flash.nand import FlashConfig
from repro.obs import METRICS, NULL_TRACER, NullTracer, Tracer
from repro.sqlir.expr import (
    EvalContext,
    Expr,
    InList,
    Kind,
    Like,
    TypedArray,
    evaluate,
)
from repro.storage.catalog import Catalog
from repro.storage.layout import PAGE_BYTES, FlashLayout
from repro.util.bitvector import BitVector
from repro.util.units import GB


@dataclass(frozen=True)
class DeviceConfig:
    """Hardware parameters of one AQUOMAN SSD."""

    dram_bytes: int = 40 * GB
    n_pes: int = 4
    n_predicate_evaluators: int = 4
    pe_imem_size: int | None = None  # None = "as big as needed" (Sec. VII)
    scale_ratio: float = 1.0         # simulated SF / data SF
    flash: FlashConfig = field(default_factory=FlashConfig)


@dataclass
class DeviceMeters:
    """Cumulative device activity for the performance model."""

    flash_bytes: int = 0
    sorter_bytes: int = 0
    output_bytes: int = 0
    rows_selected: int = 0
    rows_transformed: int = 0
    spilled_groups: int = 0
    pe_fallback_exprs: int = 0  # transforms evaluated off the PE path
    fault_stall_s: float = 0.0  # injected stalls on the critical channel


class AquomanDevice:
    """One AQUOMAN-augmented SSD holding a catalog's column files."""

    def __init__(
        self,
        catalog: Catalog,
        config: DeviceConfig | None = None,
        tracer: Tracer | NullTracer | None = None,
    ):
        self.catalog = catalog
        self.config = config or DeviceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.layout = FlashLayout(catalog)
        self.memory = DeviceMemory(
            capacity_bytes=self.config.dram_bytes,
            scale_ratio=self.config.scale_ratio,
        )
        self.row_selector = RowSelector(self.config.n_predicate_evaluators)
        self.regex_accel = RegexAccelerator()
        self.groupby_accel = AggregateGroupBy()
        self.meters = DeviceMeters()

    # -- flash traffic ---------------------------------------------------------

    def charge_column_read(
        self, table: str, column: str, mask: BitVector | None = None
    ) -> int:
        """Meter reading one column, with page skipping under a mask.

        The Table Reader skips a flash page when every row vector on it
        is masked out (Sec. VI-B); an unmasked read streams the whole
        column file.
        """
        extent = self.layout.extent(table, column)
        if mask is None:
            touched = extent.n_pages
            touched_pages = None  # the whole extent
        else:
            per_page = extent.rows_per_page()
            touched_pages = mask.group_any(per_page)
            touched = int(touched_pages.sum())
        nbytes = touched * PAGE_BYTES
        self.meters.flash_bytes += nbytes
        self._inject_page_faults(extent, touched_pages, touched)
        METRICS.counter(
            "device.flash_pages_read", "pages streamed off flash"
        ).inc(touched)
        METRICS.counter(
            "device.flash_pages_skipped",
            "fully-masked pages the Table Reader skipped",
        ).inc(extent.n_pages - touched)
        return nbytes

    def _inject_page_faults(self, extent, touched_pages, touched) -> None:
        """Consult the fault injector for the pages just charged.

        Channels stream in parallel, so the batch's marginal wall time
        is the worst single channel's stall (retry backoff + spikes);
        an unrecoverable page propagates out of the injector.
        """
        injector = get_fault_injector()
        if not injector.enabled or not touched:
            return
        local = (
            np.arange(extent.n_pages, dtype=np.int64)
            if touched_pages is None
            else np.flatnonzero(touched_pages)
        )
        stall = injector.charge_page_reads(
            extent.first_page + local, self.config.flash.n_channels
        )
        if stall is not None:
            self.meters.fault_stall_s += float(stall.max())

    def effective_heap_bytes(self, heap) -> int:
        """Heap size at the simulated scale (for the 1 MB cache rule)."""
        table_name, base_rows = _heap_base(self.catalog, heap)
        constant = table_name in self.catalog.constant_tables
        return effective_heap_bytes(
            heap, base_rows, self.config.scale_ratio, constant=constant
        )

    # -- row transformer ------------------------------------------------------

    def _transform(
        self,
        row_transf: tuple[tuple[str, Expr], ...],
        columns: dict[str, TypedArray],
        nrows: int,
        subquery_executor=None,
    ) -> Relation:
        """Apply the transform: PE array where possible, else fallback.

        String predicates are pre-lowered through the regex accelerator
        into one-bit columns (as the Table Reader does); pure renames
        of string/rowid columns pass through; integer arithmetic runs
        on compiled PE programs and is the metered common case.
        """
        lowered, prepped = self._prelower_strings(row_transf, columns)

        pe_outputs: list[tuple[str, Expr]] = []
        passthrough: dict[str, TypedArray] = {}
        fallback: list[tuple[str, Expr]] = []
        from repro.sqlir.expr import ColumnRef

        for name, expr in lowered:
            if isinstance(expr, ColumnRef):
                passthrough[name] = prepped[expr.name]
                continue
            pe_outputs.append((name, expr))

        computed: dict[str, TypedArray] = {}
        if pe_outputs:
            scales = {
                n: (arr.scale if arr.kind is Kind.INT else 0)
                for n, arr in prepped.items()
            }
            try:
                graph = build_transform_graph(
                    pe_outputs, input_scales=scales,
                    imem_size=self.config.pe_imem_size,
                )
                raw = {
                    n: prepped[n].values for n in graph.input_order
                }
                results = graph.execute(raw)
                for (name, _), values, scale in zip(
                    pe_outputs, results, graph.output_scales
                ):
                    computed[name] = TypedArray(values, Kind.INT, scale)
            except UnsupportedTransform:
                fallback = pe_outputs
        if fallback:
            self.meters.pe_fallback_exprs += len(fallback)
            ctx = EvalContext(
                columns=prepped,
                nrows=nrows,
                subquery_executor=subquery_executor,
            )
            for name, expr in fallback:
                computed[name] = evaluate(expr, ctx)

        ordered: dict[str, TypedArray] = {}
        for name, _ in row_transf:
            ordered[name] = (
                passthrough[name] if name in passthrough else computed[name]
            )
        return Relation(ordered)

    def _prelower_strings(
        self,
        row_transf: tuple[tuple[str, Expr], ...],
        columns: dict[str, TypedArray],
    ) -> tuple[list[tuple[str, Expr]], dict[str, TypedArray]]:
        """Replace string predicates with regex-accelerator bit columns."""
        from repro.sqlir.expr import ColumnRef, Compare, CompareOp, Literal

        prepped = dict(columns)
        counter = 0

        def lower(expr: Expr) -> Expr:
            nonlocal counter
            if isinstance(expr, Like) and isinstance(expr.column, ColumnRef):
                source = prepped[expr.column.name]
                bits = self.regex_accel.match_like(
                    source.values,
                    source.heap,
                    expr.regex(),
                    expr.negated,
                    self.effective_heap_bytes(source.heap),
                )
                counter += 1
                name = f"@regex{counter}"
                prepped[name] = TypedArray(
                    bits.astype(np.int64), Kind.INT, 0
                )
                return ColumnRef(name)
            if isinstance(expr, InList) and isinstance(
                expr.column, ColumnRef
            ):
                source = prepped[expr.column.name]
                if source.kind is Kind.STR:
                    bits = self.regex_accel.match_in(
                        source.values,
                        source.heap,
                        expr.options,
                        expr.negated,
                        self.effective_heap_bytes(source.heap),
                    )
                    counter += 1
                    name = f"@regex{counter}"
                    prepped[name] = TypedArray(
                        bits.astype(np.int64), Kind.INT, 0
                    )
                    return ColumnRef(name)
                return expr
            if isinstance(expr, Compare):
                for col_side, lit_side, negated in (
                    (expr.left, expr.right, expr.op is CompareOp.NE),
                    (expr.right, expr.left, expr.op is CompareOp.NE),
                ):
                    if (
                        isinstance(col_side, ColumnRef)
                        and isinstance(lit_side, Literal)
                        and lit_side.kind is Kind.STR
                        and expr.op in (CompareOp.EQ, CompareOp.NE)
                    ):
                        source = prepped[col_side.name]
                        bits = self.regex_accel.match_equals(
                            source.values,
                            source.heap,
                            lit_side.raw,
                            negated,
                            self.effective_heap_bytes(source.heap),
                        )
                        counter += 1
                        name = f"@regex{counter}"
                        prepped[name] = TypedArray(
                            bits.astype(np.int64), Kind.INT, 0
                        )
                        return ColumnRef(name)
                return _rebuild(expr, [lower(c) for c in expr.children()])
            kids = expr.children()
            if not kids:
                return expr
            return _rebuild(expr, [lower(c) for c in kids])

        return (
            [(name, lower(expr)) for name, expr in row_transf],
            prepped,
        )


def effective_heap_bytes(
    heap, base_rows: int, scale_ratio: float, constant: bool = False
) -> int:
    """Heap size at the simulated scale factor.

    Constant tables (nation, region) never grow.  Elsewhere,
    enumerated domains (ship modes, brands, part types...) have heaps
    that do not grow with SF while free-text heaps grow linearly; the
    signature of a fixed domain is a distinct count far below the
    column's row count (and absolutely small).
    """
    if constant:
        return heap.heap_bytes
    fixed_domain = heap.unique_count <= min(1024, max(1, base_rows // 10))
    if fixed_domain:
        return heap.heap_bytes
    return int(heap.heap_bytes * scale_ratio)


def _heap_base(catalog: Catalog, heap) -> tuple[str | None, int]:
    """(table, row count) of the base column owning ``heap``."""
    for table in catalog.tables.values():
        for column in table.columns:
            if column.heap is heap:
                return table.name, table.nrows
    return None, heap.unique_count


def _rebuild(expr: Expr, children: list[Expr]) -> Expr:
    """Clone an expression node with replaced children."""
    from repro.sqlir.expr import (
        Arith,
        BoolExpr,
        CaseWhen,
        Compare,
        ExtractYear,
        Substring,
    )

    if isinstance(expr, Arith):
        return Arith(expr.op, children[0], children[1])
    if isinstance(expr, Compare):
        return Compare(expr.op, children[0], children[1])
    if isinstance(expr, BoolExpr):
        return BoolExpr(expr.op, tuple(children))
    if isinstance(expr, CaseWhen):
        return CaseWhen(children[0], children[1], children[2])
    if isinstance(expr, ExtractYear):
        return ExtractYear(children[0])
    if isinstance(expr, Substring):
        return Substring(children[0], expr.start, expr.length)
    if isinstance(expr, Like):
        return Like(children[0], expr.pattern, expr.negated)
    if isinstance(expr, InList):
        return InList(children[0], expr.options, expr.negated)
    if not children:
        return expr
    raise TypeError(f"cannot rebuild {type(expr).__name__}")
