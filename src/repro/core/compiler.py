"""Query compiler: offload analysis and suspension rules (Sec. VI-E).

Walks a logical plan bottom-up deciding, per node, whether the device
pipeline can execute it, and why not when it can't:

1. **mid-plan Aggregate-GroupBy** — an aggregate whose consumers are
   not just Sort/Limit/Project breaks the streaming references to base
   tables; the device can still stream and pre-hash the child (the
   "device-assisted" mode that makes Q17/Q18 partial offloads
   profitable), but the accumulate and everything above run on host;
2. **string heap too large** — LIKE / string-equality / SUBSTRING on a
   column whose heap (at the simulated SF) exceeds the 1 MB regex
   cache (Q9, Q13, Q16, Q20's p_name/o_comment/s_comment filters);
3. **group spill** — more groups than the 1024-bucket hash; detected
   at execution, the spilled accumulate ships to the host;
4. **DRAM exceeded** — join intermediates over device capacity;
   detected at execution, the subtree re-runs on the host.

Capability alone does not put a subtree on the device: after the
bottom-up pass, ``compile`` marks host every node of a maximal
offloadable subtree that neither reduces (no Filter, Join, Aggregate or
Distinct inside) nor streams for a device-assisted aggregate. Such a
bare column stream saves the host nothing — the bytes still transit
host memory. So each :meth:`CompiledQuery.offload_roots` subtree is
exactly one set of the paper's Table Tasks (Sec. V, Fig. 5) that the
simulator's ``DeviceExecutor`` drives through the Row Selector, the PE
array and the Swissknife, chaining join intermediates through device
DRAM; the simulator, the suspend predictor and ``repro explain`` read
that answer instead of re-deriving it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

from repro.core.regex_accel import REGEX_CACHE_BYTES
from repro.sqlir.expr import (
    AggFunc,
    Arith,
    ArithOp,
    BoolExpr,
    CaseWhen,
    ColumnRef,
    Compare,
    Expr,
    ExtractYear,
    InList,
    Kind,
    Like,
    Literal,
    ScalarSubquery,
    Substring,
)
from repro.sqlir.plan import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    JoinKind,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
)
from repro.storage.catalog import Catalog


class SuspendReason(Enum):
    NONE = "none"
    MID_PLAN_GROUPBY = "mid-plan aggregate group-by"
    STRING_HEAP = "string heap exceeds regex cache"
    UNSUPPORTED_EXPR = "expression has no device lowering"
    UNSUPPORTED_OP = "operator not offloadable"
    GROUP_SPILL = "aggregate groups exceed hash buckets"
    DRAM_EXCEEDED = "device DRAM exceeded"
    DEVICE_FAULT = "device fault"


BARE_STREAM_NOTE = "bare column stream: the host reads it directly"

REAL_SUSPENSIONS = frozenset(
    {
        SuspendReason.MID_PLAN_GROUPBY,
        SuspendReason.STRING_HEAP,
        SuspendReason.GROUP_SPILL,
        SuspendReason.DRAM_EXCEEDED,
        SuspendReason.DEVICE_FAULT,
    }
)


@dataclass
class OffloadDecision:
    """Per-node verdict of the offload analysis."""

    offloadable: bool
    reason: SuspendReason = SuspendReason.NONE
    note: str = ""
    device_assisted: bool = False  # host aggregate fed by a device stream
    # Stream this subtree through the device even if it performs no
    # reduction itself — its parent is a device-assisted aggregate that
    # consumes the pre-hashed stream (the Q17/Q18 mode).
    stream_for_assist: bool = False

    def __repr__(self) -> str:
        flag = "device" if self.offloadable else f"host ({self.reason.value})"
        return f"OffloadDecision({flag}{', ' + self.note if self.note else ''})"


@dataclass
class CompiledQuery:
    """Analysis results for one plan (including scalar subqueries)."""

    plan: Plan
    decisions: dict[int, OffloadDecision]
    subqueries: list["CompiledQuery"] = field(default_factory=list)

    def decision(self, node: Plan) -> OffloadDecision:
        """The verdict for ``node``, in this unit or a subquery unit."""
        for unit in self.flatten():
            found = unit.decisions.get(id(node))
            if found is not None:
                return found
        raise KeyError(f"{node!r} is not part of this compiled query")

    def offload_roots(self) -> list[Plan]:
        """Maximal offloadable subtrees, outermost first."""
        roots: list[Plan] = []

        def walk(node: Plan, parent_offloaded: bool) -> None:
            # conc: safe — decision map keyed by node identity, read in
            # the process that compiled the plan
            mine = self.decisions[id(node)].offloadable
            if mine and not parent_offloaded:
                roots.append(node)
            for child in node.children():
                walk(child, mine or parent_offloaded)

        walk(self.plan, False)
        return roots

    def flatten(self) -> list["CompiledQuery"]:
        """This compilation unit plus every nested scalar-subquery unit,
        depth-first — the flat view cross-validation passes walk."""
        units = [self]
        for sub in self.subqueries:
            units.extend(sub.flatten())
        return units

    def explain(self) -> str:
        """Per-node decisions of every unit, one line per node: the
        nodes the device runs read ``[DEVICE]``; the rest read
        ``[host  ]`` with the reason and, when there is one, the note
        saying why."""
        lines: list[str] = []
        for i, unit in enumerate(self.flatten()):
            if i:
                lines.append(f"-- scalar subquery {i} --")
            for node in unit.plan.walk():
                d = unit.decisions[id(node)]
                if d.offloadable:
                    lines.append(f"[DEVICE] {node!r}")
                    continue
                why = d.reason.value + (f" — {d.note}" if d.note else "")
                lines.append(f"[host  ] {node!r}  <- {why}")
        return "\n".join(lines)

    def suspend_reasons(self) -> set[SuspendReason]:
        reasons = {
            d.reason
            for d in self.decisions.values()
            if d.reason is not SuspendReason.NONE
        }
        for sub in self.subqueries:
            reasons |= sub.suspend_reasons()
        return reasons

    def fully_offloadable(self) -> bool:
        """True when only Sort/Limit/Project finalisation stays host-side."""
        def node_ok(node: Plan) -> bool:
            if self.decisions[id(node)].offloadable:
                return True
            if isinstance(node, (Sort, Limit)):
                return all(node_ok(c) for c in node.children())
            if isinstance(node, Project):
                return all(node_ok(c) for c in node.children())
            return False

        return node_ok(self.plan) and all(
            sub.fully_offloadable() for sub in self.subqueries
        )


class QueryCompiler:
    """Offload analysis against a catalog and a device configuration."""

    def __init__(
        self,
        catalog: Catalog,
        scale_ratio: float = 1.0,
        regex_cache_bytes: int = REGEX_CACHE_BYTES,
    ):
        self.catalog = catalog
        self.scale_ratio = scale_ratio
        self.regex_cache_bytes = regex_cache_bytes

    # -- public ------------------------------------------------------------

    def compile(self, plan: Plan) -> CompiledQuery:
        decisions: dict[int, OffloadDecision] = {}
        subqueries: list[CompiledQuery] = []
        tail = self._tail_nodes(plan)
        lineage = partial(column_lineage, self.catalog, memo={})

        def analyze(node: Plan) -> OffloadDecision:
            for child in node.children():
                analyze(child)
            decision = self._decide(
                node, decisions, tail, subqueries, lineage
            )
            # conc: safe — decision map keyed by node identity; plan
            # and decisions stay inside the compiling process
            decisions[id(node)] = decision
            return decision

        analyze(plan)
        compiled = CompiledQuery(plan, decisions, subqueries)
        # Policy: a root that reduces nothing and feeds no assisted
        # aggregate is a bare column stream; the host reads it directly.
        for root in compiled.offload_roots():
            # conc: safe — decision map, same process
            if decisions[id(root)].stream_for_assist or any(
                isinstance(node, (Filter, Join, Aggregate, Distinct))
                for node in root.walk()
            ):
                continue
            for node in root.walk():
                # conc: safe — decision map, same process
                decisions[id(node)] = OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP, BARE_STREAM_NOTE
                )
        return compiled

    # -- analysis ----------------------------------------------------------------

    def _tail_nodes(self, plan: Plan) -> set[int]:
        """Nodes whose every ancestor is Sort/Limit/Project (the query
        tail a terminal device op may feed)."""
        tail: set[int] = set()

        def walk(node: Plan, on_tail: bool) -> None:
            # conc: safe — tail set keyed by node identity, same process
            tail.add(id(node)) if on_tail else None
            keeps_tail = on_tail and isinstance(node, (Sort, Limit, Project))
            for child in node.children():
                walk(child, keeps_tail)

        walk(plan, True)
        return tail

    def _decide(
        self,
        node: Plan,
        decisions: dict[int, OffloadDecision],
        tail: set[int],
        subqueries: list[CompiledQuery],
        lineage: Callable[[Plan], dict[str, tuple[str, str]]],
    ) -> OffloadDecision:
        if isinstance(node, Scan):
            return OffloadDecision(True)

        if isinstance(node, Filter):
            child = decisions[id(node.child)]  # conc: safe — decision map
            if not child.offloadable:
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP,
                    "filter over a host-resident input",
                )
            return self._check_expr(
                node.predicate, subqueries, lineage(node.child)
            )

        if isinstance(node, Project):
            child = decisions[id(node.child)]  # conc: safe — decision map
            if not child.offloadable:
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP,
                    "project over a host-resident input",
                )
            prov = lineage(node.child)
            for _, expr in node.outputs:
                verdict = self._check_expr(expr, subqueries, prov)
                if not verdict.offloadable:
                    return verdict
            return OffloadDecision(True)

        if isinstance(node, Join):
            left = decisions[id(node.left)]  # conc: safe — decision map
            right = decisions[id(node.right)]  # conc: safe — decision map
            if node.kind is JoinKind.LEFT_OUTER:
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP,
                    "left-outer join stays on the host",
                )
            if not (left.offloadable and right.offloadable):
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP,
                    "join input is host-resident",
                )
            if node.residual is not None:
                # the residual sees the matched pair: both sides
                prov = {**lineage(node.left), **lineage(node.right)}
                verdict = self._check_expr(node.residual, subqueries, prov)
                if not verdict.offloadable:
                    return verdict
            return OffloadDecision(True)

        if isinstance(node, (Aggregate, Distinct)):
            child_node = node.children()[0]
            child = decisions[id(child_node)]  # conc: safe — decision map
            if isinstance(node, Aggregate):
                prov = lineage(child_node)
                for spec in node.aggregates:
                    if spec.func is AggFunc.COUNT_DISTINCT:
                        return OffloadDecision(
                            False, SuspendReason.UNSUPPORTED_OP,
                            "count(distinct) has no Swissknife operator",
                            device_assisted=False,
                        )
                    if spec.expr is not None:
                        verdict = self._check_expr(
                            spec.expr, subqueries, prov
                        )
                        if not verdict.offloadable:
                            return verdict
                if node.having is not None:
                    verdict = self._check_expr(node.having, subqueries, prov)
                    if not verdict.offloadable:
                        return verdict
            if not child.offloadable:
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_OP,
                    "aggregate over a host-resident input",
                )
            if id(node) not in tail:  # conc: safe — tail set, same proc
                # Condition 1: the aggregate feeds more plan; device
                # streams + pre-hashes, host accumulates and resumes.
                # conc: safe — decision map, same process
                decisions[id(child_node)].stream_for_assist = True
                return OffloadDecision(
                    False,
                    SuspendReason.MID_PLAN_GROUPBY,
                    device_assisted=True,
                )
            return OffloadDecision(True)

        if isinstance(node, (Sort, Limit)):
            # Result finalisation: tiny data; the simulator keeps it on
            # the host (the paper DMAs reduced outputs to the host too).
            return OffloadDecision(
                False, SuspendReason.UNSUPPORTED_OP,
                "result finalisation on the host",
            )

        return OffloadDecision(
            False, SuspendReason.UNSUPPORTED_OP, type(node).__name__
        )

    # -- expression checks ------------------------------------------------------------

    def _check_expr(
        self,
        expr: Expr,
        subqueries: list[CompiledQuery],
        prov: dict[str, tuple[str, str]] | None = None,
    ) -> OffloadDecision:
        if isinstance(expr, ColumnRef) or isinstance(expr, Literal):
            return OffloadDecision(True)

        if isinstance(expr, (Like,)):
            return self._check_string_column(expr.column, prov)

        if isinstance(expr, Substring):
            verdict = self._check_string_column(expr.column, prov)
            if not verdict.offloadable:
                return verdict
            return OffloadDecision(
                False,
                SuspendReason.UNSUPPORTED_EXPR,
                "substring produces a new string column on the host",
            )

        if isinstance(expr, InList):
            inner = expr.column
            if self._is_string_column(inner, prov):
                return self._check_string_column(inner, prov)
            return self._check_expr(inner, subqueries, prov)

        if isinstance(expr, Compare):
            for side, other in (
                (expr.left, expr.right),
                (expr.right, expr.left),
            ):
                if isinstance(other, Literal) and other.kind is Kind.STR:
                    return self._check_string_column(side, prov)
            for child in expr.children():
                verdict = self._check_expr(child, subqueries, prov)
                if not verdict.offloadable:
                    return verdict
            return OffloadDecision(True)

        if isinstance(expr, Arith):
            if expr.op is ArithOp.DIV:
                return OffloadDecision(
                    False, SuspendReason.UNSUPPORTED_EXPR,
                    "division is host-side (post-reduction) arithmetic",
                )
            for child in expr.children():
                verdict = self._check_expr(child, subqueries, prov)
                if not verdict.offloadable:
                    return verdict
            return OffloadDecision(True)

        if isinstance(expr, ScalarSubquery):
            subqueries.append(self.compile(expr.plan))
            return OffloadDecision(True, note="scalar parameter")

        if isinstance(expr, (BoolExpr, CaseWhen, ExtractYear)):
            for child in expr.children():
                verdict = self._check_expr(child, subqueries, prov)
                if not verdict.offloadable:
                    return verdict
            return OffloadDecision(True)

        return OffloadDecision(
            False, SuspendReason.UNSUPPORTED_EXPR, type(expr).__name__
        )

    def _is_string_column(
        self, expr: Expr, prov: dict[str, tuple[str, str]] | None = None
    ) -> bool:
        if not isinstance(expr, ColumnRef):
            return False
        resolved = self._resolve_column(expr.name, prov)
        return resolved is not None and resolved[1].ctype.is_string

    def _check_string_column(
        self, expr: Expr, prov: dict[str, tuple[str, str]] | None = None
    ) -> OffloadDecision:
        """Condition 2: the regex cache must hold the column's heap."""
        if not isinstance(expr, ColumnRef):
            return OffloadDecision(
                False, SuspendReason.UNSUPPORTED_EXPR,
                "string operator over a computed expression",
            )
        resolved = self._resolve_column(expr.name, prov)
        if resolved is None or resolved[1].heap is None:
            # A renamed/derived string column: conservatively host-side.
            return OffloadDecision(
                False, SuspendReason.STRING_HEAP,
                f"cannot bound the heap of {expr.name!r}",
            )
        table_name, column = resolved
        effective = self._effective_heap_bytes(
            column.heap, len(column), table_name
        )
        if effective > self.regex_cache_bytes:
            return OffloadDecision(
                False,
                SuspendReason.STRING_HEAP,
                f"{expr.name}: {effective} bytes (scaled) > 1 MB cache",
            )
        return OffloadDecision(True)

    def _effective_heap_bytes(
        self, heap, base_rows: int, table_name: str | None
    ) -> int:
        """Heap size at the simulated SF (fixed domains don't grow)."""
        from repro.core.device import effective_heap_bytes

        constant = table_name in self.catalog.constant_tables
        return effective_heap_bytes(
            heap, base_rows, self.scale_ratio, constant=constant
        )

    def _resolve_column(self, name: str, prov=None):
        """Resolve to (table, column) via provenance, then global name."""
        if prov is not None:
            origin = prov.get(name)
            if origin is not None:
                table, base = origin
                return table, self.catalog.table(table).column(base)
        return self._find_base_column(name)

    def _find_base_column(self, name: str):
        """Resolve a column name to its base table column.

        TPC-H column names are globally unique, so a catalog-wide
        search is unambiguous; names that don't resolve are derived
        columns.
        """
        for table in self.catalog.tables.values():
            if table.has_column(name):
                return table.name, table.column(name)
        return None


def column_lineage(
    catalog: Catalog,
    node: Plan,
    memo: dict[int, dict[str, tuple[str, str]]],
) -> dict[str, tuple[str, str]]:
    """Output column -> (base table, base column), as the device's
    executor tracks it.

    Scans give their columns; Filter/Sort/Limit pass theirs through;
    Projects pass ColumnRefs through (renames included — Q7/Q8 bind
    nation names to ``supp_nation``/``cust_nation``); joins give left
    plus right, left only for SEMI/ANTI; Aggregate and Distinct outputs
    are device-materialised and give none. The compiler's heap-size
    rule and the suspend predictor's join-index check both read it.
    """
    cached = memo.get(id(node))  # conc: safe — per-compile memo
    if cached is not None:
        return cached
    lineage: dict[str, tuple[str, str]] = {}
    if isinstance(node, Scan):
        table = catalog.tables.get(node.table)
        if table is not None:
            names = (
                node.columns
                if node.columns is not None
                else tuple(table.column_names)
            )
            lineage = {
                n: (node.table, n) for n in names if table.has_column(n)
            }
    elif isinstance(node, (Filter, Sort, Limit)):
        lineage = column_lineage(catalog, node.child, memo)
    elif isinstance(node, Project):
        child = column_lineage(catalog, node.child, memo)
        lineage = {
            name: child[expr.name]
            for name, expr in node.outputs
            if isinstance(expr, ColumnRef) and expr.name in child
        }
    elif isinstance(node, Join):
        lineage = dict(column_lineage(catalog, node.left, memo))
        if node.kind not in (JoinKind.SEMI, JoinKind.ANTI):
            lineage.update(column_lineage(catalog, node.right, memo))
    memo[id(node)] = lineage  # conc: safe — per-compile memo
    return lineage
