"""Logical SQL IR shared by the software engine and the AQUOMAN compiler.

A query is a tree of :mod:`plan` nodes whose leaves are table scans and
whose edges carry :mod:`expr` expressions.  The same IR is executed two
ways: vectorised in software by :mod:`repro.engine` (the MonetDB
stand-in), and by :mod:`repro.core.simulator`, which runs the subtrees
:mod:`repro.core.compiler` picks on the AQUOMAN device model.

Arithmetic follows the hardware: decimals are fixed-point integers with
an explicit scale (AQUOMAN's PEs are integer-only, Table II), and only
division/averaging — which happen after reduction — promote to float.
"""

from repro.sqlir.expr import (
    AggFunc,
    Arith,
    ArithOp,
    BoolExpr,
    BoolOp,
    CaseWhen,
    ColumnRef,
    Compare,
    CompareOp,
    Expr,
    ExtractYear,
    InList,
    Like,
    Literal,
    ScalarSubquery,
    Substring,
    TypedArray,
    col,
    lit,
    lit_date,
    lit_decimal,
)
from repro.sqlir.plan import (
    Aggregate,
    AggSpec,
    Distinct,
    Filter,
    Join,
    JoinKind,
    Limit,
    Plan,
    Project,
    Scan,
    Sort,
    SortKey,
    assign_node_ids,
    node_exprs,
    subquery_plans,
)
from repro.sqlir.builder import PlanBuilder, scan
from repro.sqlir.parser import SelectStatement, SqlSyntaxError, parse_sql
from repro.sqlir.planner import PlanningError, plan_sql

__all__ = [
    # expressions
    "Expr",
    "ColumnRef",
    "Literal",
    "Arith",
    "ArithOp",
    "Compare",
    "CompareOp",
    "BoolExpr",
    "BoolOp",
    "Like",
    "InList",
    "CaseWhen",
    "ExtractYear",
    "Substring",
    "ScalarSubquery",
    "AggFunc",
    "TypedArray",
    "col",
    "lit",
    "lit_decimal",
    "lit_date",
    # plans
    "Plan",
    "Scan",
    "Filter",
    "Project",
    "Join",
    "JoinKind",
    "Aggregate",
    "AggSpec",
    "Sort",
    "SortKey",
    "Limit",
    "Distinct",
    "assign_node_ids",
    "node_exprs",
    "subquery_plans",
    # builder
    "PlanBuilder",
    "scan",
    # SQL front-end
    "parse_sql",
    "plan_sql",
    "SelectStatement",
    "SqlSyntaxError",
    "PlanningError",
]
