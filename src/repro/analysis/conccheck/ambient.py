"""Pass 3 — ambient-state discipline (AQ530).

The runtime's ambient singletons — the global tracer behind
:data:`~repro.obs.spans.NULL_TRACER`, the global injector behind
:data:`~repro.faults.injector.NULL_INJECTOR`, and the ``/healthz``
degraded flag — are the one place worker and parent state deliberately
meet.  The contract (DESIGN.md §10) is narrow:

worker-side code may *read* ambient state freely
(``get_tracer()`` / ``get_fault_injector()`` are cheap and pure), but
may only *install* it at the sanctioned points (``AQ530`` otherwise):
a pool thread that swaps the process-wide tracer or injector would
redirect every other worker's spans and fault counters mid-query.
"""

from __future__ import annotations

import ast

from repro.analysis.conccheck.model import Project
from repro.analysis.conccheck.report import LintDiagnostic, lint_diag

__all__ = ["run_ambient_pass"]


def run_ambient_pass(
    project: Project,
    worker_reachable: set[str],
    installers: tuple[str, ...],
    sanctioned_installers: tuple[str, ...],
) -> list[LintDiagnostic]:
    out: list[LintDiagnostic] = []
    installer_set = set(installers)
    sanctioned_install = set(sanctioned_installers)

    for info in project.functions_in_scope(set(project.functions)):
        mod = project.module_of(info)
        in_worker = info.qualname in worker_reachable
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else ""
            )
            if name in installer_set and in_worker and \
                    info.qualname not in sanctioned_install and \
                    info.name not in installer_set and \
                    not mod.is_safe_line(node.lineno):
                out.append(lint_diag(
                    "AQ530",
                    f"{name}(...) installs ambient state from "
                    "worker-reachable code outside the sanctioned "
                    "points — a pool thread that swaps a process-wide "
                    "singleton redirects every other worker's state",
                    path=info.path, node=node, symbol=info.qualname,
                ))
    return out
