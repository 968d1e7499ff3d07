"""Pass 1 — worker-context race detection (AQ501–AQ503).

Starting from the configured worker entry points (the thread pool's
worker loop, the span runner, the time-series sampler), every
function the call graph can reach runs concurrently on more than one
worker.  Inside that set, writes to *shared* state — module-level
names, module-level mutable containers, class attributes — are races
unless the write is guarded by a lock or carries a ``# conc: safe``
justification.

Instance attributes are deliberately out of scope: per-morsel objects
are worker-private by construction, and shared instances
(:class:`~repro.faults.injector.FaultInjector`) guard their own state
with locks the same detection honours.

Codes:

- ``AQ501`` — assignment (or ``global`` rebind / augmented assign) to
  a module-level name from worker-reachable code, outside a lock;
- ``AQ502`` — in-place mutation of a module-level mutable container
  (``X[k] = v``, ``X.append(...)``, ``del X[k]``, ...) from
  worker-reachable code, outside a lock;
- ``AQ503`` — class-attribute write from worker-reachable code.
"""

from __future__ import annotations

import ast

from repro.analysis.conccheck.model import FuncInfo, Project
from repro.analysis.conccheck.report import LintDiagnostic, lint_diag

__all__ = ["MUTATING_METHODS", "run_races_pass"]

MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem",
    "clear", "add", "discard", "update", "setdefault", "sort",
    "reverse",
})

_LOCKISH = ("lock", "mutex", "cond", "sem")


def _is_lockish(node: ast.AST) -> bool:
    """``with self._lock:`` — the context expression names a lock."""
    text = ast.unparse(node).lower()
    return any(hint in text for hint in _LOCKISH)


class _RaceVisitor(ast.NodeVisitor):
    def __init__(self, info: FuncInfo, project: Project,
                 out: list[LintDiagnostic]) -> None:
        self.info = info
        self.project = project
        self.mod = project.module_of(info)
        self.out = out
        self.lock_depth = 0
        self.global_names: set[str] = set()

    # -- scope fences ---------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are visited as their own functions

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_With(self, node: ast.With) -> None:
        locked = any(
            _is_lockish(item.context_expr) for item in node.items
        )
        if locked:
            self.lock_depth += 1
        self.generic_visit(node)
        if locked:
            self.lock_depth -= 1

    visit_AsyncWith = visit_With

    def visit_Global(self, node: ast.Global) -> None:
        self.global_names.update(node.names)

    # -- write detection -------------------------------------------------------

    def _module_global(self, name: str) -> bool:
        if name in self.global_names:
            return True
        info = self.mod.globals.get(name)
        if info is None or info.is_function or info.is_class:
            return False
        # locally rebound names shadow the module global
        return name not in self.info.local_names

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        if self.lock_depth:
            return
        if self.mod.is_safe_line(node.lineno):
            return
        self.out.append(lint_diag(
            code, message, path=self.info.path, node=node,
            symbol=self.info.qualname,
        ))

    def _check_target(self, target: ast.AST, node: ast.AST,
                      verb: str) -> None:
        if isinstance(target, ast.Name):
            if isinstance(node, (ast.Assign, ast.AugAssign)) and \
                    target.id in self.global_names:
                self._flag(
                    "AQ501", node,
                    f"{verb} to module-level name {target.id!r} "
                    "declared `global`, from worker-reachable code "
                    "without a lock",
                )
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            # X[k] = v / del X[k] on a module-level container
            if isinstance(target, ast.Subscript) and \
                    isinstance(base, ast.Name) and \
                    self._module_global(base.id):
                self._flag(
                    "AQ502", node,
                    f"{verb} into module-level container "
                    f"{base.id!r} from worker-reachable code "
                    "without a lock",
                )
            # ClassName.attr = v
            if isinstance(target, ast.Attribute) and \
                    isinstance(base, ast.Name):
                if self.project.resolve_class(self.info, base.id):
                    self._flag(
                        "AQ503", node,
                        f"class-attribute {verb.lower()} "
                        f"({base.id}.{target.attr}) from "
                        "worker-reachable code",
                    )
                elif base.id in ("self", "cls") and \
                        target.attr == "__class__":
                    self._flag(
                        "AQ503", node,
                        "__class__ reassignment from "
                        "worker-reachable code",
                    )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt, node, verb)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node, "write")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node, "augmented write")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target, node, "write")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node, "delete")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and \
                func.attr in MUTATING_METHODS:
            base = func.value
            name = None
            if isinstance(base, ast.Name):
                name = base.id if self._module_global(base.id) else None
            elif isinstance(base, ast.Attribute) and \
                    isinstance(base.value, ast.Name):
                # module_alias._GLOBAL.mutate(...)
                recv = base.value.id
                target = self.info.local_imports.get(recv) \
                    or self.mod.imports.get(recv)
                if target is not None and ":" not in target and \
                        target in self.project.modules:
                    ginfo = self.project.modules[target].globals.get(
                        base.attr
                    )
                    if ginfo is not None and not ginfo.is_function \
                            and not ginfo.is_class:
                        name = f"{recv}.{base.attr}"
            if name is not None:
                self._flag(
                    "AQ502", node,
                    f"mutating call {name}.{func.attr}(...) on "
                    "module-level state from worker-reachable code "
                    "without a lock",
                )
        self.generic_visit(node)


def run_races_pass(
    project: Project, worker_reachable: set[str]
) -> list[LintDiagnostic]:
    out: list[LintDiagnostic] = []
    for info in project.functions_in_scope(worker_reachable):
        visitor = _RaceVisitor(info, project, out)
        # two passes over the body: `global` declarations first, so a
        # later visit of an earlier assignment still sees them
        for stmt in info.node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Global):
                    visitor.global_names.update(sub.names)
        for stmt in info.node.body:
            visitor.visit(stmt)
    return out
