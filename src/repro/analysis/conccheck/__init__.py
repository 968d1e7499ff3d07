"""Concurrency & determinism static analysis over the runtime's own
source (``python -m repro lint``).

PR 2 made static verdicts the correctness gate for *plans*
(AQ1xx–AQ4xx); this package extends the same discipline to the
runtime's own code.  The guarantees the morsel thread pool and the
fault layer depend on — bit-identical recovery as a pure function of
``(seed, site)``, deterministic lane attribution, ambient-state
hygiene — are checked
from the AST, without importing or executing the code under analysis,
and emitted as stable ``AQ5xx`` diagnostics with ``file:line`` loci
in the same human/JSON formats as ``repro analyze``.

Three passes (see DESIGN.md §11 for the full code table):

- **races** (AQ501–AQ503): writes to module/class-level state
  reachable from worker entry points, without a lock;
- **determinism** (AQ520–AQ523): unseeded RNGs, wall-clock reads,
  ``id()``-keyed decisions and set-iteration-order dependence in
  result-affecting paths;
- **ambient** (AQ530): ambient tracer/injector installation outside
  the sanctioned points.

True negatives are justified in-line with ``# conc: safe — reason``;
legacy findings can be grandfathered in the committed baseline
(``--baseline`` regenerates it).  ``AQ500`` (a configured root
vanished) and ``AQ540`` (a stale baseline entry) keep the contract
itself honest.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.conccheck.ambient import run_ambient_pass
from repro.analysis.conccheck.config import (
    LintConfig,
    default_baseline_path,
    default_config,
    package_root,
    repo_root,
)
from repro.analysis.conccheck.determinism import run_determinism_pass
from repro.analysis.conccheck.model import Project
from repro.analysis.conccheck.races import run_races_pass
from repro.analysis.conccheck.report import (
    LintDiagnostic,
    LintReport,
    apply_baseline,
    lint_diag,
    load_baseline,
    write_baseline,
)
from repro.analysis.diagnostics import Severity

__all__ = [
    "LintConfig",
    "LintDiagnostic",
    "LintReport",
    "Project",
    "default_config",
    "lint_project",
    "lint_repo",
]


def lint_project(
    project: Project, config: LintConfig
) -> LintReport:
    """Run the configured passes over an already-loaded project."""
    t0 = time.perf_counter()
    report = LintReport(passes=config.passes)
    report.n_files = len(project.modules)
    report.n_functions = len(project.functions)

    for missing in project.missing_roots(
        (*config.worker_roots, *config.result_roots,
         *config.sanctioned_installers)
    ):
        report.add(lint_diag(
            "AQ500",
            f"configured root {missing!r} not found: the concurrency "
            "contract in conccheck/config.py is out of date",
        ))

    worker_reachable = project.reachable_from(config.worker_roots)
    result_scope = worker_reachable | project.reachable_from(
        config.result_roots
    )
    report.n_worker_reachable = len(worker_reachable)

    raw: list[LintDiagnostic] = []
    if "races" in config.passes:
        raw += run_races_pass(project, worker_reachable)
    if "determinism" in config.passes:
        raw += run_determinism_pass(
            project, result_scope,
            exempt_prefixes=config.determinism_exempt,
        )
    if "ambient" in config.passes:
        raw += run_ambient_pass(
            project, worker_reachable,
            installers=config.ambient_installers,
            sanctioned_installers=config.sanctioned_installers,
        )

    # The passes drop suppressed findings before they reach us; the
    # suppression tally below recounts them for the report so the
    # human output shows how much is annotated away.
    report.extend(raw)
    report.suppressed = _collect_suppressed(project)
    report.elapsed_s = time.perf_counter() - t0
    report.sort()
    return report


def _collect_suppressed(project: Project) -> list[LintDiagnostic]:
    """One INFO record per ``# conc: safe`` annotation, so the report
    (and the tests) can see the justification surface."""
    out: list[LintDiagnostic] = []
    for mod in project.modules.values():
        for line, why in sorted(mod.safe_lines.items()):
            out.append(LintDiagnostic(
                code="AQ5xx",
                severity=Severity.INFO,
                message=f"conc: safe — {why}" if why else "conc: safe",
                path=mod.path,
                line=line,
            ))
    return out


def lint_repo(
    config: LintConfig | None = None,
    baseline_path: str | Path | None = None,
    use_baseline: bool = True,
) -> LintReport:
    """Lint the installed ``repro`` package sources."""
    config = config or default_config()
    root = package_root()
    project = Project.load_package(
        root, config.package,
        distinctive_max_definers=config.distinctive_max_definers,
    )
    _relativize(project, root)
    report = lint_project(project, config)
    if use_baseline:
        path = Path(baseline_path) if baseline_path is not None \
            else default_baseline_path()
        baseline = load_baseline(path)
        if baseline:
            apply_baseline(report, baseline)
            report.sort()
    return report


def _relativize(project: Project, package_dir: Path) -> None:
    """Rewrite stored paths repo-relative (``src/repro/...``) so
    reports and baseline fingerprints are checkout-independent."""
    try:
        prefix = package_dir.relative_to(repo_root())
    except ValueError:  # package imported from outside the checkout
        prefix = Path("src/repro")
    for mod in project.modules.values():
        mod.path = str(
            prefix / Path(mod.path).relative_to(package_dir)
        )
    for info in project.functions.values():
        info.path = project.modules[info.module].path
