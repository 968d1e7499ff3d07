"""Seeded-violation self-check (``python -m repro lint --selfcheck``).

A linter that silently stops finding anything is worse than no linter:
CI would keep passing while the checked surface quietly shrank.  This
module keeps conccheck honest the same way the chaos matrix keeps the
fault layer honest — by injecting known-bad input and asserting the
detector fires.  Each scenario is a tiny in-memory module seeded with
one violation per diagnostic code of one pass; the self-check runs the
real pipeline (:func:`~repro.analysis.conccheck.lint_project` over
:meth:`Project.from_sources`) and fails loudly if any expected code
goes undetected or an unexpected code appears.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.conccheck.config import LintConfig
from repro.analysis.conccheck.model import Project

__all__ = ["SCENARIOS", "Scenario", "run_selfcheck"]


@dataclass(frozen=True)
class Scenario:
    name: str                   # the pass under test
    sources: dict               # module name -> seeded source
    config: LintConfig
    expect: tuple[str, ...]     # codes that MUST be detected


_RACES_SRC = '''\
_CACHE = {}
_COUNT = 0


class Config:
    mode = "cold"


def worker_entry(item):
    global _COUNT
    _COUNT += 1
    _CACHE[item] = item
    Config.mode = "hot"
    return item
'''

_DETERMINISM_SRC = '''\
import random
import time


def merge(parts):
    order = list({p for p in parts})
    jitter = random.random()
    stamp = time.time()
    key = id(parts)
    return order, jitter, stamp, key
'''

_AMBIENT_SRC = '''\
def set_global_tracer(tracer):
    pass


def worker_entry(tracer):
    set_global_tracer(tracer)
'''


SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="races",
        sources={"seed.races": _RACES_SRC},
        config=LintConfig(
            worker_roots=("seed.races:worker_entry",),
            passes=("races",),
        ),
        expect=("AQ501", "AQ502", "AQ503"),
    ),
    Scenario(
        name="determinism",
        sources={"seed.det": _DETERMINISM_SRC},
        config=LintConfig(
            result_roots=("seed.det:merge",),
            passes=("determinism",),
        ),
        expect=("AQ520", "AQ521", "AQ522", "AQ523"),
    ),
    Scenario(
        name="ambient",
        sources={"seed.ambient": _AMBIENT_SRC},
        config=LintConfig(
            worker_roots=("seed.ambient:worker_entry",),
            passes=("ambient",),
        ),
        expect=("AQ530",),
    ),
)


def run_selfcheck() -> tuple[bool, list[str]]:
    """Run every seeded scenario; returns ``(ok, report_lines)``."""
    from repro.analysis.conccheck import lint_project

    ok = True
    lines: list[str] = []
    for scenario in SCENARIOS:
        project = Project.from_sources(scenario.sources)
        report = lint_project(project, scenario.config)
        found = {d.code for d in report.diagnostics}
        missed = [c for c in scenario.expect if c not in found]
        surprise = sorted(found - set(scenario.expect))
        if missed:
            ok = False
            lines.append(
                f"FAIL {scenario.name}: seeded violation(s) "
                f"{', '.join(missed)} went undetected"
            )
        elif surprise:
            ok = False
            lines.append(
                f"FAIL {scenario.name}: unexpected code(s) "
                f"{', '.join(surprise)} on seeded input"
            )
        else:
            lines.append(
                f"ok   {scenario.name}: "
                f"{', '.join(scenario.expect)} all detected"
            )
    lines.append(
        "selfcheck: PASS" if ok else "selfcheck: FAIL — the lint "
        "passes are no longer catching their seeded violations"
    )
    return ok, lines
