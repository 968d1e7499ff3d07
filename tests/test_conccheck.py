"""The AQ5xx concurrency & determinism analyzer (``repro lint``).

Each pass is exercised on a violating and a clean fixture module
(``tests/fixtures/conccheck/``), the suppression and baseline
machinery is covered directly, and the end-to-end test asserts the
repository itself is clean under ``--strict`` — the same gate CI runs.
"""

import json
from pathlib import Path

from repro.analysis.conccheck import (
    LintConfig,
    Project,
    lint_project,
    lint_repo,
)
from repro.analysis.conccheck.report import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.conccheck.selfcheck import run_selfcheck

FIXTURES = Path(__file__).parent / "fixtures" / "conccheck"


def project_of(*names: str) -> Project:
    sources = {
        f"fix.{name}": (FIXTURES / f"{name}.py").read_text()
        for name in names
    }
    return Project.from_sources(sources)


def run_fixture(name: str, config: LintConfig):
    report = lint_project(project_of(name), config)
    return {d.code for d in report.diagnostics}, report


# -- pass 1: worker-context races ------------------------------------------


def races_config(name: str) -> LintConfig:
    return LintConfig(worker_roots=(f"fix.{name}:worker_entry",),
                      passes=("races",))


def test_races_violation_detected():
    codes, report = run_fixture(
        "races_violation", races_config("races_violation")
    )
    assert codes == {"AQ501", "AQ502", "AQ503"}
    assert all(d.line > 0 and d.symbol for d in report.diagnostics)


def test_races_clean_fixture_passes():
    codes, _ = run_fixture("races_clean", races_config("races_clean"))
    assert codes == set()


def test_races_ignores_non_worker_code():
    # same violations, but nothing roots the call graph there
    config = LintConfig(worker_roots=(), passes=("races",))
    codes, _ = run_fixture("races_violation", config)
    assert codes == set()


# -- pass 2: determinism ----------------------------------------------------


def det_config(name: str) -> LintConfig:
    return LintConfig(result_roots=(f"fix.{name}:merge",),
                      passes=("determinism",))


def test_determinism_violation_detected():
    codes, _ = run_fixture(
        "determinism_violation", det_config("determinism_violation")
    )
    assert codes == {"AQ520", "AQ521", "AQ522", "AQ523"}


def test_determinism_clean_fixture_passes():
    # sorted(set) and membership tests are order-independent: clean
    codes, _ = run_fixture(
        "determinism_clean", det_config("determinism_clean")
    )
    assert codes == set()


def test_determinism_exempt_prefix():
    config = LintConfig(
        result_roots=("fix.determinism_violation:merge",),
        determinism_exempt=("fix.",),
        passes=("determinism",),
    )
    codes, _ = run_fixture("determinism_violation", config)
    assert codes == set()


# -- pass 3: ambient-state discipline --------------------------------------


def ambient_config(name: str) -> LintConfig:
    return LintConfig(worker_roots=(f"fix.{name}:worker_entry",),
                      passes=("ambient",))


def test_ambient_violation_detected():
    codes, _ = run_fixture(
        "ambient_violation", ambient_config("ambient_violation")
    )
    assert codes == {"AQ530"}


def test_ambient_clean_fixture_passes():
    codes, _ = run_fixture(
        "ambient_clean", ambient_config("ambient_clean")
    )
    assert codes == set()


def test_sanctioned_points_are_not_flagged():
    config = LintConfig(
        worker_roots=("fix.ambient_violation:worker_entry",),
        sanctioned_installers=("fix.ambient_violation:worker_entry",),
        passes=("ambient",),
    )
    codes, _ = run_fixture("ambient_violation", config)
    assert codes == set()


# -- suppression and baseline ----------------------------------------------


def test_conc_safe_suppresses_and_is_counted():
    project = Project.from_sources({
        "fix.sup": (
            "_STATE = {}\n"
            "\n"
            "def worker_entry(item):\n"
            "    # conc: safe — fixture justification\n"
            "    _STATE[item] = item\n"
        ),
    })
    report = lint_project(
        project,
        LintConfig(worker_roots=("fix.sup:worker_entry",),
                   passes=("races",)),
    )
    assert report.diagnostics == []
    assert len(report.suppressed) == 1
    assert "fixture justification" in report.suppressed[0].message


def test_conc_safe_in_docstring_does_not_suppress():
    project = Project.from_sources({
        "fix.doc": (
            "_STATE = {}\n"
            "\n"
            "def worker_entry(item):\n"
            '    """Mentions # conc: safe without being a comment."""\n'
            "    _STATE[item] = item\n"
        ),
    })
    report = lint_project(
        project,
        LintConfig(worker_roots=("fix.doc:worker_entry",),
                   passes=("races",)),
    )
    assert [d.code for d in report.diagnostics] == ["AQ502"]
    assert report.suppressed == []


def test_baseline_roundtrip_and_stale_entry(tmp_path):
    config = races_config("races_violation")
    codes, report = run_fixture("races_violation", config)
    assert codes  # sanity: something to baseline
    path = tmp_path / "baseline.json"
    write_baseline(path, report)
    baseline = load_baseline(path)
    # a fresh identical run is fully absorbed by the baseline
    _, fresh = run_fixture("races_violation", config)
    apply_baseline(fresh, baseline)
    assert fresh.ok
    assert len(fresh.baselined) == len(baseline)
    # an entry that matches nothing warns AQ540, keeping the
    # baseline ratcheted down as code is fixed
    baseline["AQ501:gone.py:gone"] = 1
    _, again = run_fixture("races_violation", config)
    apply_baseline(again, baseline)
    stale = again.by_code("AQ540")
    assert len(stale) == 1
    assert "gone.py" in stale[0].message


def test_missing_root_is_aq500():
    report = lint_project(
        project_of("races_clean"),
        LintConfig(worker_roots=("fix.races_clean:vanished",),
                   passes=("races",)),
    )
    assert [d.code for d in report.diagnostics] == ["AQ500"]


# -- end to end -------------------------------------------------------------


def test_repo_is_clean_under_strict():
    report = lint_repo()
    assert report.errors() == [], "\n" + report.format()
    assert report.n_files > 50
    assert report.n_worker_reachable > 20
    # acceptance: a full-repo lint stays interactive
    assert report.elapsed_s < 10.0


def test_selfcheck_catches_all_seeded_violations():
    ok, lines = run_selfcheck()
    assert ok, "\n".join(lines)


def test_cli_lint_json(capsys):
    from repro.__main__ import main

    assert main(["lint", "--json", "--strict"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["diagnostics"] == []
    assert set(doc["passes"]) == {
        "races", "determinism", "ambient",
    }
