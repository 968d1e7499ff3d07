"""Self-tests of the benchmark.  Run from the repository root with::

    python3 -m pytest perfbench -q

Every workload runs once per mode at a small SF and a non-default seed,
in a child process, exactly as the benchmark command line is used.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import layers
import run
import workloads as wl

from repro.storage.column import Column
from repro.storage.table import Table
from repro.storage.types import DECIMAL, INT64
from repro.tpch.dbgen import DEFAULT_SEED

SMALL_SF = 0.01
SEED = 20240607
assert SEED != DEFAULT_SEED
SPEC = json.loads(run.BENCHMARK.read_text())


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _cli(*extra: str, cwd=wl.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    proc = _cli(
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
        "--trace", str(trace), "--sf", str(SMALL_SF),
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(wl.QUERIES)
    section = SPEC["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in section}
    for metric in section:
        got = emitted[metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
    if trace:
        assert emitted["failed_frac"]["value"] == 0
        assert emitted["bench.attributed_frac"]["value"] >= 0.9
    else:
        for metric in section:  # end-to-end metrics are never 0
            assert emitted[metric["name"]]["value"] > 0, metric["name"]


def test_seed_argument_reaches_generate(monkeypatch, capsys):
    seen = []
    original = wl.tpch.generate

    def recording(sf, seed=DEFAULT_SEED):
        seen.append((sf, seed))
        return original(sf, seed)

    monkeypatch.setattr(wl.tpch, "generate", recording)
    assert run.main([
        "--workload", "tpch_host", "--seed", "4321", "--seconds", "0.1",
        "--sf", str(SMALL_SF),
    ]) == 0
    assert seen == [(SMALL_SF, 4321)] * run.SETUP_REPEATS
    assert _result(capsys.readouterr().out)["correct"] is True


def _perturbed(table: Table) -> Table:
    """The same table with one value of its last column changed."""
    *keep, last = table.columns
    values = np.array(last.values, copy=True)
    values[0] += 1
    return Table(table.name, [*keep, Column(last.name, last.ctype, values)])


@pytest.mark.parametrize("workload", ["tpch_host", "tpch_aquoman"])
def test_perturbed_result_counts_as_failure(workload, monkeypatch, capsys):
    honest = wl.WORKLOADS[workload]

    def lying(catalog, n, tracer=None):
        outcome = honest.run(catalog, n, tracer)
        if n == 6:
            outcome.table = _perturbed(outcome.table)
        return outcome

    monkeypatch.setitem(
        wl.WORKLOADS, workload, dataclasses.replace(honest, run=lying)
    )
    assert run.main([
        "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
        "--sf", str(SMALL_SF),
    ]) == 0
    out = capsys.readouterr().out
    result = _result(out)
    assert result["correct"] is False
    assert result["failed"] >= 1  # q06 fails on every timed pass
    assert result["failed"] == out.count(f"FAIL {workload} q06:")


def test_digest_covers_values_kind_and_scale():
    table = Table("t", [Column("a", DECIMAL, np.array([1, 2]))])
    base = check.table_digest(table)
    assert check.table_digest(_perturbed(table)) != base
    as_int = Table("t", [Column("a", INT64, np.array([1, 2]))])
    assert check.table_digest(as_int) != base


def test_stored_digests_cover_all_queries():
    stored = check.load_digests(wl.SF, DEFAULT_SEED)
    assert sorted(stored) == list(wl.QUERIES)


def test_model_count_drift_fails_loudly():
    counts = check.ModelCounts(seed=1)
    counts.observe(1, 4096)
    counts.observe(1, 4096)
    with pytest.raises(check.ModelDrift, match="q01"):
        counts.observe(1, 8192)


def test_modeled_metrics_never_carry_wall_time_names():
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            name, unit = metric["name"], metric["unit"]
            if name.startswith("model."):
                assert unit not in run.TIME_UNITS, name
                assert not name.endswith(("_s", "_ms")), name


def test_self_time_counts_parallel_children_once():
    ms = 1_000_000
    records = [
        (1, 0, "morsel.run", 0, 10 * ms, "q"),
        (2, 1, "morsel.span", 1 * ms, 6 * ms, "q"),   # two workers, overlapping
        (3, 1, "morsel.span", 2 * ms, 8 * ms, "q"),
        (4, 2, "expr.evaluate", 2 * ms, 3 * ms, "q"),
    ]
    assert layers.self_times(records) == [3 * ms, 4 * ms, 6 * ms, 1 * ms]
    assert layers.covered_ns(records, [("q", 0, 20 * ms)]) == 10 * ms


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        wl.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _cli(
        "--workload", "tpch_host", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
