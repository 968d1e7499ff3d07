"""Wall-clock TPC-H benchmark: 22 queries, closed loop, three paths.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpch_host --seed 7 --seconds 15 --trace 0

One client runs the 22 TPC-H queries back to back (TPC-H's power-test
shape: the next query starts when the previous one returns) at SF 0.1
on the workload's execution path, for ``--seconds`` seconds of passes,
and checks every result.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs untraced, traced and obs-enabled passes side by side
and reports the per-layer metrics, writing the spans and the per-layer
self-time table under ``.bench_build/perfbench/``.  The last line of
standard output is one JSON object; metric names and units are those of
``BENCHMARK.json`` at the repository root.

Modeled quantities appear only under ``model.`` names and in count
units; a ``model.`` count that differs between two runs of the same
seed stops the benchmark with an error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads as wl
from check import Expectation, ModelCounts

from repro.tpch.dbgen import DEFAULT_SEED

BENCHMARK = wl.ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
TIME_UNITS = ("s", "ms")


@dataclass
class Pass:
    """One closed-loop pass over the 22 queries."""

    times: dict[int, float] = field(default_factory=dict)   # s, checked OK
    windows: list[tuple[str, int, int]] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum((hi - lo) for _q, lo, hi in self.windows) / 1e9


class Runner:
    """Runs checked passes of one workload over one catalog."""

    def __init__(self, workload: wl.Workload, catalog, expect: Expectation,
                 model: ModelCounts):
        self.workload = workload
        self.catalog = catalog
        self.expect = expect
        self.model = model
        self.attempted = 0
        self.failed = 0
        self.n_passes = 0

    def run_pass(self, modes: tuple[str, ...] = ("plain",),
                 log: layers.SpanLog | None = None,
                 queries: tuple[int, ...] = wl.QUERIES) -> dict[str, Pass]:
        """One pass over the queries, each run once per mode in turn.

        ``plain`` runs untraced, ``traced`` inside ``layers.instrument``
        (spans into ``log``), ``obs`` with the repo's own ``Tracer`` and
        an installed ``QueryLog``.  Running the modes back to back per
        query pairs them in time, so drift between passes cancels out of
        their ratios.  Each execution is timed from plan build to
        decoded table and checked afterwards.
        """
        from repro.obs import QueryLog

        gc.collect()
        self.n_passes += 1
        qlog = QueryLog(None) if "obs" in modes else None
        passes = {mode: Pass() for mode in modes}
        outcomes: dict[str, list] = {mode: [] for mode in modes}
        for n in queries:
            for mode in modes:
                qid = f"{self.n_passes}.{mode}.{wl.qname(n)}"
                outcome = self._execute(n, mode, qid, log, qlog, passes[mode])
                if outcome is not None:
                    outcomes[mode].append(outcome)
        if qlog is not None:
            qlog.close()
        for mode, done in outcomes.items():
            passes[mode].counts = outcome_counts(done)
        return passes

    def _execute(self, n: int, mode: str, qid: str, log, qlog,
                 into: Pass) -> wl.Outcome | None:
        from repro.obs import Tracer, set_query_log

        self.attempted += 1
        with contextlib.ExitStack() as stack:
            if mode == "traced":
                log.query = qid
                stack.enter_context(layers.instrument(log))
            if mode == "obs":
                set_query_log(qlog)
                stack.callback(set_query_log, None)
            tracer = Tracer() if mode == "obs" else None
            start = time.perf_counter_ns()
            try:
                outcome = self.workload.run(self.catalog, n, tracer)
            except Exception as exc:  # counted and reported; the run goes on
                self._fail(n, f"raised {type(exc).__name__}: {exc}")
                return None
            end = time.perf_counter_ns()
        into.windows.append((qid, start, end))
        problem = self.expect.problem(n, outcome.table)
        if problem is not None:
            self._fail(n, problem)
            return None
        self.model.observe(n, outcome.model_flash_bytes)
        into.times[n] = (end - start) / 1e9
        return outcome

    def _fail(self, n: int, why: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload.name} {wl.qname(n)}: {why}", flush=True)


def outcome_counts(outcomes: list[wl.Outcome]) -> dict[str, float]:
    """Counts read from what the executors returned (not from spans)."""
    pages_read = sum(sum(o.trace.flash_pages_read.values()) for o in outcomes)
    pages_skipped = sum(o.trace.total_pages_skipped for o in outcomes)
    sims = [o.sim for o in outcomes if o.sim is not None]
    return {
        "morsel.pages_read": pages_read,
        "morsel.pages_skipped": pages_skipped,
        "morsel.skip_ratio": (
            pages_skipped / (pages_read + pages_skipped)
            if pages_read + pages_skipped else 0.0
        ),
        "compiler.offload_roots": sum(
            len(unit.offload_roots())
            for s in sims for unit in s.compiled.flatten()
        ),
        "simulator.suspensions": sum(len(s.suspend_reasons) for s in sims),
        "simulator.offload_fraction_rows": (
            statistics.fmean(s.trace.offload_fraction_rows for s in sims)
            if sims else 0.0
        ),
        "model.flash_bytes": sum(o.model_flash_bytes for o in outcomes),
    }


def timed_rounds(seconds: float, round_fn) -> list:
    """Start ``round_fn`` again until ``seconds`` have passed (at least once)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(round_fn())
    return rounds


def catalog_dir() -> Path:
    return wl.WORK / f"catalog-{os.getpid()}"


def set_up_catalog(workload: wl.Workload, sf: float, seed: int):
    """One timed set-up; returns (catalog, seconds)."""
    directory = catalog_dir()
    shutil.rmtree(directory, ignore_errors=True)
    start = time.perf_counter()
    catalog = wl.set_up(workload, sf, seed, directory)
    return catalog, time.perf_counter() - start


def per_query_median_ms(passes: list[Pass]) -> dict[int, float]:
    return {
        n: statistics.median(p.times[n] for p in passes if n in p.times) * 1e3
        for n in wl.QUERIES
        if any(n in p.times for p in passes)
    }


# -- end-to-end ---------------------------------------------------------------


def end_to_end(workload: wl.Workload, sf: float, seed: int,
               seconds: float) -> tuple[dict, Runner]:
    """Set up three times; after each set-up run a third of the passes.

    Interleaving spreads the timed passes over the whole run, so they
    average the shared machine's speed drift over about twice the wall
    time a single block of passes would.
    """
    setups: list[float] = []
    passes: list[Pass] = []
    runner = None
    timed_s = 0.0
    for k in range(1, SETUP_REPEATS + 1):
        # The previous catalog is garbage before the next set-up.
        catalog = None
        if runner is not None:
            runner.catalog = None
        gc.collect()
        catalog, took = set_up_catalog(workload, sf, seed)
        setups.append(took)
        if runner is None:
            # The expectation's untimed host pass is also the warm-up.
            runner = Runner(
                workload, catalog, Expectation(catalog, sf, seed, workload),
                ModelCounts(seed),
            )
        runner.catalog = catalog
        # At least one pass per set-up; no pass that would overrun
        # this set-up's share of ``seconds``.
        budget_s = seconds * k / SETUP_REPEATS
        while True:
            done = runner.run_pass()["plain"]
            passes.append(done)
            timed_s += done.seconds
            if timed_s + done.seconds > budget_s:
                break

    samples_ms = [t * 1e3 for p in passes for t in p.times.values()]
    medians = per_query_median_ms(passes)
    deciles = statistics.quantiles(samples_ms, n=10, method="inclusive")
    p50, p90 = deciles[4], deciles[8]
    metrics = {
        "queries_per_s": (len(medians) / (sum(medians.values()) / 1e3), "1/s"),
        "geomean_ms": (
            math.exp(statistics.fmean(math.log(v) for v in medians.values())),
            "ms",
        ),
        "query_ms_p50": (p50, "ms"),
        "query_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    above = sum(1 for v in samples_ms if v > p90)
    print(
        f"{workload.name} seed={seed} sf={sf}: {len(passes)} timed passes, "
        f"{len(samples_ms)} query executions ({above} above p90); "
        f"pass s {' '.join(f'{p.seconds:.3f}' for p in passes)}; "
        f"set-up s {' '.join(f'{s:.3f}' for s in setups)}"
    )
    return metrics, runner


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- traced run ---------------------------------------------------------------


MODES = ("plain", "traced", "obs")


def traced(workload: wl.Workload, sf: float, seed: int,
           seconds: float) -> tuple[dict, Runner]:
    log = layers.SpanLog()
    log.query = "setup"
    with layers.instrument(log):
        catalog, _ = set_up_catalog(workload, sf, seed)
    setup_table = layers.layer_table(log.records)
    bytes_written = (
        wl.bytes_on_disk(catalog_dir()) if workload.on_disk else 0
    )
    runner = Runner(
        workload, catalog, Expectation(catalog, sf, seed, workload),
        ModelCounts(seed),
    )
    # Warm the span wrappers and the obs tracer/log; spans discarded.
    runner.run_pass(MODES, layers.SpanLog(), queries=(6,))

    def one_round():
        first = len(log.records)
        passes = runner.run_pass(MODES, log)
        return passes, log.records[first:]

    rounds = timed_rounds(seconds, one_round)
    per_round = [
        pass_layer_metrics(workload, passes["traced"], records)
        for passes, records in rounds
    ]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_round), unit)
        for name, (_value, unit) in per_round[0].items()
    }
    plain = [passes["plain"] for passes, _records in rounds]
    plain_s = sum(p.seconds for p in plain)
    metrics.update({
        "dbgen.generate_s": (setup_table["dbgen.generate"]["self_s"], "s"),
        "storage.save_s": (setup_table["storage.save"]["self_s"], "s"),
        "storage.load_s": (setup_table["storage.load"]["self_s"], "s"),
        "storage.bytes_written": (bytes_written, "bytes"),
        "bench.trace_overhead_frac": (
            sum(p["traced"].seconds for p, _r in rounds) / plain_s - 1, "1",
        ),
        "obs.enabled_overhead_frac": (
            sum(p["obs"].seconds for p, _r in rounds) / plain_s - 1, "1",
        ),
        "failed_frac": (runner.failed / runner.attempted, "1"),
    })
    medians = per_query_median_ms(plain)
    for n in wl.QUERIES:
        metrics[f"query.{wl.qname(n)}_ms"] = (
            medians.get(n, float("nan")), "ms",
        )
    dump_trace(workload, sf, seed, rounds, log.records, setup_table)
    return metrics, runner


def pass_layer_metrics(workload: wl.Workload, spanned: Pass,
                       records) -> dict[str, tuple[float, str]]:
    table = layers.layer_table(records)

    def self_s(layer):
        return table[layer]["self_s"]

    run_s = table["morsel.run"]["incl_s"]
    busy_s = table["morsel.span"]["incl_s"]
    window_ns = sum(hi - lo for _q, lo, hi in spanned.windows)
    counts = spanned.counts
    return {
        "expr.evaluate_s": (self_s("expr.evaluate"), "s"),
        "expr.evaluate_calls": (table["expr.evaluate"]["calls"], "count"),
        "operators.join_s": (self_s("operators.join"), "s"),
        "operators.group_s": (self_s("operators.group"), "s"),
        "operators.sort_s": (self_s("operators.sort"), "s"),
        "executor.self_s": (self_s("executor.execute"), "s"),
        "morsel.run_s": (run_s, "s"),
        "morsel.fragments": (table["morsel.run"]["calls"], "count"),
        "morsel.spans": (table["morsel.span"]["calls"], "count"),
        "morsel.span_busy_s": (busy_s, "s"),
        "morsel.pages_read": (counts["morsel.pages_read"], "count"),
        "morsel.pages_skipped": (counts["morsel.pages_skipped"], "count"),
        "morsel.skip_ratio": (counts["morsel.skip_ratio"], "1"),
        "procpool.busy_frac": (
            busy_s / (run_s * workload.workers) if run_s else 0.0, "1",
        ),
        "compiler.compile_s": (self_s("compiler.compile"), "s"),
        "compiler.offload_roots": (counts["compiler.offload_roots"], "count"),
        "simulator.device_s": (self_s("simulator.device"), "s"),
        "simulator.host_s": (self_s("simulator.run"), "s"),
        "simulator.suspensions": (counts["simulator.suspensions"], "count"),
        "simulator.offload_fraction_rows": (
            counts["simulator.offload_fraction_rows"], "1",
        ),
        "device.charge_s": (self_s("device.charge"), "s"),
        "device.charge_calls": (table["device.charge"]["calls"], "count"),
        "model.flash_bytes": (counts["model.flash_bytes"], "bytes"),
        "bench.attributed_frac": (
            layers.covered_ns(records, spanned.windows) / window_ns
            if window_ns else 0.0,
            "1",
        ),
    }


def dump_trace(workload, sf, seed, rounds, records, setup_table) -> None:
    """Write every span plus the per-layer self-time table."""
    n = len(rounds)
    traced_passes = [passes["traced"] for passes, _records in rounds]
    pass_s = statistics.fmean(p.seconds for p in traced_passes)
    pass_records = [r for _passes, records in rounds for r in records]
    layer_rows = {
        layer: {k: v / n for k, v in row.items()}
        for layer, row in layers.layer_table(pass_records).items()
    }
    covered_s = sum(
        layers.covered_ns(records, passes["traced"].windows)
        for passes, records in rounds
    ) / 1e9 / n
    doc = {
        "workload": workload.name,
        "seed": seed,
        "sf": sf,
        "traced_passes": n,
        "traced_pass_s": pass_s,
        "layers_per_pass": layer_rows,
        "unattributed_s_per_pass": pass_s - covered_s,
        "setup_layers": setup_table,
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "query"],
        "spans": records,
    }
    wl.WORK.mkdir(parents=True, exist_ok=True)
    out = wl.WORK / f"trace-{workload.name}-seed{seed}.json"
    out.write_text(json.dumps(doc))
    # Self times of spans on parallel workers can sum past the pass time.
    print(f"self time per traced pass ({pass_s:.3f} s), {workload.name}:")
    for layer, row in sorted(
        layer_rows.items(), key=lambda kv: -kv[1]["self_s"]
    ):
        if row["calls"]:
            print(
                f"  {layer:<18} {row['self_s']:9.4f} s self "
                f"{row['self_s'] / pass_s:6.1%}  {row['calls']:8.0f} calls"
            )
    print(f"  {'(unattributed)':<18} {pass_s - covered_s:9.4f} s")
    print(f"spans written to {out}")


# -- output -------------------------------------------------------------------


def checked_metrics(metrics: dict[str, tuple[float, str]],
                    section: str) -> dict:
    """The metrics as printed, after checking them against BENCHMARK.json."""
    spec = {
        m["name"]: m["unit"]
        for m in json.loads(BENCHMARK.read_text())[section]
    }
    if set(spec) != set(metrics):
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(spec) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(spec))}"
        )
    out = {}
    for name, (value, unit) in metrics.items():
        if unit != spec[name]:
            raise RuntimeError(f"{name}: unit {unit}, BENCHMARK.json {spec[name]}")
        if name.startswith("model.") and unit in TIME_UNITS:
            raise RuntimeError(f"{name}: a modeled count in a wall-time unit")
        out[name] = {"value": value, "unit": unit}
    return out


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sf", type=float, default=wl.SF,
                        help="scale factor (the benchmark's is 0.1)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    try:
        metrics, runner = measure(workload, args.sf, args.seed, args.seconds)
    finally:
        shutil.rmtree(catalog_dir(), ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": checked_metrics(metrics, section),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
