"""Trace-diff: attribute the delta between two query-log runs.

``python -m repro tracediff <run-a.jsonl> <run-b.jsonl>`` aligns two
runs' wide events by **plan fingerprint** (the structural digest from
:func:`repro.obs.context.plan_fingerprint` — stable across processes,
backends and machines), then explains where the time went:

1. Per aligned fingerprint, take the median ``wall_ms`` and the median
   per-bucket critical-path milliseconds on each side (medians resist
   one-off scheduler noise the same way ``repro perf diff`` does).
2. The per-bucket deltas *sum to the critical-path delta by
   construction* (buckets partition the path, the path spans the root
   window), so "thread is slower than serial" decomposes into "+3.1ms
   host, +0.8ms flash_io" instead of a bare total.
3. Span-prefix attribution (``morsel.*``, ``engine.*``, ``device.*``)
   from each event's ``top_spans`` names the code that moved.

Alignment rules: events missing on either side are reported, never
silently dropped; multiple events with one fingerprint (several seeds,
several backends in one log) aggregate by median; an event without a
``critpath`` section still contributes its wall time but attributes
nothing.

Layering: reads JSONL only — no engine imports — so it can diff runs
from other checkouts and CI artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Iterable

from repro.obs.critpath import BUCKETS

__all__ = [
    "RunSummary",
    "TraceDiff",
    "DiffEntry",
    "diff_runs",
    "load_wide_events",
    "summarize",
]

# A delta smaller than both bands is noise, not a regression.
DEFAULT_REL_BAND = 0.10     # 10% of the baseline wall time
DEFAULT_ABS_BAND_MS = 0.5   # absolute floor for tiny queries


def load_wide_events(path: str) -> list[dict[str, Any]]:
    """Parse a query-log JSONL file (ignoring blank lines)."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


@dataclass
class RunSummary:
    """One side's per-fingerprint aggregate."""

    query: str
    n_events: int
    wall_ms: float
    path_ms: float | None
    buckets: dict[str, float]        # bucket -> median ms
    prefixes: dict[str, float]       # span prefix -> median ms


def _span_prefix(name: str) -> str:
    return name.split(".", 1)[0] + ".*" if "." in name else name


def summarize(
    events: Iterable[dict[str, Any]],
) -> dict[str, RunSummary]:
    """Aggregate events by fingerprint (median over repeats)."""
    by_fp: dict[str, list[dict]] = {}
    for event in events:
        by_fp.setdefault(event["fingerprint"], []).append(event)

    out: dict[str, RunSummary] = {}
    for fp, group in by_fp.items():
        walls = [float(e["wall_ms"]) for e in group]
        with_cp = [e for e in group if e.get("critpath")]
        paths = [float(e["critpath"]["path_ms"]) for e in with_cp]
        buckets: dict[str, float] = {}
        prefixes: dict[str, float] = {}
        if with_cp:
            for bucket in BUCKETS:
                vals = [
                    float(e["critpath"]["buckets"].get(bucket, 0.0))
                    for e in with_cp
                ]
                if any(vals):
                    buckets[bucket] = median(vals)
            prefix_vals: dict[str, list[float]] = {}
            for e in with_cp:
                per_event: dict[str, float] = {}
                for name, _bucket, ms in e["critpath"]["top_spans"]:
                    key = _span_prefix(name)
                    per_event[key] = per_event.get(key, 0.0) + float(ms)
                for key, ms in per_event.items():
                    prefix_vals.setdefault(key, []).append(ms)
            prefixes = {
                k: median(v) for k, v in prefix_vals.items()
            }
        out[fp] = RunSummary(
            query=group[0].get("query", ""),
            n_events=len(group),
            wall_ms=median(walls),
            path_ms=median(paths) if paths else None,
            buckets=buckets,
            prefixes=prefixes,
        )
    return out


@dataclass
class DiffEntry:
    """One aligned fingerprint's attribution."""

    fingerprint: str
    query: str
    wall_a_ms: float
    wall_b_ms: float
    bucket_delta_ms: dict[str, float]
    prefix_delta_ms: dict[str, float]
    path_delta_ms: float | None
    regression: bool

    @property
    def wall_delta_ms(self) -> float:
        return self.wall_b_ms - self.wall_a_ms

    @property
    def attributed_ms(self) -> float:
        return sum(self.bucket_delta_ms.values())


@dataclass
class TraceDiff:
    """The full diff of run B against run A."""

    entries: list[DiffEntry]
    only_a: list[str] = field(default_factory=list)  # fingerprints
    only_b: list[str] = field(default_factory=list)
    rel_band: float = DEFAULT_REL_BAND
    abs_band_ms: float = DEFAULT_ABS_BAND_MS

    @property
    def total_wall_delta_ms(self) -> float:
        return sum(e.wall_delta_ms for e in self.entries)

    @property
    def total_attributed_ms(self) -> float:
        return sum(e.attributed_ms for e in self.entries)

    @property
    def regressions(self) -> list[DiffEntry]:
        return [e for e in self.entries if e.regression]

    def to_dict(self) -> dict[str, Any]:
        return {
            "entries": [
                {
                    "fingerprint": e.fingerprint,
                    "query": e.query,
                    "wall_a_ms": round(e.wall_a_ms, 6),
                    "wall_b_ms": round(e.wall_b_ms, 6),
                    "wall_delta_ms": round(e.wall_delta_ms, 6),
                    "path_delta_ms": (
                        round(e.path_delta_ms, 6)
                        if e.path_delta_ms is not None else None
                    ),
                    "attributed_ms": round(e.attributed_ms, 6),
                    "buckets": {
                        k: round(v, 6)
                        for k, v in e.bucket_delta_ms.items()
                    },
                    "prefixes": {
                        k: round(v, 6)
                        for k, v in e.prefix_delta_ms.items()
                    },
                    "regression": e.regression,
                }
                for e in self.entries
            ],
            "only_a": self.only_a,
            "only_b": self.only_b,
            "total_wall_delta_ms": round(self.total_wall_delta_ms, 6),
            "total_attributed_ms": round(self.total_attributed_ms, 6),
            "n_regressions": len(self.regressions),
        }

    def format(self, top: int = 10) -> str:
        ranked = sorted(
            self.entries, key=lambda e: -abs(e.wall_delta_ms)
        )
        lines = [
            f"tracediff: {len(self.entries)} aligned fingerprints, "
            f"{len(self.regressions)} regressions "
            f"(bands: {self.rel_band:.0%} rel, "
            f"{self.abs_band_ms}ms abs)",
            f"  total wall delta {self.total_wall_delta_ms:+.2f}ms, "
            f"attributed {self.total_attributed_ms:+.2f}ms "
            "(critical-path buckets)",
        ]
        for entry in ranked[:top]:
            flag = " REGRESSION" if entry.regression else ""
            lines.append(
                f"  {entry.query or entry.fingerprint:<8} "
                f"{entry.wall_a_ms:9.2f}ms -> {entry.wall_b_ms:9.2f}ms "
                f"({entry.wall_delta_ms:+8.2f}ms){flag}"
            )
            moved = sorted(
                entry.bucket_delta_ms.items(),
                key=lambda kv: -abs(kv[1]),
            )
            for bucket, delta in moved[:3]:
                if abs(delta) >= 0.001:
                    lines.append(f"      {bucket:<14} {delta:+9.2f}ms")
            hot = sorted(
                entry.prefix_delta_ms.items(),
                key=lambda kv: -abs(kv[1]),
            )
            for prefix, delta in hot[:2]:
                if abs(delta) >= 0.001:
                    lines.append(f"      {prefix:<14} {delta:+9.2f}ms")
        if self.only_a:
            lines.append(
                f"  only in A: {len(self.only_a)} fingerprints"
            )
        if self.only_b:
            lines.append(
                f"  only in B: {len(self.only_b)} fingerprints"
            )
        return "\n".join(lines)


def diff_runs(
    events_a: Iterable[dict[str, Any]],
    events_b: Iterable[dict[str, Any]],
    rel_band: float = DEFAULT_REL_BAND,
    abs_band_ms: float = DEFAULT_ABS_BAND_MS,
) -> TraceDiff:
    """Diff run B against baseline run A, aligned by fingerprint."""
    a = summarize(events_a)
    b = summarize(events_b)
    entries: list[DiffEntry] = []
    for fp in sorted(set(a) & set(b)):
        sa, sb = a[fp], b[fp]
        buckets = {
            bucket: sb.buckets.get(bucket, 0.0)
            - sa.buckets.get(bucket, 0.0)
            for bucket in BUCKETS
            if bucket in sa.buckets or bucket in sb.buckets
        }
        prefixes = {
            key: sb.prefixes.get(key, 0.0) - sa.prefixes.get(key, 0.0)
            for key in sorted(set(sa.prefixes) | set(sb.prefixes))
        }
        delta = sb.wall_ms - sa.wall_ms
        band = max(abs_band_ms, rel_band * sa.wall_ms)
        path_delta = (
            sb.path_ms - sa.path_ms
            if sa.path_ms is not None and sb.path_ms is not None
            else None
        )
        entries.append(DiffEntry(
            fingerprint=fp,
            query=sa.query or sb.query,
            wall_a_ms=sa.wall_ms,
            wall_b_ms=sb.wall_ms,
            bucket_delta_ms=buckets,
            prefix_delta_ms=prefixes,
            path_delta_ms=path_delta,
            regression=delta > band,
        ))
    return TraceDiff(
        entries=entries,
        only_a=sorted(set(a) - set(b)),
        only_b=sorted(set(b) - set(a)),
        rel_band=rel_band,
        abs_band_ms=abs_band_ms,
    )
