"""Result checks: stored SHA-256 digests, reference tables, model counts.

At the default seed and SF a query's result must match the per-column
SHA-256 digests in ``digests.json`` (values, kind and decimal scale).
At any other seed or SF the expected result is the monolithic host
``Engine``'s, computed before timing starts.  ``tpch_aquoman`` compares
with ``Table.equals``, the check behind ``repro query``'s ``match=``.

Regenerate the stored digests (only when the query semantics change on
purpose) with::

    python3 perfbench/check.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import QUERIES, SF, Workload, qname, reference_table

from repro.storage.types import TypeKind
from repro.tpch.dbgen import DEFAULT_SEED

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def digest_key(sf: float, seed: int) -> str:
    return f"sf={sf!r},seed={seed}"


def table_digest(table) -> list[str]:
    """Per column: "name kind scale sha256" over the column's values.

    String columns hash their decoded text, so the digest does not
    depend on heap code assignment.
    """
    out = []
    for column in table.columns:
        kind = column.ctype.kind
        if kind is TypeKind.CHAR:
            payload = "\x00".join(column.logical()).encode()
        else:
            payload = column.values.tobytes()
        scale = 2 if kind is TypeKind.DECIMAL else 0
        digest = hashlib.sha256(payload).hexdigest()
        out.append(f"{column.name} {kind.value} {scale} {digest}")
    return out


def load_digests(sf: float, seed: int) -> dict[int, list[str]] | None:
    stored = json.loads(DIGESTS.read_text()).get(digest_key(sf, seed))
    if stored is None:
        return None
    return {int(q[1:]): cols for q, cols in stored.items()}


class Expectation:
    """What each query must return on one catalog.

    Building it runs the 22 queries once on the host engine, untimed;
    that pass also warms what the timed passes share (query modules,
    mmapped pages, allocator).
    """

    def __init__(self, catalog, sf: float, seed: int, workload: Workload):
        self.compare = workload.compare
        self.tables = {n: reference_table(catalog, n) for n in QUERIES}
        stored = load_digests(sf, seed)
        self.source = "stored digests" if stored else "host reference"
        if stored is None:
            stored = {n: table_digest(t) for n, t in self.tables.items()}
        self.digests = stored
        # Queries whose host reference disagrees with the stored digest:
        # a Table.equals match against it proves nothing.
        self.bad_reference = {
            n for n, t in self.tables.items() if table_digest(t) != stored[n]
        }

    def problem(self, n: int, table) -> str | None:
        """None when ``table`` is query ``n``'s correct result."""
        if self.compare == "digest":
            if table_digest(table) != self.digests[n]:
                return f"digest mismatch ({self.source})"
            return None
        if n in self.bad_reference:
            return "host reference disagrees with the stored digest"
        expected = self.tables[n]
        if not expected.equals(table.renamed(expected.name)):
            return "Table.equals mismatch against the host reference"
        return None


class ModelDrift(RuntimeError):
    """A modeled count changed between two runs of the same input."""


class ModelCounts:
    """Modeled counts per query, which must repeat exactly on every pass."""

    def __init__(self, seed: int):
        self.seed = seed
        self.first: dict[int, int] = {}

    def observe(self, n: int, flash_bytes: int) -> None:
        expected = self.first.setdefault(n, flash_bytes)
        if flash_bytes != expected:
            raise ModelDrift(
                f"model.flash_bytes of {qname(n)} at seed {self.seed} "
                f"changed between runs: {expected} then {flash_bytes}"
            )


def write_digests() -> None:
    from repro import tpch

    catalog = tpch.generate(SF, DEFAULT_SEED)
    table = {
        qname(n): table_digest(reference_table(catalog, n))
        for n in QUERIES
    }
    doc = {digest_key(SF, DEFAULT_SEED): table}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} query digests to {DIGESTS}")


if __name__ == "__main__":
    write_digests()
