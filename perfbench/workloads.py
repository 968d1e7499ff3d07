"""The three execution paths the benchmark times, and their set-up.

Every path runs one TPC-H query the way ``repro query`` does: build the
plan with ``tpch.query(n)``, construct the executor, run it to a
decoded table.  Set-up builds the SF catalog with ``tpch.generate``;
``tpch_morsel`` additionally writes it with ``save_catalog`` and maps it
back with ``load_catalog``, so its scans read mmapped column files.

Importing this module puts the checkout's ``src/`` first on
``sys.path`` and refuses any other copy of ``repro``: the benchmark
measures the source tree it sits in, never an installed package.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Run-time output (catalog files, span dumps); ignored by git.
WORK = ROOT / ".bench_build" / "perfbench"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no source tree at {SRC}")
sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != SRC / "repro":
    raise SystemExit(
        f"perfbench: imported repro from {repro.__file__}, not {SRC}"
    )

from repro import tpch  # noqa: E402
from repro.core import AquomanSimulator  # noqa: E402
from repro.core.device import DeviceConfig  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.engine.morsel import TUNED_MORSEL_ROWS, MorselConfig  # noqa: E402
from repro.storage import io as storage_io  # noqa: E402
from repro.util.units import GB  # noqa: E402

SF = 0.1
TARGET_SF = 1000.0
MORSEL_WORKERS = 2
QUERIES: tuple[int, ...] = tuple(tpch.ALL_QUERIES)


def qname(n: int) -> str:
    return f"q{n:02d}"


@dataclass
class Outcome:
    """One query execution: the decoded table plus what the path reports."""

    table: Any
    trace: Any                 # the run's QueryTrace (modeled data flow)
    sim: Any = None            # SimulationResult on tpch_aquoman

    @property
    def model_flash_bytes(self) -> int:
        """Modeled flash bytes: device-streamed on the simulator, the
        host's (page-skipped) column reads on the engine paths."""
        if self.sim is not None:
            return self.trace.aquoman_flash_bytes
        return self.trace.total_flash_bytes


def run_host(catalog, n: int, tracer=None) -> Outcome:
    plan = tpch.query(n)
    engine = Engine(catalog, tracer=tracer)
    table = engine.execute(plan)
    return Outcome(table, engine.trace)


def run_morsel(catalog, n: int, tracer=None) -> Outcome:
    plan = tpch.query(n)
    engine = Engine(
        catalog,
        morsels=MorselConfig(
            worker_backend="thread",
            n_workers=MORSEL_WORKERS,
            morsel_rows=TUNED_MORSEL_ROWS,
        ),
        tracer=tracer,
    )
    table = engine.execute(plan)
    return Outcome(table, engine.trace)


def run_aquoman(catalog, n: int, tracer=None) -> Outcome:
    plan = tpch.query(n)
    config = DeviceConfig(
        dram_bytes=40 * GB, scale_ratio=TARGET_SF / catalog.scale_factor
    )
    sim = AquomanSimulator(catalog, config, tracer=tracer)
    result = sim.run(plan, query=qname(n))
    return Outcome(result.table, result.trace, result)


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[..., Outcome]
    on_disk: bool           # save + mmap-load the catalog during set-up
    compare: str            # "digest" (bit-exact columns) | "equals" (Table.equals)
    workers: int = 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("tpch_host", run_host, on_disk=False, compare="digest"),
        Workload(
            "tpch_morsel", run_morsel, on_disk=True, compare="digest",
            workers=MORSEL_WORKERS,
        ),
        Workload("tpch_aquoman", run_aquoman, on_disk=False, compare="equals"),
    )
}


def set_up(workload: Workload, sf: float, seed: int, directory: Path):
    """Build the catalog the workload's queries run against.

    ``directory`` (used by on-disk workloads) must not exist yet.
    Module attributes are looked up at call time, so the traced run's
    wrappers around ``tpch.generate`` and the storage entry points see
    these calls.
    """
    catalog = tpch.generate(sf, seed)
    if not workload.on_disk:
        return catalog
    storage_io.save_catalog(catalog, directory)
    return storage_io.load_catalog(directory)


def bytes_on_disk(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def reference_table(catalog, n: int):
    """The monolithic host engine's answer, the comparison baseline."""
    return Engine(catalog).execute(tpch.query(n))

