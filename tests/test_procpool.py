"""The shared morsel thread pool: parity, fault determinism, sharing.

The pool's contract is that it is *invisible* except for speed: all 22
TPC-H queries bit-identical to the serial backend, and fault campaigns
reproducing the exact same counters and events whatever the worker
count (placement is pure ``(seed, site)``).
"""

import gc
import weakref

import numpy as np
import pytest

from repro import tpch
from repro.engine import Engine, MorselConfig
from repro.engine import procpool
from repro.engine.morsel import (
    MAX_FRAGMENT_MORSELS,
    MORSEL_ALIGN_ROWS,
    TUNED_MORSEL_ROWS,
)
from repro.faults.errors import UnrecoverableFault
from repro.faults.injector import FaultInjector, set_fault_injector
from repro.faults.plan import FaultConfig, FaultPlan

CHAOS = FaultConfig(
    page_error_rate=0.02,
    latency_spike_rate=0.05,
    worker_crash_rate=0.2,
    channel_stall_rate=0.25,
)


def _engine(db, backend, workers=2, morsel_rows=8192, tracer=None):
    return Engine(
        db,
        tracer=tracer,
        morsels=MorselConfig(
            parallel=True,
            morsel_rows=morsel_rows,
            n_workers=workers,
            worker_backend=backend,
        ),
    )


def assert_identical(a, b):
    assert a.names == b.names
    assert a.nrows == b.nrows
    for name in b.names:
        x, y = a.column(name), b.column(name)
        assert x.kind is y.kind, name
        assert x.scale == y.scale, name
        assert np.array_equal(x.values, y.values), name


class TestBackendDifferential:
    """All 22 queries bit-identical across serial and thread."""

    @pytest.fixture(scope="class")
    def serial(self, small_db):
        return {
            n: _engine(small_db, "serial").execute_relation(tpch.query(n))
            for n in tpch.ALL_QUERIES
        }

    @pytest.mark.parametrize("backend", ["thread"])
    @pytest.mark.parametrize("n", sorted(tpch.ALL_QUERIES))
    def test_query(self, small_db, serial, n, backend):
        out = _engine(small_db, backend).execute_relation(tpch.query(n))
        assert_identical(out, serial[n])


class TestFaultDeterminism:
    """(seed, site) placement makes chaos identical across backends
    and worker counts."""

    def _run(self, db, backend, seed, workers=4, query=6):
        injector = FaultInjector(FaultPlan(seed, CHAOS))
        set_fault_injector(injector)
        try:
            out = _engine(db, backend, workers=workers).execute_relation(
                tpch.query(query)
            )
        finally:
            set_fault_injector(None)
        return out, injector

    @pytest.mark.parametrize("seed", [0, 7])
    def test_summary_and_events_match_thread(self, small_db, seed):
        thread_out, thread_inj = self._run(small_db, "thread", seed)
        serial_out, serial_inj = self._run(small_db, "serial", seed)
        assert serial_inj.summary() == thread_inj.summary()
        assert serial_inj.sorted_events() == thread_inj.sorted_events()
        assert_identical(serial_out, thread_out)

    def test_worker_count_does_not_move_faults(self, small_db):
        _, one = self._run(small_db, "thread", 3, workers=1)
        _, four = self._run(small_db, "thread", 3, workers=4)
        assert one.summary() == four.summary()
        assert one.sorted_events() == four.sorted_events()

    def test_budget_exhaustion_raises_through_the_pool(self, small_db):
        config = FaultConfig(worker_crash_rate=1.0, retry_budget=2)
        injector = FaultInjector(FaultPlan(0, config))
        set_fault_injector(injector)
        try:
            with pytest.raises(UnrecoverableFault) as exc:
                _engine(small_db, "thread", workers=4).execute_relation(
                    tpch.query(6)
                )
        finally:
            set_fault_injector(None)
        assert exc.value.site.startswith("morsel/lineitem/")
        # every span still charged its crashes before the raise: the
        # pool runs every submitted span before re-raising
        assert injector.counts["worker_crashes"] > 0
        assert injector.counts["morsel_retries"] > 0

    def test_campaign_report_identical_across_backends(self, small_db):
        from repro.faults.chaos import run_campaign

        reports = {
            backend: run_campaign(
                [6, 14], [0, 1], CHAOS, sf=0.01, backend=backend
            )
            for backend in ("serial", "thread")
        }
        assert reports["serial"]["backend"] == "serial"
        assert reports["thread"]["backend"] == "thread"
        for s, t in zip(reports["serial"]["runs"],
                        reports["thread"]["runs"]):
            assert s == t


class TestSpanClamp:
    def test_small_tables_keep_their_spans(self):
        # below the clamp, spans_for == split_morsels: existing fault
        # sites (morsel/{table}/{lo}-{hi}) stay byte-identical
        config = MorselConfig(morsel_rows=8192)
        assert config.spans_for(59_870) == [
            (lo, min(lo + 8192, 59_870)) for lo in range(0, 59_870, 8192)
        ]

    def test_huge_tables_clamp_to_bounded_fanout(self):
        config = MorselConfig(morsel_rows=8192)
        spans = config.spans_for(10_000_000)
        assert len(spans) <= MAX_FRAGMENT_MORSELS
        assert spans[0][0] == 0 and spans[-1][1] == 10_000_000
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo
        for lo, _ in spans:
            assert lo % MORSEL_ALIGN_ROWS == 0

    def test_clamp_is_worker_count_independent(self):
        # fault sites are span-named; the clamp must not move when the
        # worker count does
        a = MorselConfig(morsel_rows=8192, n_workers=1)
        b = MorselConfig(morsel_rows=8192, n_workers=16)
        assert a.spans_for(10_000_000) == b.spans_for(10_000_000)

    def test_tuned_default_is_aligned(self):
        assert TUNED_MORSEL_ROWS % MORSEL_ALIGN_ROWS == 0


class TestMappedCatalog:
    def test_disk_catalog_through_thread_backend(self, tmp_path, tiny_db):
        from repro.storage.io import load_catalog, save_catalog

        save_catalog(tiny_db, tmp_path)
        loaded = load_catalog(tmp_path)
        ref = _engine(loaded, "serial").execute_relation(tpch.query(6))
        out = _engine(loaded, "thread").execute_relation(tpch.query(6))
        assert_identical(out, ref)


class TestThreadPoolSharing:
    def test_pool_is_persistent_per_worker_count(self):
        assert procpool.get_thread_pool(3) is procpool.get_thread_pool(3)
        assert procpool.get_thread_pool(3) is not procpool.get_thread_pool(2)

    def test_round_robin_is_deterministic(self):
        # item i always lands on worker i % n — lane attribution (and
        # any test asserting worker fan-out) must not depend on which
        # thread wakes first
        import threading

        pool = procpool.SpanThreadPool(2)
        try:
            names = pool.map(
                lambda _: threading.current_thread().name, range(6)
            )
            assert names == [
                "morsel-worker_0", "morsel-worker_1",
            ] * 3
        finally:
            pool.shutdown()

    def test_map_runs_every_item_before_raising(self):
        ran = []

        def work(i):
            ran.append(i)
            if i == 0:
                raise ValueError("first")
            return i

        pool = procpool.SpanThreadPool(2)
        try:
            with pytest.raises(ValueError, match="first"):
                pool.map(work, range(5))
        finally:
            pool.shutdown()
        assert sorted(ran) == [0, 1, 2, 3, 4]

    def test_map_releases_items_and_closure(self):
        # An idle worker must not pin the last item it ran: the morsel
        # engine's items and closures hold whole fragment inputs.
        class Payload:
            pass

        item, captured = Payload(), Payload()
        refs = [weakref.ref(item), weakref.ref(captured)]
        pool = procpool.get_thread_pool(2)
        assert pool.map(lambda x: x is not captured, [item]) == [True]
        del item, captured
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
