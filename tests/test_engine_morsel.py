"""Morsel streaming layer: splitting, fragment extraction, accounting.

The bit-for-bit differential against the monolithic engine lives in
``test_morsel_differential.py``; this file covers the pieces in
isolation — span arithmetic, which plans are (and are not) streamable,
channel striping, per-morsel page accounting, and per-fragment LIKE
matching.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine.morsel import (
    DEFAULT_MORSEL_ROWS,
    MORSEL_ALIGN_ROWS,
    MorselConfig,
    _SpanReads,
    extract_fragment,
    split_morsels,
)
from repro.flash import ChannelMeter
from repro.flash.nand import FlashConfig
from repro.sqlir import AggFunc, col, lit, scan
from repro.sqlir.expr import Like, ScalarSubquery
from repro.sqlir.plan import Scan
from repro.storage.layout import PAGE_BYTES, FlashLayout


class TestSplitMorsels:
    def test_even_split(self):
        assert split_morsels(100, 25) == [
            (0, 25), (25, 50), (50, 75), (75, 100)
        ]

    def test_ragged_tail(self):
        assert split_morsels(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_single_span(self):
        assert split_morsels(5, 100) == [(0, 5)]

    def test_spans_partition_exactly(self):
        spans = split_morsels(123_457, 8192)
        assert spans[0][0] == 0
        assert spans[-1][1] == 123_457
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo


class TestMorselConfig:
    def test_default_is_aligned(self):
        assert DEFAULT_MORSEL_ROWS % MORSEL_ALIGN_ROWS == 0
        assert MorselConfig().aligned_rows() == DEFAULT_MORSEL_ROWS

    def test_rounds_up_to_page_quantum(self):
        assert MorselConfig(morsel_rows=1).aligned_rows() == MORSEL_ALIGN_ROWS
        assert (
            MorselConfig(morsel_rows=MORSEL_ALIGN_ROWS + 1).aligned_rows()
            == 2 * MORSEL_ALIGN_ROWS
        )

    def test_alignment_covers_every_value_width(self):
        # A morsel boundary must be a page boundary for 1/2/4/8-byte
        # columns alike — that is what makes per-morsel page sets
        # disjoint and the skip accounting exactly additive.
        for width in (1, 2, 4, 8):
            assert MORSEL_ALIGN_ROWS % (PAGE_BYTES // width) == 0


class TestExtractFragment:
    """Which plan shapes stream, and which fall back to monolithic."""

    def _frag(self, plan, db):
        return extract_fragment(plan, db)

    def test_filter_chain_streams(self, tiny_db):
        plan = (
            scan("lineitem").filter(col("l_quantity") < lit(10)).plan
        )
        frag = self._frag(plan, tiny_db)
        assert frag is not None and frag.kind == "chain"
        assert isinstance(frag.scan, Scan)
        assert len(frag.steps) == 1

    def test_bare_scan_refused(self, tiny_db):
        assert self._frag(Scan("lineitem"), tiny_db) is None

    def test_int_sum_aggregate_streams(self, tiny_db):
        plan = (
            scan("lineitem")
            .aggregate(
                keys=("l_returnflag",),
                aggs=[
                    ("n", AggFunc.COUNT, None),
                    ("qty", AggFunc.SUM, col("l_quantity")),
                    ("mx", AggFunc.MAX, col("l_quantity")),
                ],
            )
            .plan
        )
        frag = self._frag(plan, tiny_db)
        assert frag is not None and frag.kind == "aggregate"

    def test_avg_refused(self, tiny_db):
        plan = (
            scan("lineitem")
            .aggregate(aggs=[("a", AggFunc.AVG, col("l_quantity"))])
            .plan
        )
        assert self._frag(plan, tiny_db) is None

    def test_count_distinct_refused(self, tiny_db):
        plan = (
            scan("lineitem")
            .aggregate(
                aggs=[("d", AggFunc.COUNT_DISTINCT, col("l_orderkey"))]
            )
            .plan
        )
        assert self._frag(plan, tiny_db) is None

    def test_float_sum_refused(self, tiny_db):
        # discount/extendedprice are scale-2 decimals; dividing promotes
        # to float, whose addition order must not change.
        plan = (
            scan("lineitem")
            .aggregate(
                aggs=[
                    (
                        "s",
                        AggFunc.SUM,
                        col("l_extendedprice") / col("l_quantity"),
                    )
                ]
            )
            .plan
        )
        assert self._frag(plan, tiny_db) is None

    def test_subquery_in_filter_refused(self, tiny_db):
        sub = ScalarSubquery(
            scan("lineitem")
            .aggregate(aggs=[("m", AggFunc.MAX, col("l_quantity"))])
            .plan
        )
        plan = scan("lineitem").filter(col("l_quantity") < sub).plan
        assert self._frag(plan, tiny_db) is None

    def test_join_root_refused(self, tiny_db):
        plan = (
            scan("lineitem")
            .join(scan("orders"), "l_orderkey", "o_orderkey")
            .plan
        )
        assert self._frag(plan, tiny_db) is None

    def test_sort_and_topk(self, tiny_db):
        sort_plan = (
            scan("lineitem")
            .filter(col("l_quantity") < lit(20))
            .sort("l_orderkey")
            .plan
        )
        frag = self._frag(sort_plan, tiny_db)
        assert frag is not None and frag.kind == "sort"

        topk = (
            scan("lineitem")
            .filter(col("l_quantity") < lit(20))
            .sort("l_orderkey")
            .limit(10)
            .plan
        )
        frag = self._frag(topk, tiny_db)
        assert frag is not None and frag.kind == "topk"


class TestChannelMeter:
    def test_striping_is_modular(self):
        meter = ChannelMeter()
        meter.record_pages(np.arange(16, dtype=np.int64))
        assert meter.total_pages == 16
        assert list(meter.pages_read) == [2] * meter.n_channels

    def test_skew(self):
        meter = ChannelMeter(FlashConfig(n_channels=4))
        meter.record_pages(np.zeros(8, dtype=np.int64))  # all on channel 0
        assert meter.max_channel_pages == 8
        assert meter.skew == pytest.approx(4.0)

    def test_range_matches_pages(self):
        a = ChannelMeter()
        b = ChannelMeter()
        a.record_range(13, 100)
        b.record_pages(np.arange(13, 113, dtype=np.int64))
        assert list(a.pages_read) == list(b.pages_read)


class TestSpanReads:
    @pytest.fixture(scope="class")
    def layout(self, tiny_db):
        return FlashLayout(tiny_db)

    def test_full_span_counts_all_pages(self, tiny_db, layout):
        nrows = tiny_db.table("lineitem").nrows
        reads = _SpanReads(layout, "lineitem", 0, nrows)
        reads.full("l_quantity")
        pages_read, pages_total, _ = reads.summary()
        per_page = layout.extent("lineitem", "l_quantity").rows_per_page()
        assert pages_read["l_quantity"] == pages_total["l_quantity"]
        assert pages_total["l_quantity"] == -(-nrows // per_page)

    def test_row_gather_touches_unique_pages(self, layout):
        reads = _SpanReads(layout, "lineitem", 0, 8192)
        per_page = layout.extent("lineitem", "l_orderkey").rows_per_page()
        rows = np.array([0, 1, per_page, per_page + 5], dtype=np.int64)
        reads.rows("l_orderkey", rows)
        pages_read, _, ids = reads.summary()
        assert pages_read["l_orderkey"] == 2  # two distinct pages
        assert len(ids) == 2

    def test_rows_then_full_is_full(self, layout):
        reads = _SpanReads(layout, "lineitem", 0, 8192)
        reads.full("l_orderkey")
        reads.rows("l_orderkey", np.array([3], dtype=np.int64))
        pages_read, pages_total, _ = reads.summary()
        assert pages_read["l_orderkey"] == pages_total["l_orderkey"]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_two_gathers_match_sorted_page_union(self, tiny_db, layout, data):
        # Unsorted, duplicated row ids over any (unaligned) span must
        # charge exactly the sorted union of the pages they land on.
        nrows = tiny_db.table("lineitem").nrows
        lo = data.draw(st.integers(0, nrows - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, nrows), label="hi")
        ids = st.lists(st.integers(lo, hi - 1), max_size=80)
        a = np.array(data.draw(ids, label="a"), dtype=np.int64)
        b = np.array(data.draw(ids, label="b"), dtype=np.int64)
        ext = layout.extent("lineitem", "l_extendedprice")
        pp = ext.rows_per_page()

        reads = _SpanReads(layout, "lineitem", lo, hi)
        reads.rows("l_extendedprice", a)
        reads.rows("l_extendedprice", b)
        pages_read, _, page_ids = reads.summary()

        ref = np.union1d(np.unique(a // pp), np.unique(b // pp))
        assert pages_read == {"l_extendedprice": len(ref)}
        np.testing.assert_array_equal(page_ids, ext.first_page + ref)
        assert np.all(np.diff(page_ids) > 0)


class TestFragmentLikeMasks:
    """Each LIKE is matched once per unique heap string per fragment."""

    @staticmethod
    def _count_matches(monkeypatch):
        calls = [0]
        compile_regex = Like.regex

        class Counting:
            def __init__(self, regex):
                self.regex = regex

            def match(self, text):
                calls[0] += 1
                return self.regex.match(text)

        monkeypatch.setattr(
            Like, "regex", lambda self: Counting(compile_regex(self))
        )
        return calls

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_one_pattern_pass_per_fragment(
        self, small_db, monkeypatch, backend
    ):
        plan = (
            scan("lineitem", ("l_quantity", "l_comment"))
            .filter(Like(col("l_comment"), "%furious%", negated=True))
            .aggregate(aggs=[("qty", AggFunc.SUM, col("l_quantity"))])
            .plan
        )
        config = MorselConfig(
            morsel_rows=MORSEL_ALIGN_ROWS, n_workers=2,
            worker_backend=backend,
        )
        lineitem = small_db.table("lineitem")
        assert len(config.spans_for(lineitem.nrows)) >= 4
        expected = Engine(small_db).execute_relation(plan)

        calls = self._count_matches(monkeypatch)
        out = Engine(small_db, morsels=config).execute_relation(plan)
        assert calls[0] == lineitem.column("l_comment").heap.unique_count
        assert np.array_equal(
            out.column("qty").values, expected.column("qty").values
        )
