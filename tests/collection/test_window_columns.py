"""``LogStore.window_columns`` returns what ``queries_in_window`` returns.

The multi-template window read feeds the session estimator: one
concatenation over every template's window slices, rows left in storage
order.  Per template it must hold the same multiset of (arrival,
response) rows as the sorted single-template read, on every ingestion
path, and count the out-of-order full-scan fallback the same way.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.collection import LogStore, query_block_from_log
from repro.dbsim import SecondBatch
from repro.telemetry import MetricsRegistry

from tests.collection.test_block_equivalence import (
    ingest_per_record,
    make_log,
    make_tied_block,
)

WINDOWS = [(0, 30), (5, 25), (7, 8), (29, 60), (40, 50), (-10, 3)]


def _rows(arrive, response):
    order = np.lexsort((response, arrive))
    return arrive[order], response[order]


def assert_same_rows(store, sql_ids, t0, t1):
    lengths, arrive, response = store.window_columns(sql_ids, t0, t1)
    assert lengths.dtype == np.int64 and len(lengths) == len(sql_ids)
    assert arrive.dtype == np.int64 and response.dtype == np.float64
    assert len(arrive) == len(response) == lengths.sum()
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    for i, sql_id in enumerate(sql_ids):
        tq = store.queries_in_window(sql_id, t0, t1)
        got = _rows(arrive[bounds[i]:bounds[i + 1]], response[bounds[i]:bounds[i + 1]])
        want = _rows(tq.arrive_ms, tq.response_ms)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def _batch(sql_id, arrive, response):
    arrive = np.asarray(arrive, dtype=np.int64)
    return SecondBatch(sql_id, arrive, np.asarray(response, dtype=np.float64),
                       np.ones(len(arrive)))


class TestSameRowsAsQueriesInWindow:
    @pytest.mark.parametrize("t0,t1", WINDOWS)
    def test_chronological_whole_log(self, t0, t1):
        store = LogStore(registry=MetricsRegistry())
        store.ingest_query_log(make_log())
        assert_same_rows(store, ["q0", "q1", "q2"], t0, t1)

    @pytest.mark.parametrize("t0,t1", WINDOWS)
    def test_per_second_batches(self, t0, t1):
        store = ingest_per_record(make_log())
        assert_same_rows(store, ["q2", "q0", "q1"], t0, t1)

    @pytest.mark.parametrize("t0,t1", [(0, 400), (50, 51), (100, 250), (399, 500)])
    def test_multi_batch_block_ingestion(self, t0, t1):
        store = LogStore(registry=MetricsRegistry())
        block = make_tied_block()
        # Several consecutive blocks per template, like one per minute.
        for lo in range(0, 400, 100):
            keep = (block.data["arrive_ms"] >= lo * 1000) & (
                block.data["arrive_ms"] < (lo + 100) * 1000
            )
            store.ingest_block(replace(block, data=block.data[keep]))
        sql_ids = store.sql_ids
        assert all(len(store._batches[s]) > 1 for s in sql_ids)
        assert_same_rows(store, sql_ids, t0, t1)

    def test_out_of_order_counts_full_scans_identically(self):
        def build():
            registry = MetricsRegistry()
            store = LogStore(registry=registry)
            store.ingest_batch(_batch("late", [9_000, 9_500], [1.0, 2.0]))
            store.ingest_batch(_batch("late", [1_000], [3.0]))
            store.ingest_batch(_batch("late", [4_000, 31_000], [4.0, 5.0]))
            store.ingest_batch(_batch("fine", [2_000, 2_500], [1.0, 1.0]))
            return store, registry.get("logstore_fullscan_reads_total")

        sql_ids = ["late", "fine", "absent"]
        store, counter = build()
        for sql_id in sql_ids:
            store.queries_in_window(sql_id, 0, 30)
        per_template_scans = counter.value
        assert per_template_scans == 1

        store, counter = build()
        lengths, arrive, _ = store.window_columns(sql_ids, 0, 30)
        assert counter.value == per_template_scans
        np.testing.assert_array_equal(lengths, [4, 2, 0])
        assert sorted(arrive[:4].tolist()) == [1_000, 4_000, 9_000, 9_500]
        assert_same_rows(store, sql_ids, 0, 30)

    def test_expiry_trimmed_batches(self):
        store = ingest_per_record(make_log(seconds=60))
        whole = LogStore(registry=MetricsRegistry())
        whole.ingest_query_log(make_log(seconds=60))
        for s in (store, whole):
            assert s.expire(now_s=s.retention_s + 20) > 0
        for t0, t1 in [(0, 60), (19, 21), (20, 40)]:
            assert_same_rows(store, ["q0", "q1", "q2"], t0, t1)
            assert_same_rows(whole, ["q0", "q1", "q2"], t0, t1)
        lengths, arrive, _ = whole.window_columns(["q0", "q1", "q2"], 0, 60)
        assert arrive.min() >= 20_000 and lengths.sum() == len(arrive)

    def test_empty_inputs(self):
        store = LogStore(registry=MetricsRegistry())
        lengths, arrive, response = store.window_columns([], 0, 10)
        assert len(lengths) == len(arrive) == len(response) == 0
        lengths, arrive, response = store.window_columns(["nope", "none"], 0, 10)
        np.testing.assert_array_equal(lengths, [0, 0])
        assert arrive.dtype == np.int64 and len(response) == 0

    def test_rows_keep_storage_order(self):
        store = LogStore(registry=MetricsRegistry())
        store.ingest_block(query_block_from_log(make_log()))
        lengths, arrive, _ = store.window_columns(["q1"], 0, 30)
        tq = store.queries_in_window("q1", 0, 30)
        # Chronological storage: the unsorted read is already in time order.
        np.testing.assert_array_equal(arrive, tq.arrive_ms)
