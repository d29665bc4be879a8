"""Batched (columnar) ingestion must reproduce the per-record path.

The equivalence contract of the columnar dataplane: shipping the same
queries as blocks instead of per-(second, template) records changes
nothing downstream — LogStore aggregates are byte-identical, the
stream aggregator's snapshot is byte-identical to the batch
aggregation, and the full-scan fallback telemetry fires only when
ingestion actually goes out of order.
"""

import numpy as np
import pytest

from repro.collection import (
    Broker,
    LogStore,
    StreamAggregator,
    aggregate_logstore,
    aggregate_query_log,
    query_block_from_log,
)
from repro.collection.blocks import QUERY_BLOCK_DTYPE, QueryLogBlock
from repro.dbsim import QueryLog, SecondBatch
from repro.telemetry import MetricsRegistry


def make_log(seed=7, templates=3, seconds=30):
    """A deterministic multi-template log with irregular arrivals."""
    rng = np.random.default_rng(seed)
    log = QueryLog()
    for t in range(templates):
        for s in range(0, seconds, 1 + t):
            n = int(rng.integers(1, 6))
            arrive = np.sort(rng.integers(s * 1000, (s + 1) * 1000, size=n))
            log.append(
                SecondBatch(
                    f"q{t}",
                    arrive.astype(np.int64),
                    rng.uniform(1.0, 50.0, size=n),
                    rng.uniform(10.0, 500.0, size=n),
                )
            )
    return log


def ingest_per_record(log):
    store = LogStore(registry=MetricsRegistry())
    for tq in log.iter_templates():
        # The wire format ships one batch per (second, template); split
        # the template stream on second boundaries the way the
        # collector does.
        seconds = tq.arrive_ms // 1000
        for s in np.unique(seconds):
            mask = seconds == s
            store.ingest_batch(
                SecondBatch(
                    tq.sql_id,
                    tq.arrive_ms[mask],
                    tq.response_ms[mask],
                    tq.examined_rows[mask],
                )
            )
    return store


def ingest_as_block(log, instance=""):
    store = LogStore(registry=MetricsRegistry())
    store.ingest_block(query_block_from_log(log, instance=instance))
    return store


class TestLogStoreEquivalence:
    def test_second_aggregates_are_byte_identical(self):
        log = make_log()
        per_record = ingest_per_record(log)
        block = ingest_as_block(log)
        assert set(per_record.sql_ids) == set(block.sql_ids)
        for sql_id in per_record.sql_ids:
            for a, b in zip(
                per_record.second_aggregates(sql_id, 0, 30),
                block.second_aggregates(sql_id, 0, 30),
            ):
                np.testing.assert_array_equal(a, b)

    def test_window_reads_are_byte_identical(self):
        log = make_log()
        per_record = ingest_per_record(log)
        block = ingest_as_block(log)
        for sql_id in per_record.sql_ids:
            a = per_record.queries_in_window(sql_id, 5, 25)
            b = block.queries_in_window(sql_id, 5, 25)
            np.testing.assert_array_equal(a.arrive_ms, b.arrive_ms)
            np.testing.assert_array_equal(a.response_ms, b.response_ms)
            np.testing.assert_array_equal(a.examined_rows, b.examined_rows)

    def test_aggregate_logstore_output_is_byte_identical(self):
        log = make_log()
        from_records = aggregate_logstore(ingest_per_record(log), 0, 30)
        from_blocks = aggregate_logstore(ingest_as_block(log), 0, 30)
        assert set(from_records.sql_ids) == set(from_blocks.sql_ids)
        for sql_id in from_records.sql_ids:
            for metric in (
                "#execution",
                "total_tres",
                "avg_tres",
                "total_examined_rows",
            ):
                np.testing.assert_array_equal(
                    from_records.get(sql_id, metric).values,
                    from_blocks.get(sql_id, metric).values,
                )

    def test_query_counts_match(self):
        log = make_log()
        assert (
            ingest_per_record(log).total_queries()
            == ingest_as_block(log).total_queries()
        )


class TestStreamAggregatorEquivalence:
    def test_block_path_matches_batch_aggregation_bit_for_bit(self):
        log = make_log()
        broker = Broker(registry=MetricsRegistry())
        broker.publish_block("query_logs", query_block_from_log(log))
        aggregator = StreamAggregator(broker.consumer("query_logs"), start=0, end=30)
        aggregator.drain()
        snapshot = aggregator.snapshot()
        reference = aggregate_query_log(log, 0, 30)
        assert set(snapshot.sql_ids) == set(reference.sql_ids)
        for sql_id in reference.sql_ids:
            for metric in ("#execution", "total_tres", "total_examined_rows"):
                np.testing.assert_array_equal(
                    snapshot.get(sql_id, metric).values,
                    reference.get(sql_id, metric).values,
                )

    def test_instance_filter_skips_foreign_blocks(self):
        log = make_log()
        broker = Broker(registry=MetricsRegistry())
        broker.publish_block(
            "query_logs", query_block_from_log(log, instance="db-other")
        )
        aggregator = StreamAggregator(
            broker.consumer("query_logs"), start=0, end=30, instance_id="db-a"
        )
        aggregator.drain()
        assert aggregator.snapshot().sql_ids == []


class TestFullScanFallbackTelemetry:
    def test_chronological_ingestion_never_full_scans(self):
        registry = MetricsRegistry()
        store = LogStore(registry=registry)
        store.ingest_block(query_block_from_log(make_log()))
        for sql_id in store.sql_ids:
            store.queries_in_window(sql_id, 0, 30)
            store.second_aggregates(sql_id, 0, 30)
        assert registry.get("logstore_fullscan_reads_total").value == 0

    def test_out_of_order_ingestion_counts_each_fallback_read(self):
        registry = MetricsRegistry()
        store = LogStore(registry=registry)
        late = SecondBatch(
            "q0",
            np.array([9_000, 9_500], dtype=np.int64),
            np.array([1.0, 2.0]),
            np.array([10.0, 20.0]),
        )
        early = SecondBatch(
            "q0",
            np.array([1_000], dtype=np.int64),
            np.array([3.0]),
            np.array([30.0]),
        )
        store.ingest_batch(late)
        store.ingest_batch(early)  # out of order: index invalidated
        counter = registry.get("logstore_fullscan_reads_total")
        assert counter.value == 0  # ingestion alone does not scan

        tq = store.queries_in_window("q0", 0, 30)
        assert counter.value == 1
        # The fallback still returns every query, time-sorted.
        np.testing.assert_array_equal(tq.arrive_ms, [1_000, 9_000, 9_500])

        count, tres, _rows = store.second_aggregates("q0", 0, 30)
        assert counter.value == 2
        assert count.sum() == 3
        assert tres.sum() == 6.0

        # Templates that stayed chronological keep the indexed path.
        store.ingest_batch(
            SecondBatch(
                "q1",
                np.array([2_000], dtype=np.int64),
                np.array([1.0]),
                np.array([1.0]),
            )
        )
        store.queries_in_window("q1", 0, 30)
        store.second_aggregates("q1", 0, 30)
        assert counter.value == 2


def make_tied_block(seed=11, templates=5, seconds=400, rows=3_000, instance="db-a"):
    """A shuffled block over many seconds with duplicate arrivals.

    Arrivals are drawn from a coarse grid so many rows of a template
    share one ``arrive_ms``; the row order is random, so the block's
    split has to sort and keep tied rows in their row order.
    """
    rng = np.random.default_rng(seed)
    data = np.empty(rows, dtype=QUERY_BLOCK_DTYPE)
    data["template"] = rng.integers(0, templates, size=rows)
    data["arrive_ms"] = rng.integers(0, seconds * 4, size=rows) * 250
    data["response_ms"] = rng.uniform(0.1, 80.0, size=rows)
    data["examined_rows"] = rng.uniform(1.0, 9e5, size=rows)
    return QueryLogBlock(
        sql_ids=tuple(f"t{i}" for i in range(templates)),
        data=data,
        instance=instance,
    )


def template_rows(block):
    """Each template's rows in ``(template, arrive_ms)`` lexsort order."""
    data = block.data
    ordered = data[np.lexsort((data["arrive_ms"], data["template"]))]
    for code, sql_id in enumerate(block.sql_ids):
        rows = ordered[ordered["template"] == code]
        if len(rows):
            yield sql_id, rows


def ingest_per_second_records(block):
    """One ``ingest_batch`` per (template, second): the wire-format path."""
    store = LogStore(registry=MetricsRegistry())
    for sql_id, rows in template_rows(block):
        seconds = rows["arrive_ms"] // 1000
        for s in np.unique(seconds):
            sel = rows[seconds == s]
            store.ingest_batch(
                SecondBatch(
                    sql_id,
                    sel["arrive_ms"].copy(),
                    sel["response_ms"].copy(),
                    sel["examined_rows"].copy(),
                )
            )
    return store


def logstore_series(registry):
    snapshot = registry.snapshot()
    return [
        entry
        for kind in ("counters", "gauges")
        for entry in snapshot[kind]
        if entry["name"].startswith("logstore_")
    ]


def assert_same_contents(a, b, t0, t1):
    assert sorted(a.sql_ids) == sorted(b.sql_ids)
    for sql_id in a.sql_ids:
        for x, y in zip(
            a.second_aggregates(sql_id, t0, t1), b.second_aggregates(sql_id, t0, t1)
        ):
            assert x.tobytes() == y.tobytes()
        qa = a.queries_in_window(sql_id, t0, t1)
        qb = b.queries_in_window(sql_id, t0, t1)
        assert qa.arrive_ms.tobytes() == qb.arrive_ms.tobytes()
        assert qa.response_ms.tobytes() == qb.response_ms.tobytes()
        assert qa.examined_rows.tobytes() == qb.examined_rows.tobytes()


class TestBlockRollupEquivalence:
    """The one-pass block roll-up against the per-batch ingest paths."""

    # One second: every template's rows share it, so the roll-up must
    # split segments at template boundaries, not only at new seconds.
    @pytest.mark.parametrize("seconds", [400, 1])
    def test_tied_block_matches_per_second_records(self, seconds):
        block = make_tied_block(seconds=seconds)
        from_block = LogStore(registry=MetricsRegistry())
        assert from_block.ingest_block(block) == len(block)
        from_records = ingest_per_second_records(block)
        for t0, t1 in ((0, 400), (37, 211), (399, 400), (-5, 3), (350, 900)):
            assert_same_contents(from_block, from_records, t0, t1)
        assert from_block.total_queries() == from_records.total_queries()
        assert from_block.resident_bytes == from_records.resident_bytes

    def test_counters_and_gauges_match_per_batch_ingest(self):
        blocks = [
            make_tied_block(seed=5, templates=9, seconds=120),
            make_tied_block(seed=6, templates=7, seconds=120),
        ]
        block_registry, batch_registry = MetricsRegistry(), MetricsRegistry()
        from_block = LogStore(registry=block_registry, instance_id="db-a")
        reference = LogStore(registry=batch_registry, instance_id="db-a")
        for block in blocks:
            from_block.ingest_block(block)
            for sql_id, rows in template_rows(block):
                reference.ingest_batch(
                    SecondBatch(
                        sql_id,
                        rows["arrive_ms"],
                        rows["response_ms"],
                        rows["examined_rows"],
                    )
                )
        assert from_block.resident_bytes == reference.resident_bytes
        assert logstore_series(block_registry) == logstore_series(batch_registry)
        assert_same_contents(from_block, reference, 0, 120)

    def test_repeated_ingest_keeps_matching_per_second_records(self):
        # Consecutive minute blocks, the streaming shape: each block is
        # the next window of every template.
        blocks = []
        for minute in range(4):
            block = make_tied_block(seed=20 + minute, seconds=60)
            data = block.data.copy()
            data["arrive_ms"] += minute * 60_000
            blocks.append(QueryLogBlock(sql_ids=block.sql_ids, data=data))
        from_block = LogStore(registry=MetricsRegistry())
        from_records = LogStore(registry=MetricsRegistry())
        for block in blocks:
            from_block.ingest_block(block)
            reference = ingest_per_second_records(block)
            for sql_id in reference.sql_ids:
                for batch in reference._batches[sql_id]:
                    from_records.ingest_batch(batch)
        assert_same_contents(from_block, from_records, 0, 240)
        assert_same_contents(from_block, from_records, 59, 181)


class TestOutOfOrderBlocks:
    def test_late_block_clears_index_and_counts_fullscans(self):
        registry = MetricsRegistry()
        store = LogStore(registry=registry)
        early = make_tied_block(seed=3, templates=2, seconds=30)
        shifted = early.data.copy()
        shifted["arrive_ms"] += 60_000
        late = QueryLogBlock(sql_ids=early.sql_ids, data=shifted)
        store.ingest_block(late)
        store.ingest_block(early)  # earlier data after later: out of order
        assert store._chronological == {"t0": False, "t1": False}
        counter = registry.get("logstore_fullscan_reads_total")
        assert counter.value == 0  # ingestion alone does not scan

        reference = LogStore(registry=MetricsRegistry())
        for block in (late, early):
            for batch in block.iter_template_batches():
                reference.ingest_batch(batch)
        assert_same_contents(store, reference, 0, 90)
        # Two templates, one window read and one aggregate read each.
        assert counter.value == 4
        tq = store.queries_in_window("t0", 0, 90)
        assert (np.diff(tq.arrive_ms) >= 0).all()
        assert counter.value == 5
