"""Columnar block types, codec, validation, and broker publication."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import Broker
from repro.collection.blocks import (
    BLOCK_KEY,
    METRIC_BLOCK_DTYPE,
    QUERY_BLOCK_DTYPE,
    BlockDecodeError,
    MetricBlock,
    QueryLogBlock,
    decode_block,
    encode_block,
    metric_block_from_records,
    query_block_from_batches,
    split_query_block,
    validate_metric_block,
    validate_query_block,
)
from repro.dbsim.query import SecondBatch
from repro.telemetry.tracing import TraceContext


def _batch(sql_id="q1", arrive=(1000, 2500, 2600), resp=None, rows=None):
    arrive_ms = np.asarray(arrive, dtype=np.int64)
    n = len(arrive_ms)
    return SecondBatch(
        sql_id=sql_id,
        arrive_ms=arrive_ms,
        response_ms=np.asarray(resp if resp is not None else np.arange(n) + 1.0),
        examined_rows=np.asarray(rows if rows is not None else np.arange(n) * 10.0),
    )


def _query_block(**kwargs):
    return query_block_from_batches(
        [_batch("q1"), _batch("q2", arrive=(500, 900))], **kwargs
    )


def _metric_block(instance=""):
    return metric_block_from_records(
        [
            {"metric": "cpu", "timestamp": 10, "value": 0.5},
            {"metric": "active_session", "timestamp": 10, "value": 4.0},
            {"metric": "cpu", "timestamp": 11, "value": 0.6},
        ],
        instance=instance,
    )


class TestConstruction:
    def test_from_batches_builds_dictionary_and_rows(self):
        block = _query_block(instance="db-a")
        assert block.sql_ids == ("q1", "q2")
        assert len(block) == 5
        assert block.n_templates == 2
        assert block.instance == "db-a"
        assert block.data.dtype == QUERY_BLOCK_DTYPE
        assert validate_query_block(block) is None

    def test_iter_template_batches_round_trips_per_template(self):
        block = _query_block()
        by_id = {b.sql_id: b for b in block.iter_template_batches()}
        assert set(by_id) == {"q1", "q2"}
        np.testing.assert_array_equal(by_id["q1"].arrive_ms, [1000, 2500, 2600])
        np.testing.assert_array_equal(by_id["q2"].arrive_ms, [500, 900])
        # Arrival order is restored even if the rows were shuffled.
        shuffled = QueryLogBlock(
            sql_ids=block.sql_ids, data=block.data[::-1].copy()
        )
        for batch in shuffled.iter_template_batches():
            assert (np.diff(batch.arrive_ms) >= 0).all()

    def test_metric_block_series_iteration(self):
        block = _metric_block()
        assert block.metrics == ("cpu", "active_session")
        assert block.data.dtype == METRIC_BLOCK_DTYPE
        series = {name: (ts, values) for name, ts, values in block.iter_metric_series()}
        np.testing.assert_array_equal(series["cpu"][0], [10, 11])
        np.testing.assert_array_equal(series["cpu"][1], [0.5, 0.6])
        np.testing.assert_array_equal(series["active_session"][1], [4.0])

    def test_split_query_block_bounds_rows_and_shares_dictionary(self):
        block = _query_block()
        pieces = split_query_block(block, 2)
        assert [len(p) for p in pieces] == [2, 2, 1]
        assert all(p.sql_ids is block.sql_ids for p in pieces)
        rejoined = np.concatenate([p.data for p in pieces])
        np.testing.assert_array_equal(rejoined, block.data)
        with pytest.raises(ValueError):
            split_query_block(block, 0)


class TestCodec:
    def test_query_round_trip(self):
        block = _query_block(instance="db-a")
        block = QueryLogBlock(
            sql_ids=block.sql_ids,
            data=block.data,
            instance="db-a",
            statements=("SELECT 1", "SELECT 2"),
        )
        decoded = decode_block(encode_block(block))
        assert isinstance(decoded, QueryLogBlock)
        assert decoded.sql_ids == block.sql_ids
        assert decoded.instance == "db-a"
        assert decoded.statements == ("SELECT 1", "SELECT 2")
        np.testing.assert_array_equal(decoded.data, block.data)

    def test_metric_round_trip(self):
        block = _metric_block(instance="db-b")
        decoded = decode_block(encode_block(block))
        assert isinstance(decoded, MetricBlock)
        assert decoded.metrics == block.metrics
        assert decoded.instance == "db-b"
        np.testing.assert_array_equal(decoded.data, block.data)

    def test_decoded_data_is_read_only_view(self):
        decoded = decode_block(encode_block(_query_block()))
        assert not decoded.data.flags.writeable
        with pytest.raises(ValueError):
            decoded.data["response_ms"][0] = 1.0

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda raw: raw[:4],                           # shorter than header
            lambda raw: b"XXXX" + raw[4:],                 # bad magic
            lambda raw: raw[:-8],                          # truncated payload
            lambda raw: raw + b"\x00" * 8,                 # oversized payload
            lambda raw: raw[:8] + b"{not json" + raw[17:], # broken header json
        ],
    )
    def test_mangled_frames_raise_decode_error(self, mangle):
        raw = encode_block(_query_block())
        with pytest.raises(BlockDecodeError):
            decode_block(mangle(raw))

    def test_encode_rejects_non_blocks_and_bad_dtype(self):
        with pytest.raises(TypeError):
            encode_block({"not": "a block"})
        bad = QueryLogBlock(
            sql_ids=("q1",), data=np.zeros(3, dtype=np.float64)
        )
        with pytest.raises(ValueError):
            encode_block(bad)


class TestValidation:
    def test_valid_blocks_pass(self):
        assert validate_query_block(_query_block()) is None
        assert validate_metric_block(_metric_block()) is None

    def test_rejects_foreign_objects(self):
        assert validate_query_block({"second": 1}) == "not_a_block"
        assert validate_metric_block(b"bytes") == "not_a_block"

    def test_rejects_empty_rows_and_missing_dictionary(self):
        block = _query_block()
        assert (
            validate_query_block(QueryLogBlock(block.sql_ids, block.data[:0]))
            == "bad_shape:data"
        )
        assert (
            validate_query_block(QueryLogBlock((), block.data))
            == "missing_dictionary"
        )

    def test_rejects_out_of_range_template(self):
        block = _query_block()
        data = block.data.copy()
        data["template"][0] = 99
        assert (
            validate_query_block(QueryLogBlock(block.sql_ids, data))
            == "bad_index:template"
        )

    def test_rejects_non_finite_columns(self):
        block = _query_block()
        data = block.data.copy()
        data["response_ms"][1] = np.nan
        assert (
            validate_query_block(QueryLogBlock(block.sql_ids, data))
            == "non_finite:response_ms"
        )
        mblock = _metric_block()
        mdata = mblock.data.copy()
        mdata["value"][0] = np.inf
        assert (
            validate_metric_block(MetricBlock(mblock.metrics, mdata))
            == "non_finite:value"
        )

    def test_rejects_negative_timestamps(self):
        mblock = _metric_block()
        mdata = mblock.data.copy()
        mdata["timestamp"][0] = -5
        assert (
            validate_metric_block(MetricBlock(mblock.metrics, mdata))
            == "bad_type:timestamp"
        )

    def test_rejects_statement_dictionary_mismatch(self):
        block = _query_block()
        bad = QueryLogBlock(
            sql_ids=block.sql_ids, data=block.data, statements=("only one",)
        )
        assert validate_query_block(bad) == "length_mismatch:statements"


class TestBrokerPublication:
    def test_publish_block_counts_batch_telemetry(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        block = _query_block(instance="db-a")
        message = broker.publish_block("query_logs.db-a", block)
        assert message is not None
        assert message.key == BLOCK_KEY
        # The published block is the same payload stamped with the
        # publish span's trace context and the publish wall-time.
        assert message.value.data is block.data
        assert message.value.sql_ids == block.sql_ids
        assert message.value.trace is not None
        assert message.value.trace.trace_id
        assert message.value.created_unix > 0
        # The publish itself was traced.
        publish_span = broker.tracer.last_root()
        assert publish_span.name == "broker.publish_block"
        assert publish_span.attrs["span_id"] == message.value.trace.span_id
        assert (
            registry.get("broker_blocks_published_total", topic="query_logs.db-a").value
            == 1
        )
        assert (
            registry.get("broker_block_records_total", topic="query_logs.db-a").value
            == len(block)
        )
        assert (
            registry.get("broker_block_bytes_total", topic="query_logs.db-a").value
            == block.nbytes
        )

    def test_publish_block_quarantines_invalid_blocks(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        broker = Broker(registry=registry)
        block = _query_block()
        bad = QueryLogBlock(sql_ids=(), data=block.data)
        assert broker.publish_block("query_logs.db-a", bad) is None
        assert broker.retained("query_logs.db-a") == 0
        dead = broker.read("dead_letter.query_logs.db-a", 0, 10)
        assert len(dead) == 1
        assert dead[0].key == "missing_dictionary"
        assert (
            registry.get(
                "collector_quarantined_total",
                topic="query_logs.db-a",
                reason="missing_dictionary",
            ).value
            == 1
        )

    def test_publish_block_rejects_non_blocks(self):
        broker = Broker()
        assert broker.publish_block("query_logs.db-a", {"second": 1}) is None
        assert broker.retained("query_logs.db-a") == 0


@st.composite
def query_blocks(draw):
    n_templates = draw(st.integers(min_value=1, max_value=4))
    sql_ids = tuple(f"q{i}" for i in range(n_templates))
    n_rows = draw(st.integers(min_value=1, max_value=40))
    data = np.empty(n_rows, dtype=QUERY_BLOCK_DTYPE)
    data["template"] = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_templates - 1),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    data["arrive_ms"] = draw(
        st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    finite = st.floats(
        min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
    )
    data["response_ms"] = draw(st.lists(finite, min_size=n_rows, max_size=n_rows))
    data["examined_rows"] = draw(st.lists(finite, min_size=n_rows, max_size=n_rows))
    instance = draw(st.sampled_from(["", "db-a", "db-zz"]))
    # v2 header coverage: blocks randomly carry a trace context and a
    # publish stamp (absent on both = the v1-compatible shape).
    trace = draw(
        st.one_of(
            st.none(),
            st.builds(
                TraceContext,
                trace_id=st.text(
                    alphabet="0123456789abcdef", min_size=1, max_size=32
                ),
                span_id=st.text(
                    alphabet="0123456789abcdef", min_size=1, max_size=32
                ),
                process=st.integers(min_value=0, max_value=2**31 - 1),
            ),
        )
    )
    created_unix = draw(
        st.one_of(
            st.just(0.0),
            st.floats(
                min_value=1.0, max_value=4e9,
                allow_nan=False, allow_infinity=False,
            ),
        )
    )
    return QueryLogBlock(
        sql_ids=sql_ids,
        data=data,
        instance=instance,
        trace=trace,
        created_unix=created_unix,
    )


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(block=query_blocks())
    def test_round_trip_is_lossless(self, block):
        decoded = decode_block(encode_block(block))
        assert isinstance(decoded, QueryLogBlock)
        assert decoded.sql_ids == block.sql_ids
        assert decoded.instance == block.instance
        assert decoded.trace == block.trace
        assert decoded.created_unix == pytest.approx(block.created_unix)
        np.testing.assert_array_equal(decoded.data, block.data)
        # Validation agrees across the codec boundary.
        assert validate_query_block(decoded) == validate_query_block(block)

    @settings(max_examples=40, deadline=None)
    @given(block=query_blocks(), cut=st.integers(min_value=1, max_value=200))
    def test_truncation_always_raises(self, block, cut):
        # The header pins the exact row count, so any truncation — in
        # the payload, the header, or the magic — must be detected; a
        # silent partial block would corrupt downstream aggregates.
        raw = encode_block(block)
        cut = min(cut, len(raw) - 1)
        with pytest.raises(BlockDecodeError):
            decode_block(raw[:-cut])


@st.composite
def split_columns(draw, max_rows=60):
    """``(codes, times)`` columns rich in ties and out-of-order rows.

    Narrow time ranges force duplicate (code, time) pairs; the wide
    range pushes ``n_codes * span * n`` past int64 so the ``lexsort``
    fallback runs too.
    """
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    n_codes = draw(st.integers(min_value=1, max_value=6))
    t_max = draw(st.sampled_from([0, 3, 50, 10**9, 2**62]))
    codes = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_codes - 1),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    times = draw(
        st.lists(
            st.integers(min_value=0, max_value=t_max),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return np.asarray(codes, dtype=np.int32), np.asarray(times, dtype=np.int64)


def _split_query_block(codes, times):
    data = np.empty(len(codes), dtype=QUERY_BLOCK_DTYPE)
    data["template"] = codes
    data["arrive_ms"] = times
    # Row numbers as payload make the order of tied rows observable.
    data["response_ms"] = np.arange(len(codes))
    data["examined_rows"] = -np.arange(len(codes), dtype=np.float64)
    n_templates = int(codes.max()) + 1 if len(codes) else 1
    return QueryLogBlock(
        sql_ids=tuple(f"q{i}" for i in range(n_templates)), data=data
    )


def _split_metric_block(codes, times):
    data = np.empty(len(codes), dtype=METRIC_BLOCK_DTYPE)
    data["metric"] = codes
    data["timestamp"] = times
    data["value"] = np.arange(len(codes))
    n_metrics = int(codes.max()) + 1 if len(codes) else 1
    return MetricBlock(metrics=tuple(f"m{i}" for i in range(n_metrics)), data=data)


class TestSplitOrder:
    """Block splitting must order rows exactly as ``np.lexsort`` does."""

    @settings(max_examples=150, deadline=None)
    @given(columns=split_columns())
    def test_order_is_lexsort_order(self, columns):
        from repro.collection.blocks import _lexsort_order

        codes, times = columns
        np.testing.assert_array_equal(
            _lexsort_order(codes, times), np.lexsort((times, codes))
        )

    @settings(max_examples=100, deadline=None)
    @given(columns=split_columns())
    def test_query_block_batches_follow_lexsort(self, columns):
        codes, times = columns
        block = _split_query_block(codes, times)
        expected = block.data[np.lexsort((times, codes))]
        batches = list(block.iter_template_batches())
        assert [b.sql_id for b in batches] == [
            f"q{c}" for c in np.unique(codes).tolist()
        ]
        if not batches:
            assert len(block) == 0
            return
        np.testing.assert_array_equal(
            np.concatenate([b.arrive_ms for b in batches]), expected["arrive_ms"]
        )
        np.testing.assert_array_equal(
            np.concatenate([b.response_ms for b in batches]),
            expected["response_ms"],
        )
        np.testing.assert_array_equal(
            np.concatenate([b.examined_rows for b in batches]),
            expected["examined_rows"],
        )

    @settings(max_examples=100, deadline=None)
    @given(columns=split_columns())
    def test_metric_block_series_follow_lexsort(self, columns):
        codes, times = columns
        block = _split_metric_block(codes, times)
        expected = block.data[np.lexsort((times, codes))]
        series = list(block.iter_metric_series())
        assert [name for name, _, _ in series] == [
            f"m{c}" for c in np.unique(codes).tolist()
        ]
        if not series:
            assert len(block) == 0
            return
        np.testing.assert_array_equal(
            np.concatenate([ts for _, ts, _ in series]), expected["timestamp"]
        )
        np.testing.assert_array_equal(
            np.concatenate([v for _, _, v in series]), expected["value"]
        )

    def test_single_row_and_empty_blocks(self):
        one = _split_query_block(np.array([2], np.int32), np.array([7], np.int64))
        (batch,) = one.iter_template_batches()
        assert batch.sql_id == "q2"
        np.testing.assert_array_equal(batch.arrive_ms, [7])
        empty_codes = np.zeros(0, np.int32)
        empty_times = np.zeros(0, np.int64)
        assert list(_split_query_block(empty_codes, empty_times).iter_template_batches()) == []
        assert list(_split_metric_block(empty_codes, empty_times).iter_metric_series()) == []

    def test_overflowing_key_takes_the_lexsort_fallback(self, monkeypatch):
        from repro.collection.blocks import _lexsort_order

        calls = []
        real_lexsort = np.lexsort

        def spy(keys):
            calls.append(len(keys[0]))
            return real_lexsort(keys)

        monkeypatch.setattr(np, "lexsort", spy)
        narrow_codes = np.array([1, 0, 1, 0], np.int32)
        narrow_times = np.array([5, 5, 2, 9], np.int64)
        _lexsort_order(narrow_codes, narrow_times)
        assert calls == []
        # 3 codes x 2**62 ms x 4 rows is past int64.
        wide_codes = np.array([2, 0, 1, 0], np.int32)
        wide_times = np.array([0, 2**62, 2**62, 0], np.int64)
        order = _lexsort_order(wide_codes, wide_times)
        assert calls == [4]
        np.testing.assert_array_equal(order, [3, 1, 2, 0])
