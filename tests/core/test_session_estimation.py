"""Tests for individual active-session estimation (paper Sec. IV-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import LogStore
from repro.core import CoverageFunction, SessionEstimationMode, SessionEstimator
from repro.dbsim import QueryLog, SecondBatch
from repro.timeseries import TimeSeries


class TestCoverageFunction:
    def test_single_interval(self):
        cov = CoverageFunction(np.array([1000.0]), np.array([500.0]))
        # Query active on [1000, 1500).
        assert cov(np.array([1000.0]))[0] == 0.0
        assert cov(np.array([1250.0]))[0] == 250.0
        assert cov(np.array([2000.0]))[0] == 500.0

    def test_sum_over_intervals(self):
        cov = CoverageFunction(np.array([0.0, 100.0]), np.array([50.0, 50.0]))
        assert cov(np.array([200.0]))[0] == 100.0

    def test_expected_session_full_overlap(self):
        # One query covering the whole evaluation interval → session 1.
        cov = CoverageFunction(np.array([0.0]), np.array([10_000.0]))
        out = cov.expected_session(np.array([1000.0]), np.array([2000.0]))
        assert out[0] == pytest.approx(1.0)

    def test_expected_session_partial_overlap(self):
        cov = CoverageFunction(np.array([1500.0]), np.array([250.0]))
        out = cov.expected_session(np.array([1000.0]), np.array([2000.0]))
        assert out[0] == pytest.approx(0.25)

    def test_empty_interval_set(self):
        cov = CoverageFunction(np.zeros(0), np.zeros(0))
        assert cov.expected_session(np.array([0.0]), np.array([1000.0]))[0] == 0.0

    def test_invalid_interval_rejected(self):
        cov = CoverageFunction(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            cov.expected_session(np.array([5.0]), np.array([5.0]))

    @given(st.integers(1, 30), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_property_monotone_nondecreasing(self, n, seed):
        rng = np.random.default_rng(seed)
        arrive = rng.uniform(0, 10_000, n)
        resp = rng.uniform(1, 2_000, n)
        cov = CoverageFunction(arrive, resp)
        xs = np.sort(rng.uniform(-1_000, 20_000, 50))
        values = cov(xs)
        assert (np.diff(values) >= -1e-9).all()
        assert values[0] >= -1e-9
        # Total coverage equals the summed durations once past all ends.
        assert cov(np.array([1e9]))[0] == pytest.approx(resp.sum())


def _make_logstore(batches):
    log = QueryLog()
    for b in batches:
        log.append(b)
    store = LogStore()
    store.ingest_query_log(log)
    return store


def _batch(sql_id, arrive, resp):
    arrive = np.asarray(arrive, dtype=np.int64)
    resp = np.asarray(resp, dtype=np.float64)
    return SecondBatch(sql_id, arrive, resp, np.ones(len(arrive)))


class TestEstimatorModes:
    def _setup(self):
        # Template A: one long query covering seconds 0-9 entirely.
        # Template B: short queries in second 5.
        store = _make_logstore(
            [
                _batch("A", [0], [10_000.0]),
                _batch("B", [5_100, 5_400], [200.0, 200.0]),
            ]
        )
        observed = TimeSeries(np.array([1.0] * 5 + [1.0] * 5), start=0)
        return store, observed

    def test_no_buckets_expectation(self):
        store, observed = self._setup()
        est = SessionEstimator(SessionEstimationMode.NO_BUCKETS).estimate(
            store, ["A", "B"], observed
        )
        assert est.get("A").values[3] == pytest.approx(1.0)
        # B: 400 ms of activity within second 5 → expectation 0.4.
        assert est.get("B").values[5] == pytest.approx(0.4)
        assert est.total.values[5] == pytest.approx(1.4)

    def test_response_time_mode(self):
        store, observed = self._setup()
        est = SessionEstimator(SessionEstimationMode.RESPONSE_TIME).estimate(
            store, ["A", "B"], observed
        )
        # A's whole 10 s response is attributed to its arrival second.
        assert est.get("A").values[0] == pytest.approx(10.0)
        assert est.get("A").values[5] == 0.0
        assert est.get("B").values[5] == pytest.approx(0.4)

    def test_bucket_mode_shapes(self):
        store, observed = self._setup()
        est = SessionEstimator(SessionEstimationMode.BUCKETS, buckets=10).estimate(
            store, ["A", "B"], observed
        )
        assert len(est.selected_buckets) == 10
        assert (est.selected_buckets >= 0).all() and (est.selected_buckets < 10).all()
        assert est.get("A").values[3] == pytest.approx(1.0)

    def test_unknown_template_zeros(self):
        store, observed = self._setup()
        est = SessionEstimator(SessionEstimationMode.BUCKETS).estimate(
            store, ["A"], observed
        )
        assert est.get("ZZZ").total() == 0.0

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            SessionEstimator(buckets=0)


class TestBucketSelectionAccuracy:
    def test_buckets_recover_true_sampling_instant(self):
        # The observed value is sampled at a known instant inside each
        # second; bucket selection should pick (nearly) that bucket.
        rng = np.random.default_rng(0)
        n_seconds, n_queries = 30, 3000
        arrive = np.sort(rng.uniform(0, n_seconds * 1000.0, n_queries))
        resp = rng.exponential(400.0, n_queries) + 50.0
        log = QueryLog()
        log.append(
            SecondBatch(
                "Q",
                arrive.astype(np.int64),
                resp,
                np.ones(n_queries),
            )
        )
        store = LogStore()
        store.ingest_query_log(log)

        # True sampling instants: fixed offset 730 ms into each second.
        from repro.dbsim.monitor import ActiveSessionSampler

        sampler = ActiveSessionSampler(log)
        t3 = np.arange(n_seconds) * 1000.0 + 730.0
        observed = TimeSeries(sampler.active_at(t3).astype(float), start=0)

        est10 = SessionEstimator(SessionEstimationMode.BUCKETS, buckets=10).estimate(
            store, ["Q"], observed
        )
        est1 = SessionEstimator(SessionEstimationMode.NO_BUCKETS).estimate(
            store, ["Q"], observed
        )
        err10 = np.abs(est10.total.values - observed.values).mean()
        err1 = np.abs(est1.total.values - observed.values).mean()
        assert err10 <= err1  # bucket selection must not hurt
        # Selected buckets should concentrate near index 7 (730 ms).
        med = np.median(est10.selected_buckets)
        assert 5 <= med <= 9


class TestMultiSecondSpan:
    def test_span_extension_runs_and_matches_quality(self):
        # Paper Sec. IV-C extension: when SHOW STATUS may finish outside
        # [t, t+1), the bucket search extends over N seconds.  With the
        # sample actually inside the second, the extension must not hurt.
        rng = np.random.default_rng(5)
        n_seconds, n_queries = 20, 1500
        arrive = np.sort(rng.uniform(0, n_seconds * 1000.0, n_queries))
        resp = rng.exponential(300.0, n_queries) + 50.0
        log = QueryLog()
        log.append(SecondBatch("Q", arrive.astype(np.int64), resp, np.ones(n_queries)))
        store = LogStore()
        store.ingest_query_log(log)
        from repro.dbsim.monitor import ActiveSessionSampler

        sampler = ActiveSessionSampler(log)
        t3 = np.arange(n_seconds) * 1000.0 + 400.0
        observed = TimeSeries(sampler.active_at(t3).astype(float), start=0)
        est1 = SessionEstimator(SessionEstimationMode.BUCKETS, buckets=10).estimate(
            store, ["Q"], observed
        )
        est2 = SessionEstimator(
            SessionEstimationMode.BUCKETS, buckets=10, span_seconds=2
        ).estimate(store, ["Q"], observed)
        err1 = np.abs(est1.total.values - observed.values).mean()
        err2 = np.abs(est2.total.values - observed.values).mean()
        assert err2 <= err1 + 0.5
        assert (est2.selected_buckets < 20).all()

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            SessionEstimator(span_seconds=0)


def _shifted_case(shift_s):
    """Three templates over 40 s whose times all move by ``shift_s`` seconds."""
    rng = np.random.default_rng(11)
    store = LogStore()
    for t in range(3):
        n_queries = 20_000
        arrive = np.sort(rng.integers(-20_000, 40_000, n_queries)) + shift_s * 1000
        resp = rng.exponential(150.0 * (t + 1), n_queries) + 0.25
        store.ingest_batch(SecondBatch(f"T{t}", arrive, resp, np.ones(n_queries)))
    observed = TimeSeries(rng.integers(0, 30, 40).astype(float), start=shift_s)
    return store, observed


class TestEpochTimestamps:
    """Real logs carry epoch ms (~1.7e12); results must not depend on the epoch."""

    def test_coverage_function_shift_invariant(self):
        rng = np.random.default_rng(3)
        arrive = np.sort(rng.integers(0, 60_000, 500_000)).astype(np.int64)
        resp = rng.exponential(400.0, 500_000) + 0.5
        edges = np.arange(0, 60_000, 100, dtype=np.int64)
        base = CoverageFunction(arrive, resp).expected_session(edges[:-1], edges[1:])
        shift = 1_700_000_000_000
        moved = CoverageFunction(arrive + shift, resp).expected_session(
            edges[:-1] + shift, edges[1:] + shift
        )
        np.testing.assert_allclose(moved, base, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "estimator",
        [
            SessionEstimator(SessionEstimationMode.BUCKETS, buckets=10),
            SessionEstimator(SessionEstimationMode.BUCKETS, buckets=3, span_seconds=2),
            SessionEstimator(SessionEstimationMode.NO_BUCKETS),
            SessionEstimator(SessionEstimationMode.RESPONSE_TIME),
        ],
        ids=["buckets", "buckets-k3-span2", "no-buckets", "response-time"],
    )
    def test_estimator_shift_invariant(self, estimator):
        ids = ["T0", "T1", "T2"]
        store, observed = _shifted_case(0)
        base = estimator.estimate(store, ids, observed)
        store, observed = _shifted_case(1_700_000_000)
        moved = estimator.estimate(store, ids, observed)
        np.testing.assert_array_equal(moved.selected_buckets, base.selected_buckets)
        for sql_id in ids:
            np.testing.assert_allclose(
                moved.get(sql_id).values, base.get(sql_id).values, rtol=0, atol=1e-9
            )
        np.testing.assert_allclose(moved.total.values, base.total.values, rtol=0, atol=1e-9)
        assert moved.total.start == observed.start


class TestResponseTimeMode:
    def test_matches_per_template_reference(self):
        rng = np.random.default_rng(21)
        store = LogStore()
        # Per-second batches, one late (out-of-order) batch, and a
        # template with queries only outside the window.
        for t in range(4):
            for s in range(0, 50, 1 + t):
                k = int(rng.integers(1, 9))
                arrive = np.sort(rng.integers(s * 1000, (s + 1) * 1000, k))
                store.ingest_batch(
                    SecondBatch(f"T{t}", arrive, rng.exponential(90.0, k), np.ones(k))
                )
        store.ingest_batch(
            SecondBatch("T1", np.array([12_345, 12_900]), np.array([7.0, 3.5]), np.ones(2))
        )
        store.ingest_batch(SecondBatch("OUT", np.array([90_000]), np.array([1.0]), np.ones(1)))
        ids = ["T0", "T1", "T2", "T3", "OUT", "GHOST"]
        ts, te = 10, 40
        observed = TimeSeries(np.ones(te - ts), start=ts)
        est = SessionEstimator(SessionEstimationMode.RESPONSE_TIME).estimate(
            store, ids, observed
        )
        total = np.zeros(te - ts)
        for sql_id in ids:
            tq = store.queries_in_window(sql_id, ts, te)
            want = np.zeros(te - ts)
            for a, r in zip(tq.arrive_ms, tq.response_ms):
                want[a // 1000 - ts] += r / 1000.0
            np.testing.assert_allclose(est.get(sql_id).values, want, rtol=1e-12, atol=1e-12)
            total += want
        np.testing.assert_allclose(est.total.values, total, rtol=1e-12)
        assert set(est.per_template) == set(ids)
        assert len(est.selected_buckets) == 0
