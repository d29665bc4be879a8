"""Tests for the real-time streaming anomaly detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import Broker, MetricsCollector
from repro.dbsim.monitor import InstanceMetrics
from repro.detection import RealtimeAnomalyDetector
from repro.timeseries import TimeSeries


def publish_metrics(broker, values, metric="active_session", start=0):
    metrics = InstanceMetrics(
        {metric: TimeSeries(np.asarray(values, float), start=start, name=metric)}
    )
    MetricsCollector(broker).collect(metrics)


def quiet_then_spike(n=1200, at=(900, 1000), seed=0, loc=10.0):
    values = loc + np.random.default_rng(seed).normal(size=n)
    values[at[0]:at[1]] += 80.0
    return values


def _forward_fill_reference(samples, window_s, now):
    """``(start, values)`` of the window ending at ``now``, or None.

    The plain-Python definition: samples in ``(now - window_s, now]``,
    the series starts at the first of them, and every second carries
    the latest sample at or before it.
    """
    timestamps = sorted(t for t in samples if now - window_s < t <= now)
    if len(timestamps) < 8:
        return None
    start = timestamps[0]
    values = []
    last = samples[start]
    for t in range(start, now + 1):
        last = samples.get(t, last)
        values.append(last)
    return start, np.asarray(values, dtype=np.float64)


class TestRealtimeDetection:
    def test_detects_spike_once(self):
        broker = Broker()
        publish_metrics(broker, quiet_then_spike())
        detector = RealtimeAnomalyDetector(
            broker.consumer("performance_metrics"), window_s=1200
        )
        events = detector.run_until_drained()
        fresh = [e for e in events if not e.is_update]
        assert len(fresh) >= 1
        anomaly = fresh[0].anomaly
        assert "active_session_anomaly" in anomaly.types
        assert 870 <= anomaly.start <= 930
        # No duplicate emission of the same anomaly.
        keys = [(e.anomaly.types, e.anomaly.start // 60) for e in fresh]
        assert len(keys) == len(set(keys))

    def test_quiet_stream_emits_nothing(self):
        broker = Broker()
        values = 10.0 + np.random.default_rng(1).normal(size=900)
        publish_metrics(broker, values)
        detector = RealtimeAnomalyDetector(broker.consumer("performance_metrics"))
        assert detector.run_until_drained() == []

    def test_incremental_polling_matches_stream_time(self):
        broker = Broker()
        publish_metrics(broker, quiet_then_spike(n=600, at=(400, 460)))
        detector = RealtimeAnomalyDetector(
            broker.consumer("performance_metrics"), window_s=600
        )
        while detector.consumer.lag > 0:
            detector.poll(max_messages=100)
        assert detector.stream_time == 599

    def test_ongoing_anomaly_update_events(self):
        # A level shift keeps growing; later evaluations emit updates.
        broker = Broker()
        n = 1400
        values = 10.0 + np.random.default_rng(2).normal(size=n)
        values[900:] += 60.0
        publish_metrics(broker, values)
        detector = RealtimeAnomalyDetector(
            broker.consumer("performance_metrics"),
            window_s=1200,
            evaluation_interval_s=60,
        )
        events = []
        while detector.consumer.lag > 0:
            # Live arrival: one message per stream second.
            events.extend(detector.poll(max_messages=60))
        assert any(not e.is_update for e in events)
        assert any(e.is_update for e in events)

    def test_multiple_metrics(self):
        broker = Broker()
        publish_metrics(broker, quiet_then_spike(n=900, at=(700, 760), seed=3))
        publish_metrics(
            broker, quiet_then_spike(n=900, at=(700, 760), seed=4, loc=40.0),
            metric="cpu_usage",
        )
        detector = RealtimeAnomalyDetector(
            broker.consumer("performance_metrics"), window_s=900
        )
        events = detector.run_until_drained()
        types = {t for e in events for t in e.anomaly.types}
        assert "active_session_anomaly" in types
        assert "cpu_anomaly" in types

    def test_invalid_parameters(self):
        broker = Broker()
        with pytest.raises(ValueError):
            RealtimeAnomalyDetector(broker.consumer("x"), window_s=0)

    def test_empty_topic(self):
        broker = Broker()
        detector = RealtimeAnomalyDetector(broker.consumer("performance_metrics"))
        assert detector.poll() == []
        assert detector.stream_time is None


class TestBufferGapHandling:
    def test_missing_samples_forward_filled(self):
        from repro.detection.realtime import _MetricBuffer

        buffer = _MetricBuffer(window_s=100)
        for t in range(0, 50):
            buffer.add(t, 10.0)
        buffer.add(60, 99.0)  # gap between 50 and 60
        series = buffer.series(now=60)
        assert series is not None
        assert series.start == 0
        # The gap carries the last value forward.
        assert series.values[55 - series.start] == 10.0
        assert series.values[-1] == 99.0

    def test_too_few_samples_returns_none(self):
        from repro.detection.realtime import _MetricBuffer

        buffer = _MetricBuffer(window_s=100)
        for t in range(3):
            buffer.add(t, 1.0)
        assert buffer.series(now=3) is None

    @settings(max_examples=200, deadline=None)
    @given(
        window_s=st.integers(min_value=1, max_value=60),
        now=st.integers(min_value=0, max_value=200),
        samples=st.dictionaries(
            st.integers(min_value=0, max_value=260),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            max_size=120,
        ),
    )
    def test_series_matches_python_forward_fill(self, window_s, now, samples):
        """Gaps, samples outside the window (both sides), the exact
        window edges and sparse buffers all agree with a plain loop."""
        from repro.detection.realtime import _MetricBuffer

        # Pin both window edges: ``now - window_s`` is excluded,
        # ``now`` is included.
        samples.setdefault(now - window_s, -1.0)
        samples.setdefault(now, 1.0)
        buffer = _MetricBuffer(window_s=window_s, samples=samples)
        expected = _forward_fill_reference(samples, window_s, now)
        series = buffer.series(now)
        if expected is None:
            assert series is None
            return
        start, values = expected
        assert series is not None
        assert series.start == start
        np.testing.assert_array_equal(series.values, values)

    @pytest.mark.parametrize("n_samples", range(8))
    def test_fewer_than_eight_window_samples_return_none(self, n_samples):
        from repro.detection.realtime import _MetricBuffer

        buffer = _MetricBuffer(window_s=20)  # window (10, 30] at now=30
        for t in range(n_samples):
            buffer.add(11 + 2 * t, float(t))
        # Samples outside the window, the excluded edge included, must
        # not count towards the eight.
        for t in range(11):
            buffer.add(t, 5.0)
        buffer.add(31, 5.0)
        assert buffer.series(now=30) is None
        buffer.add(30, 1.0)
        assert (buffer.series(now=30) is None) == (n_samples < 7)

    def test_trim_discards_old_samples(self):
        from repro.detection.realtime import _MetricBuffer

        buffer = _MetricBuffer(window_s=10)
        for t in range(50):
            buffer.add(t, 1.0)
        buffer.trim(now=49)
        assert all(t >= 39 for t in buffer.samples)


class TestPerInstanceIsolation:
    """One broker, two instance-keyed streams, one detector per instance."""

    @staticmethod
    def _publish(broker, instance_id, values):
        metrics = InstanceMetrics(
            {
                "active_session": TimeSeries(
                    np.asarray(values, float), start=0, name="active_session"
                )
            }
        )
        MetricsCollector(broker, instance_id=instance_id).collect(metrics)

    def test_anomaly_on_a_leaves_b_baseline_untouched(self):
        from repro.collection import METRIC_TOPIC, instance_topic

        spiky = quiet_then_spike(n=1200, at=(900, 1000), seed=7)
        quiet = 10.0 + np.random.default_rng(8).normal(size=1200)
        shared = Broker()
        self._publish(shared, "db-a", spiky)
        self._publish(shared, "db-b", quiet)
        # Control: db-b's stream alone on a private broker.
        solo = Broker()
        self._publish(solo, "db-b", quiet)

        topic_b = instance_topic(METRIC_TOPIC, "db-b")
        detector_a = RealtimeAnomalyDetector(
            shared.consumer(instance_topic(METRIC_TOPIC, "db-a")),
            window_s=1200,
            instance_id="db-a",
        )
        detector_b = RealtimeAnomalyDetector(
            shared.consumer(topic_b), window_s=1200, instance_id="db-b"
        )
        control = RealtimeAnomalyDetector(
            solo.consumer(topic_b), window_s=1200, instance_id="db-b"
        )

        events_a = detector_a.run_until_drained()
        fresh = [e for e in events_a if not e.is_update]
        assert fresh and all(e.instance_id == "db-a" for e in fresh)
        # db-b sees nothing, and its baseline buffer is sample-identical
        # to the control run that never shared a broker with db-a.
        assert detector_b.run_until_drained() == []
        assert control.run_until_drained() == []
        assert (
            detector_b._buffers["active_session"].samples
            == control._buffers["active_session"].samples
        )

    def test_detector_skips_misrouted_records(self):
        from repro.collection import METRIC_TOPIC, instance_topic

        # A collector misconfigured to write db-a records onto db-b's
        # topic: the instance-aware detector must drop them.
        broker = Broker()
        topic_b = instance_topic(METRIC_TOPIC, "db-b")
        MetricsCollector(broker, topic=topic_b, instance_id="db-a").collect(
            InstanceMetrics(
                {
                    "active_session": TimeSeries(
                        np.asarray(quiet_then_spike(), float),
                        start=0,
                        name="active_session",
                    )
                }
            )
        )
        detector = RealtimeAnomalyDetector(
            broker.consumer(topic_b), window_s=1200, instance_id="db-b"
        )
        assert detector.run_until_drained() == []
        assert detector._buffers == {}
