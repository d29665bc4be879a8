"""The session estimator against a brute-force overlap oracle.

The oracle evaluates the paper's definition directly: the expected
session of a set of queries over a bucket ``[lo, lo + w)`` is
``Σ_q |[a_q, e_q) ∩ [lo, lo + w)| / w``.  It works in units of 1/K ms,
where every bucket edge is an integer, so with integer arrivals and
responses its overlaps are exact integers.  With K ∈ {1, 10} the
estimator's arithmetic is exact too, so the selected buckets (first
minimum) and values match exactly; with K ∈ {3, 7} the bucket width is
not an integer number of ms, so the estimator may break an exact tie
either way and its values match to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import LogStore
from repro.core import SessionEstimationMode, SessionEstimator
from repro.core.session_estimation import LOOKBACK_S
from repro.dbsim import SecondBatch
from repro.telemetry import MetricsRegistry
from repro.timeseries import TimeSeries

EXACT_K = (1, 10)


def oracle(rows, sql_ids, ts, n, buckets, span, observed):
    """Per-template values (T, n), selected buckets and exact errors.

    ``rows`` maps a template to its (arrive_ms, response_ms) arrays.
    Returns the picks as the first minimum of the errors, and the
    errors in units of 1/1000 session (exact for integer inputs).
    """
    bucketed = buckets > 1
    span = span if bucketed else 1
    lo_ms, hi_ms = (ts - LOOKBACK_S) * 1000, (ts + n) * 1000
    starts, ends, owner = [], [], []
    for t, sql_id in enumerate(sql_ids):
        arrive, response = rows.get(sql_id, (np.zeros(0), np.zeros(0)))
        keep = (arrive >= lo_ms) & (arrive < hi_ms)
        # Units of 1/K ms, relative to the window start.
        starts.append((arrive[keep] - ts * 1000) * float(buckets))
        ends.append((arrive[keep] - ts * 1000 + response[keep]) * float(buckets))
        owner.append(np.full(int(keep.sum()), t))
    a = np.concatenate(starts) if starts else np.zeros(0)
    e = np.concatenate(ends) if ends else np.zeros(0)
    owner = np.concatenate(owner) if owner else np.zeros(0, dtype=int)
    # Bucket j of second i is [i·1000K + j·1000, … + 1000) in these units.
    lo = (np.arange(n)[:, None] * 1000 * buckets
          + np.arange(buckets * span)[None, :] * 1000).astype(np.float64)
    overlap = np.clip(
        np.minimum(e[:, None, None], lo + 1000) - np.maximum(a[:, None, None], lo),
        0.0, None,
    )  # (queries, n, K·span)
    per_template = np.zeros((len(sql_ids), n, buckets * span))
    np.add.at(per_template, owner, overlap)
    pooled = per_template.sum(axis=0)
    if bucketed:
        error = np.abs(pooled - np.asarray(observed)[:, None] * 1000.0)
        picks = np.argmin(error, axis=1)
    else:
        error = np.zeros((n, 1))
        picks = np.zeros(n, dtype=np.int64)
    return per_template / 1000.0, picks, error


def values_at(per_template, picks):
    return per_template[:, np.arange(len(picks)), picks]


def build_store(rows):
    store = LogStore(registry=MetricsRegistry())
    for sql_id, (arrive, response) in rows.items():
        order = np.argsort(arrive, kind="stable")
        arrive, response = arrive[order], response[order]
        # Two batches per template, so reads cross batch boundaries.
        half = len(arrive) // 2
        for part in (slice(0, half), slice(half, None)):
            if len(arrive[part]):
                store.ingest_batch(SecondBatch(
                    sql_id, arrive[part].astype(np.int64), response[part],
                    np.ones(len(arrive[part])),
                ))
    return store


def estimator_for(buckets, span):
    if buckets == 1:
        return SessionEstimator(SessionEstimationMode.NO_BUCKETS)
    return SessionEstimator(SessionEstimationMode.BUCKETS, buckets=buckets, span_seconds=span)


@st.composite
def scenarios(draw, integer=True):
    n = draw(st.integers(1, 5))
    ts = draw(st.sampled_from([0, 400, 1_700_000_000]))
    buckets = draw(st.sampled_from([1, 3, 7, 10]))
    span = draw(st.sampled_from([1, 2, 3]))
    window_ms = n * 1000
    rows = {}
    for t in range(draw(st.integers(1, 3))):
        arrive, response = [], []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(
                ["inside", "inside", "lookback", "too_old", "after", "whole", "edge"]
            ))
            if kind == "inside":
                a = draw(st.integers(0, window_ms - 1))
                r = draw(st.integers(0, 2_500))
            elif kind == "lookback":
                a = draw(st.integers(-LOOKBACK_S * 1000, -1))
                r = draw(st.integers(0, LOOKBACK_S * 1000 + 2_000))
            elif kind == "too_old":
                a = draw(st.integers(-LOOKBACK_S * 1000 - 5_000, -LOOKBACK_S * 1000 - 1))
                r = draw(st.integers(0, 400_000))
            elif kind == "after":
                a = draw(st.integers(window_ms, window_ms + 4_000))
                r = draw(st.integers(0, 1_000))
            elif kind == "whole":
                a = draw(st.integers(-3_000, 0))
                r = window_ms + (span + 1) * 1000 + draw(st.integers(0, 1_000))
            else:  # ends exactly on a bucket edge (a second, or a 100 ms edge)
                a = draw(st.integers(-2_000, window_ms - 1))
                step = draw(st.sampled_from([100, 1000]))
                edge = (a // step + draw(st.integers(1, 12))) * step
                r = edge - a
            if not integer:
                r = r + draw(st.floats(0.0, 0.999, allow_nan=False))
            arrive.append(ts * 1000 + a)
            response.append(float(r))
        rows[f"t{t}"] = (np.array(arrive, dtype=np.int64), np.array(response))
    observed = [
        draw(st.integers(0, 4)) if integer else draw(st.floats(0.0, 4.0))
        for _ in range(n)
    ]
    sql_ids = list(rows) + ["unknown"]
    return rows, sql_ids, ts, n, buckets, span, observed


def run_estimator(rows, sql_ids, ts, n, buckets, span, observed):
    est = estimator_for(buckets, span).estimate(
        build_store(rows), sql_ids, TimeSeries(np.asarray(observed, dtype=float), start=ts)
    )
    values = np.array([est.get(s).values for s in sql_ids]).reshape(len(sql_ids), n)
    return est, values


class TestAgainstOracle:
    @given(scenarios())
    @settings(max_examples=300, deadline=None)
    def test_integer_inputs(self, scenario):
        rows, sql_ids, ts, n, buckets, span, observed = scenario
        est, values = run_estimator(*scenario)
        per_template, picks, error = oracle(*scenario)
        if buckets == 1:
            assert len(est.selected_buckets) == 0
            got = picks
        else:
            got = est.selected_buckets
            assert got.shape == (n,) and ((got >= 0) & (got < buckets * span)).all()
            if buckets in EXACT_K:
                np.testing.assert_array_equal(got, picks)
            else:
                best = error.min(axis=1)
                assert (error[np.arange(n), got] == best).all()
        want = values_at(per_template, got)
        if buckets in EXACT_K:
            np.testing.assert_array_equal(values, want)
        else:
            np.testing.assert_allclose(values, want, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(est.total.values, want.sum(axis=0), rtol=1e-12, atol=1e-9)
        assert est.get("unknown").total() == 0.0

    @given(scenarios(integer=False))
    @settings(max_examples=150, deadline=None)
    def test_float_responses(self, scenario):
        rows, sql_ids, ts, n, buckets, span, observed = scenario
        est, values = run_estimator(*scenario)
        per_template, picks, error = oracle(*scenario)
        got = est.selected_buckets if buckets > 1 else picks
        if buckets > 1:
            best = error.min(axis=1)
            chosen = error[np.arange(n), got]
            np.testing.assert_allclose(chosen, best, rtol=1e-9, atol=1e-6)
        np.testing.assert_allclose(
            values, values_at(per_template, got), rtol=1e-9, atol=1e-9
        )


class TestOracleCornerCases:
    def test_seconds_selecting_the_same_bin(self):
        # One query active in [1200, 1300): with span 2 the searches of
        # seconds 0 and 1 both pick that 100 ms bin.
        rows = {"q": (np.array([1_200]), np.array([100.0]))}
        scenario = (rows, ["q"], 0, 3, 10, 2, [1, 1, 0])
        est, values = run_estimator(*scenario)
        np.testing.assert_array_equal(est.selected_buckets[:2], [12, 2])
        np.testing.assert_array_equal(values[0], [1.0, 1.0, 0.0])
        per_template, picks, _ = oracle(*scenario)
        np.testing.assert_array_equal(est.selected_buckets, picks)
        np.testing.assert_array_equal(values, values_at(per_template, picks))

    @pytest.mark.parametrize("span", [1, 2, 3])
    @pytest.mark.parametrize("buckets", [1, 3, 7, 10])
    def test_empty_and_unknown_templates(self, buckets, span):
        rows = {
            "busy": (np.array([0, 500, 1_500]), np.array([700.0, 2_000.0, 10.0])),
            # Only queries outside the read window: present, but empty here.
            "idle": (np.array([-LOOKBACK_S * 1000 - 10, 9_000]), np.array([5.0, 5.0])),
        }
        scenario = (rows, ["busy", "idle", "ghost"], 0, 3, buckets, span, [1, 0, 2])
        est, values = run_estimator(*scenario)
        assert set(est.per_template) == {"busy", "idle", "ghost"}
        assert (values[1:] == 0.0).all()
        per_template, picks, _ = oracle(*scenario)
        got = est.selected_buckets if buckets > 1 else picks
        np.testing.assert_allclose(values, values_at(per_template, got), atol=1e-12)

    @pytest.mark.parametrize("mode", list(SessionEstimationMode))
    def test_zero_length_window(self, mode):
        rows = {"q": (np.array([0, 1_000]), np.array([5_000.0, 10.0]))}
        est = SessionEstimator(mode, buckets=10, span_seconds=2).estimate(
            build_store(rows), ["q", "ghost"], TimeSeries(np.zeros(0), start=1)
        )
        assert set(est.per_template) == {"q", "ghost"}
        assert all(len(s) == 0 and s.start == 1 for s in est.per_template.values())
        assert len(est.total) == 0 and est.total.start == 1
        assert len(est.selected_buckets) == 0
        assert est.selected_buckets.dtype == np.int64
