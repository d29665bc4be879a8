"""Individual active-session estimation (paper Section IV-C).

The monitor reports the instance active session once per second, sampled
at an *unknown* instant t3 ∈ [t, t+1).  From the query logs, the
probability that query ``q`` is observed active over a period ``p`` is
``P(observed(p, q)) = |p ∩ [t(q), t(q)+tres(q))| / |p|``, so the
expected active session over ``p`` is the summed overlap fraction.

The full method splits each second into K buckets, picks the bucket
whose expected session is closest to the monitor's observed value
(locating t3), and evaluates each template's expected session *in that
bucket* — which removes most of the sampling-instant uncertainty.

The estimator evaluates every bucket at once on a grid of bins of width
``w = 1000/K`` ms.  The active time a set of queries spends in bin ``j``
is ``w · (#arrivals before j − #ends before j)`` plus the in-bin remainders
``Σ_{arrivals in j} (w − offset) − Σ_{ends in j} (w − offset)``, so one
pass that finds each arrival's and each end's bin and offset yields the
pooled per-bucket expectation (histograms plus one cumulative sum) and,
at the selected buckets, every template's value (histograms over
(template, selected-bucket rank) cells).  No step sorts the queries, and
all arithmetic is on times relative to the window, so it stays exact on
epoch-millisecond timestamps.

:class:`CoverageFunction` is the cumulative form of the same measure,
``F(x) = Σ_q |[0, x) ∩ [t(q), t(q)+tres(q))|``, for callers that evaluate
a few arbitrary intervals of one template (ground-truth labelling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.collection.logstore import LogStore
from repro.core.config import SessionEstimationMode
from repro.timeseries import TimeSeries

__all__ = ["CoverageFunction", "SessionEstimate", "SessionEstimator"]

#: Seconds before the window whose queries may still be running in it;
#: longer-running queries are rare.
LOOKBACK_S = 300


class CoverageFunction:
    """Cumulative active-time measure of a set of query intervals.

    Times are kept relative to the earliest arrival: cumulative sums of
    raw epoch milliseconds (~1.7e12) lose the sub-millisecond part of
    every interval.
    """

    def __init__(self, arrive_ms: np.ndarray, response_ms: np.ndarray) -> None:
        arrive = np.sort(np.asarray(arrive_ms, dtype=np.float64))
        self._origin = float(arrive[0]) if len(arrive) else 0.0
        end = (
            np.asarray(arrive_ms, dtype=np.float64) - self._origin
            + np.asarray(response_ms, dtype=np.float64)
        )
        self._arrive = arrive - self._origin
        self._end = np.sort(end)
        self._cum_arrive = np.concatenate([[0.0], np.cumsum(self._arrive)])
        self._cum_end = np.concatenate([[0.0], np.cumsum(self._end)])
        self._n = len(arrive)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``F(x) = Σ_q (min(x, end_q) − min(x, arrive_q))`` vectorized."""
        x = np.asarray(x, dtype=np.float64) - self._origin
        return self._sum_min(x, self._end, self._cum_end) - self._sum_min(
            x, self._arrive, self._cum_arrive
        )

    def _sum_min(self, x: np.ndarray, sorted_vals: np.ndarray, cumsum: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(sorted_vals, x, side="left")
        return cumsum[idx] + (self._n - idx) * x

    def expected_session(self, starts_ms: np.ndarray, ends_ms: np.ndarray) -> np.ndarray:
        """Expected active session over each interval [start, end) (ms)."""
        starts_ms = np.asarray(starts_ms, dtype=np.float64)
        ends_ms = np.asarray(ends_ms, dtype=np.float64)
        widths = ends_ms - starts_ms
        if (widths <= 0).any():
            raise ValueError("intervals must have positive width")
        return (self(ends_ms) - self(starts_ms)) / widths


@dataclass
class SessionEstimate:
    """Result of individual active-session estimation for one case."""

    #: Per-template estimated active-session series (1 s interval).
    per_template: dict[str, TimeSeries]
    #: Sum over templates — the estimate of the instance active session.
    total: TimeSeries
    #: Selected bucket index per second (empty for bucket-less modes).
    selected_buckets: np.ndarray

    def get(self, sql_id: str) -> TimeSeries:
        series = self.per_template.get(sql_id)
        if series is None:
            return TimeSeries.zeros(
                len(self.total), start=self.total.start, name=sql_id
            )
        return series


class SessionEstimator:
    """Estimates each template's active session from query logs.

    Parameters
    ----------
    mode:
        Which estimation method to use (Table III variants).
    buckets:
        K — how many buckets each second is split into.
    span_seconds:
        The paper's Section IV-C extension: when ``SHOW STATUS`` may not
        finish within one second, the bucket search extends over
        ``[t, t + span_seconds)`` — K buckets *per second* across the
        span.  The default of 1 is the paper's standard assumption.
    """

    def __init__(
        self,
        mode: SessionEstimationMode = SessionEstimationMode.BUCKETS,
        buckets: int = 10,
        span_seconds: int = 1,
    ) -> None:
        if buckets < 1:
            raise ValueError("buckets must be at least 1")
        if span_seconds < 1:
            raise ValueError("span_seconds must be at least 1")
        self.mode = mode
        self.buckets = int(buckets)
        self.span_seconds = int(span_seconds)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate(
        self,
        logs: LogStore,
        sql_ids: list[str],
        observed_session: TimeSeries,
    ) -> SessionEstimate:
        """Estimate per-template sessions over the observed series' window."""
        ts, te = observed_session.start, observed_session.end
        ids = list(dict.fromkeys(sql_ids))
        selected = np.zeros(0, dtype=np.int64)
        if self.mode is SessionEstimationMode.RESPONSE_TIME:
            values = self._estimate_by_response_time(logs, ids, ts, te)
        else:
            buckets = 1 if self.mode is SessionEstimationMode.NO_BUCKETS else self.buckets
            values, selected = self._estimate_expectation(
                logs, ids, ts, te, observed_session, buckets
            )
        return SessionEstimate(
            per_template={
                sql_id: TimeSeries(row, start=ts, name=sql_id)
                for sql_id, row in zip(ids, values)
            },
            total=TimeSeries(values.sum(axis=0), start=ts, name="estimated_session"),
            selected_buckets=selected,
        )

    # ------------------------------------------------------------------
    # Baseline: total response time per second (Estimate-by-RT)
    # ------------------------------------------------------------------
    @staticmethod
    def _estimate_by_response_time(logs: LogStore, ids: list[str], ts: int, te: int) -> np.ndarray:
        """(template, second) matrix of response time summed by arrival second."""
        n = te - ts
        lengths, arrive, response = logs.window_columns(ids, ts, te)
        cells = np.repeat(np.arange(len(ids), dtype=np.int64) * n, lengths)
        cells += arrive // 1000 - ts
        sums = np.bincount(cells, weights=response, minlength=len(ids) * n)
        return sums.reshape(len(ids), n) / 1000.0

    # ------------------------------------------------------------------
    # Expectation-based estimation, with or without bucket selection
    # ------------------------------------------------------------------
    def _estimate_expectation(
        self, logs: LogStore, ids: list[str], ts: int, te: int,
        observed: TimeSeries, buckets: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(template, second) expected sessions and the selected buckets.

        Bins of width ``w = 1000/K`` ms are numbered from one second
        before the window: bins ``K … K + G − 1`` are the grid, which
        starts at ``ts``; lower bins hold earlier times and bin ``K + G``
        later ones.  With ``span_seconds > 1`` the grid runs
        ``span_seconds − 1`` seconds past the window, so every second can
        search K buckets per second over ``[t, t + span)`` — the paper's
        slow-SHOW STATUS extension.
        """
        n, t_ids = te - ts, len(ids)
        if n == 0:
            return np.zeros((t_ids, 0)), np.zeros(0, dtype=np.int64)
        span = self.span_seconds if buckets > 1 else 1
        grid = (n + span - 1) * buckets
        width = 1000.0 / buckets

        lengths, arrive, response = logs.window_columns(ids, ts - LOOKBACK_S, te)
        # Times from one second before the window, so bins 0…K−1 lie
        # before the grid; int64 ms → float64 here is exact.
        since = np.subtract(arrive, float((ts - 1) * 1000), dtype=np.float64)
        end_since = since + response
        last = buckets + grid  # the bin after the grid
        a_bin, a_off = _bins(since, buckets, last)
        e_bin, e_off = _bins(end_since, buckets, last)

        if buckets > 1:
            # Expected instance session per grid bin, from the pooled log.
            size = last + 1
            running = np.cumsum(
                np.bincount(a_bin, minlength=size) - np.bincount(e_bin, minlength=size)
            )
            busy = running[buckets:last] * width
            busy -= np.bincount(a_bin, weights=a_off, minlength=size)[buckets:last]
            busy += np.bincount(e_bin, weights=e_off, minlength=size)[buckets:last]
            windows = sliding_window_view(busy / width, buckets * span)[::buckets]
            selected = np.argmin(np.abs(windows - observed.values[:, None]), axis=1)
            sel_bin = (np.arange(n, dtype=np.int64) + 1) * buckets + selected
        else:
            selected = np.zeros(0, dtype=np.int64)
            sel_bin = np.arange(1, n + 1, dtype=np.int64)

        # Rank the selected bins.  An endpoint at offset ``off`` into bin
        # b adds ``w − off`` to every selected bin ≥ b (from rank left[b])
        # and ``off`` to every selected bin > b (from rank right[b]), so a
        # cumulative sum along the ranks gives each template's busy time.
        order = np.argsort(sel_bin, kind="stable") if span > 1 else None
        per_bin = np.bincount(sel_bin, minlength=last + 1)
        right = np.cumsum(per_bin)
        left = right - per_bin
        base = np.repeat(np.arange(t_ids, dtype=np.int64) * (n + 1), lengths)
        cells = t_ids * (n + 1)
        busy = np.zeros(cells)
        for bins, off, add in ((a_bin, a_off, np.add), (e_bin, e_off, np.subtract)):
            for table in (right, left):
                rank = table[bins]
                rank += base
                add(busy, np.bincount(rank, weights=off, minlength=cells), out=busy)
                if table is right:
                    np.subtract(width, off, out=off)
        ranked = np.cumsum(busy.reshape(t_ids, n + 1)[:, :n], axis=1)
        if order is None:
            values = ranked
        else:
            values = np.empty_like(ranked)
            values[:, order] = ranked
        values /= width
        return values, np.asarray(selected, dtype=np.int64)


def _bins(times: np.ndarray, buckets: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin index and in-bin offset of each time (ms, clamped in place).

    Bin b covers ``[b·w, (b+1)·w)``.  Times below 0 are clamped to 0,
    which changes no busy time inside the grid, and times past the grid
    into bin ``last``, which no histogram the estimator reads includes.
    A time on a bin edge may fall in either neighbouring bin when ``w``
    is not a whole number of ms; its offset is then about ``w`` or 0 and
    every busy time is the same to rounding.
    """
    width = 1000.0 / buckets
    np.clip(times, 0.0, (last + 0.5) * width, out=times)
    off = times * (buckets / 1000.0)
    bins = off.astype(np.int64)
    np.multiply(bins, width, out=off)
    np.subtract(times, off, out=off)
    return bins, off
