"""Shared pieces of the workloads: metric tables, statistics, checks."""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from perfbench.spans import (
    LAYERS,
    SPAN_COUNTS,
    TIMING_TOLERANCE_S,
    SpanTracer,
    layer_totals,
    merge_setup,
    timing_discrepancies,
    top_level_seconds,
)

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / ".out"

#: End-to-end metrics: (name, unit).  Every workload reports all of them.
E2E_METRICS: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_rows_per_s", "rows/s"),
    ("step_p50_ms", "ms"),
    ("time_to_diagnosis_p50_ms", "ms"),
    ("diagnosis_p50_s", "s"),
    ("diagnosis_p90_s", "s"),
    ("rsql_hits_at_1", "%"),
    ("rsql_hits_at_5", "%"),
    ("rsql_mrr", "ratio"),
    ("hsql_hits_at_1", "%"),
    ("success_rate", "%"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics (traced run): (name, unit).
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    *((f"{layer}_s", "s") for layer in LAYERS),
    *((f"{layer}_calls", "count") for layer in LAYERS),
    *((name, "bytes" if name == "collection.bytes" else "count") for name in SPAN_COUNTS),
    ("fleet.diagnoses", "count"),
    ("fleet.events_diagnosed_ratio", "ratio"),
    ("collection.quarantined", "count"),
    ("fleet.worker_restarts", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def reset_peak_rss() -> None:
    """Restart ``VmHWM`` from the current RSS (Linux ``clear_refs`` 5)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc/self/status")


def settle() -> None:
    """Collect garbage and freeze the survivors before the timed phase.

    The set-up's objects then stay out of every later collection, so a
    pass does not pay for traversing inputs it only reads.
    """
    gc.collect()
    gc.freeze()


@dataclass
class Ranking:
    """Accuracy of top-ranked R-/H-SQLs against ground truth."""

    r_ranks: list[int | None] = field(default_factory=list)
    h_ranks: list[int | None] = field(default_factory=list)

    def add(self, rsql_ids: Sequence[str], r_truth: Iterable[str],
            hsql_ids: Sequence[str], h_truth: Iterable[str]) -> None:
        self.r_ranks.append(_rank(rsql_ids, r_truth))
        self.h_ranks.append(_rank(hsql_ids, h_truth))

    def metrics(self) -> dict[str, float]:
        n = len(self.r_ranks)
        if n == 0:
            raise ValueError("no ranked diagnoses to score")

        def hits(ranks: list[int | None], k: int) -> float:
            return 100.0 * sum(1 for r in ranks if r is not None and r <= k) / n

        return {
            "rsql_hits_at_1": hits(self.r_ranks, 1),
            "rsql_hits_at_5": hits(self.r_ranks, 5),
            "rsql_mrr": sum(1.0 / r for r in self.r_ranks if r is not None) / n,
            "hsql_hits_at_1": hits(self.h_ranks, 1),
        }


def _rank(ranked: Sequence[str], truth: Iterable[str]) -> int | None:
    truth = set(truth)
    for i, sql_id in enumerate(ranked, start=1):
        if sql_id in truth:
            return i
    return None


def top5(rsql_ids: Sequence[str], hsql_ids: Sequence[str]) -> tuple:
    """The diagnosis fingerprint compared across passes and trace modes."""
    return (tuple(rsql_ids[:5]), tuple(hsql_ids[:5]))


def counter_total(registry, name: str) -> float:
    """Sum of every labelled series of counter ``name`` in ``registry``."""
    return sum(inst.value for n, kind, _, inst in registry if n == name)


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    e2e: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failed: int
    #: Failed output checks (empty = correct).
    check_failures: list[str]
    #: Content digest of the inputs the run measured.
    input_digest: str
    details: dict = field(default_factory=dict)


@dataclass
class Passes:
    """The timed phase: untraced passes, and traced ones when tracing."""

    untraced: list
    traced: list
    #: Per traced pass: layer totals and the share outside every span.
    totals: list[dict[str, float]]
    unattributed: list[float]
    #: |core span − StageTimings| of every traced analyze stage.
    timing_gaps: list[float]

    def check_failures(self, fingerprint: Callable) -> list[str]:
        """Diagnoses must repeat across passes; core spans match timings."""
        failures = []
        reference = fingerprint(self.untraced[0])
        if any(fingerprint(p) != reference for p in self.untraced[1:] + self.traced):
            failures.append("diagnoses differ between passes (traced or untraced)")
        if self.timing_gaps and max(self.timing_gaps) > TIMING_TOLERANCE_S:
            failures.append(
                "core spans disagree with PinSQLResult.timings by "
                f"{max(self.timing_gaps):.4f}s"
            )
        return failures

    def layers(self, setup: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics: set-up layers per set-up, the rest per pass."""
        per_pass = {
            k: sum(t[k] for t in self.totals) / len(self.totals) for k in self.totals[0]
        }
        out = merge_setup(setup, per_pass)
        out["trace.overhead_pct"] = 100.0 * (
            median([p.wall_s for p in self.traced])
            / median([p.wall_s for p in self.untraced])
            - 1.0
        )
        out["trace.unattributed_share"] = median(self.unattributed)
        return out


def run_passes(run_pass: Callable[[SpanTracer | None, str], object],
               tracer: SpanTracer | None, seconds: float, min_passes: int) -> Passes:
    """Run passes until ``seconds`` have gone by and ``min_passes`` ran.

    ``run_pass(tracer, request_prefix)`` runs one pass and returns an
    object with ``wall_s``.  With a tracer, every untraced pass is
    followed by a traced one (wrappers installed only around it), so
    both see the same machine conditions.
    """
    passes = Passes([], [], [], [], [])
    deadline = time.perf_counter() + seconds
    while True:
        passes.untraced.append(run_pass(None, ""))
        if tracer is not None:
            tracer.install()
            mark = tracer.mark()
            traced = run_pass(tracer, f"pass{len(passes.traced)}.")
            tracer.uninstall()
            spans = tracer.spans[mark:]
            passes.traced.append(traced)
            passes.totals.append(layer_totals(spans, mark))
            passes.unattributed.append(
                1.0 - top_level_seconds(spans, mark) / traced.wall_s
            )
            passes.timing_gaps.extend(timing_discrepancies(spans, mark))
        if time.perf_counter() >= deadline and len(passes.untraced) >= min_passes:
            return passes
