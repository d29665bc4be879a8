"""``corpus_cases``: ``PinSQL.analyze`` on the cached labelled corpus.

The workload bypasses ingest, detection and the sinks: set-up loads the
cached ``.npz`` cases (see :mod:`perfbench.inputs`), and the timed phase
diagnoses every case of the 32-case corpus (every Table I category) with
one :class:`PinSQL` per pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import PinSQL
from repro.telemetry import MetricsRegistry, Tracer

from perfbench import inputs
from perfbench.common import (
    OUT_DIR,
    Outcome,
    Ranking,
    median,
    peak_rss_mb,
    quantile,
    reset_peak_rss,
    run_passes,
    settle,
    top5,
)
from perfbench.spans import SpanTracer, layer_totals

NAME = "corpus_cases"
#: Fewest timed passes, whatever ``--seconds`` says (4 × 32 ≥ 100
#: samples for the p90).
MIN_PASSES = 4


@dataclass
class PassResult:
    wall_s: float
    rows: int
    analyze_s: list[float]
    #: case index → top-5 (R, H).
    top: dict[int, tuple]
    ranking: Ranking
    failures: list[str]


def run_pass(cases, rows_of: list[int], order: list[int], request_prefix: str = "",
             tracer: SpanTracer | None = None) -> PassResult:
    """Diagnose every case once, in ``order``."""
    t_start = time.perf_counter()
    pinsql = PinSQL(tracer=Tracer(registry=MetricsRegistry()))
    analyze_s: list[float] = []
    top: dict[int, tuple] = {}
    ranking = Ranking()
    failures: list[str] = []
    rows = 0
    for i in order:
        labeled = cases[i]
        if tracer is not None:
            tracer.request = f"{request_prefix}case{i}"
        t0 = time.perf_counter()
        try:
            result = pinsql.analyze(labeled.case)
        except Exception as exc:  # counted, not raised: one case must not end the run
            failures.append(f"case {i}: {type(exc).__name__}: {exc}")
            continue
        analyze_s.append(time.perf_counter() - t0)
        rows += rows_of[i]
        top[i] = top5(result.rsql_ids, result.hsql_ids)
        if not result.rsql_ids:
            failures.append(f"case {i}: empty R-SQL ranking")
        ranking.add(result.rsql_ids, labeled.r_sqls, result.hsql_ids, labeled.h_sqls)
    return PassResult(
        wall_s=time.perf_counter() - t_start, rows=rows, analyze_s=analyze_s,
        top=top, ranking=ranking, failures=failures,
    )


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    spec = inputs.SPECS[NAME]
    tracer = SpanTracer() if traced else None
    checks: list[str] = []
    if tracer is not None:
        tracer.install()
        tracer.request = "setup"
    t0 = time.perf_counter()
    cases = inputs.load(spec)
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        setup_layers = layer_totals(tracer.spans)
    try:
        digest = inputs.verify(spec)
    except inputs.InputDigestMismatch as exc:
        digest = "mismatch"
        checks.append(str(exc))

    order = list(np.random.default_rng(seed).permutation(len(cases)))
    rows_of = [labeled.case.logs.total_queries() for labeled in cases]
    # One untimed call finishes lazy set-up (imports, first allocations).
    PinSQL(tracer=Tracer(registry=MetricsRegistry())).analyze(cases[order[0]].case)
    settle()

    reset_peak_rss()
    passes = run_passes(
        lambda span_tracer, prefix: run_pass(cases, rows_of, order, prefix, span_tracer),
        tracer, seconds, MIN_PASSES,
    )
    peak = peak_rss_mb()
    checks.extend(passes.check_failures(lambda p: p.top))

    untraced = passes.untraced
    samples = [s for p in untraced for s in p.analyze_s]
    attempted = sum(len(cases) for _ in untraced)
    failed = sum(len(p.failures) for p in untraced)
    e2e = {
        "setup_s": setup_s,
        "throughput_rows_per_s": (
            sum(p.rows for p in untraced) / sum(p.wall_s for p in untraced)
        ),
        "step_p50_ms": 1000.0 * median(samples),
        "time_to_diagnosis_p50_ms": 1000.0 * median(samples),
        "diagnosis_p50_s": median(samples),
        "diagnosis_p90_s": quantile(samples, 0.9),
        **untraced[0].ranking.metrics(),
        "success_rate": 100.0 * (attempted - failed) / attempted,
        "peak_rss_mb": peak,
    }
    layers: dict[str, float] = {}
    if tracer is not None:
        layers = passes.layers(setup_layers)
        layers.update({
            "fleet.diagnoses": 0.0,
            "fleet.events_diagnosed_ratio": 0.0,
            "collection.quarantined": 0.0,
            "fleet.worker_restarts": 0.0,
        })
        tracer.write(OUT_DIR / f"spans-{NAME}-seed{seed}.json")
    return Outcome(
        e2e=e2e,
        layers=layers,
        attempted=attempted,
        failed=failed,
        check_failures=checks,
        input_digest=digest,
        details={
            "passes": len(untraced),
            "pass_wall_s": [p.wall_s for p in untraced],
            "cases": len(cases),
            "samples": len(samples),
            "max_timing_gap_s": max(passes.timing_gaps, default=None),
            "failures": untraced[0].failures,
        },
    )
