"""Per-layer spans kept by the benchmark.

The traced run wraps the *public* entry point of every pipeline layer,
at the module where its caller looks it up (a class attribute for
methods, a module global for functions), and records one :class:`Span`
per call: layer, call, start, end, parent span and request id (the
fleet step index or the case id).  Nothing under ``src/`` changes; the
wrappers are installed only around traced passes and removed after.

From the spans the benchmark derives each layer's *self* time (its
span minus the spans nested in it) and call count, plus the counts a
layer's calls return (rows ingested, bytes encoded, events polled...).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    layer: str
    call: str
    start: float
    end: float
    parent: int | None
    request: str
    counts: dict[str, float] = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _count(metric: str, fn: Callable = lambda args, result: 1.0) -> Callable:
    """Annotation storing ``fn(args, result)`` as the span's ``metric`` count."""

    def annotate(span: Span, args, result) -> None:
        span.counts[metric] = float(fn(args, result))

    return annotate


def _analyze(span: Span, args, result) -> None:
    case = args[1]
    span.counts["core.templates"] = float(len(case.sql_ids))
    span.counts["core.queries"] = float(case.logs.total_queries())
    span.attrs["timings"] = result.timings.as_dict()


def _sweep(span: Span, args, result) -> None:
    if result is not None:
        span.counts["health.sweeps"] = 1.0
        span.counts["health.findings"] = float(len(result.findings))


#: (call target, layer, annotate).  ``module:attr`` or ``module:Class.attr``.
#: The layer's time metric is ``<layer>_s`` (self time), its call count
#: ``<layer>_calls``.
WRAPPED: tuple[tuple[str, str, Callable | None], ...] = (
    ("repro.workload:build_population", "workload.build", None),
    ("repro.workload:inject_anomaly", "workload.build", None),
    ("repro.dbsim.instance:DatabaseInstance.run", "dbsim.run",
     _count("dbsim.queries", lambda a, r: r.query_log.total_queries)),
    ("repro.collection.blocks:query_block_from_log", "collection.encode", None),
    ("repro.collection.blocks:metric_block_from_metrics", "collection.encode", None),
    ("repro.collection.blocks:encode_block", "collection.encode",
     _count("collection.bytes", lambda a, r: len(r))),
    ("repro.evaluation.persistence:load_corpus", "evaluation.load", None),
    ("repro.evaluation.persistence:load_case", "evaluation.load", None),
    ("repro.collection.blocks:decode_block", "collection.decode", None),
    ("repro.collection.stream:Broker.publish_block", "collection.publish",
     _count("collection.blocks", lambda a, r: r is not None)),
    ("repro.collection.logstore:LogStore.ingest_block", "collection.ingest",
     _count("collection.rows_ingested", lambda a, r: r)),
    ("repro.detection.realtime:RealtimeAnomalyDetector.poll", "detection.poll",
     _count("detection.events", lambda a, r: len(r))),
    ("repro.fleet.service:FleetDiagnosisService.step", "fleet.step_self",
     _count("fleet.steps")),
    ("repro.fleet.engine:aggregate_logstore", "collection.aggregate", None),
    ("repro.resilience.degraded:DegradedModePolicy.assess", "resilience.assess", None),
    ("repro.resilience.degraded:DegradedModePolicy.build_series", "resilience.assess", None),
    ("repro.core.pipeline:PinSQL.analyze", "core.analyze_self", _analyze),
    ("repro.core.session_estimation:SessionEstimator.estimate",
     "core.session_estimation", None),
    ("repro.core.hsql:HsqlIdentifier.identify", "core.hsql", None),
    ("repro.core.rsql:RsqlIdentifier.cluster_templates", "core.clustering", None),
    ("repro.core.rsql:RsqlIdentifier.rank_clusters", "core.clustering", None),
    ("repro.core.rsql:RsqlIdentifier.select_clusters", "core.clustering", None),
    ("repro.core.rsql:RsqlIdentifier.verify_history", "core.verification", None),
    ("repro.core.rsql:RsqlIdentifier.rank_candidates", "core.verification", None),
    ("repro.fleet.engine:classify_case", "detection.typing", None),
    ("repro.sqlanalysis.analyzer:SqlAnalyzer.analyze_template",
     "sqlanalysis.findings", None),
    ("repro.sqlanalysis.workload.analyzer:WorkloadAnalyzer.analyze",
     "sqlanalysis.advise", None),
    ("repro.core.repair.engine:RepairEngine.plan", "repair.plan_self", None),
    ("repro.fleet.engine:render_report", "core.report", None),
    ("repro.incidents.recorder:IncidentRecorder.record", "incidents.record",
     _count("incidents.records", lambda a, r: r is not None)),
    ("repro.health.sweeper:HealthSweeper.maybe_sweep", "health.sweep", _sweep),
)

#: Every layer with a time metric, in pipeline order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, layer, _ in WRAPPED))

#: Counts returned by wrapped calls (besides per-layer call counts).
SPAN_COUNTS = (
    "dbsim.queries", "collection.bytes", "collection.blocks",
    "collection.rows_ingested", "detection.events", "fleet.steps",
    "core.templates", "core.queries", "incidents.records",
    "health.sweeps", "health.findings",
)

#: Layers (and their counts) that run in a workload's set-up, not its
#: timed passes.
SETUP_LAYERS = ("workload.build", "dbsim.run", "collection.encode", "evaluation.load")
SETUP_COUNTS = ("dbsim.queries", "collection.bytes")

#: |span − StageTimings| allowed per stage: the two clocks enclose the
#: same call and differ by wrapper overhead only.
TIMING_TOLERANCE_S = 0.005

#: Which span layers time the same stage as a ``StageTimings`` field.
TIMING_FIELDS = {
    "session_estimation": ("core.session_estimation",),
    "hsql_ranking": ("core.hsql",),
    "clustering_and_filtering": ("core.clustering",),
    "history_verification": ("core.verification",),
}


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class SpanTracer:
    """Records spans around the wrapped calls while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            return
        for target, layer, annotate in WRAPPED:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, target, layer, annotate))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, call: str, layer: str, annotate) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(layer, call, time.perf_counter(), 0.0,
                        stack[-1] if stack else None, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                annotate(span, args, result)
            return result

        return wrapper

    def mark(self) -> int:
        """Index of the next span (spans recorded after it form a slice)."""
        return len(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def layer_totals(spans: list[Span], offset: int = 0) -> dict[str, float]:
    """Self seconds, call counts and returned counts per layer.

    ``spans`` is a slice of a tracer's spans starting at index
    ``offset`` (parents are absolute indices).
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None and span.parent >= offset:
            child_time[span.parent - offset] += span.duration
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = 0.0
        out[f"{layer}_calls"] = 0.0
    for name in SPAN_COUNTS:
        out[name] = 0.0
    for span, children in zip(spans, child_time):
        out[f"{span.layer}_s"] += span.duration - children
        out[f"{span.layer}_calls"] += 1.0
        for name, value in span.counts.items():
            out[name] += value
    return out


def merge_setup(setup: dict[str, float], passes: dict[str, float]) -> dict[str, float]:
    """Per-pass layer totals with the set-up layers taken from ``setup``."""
    out = dict(passes)
    for layer in SETUP_LAYERS:
        for key in (f"{layer}_s", f"{layer}_calls"):
            out[key] = setup[key]
    for key in SETUP_COUNTS:
        out[key] = setup[key]
    return out


def top_level_seconds(spans: list[Span], offset: int = 0) -> float:
    """Wall seconds covered by spans with no recorded parent in the slice."""
    return sum(
        s.duration for s in spans if s.parent is None or s.parent < offset
    )


def timing_discrepancies(spans: list[Span], offset: int = 0) -> list[float]:
    """|span time − StageTimings| per analyze stage, for every analyze call.

    The benchmark's ``core.*`` spans and :class:`PinSQLResult.timings`
    time the same stages; a large gap means a span wraps the wrong call.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    gaps: list[float] = []
    for i, span in enumerate(spans, start=offset):
        timings = span.attrs.get("timings")
        if timings is None:
            continue
        for stage, layers in TIMING_FIELDS.items():
            ours = sum(c.duration for c in children.get(i, ()) if c.layer in layers)
            gaps.append(abs(ours - timings[stage]))
    return gaps
