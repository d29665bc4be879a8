"""``fleet_stream``: the block dataplane and the engine's streaming loop.

Set-up simulates a fleet of instances with :mod:`repro.dbsim` and
encodes every instance's query log and metrics as one PQB1/PMB1 block
per minute.  The timed phase replays the fleet minute by minute into a
fresh :class:`FleetDiagnosisService` with its production sinks on
(incident recorder, health sweeper), in a closed loop: publish one
minute for every instance, ``step()`` once, repeat; then drain.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import workload
from repro.collection import blocks
from repro.collection.collector import METRIC_TOPIC, QUERY_TOPIC
from repro.collection.stream import Broker, instance_topic
from repro.core.session_estimation import CoverageFunction
from repro.dbsim import DatabaseInstance
from repro.fleet import FleetConfig, FleetDiagnosisService, ServiceConfig
from repro.health import FindingsStore, HealthSweeper
from repro.incidents import IncidentRecorder, IncidentStore
from repro.telemetry import MetricsRegistry
from repro.workload import AnomalyCategory

from perfbench.common import (
    OUT_DIR,
    Outcome,
    Ranking,
    counter_total,
    median,
    peak_rss_mb,
    quantile,
    reset_peak_rss,
    run_passes,
    settle,
    top5,
)
from perfbench.spans import SpanTracer, layer_totals

#: Pinned generation seed: every ``--seed`` replays the same fleet, so
#: accuracy metrics compare across seeds and commits.
FLEET_SEED = 2022
N_INSTANCES = 8
DURATION_S = 1200
ONSET_S = DURATION_S * 2 // 3
CPU_CORES = 8
#: One planted anomaly per category on the first instances; the rest
#: stay healthy.
PLANTED = (
    AnomalyCategory.ROW_LOCK,
    AnomalyCategory.MDL_LOCK,
    AnomalyCategory.POOR_SQL,
    AnomalyCategory.BUSINESS_SPIKE,
)
SERVICE = ServiceConfig(delta_start_s=300, detector_window_s=DURATION_S)
#: Cache key of the fleet's recorded digest (see ``perfbench.inputs``).
CONFIG = (
    f"seed={FLEET_SEED} instances={N_INSTANCES} duration={DURATION_S} "
    f"onset={ONSET_S} cores={CPU_CORES} planted={[c.value for c in PLANTED]}"
)


@dataclass
class InstanceFeed:
    """One instance's encoded minutes plus its ground truth."""

    instance_id: str
    query_minutes: list[bytes]
    metric_minutes: list[bytes]
    rows: int
    r_truth: frozenset[str]
    h_truth: frozenset[str]

    @property
    def anomalous(self) -> bool:
        return bool(self.r_truth)


def _by_minute(block, column: str, per_minute: int, n_minutes: int) -> list:
    """Split a block into one block per minute (dictionary shared).

    Only the first minute carries the statement exemplars: the engine's
    catalog learns a template once.
    """
    minute = np.minimum(block.data[column] // per_minute, n_minutes - 1)
    order = np.argsort(minute, kind="stable")
    bounds = np.searchsorted(minute[order], np.arange(n_minutes + 1))
    out = []
    for m in range(n_minutes):
        piece = replace(block, data=block.data[order[bounds[m]:bounds[m + 1]]])
        if m and isinstance(piece, blocks.QueryLogBlock):
            piece = replace(piece, statements=())
        out.append(piece)
    return out


def _h_truth(query_log, start: int, end: int, top: int = 10) -> frozenset[str]:
    """Templates whose true session rose the most during the anomaly.

    The corpus labels H-SQLs by this rule too; its helper is private to
    ``repro.evaluation.dataset``, and the benchmark uses public API only.
    """
    increases: dict[str, float] = {}
    for tq in query_log.iter_templates():
        cov = CoverageFunction(tq.arrive_ms, tq.response_ms)
        f = cov(np.array([30_000.0, start * 1000.0, end * 1000.0]))
        increases[tq.sql_id] = (f[2] - f[1]) / (end - start) - (f[1] - f[0]) / (start - 30)
    best = max(increases.values(), default=0.0)
    if best <= 0:
        return frozenset()
    chosen = sorted(
        (s for s, inc in increases.items() if inc >= max(0.1 * best, 0.5)),
        key=lambda s: -increases[s],
    )
    return frozenset(chosen[:top])


def simulate_fleet() -> list[InstanceFeed]:
    """Simulate and encode the fleet (the workload's set-up)."""
    n_minutes = DURATION_S // 60
    feeds = []
    for i in range(N_INSTANCES):
        instance_id = f"db-{i:02d}"
        rng = np.random.default_rng(FLEET_SEED * 1009 + i)
        population = workload.build_population(DURATION_S, rng, n_businesses=5)
        injected = None
        if i < len(PLANTED):
            kwargs = {}
            if PLANTED[i] is AnomalyCategory.POOR_SQL:
                kwargs["capacity_hint_ms"] = CPU_CORES * 1000.0
            injected = workload.inject_anomaly(
                population, rng, PLANTED[i], ONSET_S, DURATION_S, **kwargs
            )
        db = DatabaseInstance(
            schema=population.schema, cpu_cores=CPU_CORES, seed=FLEET_SEED + i
        )
        run = db.run(workload.WorkloadGenerator(population), duration=DURATION_S)
        statements = {
            sql_id: spec.exemplar or spec.template.replace("?", "1")
            for sql_id, spec in population.specs.items()
        }
        qblock = blocks.query_block_from_log(
            run.query_log, instance=instance_id, statements=statements
        )
        mblock = blocks.metric_block_from_metrics(run.metrics, instance=instance_id)
        r_truth = h_truth = frozenset()
        if injected is not None:
            r_truth = frozenset(injected.r_sql_ids) & frozenset(run.query_log.sql_ids)
            h_truth = _h_truth(run.query_log, ONSET_S, DURATION_S) or r_truth
        feeds.append(
            InstanceFeed(
                instance_id=instance_id,
                query_minutes=[
                    blocks.encode_block(b)
                    for b in _by_minute(qblock, "arrive_ms", 60_000, n_minutes)
                ],
                metric_minutes=[
                    blocks.encode_block(b)
                    for b in _by_minute(mblock, "timestamp", 60, n_minutes)
                ],
                rows=len(qblock),
                r_truth=r_truth,
                h_truth=h_truth,
            )
        )
    return feeds


def fleet_digest(feeds: list[InstanceFeed]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for feed in feeds:
        h.update(feed.instance_id.encode())
        for payload in (*feed.query_minutes, *feed.metric_minutes):
            h.update(payload)
    return h.hexdigest()


@dataclass
class PassResult:
    wall_s: float
    rows_published: int
    step_s: list[float]
    ttd_s: list[float]
    analyze_s: list[float]
    #: instance → top-5 (R, H) of its first diagnosis (None if undiagnosed).
    first: dict[str, tuple | None]
    ranking: Ranking
    failures: list[str]
    diagnoses: int
    #: Counters read from the pass's private registry.
    events: float
    quarantined: float
    restarts: float


def run_pass(feeds: list[InstanceFeed], order: list[int], workdir,
             corrupt: tuple[int, int] | None = None,
             tracer: SpanTracer | None = None, request_prefix: str = "") -> PassResult:
    """Replay the fleet once through a fresh service (timed phase)."""
    shutil.rmtree(workdir, ignore_errors=True)
    t_start = time.perf_counter()
    registry = MetricsRegistry()
    broker = Broker(registry=registry)
    recorder = IncidentRecorder(
        IncidentStore(workdir / "incidents", registry=registry), registry=registry
    )
    sweeper = HealthSweeper(
        store=FindingsStore(workdir / "findings", registry=registry),
        incident_store=recorder.store,
        registry=registry,
    )
    service = FleetDiagnosisService(
        broker,
        FleetConfig(service=SERVICE, workers=1, prune_broker=True),
        registry=registry,
        recorder=recorder,
        sweeper=sweeper,
    )
    for i in order:
        service.register_instance(feeds[i].instance_id)
    step_s: list[float] = []
    ttd_s: list[float] = []
    produced = []
    rows_published = 0
    n_minutes = len(feeds[0].query_minutes)
    for m in range(n_minutes):
        if tracer is not None:
            tracer.request = f"{request_prefix}step{m}"
        t_publish = time.perf_counter()
        for i in order:
            feed = feeds[i]
            qpayload = feed.query_minutes[m]
            if corrupt == (i, m):
                qpayload = _corrupted(qpayload)
            qblock = blocks.decode_block(qpayload)
            rows_published += len(qblock)
            broker.publish_block(instance_topic(QUERY_TOPIC, feed.instance_id), qblock)
            broker.publish_block(
                instance_topic(METRIC_TOPIC, feed.instance_id),
                blocks.decode_block(feed.metric_minutes[m]),
            )
        t0 = time.perf_counter()
        diagnoses = service.step()
        t1 = time.perf_counter()
        step_s.append(t1 - t0)
        ttd_s.extend(t1 - t_publish for _ in diagnoses)
        produced.extend(diagnoses)
    if tracer is not None:
        tracer.request = f"{request_prefix}drain"
    t_drain = time.perf_counter()
    drained = service.run_until_drained()
    t_end = time.perf_counter()
    ttd_s.extend(t_end - t_drain for _ in drained)
    produced.extend(drained)
    service.close()
    first, ranking, failures = _score(feeds, produced, registry)
    return PassResult(
        wall_s=t_end - t_start,
        rows_published=rows_published,
        step_s=step_s,
        ttd_s=ttd_s,
        analyze_s=[d.result.timings.total for d in produced],
        first=first,
        ranking=ranking,
        failures=failures,
        diagnoses=len(produced),
        events=counter_total(registry, "detector_events_total"),
        quarantined=counter_total(registry, "collector_quarantined_total"),
        restarts=counter_total(registry, "fleet_worker_restarts_total"),
    )


def _corrupted(payload: bytes) -> bytes:
    """Re-encode a query block with non-finite response times."""
    block = blocks.decode_block(payload)
    data = block.data.copy()
    data["response_ms"][0] = np.nan
    return blocks.encode_block(replace(block, data=data))


def _score(feeds, produced, registry) -> tuple[dict, Ranking, list[str]]:
    """Judge each instance's first diagnosis against its planted truth."""
    first_diagnosis: dict[str, object] = {}
    for d in produced:
        first_diagnosis.setdefault(d.instance_id, d)
    first: dict[str, tuple | None] = {}
    ranking = Ranking()
    failures: list[str] = []
    for feed in feeds:
        d = first_diagnosis.get(feed.instance_id)
        first[feed.instance_id] = (
            None if d is None else top5(d.result.rsql_ids, d.result.hsql_ids)
        )
        ingested = registry.get(
            "service_querylog_block_records_total", instance=feed.instance_id
        ).value
        if ingested != feed.rows:
            failures.append(
                f"{feed.instance_id}: rows ingested {ingested:.0f} != published {feed.rows}"
            )
        elif feed.anomalous and d is None:
            failures.append(f"{feed.instance_id}: planted anomaly never diagnosed")
        elif not feed.anomalous and d is not None:
            failures.append(f"{feed.instance_id}: healthy instance diagnosed")
        elif d is not None and not d.result.rsql_ids:
            failures.append(f"{feed.instance_id}: empty R-SQL ranking")
        if feed.anomalous and d is not None:
            ranking.add(d.result.rsql_ids, feed.r_truth, d.result.hsql_ids, feed.h_truth)
    return first, ranking, failures


def run(seed: int, seconds: float, traced: bool, expected_digest: str,
        corrupt: tuple[int, int] | None = None) -> Outcome:
    """One run: simulate once (set-up), then replay for ``seconds``.

    ``expected_digest`` is the fleet digest recorded when the input cache
    was filled; a different one means the simulation is not deterministic.
    ``corrupt=(instance index, minute)`` poisons that query block, to
    show a lost block counts as a failure.
    """
    tracer = SpanTracer() if traced else None
    checks: list[str] = []
    if tracer is not None:
        tracer.install()
        tracer.request = "setup"
    t0 = time.perf_counter()
    feeds = simulate_fleet()
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        setup_layers = layer_totals(tracer.spans)
    digest = fleet_digest(feeds)
    if digest != expected_digest:
        checks.append(f"fleet digest {digest} != recorded {expected_digest}")
    order = list(np.random.default_rng(seed).permutation(len(feeds)))
    workdir = OUT_DIR / "work" / "fleet_stream"

    # One untimed pass finishes lazy set-up (imports, first allocations).
    run_pass(feeds, order, workdir, corrupt)
    settle()

    reset_peak_rss()
    passes = run_passes(
        lambda span_tracer, prefix: run_pass(
            feeds, order, workdir, corrupt, span_tracer, prefix
        ),
        tracer, seconds, min_passes=2,
    )
    peak = peak_rss_mb()
    shutil.rmtree(workdir, ignore_errors=True)
    checks.extend(passes.check_failures(lambda p: p.first))

    untraced = passes.untraced
    if any(p.quarantined for p in untraced):
        checks.append(f"{untraced[0].quarantined:.0f} quarantined messages per pass")
    checks.extend(f for f in untraced[0].failures if "rows ingested" in f)

    steps = [s for p in untraced for s in p.step_s]
    ttd = [s for p in untraced for s in p.ttd_s]
    analyze = [s for p in untraced for s in p.analyze_s]
    attempted = sum(len(feeds) for _ in untraced)
    failed = sum(len(p.failures) for p in untraced)
    e2e = {
        "setup_s": setup_s,
        "throughput_rows_per_s": (
            sum(p.rows_published for p in untraced) / sum(p.wall_s for p in untraced)
        ),
        "step_p50_ms": 1000.0 * median(steps),
        "time_to_diagnosis_p50_ms": 1000.0 * median(ttd),
        "diagnosis_p50_s": median(analyze),
        "diagnosis_p90_s": quantile(analyze, 0.9),
        **untraced[0].ranking.metrics(),
        "success_rate": 100.0 * (attempted - failed) / attempted,
        "peak_rss_mb": peak,
    }
    layers: dict[str, float] = {}
    if tracer is not None:
        layers = passes.layers(setup_layers)
        first = passes.traced[0]
        layers.update({
            "fleet.diagnoses": float(first.diagnoses),
            "fleet.events_diagnosed_ratio": first.diagnoses / max(first.events, 1.0),
            "collection.quarantined": first.quarantined,
            "fleet.worker_restarts": first.restarts,
        })
        tracer.write(OUT_DIR / f"spans-fleet_stream-seed{seed}.json")
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
            "rows_per_pass": untraced[0].rows_published,
            "diagnoses_per_pass": untraced[0].diagnoses,
            "steps": len(steps),
            "max_timing_gap_s": max(passes.timing_gaps, default=None),
            "failures": untraced[0].failures,
        },
    )
