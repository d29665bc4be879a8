"""Process-sharded fleet runs (multicore scaling past the GIL).

The fleet's thread pool keeps one process's instances concurrent, but
PinSQL analysis is CPU-bound Python: threads interleave under the GIL
instead of truly overlapping.  For real multicore scaling the fleet is
sharded across *processes*: the parent partitions instances with the
same :func:`~repro.fleet.scheduler.stable_shard` hash, ships each
worker its instances' collected streams, and merges the per-shard
diagnosis counts.

``processes > 1`` runs on the columnar dataplane: feeds are encoded
into block frames and dispatched one instance at a time to the
long-lived processes of a
:class:`~repro.fleet.workers.PersistentWorkerPool` (see that module).
``processes <= 1`` runs in-process: :class:`InstanceFeed` entries
replay through the legacy per-record path, byte-for-byte identical to
what :func:`run_shard` has always produced, and pre-columnarised
:class:`~repro.fleet.workers.BlockFeed` entries run through the same
:func:`~repro.fleet.workers.execute_work_item` body the pool's workers
use — the shared code path callers use regardless of cores.

This mirrors production, where diagnosis workers are separate machines
consuming a shared Kafka: the message stream is the interface, never
live Python state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:  # pragma: no cover - chaos wraps fleet, import lazily
    from repro.chaos.plan import FaultPlan
    from repro.fleet.workers import WorkItem

from repro.collection.collector import METRIC_TOPIC, QUERY_TOPIC
from repro.collection.stream import Broker, instance_topic
from repro.fleet.engine import ServiceConfig
from repro.fleet.scheduler import stable_shard
from repro.fleet.service import FleetConfig, FleetDiagnosisService
from repro.telemetry import get_logger, get_registry, get_tracer

_log = get_logger("fleet")

__all__ = [
    "InstanceFeed",
    "ShardTask",
    "feed_from_broker",
    "run_shard",
    "run_shard_supervised",
    "run_sharded",
]


@dataclass
class InstanceFeed:
    """One instance's collected streams as picklable ``(key, value)`` records."""

    instance_id: str
    query_records: list[tuple] = field(default_factory=list)
    metric_records: list[tuple] = field(default_factory=list)


@dataclass
class ShardTask:
    """Everything one worker process needs to diagnose its shard."""

    feeds: list[InstanceFeed]
    config: ServiceConfig | None = None
    #: When set, the shard persists every diagnosis to an
    #: :class:`~repro.incidents.store.IncidentStore` rooted here.  Each
    #: worker process must get its OWN directory — JSONL segments are
    #: single-writer; :func:`run_sharded` assigns ``shard-NN`` subdirs
    #: and health reporting merges them back with ``discover_stores``.
    incident_dir: str | None = None
    #: Optional chaos plan: the shard replays its feeds through a
    #: :class:`~repro.chaos.ChaosBroker` and may crash outright
    #: (``worker_crash``) so the parent's supervised restarts are
    #: exercised.  Plans are plain frozen dataclasses, hence picklable.
    fault_plan: "FaultPlan | None" = None
    #: Stable shard identity (the crash decision keys on it).
    shard_key: str = "shard-00"
    #: Which supervised attempt this is (bumped by the restart loop).
    attempt: int = 0


def feed_from_broker(broker: Broker, instance_id: str) -> InstanceFeed:
    """Capture an instance's topic partitions as a shippable feed."""
    query = broker.read(instance_topic(QUERY_TOPIC, instance_id), 0, 1 << 31)
    metric = broker.read(instance_topic(METRIC_TOPIC, instance_id), 0, 1 << 31)
    return InstanceFeed(
        instance_id=instance_id,
        query_records=[(m.key, m.value) for m in query],
        metric_records=[(m.key, m.value) for m in metric],
    )


def run_shard(task: ShardTask) -> dict[str, int]:
    """Diagnose one shard in-process; returns diagnoses per instance.

    Module-level and single-argument so ``multiprocessing.Pool.map``
    can pickle it.
    """
    broker = Broker()
    publish_broker = broker
    fault_hook = None
    chaos_broker = None
    if task.fault_plan is not None:
        from repro.chaos.injector import FaultInjector, InjectedWorkerCrash

        injector = FaultInjector(task.fault_plan)
        if injector.should_crash_shard(task.shard_key, task.attempt):
            raise InjectedWorkerCrash(
                f"injected crash of {task.shard_key} (attempt {task.attempt})"
            )
        chaos_broker = injector.wrap_broker(broker)
        publish_broker = chaos_broker
        fault_hook = injector.fleet_hook()
    recorder = None
    if task.incident_dir is not None:
        from repro.incidents import IncidentRecorder, IncidentStore

        recorder = IncidentRecorder(IncidentStore(task.incident_dir))
    service = FleetDiagnosisService(
        broker,
        config=FleetConfig(service=task.config or ServiceConfig(), workers=1),
        recorder=recorder,
        fault_hook=fault_hook,
    )
    for feed in task.feeds:
        service.register_instance(feed.instance_id)
        for key, value in feed.query_records:
            publish_broker.publish(
                instance_topic(QUERY_TOPIC, feed.instance_id), key, value
            )
        for key, value in feed.metric_records:
            publish_broker.publish(
                instance_topic(METRIC_TOPIC, feed.instance_id), key, value
            )
    if chaos_broker is not None:
        chaos_broker.flush()
    service.run_until_drained()
    return {
        instance_id: len(service.diagnoses_for(instance_id))
        for instance_id in service.instance_ids
    }


def _count_shard_restart(shard_key: str) -> None:
    get_registry().counter(
        "fleet_worker_restarts_total",
        help="Supervised restarts of crashed fleet worker steps.",
        instance=shard_key,
    ).inc()


def run_shard_supervised(
    task: ShardTask, max_restarts: int = 2
) -> dict[str, int]:
    """Run one shard with bounded supervised restarts.

    A crashed shard (chaos-injected or real) is restarted with a bumped
    ``attempt`` up to ``max_restarts`` times; a shard that still cannot
    complete is abandoned with a warning (its instances report zero
    diagnoses) rather than failing the whole fleet run.
    """
    return _supervised(
        run_shard, task, max_restarts, [feed.instance_id for feed in task.feeds]
    )


_Task = TypeVar("_Task", "ShardTask", "WorkItem")


def _supervised(
    run: Callable[[_Task], dict[str, int]],
    task: _Task,
    max_restarts: int,
    instance_ids: list[str],
) -> dict[str, int]:
    """``run(task)`` restarted on failure with a bumped ``attempt``."""
    while True:
        try:
            return run(task)
        except Exception:
            if task.attempt >= max_restarts:
                _log.warning(
                    "shard failed after supervised restarts; abandoning",
                    extra={"shard": task.shard_key, "attempts": task.attempt},
                    exc_info=True,
                )
                return {instance_id: 0 for instance_id in instance_ids}
            task = replace(task, attempt=task.attempt + 1)
            _count_shard_restart(task.shard_key)


def _run_work_item_inline(item: "WorkItem") -> dict[str, int]:
    """One work item in this process, its telemetry folded into ours."""
    from repro.fleet.workers import execute_work_item, merge_export

    try:
        export = execute_work_item(item)
    except Exception as exc:
        merge_export(
            getattr(exc, "partial_export", None), get_registry(), get_tracer()
        )
        raise
    merge_export(export, get_registry(), get_tracer())
    return export["counts"]


def run_sharded(
    feeds: list[InstanceFeed],
    processes: int,
    config: ServiceConfig | None = None,
    incident_dir: str | None = None,
    fault_plan: "FaultPlan | None" = None,
    max_restarts: int = 2,
) -> dict[str, int]:
    """Partition feeds over worker processes; merge diagnosis counts.

    ``processes <= 1`` runs everything inline (no multiprocessing), so
    callers can use one code path regardless of available cores.

    When ``incident_dir`` is given, every shard records incidents into
    its own subdirectory (``shard-00``, ``shard-01``, …) of that path;
    ``repro incidents health <dir>`` (or
    :func:`repro.incidents.load_health`) merges them afterwards.

    Shard crashes — chaos-injected via ``fault_plan`` or real — are
    supervised by the parent: each crashed work item is resubmitted
    with a bumped attempt up to ``max_restarts`` times (counted into
    ``fleet_worker_restarts_total``) before being abandoned.

    ``processes > 1`` runs on a
    :class:`~repro.fleet.workers.PersistentWorkerPool`: feeds are
    columnarised into encoded block frames, and long-lived worker
    processes pull one instance-sized work item at a time instead of
    receiving their whole shard up front.  ``feeds`` may mix
    :class:`InstanceFeed` and pre-columnarised
    :class:`~repro.fleet.workers.BlockFeed` entries.
    """
    from repro.fleet.workers import (
        BlockFeed,
        PersistentWorkerPool,
        WorkItem,
        columnarize_feed,
    )

    if processes <= 1:
        shard_dir = None
        if incident_dir is not None:
            shard_dir = str(Path(incident_dir) / "shard-00")
        record_feeds = [f for f in feeds if not isinstance(f, BlockFeed)]
        counts: dict[str, int] = {}
        if record_feeds:
            counts.update(
                run_shard_supervised(
                    ShardTask(
                        feeds=record_feeds,
                        config=config,
                        incident_dir=shard_dir,
                        fault_plan=fault_plan,
                    ),
                    max_restarts=max_restarts,
                )
            )
        for feed in feeds:
            if isinstance(feed, BlockFeed):
                item = WorkItem(
                    feed=feed,
                    config=config,
                    incident_dir=shard_dir,
                    fault_plan=fault_plan,
                )
                counts.update(
                    _supervised(
                        _run_work_item_inline, item, max_restarts, [feed.instance_id]
                    )
                )
        return counts

    items = []
    for feed in feeds:
        idx = stable_shard(feed.instance_id, processes)
        block_feed = feed if isinstance(feed, BlockFeed) else columnarize_feed(feed)
        items.append(
            WorkItem(
                feed=block_feed,
                config=config,
                incident_dir=(
                    str(Path(incident_dir) / f"shard-{idx:02d}")
                    if incident_dir is not None
                    else None
                ),
                fault_plan=fault_plan,
                shard_key=f"shard-{idx:02d}",
            )
        )
    pool = PersistentWorkerPool(processes=processes, max_restarts=max_restarts)
    return pool.run(items)
