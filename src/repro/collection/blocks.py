"""Columnar block payloads: the batch unit of the dataplane.

PinSQL is fleet-scale: the collection pipeline must move millions of
query-log records per second, and per-record Python objects (one broker
message per (second, template) pair, one dict per metric sample) spend
more time on interpreter overhead and pickling than on the actual
aggregation work.  This module defines the *block* — one broker
``Message`` carries one block — as a numpy structured array plus a
small string dictionary:

- :class:`QueryLogBlock`: rows of ``(template, arrive_ms, response_ms,
  examined_rows)`` with ``sql_ids`` mapping the int32 ``template``
  column back to template ids, stamped with the source ``instance``;
- :class:`MetricBlock`: rows of ``(metric, timestamp, value)`` with a
  ``metrics`` name dictionary.

Blocks are frozen; their arrays must be treated as immutable (decoded
blocks are backed by read-only buffers).

A binary codec (:func:`encode_block` / :func:`decode_block`) frames a
block as ``magic + header-length + JSON header + raw column bytes`` for
the process boundary: persistent shard workers receive encoded blocks
and decode them with a single zero-copy ``np.frombuffer``.  Validation
(:func:`validate_query_block` / :func:`validate_metric_block`) mirrors
the per-record validators so malformed blocks — chaos-corrupted or
otherwise — are quarantined to the dead-letter topic instead of
crashing a drain loop.

Header v2 carries the distributed-tracing envelope: the publishing
span's :class:`~repro.telemetry.tracing.TraceContext` (``trace`` key)
and the publish wall-clock time (``created`` key, unix seconds) used
for pipeline-lag watermarks.  Both are optional; v1 frames — and v2
frames without them — decode to ``trace=None`` / ``created_unix=0.0``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.dbsim.monitor import InstanceMetrics
    from repro.dbsim.query import QueryLog

from repro.dbsim.query import SecondBatch
from repro.telemetry.tracing import TraceContext

__all__ = [
    "BLOCK_KEY",
    "QUERY_BLOCK_DTYPE",
    "METRIC_BLOCK_DTYPE",
    "BlockDecodeError",
    "QueryLogBlock",
    "MetricBlock",
    "query_block_from_log",
    "query_block_from_batches",
    "metric_block_from_metrics",
    "metric_block_from_records",
    "split_query_block",
    "stamp_block",
    "encode_block",
    "decode_block",
    "validate_query_block",
    "validate_metric_block",
]

#: Message key used for block payloads on broker topics.
BLOCK_KEY = "__block__"

#: Row layout of a query-log block: ``template`` indexes ``sql_ids``.
QUERY_BLOCK_DTYPE = np.dtype(
    [
        ("template", np.int32),
        ("arrive_ms", np.int64),
        ("response_ms", np.float64),
        ("examined_rows", np.float64),
    ]
)

#: Row layout of a metric block: ``metric`` indexes ``metrics``.
METRIC_BLOCK_DTYPE = np.dtype(
    [
        ("metric", np.int32),
        ("timestamp", np.int64),
        ("value", np.float64),
    ]
)

_MAGIC_QUERY = b"PQB1"
_MAGIC_METRIC = b"PMB1"
_HEADER_STRUCT = struct.Struct("<4sI")


class BlockDecodeError(ValueError):
    """A byte frame could not be decoded into a block."""


@dataclass(frozen=True)
class QueryLogBlock:
    """One columnar batch of query-log records (possibly many templates).

    ``data`` is a :data:`QUERY_BLOCK_DTYPE` structured array; the int32
    ``template`` column indexes ``sql_ids``.  ``statements`` optionally
    carries one raw exemplar statement per template (empty string =
    unknown), so catalogs can be taught across the process boundary.
    """

    sql_ids: tuple[str, ...]
    data: np.ndarray
    instance: str = ""
    statements: tuple[str, ...] = ()
    #: Publishing span's trace context (v2 header), None on v1 frames.
    trace: TraceContext | None = None
    #: Publish wall-clock time (unix seconds; 0.0 = unstamped) used for
    #: pipeline-lag watermarks downstream.
    created_unix: float = 0.0

    def __len__(self) -> int:
        return len(self.data)

    @property
    def n_templates(self) -> int:
        return len(self.sql_ids)

    @property
    def nbytes(self) -> int:
        """Approximate payload size (the structured rows)."""
        return int(self.data.nbytes)

    def iter_template_batches(self) -> Iterator[SecondBatch]:
        """Per-template :class:`SecondBatch` slices, arrival-ordered.

        One sort over ``(template, arrive_ms)`` splits the whole block;
        each yielded batch is time-ordered regardless of the block's
        row order, and ties keep their row order.
        """
        if len(self.data) == 0:
            return
        codes, starts, ends, arrive, resp, rows = self._split()
        for code, lo, hi in zip(codes.tolist(), starts.tolist(), ends.tolist()):
            yield SecondBatch(
                sql_id=self.sql_ids[code],
                arrive_ms=arrive[lo:hi],
                response_ms=resp[lo:hi],
                examined_rows=rows[lo:hi],
            )

    def _split(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rows sorted by ``(template, arrive_ms)`` plus per-template runs.

        Returns ``(codes, starts, ends, arrive_ms, response_ms,
        examined_rows)``: run ``i`` covers sorted rows
        ``starts[i]:ends[i]`` of template ``codes[i]``.  Shared by
        :meth:`iter_template_batches` and
        :meth:`repro.collection.logstore.LogStore.ingest_block`, which
        rolls the whole block up in one pass over these columns.  The
        block must be non-empty.
        """
        data = self.data
        order = _lexsort_order(data["template"], data["arrive_ms"])
        # ``np.take`` gathers strided record fields several times faster
        # than fancy indexing does.
        template = np.take(data["template"], order)
        starts, ends = _runs(template)
        return (
            template[starts],
            starts,
            ends,
            np.take(data["arrive_ms"], order),
            np.take(data["response_ms"], order),
            np.take(data["examined_rows"], order),
        )


@dataclass(frozen=True)
class MetricBlock:
    """One columnar batch of performance-metric samples."""

    metrics: tuple[str, ...]
    data: np.ndarray
    instance: str = ""
    trace: TraceContext | None = None
    created_unix: float = 0.0

    def __len__(self) -> int:
        return len(self.data)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def iter_metric_series(self) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
        """Per-metric ``(name, timestamps, values)`` column slices."""
        data = self.data
        if len(data) == 0:
            return
        order = _lexsort_order(data["metric"], data["timestamp"])
        metric = np.take(data["metric"], order)
        ts = np.take(data["timestamp"], order)
        values = np.take(data["value"], order)
        starts, ends = _runs(metric)
        codes = metric[starts].tolist()
        for code, lo, hi in zip(codes, starts.tolist(), ends.tolist()):
            yield self.metrics[code], ts[lo:hi], values[lo:hi]


def _lexsort_order(codes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exactly the permutation ``np.lexsort((times, codes))`` returns.

    ``lexsort`` is a stable multi-key sort and dominates block
    splitting; one ``argsort`` over a composite int64 key
    ``(code * span + (t - t_min)) * n + row`` orders the same way in a
    fraction of the time.  The row term makes every key unique, so ties
    keep their input order without needing a stable sort.  Blocks too
    wide for the key (``n_codes * span * n`` past int64) take the
    ``lexsort`` path.
    """
    n = len(codes)
    if n == 0:
        return np.empty(0, dtype=np.intp)
    c_min, t_min = int(codes.min()), int(times.min())
    n_codes = int(codes.max()) - c_min + 1
    span = int(times.max()) - t_min + 1
    if n_codes * span * n > np.iinfo(np.int64).max:
        return np.lexsort((times, codes))
    key = codes.astype(np.int64)
    if c_min:
        key -= c_min
    key *= span
    key += times - t_min
    key *= n
    key += np.arange(n, dtype=np.int64)
    return np.argsort(key)


def _runs(sorted_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of the equal-value runs of a sorted column."""
    boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(sorted_codes)]])
    return starts, ends


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def query_block_from_log(
    query_log: "QueryLog",
    instance: str = "",
    statements: Mapping[str, str] | None = None,
) -> QueryLogBlock:
    """Columnarise a whole simulated :class:`QueryLog` into one block.

    Rows come out template-major, arrival-ordered within each template
    — the same per-template order :meth:`QueryLog.queries_of` exposes,
    so block ingestion reproduces the per-record path bit-for-bit.
    """
    sql_ids: list[str] = []
    chunks: list[np.ndarray] = []
    for tq in query_log.iter_templates():
        if len(tq) == 0:
            continue
        rows = np.empty(len(tq), dtype=QUERY_BLOCK_DTYPE)
        rows["template"] = len(sql_ids)
        rows["arrive_ms"] = tq.arrive_ms
        rows["response_ms"] = tq.response_ms
        rows["examined_rows"] = tq.examined_rows
        sql_ids.append(tq.sql_id)
        chunks.append(rows)
    data = (
        np.concatenate(chunks)
        if chunks
        else np.empty(0, dtype=QUERY_BLOCK_DTYPE)
    )
    stmts: tuple[str, ...] = ()
    if statements:
        stmts = tuple(statements.get(sql_id, "") for sql_id in sql_ids)
    return QueryLogBlock(
        sql_ids=tuple(sql_ids), data=data, instance=instance, statements=stmts
    )


def query_block_from_batches(
    batches: Iterator[SecondBatch] | list[SecondBatch], instance: str = ""
) -> QueryLogBlock:
    """Columnarise loose :class:`SecondBatch` records into one block."""
    index: dict[str, int] = {}
    chunks: list[np.ndarray] = []
    for batch in batches:
        if len(batch) == 0:
            continue
        template = index.setdefault(batch.sql_id, len(index))
        rows = np.empty(len(batch), dtype=QUERY_BLOCK_DTYPE)
        rows["template"] = template
        rows["arrive_ms"] = batch.arrive_ms
        rows["response_ms"] = batch.response_ms
        rows["examined_rows"] = batch.examined_rows
        chunks.append(rows)
    data = (
        np.concatenate(chunks)
        if chunks
        else np.empty(0, dtype=QUERY_BLOCK_DTYPE)
    )
    return QueryLogBlock(sql_ids=tuple(index), data=data, instance=instance)


def metric_block_from_metrics(
    metrics: "InstanceMetrics", instance: str = ""
) -> MetricBlock:
    """Columnarise an :class:`InstanceMetrics` bundle into one block."""
    names: list[str] = []
    chunks: list[np.ndarray] = []
    for name, series in metrics.series.items():
        n = len(series.values)
        if n == 0:
            continue
        rows = np.empty(n, dtype=METRIC_BLOCK_DTYPE)
        rows["metric"] = len(names)
        rows["timestamp"] = np.asarray(series.timestamps, dtype=np.int64)
        rows["value"] = np.asarray(series.values, dtype=np.float64)
        names.append(name)
        chunks.append(rows)
    data = (
        np.concatenate(chunks)
        if chunks
        else np.empty(0, dtype=METRIC_BLOCK_DTYPE)
    )
    return MetricBlock(metrics=tuple(names), data=data, instance=instance)


def metric_block_from_records(
    records: list[Mapping], instance: str = ""
) -> MetricBlock:
    """Columnarise per-record metric dicts (the legacy wire format)."""
    names: dict[str, int] = {}
    data = np.empty(len(records), dtype=METRIC_BLOCK_DTYPE)
    for i, record in enumerate(records):
        data["metric"][i] = names.setdefault(str(record["metric"]), len(names))
        data["timestamp"][i] = int(record["timestamp"])
        data["value"][i] = float(record["value"])
    return MetricBlock(metrics=tuple(names), data=data, instance=instance)


def split_query_block(
    block: QueryLogBlock, max_rows: int
) -> list[QueryLogBlock]:
    """Split a block into row-bounded blocks sharing the dictionary.

    Bounded message sizes keep broker memory and IPC frames sane; the
    shared ``sql_ids`` dictionary means no re-indexing.
    """
    if max_rows <= 0:
        raise ValueError("max_rows must be positive")
    if len(block) <= max_rows:
        return [block]
    return [
        replace(block, data=block.data[lo : lo + max_rows])
        for lo in range(0, len(block), max_rows)
    ]


def stamp_block(
    block: QueryLogBlock | MetricBlock,
    trace: TraceContext | None,
    created_unix: float,
) -> QueryLogBlock | MetricBlock:
    """Stamp the tracing envelope onto a block at publish time.

    Existing stamps win — a block republished by a shard worker keeps
    the parent's trace context and original publish time, which is what
    makes end-to-end pipeline-lag watermarks honest.
    """
    updates: dict[str, object] = {}
    if trace is not None and block.trace is None:
        updates["trace"] = trace
    if created_unix and not block.created_unix:
        updates["created_unix"] = float(created_unix)
    return replace(block, **updates) if updates else block


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def encode_block(block: QueryLogBlock | MetricBlock) -> bytes:
    """Frame a block as ``magic + header length + JSON header + rows``.

    Emits a v2 header; the tracing envelope keys are included only when
    the block is stamped, so unstamped blocks stay byte-identical
    across publishes.
    """
    if isinstance(block, QueryLogBlock):
        magic = _MAGIC_QUERY
        header = {
            "v": 2,
            "rows": len(block.data),
            "names": list(block.sql_ids),
            "instance": block.instance,
            "statements": list(block.statements),
        }
        expected = QUERY_BLOCK_DTYPE
    elif isinstance(block, MetricBlock):
        magic = _MAGIC_METRIC
        header = {
            "v": 2,
            "rows": len(block.data),
            "names": list(block.metrics),
            "instance": block.instance,
        }
        expected = METRIC_BLOCK_DTYPE
    else:
        raise TypeError(f"not a block: {type(block).__name__}")
    if block.trace is not None:
        header["trace"] = block.trace.to_dict()
    if block.created_unix:
        header["created"] = float(block.created_unix)
    if block.data.dtype != expected:
        raise ValueError(f"block dtype mismatch: {block.data.dtype}")
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    payload = np.ascontiguousarray(block.data).tobytes()
    return _HEADER_STRUCT.pack(magic, len(header_bytes)) + header_bytes + payload


def decode_block(raw: bytes) -> QueryLogBlock | MetricBlock:
    """Decode a frame produced by :func:`encode_block`.

    The row array is a zero-copy read-only view over ``raw``; blocks
    are immutable by contract so no defensive copy is made.
    """
    if len(raw) < _HEADER_STRUCT.size:
        raise BlockDecodeError("frame shorter than header")
    magic, header_len = _HEADER_STRUCT.unpack_from(raw)
    if magic not in (_MAGIC_QUERY, _MAGIC_METRIC):
        raise BlockDecodeError(f"bad magic: {magic!r}")
    body_start = _HEADER_STRUCT.size + header_len
    if len(raw) < body_start:
        raise BlockDecodeError("truncated header")
    try:
        header = json.loads(raw[_HEADER_STRUCT.size : body_start])
    except ValueError as exc:
        raise BlockDecodeError(f"bad header json: {exc}") from exc
    if not isinstance(header, dict) or header.get("v") not in (1, 2):
        raise BlockDecodeError("unsupported header version")
    try:
        rows = int(header["rows"])
        names = tuple(str(n) for n in header["names"])
        instance = str(header.get("instance", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise BlockDecodeError(f"malformed header: {exc}") from exc
    # v2 tracing envelope; junk degrades to "unstamped", never raises —
    # a corrupted trace dict must not dead-letter an otherwise valid
    # block.
    trace: TraceContext | None = None
    trace_payload = header.get("trace")
    if isinstance(trace_payload, dict):
        trace = TraceContext.from_dict(trace_payload)
    created = header.get("created", 0.0)
    created_unix = float(created) if isinstance(created, (int, float)) else 0.0
    dtype = QUERY_BLOCK_DTYPE if magic == _MAGIC_QUERY else METRIC_BLOCK_DTYPE
    if rows < 0 or len(raw) - body_start != rows * dtype.itemsize:
        raise BlockDecodeError(
            f"payload size mismatch: {len(raw) - body_start} bytes for {rows} rows"
        )
    data = np.frombuffer(raw, dtype=dtype, count=rows, offset=body_start)
    if magic == _MAGIC_QUERY:
        statements = tuple(str(s) for s in header.get("statements", ()))
        if statements and len(statements) != len(names):
            raise BlockDecodeError("statements do not match template dictionary")
        return QueryLogBlock(
            sql_ids=names, data=data, instance=instance, statements=statements,
            trace=trace, created_unix=created_unix,
        )
    return MetricBlock(
        metrics=names, data=data, instance=instance,
        trace=trace, created_unix=created_unix,
    )


# ----------------------------------------------------------------------
# Validation (mirrors repro.collection.quarantine record validators)
# ----------------------------------------------------------------------
def validate_query_block(block: object) -> str | None:
    """Reject reason for a query-log block, or ``None`` if valid."""
    if not isinstance(block, QueryLogBlock):
        return "not_a_block"
    data = block.data
    if not isinstance(data, np.ndarray) or data.dtype != QUERY_BLOCK_DTYPE:
        return "bad_dtype"
    if data.ndim != 1 or data.size == 0:
        return "bad_shape:data"
    if not all(isinstance(s, str) and s for s in block.sql_ids):
        return "bad_type:sql_ids"
    if block.statements and len(block.statements) != len(block.sql_ids):
        return "length_mismatch:statements"
    template = data["template"]
    if len(block.sql_ids) == 0:
        return "missing_dictionary"
    if template.min() < 0 or template.max() >= len(block.sql_ids):
        return "bad_index:template"
    if data["arrive_ms"].min() < 0:
        return "bad_type:arrive_ms"
    if not np.isfinite(data["response_ms"]).all():
        return "non_finite:response_ms"
    if not np.isfinite(data["examined_rows"]).all():
        return "non_finite:examined_rows"
    if not isinstance(block.instance, str):
        return "bad_type:instance"
    return _validate_envelope(block)


def validate_metric_block(block: object) -> str | None:
    """Reject reason for a metric block, or ``None`` if valid."""
    if not isinstance(block, MetricBlock):
        return "not_a_block"
    data = block.data
    if not isinstance(data, np.ndarray) or data.dtype != METRIC_BLOCK_DTYPE:
        return "bad_dtype"
    if data.ndim != 1 or data.size == 0:
        return "bad_shape:data"
    if not all(isinstance(s, str) and s for s in block.metrics):
        return "bad_type:metrics"
    metric = data["metric"]
    if len(block.metrics) == 0:
        return "missing_dictionary"
    if metric.min() < 0 or metric.max() >= len(block.metrics):
        return "bad_index:metric"
    if data["timestamp"].min() < 0:
        return "bad_type:timestamp"
    if not np.isfinite(data["value"]).all():
        return "non_finite:value"
    if not isinstance(block.instance, str):
        return "bad_type:instance"
    return _validate_envelope(block)


def _validate_envelope(block: QueryLogBlock | MetricBlock) -> str | None:
    if block.trace is not None and not isinstance(block.trace, TraceContext):
        return "bad_type:trace"
    if not isinstance(block.created_unix, (int, float)) or not np.isfinite(
        block.created_unix
    ) or block.created_unix < 0:
        return "bad_type:created_unix"
    return None
