"""Structured event log — the flight recorder of :mod:`repro.obs`.

Metrics say *how much* and spans say *how long*; neither answers the
operator's "what happened, in order, and why".  This module is the
third observability pillar: a thread-safe log of **typed events**
(plain dicts with a stable envelope) that the E stage, the V stage,
the MapReduce engine, and the serving layer emit at their decision
points — scenario selected, target distinguished, match decided, task
retried, request shed.

Every event carries:

* ``seq`` — a process-monotone sequence number (total order even when
  two threads emit in the same clock tick);
* ``ts`` — wall-clock seconds (``time.time()``), so a JSONL stream can
  be correlated with external logs;
* ``type`` — one of the :data:`EVENT_TYPES` catalogue names;
* ``run_id`` — the active :class:`~repro.obs.runs.RunContext`'s id
  (``""`` when no run is active);
* ``span_id`` — the innermost open span's id on the emitting thread
  (``None`` when tracing is off), which is what lets a report join the
  event timeline against the span tree;
* ``trace_id`` — the distributed trace the open span belongs to
  (``None`` outside a traced cluster request), correlating events
  across processes;
* ``fields`` — the event type's own payload.

Retention is a bounded ring buffer (old events fall off; a universal
match emits thousands) plus an optional **JSONL file sink** that keeps
everything — ``repro match --events out.jsonl`` wires one up.  The
process default is a shared :class:`NullEventLog` whose ``emit`` is a
no-op, so instrumented hot paths pay one method call when the recorder
is off; hot loops additionally guard bulk emission on
:attr:`EventLog.enabled`.

Two verbosity levels bound the recorder's data-plane cost.  The
default ``level="info"`` records every decision-point event; the
per-item chatter inside the matcher's hot loops (one event per
selected scenario, per distinguished target, per dropped scenario) is
**debug**-level — call sites guard it on :attr:`EventLog.debug`, and
its aggregate totals still arrive at info level via
``e.split.converged`` and ``v.match.decided``.  Pass
``EventLog(level="debug")`` to record everything.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import IO, Any, Deque, Dict, List, Optional, Tuple, Union

from repro.obs.registry import get_registry
from repro.obs.tracing import get_tracer

#: Lazily bound ``repro.obs.runs.get_run_context`` (that module imports
#: this one, so a top-level import would be circular).
_get_run_context = None

#: Default ring-buffer capacity.
DEFAULT_CAPACITY = 4096

#: Counter (on the process-global registry) of ring overwrites of
#: unread events — bounded retention means telemetry loss under
#: saturation, and operators need that loss to be *visible*.
EVENTS_DROPPED_METRIC = "ev_obs_events_dropped_total"

#: Gauge (on the process-global registry) of the shipping backlog a
#: single :meth:`EventShipper.collect` could not carry: fresh events
#: beyond ``max_per_collect`` at beat time.  Sustained non-zero means
#: emission outruns the shipping budget — raise ``--events-per-beat``
#: or shorten ``--telemetry-interval`` (see docs/architecture.md).
SHIP_LAG_METRIC = "ev_obs_ship_lag"

#: The event-type catalogue (documented in ``docs/architecture.md``).
#: E stage (set splitting / refining):
E_SPLIT_STARTED = "e.split.started"
E_SPLIT_CONVERGED = "e.split.converged"
E_SCENARIO_SELECTED = "e.scenario.selected"
E_TARGET_DISTINGUISHED = "e.target.distinguished"
E_REFINE_ROUND_STARTED = "e.refine.round.started"
E_REFINE_ROUND_FINISHED = "e.refine.round.finished"
#: V stage (VID filtering):
V_SCENARIO_DROPPED = "v.scenario.dropped"
V_MATCH_DECIDED = "v.match.decided"
V_TOPOLOGY_PRUNED = "v.topology.pruned"
#: Matcher-level provenance:
MATCH_PROVENANCE = "match.provenance"
#: MapReduce engine:
MR_TASK_RETRY = "mr.task.retry"
MR_STAGE_SPECULATION = "mr.stage.speculation"
MR_JOB_FINISHED = "mr.job.finished"
#: Serving layer:
SERVICE_REQUEST_SHED = "service.request.shed"
SERVICE_CACHE_EVICTED = "service.cache.evicted"
SERVICE_DRAIN_STARTED = "service.drain.started"
SERVICE_DRAIN_COMPLETED = "service.drain.completed"
SERVICE_QUERY_SLOW = "service.query.slow"
#: Cluster layer (:mod:`repro.cluster`):
CLUSTER_WORKER_SPAWNED = "cluster.worker.spawned"
CLUSTER_WORKER_READY = "cluster.worker.ready"
CLUSTER_WORKER_CRASHED = "cluster.worker.crashed"
CLUSTER_WORKER_HUNG = "cluster.worker.hung"
CLUSTER_WORKER_RESTARTED = "cluster.worker.restarted"
CLUSTER_WORKER_STOPPED = "cluster.worker.stopped"
CLUSTER_HEALTH_DEGRADED = "cluster.health.degraded"
CLUSTER_HEALTH_OK = "cluster.health.ok"
CLUSTER_ROUTE_FAILOVER = "cluster.route.failover"
CLUSTER_INGEST_REPLAYED = "cluster.ingest.replayed"
CLUSTER_GATEWAY_STARTED = "cluster.gateway.started"
CLUSTER_GATEWAY_DRAINED = "cluster.gateway.drained"
#: Streaming ingestion (:mod:`repro.stream`):
STREAM_WINDOW_CLOSED = "stream.window.closed"
STREAM_EVENT_LATE = "stream.event.late"
STREAM_EVENT_SHED = "stream.event.shed"
STREAM_SCENARIO_EMITTED = "stream.scenario.emitted"
STREAM_CHECKPOINT_SAVED = "stream.checkpoint.saved"
STREAM_CHECKPOINT_RESTORED = "stream.checkpoint.restored"
#: Run bookkeeping (footer records a JSONL stream carries so a report
#: can be re-rendered offline from the file alone):
RUN_MANIFEST = "run.manifest"
RUN_METRICS = "run.metrics"
RUN_SPANS = "run.spans"
BENCH_ARTIFACT = "bench.artifact"

EVENT_TYPES = (
    E_SPLIT_STARTED,
    E_SPLIT_CONVERGED,
    E_SCENARIO_SELECTED,
    E_TARGET_DISTINGUISHED,
    E_REFINE_ROUND_STARTED,
    E_REFINE_ROUND_FINISHED,
    V_SCENARIO_DROPPED,
    V_MATCH_DECIDED,
    V_TOPOLOGY_PRUNED,
    MATCH_PROVENANCE,
    MR_TASK_RETRY,
    MR_STAGE_SPECULATION,
    MR_JOB_FINISHED,
    SERVICE_REQUEST_SHED,
    SERVICE_CACHE_EVICTED,
    SERVICE_DRAIN_STARTED,
    SERVICE_DRAIN_COMPLETED,
    SERVICE_QUERY_SLOW,
    CLUSTER_WORKER_SPAWNED,
    CLUSTER_WORKER_READY,
    CLUSTER_WORKER_CRASHED,
    CLUSTER_WORKER_HUNG,
    CLUSTER_WORKER_RESTARTED,
    CLUSTER_WORKER_STOPPED,
    CLUSTER_HEALTH_DEGRADED,
    CLUSTER_HEALTH_OK,
    CLUSTER_ROUTE_FAILOVER,
    CLUSTER_INGEST_REPLAYED,
    CLUSTER_GATEWAY_STARTED,
    CLUSTER_GATEWAY_DRAINED,
    STREAM_WINDOW_CLOSED,
    STREAM_EVENT_LATE,
    STREAM_EVENT_SHED,
    STREAM_SCENARIO_EMITTED,
    STREAM_CHECKPOINT_SAVED,
    STREAM_CHECKPOINT_RESTORED,
    RUN_MANIFEST,
    RUN_METRICS,
    RUN_SPANS,
    BENCH_ARTIFACT,
)

_seq = itertools.count(1)

#: Exact-type fast path for :func:`_jsonable` — ``emit`` sits on the
#: matcher's per-scenario hot loop, and almost every field is already a
#: plain scalar.  Subclasses (numpy scalars, enums) take the slow path.
_SCALARS = (str, int, float, bool, type(None))


def _jsonable(value: Any) -> Any:
    if value.__class__ in _SCALARS or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, dict):
        return {
            str(k): v if v.__class__ in _SCALARS else _jsonable(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        return [v if v.__class__ in _SCALARS else _jsonable(v) for v in value]
    return str(value)


class EventLog:
    """Bounded, thread-safe recorder with an optional JSONL sink.

    Args:
        capacity: ring-buffer size; the sink, if any, keeps everything.
        sink: a path (opened for append-less write) or an open text
            stream to mirror every event into, one JSON object per
            line.  ``None`` keeps events in memory only.
        level: ``"info"`` (default) skips the matcher's per-item
            debug chatter; ``"debug"`` records everything.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: Optional[Union[str, IO[str]]] = None,
        level: str = "info",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if level not in ("info", "debug"):
            raise ValueError(
                f"level must be 'info' or 'debug', got {level!r}"
            )
        self.capacity = capacity
        #: Hot loops guard per-item emission on this flag (see module
        #: docstring); a plain bool so the guard costs one attribute
        #: read.
        self.debug = level == "debug"
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._emitted = 0
        self._dropped = 0
        self._drop_counter: Optional[tuple] = None
        self._sink: Optional[IO[str]] = None
        self._owns_sink = False
        if isinstance(sink, str):
            self._sink = open(sink, "w", encoding="utf-8")
            self._owns_sink = True
        elif sink is not None:
            self._sink = sink

    # -- recording -------------------------------------------------------
    def emit(self, type: str, **fields: Any) -> Dict[str, Any]:
        """Record one event, correlating it to the active run + span."""
        # Lazy import (``runs`` imports this module) cached in a
        # module global: emit is the flight recorder's hot path.
        global _get_run_context
        if _get_run_context is None:
            from repro.obs.runs import get_run_context as _get_run_context

        context = _get_run_context()
        span = get_tracer().current_span()
        # ``fields`` is this call's own kwargs dict, so it can be kept
        # by reference; only non-scalar values need converting.
        for key, value in fields.items():
            if value.__class__ not in _SCALARS:
                fields[key] = _jsonable(value)
        event: Dict[str, Any] = {
            "seq": next(_seq),
            "ts": time.time(),
            "type": type,
            "run_id": context.run_id if context is not None else "",
            "span_id": span.span_id if span is not None else None,
            "trace_id": span.trace_id if span is not None else None,
            "fields": fields,
        }
        self._append(event)
        return event

    def ingest(self, event: Dict[str, Any], **extra: Any) -> Dict[str, Any]:
        """Adopt an event recorded in *another* process (cluster event
        shipping): the original ``ts`` / ``type`` / ``run_id`` /
        ``span_id`` / ``trace_id`` / ``fields`` are preserved, a fresh
        local ``seq`` keeps this log totally ordered, the remote
        sequence number is kept as ``origin_seq``, and any ``extra``
        fields (e.g. ``worker="w0"``) are merged into ``fields``.
        """
        adopted: Dict[str, Any] = {
            "seq": next(_seq),
            "ts": float(event.get("ts", time.time())),
            "type": str(event.get("type", "?")),
            "run_id": str(event.get("run_id", "")),
            "span_id": event.get("span_id"),
            "trace_id": event.get("trace_id"),
            "origin_seq": event.get("seq"),
            "fields": dict(event.get("fields") or {}),
        }
        if extra:
            adopted["fields"].update(
                {k: _jsonable(v) for k, v in extra.items()}
            )
        self._append(adopted)
        return adopted

    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            overwrote = len(self._ring) == self.capacity
            if overwrote:
                self._dropped += 1
            self._ring.append(event)
            self._emitted += 1
            if self._sink is not None:
                self._sink.write(json.dumps(event) + "\n")
        if overwrote:
            # Outside the ring lock: the registry has its own locking
            # and must never serialize against event emission.  A
            # long-lived worker emits every event into a wrapped ring,
            # so the counter handle is cached per registry instead of
            # re-resolved per overwrite.
            registry = get_registry()
            cached = self._drop_counter
            if cached is None or cached[0] is not registry:
                cached = (
                    registry,
                    registry.counter(
                        EVENTS_DROPPED_METRIC,
                        "Flight-recorder ring overwrites of unread events",
                    ),
                )
                self._drop_counter = cached
            cached[1].inc()

    # -- reading ---------------------------------------------------------
    def events(self, type: Optional[str] = None) -> List[Dict[str, Any]]:
        """Retained events in emission order, optionally one type."""
        with self._lock:
            retained = list(self._ring)
        if type is None:
            return retained
        return [e for e in retained if e["type"] == type]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    @property
    def emitted(self) -> int:
        """Events emitted over the log's lifetime (ring + fallen-off)."""
        with self._lock:
            return self._emitted

    @property
    def dropped(self) -> int:
        """Events that fell off the ring (still in the sink, if any)."""
        with self._lock:
            return self._dropped

    # -- lifecycle -------------------------------------------------------
    def flush(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.flush()

    def close(self) -> None:
        """Flush and, if this log opened its sink path, close it."""
        with self._lock:
            if self._sink is not None:
                self._sink.flush()
                if self._owns_sink:
                    self._sink.close()
                self._sink = None


class NullEventLog:
    """The zero-overhead recorder: accepts every emit, retains nothing."""

    enabled = False
    debug = False
    capacity = 0

    def emit(self, type: str, **fields: Any) -> None:
        return None

    def ingest(self, event: Dict[str, Any], **extra: Any) -> None:
        return None

    def events(self, type: Optional[str] = None) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0

    emitted = 0
    dropped = 0

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


_NULL_EVENT_LOG = NullEventLog()
_default_log: "EventLog | NullEventLog" = _NULL_EVENT_LOG
_default_lock = threading.Lock()


def get_event_log() -> "EventLog | NullEventLog":
    """The process-global event log (a no-op unless one was enabled)."""
    return _default_log


def set_event_log(log: "EventLog | NullEventLog") -> "EventLog | NullEventLog":
    """Swap the process-global event log; returns the previous one."""
    global _default_log
    with _default_lock:
        previous = _default_log
        _default_log = log
    return previous


def null_event_log() -> NullEventLog:
    """The shared no-op event log."""
    return _NULL_EVENT_LOG


class EventShipper:
    """Bounded, loss-counting forwarding of a ring's events.

    The cluster's workers ship flight-recorder events to the gateway on
    heartbeats.  Shipping must **never** block or slow the data plane,
    so each :meth:`collect` is a snapshot-and-diff against the bounded
    ring: at most ``max_per_collect`` fresh events are returned, and
    everything lost — events that fell off the ring between collects
    (detected by sequence-number gaps) plus events over the per-collect
    cap (oldest shed first) — is *counted*, not silently skipped.

    One shipper per log.  Sequence numbers are process-monotone across
    logs, so gap detection assumes this log is the only one emitting in
    its process (true for cluster workers).
    """

    def __init__(
        self,
        log: "EventLog | NullEventLog",
        max_per_collect: int = 256,
    ) -> None:
        if max_per_collect <= 0:
            raise ValueError(
                f"max_per_collect must be positive, got {max_per_collect}"
            )
        self.log = log
        self.max_per_collect = max_per_collect
        self.shipped = 0
        self.dropped = 0
        self.lag = 0
        self._last_seq = 0
        self._primed = False
        self._lag_gauge: Optional[tuple] = None

    def collect(self) -> Tuple[List[Dict[str, Any]], int]:
        """``(fresh events, dropped count)`` since the last collect.

        The first collect primes the cursor on the ring's current tail
        without counting pre-existing ring falloff as shipping loss.
        """
        retained = self.log.events()
        fresh = [e for e in retained if e["seq"] > self._last_seq]
        dropped = 0
        if fresh and self._primed and fresh[0]["seq"] > self._last_seq + 1:
            # Events between the cursor and the oldest retained one
            # fell off the ring before we saw them.
            dropped += fresh[0]["seq"] - self._last_seq - 1
        lag = max(0, len(fresh) - self.max_per_collect)
        if lag:
            dropped += lag
            fresh = fresh[-self.max_per_collect:]
        if fresh:
            self._last_seq = fresh[-1]["seq"]
        self._primed = True
        self.shipped += len(fresh)
        self.dropped += dropped
        self.lag = lag
        self._set_lag_gauge(lag)
        return fresh, dropped

    def _set_lag_gauge(self, lag: int) -> None:
        # Cached handle, same pattern as the ring's drop counter: one
        # gauge set per heartbeat must not re-resolve the registry name.
        registry = get_registry()
        cached = self._lag_gauge
        if cached is None or cached[0] is not registry:
            cached = (
                registry,
                registry.gauge(
                    SHIP_LAG_METRIC,
                    "Fresh events beyond the per-collect shipping budget "
                    "at the last heartbeat (sustained >0 = shipping lags "
                    "emission)",
                ),
            )
            self._lag_gauge = cached
        cached[1].set(lag)


def load_events(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL event stream written by an :class:`EventLog` sink."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
