"""``live-watch``: writes beside reads, in-process.

A ``MatchService`` (default configuration: result cache on) holds the
first half of the ``live`` world.  A ``StreamPipeline`` replays the
pre-generated sensor events of the second half at a fixed pace through
a ``ServiceSink`` into ``MatchService.ingest_tick``, while an open-loop
client submits skewed "hot suspect" match queries and a watch-list
runs through ``MatchService.watch``.  The queries follow the defaults
of the repo's own load generator (``repro.service.loadgen.LoadConfig``):
a pool of 8 three-target shapes, each query picking pool index
``int(8 * u ** (1 / 0.5))`` for uniform ``u``, so the head of the pool
is hot.  The first windows of the replay,
and the queries due meanwhile, are the warm-up; the last
:data:`MEASURED_WINDOWS` windows span ``--seconds``.

Window lag: a window can close only once the watermark passes it, i.e.
when the first event of the next window arrives (allowed lateness 0),
or at the end of the stream.  A window's lag runs from the due time of
that closing event until ``ingest_tick`` returns for the window.
"""

from __future__ import annotations

import gc
import math
import random
import threading
import time
from typing import Dict, List

from common import (
    ERROR,
    OK,
    SHED,
    IncorrectOutput,
    InvalidRun,
    arrival_schedule,
    covered,
    finite,
    median,
    nearest_rank,
    rate,
    run_open_loop,
    self_peak_rss_mb,
)
from inputs import input_path, load_replay
from system import Judge

SETUPS = 2
MEASURED_WINDOWS = 100
QUERY_RATE = 60.0
WATCHED = 16
ACCURACY_FLOOR = 0.85
REPLAY_LATENESS_BOUND_S = 0.050


class PacedReplay:
    """The pre-generated events as a stream source: every event of
    tick ``t`` is due at ``start + (t - first) * period``."""

    def __init__(self, events, start: float, period: float) -> None:
        self._events = events
        self.start = start
        self.period = period
        self.first = events[0].tick
        self.lateness: List[float] = []

    def due(self, tick: int) -> float:
        return self.start + (tick - self.first) * self.period

    def events(self):
        last_tick = None
        for event in self._events:
            if event.tick != last_tick:
                due = self.due(event.tick)
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.lateness.append(time.perf_counter() - due)
                last_tick = event.tick
            yield event


class TimedSink:
    """``ServiceSink`` plus the return time and duration of every
    ``ingest_tick`` call, by window."""

    def __init__(self, service) -> None:
        from repro.stream.pipeline import ServiceSink

        self.inner = ServiceSink(service)
        self.returned: Dict[int, float] = {}
        self.ingest_ms: Dict[int, float] = {}

    def emit_window(self, scenarios):
        if not scenarios:
            return self.inner.emit_window(scenarios)
        started = time.perf_counter()
        applied = self.inner.emit_window(scenarios)
        now = time.perf_counter()
        tick = scenarios[0].key.tick
        self.returned[tick] = now
        self.ingest_ms[tick] = (now - started) * 1e3
        return applied


def _setup(path):
    from repro.core.accel import matrix_for
    from repro.datagen.io import load_dataset
    from repro.service import MatchService

    started = time.perf_counter()
    dataset = load_dataset(path)
    loaded = time.perf_counter()
    matrix = matrix_for(dataset.store)
    built = time.perf_counter()
    service = MatchService.from_dataset(dataset).start()
    ready = time.perf_counter()
    return dataset, matrix, service, {
        "setup": ready - started, "load": loaded - started, "build": built - loaded,
    }


def _hot_queries(rng: random.Random, eids, seed: int, count: int):
    """``count`` picks from the load generator's default skewed pool."""
    from repro.service.loadgen import LoadConfig, build_request_pool

    config = LoadConfig(seed=seed)
    pool = build_request_pool(eids, config)
    return [
        pool[min(int(len(pool) * rng.random() ** (1.0 / config.popularity)), len(pool) - 1)]
        for _ in range(count)
    ]


def _judge_response(response) -> str:
    if response.status == "ok":
        return OK
    return SHED if response.status == "shed" else ERROR


def _one_run(ctx, path, events, tracer=None):
    """Set up, replay, query; returns everything measured.

    With a ``tracer``, tracing is switched on for every other replay
    window, so traced and untraced queries share one warm service.
    """
    from repro.obs import null_tracer, set_tracer
    from repro.stream.pipeline import StreamConfig, StreamPipeline
    from repro.world.entities import EID

    timings = []
    dataset = matrix = service = None
    for _ in range(SETUPS):
        if service is not None:
            service.stop()
        dataset = matrix = service = None
        gc.collect()
        dataset, matrix, service, timing = _setup(path)
        timings.append(timing)
    ctx.log(f"setup {['%.3f' % t['setup'] for t in timings]} s")

    rng = random.Random(ctx.seed)
    universe = [e.index for e in dataset.eids]
    watched = rng.sample(universe, WATCHED)
    service.watch([EID(i) for i in watched])

    ticks = sorted({e.tick for e in events})
    if len(ticks) < MEASURED_WINDOWS + 1:
        raise InvalidRun("replay shorter than the measured windows")
    period = ctx.seconds / MEASURED_WINDOWS
    measured_ticks = ticks[len(ticks) - MEASURED_WINDOWS :]
    span_s = (ticks[-1] - ticks[0] + 1) * period
    count = math.ceil(QUERY_RATE * span_s)
    offsets = arrival_schedule(rng, QUERY_RATE, count)
    items = [
        (request, tracer is not None and int(offset / period) % 2 == 1)
        for request, offset in zip(_hot_queries(rng, dataset.eids, ctx.seed, count), offsets)
    ]

    start = time.perf_counter() + 0.2
    source = PacedReplay(events, start, period)
    sink = TimedSink(service)
    pipeline = StreamPipeline(
        source, sink, StreamConfig.from_builder(dataset.config.builder_config())
    )
    report_box = []
    errors = []

    def replay():
        try:
            started = time.thread_time()
            report_box.append(pipeline.run())
            # CPU seconds of the thread that drives the pipeline: its
            # event handling, window closing and ingest, but none of the
            # paced source's sleeps (they run on the source's thread).
            report_box.append(time.thread_time() - started)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    tracing = [False]

    def op(item):
        request, traced = item
        if traced != tracing[0]:
            set_tracer(tracer if traced else null_tracer())
            tracing[0] = traced
        if not traced:
            return service.submit(request)
        # An open span makes the service trace the request under it.
        with tracer.span("evbench.submit"):
            return service.submit(request)

    previous = set_tracer(null_tracer())
    try:
        replayer = threading.Thread(target=replay, name="evbench-replay", daemon=True)
        replayer.start()
        load = run_open_loop(items, offsets, op, senders=0,
                             judge=_judge_response, start=start)
        replayer.join()
    finally:
        set_tracer(previous)
    if errors:
        raise errors[0]
    ctx.log(f"replayed {len(sink.ingest_ms)} windows beside {len(load.samples)} queries")
    report, pipeline_cpu_s = report_box
    stats = service.stats().snapshot["service"]
    emissions = list(sink.inner.emissions)
    service.stop()

    late = sorted(source.lateness)[math.ceil(0.99 * len(source.lateness)) - 1]
    if late > REPLAY_LATENESS_BOUND_S:
        raise InvalidRun(f"replay generator fell {late * 1e3:.1f} ms behind")
    load.check_generator()

    # Correctness: the stream must rebuild the batch world exactly.
    from repro.stream.equivalence import store_digest

    if report.late_dropped != 0:
        raise IncorrectOutput(f"{report.late_dropped} events dropped as late")
    if store_digest(service.store) != ctx.manifest["live_digest"]:
        raise IncorrectOutput("final store differs from the batch-built world")

    boundary = source.due(measured_ticks[0])
    measured = [s for s in load.samples if s.due >= boundary]
    closing_due = {
        tick: source.due(ticks[i + 1]) if i + 1 < len(ticks) else source.due(tick)
        for i, tick in enumerate(ticks)
    }
    lags = [
        (sink.returned[t] - closing_due[t]) * 1e3 if t in sink.returned else math.inf
        for t in measured_ticks
    ]
    judge = Judge.from_dataset(dataset)
    judge.add_store(service.store)
    answered = [s for s in measured if s.outcome == OK]
    labels = [
        (eid.index, match.prediction)
        for s in answered
        for eid, match in s.result.matches.items()
    ]
    labels += [
        (e.eid.index, e.result.best.detection_id if e.result.best else None)
        for e in emissions
    ]
    correct, total = judge.score(labels)
    accuracy = correct / total
    if accuracy < ACCURACY_FLOOR:
        raise IncorrectOutput(f"accuracy {accuracy:.4f} below {ACCURACY_FLOOR}")
    # Wall seconds during which at least one answered query was open.
    busy = covered((s.sent, s.done) for s in answered)
    return {
        "boundary": boundary,
        "timings": timings,
        "matrix_mb": matrix.nbytes / 1e6,
        "measured": measured,
        "lags": lags,
        "ingest_ms": [sink.ingest_ms[t] for t in measured_ticks if t in sink.ingest_ms],
        "accuracy": accuracy,
        "labels_per_s": rate(sum(len(s.item[0].targets) for s in answered), busy),
        "report": report,
        "events_per_s": rate(report.events_applied, pipeline_cpu_s),
        "stats": stats,
        "emissions": len(emissions),
        "windows": len(sink.ingest_ms),
    }


def run(ctx):
    from repro.obs import Tracer, get_registry

    path = input_path(ctx.manifest, "live_world")
    events = load_replay(ctx.manifest)
    if not ctx.trace:
        result = _one_run(ctx, path, events)
        _account(ctx, result)
        latencies = [s.latency_s * 1e3 for s in result["measured"]]
        return {
            "setup_s": median(t["setup"] for t in result["timings"]),
            "labels_per_s": result["labels_per_s"],
            "query_p50_ms": finite(nearest_rank(latencies, 50), "p50"),
            "query_p99_ms": finite(nearest_rank(latencies, 99), "p99"),
            "window_lag_p50_ms": finite(nearest_rank(result["lags"], 50), "lag p50"),
            "window_lag_p90_ms": finite(nearest_rank(result["lags"], 90), "lag p90"),
            "accuracy": result["accuracy"],
            "peak_rss_mb": self_peak_rss_mb(),
        }

    registry = get_registry()
    hits = registry.counter("ev_cache_hits_total")
    misses = registry.counter("ev_cache_misses_total")
    before = (hits.value(cache="features"), misses.value(cache="features"))
    tracer = Tracer()
    traced = _one_run(ctx, path, events, tracer=tracer)
    _account(ctx, traced)
    d_hits = hits.value(cache="features") - before[0]
    d_misses = misses.value(cache="features") - before[1]
    spans = [s for s in tracer.spans if s.start_s >= traced["boundary"]]
    splits = [s for s in spans if s.name == "e.split"]
    filters = [s for s in spans if s.name == "v.filter"]
    examined = sum(s.args.get("examined", 0) for s in splits)
    ok = [s.result for s in traced["measured"] if s.outcome == OK]
    report = traced["report"]
    p50 = {
        flag: nearest_rank(
            [s.latency_s * 1e3 for s in traced["measured"] if s.item[1] == flag], 50
        )
        for flag in (False, True)
    }
    return {
        "datagen.io.load_s": median(t["load"] for t in traced["timings"]),
        "core.accel.matrix_build_s": median(t["build"] for t in traced["timings"]),
        "core.accel.matrix_mb": traced["matrix_mb"],
        "core.set_splitting.split_s": sum(s.duration_s for s in splits),
        "core.set_splitting.scenarios_examined": examined,
        "core.set_splitting.selected_per_examined": (
            sum(s.args.get("recorded", 0) for s in splits) / max(1, examined)
        ),
        "core.vid_filtering.filter_s": sum(s.duration_s for s in filters),
        "core.vid_filtering.comparisons": sum(s.args.get("comparisons", 0) for s in filters),
        "core.vid_filtering.feature_cache_hit_rate": d_hits / max(1.0, d_hits + d_misses),
        "service.server.match_ms": median(
            s.duration_s * 1e3 for s in spans if s.name == "match"
        ),
        "core.set_splitting.split_ms": median(s.duration_s * 1e3 for s in splits),
        "core.vid_filtering.filter_ms": median(s.duration_s * 1e3 for s in filters),
        "service.server.ingest_ms": median(traced["ingest_ms"]),
        "service.cache.hit_rate": sum(r.cached for r in ok) / len(ok),
        "service.cache.invalidated_per_window": (
            traced["stats"]["cache_invalidated"] / traced["windows"]
        ),
        "service.batcher.batched_share": sum(r.batched_with > 0 for r in ok) / len(ok),
        "service.batcher.dedup_share": sum(r.deduplicated for r in ok) / len(ok),
        "stream.pipeline.events_per_s": traced["events_per_s"],
        "stream.pipeline.peak_open_windows": report.peak_open_windows,
        "stream.pipeline.late_dropped": report.late_dropped,
        "core.incremental.emissions": traced["emissions"],
        "obs.tracing.overhead_pct": 100.0 * (p50[True] - p50[False]) / p50[False],
    }


def _account(ctx, result) -> None:
    from common import LoadResult

    measured = LoadResult(samples=result["measured"])
    lags = result["lags"]
    ctx.account(
        measured,
        extra_attempted=len(lags),
        extra_failed=sum(1 for lag in lags if math.isinf(lag)),
    )
