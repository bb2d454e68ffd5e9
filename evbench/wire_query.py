"""``wire-query``: investigator traffic over real TCP.

The system runs in its own process as ``repro cluster serve --dataset
<wire world>`` with one worker process per CPU and the CLI's default
replication and read policy.  Set-up is timed from the server's first
line of output (its interpreter is up and it starts loading the world)
until the gateway answers ``ping``; the fleet is spawned
:data:`SPAWNS` times and the median reported.

An open-loop generator on one sender thread per CPU (one connection
each) sends unique 1-3-target ``match`` requests and unique
``investigate`` requests at :data:`OFFERED_RATE` per second, so the
result cache is bypassed by construction.  Before it, a warm-up sends
:data:`WARMUP_REQUESTS` of the same kind back to back; that is long
enough for each fresh worker to make its first full garbage collection
(a pause of a few hundred milliseconds, some 350-500 requests after
it starts) outside the measured phase.  The slowest warm-up call is
reported in traced runs, so the pause stays in view.  The mix is the one
``repro cluster loadtest`` uses by default: a quarter ``investigate``
(with the verb's default ``min_shared``), the rest ``match``.  After the
measured phase, a fixed sample of probe requests is put to the fleet
one at a time and its answers must equal those an in-process
``MatchService`` gave over the same world when the inputs were built.

``repro cluster serve`` always installs a real tracer, so the fleet
traces every request whether or not the benchmark asks for traces.  A
traced run (``--trace 1``) adds only client-side work in its traced
seconds: a ``cluster.client.call`` span and, right after each traced
match answer, a fetch of that request's merged trace, from which the
layer ledger is built.
"""

from __future__ import annotations

import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    ERROR,
    OK,
    SHED,
    IncorrectOutput,
    InvalidRun,
    arrival_schedule,
    child_pids,
    covered,
    finite,
    median,
    nearest_rank,
    proc_peak_rss_mb,
    rate,
    run_open_loop,
    self_time,
)
from inputs import INPUTS_DIR, input_path, load_wire_judge

SPAWNS = 2
OFFERED_RATE = 34.0
INVESTIGATE_SHARE = 0.25
WARMUP_REQUESTS = 1300
ACCURACY_FLOOR = 0.85
READY_TIMEOUT_S = 120.0
WARMUP_TIMEOUT_S = 120.0
CALL_TIMEOUT_S = 10.0
LEDGER = ("wire", "gateway", "router", "worker", "match", "e", "v", "residual")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


class Server:
    """One ``repro cluster serve`` process and its output."""

    def __init__(self, dataset: Path, scratch: Path) -> None:
        root = Path(__file__).resolve().parent.parent
        journal = scratch / f"journals-{time.monotonic_ns()}"
        env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PYTHONUNBUFFERED="1",
            TMPDIR=str(scratch),
        )
        self.journal = journal
        self.lines: List[str] = []
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "cluster", "serve",
                "--dataset", str(dataset),
                "--processes", str(_nproc()),
                "--journal-dir", str(journal),
                "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(root),
        )
        self.first_line_at = None
        self.address = None
        got_address = threading.Event()

        def pump() -> None:
            for line in self.proc.stdout:
                if self.first_line_at is None:
                    self.first_line_at = time.perf_counter()
                self.lines.append(line.rstrip())
                match = re.search(r"gateway on ([\d.]+):(\d+)", line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    got_address.set()
            got_address.set()

        self._pump = threading.Thread(target=pump, name="evbench-server-out", daemon=True)
        self._pump.start()
        if not got_address.wait(READY_TIMEOUT_S) or self.address is None:
            self.stop()
            raise RuntimeError("cluster never came up:\n" + "\n".join(self.lines[-20:]))

    def wait_ready(self, client) -> float:
        """Seconds from the server's first output line to a ``ping``."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                if client.ping():
                    return time.perf_counter() - self.first_line_at
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("gateway never answered ping")

    def pids(self) -> List[int]:
        """The server process and every process below it."""
        out, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            out.append(pid)
            try:
                frontier.extend(child_pids(pid))
            except OSError:
                pass
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._pump.join(timeout=5)
        shutil.rmtree(self.journal, ignore_errors=True)


def _requests(rng: random.Random, eids: List[int], count: int, used: set) -> List[dict]:
    """Unique match / investigate messages (``used`` spans phases)."""
    out: List[dict] = []
    while len(out) < count:
        if rng.random() < INVESTIGATE_SHARE:
            key = ("investigate", rng.choice(eids))
            message = {"verb": "investigate", "eid": key[1]}
        else:
            shape = tuple(sorted(rng.sample(eids, rng.choice((1, 2, 3)))))
            key = ("match",) + shape
            message = {"verb": "match", "targets": list(shape), "algorithm": "ss"}
        if key not in used:
            used.add(key)
            out.append(message)
    return out


def _judge(response: dict) -> str:
    status = response.get("status")
    if status == "ok":
        return OK
    return SHED if status == "shed" else ERROR


def _warm_up(client, rng, eids, used) -> float:
    """Send :data:`WARMUP_REQUESTS` back to back (every sender takes the
    next one as soon as it is free); returns the slowest call in ms."""
    messages = _requests(rng, eids, WARMUP_REQUESTS, used)
    load = run_open_loop(
        messages, [0.0] * len(messages), client.call, senders=_nproc(),
        judge=_judge, drain_timeout_s=WARMUP_TIMEOUT_S,
    )
    calls = [(s.done - s.sent) * 1e3 for s in load.samples if s.outcome == OK]
    if len(calls) != len(messages):
        raise InvalidRun(f"{len(messages) - len(calls)} warm-up requests failed")
    return max(calls)


def _phase(client, rng, eids, count, used, tracer=None):
    """One open-loop phase.  With a ``tracer``, requests due in odd
    seconds run under a client span and each of their match answers is
    followed by a fetch of its merged trace; the rest run bare, so the
    two halves share one warm fleet."""
    from repro.cluster import GatewayError

    messages = _requests(rng, eids, count, used)
    offsets = arrival_schedule(rng, OFFERED_RATE, count)
    traced = {
        id(m) for m, offset in zip(messages, offsets)
        if tracer is not None and int(offset) % 2 == 1
    }
    traces: Dict[int, dict] = {}

    def op(message):
        if id(message) in traced:
            with tracer.span("cluster.client.call", verb=message["verb"]):
                return client.call(message)
        return client.call(message)

    def fetch_trace(sample):
        message = sample.item
        if id(message) in traced and sample.outcome == OK and message["verb"] == "match":
            try:
                traces[id(message)] = client.merged_trace(sample.result["trace_id"])
            except GatewayError:
                pass  # counted: the ledger reports how many it covers

    load = run_open_loop(
        messages, offsets, op, senders=_nproc(), judge=_judge,
        after=fetch_trace if tracer is not None else None,
    )
    load.check_generator()
    return load, traced, traces


def _layer_ledger(samples, traces) -> Dict[str, float]:
    """Self time per blocking layer over every traced match request,
    from the merged traces fetched as each one was answered."""
    parts: Dict[str, List[float]] = {k: [] for k in LEDGER}
    match_ms, split_ms, filter_ms, calls = [], [], [], []
    for sample in samples:
        trace = traces.get(id(sample.item))
        if trace is None:
            continue
        spans = [e for e in trace["chrome"]["traceEvents"] if e.get("ph") == "X"]

        def named(name):
            return [(e["ts"] / 1e3, (e["ts"] + e["dur"]) / 1e3) for e in spans if e["name"] == name]

        gateway, routers = named("gateway.request"), named("cluster.request")
        workers, matches = named("worker.request"), named("match")
        splits, filters = named("e.split"), named("v.filter")
        if len(gateway) != 1:
            continue
        call = (sample.done - sample.sent) * 1e3
        g = gateway[0]
        row = {
            "wire": call - (g[1] - g[0]),
            "gateway": self_time(g, routers),
            "router": sum(self_time(r, workers) for r in routers),
            "worker": sum(self_time(w, matches) for w in workers),
            "match": sum(self_time(m, splits + filters) for m in matches),
            "e": sum(e - s for s, e in splits),
            "v": sum(e - s for s, e in filters),
        }
        row["residual"] = call - sum(row.values())
        for key, value in row.items():
            parts[key].append(value)
        calls.append(call)
        match_ms += [e - s for s, e in matches]
        split_ms += [e - s for s, e in splits]
        filter_ms += [e - s for s, e in filters]
    if not calls:
        raise InvalidRun("no traced match request came back with its merged trace")
    total = sum(calls)
    out = {f"share.{k}": sum(v) / total for k, v in parts.items()}
    out.update({f"self.{k}": median(v) for k, v in parts.items()})
    out["traces"] = len(calls)
    out["match_ms"] = median(match_ms) if match_ms else 0.0
    out["split_ms"] = median(split_ms) if split_ms else 0.0
    out["filter_ms"] = median(filter_ms) if filter_ms else 0.0
    return out


def _feature_cache(client) -> Tuple[float, float]:
    hits = misses = 0.0
    for line in client.metrics_text().splitlines():
        if 'cache="features"' not in line:
            continue
        if line.startswith("ev_cache_hits_total"):
            hits += float(line.rsplit(" ", 1)[1])
        elif line.startswith("ev_cache_misses_total"):
            misses += float(line.rsplit(" ", 1)[1])
    return hits, misses


def _check_probes(client, probes) -> None:
    """The fleet's answers to the probe requests equal the in-process
    service's, recorded when the inputs were built."""
    for probe in probes:
        response = client.call(
            {"verb": "match", "targets": probe["targets"], "algorithm": "ss"}
        )
        if response.get("status") != "ok":
            raise IncorrectOutput(f"probe {probe['targets']} answered {response}")
        got = {str(i): m["prediction"] for i, m in response["matches"].items()}
        if got != probe["predictions"]:
            raise IncorrectOutput(
                f"gateway answered {got} for {probe['targets']}, "
                f"in-process service answered {probe['predictions']}"
            )


def _load_timing(path) -> Dict[str, float]:
    """``load_dataset`` and ``matrix_for`` in process, as a worker
    starts; taken after the fleet is gone so it competes with nothing."""
    from repro.core.accel import matrix_for
    from repro.datagen.io import load_dataset

    started = time.perf_counter()
    dataset = load_dataset(path)
    loaded = time.perf_counter()
    matrix = matrix_for(dataset.store)
    return {
        "load_s": loaded - started,
        "matrix_build_s": time.perf_counter() - loaded,
        "matrix_mb": matrix.nbytes / 1e6,
    }


def run(ctx):
    from repro.cluster import GatewayClient

    path = input_path(ctx.manifest, "wire_world")
    scratch = INPUTS_DIR / "run"
    scratch.mkdir(parents=True, exist_ok=True)
    setups = []
    server = None
    try:
        for i in range(SPAWNS):
            server = Server(path, scratch)
            with GatewayClient(*server.address, timeout_s=CALL_TIMEOUT_S) as probe:
                setups.append(server.wait_ready(probe))
            if i + 1 < SPAWNS:
                server.stop()
                server = None
        ctx.log(f"fleet set-up {['%.3f' % s for s in setups]} s")
        measured = _drive(ctx, server, ctx.manifest["wire_eids"])
        ctx.log(f"measured {len(measured['load'].samples)} requests")
        with GatewayClient(*server.address, timeout_s=CALL_TIMEOUT_S) as client:
            _check_probes(client, ctx.manifest["wire_probes"])
        ctx.log(f"{len(ctx.manifest['wire_probes'])} probe answers match the in-process service")
    finally:
        if server is not None:
            server.stop()
    timing = _load_timing(path) if ctx.trace else None
    return _report(ctx, load_wire_judge(ctx.manifest), setups, timing, **measured)


def _drive(ctx, server, eids):
    """Warm up, then measure (traced runs trace every other second)."""
    from repro.cluster import GatewayClient
    from repro.obs import Tracer

    rng = random.Random(ctx.seed)
    used: set = set()
    out = {"ledger": None, "cache": None}
    client = GatewayClient(*server.address, timeout_s=CALL_TIMEOUT_S)
    try:
        out["warmup_max_ms"] = _warm_up(client, rng, eids, used)
        before = _feature_cache(client) if ctx.trace else None
        count = math.ceil(OFFERED_RATE * ctx.seconds)
        tracer = Tracer() if ctx.trace else None
        out["load"], out["traced"], traces = _phase(
            client, rng, eids, count, used, tracer=tracer
        )
        out["rss"] = sum(proc_peak_rss_mb(pid) for pid in server.pids())
        if ctx.trace:
            after = _feature_cache(client)
            out["cache"] = (after[0] - before[0], after[1] - before[1])
            out["ledger"] = _layer_ledger(out["load"].samples, traces)
    finally:
        client.close()
    return out


def _report(ctx, judge, setups, timing, load, rss, traced, ledger, cache, warmup_max_ms):
    ok_matches = [
        s for s in load.samples if s.outcome == OK and s.item["verb"] == "match"
    ]
    labels = [
        (int(i), m["prediction"])
        for s in ok_matches
        for i, m in s.result["matches"].items()
    ]
    correct, total = judge.score(labels)
    accuracy = correct / total
    if accuracy < ACCURACY_FLOOR:
        raise IncorrectOutput(f"accuracy {accuracy:.4f} below {ACCURACY_FLOOR}")
    ctx.account(load)
    latencies = load.latencies_ms()
    if not ctx.trace:
        # Wall seconds during which at least one answered match call was
        # open, so overlapping calls are not counted twice.
        busy = covered((s.sent, s.done) for s in ok_matches)
        # Nothing is ingested here: each scheduled request is its own
        # window, so a window's lag is the request's latency.
        lag_p50 = finite(nearest_rank(latencies, 50), "p50")
        return {
            "setup_s": median(setups),
            "labels_per_s": rate(sum(len(s.item["targets"]) for s in ok_matches), busy),
            "query_p50_ms": lag_p50,
            "query_p99_ms": finite(nearest_rank(latencies, 99), "p99"),
            "window_lag_p50_ms": lag_p50,
            "window_lag_p90_ms": finite(nearest_rank(latencies, 90), "p90"),
            "accuracy": accuracy,
            "peak_rss_mb": rss,
        }
    per_worker: Dict[str, int] = {}
    for s in load.samples:
        if s.outcome == OK:
            worker = s.result.get("worker", "?")
            per_worker[worker] = per_worker.get(worker, 0) + 1
    responses = [s.result for s in ok_matches]
    hits, misses = cache
    # Encoded sizes, taken after the phase so no timed call pays for them.
    from repro.cluster.protocol import encode_line

    sizes = [
        (len(encode_line(s.item)), len(encode_line(s.result)))
        for s in load.samples if s.outcome == OK
    ]
    p50 = {
        flag: nearest_rank(
            [s.latency_s * 1e3 for s in load.samples if (id(s.item) in traced) == flag],
            50,
        )
        for flag in (False, True)
    }
    values = {
        "datagen.io.load_s": timing["load_s"],
        "core.accel.matrix_build_s": timing["matrix_build_s"],
        "core.accel.matrix_mb": timing["matrix_mb"],
        "core.vid_filtering.feature_cache_hit_rate": hits / max(1.0, hits + misses),
        "cluster.client.call_ms": median(
            (s.done - s.sent) * 1e3 for s in load.samples if s.outcome == OK
        ),
        "cluster.codec.request_bytes": median(v[0] for v in sizes),
        "cluster.codec.response_bytes": median(v[1] for v in sizes),
        "cluster.gateway.self_ms": ledger["self.gateway"],
        "cluster.router.self_ms": ledger["self.router"],
        "cluster.worker.self_ms": ledger["self.worker"],
        "cluster.worker.warmup_max_call_ms": warmup_max_ms,
        "service.server.match_ms": ledger["match_ms"],
        "core.set_splitting.split_ms": ledger["split_ms"],
        "core.vid_filtering.filter_ms": ledger["filter_ms"],
        "cluster.router.worker_skew": (
            max(per_worker.values()) / (sum(per_worker.values()) / _nproc())
        ),
        "service.cache.hit_rate": sum(bool(r.get("cached")) for r in responses) / len(responses),
        "service.batcher.batched_share": (
            sum(r.get("batched_with", 0) > 0 for r in responses) / len(responses)
        ),
        "service.batcher.dedup_share": (
            sum(bool(r.get("deduplicated")) for r in responses) / len(responses)
        ),
        "obs.tracing.overhead_pct": 100.0 * (p50[True] - p50[False]) / p50[False],
        "obs.ledger.traced_requests": ledger["traces"],
    }
    for key in LEDGER:
        values[f"obs.ledger.{key}_share"] = ledger[f"share.{key}"]
    return values
