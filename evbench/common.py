"""Measurement rules shared by every workload.

* Percentiles are nearest-rank, and a percentile is only reported when
  at least :data:`MIN_BEYOND` samples lie beyond it.
* A request that failed, was shed or timed out counts as missing every
  latency limit: it enters the percentiles as ``+inf``.
* Open-loop requests are timed from their *due* time, so a stall is
  charged to every request queued behind it; the generator reports its
  own lateness (release time minus due time) and a run whose generator
  fell behind by more than :data:`GENERATOR_LATENESS_BOUND_S` is invalid.
* Rates are fixed work divided by measured time (:func:`rate`); nothing
  is a count taken over a fixed time window.
* A layer's self time is its span's duration minus the part of that
  interval its child spans cover (:func:`self_time`).
"""

from __future__ import annotations

import math
import queue
import random
import resource
import statistics
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

MIN_BEYOND = 10
GENERATOR_LATENESS_BOUND_S = 0.100
GENERATOR_LATENESS_PERCENTILE = 99.0

OK, SHED, ERROR, TIMEOUT = "ok", "shed", "error", "timeout"
OUTCOMES = (OK, SHED, ERROR, TIMEOUT)


class InvalidRun(RuntimeError):
    """The run cannot report a number honestly (too few samples, a
    percentile landing on a failed request, a stalled generator)."""


class IncorrectOutput(RuntimeError):
    """The system under test returned a wrong answer."""


# -- statistics ---------------------------------------------------------
def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The system's own nearest-rank percentile, refusing a percentile
    with fewer than :data:`MIN_BEYOND` samples beyond it."""
    from repro.obs.registry import nearest_rank as system_nearest_rank

    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise InvalidRun(
            f"p{q:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return system_nearest_rank(samples, q)


def finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise InvalidRun(f"{what} fell on a failed request (+inf)")
    return value


def rate(work: float, seconds: float) -> float:
    """Fixed work over the measured time it took."""
    if seconds <= 0:
        raise InvalidRun("rate over a non-positive measured time")
    return work / seconds


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals: time during
    which at least one of them was open (overlaps count once)."""
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for s, e in sorted(intervals):
        if run_start is None or s > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_time(
    parent: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """``parent``'s duration minus the union of its children's
    intervals clipped to it (overlapping and nested children count
    once)."""
    start, end = parent
    return (end - start) - covered(
        (max(s, start), min(e, end)) for s, e in children if e > start and s < end
    )


# -- open-loop generation -----------------------------------------------
def arrival_schedule(rng: random.Random, rate_per_s: float, count: int) -> List[float]:
    """``count`` due offsets at ``rate_per_s``: evenly spaced, each
    shifted by a seeded jitter of up to a quarter period."""
    period = 1.0 / rate_per_s
    return [
        (i + 0.5 + rng.uniform(-0.25, 0.25)) * period for i in range(count)
    ]


@dataclass
class Sample:
    """One scheduled request's life."""

    item: Any
    due: float = 0.0
    released: float = 0.0
    sent: float = 0.0
    done: float = math.inf
    outcome: str = TIMEOUT
    result: Any = None

    @property
    def latency_s(self) -> float:
        """Due time to response; ``+inf`` unless the request succeeded."""
        return self.done - self.due if self.outcome == OK else math.inf


@dataclass
class LoadResult:
    samples: List[Sample]
    lateness_s: List[float] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for sample in self.samples:
            counts[sample.outcome] += 1
        counts["attempted"] = len(self.samples)
        return counts

    def latencies_ms(self) -> List[float]:
        return [s.latency_s * 1e3 for s in self.samples]

    def lateness_p(self) -> float:
        ordered = sorted(self.lateness_s)
        rank = max(1, math.ceil(GENERATOR_LATENESS_PERCENTILE / 100 * len(ordered)))
        return ordered[rank - 1]

    def check_generator(self) -> None:
        late = self.lateness_p()
        if late > GENERATOR_LATENESS_BOUND_S:
            raise InvalidRun(
                f"generator p{GENERATOR_LATENESS_PERCENTILE:g} lateness "
                f"{late * 1e3:.1f} ms exceeds the "
                f"{GENERATOR_LATENESS_BOUND_S * 1e3:.0f} ms bound"
            )


def run_open_loop(
    items: Sequence[Any],
    offsets: Sequence[float],
    op: Callable[[Any], Any],
    senders: int,
    judge: Callable[[Any], str] = lambda result: OK,
    drain_timeout_s: float = 30.0,
    start: Optional[float] = None,
    after: Optional[Callable[[Sample], None]] = None,
) -> LoadResult:
    """Release ``items[i]`` at ``offsets[i]`` seconds after ``start``
    (default: now) to ``senders`` threads that call ``op(item)``; with
    ``senders=0`` the releasing thread calls a non-blocking ``op``
    itself.

    ``op`` may block and return the response, or return a
    :class:`~concurrent.futures.Future` (the sender moves on at once
    and the response is recorded when the future resolves).  ``judge``
    maps a response to an outcome; an exception is an ``error``, a
    response still missing ``drain_timeout_s`` after the last due time
    a ``timeout``.  ``after(sample)``, if given, runs on the sender
    once a blocking ``op`` has answered and the sample is timed; the
    sender's next request waits for it, so its cost is charged to the
    requests queued behind.
    """
    samples = [Sample(item=item) for item in items]
    pending: "queue.Queue[Optional[Sample]]" = queue.Queue()
    outstanding = threading.Semaphore(0)
    lock = threading.Lock()
    futures = [0]

    def finish(sample: Sample, response: Any, error: Optional[BaseException]) -> None:
        now = time.perf_counter()
        with lock:
            sample.done = now
            if error is not None:
                sample.outcome = TIMEOUT if _is_timeout(error) else ERROR
            else:
                sample.result = response
                try:
                    sample.outcome = judge(response)
                except Exception:
                    sample.outcome = ERROR

    def on_done(sample: Sample, future: Future) -> None:
        error = future.exception()
        finish(sample, None if error is not None else future.result(), error)
        outstanding.release()

    def send(sample: Sample) -> None:
        sample.sent = time.perf_counter()
        try:
            response = op(sample.item)
        except Exception as exc:
            finish(sample, None, exc)
            return
        if isinstance(response, Future):
            with lock:
                futures[0] += 1
            response.add_done_callback(lambda f, s=sample: on_done(s, f))
        else:
            finish(sample, response, None)
            if after is not None:
                after(sample)

    def sender() -> None:
        while True:
            sample = pending.get()
            if sample is None:
                return
            send(sample)

    threads = [
        threading.Thread(target=sender, name=f"evbench-sender-{i}", daemon=True)
        for i in range(senders)
    ]
    for thread in threads:
        thread.start()
    if start is None:
        start = time.perf_counter()
    lateness: List[float] = []
    for sample, offset in zip(samples, offsets):
        sample.due = start + offset
        delay = sample.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sample.released = time.perf_counter()
        lateness.append(sample.released - sample.due)
        if senders:
            pending.put(sample)
        else:
            send(sample)
    for _ in threads:
        pending.put(None)
    deadline = (start + (offsets[-1] if offsets else 0.0)) + drain_timeout_s
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()))
    with lock:
        waiting = futures[0]
    for _ in range(waiting):
        if not outstanding.acquire(timeout=max(0.0, deadline - time.perf_counter())):
            break
    with lock:
        # Anything unresolved by now stays a timeout (+inf latency); a
        # later answer must not change the frozen copy.
        return LoadResult(
            samples=[replace(s) for s in samples], lateness_s=lateness
        )


def _is_timeout(error: BaseException) -> bool:
    while error is not None:
        if isinstance(error, TimeoutError):
            return True
        error = error.__cause__
    return False


# -- process accounting -------------------------------------------------
def self_peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise InvalidRun(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (every thread's children list)."""
    children: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(p) for p in text.split())
    return children


# -- reporting ----------------------------------------------------------
class Metrics:
    """Name -> (value, unit), checked against the declared metric set."""

    def __init__(self, declared: Dict[str, str]) -> None:
        self.declared = declared
        self.values: Dict[str, float] = {}

    def set(self, name: str, value: float) -> None:
        if name not in self.declared:
            raise KeyError(f"undeclared metric {name!r}")
        value = float(value)
        if not math.isfinite(value):
            raise InvalidRun(f"metric {name} is not finite")
        self.values[name] = value

    def payload(self) -> Dict[str, Dict[str, Any]]:
        missing = sorted(set(self.declared) - set(self.values))
        if missing:
            raise KeyError(f"metrics never measured: {missing}")
        return {
            name: {"value": self.values[name], "unit": self.declared[name]}
            for name in self.declared
        }
