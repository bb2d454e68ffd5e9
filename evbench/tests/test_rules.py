"""The benchmark's own measurement rules.

Run from the repository root: ``python -m pytest evbench/tests -q``.
"""

from __future__ import annotations

import math
import random
import re
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import (  # noqa: E402
    ERROR,
    OK,
    TIMEOUT,
    InvalidRun,
    LoadResult,
    arrival_schedule,
    covered,
    finite,
    nearest_rank,
    rate,
    run_open_loop,
    self_time,
)


# -- nearest rank and the "ten beyond" rule ------------------------------
def test_nearest_rank_picks_the_ceiling_rank():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 90) == 90


def test_percentile_needs_ten_samples_beyond_it():
    assert nearest_rank(list(range(1, 1001)), 99) == 990
    with pytest.raises(InvalidRun):
        nearest_rank(list(range(1, 1000)), 99)
    with pytest.raises(InvalidRun):
        nearest_rank(list(range(1, 100)), 90)


def test_nearest_rank_agrees_with_the_system_percentile():
    from repro.obs.registry import nearest_rank as system_nearest_rank

    samples = [random.Random(1).random() for _ in range(500)]
    for q in (50, 90, 97):
        assert nearest_rank(samples, q) == system_nearest_rank(samples, q)


# -- self time -----------------------------------------------------------
def test_covered_counts_overlapping_intervals_once():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert covered([]) == 0.0


def test_self_time_without_children_is_the_duration():
    assert self_time((2.0, 7.0), []) == pytest.approx(5.0)


def test_self_time_counts_overlapping_children_once():
    assert self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(7.0)


def test_self_time_counts_nested_children_once():
    assert self_time((0.0, 10.0), [(1.0, 5.0), (2.0, 3.0)]) == pytest.approx(6.0)


def test_self_time_clips_children_to_the_parent():
    children = [(-1.0, 1.0), (8.0, 12.0), (20.0, 30.0)]
    assert self_time((0.0, 10.0), children) == pytest.approx(7.0)


def test_self_time_of_disjoint_children():
    children = [(1.0, 2.0), (4.0, 5.0), (7.0, 9.5)]
    assert self_time((0.0, 10.0), children) == pytest.approx(5.5)


# -- due-time latency ----------------------------------------------------
def test_a_stall_is_charged_to_the_requests_behind_it():
    period = 0.02
    stall = 0.3

    def op(item):
        if item == 0:
            time.sleep(stall)
        return item

    offsets = [i * period for i in range(10)]
    load = run_open_loop(list(range(10)), offsets, op, senders=1)
    for k, sample in enumerate(load.samples):
        assert sample.outcome == OK
        # Request k waited for the stall that began at due time 0.
        assert sample.latency_s >= stall - k * period - 0.005
    # The generator itself stayed on schedule.
    assert max(load.lateness_s) < 0.05


def test_work_after_an_answer_is_charged_to_the_requests_behind_it():
    offsets = [0.0, 0.01]
    load = run_open_loop(
        [0, 1], offsets, lambda item: item, senders=1,
        after=lambda sample: time.sleep(0.1) if sample.item == 0 else None,
    )
    first, second = load.samples
    assert first.latency_s < 0.05
    assert second.latency_s >= 0.09


def test_latency_runs_from_due_time_not_send_time():
    load = run_open_loop(
        [0, 1], [0.0, 0.0], lambda item: time.sleep(0.1), senders=1
    )
    second = load.samples[1]
    assert second.sent - second.due >= 0.09
    assert second.latency_s >= 0.19


def test_future_responses_are_timed_when_they_resolve():
    futures = []

    def op(item):
        future = Future()
        futures.append(future)
        return future

    def resolve():
        time.sleep(0.05)
        for future in futures:
            future.set_result("ok")

    import threading

    threading.Thread(target=resolve).start()
    load = run_open_loop([0, 1, 2], [0.0, 0.0, 0.0], op, senders=0)
    assert all(s.outcome == OK for s in load.samples)
    assert all(s.latency_s >= 0.04 for s in load.samples)


# -- failure as a miss ---------------------------------------------------
def test_failed_and_shed_requests_enter_percentiles_as_infinity():
    def op(item):
        if item % 7 == 0:
            raise ConnectionError("boom")
        return "shed" if item % 11 == 0 else "ok"

    load = run_open_loop(
        list(range(60)),
        [0.0] * 60,
        op,
        senders=2,
        judge=lambda r: OK if r == "ok" else "shed",
    )
    counts = load.counts()
    assert counts[ERROR] == 9
    assert counts["shed"] == 5
    assert counts["attempted"] == 60 and counts[OK] == 46
    latencies = load.latencies_ms()
    assert sum(math.isinf(v) for v in latencies) == 14
    # 14 of 60 missed: the p50 is finite, the p80 lands on a miss.
    assert math.isfinite(nearest_rank(latencies, 50))
    with pytest.raises(InvalidRun):
        finite(nearest_rank(latencies, 80), "p80")


def test_a_response_that_never_arrives_is_a_timeout():
    load = run_open_loop([0], [0.0], lambda item: Future(), senders=0,
                         drain_timeout_s=0.05)
    assert load.samples[0].outcome == TIMEOUT
    assert math.isinf(load.samples[0].latency_s)


def test_a_late_generator_invalidates_the_run():
    load = LoadResult(samples=[], lateness_s=[0.0] * 95 + [0.5] * 5)
    with pytest.raises(InvalidRun):
        load.check_generator()
    LoadResult(samples=[], lateness_s=[0.001] * 100).check_generator()


# -- rates are fixed work over measured time -----------------------------
def test_rate_scales_with_measured_time():
    assert rate(3000, 2.0) == 1500
    assert rate(3000, 4.0) == 750
    with pytest.raises(InvalidRun):
        rate(10, 0.0)


def test_no_workload_divides_by_the_run_length():
    """A count over ``--seconds`` would be a fixed-window count."""
    for name in ("wire_query.py", "live_watch.py"):
        source = (HERE / name).read_text()
        assert not re.search(r"/\s*\(?\s*ctx\.seconds", source), name
        assert not re.search(r"/\s*\(?\s*seconds\b", source), name
        # StreamReport.events_per_sec divides by the run's elapsed time,
        # which a paced replay fixes.
        assert "events_per_sec" not in source, name


def test_arrival_schedule_is_seeded_and_keeps_the_rate():
    a = arrival_schedule(random.Random(5), 50.0, 1000)
    b = arrival_schedule(random.Random(5), 50.0, 1000)
    assert a == b
    assert a == sorted(a)
    assert a[-1] == pytest.approx(20.0, abs=0.02)
