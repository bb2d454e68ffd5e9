"""Typed request/response contracts of the query service.

The serving layer exposes four endpoints, mirroring how the paper's
system would be consumed in production:

* ``match`` — run EV-Matching for a set of target EIDs (the elastic
  matching-size query, Sec. I);
* ``investigate`` — profile one EID from the standing indexes:
  presence windows, co-travelers, and its match;
* ``ingest_tick`` — append newly-arrived EV-Scenarios, stream them
  through the :class:`~repro.core.incremental.IncrementalMatcher`
  watch-list, and invalidate affected cache entries;
* ``stats`` — the service's metrics snapshot (counters + latency
  percentiles per endpoint);
* ``metrics`` — the same data (plus the process-global ``ev_*`` /
  ``mr_*`` pipeline counters) as Prometheus text exposition, the
  scrape-endpoint analog.

Every request is a frozen dataclass with a stable :meth:`cache_key`, so
the cache and the in-flight deduplication table agree on what
"the same query" means.  Responses carry a ``status`` of ``"ok"``,
``"shed"`` (admission control dropped the request — the HTTP-429
analog) or ``"error"``, plus serving metadata (``cached``,
``batched_with``, ``latency_s``) that the load generator and the
benchmarks assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.incremental import Emission
from repro.sensing.scenarios import EVScenario
from repro.world.entities import EID

#: Response statuses.
STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_ERROR = "error"

#: Algorithms a match request may ask for.
ALGORITHMS = ("ss", "edp")


class ServiceOverloaded(RuntimeError):
    """Raised by synchronous helpers when admission control sheds the
    request (the 429 analog).  Async callers get a ``"shed"`` response
    instead of an exception."""


@dataclass(frozen=True)
class MatchRequest:
    """Match a set of target EIDs.

    Attributes:
        targets: the EIDs to match (order-insensitive; the cache key
            sorts them).
        algorithm: ``"ss"`` (set splitting) or ``"edp"`` (baseline).
    """

    targets: Tuple[EID, ...]
    algorithm: str = "ss"

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("match request needs at least one target")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )

    def cache_key(self) -> Tuple:
        return ("match", self.algorithm, tuple(sorted(self.targets)))


@dataclass(frozen=True)
class TargetMatch:
    """Serving-side view of one target's match (no ground truth).

    Attributes:
        eid: the target.
        prediction: the winning detection's id (``None`` when the
            matcher came up empty).
        agreement: the match's self-consistency (confidence proxy).
        evidence: how many scenarios the V stage processed.
    """

    eid: EID
    prediction: Optional[int]
    agreement: float
    evidence: int


@dataclass
class MatchResponse:
    """Outcome of one match request.

    Attributes:
        status: ``"ok"`` / ``"shed"`` / ``"error"``.
        matches: per-target outcome (empty unless ``"ok"``).
        cached: answered straight from the result cache.
        deduplicated: attached to an identical in-flight request.
        batched_with: how many *other* requests shared the Matcher
            call that produced this answer.
        latency_s: wall-clock seconds from submit to resolution.
        error: diagnostic message when ``status == "error"``.
    """

    status: str
    matches: Dict[EID, TargetMatch] = field(default_factory=dict)
    cached: bool = False
    deduplicated: bool = False
    batched_with: int = 0
    latency_s: float = 0.0
    error: Optional[str] = None


@dataclass(frozen=True)
class InvestigateRequest:
    """Profile one EID from the store's per-EID index.

    Attributes:
        eid: the suspect.
        min_shared: co-occurrence threshold for the co-traveler list.
    """

    eid: EID
    min_shared: int = 3

    def __post_init__(self) -> None:
        if self.min_shared <= 0:
            raise ValueError(f"min_shared must be positive, got {self.min_shared}")

    def cache_key(self) -> Tuple:
        return ("investigate", self.eid, self.min_shared)


@dataclass
class InvestigateResponse:
    """Outcome of one investigate request.

    Attributes:
        status: ``"ok"`` / ``"shed"`` / ``"error"``.
        eid: the suspect.
        num_scenarios: electronic sightings on record.
        presence: dwell intervals ``(cell_id, first_tick, last_tick)``.
        co_travelers: ``(other, shared scenario count)`` pairs.
        cached / latency_s / error: serving metadata, as in
            :class:`MatchResponse`.
    """

    status: str
    eid: Optional[EID] = None
    num_scenarios: int = 0
    presence: List[Tuple[int, int, int]] = field(default_factory=list)
    co_travelers: List[Tuple[EID, int]] = field(default_factory=list)
    cached: bool = False
    latency_s: float = 0.0
    error: Optional[str] = None


@dataclass(frozen=True)
class IngestTickRequest:
    """Append newly-arrived EV-Scenarios to the standing dataset."""

    scenarios: Tuple[EVScenario, ...]

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("ingest request needs at least one scenario")


@dataclass
class IngestTickResponse:
    """Outcome of one ingest request.

    Attributes:
        status: ``"ok"`` or ``"error"``.
        ingested: scenarios appended to the store.
        invalidated: cache entries dropped because their EIDs appear
            in the new scenarios (the invalidation rule).
        emissions: matches the incremental watch-list fired while
            consuming the new scenarios.
        latency_s / error: serving metadata.
    """

    status: str
    ingested: int = 0
    invalidated: int = 0
    emissions: List[Emission] = field(default_factory=list)
    latency_s: float = 0.0
    error: Optional[str] = None


@dataclass
class StatsResponse:
    """The ``stats`` endpoint: one coherent metrics snapshot."""

    snapshot: Dict[str, Dict[str, float]] = field(default_factory=dict)


@dataclass
class MetricsResponse:
    """The ``metrics`` endpoint: Prometheus text exposition.

    ``text`` concatenates the service's own instrument family
    (``service_*``) with the process-global registry's pipeline
    counters (``ev_*``, ``mr_*``), so one scrape sees both the serving
    behaviour and the matching work it caused.
    """

    text: str = ""


@dataclass(frozen=True)
class SLOCheck:
    """One objective's verdict over the health window."""

    name: str
    objective: float
    observed: float
    ok: bool


@dataclass
class HealthResponse:
    """The ``health`` endpoint: rolling-window SLO pass/fail.

    Attributes:
        healthy: every declared objective held over the window (also
            ``True`` below ``min_samples`` — an idle service is not a
            failing one; ``note`` says so).
        window_s: the rolling window the verdict covers.
        samples: request outcomes the verdict was computed from.
        checks: per-objective verdicts (empty when under-sampled).
        note: why the checks are empty, when they are.
    """

    healthy: bool
    window_s: float
    samples: int
    checks: Tuple[SLOCheck, ...] = ()
    note: str = ""
