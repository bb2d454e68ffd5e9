"""Bitset / columnar kernels for the E-stage hot paths.

The E stage's inner loop is candidate-set shrinking: per target,
intersect the running candidate set with each positive scenario's
allowed-EID set until one EID remains.  At city scale (millions of
EIDs, thousands of scenarios per window) Python ``set`` churn is the
bottleneck — every intersection allocates, every subset test walks
hashed objects.

This module replaces that representation with the compact-index
discipline of SLIM/CLIQUE-style linkage systems:

* :class:`EIDInterner` maps the observed EID universe to dense integer
  indices once per store;
* :class:`ScenarioMatrix` holds every scenario's inclusive/allowed EID
  sets as packed ``uint64`` bitset rows in columnar arrays, kept
  incrementally up to date on :meth:`~repro.sensing.scenarios.ScenarioStore.add`
  (the live-ingest path) via the store's arrival log; it is also the
  only per-EID index (scenarios, presence windows, co-travelers);
* :class:`CandidateMatrix` is the per-run state of a multi-target
  split: a ``(targets, words)`` candidate-bit matrix whose shrink step
  is one vectorized AND + row comparison over all helped targets,
  with popcount for the singleton test.

Everything here is semantics-preserving: the ``backend="bitset"``
paths produce byte-identical results to the pure-Python reference
implementation (pinned by ``tests/test_backend_equivalence.py``).

Concurrency: a matrix is shared by every query over one store (see
:func:`matrix_for`); :meth:`ScenarioMatrix.sync` is the only mutator
and takes an internal lock, matching the serving layer's
one-writer/many-readers shape.
"""

from __future__ import annotations

import importlib.util
import itertools
import threading
import warnings
import weakref
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.obs import get_registry
from repro.sensing.scenarios import EScenario, ScenarioKey, ScenarioStore
from repro.world.entities import EID

WORD_BITS = 64

#: Candidate-set kernel backends, slowest to fastest.  ``"python"`` is
#: the reference semantics; ``"bitset"`` the vectorized numpy kernels;
#: ``"numba"`` the JIT-compiled pass (optional dependency — falls back
#: to ``"bitset"`` with a warning when numba is absent).
KNOWN_BACKENDS = ("python", "bitset", "numba")
#: Pseudo-backend: resolve to the fastest available at run time.
AUTO_BACKEND = "auto"


def _resolve_bitwise_count() -> Callable[[np.ndarray], np.ndarray]:
    """Pick the per-word popcount implementation once, at import time."""
    counter = getattr(np, "bitwise_count", None)
    if counter is not None:  # numpy >= 2.0
        return counter
    # pragma: no cover - exercised only on numpy 1.x
    pop16 = np.array(
        [bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8
    )

    def _lut_count(words: np.ndarray) -> np.ndarray:
        halves = np.ascontiguousarray(words).view(np.uint16)
        return pop16[halves].reshape(*words.shape, 4).sum(axis=-1)

    return _lut_count


#: ``np.bitwise_count`` when this numpy has it (>= 2.0), else ``None``.
#: Hot loops that want the ``out=`` form test this and fall back to
#: :func:`popcount`; everything else just calls :func:`popcount`.
_NP_BITWISE_COUNT = getattr(np, "bitwise_count", None)


def popcount(
    rows: np.ndarray,
    *,
    _count: Callable[[np.ndarray], np.ndarray] = _resolve_bitwise_count(),
) -> np.ndarray:
    """Set bits per row of a ``(..., words)`` packed bitset array.

    The word counter is bound once at import (default argument), so the
    hot loop never re-dispatches on numpy capabilities per call.
    """
    return _count(rows).sum(axis=-1, dtype=np.int64)


# -- backend resolution ------------------------------------------------
#: Cached result of the numba probe — ``find_spec`` walks sys.path, far
#: too slow for resolve_backend's place on the per-match path.
_NUMBA_AVAILABLE: Optional[bool] = None


def numba_available() -> bool:
    """Whether the optional numba dependency is importable."""
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        _NUMBA_AVAILABLE = importlib.util.find_spec("numba") is not None
    return _NUMBA_AVAILABLE


def available_backends() -> Tuple[str, ...]:
    """The kernel backends usable in this interpreter."""
    if numba_available():
        return KNOWN_BACKENDS
    return tuple(b for b in KNOWN_BACKENDS if b != "numba")


def best_available_backend() -> str:
    """The fastest backend this interpreter can run."""
    return available_backends()[-1]


def resolve_backend(backend: str) -> str:
    """Map a configured backend name to the one that will actually run.

    ``"auto"`` silently picks the fastest available; an explicit
    ``"numba"`` request degrades to ``"bitset"`` with a warning when
    numba is not importable (graceful fallback — never an error).
    The resolved choice is published on the ``ev_accel_backend_info``
    gauge.
    """
    if backend == AUTO_BACKEND:
        resolved = best_available_backend()
    elif backend == "numba" and not numba_available():
        warnings.warn(
            "backend='numba' requested but numba is not installed; "
            "falling back to the 'bitset' backend "
            "(pip install 'repro[accel]')",
            RuntimeWarning,
            stacklevel=2,
        )
        resolved = "bitset"
    else:
        resolved = backend
    publish_backend_info(resolved)
    return resolved


def publish_backend_info(backend: str) -> None:
    """Info-style gauge: which kernel backend is active (value 1)."""
    get_registry().gauge(
        "ev_accel_backend_info",
        "active matching-kernel backend (info gauge, value is 1)",
    ).set(
        1,
        backend=backend,
        numba="present" if numba_available() else "absent",
    )


def pack_ids(ids: Iterable[int], num_words: int) -> np.ndarray:
    """Pack dense integer ids into one ``uint64`` bitset row."""
    words = [0] * num_words
    for i in ids:
        words[i >> 6] |= 1 << (i & 63)
    return np.array(words, dtype=np.uint64)


def pack_id_array(ids: np.ndarray, num_words: int) -> np.ndarray:
    """Vectorized :func:`pack_ids` for an int64 id array."""
    row = np.zeros(num_words, dtype=np.uint64)
    if ids.size:
        bits = np.left_shift(
            np.uint64(1), (ids & 63).astype(np.uint64)
        )
        np.bitwise_or.at(row, ids >> 6, bits)
    return row


def unpack_ids(row: np.ndarray) -> np.ndarray:
    """The set bit positions of one bitset row, ascending."""
    bits = np.unpackbits(
        np.ascontiguousarray(row).view(np.uint8), bitorder="little"
    )
    return np.nonzero(bits)[0]


class EIDInterner:
    """Dense integer ids for an EID universe, growable for live ingest.

    Ids are assigned in first-intern order; building from a sorted
    universe therefore gives deterministic ids, and EIDs first seen by
    a live ``add`` append at the end without renumbering anyone.
    """

    def __init__(self, eids: Iterable[EID] = ()) -> None:
        self._ids: Dict[EID, int] = {}
        self._eids: List[EID] = []
        for eid in eids:
            self.intern(eid)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, eid: EID) -> bool:
        return eid in self._ids

    def intern(self, eid: EID) -> int:
        """The id of ``eid``, assigning the next dense id if new."""
        existing = self._ids.get(eid)
        if existing is not None:
            return existing
        new_id = len(self._eids)
        self._ids[eid] = new_id
        self._eids.append(eid)
        return new_id

    def id_of(self, eid: EID) -> Optional[int]:
        return self._ids.get(eid)

    def eid_of(self, index: int) -> EID:
        return self._eids[index]

    @property
    def num_words(self) -> int:
        """Words needed to hold one bit per interned EID (min 1)."""
        return max(1, -(-len(self._eids) // WORD_BITS))

    def id_array(self, eids: Iterable[EID]) -> np.ndarray:
        """Dense ids of ``eids`` (-1 for unknown), one dict probe each."""
        get = self._ids.get
        try:
            count = len(eids)  # type: ignore[arg-type]
        except TypeError:
            count = -1
        return np.fromiter(
            (get(e, -1) for e in eids), dtype=np.int64, count=count
        )

    def pack(self, eids: Iterable[EID], num_words: Optional[int] = None) -> np.ndarray:
        """Bitset row for ``eids``; unknown EIDs are silently skipped
        (a candidate bitset can only ever track interned EIDs)."""
        ids = self.id_array(eids)
        return pack_id_array(
            ids[ids >= 0],
            num_words if num_words is not None else self.num_words,
        )

    def unpack(self, row: np.ndarray) -> FrozenSet[EID]:
        """The EID set a bitset row represents."""
        eids = self._eids
        return frozenset(eids[int(i)] for i in unpack_ids(row))


class ScenarioMatrix:
    """Columnar packed-bitset mirror of a store's E-Scenarios.

    Two row-major ``uint64`` arrays hold, per scenario, the *inclusive*
    EID bits and the *allowed* bits (inclusive | vague — what a
    positive intersection may keep).  Row order is the store's arrival
    order; :meth:`sync` consumes the store's append-only arrival log,
    so a live ``ScenarioStore.add`` costs one packed row, never a
    rebuild.  Per-row dense id arrays (``inclusive_ids`` /
    ``allowed_ids``) drive the "which targets does this scenario help"
    scatter without unpacking bits.
    """

    _INITIAL_ROWS = 64

    def __init__(self, store: ScenarioStore) -> None:
        self.store = store
        self.interner = EIDInterner(sorted(store.eid_universe))
        self._lock = threading.Lock()
        self._row_of: Dict[ScenarioKey, int] = {}
        self._keys: List[ScenarioKey] = []
        self._num_rows = 0
        self._words = self.interner.num_words
        self._inclusive = np.zeros(
            (self._INITIAL_ROWS, self._words), dtype=np.uint64
        )
        self._allowed = np.zeros_like(self._inclusive)
        self._inclusive_ids: List[np.ndarray] = []
        self._allowed_ids: List[np.ndarray] = []
        self._cursor = 0  # consumed prefix of the store's arrival log
        # Derived caches for the whole-matrix kernels; invalidated by
        # shape (rows/words) so a sync lazily rebuilds them.
        self._not_allowed: Optional[np.ndarray] = None
        self._drive_flat: Dict[bool, Tuple[np.ndarray, np.ndarray]] = {}
        self.sync()
        self._publish_nbytes()

    # -- growth --------------------------------------------------------
    def _ensure_capacity(self, rows: int, words: int) -> None:
        cap_rows, cap_words = self._inclusive.shape
        if rows <= cap_rows and words <= cap_words:
            return
        new_rows = max(cap_rows, rows)
        if rows > cap_rows:
            new_rows = max(rows, 2 * cap_rows)
        new_words = max(cap_words, words)
        inclusive = np.zeros((new_rows, new_words), dtype=np.uint64)
        allowed = np.zeros_like(inclusive)
        inclusive[: self._num_rows, :cap_words] = self._inclusive[: self._num_rows]
        allowed[: self._num_rows, :cap_words] = self._allowed[: self._num_rows]
        self._inclusive = inclusive
        self._allowed = allowed

    def _append(self, e_scenario: EScenario) -> None:
        interner = self.interner
        inclusive_ids = np.fromiter(
            (interner.intern(e) for e in sorted(e_scenario.inclusive)),
            dtype=np.int64,
            count=len(e_scenario.inclusive),
        )
        vague_ids = np.fromiter(
            (interner.intern(e) for e in sorted(e_scenario.vague)),
            dtype=np.int64,
            count=len(e_scenario.vague),
        )
        allowed_ids = np.concatenate([inclusive_ids, vague_ids])
        self._words = max(self._words, interner.num_words)
        self._ensure_capacity(self._num_rows + 1, self._words)
        row = self._num_rows
        self._inclusive[row] = pack_ids(
            inclusive_ids, self._inclusive.shape[1]
        )
        self._allowed[row] = pack_ids(allowed_ids, self._allowed.shape[1])
        self._inclusive_ids.append(inclusive_ids)
        self._allowed_ids.append(allowed_ids)
        self._row_of[e_scenario.key] = row
        self._keys.append(e_scenario.key)
        self._num_rows += 1

    def sync(self) -> int:
        """Index every scenario added to the store since the last sync.

        Returns the number of rows appended.  Cheap when nothing
        changed (one length comparison), so callers sync once at the
        top of each run.
        """
        if self._cursor >= len(self.store):
            return 0
        with self._lock:
            fresh = self.store.keys_since(self._cursor)
            for key in fresh:
                self._append(self.store.e_scenario(key))
            self._cursor += len(fresh)
            if fresh:
                self._publish_nbytes()
            return len(fresh)

    def _publish_nbytes(self) -> None:
        get_registry().gauge(
            "ev_accel_matrix_bytes",
            "footprint of the packed scenario bitset rows",
        ).set(self.nbytes)

    # -- row access ----------------------------------------------------
    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, key: ScenarioKey) -> bool:
        return key in self._row_of

    @property
    def num_words(self) -> int:
        return self._words

    @property
    def nbytes(self) -> int:
        """Footprint of the packed rows (diagnostics)."""
        return self._inclusive.nbytes + self._allowed.nbytes

    def row_of(self, key: ScenarioKey) -> int:
        return self._row_of[key]

    def inclusive_row(self, key: ScenarioKey) -> np.ndarray:
        return self._inclusive[self._row_of[key]]

    def allowed_row(self, key: ScenarioKey) -> np.ndarray:
        return self._allowed[self._row_of[key]]

    def inclusive_ids(self, key: ScenarioKey) -> np.ndarray:
        return self._inclusive_ids[self._row_of[key]]

    def allowed_ids(self, key: ScenarioKey) -> np.ndarray:
        return self._allowed_ids[self._row_of[key]]

    def sides(self, key: ScenarioKey, merge_vague: bool) -> Tuple[np.ndarray, np.ndarray]:
        """``(driving ids, allowed row)`` under the configured vague
        rule — the bitset analog of ``SetSplitter._scenario_sides``.

        With ``merge_vague`` (the ``treat_vague_as_inclusive``
        ablation) vague sightings drive selection like inclusive ones;
        either way the allowed row is inclusive | vague.
        """
        row = self._row_of[key]
        ids = self._allowed_ids[row] if merge_vague else self._inclusive_ids[row]
        return ids, self._allowed[row]

    def allowed_rows_view(self) -> np.ndarray:
        """The ``(rows, words)`` allowed matrix (a view; do not write)."""
        return self._allowed[: self._num_rows, : self._words]

    def not_allowed(self) -> np.ndarray:
        """Complement of every allowed row — the whole-matrix kernels'
        "which bits would this scenario eliminate" operand.  Cached and
        rebuilt lazily after a sync changes the shape (appends never
        mutate existing rows, so a shape check is a sufficient
        invalidation rule)."""
        cached = self._not_allowed
        if cached is None or cached.shape != (self._num_rows, self._words):
            cached = ~self._allowed[: self._num_rows, : self._words]
            self._not_allowed = cached
        return cached

    def flat_driving_ids(
        self, merge_vague: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(flat_ids, offsets)`` — every scenario's driving dense ids
        concatenated, with ``offsets[s]:offsets[s+1]`` slicing row
        ``s``'s entries.  This is the scatter index the whole-matrix
        pass and the greedy gain vector gather through instead of
        touching per-row Python lists."""
        cached = self._drive_flat.get(merge_vague)
        if cached is not None and cached[1].size == self._num_rows + 1:
            return cached
        lists = (
            self._allowed_ids if merge_vague else self._inclusive_ids
        )[: self._num_rows]
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        if lists:
            np.cumsum(
                np.fromiter(
                    (a.size for a in lists), dtype=np.int64, count=len(lists)
                ),
                out=offsets[1:],
            )
            flat = np.concatenate(lists)
        else:
            flat = np.zeros(0, dtype=np.int64)
        self._drive_flat[merge_vague] = (flat, offsets)
        return flat, offsets

    def co_occurrence_counts(self, keys: Iterable[ScenarioKey]) -> np.ndarray:
        """Per-EID inclusive co-occurrence counts over ``keys``.

        One unpack + column sum instead of a Python loop over EID
        sets.
        """
        rows = [self._row_of[k] for k in keys]
        if not rows:
            return np.zeros(len(self.interner), dtype=np.int64)
        packed = self._inclusive[np.asarray(rows, dtype=np.int64)]
        bits = np.unpackbits(
            np.ascontiguousarray(packed).view(np.uint8),
            axis=1,
            bitorder="little",
        )
        return bits[:, : len(self.interner)].sum(axis=0, dtype=np.int64)

    # -- per-EID lookups -----------------------------------------------
    def rows_holding(self, eid: EID, inclusive_only: bool = False) -> np.ndarray:
        """Rows whose allowed bits (inclusive bits with
        ``inclusive_only``) hold ``eid``, in arrival order.

        The one per-EID index: a single bit-column read over the packed
        rows, synced to the store first.  Empty for an EID never seen.
        """
        self.sync()
        eid_id = self.interner.id_of(eid)
        if eid_id is None:
            return np.zeros(0, dtype=np.int64)
        packed = self._inclusive if inclusive_only else self._allowed
        column = packed[: self._num_rows, eid_id >> 6]
        return np.flatnonzero((column >> np.uint64(eid_id & 63)) & np.uint64(1))

    def scenarios_of(
        self, eid: EID, inclusive_only: bool = False
    ) -> Tuple[ScenarioKey, ...]:
        """Every scenario whose E side holds ``eid`` (vague sightings
        too unless ``inclusive_only``), in key order."""
        rows = self.rows_holding(eid, inclusive_only)
        return tuple(sorted(self._keys[r] for r in rows))

    def presence_windows(self, eid: EID) -> List[Tuple[int, int, int]]:
        """Contiguous presence runs of an EID: ``(cell, first, last)``.

        Collapses per-tick sightings (vague ones included) into dwell
        intervals, the shape an investigator reads ("in cell 7 from
        t=40 to t=180"), ordered by start tick.
        """
        by_cell: Dict[int, List[int]] = {}
        for key in self.scenarios_of(eid):
            by_cell.setdefault(key.cell_id, []).append(key.tick)
        runs: List[Tuple[int, int, int]] = []
        for cell_id, ticks in by_cell.items():
            start = prev = ticks[0]
            for tick in ticks[1:]:
                if tick == prev + 1:
                    prev = tick
                    continue
                runs.append((cell_id, start, prev))
                start = prev = tick
            runs.append((cell_id, start, prev))
        runs.sort(key=lambda run: (run[1], run[0]))
        return runs

    def co_travelers(
        self, eid: EID, min_shared: int = 3
    ) -> List[Tuple[EID, int]]:
        """EIDs confidently co-occurring with ``eid``, most-shared first.

        One column sum over the inclusive rows that hold ``eid``
        inclusively yields every co-occurrence count at once; pairs
        ``(other, shared)`` with at least ``min_shared`` survive.
        """
        if min_shared <= 0:
            raise ValueError(f"min_shared must be positive, got {min_shared}")
        counts = self.co_occurrence_counts(
            self.scenarios_of(eid, inclusive_only=True)
        )
        eid_id = self.interner.id_of(eid)
        pairs = [
            (self.interner.eid_of(i), int(counts[i]))
            for i in np.flatnonzero(counts >= min_shared)
            if i != eid_id
        ]
        pairs.sort(key=lambda en: (-en[1], en[0]))
        return pairs


class CandidateMatrix:
    """Per-run candidate state of a multi-target split, columnar.

    Row ``t`` is target ``t``'s candidate set as packed bits over the
    interned universe.  EIDs of the caller-supplied universe that were
    never observed cannot be interned; they are carried as a shared
    *extras* set that every target drops on its first applied scenario
    (an unobserved EID is in no scenario's allowed set), which keeps
    the semantics exactly equal to the reference implementation.
    """

    def __init__(
        self,
        matrix: ScenarioMatrix,
        targets: Sequence[EID],
        universe: FrozenSet[EID],
    ) -> None:
        self.matrix = matrix
        self.targets = tuple(targets)
        interner = matrix.interner
        self._words = matrix.num_words
        universe_list = list(universe)
        universe_ids = interner.id_array(universe_list)
        known = universe_ids >= 0
        self._universe_row = pack_id_array(universe_ids[known], self._words)
        if known.all():
            self.extras: FrozenSet[EID] = frozenset()
        else:
            self.extras = frozenset(
                itertools.compress(universe_list, (~known).tolist())
            )
        n = len(self.targets)
        self._cand = np.tile(self._universe_row, (n, 1))
        self._extras_alive = np.full(n, bool(self.extras))
        self._active = np.ones(n, dtype=bool)
        self._num_active = n
        # Packed popcount per row, maintained incrementally by every
        # mutation path — saves a whole-matrix recount per round.
        self._sizes = np.full(
            n, int(popcount(self._universe_row)), dtype=np.int64
        )
        self._row_of_target: Dict[EID, int] = {
            t: i for i, t in enumerate(self.targets)
        }
        # eid id -> target row (-1 when the id is not a target).
        self._target_of_id = np.full(len(interner), -1, dtype=np.int64)
        target_ids = interner.id_array(self.targets)
        interned = target_ids >= 0
        self._target_of_id[target_ids[interned]] = np.nonzero(interned)[0]

    @property
    def any_active(self) -> bool:
        return self._num_active > 0

    @property
    def num_active(self) -> int:
        """Targets whose candidate set is not yet a singleton."""
        return self._num_active

    def _drive_rows(
        self, merge_vague: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(flat_rows, offsets)`` — per scenario row, the *target*
        rows it drives (already filtered to this run's targets), as one
        flat array sliced by ``offsets``.  Built once per pass from the
        matrix's flat id index with a single whole-matrix gather."""
        flat_ids, offsets = self.matrix.flat_driving_ids(merge_vague)
        mapped = np.full(flat_ids.size, -1, dtype=np.int64)
        in_range = flat_ids < self._target_of_id.size
        mapped[in_range] = self._target_of_id[flat_ids[in_range]]
        valid = mapped >= 0
        cum = np.zeros(flat_ids.size + 1, dtype=np.int64)
        np.cumsum(valid, out=cum[1:])
        return mapped[valid], cum[offsets]

    def _helped_rows(self, key: ScenarioKey, merge_vague: bool):
        """Rows of active targets this scenario would shrink, plus the
        shrunk bits, or ``(None, None, None)`` when it helps nobody."""
        ids, allowed = self.matrix.sides(key, merge_vague)
        if ids.size == 0:
            return None, None, None
        rows = self._target_of_id[ids[ids < self._target_of_id.size]]
        rows = rows[rows >= 0]
        rows = rows[self._active[rows]]
        if rows.size == 0:
            return None, None, None
        cand = self._cand[rows]
        shrunk = cand & allowed[: self._words]
        changed = (shrunk != cand).any(axis=1) | self._extras_alive[rows]
        if not changed.any():
            return None, None, None
        return rows[changed], shrunk[changed], changed

    def score(self, key: ScenarioKey, merge_vague: bool) -> int:
        """How many active targets the scenario would shrink (the
        greedy sweep's metric; no diversity rule, no commit)."""
        rows, _shrunk, _mask = self._helped_rows(key, merge_vague)
        return 0 if rows is None else int(rows.size)

    def apply(
        self,
        key: ScenarioKey,
        merge_vague: bool,
        diverse: Callable[[EID], bool],
    ) -> List[EID]:
        """Commit one scenario; returns the targets it helped.

        Mirrors the reference ``_apply_scenario``: a target is helped
        when it is active, driven by the scenario, its candidates are
        not already a subset of the allowed set, and the evidence-
        diversity rule admits the scenario.  Helped targets' candidate
        rows shrink; singletons deactivate.
        """
        rows, shrunk, _mask = self._helped_rows(key, merge_vague)
        if rows is None:
            return []
        helped: List[EID] = []
        for i, row in enumerate(rows):
            target = self.targets[int(row)]
            if not diverse(target):
                continue
            helped.append(target)
            self._cand[row] = shrunk[i]
            self._extras_alive[row] = False
            pc = int(popcount(shrunk[i]))
            self._sizes[row] = pc
            if pc == 1 and self._active[row]:
                self._active[row] = False
                self._num_active -= 1
        return helped

    def split_pass(
        self,
        keys: Sequence[ScenarioKey],
        scenario_rows: Sequence[int],
        merge_vague: bool,
        diversity: Optional[object] = None,
        budget: Optional[int] = None,
    ) -> Tuple[List[Tuple[ScenarioKey, np.ndarray]], int]:
        """One streaming split round over ``keys`` as whole-matrix ops.

        Semantically identical to calling :meth:`apply` per key in
        order (same examined count, same helped targets, same budget
        and early-exit points), but each scenario costs a constant
        number of vectorized operations over the rows it drives — no
        per-target Python loop, no per-target popcount.

        Args:
            keys: scenario keys in selection order.
            scenario_rows: ``matrix.row_of`` of each key.
            merge_vague: the ``treat_vague_as_inclusive`` rule.
            diversity: optional object with ``ok(target, key)`` /
                ``record(target, key)`` (duck-typed
                :class:`~repro.core.set_splitting.EvidenceDiversity`);
                pass ``None`` when the gap rule is off.
            budget: examination budget (``max_scenarios``).

        Returns:
            ``(applied, examined)`` where ``applied`` is the ordered
            list of ``(key, helped_target_rows)`` commits.

        Why no per-target *active* filter: a distinguished target's
        candidate set is the singleton ``{t}``, and any scenario that
        drives ``t`` has ``t`` in its allowed set, so the shrink test
        is already false and its extras flag was cleared by the
        scenario that distinguished it — inactive targets can never
        appear in ``hits``.
        """
        flat_rows, offsets = self._drive_rows(merge_vague)
        na = self.matrix.not_allowed()[:, : self._words]
        cand = self._cand
        extras_alive = self._extras_alive
        active = self._active
        sizes = self._sizes
        targets = self.targets
        any_extras = bool(self.extras)
        applied: List[Tuple[ScenarioKey, np.ndarray]] = []
        examined = 0
        num_active = self._num_active
        off = offsets.tolist()
        # Scratch buffers reused across scenarios: at hundreds of driven
        # rows per key the allocations would otherwise dominate the pass.
        max_driven = int(np.diff(offsets).max()) if offsets.size > 1 else 0
        buf_cand = np.empty((max_driven, self._words), dtype=np.uint64)
        buf_sub = np.empty_like(buf_cand)
        buf_hits = np.empty(max_driven, dtype=bool)
        buf_bits = np.empty((max_driven, self._words), dtype=np.uint8)
        for pos, s in enumerate(scenario_rows):
            if num_active == 0:
                break
            if budget is not None and examined >= budget:
                break
            examined += 1
            lo, hi = off[s], off[s + 1]
            if lo == hi:
                continue
            trows = flat_rows[lo:hi]
            n = hi - lo
            candr = np.take(cand, trows, axis=0, out=buf_cand[:n])
            sub = np.bitwise_and(candr, na[s], out=buf_sub[:n])
            if _NP_BITWISE_COUNT is not None:
                bits = _NP_BITWISE_COUNT(sub, out=buf_bits[:n])
                removed = bits.sum(axis=1, dtype=np.int64)
            else:
                removed = popcount(sub)
            # A row is hit exactly when the scenario removes bits from
            # it (or its extras are still alive) — the removal count
            # doubles as both the hit test and the popcount delta.
            hits = np.greater(removed, 0, out=buf_hits[:n])
            if any_extras:
                hits |= extras_alive[trows]
            nh = int(np.count_nonzero(hits))
            if nh == 0:
                continue
            if nh < n:
                trows = trows[hits]
                candr = candr[hits]
                sub = sub[hits]
                removed = removed[hits]
            key = keys[pos]
            if diversity is not None:
                keep = [diversity.ok(targets[int(r)], key) for r in trows]
                if not all(keep):
                    if not any(keep):
                        continue
                    mask = np.array(keep, dtype=bool)
                    trows = trows[mask]
                    candr = candr[mask]
                    sub = sub[mask]
                    removed = removed[mask]
                for r in trows:
                    diversity.record(targets[int(r)], key)
            # shrunk == candr & allowed, but XOR of the already-computed
            # removal bits is one fresh AND cheaper.
            shrunk = np.bitwise_xor(candr, sub, out=candr)
            cand[trows] = shrunk
            if any_extras:
                extras_alive[trows] = False
            sz = sizes[trows]
            sz -= removed
            sizes[trows] = sz
            newly = trows[sz == 1]
            if newly.size:
                active[newly] = False
                num_active -= int(newly.size)
            applied.append((key, trows))
        self._num_active = num_active
        return applied, examined

    def split_pass_jit(
        self,
        keys: Sequence[ScenarioKey],
        scenario_rows: Sequence[int],
        merge_vague: bool,
        gap: int,
        budget: Optional[int] = None,
        diversity: Optional[object] = None,
    ) -> Tuple[List[Tuple[ScenarioKey, np.ndarray]], int]:
        """The ``backend="numba"`` pass: one JIT call for the whole
        round, evidence diversity evaluated in-kernel.

        Falls back to the vectorized :meth:`split_pass` (using
        ``diversity`` when the gap rule is on) if the kernel cannot be
        compiled — same results either way.
        """
        from repro.core import accel_numba

        kernel = accel_numba.load_stream_pass()
        if kernel is None:
            return self.split_pass(
                keys,
                scenario_rows,
                merge_vague,
                diversity if gap > 0 else None,
                budget,
            )
        flat_rows, offsets = self._drive_rows(merge_vague)
        k = len(keys)
        scen_rows = np.asarray(scenario_rows, dtype=np.int64)
        scen_cells = np.fromiter(
            (key.cell_id for key in keys), dtype=np.int64, count=k
        )
        scen_ticks = np.fromiter(
            (key.tick for key in keys), dtype=np.int64, count=k
        )
        allowed = self.matrix.allowed_rows_view()[:, : self._words]
        cap = max(int(flat_rows.size), 1)
        ev_cap = cap if gap > 0 else 1
        ev_cell = np.empty(ev_cap, dtype=np.int64)
        ev_tick = np.empty(ev_cap, dtype=np.int64)
        ev_prev = np.empty(ev_cap, dtype=np.int64)
        ev_head = np.full(len(self.targets), -1, dtype=np.int64)
        applied_idx = np.empty(max(k, 1), dtype=np.int64)
        helped_flat = np.empty(cap, dtype=np.int64)
        helped_off = np.zeros(max(k, 1) + 1, dtype=np.int64)
        applied_count, examined, num_active = kernel(
            self._cand,
            self._extras_alive,
            self._active,
            self._num_active,
            allowed,
            scen_rows,
            scen_cells,
            scen_ticks,
            flat_rows,
            offsets,
            gap,
            -1 if budget is None else budget,
            ev_cell,
            ev_tick,
            ev_prev,
            ev_head,
            applied_idx,
            helped_flat,
            helped_off,
        )
        self._num_active = int(num_active)
        # The kernel shrinks rows without maintaining the incremental
        # popcounts; one whole-matrix recount restores the invariant.
        self._sizes = popcount(self._cand)
        applied = [
            (
                keys[int(applied_idx[i])],
                helped_flat[helped_off[i]: helped_off[i + 1]],
            )
            for i in range(int(applied_count))
        ]
        return applied, int(examined)

    def gain_vector(
        self, scenario_rows: np.ndarray, merge_vague: bool
    ) -> np.ndarray:
        """Per-scenario count of active targets each row would shrink —
        the greedy sweep's metric for a whole pool in one shot (the
        batched analog of calling :meth:`score` per key)."""
        flat_rows, offsets = self._drive_rows(merge_vague)
        scenario_rows = np.asarray(scenario_rows, dtype=np.int64)
        counts = offsets[scenario_rows + 1] - offsets[scenario_rows]
        total = int(counts.sum())
        if total == 0:
            return np.zeros(scenario_rows.size, dtype=np.int64)
        # Gather the concatenation of flat_rows[offsets[s]:offsets[s+1]]
        # for every s in scenario_rows, plus which pool position each
        # entry belongs to.
        pool_pos = np.repeat(np.arange(scenario_rows.size), counts)
        starts = np.cumsum(counts) - counts
        entry = (
            np.arange(total)
            - starts[pool_pos]
            + offsets[scenario_rows][pool_pos]
        )
        trows = flat_rows[entry]
        na = self.matrix.not_allowed()[:, : self._words]
        hit = (self._cand[trows] & na[scenario_rows[pool_pos]]).any(axis=1)
        if self.extras:
            hit |= self._extras_alive[trows]
        hit &= self._active[trows]
        return np.bincount(
            pool_pos[hit], minlength=scenario_rows.size
        ).astype(np.int64)

    def all_candidates(self) -> Dict[EID, FrozenSet[EID]]:
        """Every target's candidate set, unpacked in one batch.

        One ``unpackbits`` over the whole candidate matrix plus one
        ``nonzero`` replaces a per-target unpack loop — the dominant
        cost of result assembly once the split itself is vectorized.
        """
        interner = self.matrix.interner
        cand = self._cand
        n = len(self.targets)
        eid_arr = np.empty(len(interner), dtype=object)
        eid_arr[:] = interner._eids
        single = self._sizes == 1
        # Singleton rows (the common terminal state): locate the one
        # set bit arithmetically — for a one-bit word w, popcount(w-1)
        # is its bit index — instead of unpacking the whole row.
        single_ids = np.zeros(0, dtype=np.int64)
        if single.any():
            rows = cand[single]
            word = np.argmax(rows != 0, axis=1)
            values = rows[np.arange(rows.shape[0]), word]
            one = np.uint64(1)
            single_ids = word * WORD_BITS + popcount(
                (values - one)[:, None]
            )
        singles = iter(eid_arr[single_ids].tolist())
        multi = ~single
        multi_members: Dict[int, List[EID]] = {}
        if multi.any():
            # Decode only the nonzero words: gather them, unpack each
            # 64-bit word to its set-bit columns, and map back — far
            # less traffic than unpacking every row to full bit width.
            mrows = np.ascontiguousarray(cand[multi])
            nz_r, nz_w = np.nonzero(mrows)
            vals = mrows[nz_r, nz_w]
            word_bits = np.unpackbits(
                vals[:, None].view(np.uint8), axis=1, bitorder="little"
            )
            e_r, e_b = np.nonzero(word_bits)
            ids = nz_w[e_r] * WORD_BITS + e_b
            flat = eid_arr[ids].tolist()
            counts = np.bincount(nz_r[e_r], minlength=int(multi.sum()))
            bounds = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            lo_hi = bounds.tolist()
            for j, row in enumerate(np.nonzero(multi)[0].tolist()):
                multi_members[row] = flat[lo_hi[j]: lo_hi[j + 1]]
        out: Dict[EID, FrozenSet[EID]] = {}
        extras = self.extras
        extras_alive = self._extras_alive.tolist()
        is_single = single.tolist()
        for i, target in enumerate(self.targets):
            if is_single[i]:
                members = frozenset((next(singles),))
            else:
                members = frozenset(multi_members.get(i, ()))
            if extras_alive[i]:
                members |= extras
            out[target] = members
        return out

    def candidates_of(self, target: EID) -> FrozenSet[EID]:
        """The target's current candidate EID set (unpacked)."""
        row = self._row_of_target[target]
        bits = self.matrix.interner.unpack(self._cand[row])
        if self._extras_alive[row]:
            return bits | self.extras
        return bits


#: Shared per-store matrices: every query over one store (the serving
#: layer's workers, its investigate path, repeated CLI runs)
#: reuses one matrix instead of re-packing the dataset per run.
_MATRICES: "weakref.WeakKeyDictionary[ScenarioStore, ScenarioMatrix]" = (
    weakref.WeakKeyDictionary()
)
_MATRICES_LOCK = threading.Lock()


def matrix_for(store: ScenarioStore) -> ScenarioMatrix:
    """The shared :class:`ScenarioMatrix` of ``store`` (built once,
    synced lazily; dropped automatically with the store)."""
    with _MATRICES_LOCK:
        matrix = _MATRICES.get(store)
        if matrix is None:
            matrix = ScenarioMatrix(store)
            _MATRICES[store] = matrix
        return matrix
