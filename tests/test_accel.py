"""Unit tests for the packed-bitset kernel layer (repro.core.accel)."""

import numpy as np
import pytest

from repro.core.accel import (
    CandidateMatrix,
    EIDInterner,
    ScenarioMatrix,
    matrix_for,
    pack_ids,
    popcount,
    unpack_ids,
)
from repro.sensing.scenarios import (
    EScenario,
    EVScenario,
    ScenarioKey,
    ScenarioStore,
    VScenario,
)
from repro.world.entities import EID
from tests.store_scan import scan_co_travelers, scan_presence, scan_scenarios


def eids(*indices):
    return frozenset(EID(i) for i in indices)


def scenario(cell, tick, inclusive, vague=()):
    key = ScenarioKey(cell_id=cell, tick=tick)
    return EVScenario(
        e=EScenario(key=key, inclusive=eids(*inclusive), vague=eids(*vague)),
        v=VScenario(key=key, detections=()),
    )


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        ids = [0, 1, 63, 64, 127]
        row = pack_ids(ids, 2)
        assert row.dtype == np.uint64
        assert list(unpack_ids(row)) == ids

    def test_popcount_rows(self):
        rows = np.array([pack_ids([0, 63, 64], 2), pack_ids([], 2)])
        assert list(popcount(rows)) == [3, 0]

    def test_popcount_single_row_is_scalar(self):
        assert int(popcount(pack_ids(range(70), 2))) == 70


class TestEIDInterner:
    def test_dense_first_intern_order(self):
        interner = EIDInterner([EID(5), EID(2), EID(9)])
        assert [interner.id_of(EID(e)) for e in (5, 2, 9)] == [0, 1, 2]
        assert interner.eid_of(1) == EID(2)
        assert len(interner) == 3

    def test_pack_skips_unknown_eids(self):
        interner = EIDInterner([EID(1), EID(2)])
        row = interner.pack(eids(1, 2, 77))
        assert interner.unpack(row) == eids(1, 2)

    def test_num_words_grows(self):
        interner = EIDInterner()
        assert interner.num_words == 1
        for i in range(65):
            interner.intern(EID(i))
        assert interner.num_words == 2


class TestScenarioMatrix:
    def test_rows_mirror_store(self):
        store = ScenarioStore(
            [scenario(0, 0, {0, 1}, {2}), scenario(1, 1, {2, 3})]
        )
        matrix = ScenarioMatrix(store)
        key = ScenarioKey(0, 0)
        assert len(matrix) == 2
        assert matrix.interner.unpack(matrix.inclusive_row(key)) == eids(0, 1)
        assert matrix.interner.unpack(matrix.allowed_row(key)) == eids(0, 1, 2)

    def test_sides_vague_rule(self):
        store = ScenarioStore([scenario(0, 0, {0}, {1})])
        matrix = ScenarioMatrix(store)
        key = ScenarioKey(0, 0)
        ids, allowed = matrix.sides(key, merge_vague=False)
        assert list(ids) == [matrix.interner.id_of(EID(0))]
        merged_ids, merged_allowed = matrix.sides(key, merge_vague=True)
        assert len(merged_ids) == 2
        assert np.array_equal(allowed, merged_allowed)

    def test_live_add_syncs_incrementally(self):
        store = ScenarioStore([scenario(0, 0, {0, 1})])
        matrix = ScenarioMatrix(store)
        assert matrix.sync() == 0  # nothing new
        store.add(scenario(1, 1, {1, 2}))
        assert ScenarioKey(1, 1) not in matrix
        assert matrix.sync() == 1
        key = ScenarioKey(1, 1)
        assert matrix.interner.unpack(matrix.inclusive_row(key)) == eids(1, 2)
        # EID 2 was first seen live: appended to the interner, nobody
        # renumbered.
        assert matrix.interner.id_of(EID(2)) == 2

    def test_growth_past_word_and_row_capacity(self):
        store = ScenarioStore([scenario(0, 0, set(range(10)))])
        matrix = ScenarioMatrix(store)
        for i in range(70):
            store.add(scenario(1 + i, 1 + i, {100 + i, i % 10}))
        matrix.sync()
        assert len(matrix) == 71
        assert matrix.num_words >= 2
        key = ScenarioKey(70, 70)
        assert matrix.interner.unpack(matrix.inclusive_row(key)) == eids(169, 9)

    def test_co_occurrence_counts(self):
        store = ScenarioStore(
            [
                scenario(0, 0, {0, 1}, {3}),
                scenario(1, 1, {0, 1, 2}),
                scenario(2, 2, {1, 2}),
            ]
        )
        matrix = ScenarioMatrix(store)
        counts = matrix.co_occurrence_counts(
            [ScenarioKey(0, 0), ScenarioKey(1, 1)]
        )
        of = lambda e: int(counts[matrix.interner.id_of(EID(e))])
        assert (of(0), of(1), of(2)) == (2, 2, 1)
        assert of(3) == 0  # vague bits do not count
        assert not matrix.co_occurrence_counts([]).any()
        # co_travelers: the same sum over the EID's inclusive rows.
        assert matrix.co_travelers(EID(0), min_shared=1) == [
            (EID(1), 2), (EID(2), 1)
        ]
        assert matrix.co_travelers(EID(1), min_shared=2) == [
            (EID(0), 2), (EID(2), 2)
        ]
        assert matrix.co_travelers(EID(3), min_shared=1) == []  # vague only
        assert matrix.co_travelers(EID(10**6), min_shared=1) == []
        with pytest.raises(ValueError):
            matrix.co_travelers(EID(0), min_shared=0)

    def test_per_eid_lookups_equal_store_scan(self, practical_dataset):
        world = practical_dataset.store
        store = ScenarioStore([world.get(k) for k in world.keys])
        # A vague-only sighting, in a cell and of an EID nobody else has.
        store.add(scenario(99, 0, {0}, {10**5}))
        matrix = ScenarioMatrix(store)
        eids_seen = sorted(store.eid_universe)
        for eid in eids_seen:
            keys = scan_scenarios(store, eid)
            assert matrix.scenarios_of(eid) == keys
            assert matrix.presence_windows(eid) == scan_presence(keys)
            assert matrix.scenarios_of(eid, inclusive_only=True) == tuple(
                k for k in keys if eid in store.e_scenario(k).inclusive
            )
        for eid in eids_seen[::25]:
            assert matrix.co_travelers(eid, min_shared=2) == scan_co_travelers(
                store, eid, 2
            )
        ghost = EID(10**6)
        assert matrix.scenarios_of(ghost) == ()
        assert matrix.presence_windows(ghost) == []

    def test_matrix_for_is_shared_per_store(self):
        store = ScenarioStore([scenario(0, 0, {0, 1})])
        assert matrix_for(store) is matrix_for(store)


class TestCandidateMatrix:
    def test_unobserved_universe_eids_survive_until_first_evidence(self):
        store = ScenarioStore([scenario(0, 0, {0, 1}), scenario(1, 1, {0})])
        matrix = ScenarioMatrix(store)
        universe = eids(0, 1, 99)  # EID 99 never observed
        state = CandidateMatrix(matrix, [EID(0)], universe)
        assert state.extras == eids(99)
        assert state.candidates_of(EID(0)) == universe
        helped = state.apply(ScenarioKey(0, 0), False, lambda t: True)
        assert helped == [EID(0)]
        assert state.candidates_of(EID(0)) == eids(0, 1)

    def test_apply_deactivates_singletons(self):
        store = ScenarioStore([scenario(0, 0, {0}), scenario(1, 1, {0, 1})])
        matrix = ScenarioMatrix(store)
        state = CandidateMatrix(matrix, [EID(0)], eids(0, 1))
        assert state.any_active
        state.apply(ScenarioKey(0, 0), False, lambda t: True)
        assert not state.any_active
        assert state.candidates_of(EID(0)) == eids(0)

    def test_score_counts_helped_targets_without_committing(self):
        store = ScenarioStore([scenario(0, 0, {0, 1})])
        matrix = ScenarioMatrix(store)
        state = CandidateMatrix(matrix, [EID(0), EID(1), EID(2)], eids(0, 1, 2))
        assert state.score(ScenarioKey(0, 0), False) == 2
        assert state.candidates_of(EID(0)) == eids(0, 1, 2)  # unchanged

    def test_diversity_veto_blocks_commit(self):
        store = ScenarioStore([scenario(0, 0, {0, 1})])
        matrix = ScenarioMatrix(store)
        state = CandidateMatrix(matrix, [EID(0)], eids(0, 1, 2))
        assert state.apply(ScenarioKey(0, 0), False, lambda t: False) == []
        assert state.candidates_of(EID(0)) == eids(0, 1, 2)
