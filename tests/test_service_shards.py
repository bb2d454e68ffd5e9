"""Tests for the per-EID lookups the query service answers from the
store's shared ScenarioMatrix (``matrix_for``), which replaced the
region-banded dataset shards."""

import pytest

from repro.core.accel import matrix_for
from repro.sensing.index import ScenarioIndex
from repro.world.entities import EID

from tests.store_scan import scan_co_travelers, scan_presence, scan_scenarios


class TestLookups:
    def test_scenarios_of_matches_monolithic_index(self, ideal_dataset):
        matrix = matrix_for(ideal_dataset.store)
        index = ScenarioIndex(ideal_dataset.store, ideal_dataset.grid)
        for eid in ideal_dataset.sample_targets(15, seed=3):
            keys = matrix.scenarios_of(eid)
            assert keys == index.scenarios_of(eid)
            assert keys == scan_scenarios(ideal_dataset.store, eid)

    def test_presence_windows_match_monolithic_index(self, ideal_dataset):
        matrix = matrix_for(ideal_dataset.store)
        index = ScenarioIndex(ideal_dataset.store, ideal_dataset.grid)
        for eid in ideal_dataset.sample_targets(10, seed=4):
            windows = matrix.presence_windows(eid)
            assert windows == index.presence_windows(eid)
            assert windows == scan_presence(
                scan_scenarios(ideal_dataset.store, eid)
            )

    def test_unknown_eid(self, ideal_dataset):
        matrix = matrix_for(ideal_dataset.store)
        ghost = EID(10**6)
        assert ghost not in ideal_dataset.store.eid_universe
        assert matrix.scenarios_of(ghost) == ()
        assert matrix.presence_windows(ghost) == []
        assert matrix.co_travelers(ghost, min_shared=1) == []

    def test_co_travelers_counts_confident_cooccurrence(self, ideal_dataset):
        matrix = matrix_for(ideal_dataset.store)
        eid = ideal_dataset.sample_targets(1, seed=6)[0]
        pairs = matrix.co_travelers(eid, min_shared=2)
        assert pairs == scan_co_travelers(ideal_dataset.store, eid, 2)

    def test_min_shared_validated(self, ideal_dataset):
        matrix = matrix_for(ideal_dataset.store)
        with pytest.raises(ValueError):
            matrix.co_travelers(EID(0), min_shared=0)
