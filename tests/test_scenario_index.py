"""Tests for the spatiotemporal scenario index."""

import pytest

from repro.sensing.index import ScenarioIndex
from repro.world.entities import EID
from repro.world.geometry import BoundingBox, Point
from tests.store_scan import scan_scenarios


@pytest.fixture(scope="module")
def index(request):
    ideal = request.getfixturevalue("ideal_dataset")
    return ScenarioIndex(ideal.store, ideal.grid)


class TestTemporalQueries:
    def test_tick_range(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store)
        keys = index.in_tick_range(5, 10)
        assert keys
        assert all(5 <= k.tick <= 10 for k in keys)
        assert keys == sorted(keys)

    def test_empty_range_rejected(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store)
        with pytest.raises(ValueError):
            index.in_tick_range(10, 5)

    def test_full_range_covers_store(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store)
        ticks = ideal_dataset.store.ticks
        keys = index.in_tick_range(min(ticks), max(ticks))
        assert len(keys) == len(ideal_dataset.store)


class TestSpatialQueries:
    def test_needs_grid(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store)  # no grid
        with pytest.raises(ValueError, match="grid"):
            index.in_region(BoundingBox(0, 0, 10, 10))

    def test_whole_region_hits_all_cells(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store, ideal_dataset.grid)
        cells = index.cells_intersecting(ideal_dataset.grid.region)
        assert len(cells) == ideal_dataset.grid.num_cells

    def test_small_box_hits_one_cell(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store, ideal_dataset.grid)
        cell = ideal_dataset.grid.cells[0]
        center = cell.center
        box = BoundingBox(center.x - 1, center.y - 1, center.x + 1, center.y + 1)
        assert index.cells_intersecting(box) == frozenset({cell.cell_id})

    def test_in_region_keys_belong_to_cells(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store, ideal_dataset.grid)
        box = BoundingBox(0, 0, 150, 150)
        cells = index.cells_intersecting(box)
        for key in index.in_region(box):
            assert key.cell_id in cells


class TestCombinedQueries:
    def test_window_is_intersection(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store, ideal_dataset.grid)
        box = BoundingBox(0, 0, 200, 200)
        window = set(index.window(box, 3, 8))
        spatial = set(index.in_region(box))
        temporal = set(index.in_tick_range(3, 8))
        assert window == spatial & temporal

    def test_around_point(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store, ideal_dataset.grid)
        keys = index.around(Point(150, 150), radius=10.0, first=0, last=5)
        assert keys
        for key in keys:
            cell = ideal_dataset.grid.cell(key.cell_id)
            assert cell.bounds.expanded(10.0).contains(Point(150, 150))
        with pytest.raises(ValueError):
            index.around(Point(0, 0), radius=-1.0, first=0, last=5)


class TestEIDLookups:
    def test_scenarios_of_contains_eid(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store)
        eid = ideal_dataset.eids[0]
        keys = index.scenarios_of(eid)
        assert keys
        for key in keys:
            assert eid in ideal_dataset.store.e_scenario(key)
        assert keys == scan_scenarios(ideal_dataset.store, eid)

    def test_unknown_eid_empty(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store)
        assert index.scenarios_of(EID(10**6)) == ()
        assert index.presence_windows(EID(10**6)) == []

    def test_presence_windows_cover_all_sightings(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store)
        eid = ideal_dataset.eids[1]
        runs = index.presence_windows(eid)
        covered = {
            (cell, tick)
            for cell, first, last in runs
            for tick in range(first, last + 1)
        }
        sightings = {(k.cell_id, k.tick) for k in index.scenarios_of(eid)}
        assert sightings <= covered

    def test_presence_windows_are_maximal(self, ideal_dataset):
        index = ScenarioIndex(ideal_dataset.store)
        eid = ideal_dataset.eids[2]
        runs = index.presence_windows(eid)
        sightings = {(k.cell_id, k.tick) for k in index.scenarios_of(eid)}
        for cell, first, last in runs:
            # Every tick inside a run is a real sighting...
            for tick in range(first, last + 1):
                assert (cell, tick) in sightings
            # ...and the run cannot be extended on either side.
            assert (cell, first - 1) not in sightings
            assert (cell, last + 1) not in sightings
