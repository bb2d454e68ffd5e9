"""Spatiotemporal index over a scenario store.

The paper situates EV-Matching inside "big spatial data fusion on
moving objects", whose key problems include *indexing (R-tree,
Quadtree)* and *spatial and temporal range query* (Sec. II).  The
matcher itself only needs per-tick access, but every investigative
query — "which scenarios cover this plaza between 14:00 and 14:10?" —
is a spatiotemporal range query, so the store deserves an index.

:class:`ScenarioIndex` buckets scenario keys by cell and by tick and
answers:

* spatial range queries (all scenarios whose cell intersects a box),
* temporal range queries (all scenarios in a tick window),
* combined windows (the crime-scene query),
* per-EID lookups (all scenarios containing an EID, presence windows),
  answered by the store's shared
  :class:`~repro.core.accel.ScenarioMatrix`.

Grid cells make an R-tree unnecessary: cell bounds are known up front,
so a spatial query reduces to a precomputed cell-id filter.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.sensing.scenarios import ScenarioKey, ScenarioStore
from repro.world.cells import CellGrid, HexCellGrid
from repro.world.entities import EID
from repro.world.geometry import BoundingBox, Point

CellDecomposition = Union[CellGrid, HexCellGrid]


class ScenarioIndex:
    """Cell/tick indexes over one store, plus its per-EID lookups.

    Args:
        store: the scenario store to index.
        grid: the decomposition that produced the store's cell ids;
            needed for spatial queries (pure temporal and EID queries
            work without it).
    """

    def __init__(
        self,
        store: ScenarioStore,
        grid: Optional[CellDecomposition] = None,
    ) -> None:
        self.store = store
        self.grid = grid
        self._by_cell: Dict[int, List[ScenarioKey]] = {}
        for key in store.keys:
            self._by_cell.setdefault(key.cell_id, []).append(key)

    # -- temporal ----------------------------------------------------------
    def in_tick_range(self, first: int, last: int) -> List[ScenarioKey]:
        """All scenarios with ``first <= tick <= last``, ordered."""
        if last < first:
            raise ValueError(f"empty tick range [{first}, {last}]")
        keys: List[ScenarioKey] = []
        for tick in self.store.ticks:
            if first <= tick <= last:
                keys.extend(self.store.keys_at_tick(tick))
        return sorted(keys)

    # -- spatial -----------------------------------------------------------
    def cells_intersecting(self, box: BoundingBox) -> FrozenSet[int]:
        """Cell ids whose bounds intersect ``box``.

        Raises:
            ValueError: if the index was built without a grid.
        """
        if self.grid is None:
            raise ValueError("spatial queries need the index built with a grid")
        return frozenset(
            cell.cell_id
            for cell in self.grid.cells
            if cell.bounds.intersects(box)
        )

    def in_region(self, box: BoundingBox) -> List[ScenarioKey]:
        """All scenarios whose cell intersects ``box``, ordered."""
        cells = self.cells_intersecting(box)
        keys: List[ScenarioKey] = []
        for cell_id in cells:
            keys.extend(self._by_cell.get(cell_id, ()))
        return sorted(keys)

    # -- combined ------------------------------------------------------------
    def window(
        self, box: BoundingBox, first: int, last: int
    ) -> List[ScenarioKey]:
        """The crime-scene query: scenarios in a box during a tick range."""
        if last < first:
            raise ValueError(f"empty tick range [{first}, {last}]")
        cells = self.cells_intersecting(box)
        return sorted(
            key
            for cell_id in cells
            for key in self._by_cell.get(cell_id, ())
            if first <= key.tick <= last
        )

    def around(
        self, point: Point, radius: float, first: int, last: int
    ) -> List[ScenarioKey]:
        """Scenarios within ``radius`` metres of ``point`` in a tick range."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        box = BoundingBox(
            point.x - radius, point.y - radius, point.x + radius, point.y + radius
        )
        return self.window(box, first, last)

    # -- per-EID lookup -------------------------------------------------------
    def _matrix(self):
        # Imported here: repro.core.accel imports this package.
        from repro.core.accel import matrix_for

        return matrix_for(self.store)

    def scenarios_of(self, eid: EID) -> Sequence[ScenarioKey]:
        """Every scenario whose E side contains ``eid`` (incl. vague)."""
        return self._matrix().scenarios_of(eid)

    def presence_windows(self, eid: EID) -> List[Tuple[int, int, int]]:
        """Contiguous presence runs of an EID: ``(cell, first, last)``."""
        return self._matrix().presence_windows(eid)
