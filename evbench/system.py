"""Helpers that touch the system under test (``repro``) from outside.

Ground truth is read only here, to judge answers: a detection's true
VID and the population's EID -> VID map.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Judge:
    """Scores predicted detection ids against the world's ground truth."""

    def __init__(self, truth: Dict[int, int], detection_vid: Dict[int, int]) -> None:
        self.truth = truth
        self.detection_vid = detection_vid

    @classmethod
    def from_dataset(cls, dataset) -> "Judge":
        judge = cls({eid.index: vid.index for eid, vid in dataset.truth.items()}, {})
        judge.add_store(dataset.store)
        return judge

    def add_store(self, store) -> None:
        for key in store.keys:
            for detection in store.get(key).v.detections:
                self.detection_vid[detection.detection_id] = (
                    detection.true_vid.index
                )

    def correct(self, eid: int, prediction: Optional[int]) -> bool:
        return (
            prediction is not None
            and self.detection_vid.get(prediction) == self.truth.get(eid)
        )

    def score(self, predictions: Iterable[Tuple[int, Optional[int]]]) -> Tuple[int, int]:
        """(correct, total) over ``(eid, predicted detection id)`` pairs."""
        correct = total = 0
        for eid, prediction in predictions:
            total += 1
            correct += self.correct(eid, prediction)
        return correct, total


def oracle_answers(path, shapes: Sequence[Sequence[int]]) -> List[Dict[int, Optional[int]]]:
    """What an in-process ``MatchService`` answers for each target set
    over the saved world at ``path``, configured as a cluster worker is:
    default service configuration on the fastest available backend."""
    from dataclasses import replace

    from repro.core.accel import best_available_backend
    from repro.datagen.io import load_dataset
    from repro.service import MatchService, ServiceConfig
    from repro.world.entities import EID

    dataset = load_dataset(path)
    backend = best_available_backend()
    config = ServiceConfig()
    matcher = config.matcher
    config = replace(config, matcher=replace(
        matcher,
        split=replace(matcher.split, backend=backend),
        edp=replace(matcher.edp, backend=backend),
    ))
    service = MatchService(
        dataset.store, grid=dataset.grid, universe=dataset.eids, config=config
    ).start()
    try:
        return [
            {
                eid.index: match.prediction
                for eid, match in service.match([EID(i) for i in shape]).matches.items()
            }
            for shape in shapes
        ]
    finally:
        service.stop()
