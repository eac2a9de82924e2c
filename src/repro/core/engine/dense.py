"""Dense boolean-ndarray coverage engine (the seed design, kept as baseline).

One unpacked ``bool`` vector per attribute value over the unique value
combinations; masks are ``bool`` ndarrays.  Simple, branch-free, and the
reference the packed backend is property-tested against — but it moves 8×
the memory of :class:`~repro.core.engine.packed.PackedBitsetEngine` per AND.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.engine.base import (
    DEFAULT_MASK_CACHE,
    CoverageEngine,
    children_passes,
    register_engine,
)
from repro.data.dataset import Dataset


@register_engine
class DenseBoolEngine(CoverageEngine):
    """Coverage queries over unpacked boolean membership vectors."""

    name = "dense"

    def __init__(
        self,
        dataset: Dataset,
        mask_cache_size: int = DEFAULT_MASK_CACHE,
    ) -> None:
        super().__init__(dataset, mask_cache_size=mask_cache_size)
        # _index[i][v] is the boolean vector over unique rows with value v
        # on attribute i (the inverted index of Appendix A).
        self._index: List[np.ndarray] = []
        unique = self._unique
        for i, cardinality in enumerate(dataset.cardinalities):
            if len(unique):
                column = unique[:, i]
                per_value = np.zeros((cardinality, len(unique)), dtype=bool)
                per_value[column, np.arange(len(unique))] = True
            else:
                per_value = np.zeros((cardinality, 0), dtype=bool)
            self._index.append(per_value)

    # ------------------------------------------------------------------
    # mask kernel
    # ------------------------------------------------------------------
    @property
    def index_nbytes(self) -> int:
        return sum(per_value.nbytes for per_value in self._index)

    def full_mask(self) -> np.ndarray:
        return np.ones(len(self._unique), dtype=bool)

    def value_mask(self, attribute: int, value: int) -> np.ndarray:
        return self._index[attribute][value]

    def restrict(self, mask: np.ndarray, attribute: int, value: int) -> np.ndarray:
        return np.logical_and(mask, self._index[attribute][value])

    def restrict_children(self, mask: np.ndarray, attribute: int) -> List[np.ndarray]:
        family = np.logical_and(mask[np.newaxis, :], self._index[attribute])
        return list(family)

    def restrict_children_many(
        self, masks: Sequence[np.ndarray], attribute: int
    ) -> List[np.ndarray]:
        index = self._index[attribute]
        children: List[np.ndarray] = []
        for chunk in children_passes(len(masks), index.nbytes):
            stacked = np.stack(masks[chunk])
            family = np.logical_and(stacked[:, np.newaxis, :], index)
            children.extend(family.reshape(len(stacked) * len(index), -1))
        return children

    def count(self, mask: np.ndarray) -> int:
        return int(self._counts[mask].sum())

    def count_many(self, masks: Sequence[np.ndarray]) -> np.ndarray:
        if not len(masks):
            return np.zeros(0, dtype=np.int64)
        return np.stack(masks) @ self._counts

    def mask_to_bool(self, mask: np.ndarray) -> np.ndarray:
        return np.asarray(mask, dtype=bool)

    def _compute_match_mask(self, pattern) -> np.ndarray:
        # Override the generic chain to AND in place over one buffer.
        mask = self.full_mask()
        for index in pattern.deterministic_indices():
            np.logical_and(mask, self._index[index][pattern[index]], out=mask)
        return mask
