"""Attribute hierarchies and roll-ups (§II).

For attributes that are continuous or of high cardinality, the paper
suggests "considering the hierarchy of attributes in the data cube for
reducing the cardinalities": analyze coverage at a coarser granularity
(ZIP code → county → state), then drill into the uncovered regions.

:class:`AttributeHierarchy` maps fine-grained value codes to coarser
buckets with labels; :func:`rollup` applies hierarchies to a dataset and
returns the coarser dataset plus enough bookkeeping to translate patterns
back (:func:`drill_down`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.pattern import Pattern, X
from repro.data.dataset import (
    _INT64_COMBINATIONS,
    Dataset,
    Schema,
    combination_index,
)
from repro.exceptions import DataError, SchemaError


@dataclass(frozen=True)
class AttributeHierarchy:
    """A surjective map from fine value codes onto coarser group codes.

    Attributes:
        attribute: the attribute name this hierarchy applies to.
        groups: per fine code, the coarse group code (length = fine
            cardinality; groups must be 0..g-1 with every group used).
        group_labels: optional label per coarse group.
    """

    attribute: str
    groups: Tuple[int, ...]
    group_labels: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.groups:
            raise SchemaError(f"hierarchy for {self.attribute!r} has no mapping")
        used = sorted(set(self.groups))
        expected = list(range(len(used)))
        if used != expected:
            raise SchemaError(
                f"hierarchy for {self.attribute!r} must use dense group codes "
                f"0..g-1; got {used}"
            )
        if self.group_labels is not None and len(self.group_labels) != len(used):
            raise SchemaError(
                f"hierarchy for {self.attribute!r} has {len(used)} groups but "
                f"{len(self.group_labels)} labels"
            )

    @classmethod
    def of(
        cls,
        attribute: str,
        groups: Sequence[int],
        group_labels: Optional[Sequence[str]] = None,
    ) -> "AttributeHierarchy":
        return cls(
            attribute,
            tuple(int(g) for g in groups),
            tuple(group_labels) if group_labels is not None else None,
        )

    @classmethod
    def from_label_map(
        cls, schema: Schema, attribute: str, mapping: Mapping[str, str]
    ) -> "AttributeHierarchy":
        """Build from fine-label → coarse-label pairs.

        Example::

            AttributeHierarchy.from_label_map(schema, "state",
                {"MI": "midwest", "OH": "midwest", "CA": "west", ...})
        """
        index = schema.index_of(attribute)
        if schema.value_labels is None:
            raise SchemaError("schema has no value labels; use .of with codes")
        fine_labels = schema.value_labels[index]
        coarse_order: List[str] = []
        groups = []
        for label in fine_labels:
            if label not in mapping:
                raise SchemaError(f"hierarchy is missing fine value {label!r}")
            coarse = mapping[label]
            if coarse not in coarse_order:
                coarse_order.append(coarse)
            groups.append(coarse_order.index(coarse))
        return cls(attribute, tuple(groups), tuple(coarse_order))

    @property
    def coarse_cardinality(self) -> int:
        return len(set(self.groups))

    def fine_codes_of(self, group: int) -> Tuple[int, ...]:
        """All fine codes rolled into ``group``."""
        return tuple(i for i, g in enumerate(self.groups) if g == group)

    def compose(self, coarser: "AttributeHierarchy") -> "AttributeHierarchy":
        """Chain two maps: ``self`` (base → mid) then ``coarser`` (mid → top).

        The result maps the base codes straight to the top groups — the form
        :func:`rollup` consumes.
        """
        if len(coarser.groups) != self.coarse_cardinality:
            raise SchemaError(
                f"cannot compose hierarchies for {self.attribute!r}: the "
                f"coarser level maps {len(coarser.groups)} values but the "
                f"finer level produces {self.coarse_cardinality} groups"
            )
        return AttributeHierarchy(
            self.attribute,
            tuple(coarser.groups[g] for g in self.groups),
            coarser.group_labels,
        )

    def factor_through(self, coarser: "AttributeHierarchy") -> "AttributeHierarchy":
        """The step map from ``self``'s groups to ``coarser``'s groups.

        Both maps must share the same (base) domain, and ``coarser`` must be
        a true coarsening of ``self``: whenever two base codes share a group
        under ``self``, they must also share one under ``coarser``.  The
        returned hierarchy maps ``self``'s group codes onto ``coarser``'s;
        a hierarchy stack calls this to check that its levels refine.
        """
        if len(coarser.groups) != len(self.groups):
            raise SchemaError(
                f"hierarchies for {self.attribute!r} map different domains "
                f"({len(self.groups)} vs {len(coarser.groups)} base codes)"
            )
        step: List[Optional[int]] = [None] * self.coarse_cardinality
        for base, mid in enumerate(self.groups):
            top = coarser.groups[base]
            if step[mid] is None:
                step[mid] = top
            elif step[mid] != top:
                raise SchemaError(
                    f"hierarchy for {self.attribute!r} does not factor: base "
                    f"codes sharing group {mid} at the finer level land in "
                    f"different groups ({step[mid]} vs {top}) at the coarser"
                )
        return AttributeHierarchy(
            self.attribute,
            tuple(g for g in step if g is not None),
            coarser.group_labels,
        )


@dataclass(frozen=True)
class Rollup:
    """The result of rolling a dataset up: the coarse dataset plus the
    hierarchies used, keyed by attribute index."""

    dataset: Dataset
    hierarchies: Mapping[int, AttributeHierarchy]


def rollup(dataset: Dataset, hierarchies: Iterable[AttributeHierarchy]) -> Rollup:
    """Apply hierarchies to a dataset, reducing attribute cardinalities.

    Attributes without a hierarchy pass through unchanged.  Label columns
    are preserved.
    """
    by_index: Dict[int, AttributeHierarchy] = {}
    for hierarchy in hierarchies:
        index = dataset.schema.index_of(hierarchy.attribute)
        if index in by_index:
            raise SchemaError(
                f"two hierarchies target attribute {hierarchy.attribute!r}"
            )
        if len(hierarchy.groups) != dataset.cardinalities[index]:
            raise SchemaError(
                f"hierarchy for {hierarchy.attribute!r} maps "
                f"{len(hierarchy.groups)} values; attribute has "
                f"{dataset.cardinalities[index]}"
            )
        by_index[index] = hierarchy

    rows = dataset.rows.copy()
    cardinalities = list(dataset.cardinalities)
    labels: List[Optional[Tuple[str, ...]]] = (
        [tuple(per) for per in dataset.schema.value_labels]
        if dataset.schema.value_labels is not None
        else [None] * dataset.d
    )
    for index, hierarchy in by_index.items():
        mapping = np.asarray(hierarchy.groups, dtype=np.int32)
        rows[:, index] = mapping[rows[:, index]]
        cardinalities[index] = hierarchy.coarse_cardinality
        if hierarchy.group_labels is not None:
            labels[index] = tuple(hierarchy.group_labels)
        else:
            labels[index] = tuple(
                str(g) for g in range(hierarchy.coarse_cardinality)
            )

    if all(per is not None for per in labels):
        value_labels = tuple(labels)  # type: ignore[arg-type]
    else:
        value_labels = None
    schema = Schema(dataset.schema.names, tuple(cardinalities), value_labels)
    coarse = Dataset(
        schema,
        rows,
        labels={name: dataset.label(name) for name in dataset.label_names},
        validate=False,
    )
    if dataset.unique_cache_ready and dataset.n > 0:
        # Rolling up only merges value combinations, so the coarse
        # aggregation follows from the base one: map the u unique base rows
        # (u ≪ n) through the group maps and re-aggregate those instead of
        # re-sorting all n rows — engine builds over the rolled dataset
        # then skip their full unique pass.  As in ``unique_rows``, each row
        # is keyed by its combination index, here grouped by a 1-D
        # ``np.unique`` that also returns the inverse, with the 2-D unique
        # as the fallback for grids of 2**63 cells or more.
        base_unique, base_counts = dataset.unique_rows()
        mapped = base_unique.copy()
        for index, hierarchy in by_index.items():
            mapping = np.asarray(hierarchy.groups, dtype=np.int32)
            mapped[:, index] = mapping[mapped[:, index]]
        if schema.combination_count() < _INT64_COMBINATIONS:
            _, first, inverse = np.unique(
                combination_index(mapped, cardinalities),
                return_index=True,
                return_inverse=True,
            )
            unique = mapped[first]
        else:
            unique, inverse = np.unique(mapped, axis=0, return_inverse=True)
        # Weighted counts are float64, exact below 2**53 rows.
        counts = np.bincount(
            inverse.reshape(-1), weights=base_counts, minlength=len(unique)
        )
        coarse._prime_unique_cache(unique.astype(np.int32), counts.astype(np.int64))
    return Rollup(coarse, by_index)


def drill_down(pattern: Pattern, roll: Rollup) -> List[Pattern]:
    """Translate a coarse pattern back to the fine-grained patterns it
    stands for.

    A coarse MUP ``region=midwest, sex=female`` expands to one fine pattern
    per member state; the union of their matches equals the coarse
    pattern's matches, so each fine pattern is a candidate to investigate.
    """
    if len(pattern) != roll.dataset.d:
        raise DataError(
            f"pattern of length {len(pattern)} against d={roll.dataset.d}"
        )
    expansions: List[List[int]] = [[]]
    for index, value in enumerate(pattern):
        hierarchy = roll.hierarchies.get(index)
        if value == X or hierarchy is None:
            choices = [value]
        else:
            choices = list(hierarchy.fine_codes_of(value))
            if not choices:
                raise DataError(
                    f"coarse value {value} of attribute {index} has no fine codes"
                )
        expansions = [prefix + [c] for prefix in expansions for c in choices]
    return [Pattern(values) for values in expansions]
