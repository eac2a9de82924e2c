"""The categorical dataset substrate every algorithm in the paper runs on.

The paper (§II) considers a dataset ``D`` over ``d`` low-dimensional
categorical attributes with cardinalities ``c_1..c_d``; label attributes may
ride along but are excluded from coverage analysis.  :class:`Schema`
describes the attributes of interest and :class:`Dataset` holds the encoded
rows (integers in ``[0, c_i)``) together with optional label columns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._util import product_int
from repro.exceptions import DataError, SchemaError

#: Rows are stored as int32 codes.
_INT32 = np.iinfo(np.int32)

#: Combination grids with fewer cells than this index rows in ``int64``.
_INT64_COMBINATIONS = 2**63


def combination_index(rows: np.ndarray, cardinalities: Sequence[int]) -> np.ndarray:
    """Row-major position of each row of a ``(k, d)`` value array in the
    ``Π c_i`` combination grid, which must have fewer than ``2**63`` cells.

    Attribute 0 is the most significant digit, so positions sort like the
    rows themselves.
    """
    index = np.zeros(len(rows), dtype=np.int64)
    for i, cardinality in enumerate(cardinalities):
        index *= cardinality
        index += rows[:, i]
    return index


@dataclass(frozen=True)
class Schema:
    """Describes the attributes of interest of a dataset.

    Attributes:
        names: one name per attribute.
        cardinalities: number of distinct values ``c_i`` per attribute.
        value_labels: optional human-readable label per attribute value;
            when omitted, values display as their integer codes.
    """

    names: Tuple[str, ...]
    cardinalities: Tuple[int, ...]
    value_labels: Optional[Tuple[Tuple[str, ...], ...]] = None

    def __post_init__(self) -> None:
        if len(self.names) != len(self.cardinalities):
            raise SchemaError(
                f"{len(self.names)} names but {len(self.cardinalities)} cardinalities"
            )
        if len(set(self.names)) != len(self.names):
            raise SchemaError(f"duplicate attribute names in {self.names}")
        for name, cardinality in zip(self.names, self.cardinalities):
            if cardinality < 1:
                raise SchemaError(f"attribute {name!r} has cardinality {cardinality} < 1")
        if self.value_labels is not None:
            if len(self.value_labels) != len(self.names):
                raise SchemaError("value_labels must have one entry per attribute")
            for name, cardinality, labels in zip(
                self.names, self.cardinalities, self.value_labels
            ):
                if len(labels) != cardinality:
                    raise SchemaError(
                        f"attribute {name!r} has {cardinality} values but "
                        f"{len(labels)} labels"
                    )

    @classmethod
    def of(
        cls,
        names: Sequence[str],
        cardinalities: Sequence[int],
        value_labels: Optional[Sequence[Sequence[str]]] = None,
    ) -> "Schema":
        """Build a schema from plain sequences."""
        labels = (
            tuple(tuple(per_attr) for per_attr in value_labels)
            if value_labels is not None
            else None
        )
        return cls(tuple(names), tuple(int(c) for c in cardinalities), labels)

    @classmethod
    def binary(cls, d: int, prefix: str = "A") -> "Schema":
        """A schema of ``d`` binary attributes named ``A1..Ad`` (paper style)."""
        return cls.of([f"{prefix}{i + 1}" for i in range(d)], [2] * d)

    @property
    def d(self) -> int:
        """Number of attributes of interest."""
        return len(self.names)

    def index_of(self, name: str) -> int:
        """Position of attribute ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self.names.index(name)
        except ValueError:
            raise SchemaError(f"unknown attribute {name!r}; have {self.names}") from None

    def value_label(self, attribute: int, value: int) -> str:
        """Human-readable label for ``value`` of attribute ``attribute``."""
        if self.value_labels is None:
            return str(value)
        return self.value_labels[attribute][value]

    def combination_count(self, attributes: Optional[Iterable[int]] = None) -> int:
        """Number of full value combinations over the given attributes.

        With no argument this is the paper's ``Π c_k`` over all attributes.
        """
        if attributes is None:
            return product_int(self.cardinalities)
        return product_int(self.cardinalities[i] for i in attributes)

    def pattern_count(self) -> int:
        """Total number of patterns ``Π (c_k + 1)`` (§III-A)."""
        return product_int(c + 1 for c in self.cardinalities)

    def project(self, attributes: Sequence[int]) -> "Schema":
        """Schema restricted to the given attribute positions, in order."""
        labels = (
            tuple(self.value_labels[i] for i in attributes)
            if self.value_labels is not None
            else None
        )
        return Schema(
            tuple(self.names[i] for i in attributes),
            tuple(self.cardinalities[i] for i in attributes),
            labels,
        )


class Dataset:
    """An encoded categorical dataset plus optional label columns.

    Rows are stored as an ``(n, d)`` integer array; every value must lie in
    ``[0, c_i)`` for its attribute.  Labels (the paper's ``Y`` attributes,
    §II) are stored separately and never participate in coverage.
    """

    def __init__(
        self,
        schema: Schema,
        rows: np.ndarray,
        labels: Optional[Mapping[str, np.ndarray]] = None,
        validate: bool = True,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int32)
        if rows.ndim != 2 or rows.shape[1] != schema.d:
            raise DataError(
                f"rows must be (n, {schema.d}); got shape {rows.shape}"
            )
        self._schema = schema
        self._rows = rows
        self._labels: Dict[str, np.ndarray] = {}
        if labels:
            for name, column in labels.items():
                column = np.asarray(column)
                if column.shape[0] != rows.shape[0]:
                    raise DataError(
                        f"label {name!r} has {column.shape[0]} entries for "
                        f"{rows.shape[0]} rows"
                    )
                self._labels[name] = column
        if validate and rows.size:
            lower = rows.min(axis=0)
            upper = rows.max(axis=0)
            for i, (low, high) in enumerate(zip(lower, upper)):
                if low < 0 or high >= schema.cardinalities[i]:
                    raise DataError(
                        f"attribute {schema.names[i]!r} has values in "
                        f"[{low}, {high}] outside [0, {schema.cardinalities[i]})"
                    )
        self._unique_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[int]],
        schema: Optional[Schema] = None,
        names: Optional[Sequence[str]] = None,
        cardinalities: Optional[Sequence[int]] = None,
    ) -> "Dataset":
        """Build a dataset from an iterable of integer rows.

        When neither ``schema`` nor ``cardinalities`` is given, cardinalities
        are inferred as ``max + 1`` per column (at least 2, so a constant
        binary column stays binary).
        """
        try:
            array = np.asarray(list(rows), dtype=np.int64)
        except OverflowError as error:
            raise DataError(f"row values must fit in int32: {error}") from error
        if array.size and (array.min() < _INT32.min or array.max() > _INT32.max):
            raise DataError(
                f"row values must fit in int32, got values in "
                f"[{array.min()}, {array.max()}]"
            )
        array = array.astype(np.int32)
        if array.ndim == 1:
            array = array.reshape(0, 0) if array.size == 0 else array.reshape(1, -1)
        if schema is None:
            d = array.shape[1]
            if cardinalities is None:
                if array.size == 0:
                    raise DataError("cannot infer cardinalities from an empty dataset")
                cardinalities = [max(2, int(array[:, i].max()) + 1) for i in range(d)]
            if names is None:
                names = [f"A{i + 1}" for i in range(d)]
            schema = Schema.of(names, cardinalities)
        return cls(schema, array)

    @classmethod
    def from_strings(cls, rows: Iterable[str], schema: Optional[Schema] = None) -> "Dataset":
        """Build from strings like ``"010"`` (paper's compact examples).

        Only supports single-digit values, which covers all in-paper examples.
        """
        parsed = [[int(ch) for ch in row] for row in rows]
        return cls.from_rows(parsed, schema=schema)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def rows(self) -> np.ndarray:
        """The encoded ``(n, d)`` rows (do not mutate)."""
        return self._rows

    @property
    def n(self) -> int:
        """Number of tuples in the dataset."""
        return self._rows.shape[0]

    @property
    def d(self) -> int:
        """Number of attributes of interest."""
        return self._schema.d

    @property
    def cardinalities(self) -> Tuple[int, ...]:
        return self._schema.cardinalities

    @property
    def label_names(self) -> Tuple[str, ...]:
        return tuple(self._labels)

    def label(self, name: str) -> np.ndarray:
        """Return the label column ``name``."""
        if name not in self._labels:
            raise DataError(f"unknown label {name!r}; have {tuple(self._labels)}")
        return self._labels[name]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return (
            f"Dataset(n={self.n}, d={self.d}, "
            f"cardinalities={self._schema.cardinalities})"
        )

    # ------------------------------------------------------------------
    # aggregation (Appendix A: work over unique value combinations)
    # ------------------------------------------------------------------
    def unique_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Unique value combinations present in ``D`` plus multiplicities.

        Appendix A aggregates items with the same value combination so the
        inverted indices are built over distinct combinations only.
        Returns ``(unique (u, d) array, counts (u,) array)``, rows in
        lexicographic order; cached.

        Each row is keyed by its :func:`combination_index` and the keys
        are grouped by one ``argsort`` (numpy's default quicksort, several
        times faster on ``int64`` than the stable sort ``np.unique`` takes
        to report first occurrences): rows with equal keys are equal, so
        any member of a run stands for it.  Grids of ``2**63`` cells or
        more fall back to a 2-D ``np.unique`` over the rows.
        """
        if self._unique_cache is None:
            if self.n == 0:
                self._unique_cache = (
                    np.zeros((0, self.d), dtype=np.int32),
                    np.zeros(0, dtype=np.int64),
                )
            elif self._schema.combination_count() < _INT64_COMBINATIONS:
                keys = combination_index(self._rows, self.cardinalities)
                order = np.argsort(keys)
                keys = keys[order]
                starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
                counts = np.diff(np.r_[starts, len(keys)]).astype(np.int64)
                self._unique_cache = (self._rows[order[starts]], counts)
            else:
                unique, counts = np.unique(
                    self._rows, axis=0, return_counts=True
                )
                self._unique_cache = (unique.astype(np.int32), counts.astype(np.int64))
        return self._unique_cache

    def content_fingerprint(self) -> str:
        """Stable hex digest of the dataset's logical content.

        Hashes the schema cardinalities together with the (sorted) unique
        value combinations and their multiplicities, so two datasets with
        the same rows in any order fingerprint identically.  The serving
        registry keys its warm entries by it.
        """
        unique, counts = self.unique_rows()
        digest = hashlib.sha256()
        digest.update(np.asarray(self.cardinalities, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(unique, dtype=np.int32).tobytes())
        digest.update(np.ascontiguousarray(counts, dtype=np.int64).tobytes())
        return digest.hexdigest()

    @property
    def unique_cache_ready(self) -> bool:
        """Whether :meth:`unique_rows` is already computed (or primed).

        Derived datasets (roll-ups) can aggregate the parent's
        unique rows instead of re-sorting all ``n`` rows when this is set.
        """
        return self._unique_cache is not None

    def _prime_unique_cache(self, unique: np.ndarray, counts: np.ndarray) -> None:
        """Install a precomputed unique-row aggregation (trusted callers).

        A roll-up aggregates its parent's unique rows and installs the
        result here, so it skips the ``np.unique`` re-sort of all ``n``
        rows.
        """
        self._unique_cache = (unique, counts)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def project(self, attributes: Sequence) -> "Dataset":
        """Dataset restricted to the given attributes (names or indices).

        Labels are carried along unchanged; this mirrors the paper's
        "attributes of interest" projection (§II).
        """
        indices = [
            self._schema.index_of(a) if isinstance(a, str) else int(a)
            for a in attributes
        ]
        for i in indices:
            if i < 0 or i >= self.d:
                raise DataError(f"attribute index {i} out of range [0, {self.d})")
        return Dataset(
            self._schema.project(indices),
            self._rows[:, indices],
            labels=self._labels,
            validate=False,
        )

    def sample(self, size: int, seed: int = 0) -> "Dataset":
        """Uniform sample without replacement of ``size`` rows."""
        if size > self.n:
            raise DataError(f"cannot sample {size} rows from {self.n}")
        rng = np.random.default_rng(seed)
        chosen = rng.choice(self.n, size=size, replace=False)
        chosen.sort()
        return self.take(chosen)

    def take(self, indices: Sequence[int]) -> "Dataset":
        """Dataset consisting of the given row indices (labels follow)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self._schema,
            self._rows[indices],
            labels={name: col[indices] for name, col in self._labels.items()},
            validate=False,
        )

    def head(self, size: int) -> "Dataset":
        """First ``size`` rows."""
        return self.take(np.arange(min(size, self.n)))

    def append_rows(self, new_rows: Iterable[Sequence[int]]) -> "Dataset":
        """Return a new dataset with ``new_rows`` appended (labels dropped).

        This models the paper's data acquisition step: collected value
        combinations become new tuples of ``D``.  Label columns are not
        meaningful for acquired rows, so the result carries none.

        Raises:
            DataError: the rows are ragged, of another width, not
                integers (floats, booleans, strings) or past ``int32``.
        """
        try:
            addition = np.asarray(list(new_rows))
        except ValueError as error:
            raise DataError(f"appended rows are ragged: {error}") from error
        if addition.size == 0:
            return Dataset(self._schema, self._rows.copy(), validate=False)
        if addition.ndim == 1:
            addition = addition.reshape(1, -1)
        if addition.dtype.kind not in "iu":
            raise DataError(
                f"appended rows must hold integers, got {addition.dtype} values"
            )
        if addition.ndim != 2 or addition.shape[1] != self.d:
            raise DataError(
                f"appended rows have shape {addition.shape[1:]}, "
                f"expected ({self.d},)"
            )
        if addition.min() < _INT32.min or addition.max() > _INT32.max:
            raise DataError(
                f"row values must fit in int32, got values in "
                f"[{addition.min()}, {addition.max()}]"
            )
        combined = np.vstack([self._rows, addition.astype(np.int32)])
        return Dataset(self._schema, combined)

    def mask(self, flags: np.ndarray) -> "Dataset":
        """Dataset of rows where ``flags`` is True."""
        flags = np.asarray(flags, dtype=bool)
        if flags.shape[0] != self.n:
            raise DataError(f"mask has {flags.shape[0]} entries for {self.n} rows")
        return self.take(np.nonzero(flags)[0])

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------
    def value_counts(self, attribute) -> List[int]:
        """Occurrences of each value of ``attribute`` (name or index)."""
        index = (
            self._schema.index_of(attribute)
            if isinstance(attribute, str)
            else int(attribute)
        )
        counts = np.bincount(
            self._rows[:, index], minlength=self._schema.cardinalities[index]
        )
        return [int(c) for c in counts]

    def describe(self) -> str:
        """A short plain-text summary of the dataset."""
        lines = [f"Dataset: n={self.n}, d={self.d}"]
        for i, name in enumerate(self._schema.names):
            counts = self.value_counts(i)
            parts = ", ".join(
                f"{self._schema.value_label(i, v)}={counts[v]}"
                for v in range(self._schema.cardinalities[i])
            )
            lines.append(f"  {name} (c={self._schema.cardinalities[i]}): {parts}")
        if self._labels:
            lines.append(f"  labels: {', '.join(self._labels)}")
        return "\n".join(lines)
