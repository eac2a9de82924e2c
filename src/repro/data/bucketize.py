"""Bucketization of continuous / high-cardinality attributes (§II).

The paper handles continuous attributes by "putting similar values into the
same bucket".  These helpers turn a numeric column into integer bucket codes
plus human-readable bucket labels, ready to slot into a :class:`Schema`.

All three bucketizers reject non-finite inputs (NaN, ±inf): NaN sorts after
every float, so ``np.searchsorted`` would silently drop NaN rows into the top
bucket and corrupt every coverage count downstream.  A bucket count is
checked by :func:`check_bucket_count`.  Bucket labels are half-open
``[a,b)`` except the last, which is closed ``[a,b]`` because the column
maximum is included in it.
"""

from __future__ import annotations

from numbers import Integral
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError


def check_bucket_count(buckets: Any) -> int:
    """Normalize a bucket count: a non-boolean integer ≥ 2.

    Numpy integers are accepted.  Booleans, fractions (``4.7``, and
    ``4.0`` too), strings and integers below 2 raise :class:`DataError`:
    truncating ``4.7`` would bucketize at a count nobody asked for.
    """
    if isinstance(buckets, bool) or not isinstance(buckets, Integral):
        raise DataError(f"bucket count must be an integer >= 2, got {buckets!r}")
    if buckets < 2:
        raise DataError(f"bucket count must be >= 2, got {buckets}")
    return int(buckets)


def _finite_column(values: Sequence[float]) -> np.ndarray:
    """Normalize a numeric column, rejecting empty and non-finite input."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise DataError("cannot bucketize an empty column")
    if not np.isfinite(array).all():
        bad = array[~np.isfinite(array)]
        raise DataError(
            f"cannot bucketize non-finite values (found {bad[0]!r} at row "
            f"{int(np.flatnonzero(~np.isfinite(array))[0])}); drop or impute "
            "NaN/inf rows first"
        )
    return array


def _interval_labels(edges: Sequence[float]) -> List[str]:
    """Labels for consecutive ``edges`` intervals; the last one is closed
    because the column maximum belongs to it."""
    count = len(edges) - 1
    labels = [
        f"[{edges[k]:g},{edges[k + 1]:g})" for k in range(count - 1)
    ]
    labels.append(f"[{edges[count - 1]:g},{edges[count]:g}]")
    return labels


def _equal_width(
    low: float, high: float, buckets: int
) -> Tuple[Optional[np.ndarray], List[str]]:
    """Edges and labels of ``buckets`` equal-width intervals over
    ``[low, high]``; a constant range is one bucket with no edges."""
    if low == high:
        return None, [f"[{low:g},{high:g}]"]
    edges = np.linspace(low, high, buckets + 1)
    return edges, _interval_labels(edges)


def equal_width_labels(low: float, high: float, buckets: int) -> List[str]:
    """The labels :func:`bucketize_equal_width` gives ``buckets`` buckets
    of a column whose values span ``[low, high]``."""
    return _equal_width(low, high, check_bucket_count(buckets))[1]


def bucketize_thresholds(
    values: Sequence[float],
    thresholds: Sequence[float],
    labels: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, List[str]]:
    """Bucketize using explicit strictly ascending ``thresholds``.

    A value lands in bucket ``k`` when ``thresholds[k-1] <= value <
    thresholds[k]``; there are ``len(thresholds) + 1`` buckets.  This is how
    the paper's COMPAS age attribute is encoded (under 20 / 20–39 / 40–59 /
    over 60).

    Returns:
        ``(codes, bucket_labels)`` where codes are ints in
        ``[0, len(thresholds)]``.
    """
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise DataError("need at least one threshold")
    if not all(np.isfinite(thresholds)):
        raise DataError(f"thresholds must be finite, got {thresholds}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        # A duplicate threshold makes a zero-width bucket no value can land
        # in, so the code space would not be dense.
        raise DataError(
            f"thresholds must be strictly ascending, got {thresholds}"
        )
    array = _finite_column(values)
    codes = np.searchsorted(thresholds, array, side="right").astype(np.int32)
    if labels is None:
        labels = [f"<{thresholds[0]:g}"]
        for low, high in zip(thresholds, thresholds[1:]):
            labels.append(f"[{low:g},{high:g})")
        labels.append(f">={thresholds[-1]:g}")
    else:
        labels = list(labels)
        if len(labels) != len(thresholds) + 1:
            raise DataError(
                f"{len(thresholds) + 1} buckets but {len(labels)} labels"
            )
    return codes, list(labels)


def bucketize_equal_width(
    values: Sequence[float], buckets: int
) -> Tuple[np.ndarray, List[str]]:
    """Bucketize into ``buckets`` equal-width intervals over the data range.

    A constant column collapses to a single bucket (cardinality 1) rather
    than padding out ``buckets`` labels: a :class:`Schema` built from the
    result would otherwise claim provably-empty values and inflate the
    pattern lattice.
    """
    buckets = check_bucket_count(buckets)
    array = _finite_column(values)
    edges, labels = _equal_width(float(array.min()), float(array.max()), buckets)
    if edges is None:
        # Degenerate constant column: one real bucket, cardinality 1.
        return np.zeros(len(array), dtype=np.int32), labels
    codes = np.clip(
        np.searchsorted(edges, array, side="right") - 1, 0, buckets - 1
    ).astype(np.int32)
    return codes, labels


def bucketize_quantiles(
    values: Sequence[float], buckets: int
) -> Tuple[np.ndarray, List[str]]:
    """Bucketize into ``buckets`` (approximately) equal-population buckets."""
    buckets = check_bucket_count(buckets)
    array = _finite_column(values)
    quantiles = np.quantile(array, np.linspace(0, 1, buckets + 1))
    # Collapse duplicate edges (heavy ties) so codes stay dense.
    edges = np.unique(quantiles)
    if len(edges) < 2:
        return np.zeros(len(array), dtype=np.int32), [f"[{edges[0]:g}]"]
    codes = np.clip(
        np.searchsorted(edges[1:-1], array, side="right"), 0, len(edges) - 2
    ).astype(np.int32)
    return codes, _interval_labels(edges)
