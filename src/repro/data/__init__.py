"""Dataset substrates: schema/dataset abstraction, bucketization,
and seeded generators standing in for the paper's three real datasets
(COMPAS, AirBnB, BlueNile) plus the adversarial constructions used in the
paper's proofs.
"""

from repro.data.bucketize import bucketize_equal_width, bucketize_quantiles, bucketize_thresholds
from repro.data.dataset import Dataset, Schema
from repro.data.hierarchy import AttributeHierarchy, Rollup, drill_down, rollup
from repro.data.sampling import coverage_preserving_sample, sample_size_required
from repro.data.synthetic import (
    diagonal_dataset,
    random_categorical_dataset,
    vertex_cover_dataset,
)
from repro.data.airbnb import load_airbnb
from repro.data.bluenile import load_bluenile
from repro.data.compas import load_compas

__all__ = [
    "Dataset",
    "Schema",
    "AttributeHierarchy",
    "Rollup",
    "drill_down",
    "rollup",
    "coverage_preserving_sample",
    "sample_size_required",
    "bucketize_equal_width",
    "bucketize_quantiles",
    "bucketize_thresholds",
    "diagonal_dataset",
    "random_categorical_dataset",
    "vertex_cover_dataset",
    "load_airbnb",
    "load_bluenile",
    "load_compas",
]
