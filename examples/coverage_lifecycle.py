"""Operating coverage over a dataset's lifetime (library extensions).

Run with::

    python examples/coverage_lifecycle.py

A dataset is a living thing: deliveries arrive, stale rows get purged,
subsets get shared.  This walk-through chains the library's maintenance
tools around the paper's core:

1. assess once, persist the MUP set for review (`repro.io`);
2. keep the MUP set current across deliveries, searching it again on
   each new dataset, and see which MUPs a delivery resolved
   (`IncrementalMupIndex`);
3. compare assessments before/after an acquisition (`coverage_diff`);
4. share a smaller dataset that provably preserves the coverage profile
   (`coverage_preserving_sample`);
5. assess at a coarser granularity via attribute hierarchies and drill
   into the gaps (`repro.data.hierarchy`).
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import IncrementalMupIndex, find_mups
from repro.analysis import coverage_diff
from repro.data import (
    AttributeHierarchy,
    coverage_preserving_sample,
    drill_down,
    rollup,
)
from repro.data.bluenile import load_bluenile
from repro.io import load_mup_result, save_mup_result


def main() -> None:
    catalog = load_bluenile(n=20_000)
    tau = 15

    # --- 1. Assess and persist -----------------------------------------
    initial = find_mups(catalog, threshold=tau)
    with tempfile.TemporaryDirectory() as tmp:
        artefact = Path(tmp) / "mups.json"
        save_mup_result(initial, artefact)
        reviewed = load_mup_result(artefact)
    print(f"initial assessment: {len(reviewed)} MUPs at τ={tau}")

    # --- 2. Incremental maintenance ------------------------------------
    index = IncrementalMupIndex(catalog, threshold=tau)
    rng = np.random.default_rng(3)
    delivery = [
        tuple(int(rng.integers(0, c)) for c in catalog.cardinalities)
        for _ in range(25)
    ]
    resolved = index.add_rows(delivery)
    print(
        f"after a 25-stone delivery: {len(resolved)} MUP(s) resolved, "
        f"{len(index.mups())} remain"
    )

    # --- 3. Diff two assessments ---------------------------------------
    after = find_mups(index.dataset, threshold=tau)
    diff = coverage_diff(initial, after, catalog.d)
    print(
        f"diff vs initial: resolved={len(diff.resolved)} "
        f"persisting={len(diff.persisting)} refined={len(diff.refined)} "
        f"regressed={len(diff.regressed)}"
    )

    # --- 4. Share a smaller, coverage-equivalent sample ----------------
    sample = coverage_preserving_sample(catalog, threshold=tau, seed=1)
    sample_mups = find_mups(sample, threshold=tau)
    assert sample_mups.as_set() == initial.as_set()
    print(
        f"coverage-preserving sample: {sample.n} of {catalog.n} rows "
        f"({sample.n / catalog.n:.0%}) with an *identical* MUP set"
    )

    # --- 5. Coarse assessment via hierarchies ---------------------------
    shape_hierarchy = AttributeHierarchy.from_label_map(
        catalog.schema,
        "shape",
        {
            "round": "classic", "princess": "classic", "cushion": "classic",
            "oval": "elongated", "emerald": "elongated", "pear": "elongated",
            "marquise": "elongated", "asscher": "fancy", "radiant": "fancy",
            "heart": "fancy",
        },
    )
    roll = rollup(catalog, [shape_hierarchy])
    coarse = find_mups(roll.dataset, threshold=tau)
    print(f"rolled-up assessment (3 shape families): {len(coarse)} MUPs")
    shallow = [p for p in coarse if p.level <= 2][:3]
    for mup in shallow:
        fine = drill_down(mup, roll)
        print(
            f"  coarse gap {mup.describe(roll.dataset.schema)} covers "
            f"{len(fine)} fine pattern(s) to investigate"
        )


if __name__ == "__main__":
    main()
