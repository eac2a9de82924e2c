"""Extension — the incremental MUP index against recompute-from-scratch.

Between acquisitions, a dataset owner receives small deliveries of new
tuples and purges stale ones.  After every change `IncrementalMupIndex`
rebuilds its coverage oracle and re-runs DEEPDIVER on the new dataset;
this bench holds every MUP set it reports to a fresh DEEPDIVER on the
same rows, over 8 deliveries and then one removal of every 300th row, and
times both sides.  It is the check of the index, which `/deliver` serves
through, on more than toy data.
"""

import numpy as np

from _harness import emit, timed

from repro.core.incremental import IncrementalMupIndex
from repro.core.mups import deepdiver
from repro.data.airbnb import load_airbnb

N = 20_000
D = 10
TAU = 20
DELIVERIES = 8
DELIVERY_SIZE = 5
REMOVE_EVERY = 300


def _deliveries(dataset):
    rng = np.random.default_rng(41)
    batches = []
    for _ in range(DELIVERIES):
        batches.append(
            [
                tuple(int(rng.integers(0, c)) for c in dataset.cardinalities)
                for _ in range(DELIVERY_SIZE)
            ]
        )
    return batches


def test_incremental_vs_recompute(benchmark):
    dataset = load_airbnb(n=N, d=D)
    batches = _deliveries(dataset)

    def incremental_run():
        index = IncrementalMupIndex(dataset, threshold=TAU)
        snapshots = []
        for batch in batches:
            index.add_rows(batch)
            snapshots.append(set(index.mups()))
        return index, snapshots

    (index, snapshots), incremental_seconds = benchmark.pedantic(
        timed, args=(incremental_run,), rounds=1, iterations=1
    )

    def recompute_run():
        current = dataset
        snapshots = []
        for batch in batches:
            current = current.append_rows(batch)
            snapshots.append(deepdiver(current, TAU).as_set())
        return current, snapshots

    (current, scratch_snapshots), scratch_seconds = timed(recompute_run)

    # Correctness first: every snapshot must match the scratch answer.
    assert snapshots == scratch_snapshots

    victims = np.arange(0, index.dataset.n, REMOVE_EVERY)
    _, removal_seconds = timed(index.remove_rows, victims)
    keep = np.ones(current.n, dtype=bool)
    keep[victims] = False
    scratch_removed, scratch_removal_seconds = timed(
        lambda: deepdiver(current.mask(keep), TAU).as_set()
    )
    assert set(index.mups()) == scratch_removed
    emit(
        f"Ext.incremental MUP index ({DELIVERIES} deliveries of "
        f"{DELIVERY_SIZE} rows, then {len(victims)} rows removed, "
        f"n={N} d={D} tau={TAU})",
        [
            "strategy",
            "deliveries: seconds (incl. initial identification)",
            "removal: seconds",
        ],
        [
            (
                "index: new oracle + DEEPDIVER per change",
                f"{incremental_seconds:.2f}",
                f"{removal_seconds:.3f}",
            ),
            (
                "DEEPDIVER per change",
                f"{scratch_seconds:.2f}",
                f"{scratch_removal_seconds:.3f}",
            ),
        ],
    )
