"""The threshold sweep on a space just under the coverage cube's cap.

AirBnB n=100,000 over 12 amenities has 3**12 = 531,441 patterns, under
the sweep's cell cap, so ``sweep_mups`` reads the coverage cube.  Over
τ 100–3,000 the frontier has 311,700 rows, and it must equal, row for row,
the frontier of the level walk (forced by a cap of 0).  The sweep's peak
memory is pinned too, measured in a child process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core.lattice as lattice_module
from repro.analysis.sweep import sweep_mups
from repro.data.airbnb import load_airbnb

pytestmark = pytest.mark.slow

TAUS = [100, 200, 300, 500, 700, 1000, 2000, 3000]
CELLS = 3**12
FRONTIER = 311_700


def test_cube_sweep_matches_the_walk(monkeypatch):
    assert CELLS <= lattice_module._CUBE_CELLS
    dataset = load_airbnb(n=100_000, d=12, seed=11)
    cube = sweep_mups(dataset, TAUS)
    assert cube.stats.coverage_evaluations == CELLS
    monkeypatch.setattr(lattice_module, "_CUBE_CELLS", 0)
    walk = sweep_mups(dataset, TAUS)
    assert walk.stats.coverage_evaluations < CELLS
    assert len(cube.frontier) == FRONTIER
    assert cube.frontier == walk.frontier
    assert cube.mup_counts() == walk.mup_counts()


#: Most ``ru_maxrss`` growth, past the unique rows, of the cube sweep.
#: It grew by about 140 MB, almost all of it the answer's 311,700
#: patterns and points; the cube itself is 16 bytes a cell (8.5 MB).  The
#: walk grew by about 155 MB.
MAX_GROWTH_MB = 160

_MEASURE = """
import json, resource, sys
from repro.analysis.sweep import sweep_mups
from repro.data.airbnb import load_airbnb

def peak_mb():
    scale = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 2**20

dataset = load_airbnb(n=100_000, d=12, seed=11)
dataset.unique_rows()
before = peak_mb()
sweep = sweep_mups(dataset, json.loads(sys.argv[1]))
print(json.dumps({
    "frontier": len(sweep.frontier),
    "evaluations": sweep.stats.coverage_evaluations,
    "growth_mb": peak_mb() - before,
}))
"""


def test_cube_sweep_memory_is_bounded():
    """A fresh interpreter, so the peak RSS is the sweep's own; the growth
    over the primed dataset keeps the pin host-independent."""
    source = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", _MEASURE, json.dumps(TAUS)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": source},
    )
    measured = json.loads(completed.stdout.strip().splitlines()[-1])
    assert measured["frontier"] == FRONTIER
    assert measured["evaluations"] == CELLS
    assert measured["growth_mb"] <= MAX_GROWTH_MB
