"""Self-test of the end-to-end benchmark at ``--smoke`` sizes.

    python -m pytest benchmarks/e2e -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

#: Smoke runs take 1-4 s here; the limit leaves room for a loaded machine.
SMOKE_LIMIT_S = 10


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    start = time.perf_counter()
    process = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--smoke",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )
    return process, time.perf_counter() - start


def _printed(stdout):
    """``name -> (value, unit)`` from the ``name value unit`` lines."""
    lines = stdout.splitlines()[:-1]
    return {name: (value, unit) for name, value, unit in (l.split(" ") for l in lines)}


@pytest.mark.parametrize("workload", [w["name"] for w in run.BENCHMARK["workloads"]])
def test_workload_prints_every_metric_and_traced_answers_match(workload):
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        process, seconds = _run(workload, trace)
        assert process.returncode == 0, process.stderr
        assert seconds < SMOKE_LIMIT_S
        result = json.loads(process.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in run.BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        printed = _printed(process.stdout)
        for name, unit in expected.items():
            assert printed[name][1] == unit
            assert float(printed[name][0]) == result["metrics"][name]["value"]
        digests[trace] = printed["answer_digest"][0]
    assert digests[0] == digests[1]


def test_host_clock_removes_probes_and_scales_to_the_nominal_speed():
    clock = run.HostClock()
    assert clock.seconds(1.0, 3.0) == 2.0  # no probes: wall time
    # Probes every 0.1 s that took twice the nominal time: a host at half
    # speed, so the busy time shrinks by half.
    nominal = run.PROBE_NOMINAL_S
    clock.starts = [i / 10 for i in range(100)]
    clock.times = [2 * nominal] * 100
    busy = 2.0 - 20 * 2 * nominal  # 20 probes fall in [1, 3)
    assert clock.seconds(1.0, 3.0) == pytest.approx(busy / 2)
    # A short interval takes its speed from the nearest probes.
    clock.times[:60] = [nominal] * 60
    assert clock.seconds(0.5, 0.55) == pytest.approx(0.05 - nominal)
    assert clock.speed() == pytest.approx(1.0)


def test_a_dropped_mup_fails_the_run(monkeypatch, capsys):
    import repro.core.mups.base as mups_base
    from repro.core.mups.base import MupResult

    deepdiver = mups_base.ALGORITHMS["deepdiver"]

    def lossy(*args, **kwargs):
        result = deepdiver(*args, **kwargs)
        return MupResult(result.mups[1:], result.threshold, result.stats)

    monkeypatch.setitem(mups_base.ALGORITHMS, "deepdiver", lossy)
    code = run.main(["--workload", "identify-airbnb", "--smoke", "--seconds", "0"])
    printed = _printed(capsys.readouterr().out)
    assert code == 1
    assert float(printed["failed_frac"][0]) > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    process, _ = _run("identify-airbnb", 0, cwd=tmp_path,
                      script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout
