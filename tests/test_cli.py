"""End-to-end tests for the command-line interface."""

import csv
import os
import tempfile

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.engine import ShardedEngine
from repro.data.synthetic import random_categorical_dataset


@pytest.fixture
def csv_file(tmp_path):
    """A small integer-coded CSV with a header row."""
    dataset = random_categorical_dataset(60, (2, 3, 2), seed=4, skew=1.0)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["color", "size", "shape"])
        writer.writerows(dataset.rows.tolist())
    return str(path)


class TestIdentify:
    def test_identify_prints_mups(self, csv_file, capsys):
        code = main(["identify", csv_file, "--threshold", "5"])
        assert code == 0
        output = capsys.readouterr().out
        assert "maximal uncovered pattern" in output

    def test_identify_with_projection(self, csv_file, capsys):
        code = main(
            ["identify", csv_file, "--threshold", "5", "--attributes", "color", "size"]
        )
        assert code == 0

    def test_identify_with_algorithm_choice(self, csv_file, capsys):
        code = main(
            ["identify", csv_file, "--threshold", "5", "--algorithm", "pattern_breaker"]
        )
        assert code == 0

    def test_identify_with_level_cap(self, csv_file, capsys):
        code = main(["identify", csv_file, "--threshold", "5", "--max-level", "1"])
        assert code == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["identify", "--threshold", "5", "--max-level", "-1"],
            [
                "identify", "--threshold", "5", "--max-level", "-1",
                "--algorithm", "pattern_breaker",
            ],
            [
                "identify", "--threshold", "5", "--max-level", "2",
                "--algorithm", "pattern_combiner",
            ],
            ["label", "--threshold", "5", "--max-level", "-1"],
            ["sweep", "--thresholds", "5", "--max-level", "-1"],
        ],
        ids=["identify", "pattern-breaker", "pattern-combiner", "label", "sweep"],
    )
    def test_a_bad_level_cap_exits_2(self, csv_file, capsys, args):
        command, *flags = args
        assert main([command, csv_file, *flags]) == 2
        assert "max_level" in capsys.readouterr().err


class TestLabel:
    def test_label_renders_widget(self, csv_file, capsys):
        code = main(["label", csv_file, "--threshold", "5"])
        assert code == 0
        assert "Coverage" in capsys.readouterr().out


class TestEnhance:
    def test_enhance_prints_plan(self, csv_file, capsys):
        code = main(["enhance", csv_file, "--threshold", "5", "--level", "1"])
        assert code == 0
        assert "Acquisition plan" in capsys.readouterr().out

    def test_enhance_with_rule(self, csv_file, capsys):
        code = main(
            [
                "enhance",
                csv_file,
                "--threshold",
                "5",
                "--level",
                "1",
                "--rule",
                "color=1,size=2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Acquisition plan" in output

    def test_enhance_with_bad_rule_returns_2(self, csv_file, capsys):
        code = main(
            ["enhance", csv_file, "--threshold", "5", "--level", "1", "--rule", "junk"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["packed", "sharded"])
    def test_enhance_plan_does_not_depend_on_the_engine(
        self, csv_file, capsys, engine
    ):
        args = ["enhance", csv_file, "--threshold", "5", "--level", "2"]
        assert main(args) == 0
        planned = capsys.readouterr().out
        assert main(args + ["--engine", engine]) == 0
        assert capsys.readouterr().out == planned

    def test_enhance_rule_unknown_attribute_returns_2(self, csv_file, capsys):
        code = main(
            ["enhance", csv_file, "--threshold", "5", "--level", "1", "--rule", "zz=1"]
        )
        assert code == 2


class TestSweep:
    def test_sweep_tau_range_prints_tables(self, csv_file, capsys):
        code = main(["sweep", csv_file, "--tau-range", "2:8:2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold sweep over τ ∈ [2, 8]" in out
        assert "appeared" in out and "disappears above" in out

    def test_sweep_explicit_thresholds_with_bootstrap(self, csv_file, capsys):
        code = main(
            [
                "sweep", csv_file,
                "--thresholds", "3", "6",
                "--bootstrap", "2",
                "--seed", "9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bootstrap support over 2 replicates (seed 9)" in out
        assert "mean support" in out

    def test_sweep_json_matches_library(self, csv_file, capsys):
        import json as json_module

        from repro.analysis.sweep import threshold_sensitivity
        from repro.cli import _load_csv

        code = main(["sweep", csv_file, "--tau-range", "2:5", "--json"])
        assert code == 0
        body = json_module.loads(capsys.readouterr().out)
        expected = threshold_sensitivity(
            _load_csv(csv_file, None), [2, 3, 4, 5]
        ).as_dict()
        assert body == expected

    def test_sweep_counts_match_identify(self, csv_file, capsys):
        """Amortized CLI counts agree with per-τ identify runs."""
        import json as json_module

        assert main(["sweep", csv_file, "--tau-range", "4:6", "--json"]) == 0
        counts = json_module.loads(capsys.readouterr().out)["counts"]
        for tau in (4, 5, 6):
            assert main(["identify", csv_file, "--threshold", str(tau)]) == 0
            out = capsys.readouterr().out
            expected = counts[str(tau)]
            assert f"{expected} maximal uncovered pattern(s) at τ={tau}" in out

    def test_sweep_requires_some_thresholds(self, csv_file, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", csv_file])

    def test_sweep_bad_range_returns_2(self, csv_file, capsys):
        code = main(["sweep", csv_file, "--tau-range", "9:1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestDemo:
    def test_demo_runs_on_bundled_compas(self, capsys):
        code = main(["demo", "--threshold", "10", "--limit", "5"])
        assert code == 0
        output = capsys.readouterr().out
        assert "marital_status" in output


class TestErrors:
    def test_missing_file_returns_2(self, capsys):
        code = main(["identify", "/does/not/exist.csv", "--threshold", "5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_attribute_returns_2(self, csv_file, capsys):
        code = main(
            ["identify", csv_file, "--threshold", "5", "--attributes", "nope"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command, content, line",
        [
            (["identify"], "", None),
            (["identify"], "a,b\n3000000000,1\n", None),
            (["bucketsweep", "--column", "a", "--buckets", "2"], "", None),
            (["identify"], "a,b\n0,1\n1\n", 3),
            (["identify"], "a,b\n0,1\n1,0\n0,1,1\n", 4),
            (
                ["bucketsweep", "--column", "b", "--buckets", "2"],
                "a,b\n0,1.5\n1\n",
                3,
            ),
        ],
        ids=[
            "empty",
            "past-int32",
            "empty-numeric",
            "ragged-short",
            "ragged-long",
            "short-numeric",
        ],
    )
    def test_malformed_csv_returns_2(
        self, command, content, line, tmp_path, capsys
    ):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        code = main([command[0], str(path), *command[1:], "--threshold", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        if line is not None:
            # A ragged row is named by file and line, not by numpy.
            assert f"{path}, line {line}:" in err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestEngineSelection:
    @pytest.mark.parametrize("engine", ["packed", "sharded"])
    def test_identify_output_identical_across_engines(self, csv_file, engine, capsys):
        assert main(["identify", csv_file, "--threshold", "5"]) == 0
        reference = capsys.readouterr().out
        code = main(["identify", csv_file, "--threshold", "5", "--engine", engine])
        assert code == 0
        assert capsys.readouterr().out == reference

    def test_identify_with_shards_and_workers(self, csv_file, capsys):
        code = main(
            [
                "identify",
                csv_file,
                "--threshold",
                "5",
                "--engine",
                "sharded",
                "--shards",
                "3",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        assert "maximal uncovered pattern" in capsys.readouterr().out

    def test_label_and_enhance_accept_sharded(self, csv_file, capsys):
        assert (
            main(
                ["label", csv_file, "--threshold", "5", "--engine", "sharded"]
            )
            == 0
        )
        assert (
            main(
                [
                    "enhance",
                    csv_file,
                    "--threshold",
                    "5",
                    "--level",
                    "1",
                    "--engine",
                    "sharded",
                    "--shards",
                    "2",
                ]
            )
            == 0
        )

    def test_oversharding_is_clamped_not_an_error(self, csv_file, capsys):
        code = main(
            [
                "identify",
                csv_file,
                "--threshold",
                "5",
                "--engine",
                "sharded",
                "--shards",
                "100000",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "option",
        [
            ["--engine", "compressed"],
            ["--array-cutoff", "16"],
            ["--run-cutoff", "4"],
        ],
        ids=["engine-compressed", "array-cutoff", "run-cutoff"],
    )
    def test_compressed_options_are_usage_errors(self, csv_file, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["identify", csv_file, "--threshold", "5", *option])
        assert excinfo.value.code == 2
        assert option[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [
            ["--engine", "packed"],
            ["--explain-plan"],
            ["--shards", "2"],
            ["--workers", "2"],
            ["--worker-endpoints", "h1:7000"],
            ["--delta-spill"],
            ["--spill-dir", "spill"],
            ["--max-resident-bytes", "1024"],
        ],
        ids=lambda option: option[0].lstrip("-"),
    )
    @pytest.mark.parametrize("command", ["sweep", "bucketsweep"])
    def test_sweeps_take_no_engine_options(
        self, csv_file, numeric_csv, command, option, capsys
    ):
        """Both sweeps count from the unique rows and build no engine."""
        argv = {
            "sweep": ["sweep", csv_file, "--tau-range", "2:4"],
            "bucketsweep": [
                "bucketsweep", numeric_csv, "--column", "price",
                "--buckets", "2", "--threshold", "4",
            ],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *option])
        assert excinfo.value.code == 2
        assert option[0] in capsys.readouterr().err

    def test_invalid_shard_count_returns_2(self, csv_file, capsys):
        code = main(
            ["identify", csv_file, "--threshold", "5", "--engine", "sharded", "--shards", "0"]
        )
        assert code == 2
        assert "shard count" in capsys.readouterr().err


class TestOutOfCore:
    def test_identify_out_of_core_matches_in_memory(
        self, csv_file, tmp_path, capsys
    ):
        assert main(["identify", csv_file, "--threshold", "5"]) == 0
        reference = capsys.readouterr().out
        spill = tmp_path / "spill"
        code = main(
            [
                "identify",
                csv_file,
                "--threshold",
                "5",
                "--engine",
                "sharded",
                "--shards",
                "3",
                "--spill-dir",
                str(spill),
                "--max-resident-bytes",
                "4096",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == reference

    def test_identify_with_socket_workers_matches_in_memory(
        self, csv_file, tmp_path, capsys
    ):
        identify = ["identify", csv_file, "--threshold", "5"]
        assert main(identify) == 0
        reference = capsys.readouterr().out
        spill = tmp_path / "spill"
        code = main(
            identify
            + ["--engine", "sharded", "--shards", "3", "--workers", "2"]
            + ["--spill-dir", str(spill)]
        )
        assert code == 0
        assert capsys.readouterr().out == reference
        # The engine closes when the command ends, taking its shards along.
        assert list(spill.iterdir()) == []

    def test_sharded_without_spill_dir_cleans_the_default_root(
        self, csv_file, tmp_path, capsys, monkeypatch
    ):
        root = tmp_path / "root"
        root.mkdir()
        # $TMPDIR names the default spill root (tempfile caches it).
        monkeypatch.setenv("TMPDIR", str(root))
        monkeypatch.setattr(tempfile, "tempdir", None)
        closed = []
        close = ShardedEngine.close

        def recording_close(engine):
            closed.append(engine.spill_path)
            close(engine)

        monkeypatch.setattr(ShardedEngine, "close", recording_close)
        code = main(
            ["identify", csv_file, "--threshold", "5"]
            + ["--engine", "sharded", "--workers", "2"]
        )
        assert code == 0
        assert "maximal uncovered pattern" in capsys.readouterr().out
        assert closed
        assert all(os.path.dirname(path) == str(root) for path in closed)
        assert list(root.iterdir()) == []

    def test_spill_dir_requires_sharded_engine(self, csv_file, tmp_path, capsys):
        code = main(
            [
                "identify",
                csv_file,
                "--threshold",
                "5",
                "--engine",
                "packed",
                "--spill-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "--engine sharded" in capsys.readouterr().err

    def test_shards_require_sharded_engine(self, csv_file, capsys):
        code = main(
            [
                "identify",
                csv_file,
                "--threshold",
                "5",
                "--engine",
                "packed",
                "--shards",
                "16",
            ]
        )
        assert code == 2
        assert "--engine sharded" in capsys.readouterr().err

    def test_workers_require_sharded_engine(self, csv_file, capsys):
        code = main(
            [
                "identify",
                csv_file,
                "--threshold",
                "5",
                "--engine",
                "packed",
                "--workers",
                "4",
            ]
        )
        assert code == 2
        assert "--engine sharded" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--engine", "packed", "--delta-spill"],
            ["--engine", "packed", "--worker-endpoints", "h1:7000"],
        ],
        ids=["delta-spill", "worker-endpoints"],
    )
    def test_socket_flags_require_sharded_engine(self, csv_file, capsys, flags):
        code = main(["identify", csv_file, "--threshold", "5"] + flags)
        assert code == 2
        assert "--engine sharded" in capsys.readouterr().err


class TestAutoPlanner:
    """The auto planner is the CLI default and honors its constraints."""

    def test_auto_is_the_default_and_matches_explicit_engines(
        self, csv_file, capsys
    ):
        assert main(["identify", csv_file, "--threshold", "5"]) == 0
        auto_output = capsys.readouterr().out
        for engine in ("packed", "sharded"):
            code = main(
                ["identify", csv_file, "--threshold", "5", "--engine", engine]
            )
            assert code == 0
            assert capsys.readouterr().out == auto_output

    def test_explain_plan_prints_rationale(self, csv_file, capsys):
        code = main(
            ["identify", csv_file, "--threshold", "5", "--explain-plan"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "engine plan:" in output
        assert "projected" in output
        assert "maximal uncovered pattern" in output

    def test_explain_plan_reports_hand_picked_engines(self, csv_file, capsys):
        code = main(
            [
                "identify",
                csv_file,
                "--threshold",
                "5",
                "--engine",
                "packed",
                "--explain-plan",
            ]
        )
        assert code == 0
        assert "hand-picked" in capsys.readouterr().out

    def test_auto_escalates_to_out_of_core_under_memory_budget(
        self, csv_file, tmp_path, capsys
    ):
        """The acceptance pin: projected packed bytes above the budget
        select the out-of-core mode, with identical answers."""
        assert main(["identify", csv_file, "--threshold", "5"]) == 0
        reference = capsys.readouterr().out
        spill = tmp_path / "spill"
        code = main(
            [
                "identify",
                csv_file,
                "--threshold",
                "5",
                "--explain-plan",
                "--spill-dir",
                str(spill),
                "--max-resident-bytes",
                "16",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "out-of-core" in output
        assert "max_resident_bytes=16" in output
        # The plan renders first; the report itself is byte-identical.
        assert output.endswith(reference)
        # The planner's spill subdirectory is removed when the run ends.
        import os

        assert os.listdir(spill) == []

    def test_auto_accepts_sharded_knobs_as_constraints(self, csv_file, capsys):
        code = main(
            [
                "identify",
                csv_file,
                "--threshold",
                "5",
                "--explain-plan",
                "--shards",
                "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "backend=sharded shards=3" in output
        assert "requested explicitly" in output


@pytest.fixture
def hierarchy_setup(tmp_path):
    """A CSV whose every code is observed plus a matching stack spec."""
    import json

    rng = np.random.default_rng(9)
    rows = rng.integers(0, [2, 3, 2], size=(60, 3)).tolist()
    rows += [[0, 0, 0], [1, 1, 1], [0, 2, 0], [1, 2, 1], [0, 1, 0]]
    path = tmp_path / "hier.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["color", "size", "shape"])
        writer.writerows(rows)
    spec = tmp_path / "stack.json"
    spec.write_text(
        json.dumps(
            {
                "size": [
                    {"groups": [0, 0, 1], "labels": ["small", "large"]}
                ],
                "color": [[0, 0]],
            }
        )
    )
    return str(path), str(spec)


@pytest.fixture
def numeric_csv(tmp_path):
    """A CSV mixing categorical columns with one numeric column."""
    rng = np.random.default_rng(13)
    path = tmp_path / "numeric.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["color", "size", "price"])
        for _ in range(70):
            writer.writerow(
                [
                    int(rng.integers(0, 2)),
                    int(rng.integers(0, 3)),
                    round(float(rng.lognormal(0.0, 1.0)), 3),
                ]
            )
    return str(path)


class TestHierarchyCommand:
    def test_prints_level_table_and_remedies(self, hierarchy_setup, capsys):
        path, spec = hierarchy_setup
        code = main(
            ["hierarchy", path, "--threshold", "5", "--hierarchy", spec]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "level" in output
        assert "generalize" in output or "no covered generalization" in output

    def test_no_remedies_flag(self, hierarchy_setup, capsys):
        path, spec = hierarchy_setup
        code = main(
            [
                "hierarchy",
                path,
                "--threshold",
                "5",
                "--hierarchy",
                spec,
                "--no-remedies",
            ]
        )
        assert code == 0
        assert "generalize to" not in capsys.readouterr().out

    def test_json_output(self, hierarchy_setup, capsys):
        import json

        path, spec = hierarchy_setup
        code = main(
            [
                "hierarchy",
                path,
                "--threshold",
                "5",
                "--hierarchy",
                spec,
                "--json",
            ]
        )
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert [entry["level"] for entry in body["levels"]] == [0, 1]
        assert "remedies" in body

    @pytest.mark.parametrize(
        "spec",
        [
            '{"size": [[0, 0, 7]]}',
            '{"size": 7}',
            '{"size": [5]}',
            '{"size": [null]}',
            '{"size": [{"labels": ["x"]}]}',
        ],
        ids=["sparse-codes", "chain-int", "level-int", "level-null", "no-groups"],
    )
    def test_bad_spec_returns_2(self, hierarchy_setup, tmp_path, capsys, spec):
        path, _spec = hierarchy_setup
        bad = tmp_path / "bad.json"
        bad.write_text(spec)
        code = main(
            ["hierarchy", path, "--threshold", "5", "--hierarchy", str(bad)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_attribute_in_spec_returns_2(
        self, hierarchy_setup, tmp_path, capsys
    ):
        path, _spec = hierarchy_setup
        bad = tmp_path / "unknown.json"
        bad.write_text('{"nope": [[0, 0]]}')
        code = main(
            ["hierarchy", path, "--threshold", "5", "--hierarchy", str(bad)]
        )
        assert code == 2


class TestBucketSweepCommand:
    def test_prints_sweep_table(self, numeric_csv, capsys):
        code = main(
            [
                "bucketsweep",
                numeric_csv,
                "--column",
                "price",
                "--buckets",
                "2",
                "4",
                "8",
                "--threshold",
                "4",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "buckets" in output

    def test_json_output(self, numeric_csv, capsys):
        import json

        code = main(
            [
                "bucketsweep",
                numeric_csv,
                "--column",
                "price",
                "--buckets",
                "2",
                "4",
                "--threshold",
                "4",
                "--json",
            ]
        )
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert [point["buckets"] for point in body["points"]] == [2, 4]

    def test_missing_column_returns_2(self, numeric_csv, capsys):
        code = main(
            [
                "bucketsweep",
                numeric_csv,
                "--column",
                "weight",
                "--buckets",
                "2",
                "--threshold",
                "4",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_nesting_buckets_return_2(self, numeric_csv, capsys):
        code = main(
            [
                "bucketsweep",
                numeric_csv,
                "--column",
                "price",
                "--buckets",
                "2",
                "3",
                "--threshold",
                "4",
            ]
        )
        assert code == 2
        assert "nest" in capsys.readouterr().err
