"""End-to-end tests for the command-line interface."""

import csv

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.cli import build_parser, main
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
            (["identify"], "a,b\n" + "1" * 131_073 + ",0\n", 2),
            (["identify"], "a,b\n0,1\nx,1\n", 3),
            (
                ["bucketsweep", "--column", "b", "--buckets", "2"],
                "a,b\n0,1.5\n1,x\n",
                3,
            ),
            (["identify"], "a" * 131_073 + ",b\n0,1\n", 1),
            (
                ["bucketsweep", "--column", "a", "--buckets", "2"],
                "a,b\n0.5,1\n" + "2" * 131_073 + ",0\n",
                3,
            ),
            (["label"], "a,b\n0,1\n1,y\n", 3),
        ],
        ids=[
            "empty",
            "past-int32",
            "empty-numeric",
            "ragged-short",
            "ragged-long",
            "short-numeric",
            "overlong-field",
            "non-integer",
            "non-numeric",
            "overlong-header",
            "overlong-numeric-field",
            "label-non-integer",
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
            # A bad row is named by file and line, not by numpy or csv.
            assert f"{path}, line {line}:" in err

    def test_utf8_bom_is_not_part_of_the_first_name(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffa,b\n0,1\n1,0\n1,1\n", encoding="utf-8")
        argv = ["identify", str(path), "--threshold", "1"]
        assert main([*argv, "--attributes", "a", "b"]) == 0
        assert "maximal uncovered pattern" in capsys.readouterr().out

    def test_utf8_bom_is_not_part_of_the_first_numeric_name(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffa,b\n0.5,1\n1.5,0\n2.5,1\n", encoding="utf-8")
        argv = ["bucketsweep", str(path), "--column", "a", "--buckets", "2"]
        assert main([*argv, "--threshold", "1"]) == 0
        assert "bucketization sweep over 'a'" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


#: Codes, and cells that break a CSV: blanks, non-integers, quotes, a
#: NUL, a value past int32 (rejected on load), and short arbitrary text.
#: No other cell has more than three digits: a code in the millions makes
#: ``identify`` allocate gigabytes, a known unbounded-work defect
#: (ROADMAP.md) this test does not probe.
_CODES = st.integers(min_value=0, max_value=12).map(str)
_ODD_CELLS = st.sampled_from(
    ["", " 1", "-1", "1.5", "x", '"', '"1,2"', "\x00", "3000000000"]
) | st.text(max_size=3)


@st.composite
def csv_texts(draw):
    """CSV text: a header and rows of codes (in a dirty file, of any
    cells), with an optional byte-order mark and either line end."""
    width = draw(st.integers(min_value=1, max_value=4))
    name, cell = st.sampled_from("abcdef"), _CODES
    if draw(st.booleans()):
        name, cell = name | _ODD_CELLS, cell | _ODD_CELLS
    header = draw(st.lists(name, min_size=width, max_size=width, unique=True))
    rows = draw(
        st.lists(
            st.lists(cell, min_size=width, max_size=width),
            min_size=1,
            max_size=8,
        )
    )
    bom = draw(st.sampled_from(["", "\ufeff"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + newline.join(",".join(cells) for cells in [header, *rows])


class TestCsvFuzz:
    def test_identify_on_any_csv_text_exits_0_or_2(self, tmp_path):
        """Fuzz: whatever the CSV text, ``identify`` answers or exits 2
        with an ``error:`` line — it never raises."""
        path = tmp_path / "fuzz.csv"

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(text=csv_texts())
        @example(text="a,b\n" + "1" * 131_073 + ",0\n")
        @example(text="\ufeffa,b\n0,1\n1,0\n")
        def check(text):
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            assert main(["identify", str(path), "--threshold", "1"]) in (0, 2)

        check()


class TestEngineSelection:
    @pytest.mark.parametrize("option", [["--engine", "packed"], ["--explain-plan"]])
    @pytest.mark.parametrize(
        "command", ["identify", "label", "enhance", "hierarchy", "demo", "serve"]
    )
    def test_engine_options_are_usage_errors(
        self, csv_file, command, option, capsys
    ):
        """One engine serves every command: there is nothing to select."""
        argv = {
            "identify": ["identify", csv_file, "--threshold", "5"],
            "label": ["label", csv_file, "--threshold", "5"],
            "enhance": ["enhance", csv_file, "--threshold", "5", "--level", "1"],
            "hierarchy": [
                "hierarchy", csv_file, "--threshold", "5",
                "--hierarchy", "stack.json",
            ],
            "demo": ["demo"],
            "serve": ["serve"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *option])
        assert excinfo.value.code == 2
        assert option[0] in capsys.readouterr().err

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
            ["--engine", "sharded"],
            ["--shards", "2"],
            ["--workers", "2"],
            ["--worker-endpoints", "h1:7000"],
            ["--delta-spill"],
            ["--spill-dir", "spill"],
            ["--max-resident-bytes", "1024"],
            ["worker"],
        ],
        ids=lambda option: "-".join(option).lstrip("-"),
    )
    def test_sharded_options_are_usage_errors(self, csv_file, option, capsys):
        """The sharded engine's flags and the shard-worker command are gone."""
        argv = option
        if option != ["worker"]:
            argv = ["identify", csv_file, "--threshold", "5", *option]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert all(part in err for part in option)

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
