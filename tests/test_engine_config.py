"""EngineConfig: validation, serialization round-trips, resolution.

The config is the single holder of the cross-field rules the CLI used to
hand-roll, so programmatic callers must get the same clear ``EngineError``
for every invalid combination.
"""

import dataclasses

import pytest

from repro.cli import build_parser
from repro.core.engine import (
    AUTO,
    EngineConfig,
    PackedBitsetEngine,
    ShardedEngine,
    engine_name,
    resolve_engine,
)
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError


@pytest.fixture
def dataset():
    return random_categorical_dataset(40, (2, 3, 2), seed=5, skew=1.0)


class TestValidation:
    """Every invalid combination raises a clear EngineError."""

    @pytest.mark.parametrize("backend", ["packed"])
    @pytest.mark.parametrize(
        "options",
        [
            {"shards": 2},
            {"workers": 2},
            {"spill_dir": "/tmp/x"},
            {"max_resident_bytes": 1024},
            {"worker_endpoints": ("h1:7000",)},
            {"delta_spill": True},
        ],
    )
    def test_sharded_only_options_rejected_elsewhere(self, backend, options):
        with pytest.raises(EngineError, match="--engine sharded"):
            EngineConfig(backend=backend, **options)

    def test_unknown_backend_rejected(self):
        with pytest.raises(EngineError, match="unknown coverage engine"):
            EngineConfig(backend="roaring")

    def test_dense_backend_is_gone(self):
        with pytest.raises(
            EngineError, match=r"available: \['auto', 'packed', 'sharded'\]"
        ):
            EngineConfig(backend="dense")

    def test_bad_counts_rejected(self):
        with pytest.raises(EngineError, match="shard count"):
            EngineConfig(backend="sharded", shards=0)
        with pytest.raises(EngineError, match="worker count"):
            EngineConfig(backend="sharded", workers=0)
        with pytest.raises(EngineError, match="mask_cache_size"):
            EngineConfig(backend="packed", mask_cache_size=-1)
        with pytest.raises(EngineError, match="max_resident_bytes"):
            EngineConfig(backend=AUTO, max_resident_bytes=0)

    def test_sharded_options_need_no_spill_dir(self):
        # Every sharded engine spills, under the default root when no
        # spill_dir is set, so no option depends on an explicit one.
        for options in (
            {"max_resident_bytes": 1024},
            {"workers": 2},
            {"delta_spill": True},
        ):
            config = EngineConfig(backend="sharded", **options)
            assert "spill_dir" not in config.engine_options()

    def test_valid_out_of_core_combination(self, tmp_path):
        config = EngineConfig(
            backend="sharded",
            shards=3,
            workers=2,
            spill_dir=str(tmp_path),
            max_resident_bytes=1 << 20,
        )
        assert config.engine_options()["spill_dir"] == str(tmp_path)


class TestSerialization:
    def test_dict_round_trip(self, tmp_path):
        config = EngineConfig(
            backend="sharded",
            shards=8,
            workers=2,
            spill_dir=str(tmp_path),
            max_resident_bytes=4096,
            mask_cache_size=0,
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_default_round_trip(self):
        config = EngineConfig()
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(EngineError, match="unknown EngineConfig field"):
            EngineConfig.from_dict({"backend": "packed", "turbo": True})

    def test_from_options_rejects_unknown_options(self):
        with pytest.raises(EngineError, match="unknown engine option"):
            EngineConfig.from_options("packed", turbo=True)

    def test_describe_shows_set_fields_only(self):
        config = EngineConfig(backend="sharded", shards=4)
        assert config.describe() == "backend=sharded shards=4"

    def test_json_serializable(self):
        import json

        config = EngineConfig(backend=AUTO, max_resident_bytes=1 << 20)
        assert json.loads(json.dumps(config.to_dict())) == config.to_dict()



class TestCliArgs:
    def test_cli_args_round_trip(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(
            [
                "identify",
                "data.csv",
                "--threshold",
                "5",
                "--engine",
                "sharded",
                "--shards",
                "6",
                "--workers",
                "2",
                "--spill-dir",
                str(tmp_path),
                "--max-resident-bytes",
                "2048",
            ]
        )
        config = EngineConfig.from_cli_args(args)
        assert config == EngineConfig(
            backend="sharded",
            shards=6,
            workers=2,
            spill_dir=str(tmp_path),
            max_resident_bytes=2048,
        )

    def test_cli_default_is_auto(self):
        parser = build_parser()
        args = parser.parse_args(["identify", "data.csv", "--threshold", "5"])
        config = EngineConfig.from_cli_args(args)
        assert config.is_auto
        assert config == EngineConfig(backend=AUTO)

    def test_cli_invalid_combination_raises_engine_error(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(
            [
                "identify",
                "data.csv",
                "--threshold",
                "5",
                "--engine",
                "packed",
                "--spill-dir",
                str(tmp_path),
            ]
        )
        with pytest.raises(EngineError, match="--engine sharded"):
            EngineConfig.from_cli_args(args)

    def test_partial_namespace_counts_as_unset(self):
        class Namespace:
            engine = "packed"

        assert EngineConfig.from_cli_args(Namespace()) == EngineConfig(
            backend="packed"
        )


class TestResolution:
    def test_config_resolves_to_configured_engine(self, dataset):
        engine = resolve_engine(
            EngineConfig(backend="sharded", shards=2, mask_cache_size=0), dataset
        )
        assert isinstance(engine, ShardedEngine)
        assert engine.requested_shards == 2
        assert engine.mask_cache_size == 0

    def test_none_fields_defer_to_backend_defaults(self, dataset):
        engine = resolve_engine(EngineConfig(backend="sharded"), dataset)
        assert engine.requested_shards == ShardedEngine(dataset).requested_shards

    def test_config_is_a_dataset_free_factory(self, dataset):
        config = EngineConfig(backend="packed", mask_cache_size=3)
        engine = config(dataset)
        assert isinstance(engine, PackedBitsetEngine)
        assert engine.mask_cache_size == 3
        # Overrides replace fields, factory-style.
        assert config(dataset, mask_cache_size=0).mask_cache_size == 0

    def test_engine_name_of_config(self):
        assert engine_name(EngineConfig(backend="sharded")) == "sharded"
        assert engine_name(EngineConfig(backend=AUTO)) == AUTO
        assert engine_name(AUTO) == AUTO

    def test_templates_are_configs_for_registered_backends(self, dataset):
        for engine in (
            PackedBitsetEngine(dataset, mask_cache_size=5),
            ShardedEngine(dataset, shards=2, workers=2),
        ):
            template = engine.template()
            assert isinstance(template, EngineConfig)
            assert template.backend == type(engine).name
            rebuilt = template(dataset)
            assert type(rebuilt) is type(engine)
            assert rebuilt.mask_cache_size == engine.mask_cache_size

    def test_unregistered_subclass_template_falls_back_to_callable(
        self, dataset
    ):
        class Unregistered(PackedBitsetEngine):
            name = "unregistered-test"

        template = Unregistered(dataset).template()
        assert not isinstance(template, EngineConfig)
        assert callable(template)
        assert isinstance(template(dataset), Unregistered)
