"""EngineConfig: validation, serialization round-trips, resolution.

The config is the single holder of the engine rules, so programmatic
callers must get the same clear ``EngineError`` as ``--engine`` users.
"""

import dataclasses

import pytest

from repro.cli import build_parser
from repro.core.engine import (
    AUTO,
    EngineConfig,
    PackedBitsetEngine,
    engine_name,
    resolve_engine,
)
from repro.data.synthetic import random_categorical_dataset
from repro.exceptions import EngineError


@pytest.fixture
def dataset():
    return random_categorical_dataset(40, (2, 3, 2), seed=5, skew=1.0)


class TestValidation:
    """Every invalid configuration raises a clear EngineError."""

    def test_sharded_backend_is_gone(self):
        with pytest.raises(
            EngineError, match=r"available: \['auto', 'packed'\]"
        ):
            EngineConfig(backend="sharded")

    @pytest.mark.parametrize(
        "field",
        [
            "shards",
            "workers",
            "spill_dir",
            "max_resident_bytes",
            "worker_endpoints",
            "delta_spill",
        ],
    )
    def test_sharded_fields_are_gone(self, field):
        with pytest.raises(EngineError, match="unknown EngineConfig field"):
            EngineConfig.from_dict({"backend": "auto", field: 2})

    def test_unknown_backend_rejected(self):
        with pytest.raises(EngineError, match="unknown coverage engine"):
            EngineConfig(backend="roaring")

    def test_dense_backend_is_gone(self):
        with pytest.raises(
            EngineError, match=r"available: \['auto', 'packed'\]"
        ):
            EngineConfig(backend="dense")

    def test_bad_counts_rejected(self):
        with pytest.raises(EngineError, match="mask_cache_size"):
            EngineConfig(backend="packed", mask_cache_size=-1)
        with pytest.raises(EngineError, match="mask_cache_size"):
            EngineConfig(backend=AUTO, mask_cache_size=-1)


class TestSerialization:
    def test_dict_round_trip(self):
        config = EngineConfig(backend="packed", mask_cache_size=0)
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
        config = EngineConfig(backend="packed", mask_cache_size=4)
        assert config.describe() == "backend=packed mask_cache_size=4"
        assert EngineConfig(backend=AUTO).describe() == "backend=auto"

    def test_json_serializable(self):
        import json

        config = EngineConfig(backend=AUTO, mask_cache_size=8)
        assert json.loads(json.dumps(config.to_dict())) == config.to_dict()



class TestCliArgs:
    def test_cli_args_round_trip(self):
        parser = build_parser()
        args = parser.parse_args(
            ["identify", "data.csv", "--threshold", "5", "--engine", "packed"]
        )
        config = EngineConfig.from_cli_args(args)
        assert config == EngineConfig(backend="packed")

    def test_cli_default_is_auto(self):
        parser = build_parser()
        args = parser.parse_args(["identify", "data.csv", "--threshold", "5"])
        config = EngineConfig.from_cli_args(args)
        assert config.is_auto
        assert config == EngineConfig(backend=AUTO)

    def test_partial_namespace_counts_as_unset(self):
        class Namespace:
            engine = "packed"

        assert EngineConfig.from_cli_args(Namespace()) == EngineConfig(
            backend="packed"
        )


class TestResolution:
    def test_config_resolves_to_configured_engine(self, dataset):
        engine = resolve_engine(
            EngineConfig(backend="packed", mask_cache_size=0), dataset
        )
        assert isinstance(engine, PackedBitsetEngine)
        assert engine.mask_cache_size == 0

    def test_none_fields_defer_to_backend_defaults(self, dataset):
        engine = resolve_engine(EngineConfig(backend="packed"), dataset)
        assert engine.mask_cache_size == PackedBitsetEngine(dataset).mask_cache_size

    def test_config_is_a_dataset_free_factory(self, dataset):
        config = EngineConfig(backend="packed", mask_cache_size=3)
        engine = config(dataset)
        assert isinstance(engine, PackedBitsetEngine)
        assert engine.mask_cache_size == 3
        # Overrides replace fields, factory-style.
        assert config(dataset, mask_cache_size=0).mask_cache_size == 0

    def test_engine_name_of_config(self):
        assert engine_name(EngineConfig(backend="packed")) == "packed"
        assert engine_name(EngineConfig(backend=AUTO)) == AUTO
        assert engine_name(AUTO) == AUTO

    def test_templates_are_configs_for_registered_backends(self, dataset):
        engine = PackedBitsetEngine(dataset, mask_cache_size=5)
        template = engine.template()
        assert isinstance(template, EngineConfig)
        assert template.backend == "packed"
        rebuilt = template(dataset)
        assert type(rebuilt) is PackedBitsetEngine
        assert rebuilt.mask_cache_size == 5

    def test_unregistered_subclass_template_falls_back_to_callable(
        self, dataset
    ):
        class Unregistered(PackedBitsetEngine):
            name = "unregistered-test"

        template = Unregistered(dataset).template()
        assert not isinstance(template, EngineConfig)
        assert callable(template)
        assert isinstance(template(dataset), Unregistered)
