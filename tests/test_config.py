import pytest

from treeconv.config import (
    TrainConfig,
    config_from_dict,
    config_to_dict,
    load_config_file,
    make_train_config,
    question_regime,
    sentiment_regime,
)
from treeconv.errors import ConfigError


class TestRegimes:
    def test_sentiment_dependency_settings(self):
        cfg = sentiment_regime("d")
        assert cfg.n_c == 300
        assert cfg.n_h == 200
        assert cfg.batch_size == 200
        assert cfg.l2 == 1e-5
        assert cfg.dropout_hidden == 0.5
        assert cfg.dropout_embed == 0.4
        assert cfg.resolved_pooling() == "kslot" and cfg.k == 2
        assert cfg.train_embeddings

    def test_sentiment_constituency_settings(self):
        cfg = sentiment_regime("c")
        assert cfg.resolved_pooling() == "3slot"
        assert cfg.alpha == 0.6
        assert not cfg.train_embeddings  # node vectors stay frozen

    def test_question_classification_settings(self):
        cfg = question_regime("d")
        assert (cfg.n_c, cfg.n_h) == (30, 25)
        assert cfg.dropout_embed == 0.3
        assert cfg.dropout_hidden == 0.05
        assert not cfg.train_embeddings
        assert cfg.classes == 6


class TestValidation:
    def test_pooling_variant_pairing_enforced(self):
        with pytest.raises(ConfigError):
            TrainConfig(variant="d", n_e=4, n_c=4, n_h=4, classes=2,
                        pooling="3slot").validate()
        with pytest.raises(ConfigError):
            TrainConfig(variant="c", n_e=4, n_c=4, n_h=4, classes=2,
                        pooling="kslot").validate()

    def test_default_pooling_follows_variant(self):
        c = TrainConfig(variant="c", n_e=4, n_c=4, n_h=4, classes=2)
        d = TrainConfig(variant="d", n_e=4, n_c=4, n_h=4, classes=2)
        assert c.resolved_pooling() == "3slot"
        assert d.resolved_pooling() == "kslot"

    def test_bad_rates_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(variant="d", n_e=4, n_c=4, n_h=4, classes=2,
                        dropout_hidden=1.0).validate()

    def test_round_trips_through_dict(self):
        cfg = sentiment_regime("d")
        assert config_from_dict(config_to_dict(cfg)) == cfg


class TestConfigFile:
    def test_values_load(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(
            "[model]\nvariant = d\nn_e = 8\nn_c = 8\nn_h = 4\nclasses = 2\n"
            "[training]\nseed = 5\nlearning_rate = 0.25\n"
            "[pooling]\npooling = kslot\nk = 3\n"
        )
        cfg = make_train_config(load_config_file(path))
        assert cfg.seed == 5
        assert cfg.k == 3
        assert cfg.learning_rate == 0.25

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("[model]\nvariant = d\nn_x = 3\n")
        with pytest.raises(ConfigError, match="n_x"):
            load_config_file(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config_file(path)

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError, match="missing"):
            make_train_config({"variant": "d"})

    def test_shipped_configs_parse(self):
        from pathlib import Path
        configs = Path(__file__).parent.parent / "configs"
        for name in ("sentiment_d.cfg", "sentiment_c.cfg", "qc_d.cfg"):
            cfg = make_train_config(load_config_file(configs / name))
            assert cfg.n_e == 300
