import dataclasses
import re

import numpy as np
import pytest

from tima.config import SCHEMA, parse_config, parse_fraction
from tima.errors import ConfigRangeError, ConfigTypeError, UnknownKey


class TestParseFraction:
    def test_integer_fraction(self):
        assert parse_fraction("1/255") == 1 / 255
        assert parse_fraction("4/255") == 4 / 255

    def test_plain_decimal(self):
        assert parse_fraction("0.05") == 0.05
        assert parse_fraction("0") == 0.0


class TestDefaults:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert cfg["tau"] == 0.01
        assert cfg["m"] == 0.1
        assert cfg["eta"] == 0.95
        assert cfg["momentum"] == 0.9
        assert cfg["train_eps"] == 1 / 255
        assert cfg["train_steps"] == 2
        assert cfg["train_restarts"] == 0
        assert cfg["alpha"] == 2
        assert cfg["variant"] == "tima"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\n  m = 0.2  # trailing\n")
        assert cfg["m"] == 0.2

    def test_duplicate_key_last_wins(self):
        cfg = parse_config("m = 0.2\nm = 0.3\n")
        assert cfg["m"] == 0.3

    def test_paper_margin_values_accepted(self):
        cfg = parse_config("m = 0.1\neta = 0.95\nlambda = 1\nlambda_t = 1\nlambda_v = 1\n")
        w = cfg.loss_weights()
        assert (w.m, w.eta, w.lam, w.lam_t, w.lam_v) == (0.1, 0.95, 1.0, 1.0, 1.0)


class TestErrors:
    def test_eta_out_of_range(self):
        with pytest.raises(ConfigRangeError, match="line 1"):
            parse_config("eta = 1.5")

    def test_unknown_key(self):
        with pytest.raises(UnknownKey, match="line 2"):
            parse_config("m = 0.1\nbogus_key = 3\n")

    def test_type_error_with_line(self):
        with pytest.raises(ConfigTypeError, match="line 1"):
            parse_config("train_count = many")

    def test_missing_equals(self):
        with pytest.raises(ConfigTypeError, match="line 1"):
            parse_config("just some words")

    def test_alpha_fixed(self):
        with pytest.raises(ConfigRangeError):
            parse_config("alpha = 3")

    def test_variant_enum(self):
        with pytest.raises(ConfigRangeError):
            parse_config("variant = sota")

    def test_bad_bool(self):
        with pytest.raises(ConfigTypeError):
            parse_config("freeze_text = maybe")

    def test_negative_eps(self):
        with pytest.raises(ConfigRangeError):
            parse_config("train_eps = -1/255")

    def test_bad_fraction_in_list(self):
        # a list's fraction fails to parse as a lone train_eps = zzz/255 does
        with pytest.raises(ConfigTypeError, match="line 1"):
            parse_config("eval_eps_list = 0,zzz/255")

    def test_zero_denominator_in_list(self):
        with pytest.raises(ConfigTypeError, match="line 1: key 'sweep_eps'"):
            parse_config("sweep_eps = 1/0")

    def test_negative_fraction_in_list(self):
        with pytest.raises(ConfigRangeError, match="line 1: key 'sweep_eps'"):
            parse_config("sweep_eps = 1/255,-1/255")

    def test_seed_a_checkpoint_cannot_store(self):
        assert parse_config(f"seed = {2 ** 64 - 1}")["seed"] == 2 ** 64 - 1
        with pytest.raises(ConfigRangeError, match="line 1: key 'seed'"):
            parse_config(f"seed = {2 ** 64}")

    @pytest.mark.parametrize("seed", [2 ** 64, -1])
    def test_with_seed_checks_the_seed(self, seed):
        # as the config file's seed key is checked, not at the first stage that stores it
        with pytest.raises(ConfigRangeError, match=re.escape(f"seed must lie in [0, 2**64) "
                                                             f"(got {seed})")):
            parse_config("").with_seed(seed)
        assert parse_config("").with_seed(2 ** 64 - 1)["seed"] == 2 ** 64 - 1

    @pytest.mark.parametrize("seed", [True, 1.5, 3.0, "3", None])
    def test_with_seed_checks_the_seed_type(self, seed):
        # as the config file's int parser would, before the echo or a builder reads it
        with pytest.raises(ConfigTypeError, match=re.escape(f"seed must be an integer "
                                                            f"(got {seed!r})")):
            parse_config("").with_seed(seed)
        assert parse_config("").with_seed(np.uint64(7))["seed"] == 7

    @pytest.mark.parametrize("key", [k for k, (kind, _, _) in SCHEMA.items()
                                     if kind in ("float", "frac", "float_list", "frac_list")])
    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_rejected(self, key, bad):
        kind, default, _ = SCHEMA[key]
        value = f"{default},{bad}" if kind.endswith("_list") else bad
        with pytest.raises(ConfigRangeError, match=re.escape(f"line 2: key {key!r}")):
            parse_config(f"seed = 1\n{key} = {value}\n")

    def test_fraction_too_large_for_a_float(self):
        with pytest.raises(ConfigTypeError, match="line 1"):
            parse_config("train_eps = 1" + "0" * 400 + "/1")


class TestBuilders:
    def test_synthetic_spec(self):
        cfg = parse_config("num_superclasses = 3\nsubclasses_per_superclass = 3\nseed = 5\n")
        spec = cfg.synthetic_spec()
        assert spec.num_classes == 9
        assert spec.seed == 5

    def test_encoder_config(self):
        cfg = parse_config("image_side = 8\nembed_dim = 16\nhidden_dims = 32,16\n")
        ec = cfg.encoder_config()
        assert ec.input_dim == 64
        assert ec.hidden_dims == (32, 16)
        assert ec.embed_dim == 16

    def test_empty_hidden_dims(self):
        cfg = parse_config("hidden_dims =\n")
        assert cfg.encoder_config().hidden_dims == ()

    def test_train_attack(self):
        cfg = parse_config("train_eps = 2/255\ntrain_steps = 3\nattack_text_source = teacher\n")
        atk = cfg.train_attack()
        assert atk.eps == 2 / 255
        assert atk.steps == 3
        assert atk.text_source == "teacher"

    def test_eval_eps_preserves_text(self):
        cfg = parse_config("eval_eps_list = 0,1/255,4/255,8/255\n")
        eps = cfg.eval_eps()
        assert [t for t, _ in eps] == ["0", "1/255", "4/255", "8/255"]
        assert eps[2][1] == 4 / 255
        assert eps is cfg["eval_eps_list"]  # the pairs parse_config stored
        assert cfg.echo()["eval_eps_list"] == "0,1/255,4/255,8/255"

    def test_with_seed_updates_echo(self):
        cfg = parse_config("seed = 3\n").with_seed(9)
        assert cfg["seed"] == 9
        assert cfg.echo()["seed"] == "9"

    def test_echo_covers_schema(self):
        from tima.config import SCHEMA
        echo = parse_config("").echo()
        assert set(echo) == set(SCHEMA)

    def test_train_configs(self):
        cfg = parse_config("pretrain_epochs = 7\nfinetune_epochs = 9\nvariant = tecoa\n")
        assert cfg.pretrain_config().epochs == 7
        # the variant is resolved here: tecoa drops the margin and both
        # distillation weights, freezes the text and attacks the teacher's
        ft = cfg.finetune_config()
        assert ft.epochs == 9
        w = cfg.loss_weights()
        assert ft.loss_weights == dataclasses.replace(w, m=0.0, lam=0.0, lam_v=0.0)
        assert ft.freeze_text
        assert ft.train_attack == dataclasses.replace(cfg.train_attack(), text_source="teacher")
        tima = cfg.finetune_config(variant="tima")
        assert (tima.loss_weights, tima.freeze_text, tima.train_attack) == \
            (w, False, cfg.train_attack())
