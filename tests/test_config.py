from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

from loragate.config import (
    _METHOD_KNOBS,
    ExperimentConfig,
    Method,
    _format_value,
    format_config,
    load_config,
    parse_config_text,
)
from loragate.errors import ConfigError


class TestDefaults:
    def test_paper_mirroring_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.rank == 8
        assert cfg.alpha == 32.0
        assert cfg.bandwidth == 0.001
        assert cfg.start_frac == 0.2
        assert cfg.end_frac == 0.8
        assert cfg.learning_rate == 0.001
        assert cfg.batch_size == 32
        assert cfg.seeds == [42, 43, 44]

    def test_penalty_weight_broadcast(self):
        cfg = ExperimentConfig(method=Method.ELLA, ella_lambda=[10.0], n_tasks=3)
        assert cfg.penalty_weights() == [10.0, 10.0, 10.0]
        cfg = ExperimentConfig(method=Method.ELLA, ella_lambda=[0.0, 1.0, 2.0], n_tasks=3)
        assert cfg.penalty_weights() == [0.0, 1.0, 2.0]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestParsing:
    def test_round_trip(self):
        built = ExperimentConfig(method=Method.JUMP_ELLA,
                                 ella_lambda=[0.0, 30000.0],
                                 n_tasks=2, seeds=[1, 2, 3],
                                 learning_rate=0.0005)
        checked_in = [load_config(path) for path in sorted(CONFIGS.glob("*.txt"))]
        assert checked_in
        for cfg in [built, *checked_in]:
            text = format_config(cfg)
            back = parse_config_text(text)
            assert back == cfg
            assert format_config(back) == text

    @pytest.mark.parametrize("method", list(Method))
    def test_round_trip_per_method(self, method):
        cfg = ExperimentConfig(method=method,
                               ella_lambda=[1.0] if method.penalized else [0.0])
        assert parse_config_text(format_config(cfg)) == cfg

    def test_separable_config_changes_two_fields(self):
        cfg = load_config(CONFIGS / "separable.txt")
        changed = {f.name for f in fields(cfg)
                   if getattr(cfg, f.name) != getattr(ExperimentConfig(), f.name)}
        assert changed == {"samples_per_class", "learning_rate"}
        assert (cfg.samples_per_class, cfg.learning_rate) == (1024, 0.01)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\nrank = 4\n")
        assert cfg.rank == 4

    # a typo, and keys that older versions wrote into config.txt
    @pytest.mark.parametrize("key", ["learning_rte", "ella_scale_past", "weight_decay",
                                     "max_seq_len", "gate_scope", "ella_variant"])
    def test_unknown_key_is_hard_error(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(f"{key} = 0.001\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("rank = 4\nrank = 8\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("rank 4\n")

    def test_typed_values(self):
        cfg = parse_config_text(
            "method = jump-ella\nella_lambda = 0,1e4,1e5\nn_tasks = 3\n"
            "seeds = 1,2\n"
        )
        assert cfg.method is Method.JUMP_ELLA
        assert cfg.ella_lambda == [0.0, 1e4, 1e5]
        assert cfg.seeds == [1, 2]

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("method = dropout\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config_text("rank = eight\n")


class TestValidation:
    def test_nonzero_lambda_requires_ella(self):
        with pytest.raises(ConfigError, match="ella_lambda only applies to ELLA methods"):
            parse_config_text("method = jump-inclora\nella_lambda = 100\n")

    @pytest.mark.parametrize("method", list(Method))
    def test_zero_lambda_rejected_under_every_method(self, method):
        # an unpenalised method does not read it; a penalised one would not bite
        with pytest.raises(ConfigError, match="ella_lambda"):
            parse_config_text(f"method = {method.value}\nella_lambda = 0\n")

    # no λ, and a λ only at position 0, which has no past
    @pytest.mark.parametrize("lam", ["", "ella_lambda = 1,0,0,0\n"])
    def test_ella_method_needs_lambda_past_position_zero(self, lam):
        with pytest.raises(ConfigError, match="ella needs ella_lambda > 0"):
            parse_config_text(f"method = ella\n{lam}")

    def test_lambda_length_must_match_tasks(self):
        with pytest.raises(ConfigError, match="ella_lambda"):
            parse_config_text("method = ella\nn_tasks = 3\nella_lambda = 0,1\n")

    def test_nonpositive_alpha_rejected(self):
        for alpha in ("0", "-8"):
            with pytest.raises(ConfigError, match="alpha"):
                parse_config_text(f"alpha = {alpha}\n")

    def test_fraction_ordering(self):
        with pytest.raises(ConfigError):
            parse_config_text("start_frac = 0.9\nend_frac = 0.5\n")

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            parse_config_text("d_model = 50\nn_heads = 4\n")

    @pytest.mark.parametrize("method", list(Method))
    def test_method_grid_dump_and_checks_agree(self, method):
        # a knob is dumped exactly when writing it explicitly is accepted: the
        # dump parses, and adding any knob it left out is rejected
        cfg = ExperimentConfig(method=method, ella_lambda=[1.0])
        text = format_config(cfg)
        parse_config_text(text)
        for name, (applies, methods) in _METHOD_KNOBS.items():
            line = f"{name} = {_format_value(getattr(cfg, name))}"
            assert (line in text.splitlines()) == applies(method)
            if not applies(method):
                with pytest.raises(ConfigError) as err:
                    parse_config_text(text + line + "\n")
                assert str(err.value) == f"{name} only applies to {methods}, got {method.value}"

    # the rules that the gate, the ramp, the penalty and the run rely on
    # without re-checking: a positive bandwidth, ordered fractions in [0, 1],
    # a nonnegative weight, a positive batch (so an epoch has a step), seeds
    # that numpy's SeedSequence takes, and as many orders as the tasks have
    @pytest.mark.parametrize("key, value, match", [
        ("bandwidth", 0.0, "bandwidth must be positive"),
        ("bandwidth", -1.0, "bandwidth must be positive"),
        ("start_frac", -0.1, "fractions must satisfy"),
        ("end_frac", 1.1, "fractions must satisfy"),
        ("ella_lambda", [-1.0], "ella_lambda values must be nonnegative"),
        ("batch_size", 0, "batch_size >= 1"),
        ("data_seed", -1, "data_seed must be >= 0"),
        ("seeds", [-5], r"seeds must be >= 0, got \[-5\]"),
        ("n_orders", 0, r"n_orders must lie in \[1, 4!\], got 0"),
        ("n_orders", 25, r"n_orders must lie in \[1, 4!\], got 25"),  # past 4! = 24
    ])
    def test_rule_holds_in_code_and_in_text(self, key, value, match):
        method = Method.ELLA if key == "ella_lambda" else Method.JUMP_INCLORA
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(method=method, **{key: value})
        with pytest.raises(ConfigError, match=match):
            parse_config_text(f"method = {method.value}\n{key} = {_format_value(value)}\n")

    def test_ella_built_in_code_needs_lambda(self):
        with pytest.raises(ConfigError, match="ella needs ella_lambda > 0"):
            ExperimentConfig(method=Method.ELLA)

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError, match="bandwidth must be positive"):
            replace(ExperimentConfig(), bandwidth=0.0)

    def test_config_is_frozen(self):
        cfg = ExperimentConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.rank = 4
