import pytest

from loragate.adapter import GateScope
from loragate.config import (
    ExperimentConfig,
    Method,
    format_config,
    parse_config_text,
)
from loragate.ella import EllaVariant
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


class TestParsing:
    def test_round_trip(self):
        cfg = ExperimentConfig(method=Method.JUMP_ELLA,
                               ella_lambda=[0.0, 30000.0],
                               ella_variant=EllaVariant.INTERPOLATED,
                               gate_scope=GateScope.PER_BLOCK,
                               n_tasks=2, seeds=[1, 2, 3],
                               learning_rate=0.0005)
        text = format_config(cfg)
        back = parse_config_text(text)
        assert back == cfg
        assert format_config(back) == text

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\nrank = 4\n")
        assert cfg.rank == 4

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("learning_rte = 0.001\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("rank = 4\nrank = 8\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("rank 4\n")

    def test_typed_values(self):
        cfg = parse_config_text(
            "method = jump-ella\nella_lambda = 0,1e4,1e5\nn_tasks = 3\n"
            "ella_scale_past = true\nseeds = 1,2\n"
        )
        assert cfg.method is Method.JUMP_ELLA
        assert cfg.ella_lambda == [0.0, 1e4, 1e5]
        assert cfg.ella_scale_past is True
        assert cfg.seeds == [1, 2]

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError):
            parse_config_text("method = dropout\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError):
            parse_config_text("rank = eight\n")


class TestValidation:
    def test_variant_requires_jump_ella(self):
        with pytest.raises(ConfigError, match="ella_variant"):
            parse_config_text("method = inclora\nella_variant = sparse\n")

    def test_scope_requires_gated_method(self):
        with pytest.raises(ConfigError, match="gate_scope"):
            parse_config_text("method = ella\ngate_scope = global\nella_lambda = 1\n")

    def test_nonzero_lambda_requires_ella(self):
        with pytest.raises(ConfigError, match="ella_lambda"):
            parse_config_text("method = jump-inclora\nella_lambda = 100\n")

    def test_zero_lambda_fine_for_any_method(self):
        cfg = parse_config_text("method = inclora\nella_lambda = 0\n")
        assert cfg.method is Method.INCLORA

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

    def test_seq_len_within_model_window(self):
        with pytest.raises(ConfigError):
            parse_config_text("seq_len = 40\nmax_seq_len = 32\n")

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            parse_config_text("d_model = 50\nn_heads = 4\n")

    @pytest.mark.parametrize("method", list(Method))
    def test_method_grid_dump_and_checks_agree(self, method):
        # a knob is dumped exactly when writing it explicitly is accepted
        knobs = {
            "ella_variant = sparse": "ella_variant only applies to method jump-ella",
            "gate_scope = global": "gate_scope only applies to gated methods",
            "ella_scale_past = false": "ella_scale_past only applies to ELLA methods",
        }
        dumped = format_config(ExperimentConfig(method=method)).splitlines()
        for line, message in knobs.items():
            text = f"method = {method.value}\n{line}\n"
            if line in dumped:
                parse_config_text(text)
            else:
                with pytest.raises(ConfigError) as err:
                    parse_config_text(text)
                assert str(err.value) == f"{message}, got {method.value}"

    def test_variant_on_jump_ella_accepted(self):
        cfg = parse_config_text(
            "method = jump-ella\nella_variant = interpolated\nella_lambda = 1000\n"
        )
        assert cfg.ella_variant is EllaVariant.INTERPOLATED
