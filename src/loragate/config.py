"""Flat key = value experiment configuration with a strict schema.

Each value is an int, a float, a string, an enum value, or a comma-separated
list of one of these. Unknown keys are hard errors: silent hyperparameter
typos are the dominant reproduction hazard, and a key that an older version
wrote must fail loudly rather than be ignored. ``parse_config_text`` and
``format_config`` round-trip exactly.

A config is validated when made (parsed, built in code or through
``dataclasses.replace``) and frozen, so nothing downstream re-checks it. Only
text is held to the method grid: a knob that only some methods read
(``_METHOD_KNOBS``) is rejected when written under another method. An object
cannot tell a written default from an unwritten one; ``format_config`` omits
the knobs its method does not read. The gated methods read the gate's
``bandwidth`` and the ramp's ``start_frac`` and ``end_frac``; the ELLA methods
read ``ella_lambda``. A gated task has one gate over every adapted layer, so
the gate's scope is no knob, and neither is the update the penalty reads.

``ella_lambda`` holds one penalty weight, or one per stream position (not per
task id); position 0 has no past, so its weight is never read. An ELLA method
with no positive weight after it would train its unpenalised twin bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import vocab_band_width
from .errors import ConfigError


class Method(enum.Enum):
    INCLORA = "inclora"
    JUMP_INCLORA = "jump-inclora"
    ELLA = "ella"
    JUMP_ELLA = "jump-ella"

    @property
    def gated(self) -> bool:
        return self in (Method.JUMP_INCLORA, Method.JUMP_ELLA)

    @property
    def penalized(self) -> bool:
        return self in (Method.ELLA, Method.JUMP_ELLA)


@dataclass(frozen=True)
class ExperimentConfig:
    # model shape
    vocab_size: int = 64
    d_model: int = 64
    n_heads: int = 4
    n_blocks: int = 4
    # stream
    n_tasks: int = 4
    classes_per_task: int = 3
    samples_per_class: int = 256
    seq_len: int = 16
    difficulty: float = 0.25
    data_seed: int = 7
    # method
    method: Method = Method.JUMP_INCLORA
    ella_lambda: list[float] = field(default_factory=lambda: [0.0])
    # adapters
    rank: int = 8
    alpha: float = 32.0
    bandwidth: float = 0.001
    # interpolation ramp
    start_frac: float = 0.2
    end_frac: float = 0.8
    # training
    learning_rate: float = 0.001
    batch_size: int = 32
    warmup_steps: int = 10
    seeds: list[int] = field(default_factory=lambda: [42, 43, 44])
    n_orders: int = 1
    # output
    output_dir: str = "runs/default"

    def __post_init__(self):
        validate_config(self)

    def penalty_weights(self) -> list[float]:
        """The penalty weight of each stream position (a single value is
        broadcast to all); position 0's is never read, as it has no past."""
        lam = self.ella_lambda
        if len(lam) == 1:
            return [lam[0]] * self.n_tasks
        return list(lam)


def _parse_value(name: str, text: str, default):
    """``text`` parsed as the kind of ``default``: a list parses as
    comma-separated items of its first item's type."""
    text = text.strip()
    try:
        if isinstance(default, list):
            items = [s.strip() for s in text.split(",") if s.strip()]
            if not items:
                raise ValueError("empty list")
            return [type(default[0])(s) for s in items]
        return type(default)(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {exc}") from exc


def _format_value(value) -> str:
    if isinstance(value, list):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_text(text: str) -> ExperimentConfig:
    defaults = vars(ExperimentConfig())
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, value, defaults[key])
    cfg = ExperimentConfig(**values)
    # the method grid, on the written keys only (see the module docstring)
    for name, (applies, methods) in _METHOD_KNOBS.items():
        if name in values and not applies(cfg.method):
            raise ConfigError(f"{name} only applies to {methods}, got {cfg.method.value}")
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


# the method grid: each knob that only some methods read, which methods those
# are, and how the error for a knob set under another method names them
_METHOD_KNOBS = {
    "ella_lambda": (lambda m: m.penalized, "ELLA methods"),
    "bandwidth": (lambda m: m.gated, "gated methods"),
    "start_frac": (lambda m: m.gated, "gated methods"),
    "end_frac": (lambda m: m.gated, "gated methods"),
}


def _applicable_fields(cfg: ExperimentConfig) -> list[str]:
    return [f.name for f in fields(ExperimentConfig)
            if f.name not in _METHOD_KNOBS or _METHOD_KNOBS[f.name][0](cfg.method)]


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical dump; knobs inert for the chosen method are omitted so the
    text re-parses cleanly under the method-grid validation."""
    lines = [f"{name} = {_format_value(getattr(cfg, name))}"
             for name in _applicable_fields(cfg)]
    return "\n".join(lines) + "\n"


def validate_config(cfg: ExperimentConfig) -> None:
    """Reject inconsistent settings; every config runs this when it is made."""
    for name in ("vocab_size", "d_model", "n_heads", "n_blocks", "n_tasks",
                 "classes_per_task", "samples_per_class"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if cfg.seq_len < 2:
        raise ConfigError(f"seq_len must be >= 2, got {cfg.seq_len}")
    vocab_band_width(cfg.vocab_size, cfg.n_tasks, cfg.classes_per_task)
    if cfg.d_model % cfg.n_heads != 0:
        raise ConfigError(f"d_model {cfg.d_model} not divisible by n_heads {cfg.n_heads}")
    if cfg.bandwidth <= 0:
        raise ConfigError(f"bandwidth must be positive, got {cfg.bandwidth}")
    if not (0.0 <= cfg.start_frac <= cfg.end_frac <= 1.0):
        raise ConfigError(
            f"fractions must satisfy 0 <= start <= end <= 1, got "
            f"({cfg.start_frac}, {cfg.end_frac})"
        )
    if cfg.rank < 1 or cfg.alpha <= 0:
        raise ConfigError("rank must be >= 1 and alpha positive")
    if cfg.learning_rate <= 0 or cfg.batch_size < 1 or cfg.warmup_steps < 0:
        raise ConfigError("learning_rate > 0, batch_size >= 1, warmup_steps >= 0 required")
    if not cfg.seeds:
        raise ConfigError("at least one seed is required")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigError(f"seeds must be distinct, got {cfg.seeds}")
    # seeds feed numpy's SeedSequence, which takes no negative entropy
    if min(cfg.seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {cfg.seeds}")
    if cfg.data_seed < 0:
        raise ConfigError(f"data_seed must be >= 0, got {cfg.data_seed}")
    if not 1 <= cfg.n_orders <= math.factorial(cfg.n_tasks):
        raise ConfigError(f"n_orders must lie in [1, {cfg.n_tasks}!], got {cfg.n_orders}")
    if not (0.0 <= cfg.difficulty <= 1.0):
        raise ConfigError(f"difficulty must lie in [0, 1], got {cfg.difficulty}")
    if any(w < 0 for w in cfg.ella_lambda):
        raise ConfigError("ella_lambda values must be nonnegative")
    if len(cfg.ella_lambda) not in (1, cfg.n_tasks):
        raise ConfigError(
            f"ella_lambda needs 1 value or one per stream position "
            f"(n_tasks={cfg.n_tasks}), got {len(cfg.ella_lambda)}"
        )
    if cfg.method.penalized and not any(cfg.penalty_weights()[1:]):
        raise ConfigError(f"{cfg.method.value} needs ella_lambda > 0 at a stream "
                          f"position past 0, got {_format_value(cfg.ella_lambda)}")
