"""`key = value` run configuration with a strict documented schema.

Unknown keys are rejected, every value is type- and range-checked (every
real number must be finite) with the offending line number in the error, and
epsilons are written as integer fractions (e.g. ``1/255``) to match pixel
granularity without decimal drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .attacks import AttackConfig, TEXT_SOURCES
from .data import SyntheticSpec
from .errors import ConfigRangeError, ConfigTypeError, UnknownKey
from .files import read_file
from .harness import VARIANTS, TrainConfig, resolve_variant
from .losses import MARGIN_SIGN_LITERAL, MARGIN_SIGN_NEGATE, LossWeights
from .model import _SEED_LIMIT, EncoderConfig


def parse_fraction(text: str) -> float:
    """Parse '4/255' or a plain decimal into a float."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return int(num.strip()) / int(den.strip())
    return float(text)


def _parse_int(text: str) -> int:
    return int(text.strip(), 10)

def _parse_float(text: str) -> float:
    return float(text.strip())

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true/false, got {text!r}")

def _parse_str(text: str) -> str:
    return text.strip()

def _split_list(text: str) -> List[str]:
    text = text.strip()
    return [] if not text else [part.strip() for part in text.split(",")]


_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "frac": parse_fraction,
    "bool": _parse_bool,
    "str": _parse_str,
    "int_list": lambda t: tuple(_parse_int(p) for p in _split_list(t)),
    "float_list": lambda t: tuple(_parse_float(p) for p in _split_list(t)),
    # (text, value) pairs: the texts stay verbatim, as the keys of every report
    "frac_list": lambda t: tuple((p, parse_fraction(p)) for p in _split_list(t)),
}

# checks receive the parsed value and return an error string or None
_unit_open = lambda v: None if 0.0 < v < 1.0 else "must lie in (0, 1)"
_nonneg = lambda v: None if v >= 0 else "must be >= 0"
_positive = lambda v: None if v > 0 else "must be positive"
_at_least_1 = lambda v: None if v >= 1 else "must be >= 1"
_nonneg_fracs = lambda v: None if all(x >= 0 for _, x in v) else "fractions must be >= 0"


def _finite(kind: str, value) -> str | None:
    """The problem with a float-valued key holding inf or NaN, or None."""
    if kind in ("float", "frac"):
        value = (value,)
    elif kind == "frac_list":
        value = [v for _, v in value]
    elif kind != "float_list":
        return None
    return None if all(math.isfinite(v) for v in value) else "must be finite"


def _choice(options):
    return lambda v: None if v in options else f"must be one of {', '.join(options)}"


# key -> (kind, default text, check)
SCHEMA: Dict[str, Tuple[str, str, object]] = {
    "seed": ("int", "0", lambda v: None if 0 <= v < _SEED_LIMIT else "must lie in [0, 2**64)"),
    # synthetic data
    "num_superclasses": ("int", "4", _at_least_1),
    "subclasses_per_superclass": ("int", "2", _at_least_1),
    "image_side": ("int", "16", _at_least_1),
    "within_super_shift": ("float", "0.04", _nonneg),
    "noise_sigma": ("float", "0.05", _nonneg),
    "train_count": ("int", "2000", _at_least_1),
    "test_count": ("int", "500", _at_least_1),
    # model
    "hidden_dims": ("int_list", "",
                    lambda v: None if all(h >= 1 for h in v) else "dims must be >= 1"),
    "embed_dim": ("int", "32", lambda v: None if v >= 2 else "must be >= 2"),
    # loss weights
    "tau": ("float", "0.01", _positive),
    "m": ("float", "0.1", _nonneg),
    "eta": ("float", "0.95", _unit_open),
    # mhe_loss's kernel exponent: nothing reads it, reports echo it
    "alpha": ("int", "2", lambda v: None if v == 2 else "is fixed at 2"),
    "lambda": ("float", "1.0", _nonneg),
    "lambda_t": ("float", "1.0", _nonneg),
    "lambda_v": ("float", "1.0", _nonneg),
    "margin_sign": ("str", MARGIN_SIGN_LITERAL,
                    _choice((MARGIN_SIGN_LITERAL, MARGIN_SIGN_NEGATE))),
    # training
    "pretrain_lr": ("float", "0.0009", _positive),
    "finetune_lr": ("float", "0.0001", _positive),
    "momentum": ("float", "0.9", lambda v: None if 0.0 <= v < 1.0 else "must lie in [0, 1)"),
    "pretrain_epochs": ("int", "20", _at_least_1),
    "finetune_epochs": ("int", "100", _at_least_1),
    "batch_size": ("int", "128", _at_least_1),
    "variant": ("str", "tima", _choice(VARIANTS)),
    "freeze_text": ("bool", "false", lambda v: None),
    # training attack
    "train_eps": ("frac", "1/255", _nonneg),
    "train_step_size": ("frac", "1/255", _positive),
    "train_steps": ("int", "2", _nonneg),
    "train_restarts": ("int", "0", _nonneg),
    "attack_text_source": ("str", "student", _choice(TEXT_SOURCES)),
    # evaluation attack
    "eval_eps_list": ("frac_list", "0,1/255,4/255,8/255", _nonneg_fracs),
    "eval_steps": ("int", "10", _nonneg),
    "eval_step_size": ("frac", "1/255", _positive),
    "eval_restarts": ("int", "0", _nonneg),
    # sweep grids
    "sweep_m": ("float_list", "0.05,0.1",
                lambda v: None if all(x >= 0 for x in v) else "margins must be >= 0"),
    "sweep_eta": ("float_list", "0.9,0.95",
                  lambda v: None if all(0.0 < x < 1.0 for x in v) else "etas must lie in (0, 1)"),
    "sweep_eps": ("frac_list", "1/255,4/255", _nonneg_fracs),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration: documented defaults plus file overrides."""

    values: Dict[str, object] = field(default_factory=dict)
    texts: Dict[str, str] = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def echo(self) -> Dict[str, str]:
        """Canonical key -> text map for embedding in reports."""
        return {k: self.texts[k] for k in SCHEMA}

    def with_seed(self, seed: int) -> "RunConfig":
        """This config with ``seed``, checked as the config file's ``seed`` is."""
        problem = SCHEMA["seed"][2](seed)
        if problem:
            raise ConfigRangeError(f"seed {problem} (got {seed})")
        values = dict(self.values)
        texts = dict(self.texts)
        values["seed"] = seed
        texts["seed"] = str(seed)
        return RunConfig(values, texts)

    # -- builders for the domain config objects -------------------------------

    def synthetic_spec(self) -> SyntheticSpec:
        v = self.values
        return SyntheticSpec(
            num_superclasses=v["num_superclasses"],
            subclasses_per_superclass=v["subclasses_per_superclass"],
            image_side=v["image_side"],
            within_super_shift=v["within_super_shift"],
            noise_sigma=v["noise_sigma"],
            train_count=v["train_count"],
            test_count=v["test_count"],
            seed=v["seed"],
        )

    def encoder_config(self) -> EncoderConfig:
        v = self.values
        return EncoderConfig(
            input_dim=v["image_side"] * v["image_side"],
            hidden_dims=v["hidden_dims"],
            embed_dim=v["embed_dim"],
            num_classes=v["num_superclasses"] * v["subclasses_per_superclass"],
            seed=v["seed"],
        )

    def loss_weights(self) -> LossWeights:
        v = self.values
        return LossWeights(tau=v["tau"], m=v["m"], eta=v["eta"],
                           lam=v["lambda"], lam_t=v["lambda_t"], lam_v=v["lambda_v"],
                           margin_sign=v["margin_sign"])

    def train_attack(self) -> AttackConfig:
        v = self.values
        return AttackConfig(eps=v["train_eps"], step_size=v["train_step_size"],
                            steps=v["train_steps"], restarts=v["train_restarts"],
                            seed=v["seed"], text_source=v["attack_text_source"])

    def eval_attack(self) -> AttackConfig:
        """The evaluation attack; callers set eps per grid point."""
        v = self.values
        return AttackConfig(step_size=v["eval_step_size"],
                            steps=v["eval_steps"], restarts=v["eval_restarts"],
                            seed=v["seed"], text_source="student")

    def eval_eps(self) -> Tuple[Tuple[str, float], ...]:
        """The report's (ε text, value) pairs, parsed once with the config."""
        return self.values["eval_eps_list"]

    def pretrain_config(self) -> TrainConfig:
        v = self.values
        return TrainConfig(learning_rate=v["pretrain_lr"], momentum=v["momentum"],
                           epochs=v["pretrain_epochs"], batch_size=v["batch_size"],
                           seed=v["seed"])

    def finetune_config(self, variant: str | None = None) -> TrainConfig:
        """The recipe of ``variant`` (the config's when None), which
        ``resolve_variant`` makes of the config's weights, freeze flag and attack."""
        v = self.values
        weights, freeze_text, attack = resolve_variant(
            variant or v["variant"], self.loss_weights(), v["freeze_text"], self.train_attack())
        return TrainConfig(learning_rate=v["finetune_lr"], momentum=v["momentum"],
                           epochs=v["finetune_epochs"], batch_size=v["batch_size"],
                           freeze_text=freeze_text, loss_weights=weights,
                           train_attack=attack, seed=v["seed"])


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig, filling documented defaults."""
    overrides: Dict[str, Tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigTypeError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        overrides[key] = (value, lineno)

    values: Dict[str, object] = {}
    texts: Dict[str, str] = {}
    for key, (kind, default, check) in SCHEMA.items():
        raw, lineno = overrides.get(key, (default, 0))
        where = f"line {lineno}: " if lineno else ""
        try:
            value = _PARSERS[kind](raw)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigTypeError(f"{where}key {key!r}: cannot parse {raw!r} as {kind} ({exc})")
        problem = _finite(kind, value) or check(value)
        if problem:
            raise ConfigRangeError(f"{where}key {key!r} {problem} (got {raw!r})")
        values[key] = value
        texts[key] = raw
    return RunConfig(values, texts)


def load_config(path) -> RunConfig:
    try:
        text = read_file(path, "config").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigTypeError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_config(text)
