"""Run configuration files: dotted keys, one `key = value` per line.

Grammar (documented for the CLI):

    file      := line*
    line      := blank | comment | assignment
    comment   := '#' anything
    assignment:= section '.' field '=' value      # e.g. train.lr = 1e-3
    value     := int | float | bool | string | pair (e.g. 16,16 or 0.1,1.0)

A value is read as its field's type: a string field keeps its commas, a
pair needs exactly two values, and an int field rejects 1.5.

Sections: model, train, sampler, dataset, paths, ablate. Unknown keys are
rejected with the offending key named (typo safety). ``apply_overrides``
applies ``section.key=value`` strings (``dualdit train --set``) after parsing,
under the same key checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields, replace
from typing import Any, Optional, Union, get_args, get_origin, get_type_hints

from .data import ToyDatasetSpec
from .errors import ConfigError
from .model import ModelConfig, PRESETS
from .samplers import SamplerConfig
from .trainer import TrainConfig


@dataclass
class Paths:
    checkpoint_dir: str = "runs/checkpoints"
    metrics: str = "runs/metrics.csv"


@dataclass
class AblateSpec:
    variants: tuple[str, ...] = ("A_global", "C_pixelwise")
    sample: bool = False


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    dataset: ToyDatasetSpec = field(default_factory=ToyDatasetSpec)
    paths: Paths = field(default_factory=Paths)
    ablate: AblateSpec = field(default_factory=AblateSpec)

    def validate(self) -> "RunConfig":
        if tuple(self.model.resolution) != tuple(self.dataset.resolution):
            raise ConfigError(
                f"model resolution {self.model.resolution} != dataset resolution "
                f"{self.dataset.resolution}"
            )
        if self.model.num_classes != self.dataset.num_classes:
            raise ConfigError(
                f"model num_classes {self.model.num_classes} != dataset "
                f"num_classes {self.dataset.num_classes}"
            )
        if self.model.channels != self.dataset.channels:
            raise ConfigError(
                f"model channels {self.model.channels} != dataset channels "
                f"{self.dataset.channels}"
            )
        return self


_SECTIONS = {
    "model": ModelConfig, "train": TrainConfig, "sampler": SamplerConfig,
    "dataset": ToyDatasetSpec, "paths": Paths, "ablate": AblateSpec,
}


def _coerce(raw: str, tp: Any):
    """Parse ``raw`` as a value of the field type ``tp``; ValueError on a mismatch."""
    raw = raw.strip()
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X]
        if raw.lower() in ("none", "null"):
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _coerce(raw, tp)
    if origin is tuple:
        parts = [p for p in (s.strip() for s in raw.split(",")) if p]
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(parts)
        elif len(parts) != len(args):
            raise ValueError(f"expected {len(args)} comma-separated values, got {len(parts)}")
        return tuple(_coerce(p, a) for p, a in zip(parts, args))
    if tp is bool:
        if raw.lower() not in ("true", "false"):
            raise ValueError(f"expected true or false, got {raw!r}")
        return raw.lower() == "true"
    return tp(raw)  # str keeps the text as is; int rejects '1.5'


_FIELD_TYPES = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}


def _assign(values: dict[str, dict[str, Any]], key: str, raw: str, where: str):
    """Validate ``section.field`` against the dataclasses and store its value, typed by the field."""
    section, dot, name = key.partition(".")
    if not dot:
        raise ConfigError(f"{where}: key {key!r} is missing its section prefix")
    cls = _SECTIONS.get(section)
    if cls is None:
        raise ConfigError(f"{where}: unknown section {section!r} in key {key!r}")
    if name not in {f.name for f in dc_fields(cls)}:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        values[section][name] = _coerce(raw, _FIELD_TYPES[section][name])
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key!r}: {e}") from None


def parse_config_text(text: str) -> RunConfig:
    """Parse the dotted-key format into a validated RunConfig."""
    values: dict[str, dict[str, Any]] = {name: {} for name in _SECTIONS}
    preset: Optional[str] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key == "model.preset":  # a pseudo-key: the base the model fields apply to
            preset = raw.strip()
        else:
            _assign(values, key, raw, f"line {lineno}")

    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown model preset {preset!r}; choose from {sorted(PRESETS)}")
        model = replace(PRESETS[preset], **values["model"])
    else:
        model = ModelConfig(**values["model"])
    return RunConfig(
        model=model,
        train=TrainConfig(**values["train"]),
        sampler=SamplerConfig(**values["sampler"]),
        dataset=ToyDatasetSpec(**values["dataset"]),
        paths=Paths(**values["paths"]),
        ablate=AblateSpec(**values["ablate"]),
    ).validate()


def load_config(path) -> RunConfig:
    with open(path) as f:
        return parse_config_text(f.read())


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply `section.key=value` strings (CLI flags) on top of a parsed config."""
    updates: dict[str, dict[str, Any]] = {name: {} for name in _SECTIONS}
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} must look like section.key=value")
        key, _, raw = ov.partition("=")
        _assign(updates, key.strip(), raw, "override")
    new = cfg
    for section, kw in updates.items():
        if kw:
            new = replace(new, **{section: replace(getattr(new, section), **kw)})
    return new.validate()
