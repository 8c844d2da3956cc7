"""Run configuration files: dotted keys, one `key = value` per line.

Grammar (documented for the CLI):

    file      := line*
    line      := blank | comment | assignment
    comment   := '#' anything
    assignment:= section '.' field '=' value      # e.g. train.lr = 1e-3
    value     := int | float | bool | string | pair (e.g. 16,16 or 0.1,1.0)

Sections: model, train, sampler, dataset, paths, ablate. Unknown keys are
rejected with the offending key named (typo safety). ``apply_overrides``
applies ``section.key=value`` strings (``dualdit train --set``) after parsing,
under the same key checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields, replace
from typing import Any, Optional

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


def _coerce(raw: str, annotation: Any):
    raw = raw.strip()
    base = str(annotation)
    if "," in raw or "tuple" in base:
        parts = [p for p in (s.strip() for s in raw.split(",")) if p]
        return tuple(_coerce_scalar(p) for p in parts)
    return _coerce_scalar(raw)


def _coerce_scalar(raw: str):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _assign(values: dict[str, dict[str, Any]], key: str, raw: str, where: str):
    """Validate ``section.field`` against the dataclasses and store its coerced value."""
    section, dot, name = key.partition(".")
    if not dot:
        raise ConfigError(f"{where}: key {key!r} is missing its section prefix")
    cls = _SECTIONS.get(section)
    if cls is None:
        raise ConfigError(f"{where}: unknown section {section!r} in key {key!r}")
    known = {f.name: f for f in dc_fields(cls)}
    if name not in known:
        raise ConfigError(f"{where}: unknown key {key!r}")
    values[section][name] = _coerce(raw, known[name].type)


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
