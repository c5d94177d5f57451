"""Run configuration: a flat key=value file mirroring the module configs.

The keys are ``<section>.<field>`` for the fields of the module configs
(``radio`` RadioConfig, ``traffic`` TrafficModel, ``sra`` SraConfig, ``tcn``
TcnConfig, ``train`` TrainConfig), with the fields' types and defaults,
plus nine keys only the CLI reads.  Unknown keys are rejected by name.  CLI
flags override file values; the merged values feed the per-module config
builders.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from . import kvtext
from .geometry import RadioConfig
from .sra import SraConfig
from .tcn import TcnConfig, TrainConfig
from .traffic import TrafficModel

_SECTIONS = {"radio": RadioConfig, "traffic": TrafficModel, "sra": SraConfig,
             "tcn": TcnConfig, "train": TrainConfig}

# Module-config fields that are not keys: the builders supply every seed and
# tcn.n_f (sra.n_f here; `nfsense train` takes it from the dataset).
_SUPPLIED = {"tcn.n_f"}

# Keys only the CLI reads, with their defaults.
_CLI_DEFAULTS = {
    "capacity.beta": 50.0,
    "capacity.delta_r": 0.1,
    "capacity.k": 2,
    "mask.fraction": 0.3,
    "mask.mean_run_frames": 8.0,
    "dataset.masks_per_label": 3,
    "dataset.split_fraction": 0.7,
    "dataset.max_label_frames": 128,
    "dataset.label_stride": 96,
}

# Keys only the CLI reads whose values have a range: key -> (test, what it must be).
# The frame counts take 0 for "keep label slices whole" and "stride = width".
_RANGES = {
    "dataset.max_label_frames": (lambda v: v >= 0, ">= 0"),
    "dataset.label_stride": (lambda v: v >= 0, ">= 0"),
    "dataset.masks_per_label": (lambda v: v >= 1, ">= 1"),
    "dataset.split_fraction": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "mask.fraction": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "mask.mean_run_frames": (lambda v: v > 0, "> 0"),
}

# Every accepted key with its annotation and default.
_SCHEMA: dict[str, tuple[str, Any]] = {
    **{f"{section}.{f.name}": (f.type, f.default)
       for section, cls in _SECTIONS.items() for f in fields(cls)
       if f.name != "seed" and f"{section}.{f.name}" not in _SUPPLIED},
    **{key: (type(default).__name__, default) for key, default in _CLI_DEFAULTS.items()},
}


@dataclass
class RunConfig:
    values: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        given, self.values = self.values, {k: default for k, (_, default) in _SCHEMA.items()}
        for key, value in given.items():
            self.set(key, value, source="RunConfig")

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def set(self, key: str, value: Any, source="--set") -> None:
        """Set ``key`` from its text; errors name ``source`` (a flag or a file)."""
        if key not in _SCHEMA:
            raise ValueError(f"{source}: unknown config key {key!r}")
        parsed = kvtext.parse(_SCHEMA[key][0], str(value), key, source)
        if key in _RANGES and not _RANGES[key][0](parsed):
            raise ValueError(f"{source}: bad config value {key}={value!r}: "
                             f"must be {_RANGES[key][1]}")
        self.values[key] = parsed

    def _build(self, section: str, **supplied: Any):
        cls = _SECTIONS[section]
        return cls(**{f.name: self[f"{section}.{f.name}"] for f in fields(cls)
                      if f"{section}.{f.name}" in _SCHEMA}, **supplied)

    def radio(self) -> RadioConfig:
        return self._build("radio")

    def sra(self) -> SraConfig:
        return self._build("sra")

    def tcn(self, seed: int = 0) -> TcnConfig:
        return self._build("tcn", n_f=self["sra.n_f"], seed=seed)

    def train(self, seed: int = 0) -> TrainConfig:
        return self._build("train", seed=seed)

    def traffic(self, seed: int = 0) -> TrafficModel:
        return self._build("traffic", seed=seed)


def load_config(path) -> RunConfig:
    cfg = RunConfig()
    for key, text in kvtext.read(path).items():
        cfg.set(key, text, source=path)
    return cfg
