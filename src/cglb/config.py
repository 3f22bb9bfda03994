"""Run configuration: dataclasses, strict YAML loading, resolved echo.

Unknown keys anywhere in the document are errors; the resolved config
(defaults filled in) can be dumped back to YAML and reloaded to
reproduce a run.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from typing import Any, get_args, get_origin, get_type_hints

import yaml

from .data import GP_FLOOR
from .errors import ConfigError
from .models import DENSE_CAP
from .optimizer import OptimizerConfig

# The optimizer section is the optimizer's own settings class, range checks included.
OptimizerSection = OptimizerConfig

MODEL_KINDS = ("exact", "sgpr", "cglb", "iterative")

# A YAML 1.2 number with an exponent, such as 1e-4, 1E-4 or -2e+3.
_EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


@dataclass
class SyntheticSpec:
    kind: str = "sine"  # sine | gp
    n: int = 500
    d: int = 1
    seed: int = 0
    noise_std: float = 0.1  # sine observation noise
    variance: float = 1.0  # gp kernel variance
    lengthscale: float = 0.3  # gp kernel lengthscale (isotropic)
    noise_variance: float = 0.05  # gp observation noise
    mean: float = 0.0


@dataclass
class DataConfig:
    csv: str | None = None
    target: str | None = None
    synthetic: SyntheticSpec | None = None


@dataclass
class IterativeSection:
    probes: int = 10
    cg_tol: float = 1e-2


@dataclass
class RunConfig:
    model: str = "cglb"
    m: int = 16
    eps_train: float = 1.0
    eps_predict: float = 1e-3
    seed: int = 0
    split_fraction: float = 2.0 / 3.0
    positivity_floor: float | None = None  # resolve_floor() fills the per-model default
    dense_cap: int = DENSE_CAP
    bound_draws: int = 10
    output_dir: str = "runs/latest"
    data: DataConfig = field(default_factory=DataConfig)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    iterative: IterativeSection = field(default_factory=IterativeSection)

    def resolve_floor(self) -> float:
        if self.positivity_floor is not None:
            return self.positivity_floor
        return 1e-4 if self.model == "iterative" else 1e-6

    def validate(self, needs_data: bool = True) -> None:
        """Raise ConfigError on a bad entry; ``needs_data=False`` skips the data
        section, for commands that read no data."""
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if self.dense_cap < 1:
            raise ConfigError("dense_cap must be >= 1")
        if self.bound_draws < 1:
            raise ConfigError("bound_draws must be >= 1")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("split_fraction must be in (0, 1)")
        if self.eps_train <= 0 or self.eps_predict <= 0:
            raise ConfigError("eps_train and eps_predict must be positive")
        if self.positivity_floor is not None and self.positivity_floor < 0:
            raise ConfigError("positivity_floor must be >= 0")
        if self.iterative.probes < 1:
            raise ConfigError("iterative.probes must be >= 1")
        if self.iterative.cg_tol < 0:
            raise ConfigError("iterative.cg_tol must be >= 0")
        if not needs_data:
            return
        data = self.data
        if data.csv is None and data.synthetic is None:
            raise ConfigError("data needs either a csv path or a synthetic spec")
        if data.csv is not None and data.target is None:
            raise ConfigError("data.target is required with data.csv")
        spec = data.synthetic
        if spec is None:
            return
        if spec.kind not in ("sine", "gp"):
            raise ConfigError("data.synthetic.kind must be 'sine' or 'gp'")
        if spec.variance <= GP_FLOOR or spec.lengthscale <= GP_FLOOR:
            raise ConfigError("data.synthetic.variance and lengthscale must exceed "
                              f"the generator's floor {GP_FLOOR}")
        if spec.noise_variance < 0 or spec.noise_std < 0:
            raise ConfigError("data.synthetic.noise_variance and noise_std must be >= 0")


def _coerce(value: Any, hint: Any, path: str) -> Any:
    origin = get_origin(hint)
    if origin is not None and origin is not dict:  # Optional[X] / unions
        args = [a for a in get_args(hint) if a is not type(None)]
        if value is None:
            return None
        if len(args) == 1:
            return _coerce(value, args[0], path)
        raise ConfigError(f"{path}: unsupported union type")
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a mapping")
        return _from_dict(hint, value, path)
    if hint is float:
        if isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value):
            value = float(value)  # YAML 1.1 reads 1e-4 as a string
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    return value


def _from_dict(cls, payload: dict, path: str = ""):
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        where = path or cls.__name__
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    kwargs = {}
    for name in names & set(payload):
        kwargs[name] = _coerce(payload[name], hints[name], f"{path}.{name}" if path else name)
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a section's own range checks
        raise ConfigError(f"{path or cls.__name__}: {exc}") from None


def config_from_dict(payload: dict, needs_data: bool = True) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config document must be a mapping")
    cfg = _from_dict(RunConfig, payload)
    cfg.validate(needs_data)
    return cfg


def load_config(path: str | None, overrides: list[str] | None = None,
                needs_data: bool = True) -> RunConfig:
    """Read ``path`` (no file: all defaults), apply ``a.b.c=value`` overrides, validate."""
    payload = {}
    if path is not None:
        try:
            with open(path) as fh:
                payload = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config document must be a mapping")
    return config_from_dict(apply_overrides(payload, overrides or []), needs_data)


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def dump_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)


def apply_overrides(payload: dict, overrides: list[str]) -> dict:
    """Apply ``a.b.c=value`` CLI overrides onto a raw config mapping."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            raise ConfigError(f"override {item!r}: unparseable value") from None
        node = payload
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {part} is not a mapping")
        node[parts[-1]] = value
    return payload
