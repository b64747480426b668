"""Declarative experiment configuration: parsing, validation, serialization.

Configs are YAML documents.  Unknown keys are rejected so typos fail loudly;
``serialize`` emits a document that reparses to an equal config.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from .data import ParamSet
from .datagen import GenSpec
from .losses import GLM, LINKS, LossModel
from .softmin import SoftMinConfig
from .verify import CHECK_GRID, check_brute_force_budget


class ConfigError(ValueError):
    """Raised on malformed or incomplete experiment configs."""


PERTURB_REFERENCE = "perturb_reference"
EXPLICIT = "explicit"
RANDOM_BALL = "random_ball"
INIT_MODES = (PERTURB_REFERENCE, EXPLICIT, RANDOM_BALL)

REFERENCE_MODES = ("truth", "multistart")

CHECK_NAMES = ("lemmas", "decomposition", "gradient_oracle", "brute_force")


@dataclass(frozen=True)
class InitSpec:
    mode: str = PERTURB_REFERENCE
    c_ini: Optional[float] = 0.2
    thetas: Optional[ParamSet] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.mode not in INIT_MODES:
            raise ConfigError(f"init.mode must be one of {INIT_MODES}")
        if self.mode == PERTURB_REFERENCE:
            if self.c_ini is None or not (0.0 < self.c_ini < 1.0):
                raise ConfigError("init.c_ini must lie in (0, 1)")
        if self.mode == EXPLICIT and self.thetas is None:
            raise ConfigError("init.mode=explicit requires init.thetas")
        if self.mode == RANDOM_BALL and (self.radius is None or self.radius <= 0):
            raise ConfigError("init.mode=random_ball requires init.radius > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    data: object  # GenSpec or str path
    loss: LossModel
    gamma: Optional[float]  # None -> 1/(2 * mean smoothness)
    iterations: int
    beta: float
    resample: bool
    init: InitSpec
    reference_mode: str = "truth"
    checks: tuple = ()
    lemma_trials: int = 20
    repetitions: int = 1
    seed: int = 0
    c_universal: float = 1.0
    output_dir: str = "softmix-out"

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.iterations < 1:
            raise ConfigError("em.iterations must be >= 1")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError("em.gamma must be positive when given")
        if self.reference_mode not in REFERENCE_MODES:
            raise ConfigError(f"reference must be one of {REFERENCE_MODES}")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ConfigError(f"unknown check {name!r}")
        if "brute_force" in self.checks and isinstance(self.data, GenSpec):
            # file data is only sized once loaded, when the check runs
            try:
                check_brute_force_budget(self.data.d, self.data.k, CHECK_GRID)
            except ValueError as exc:
                raise ConfigError(f"checks.brute_force: {exc}") from exc

    def softmin(self) -> SoftMinConfig:
        return SoftMinConfig(beta=self.beta)


_REQUIRED_TOP = ("data", "loss", "em")
_ALLOWED_TOP = _REQUIRED_TOP + (
    "init",
    "reference",
    "checks",
    "lemma_trials",
    "repetitions",
    "seed",
    "c_universal",
    "output_dir",
)

_ALLOWED_DATA = (
    "file",
    "kind",
    "k",
    "d",
    "n",
    "noise_sigma",
    "mix_weights",
    "covariate",
    "cov_scale",
    "t_dof",
    "seed",
    "truth",
    "truth_scale",
    "perturb_amplitude",
    "margin",
)
_ALLOWED_LOSS = ("family", "lam", "link", "domain_radius")
_ALLOWED_EM = ("gamma", "iterations", "beta", "resample")
_ALLOWED_INIT = ("mode", "c_ini", "thetas", "radius")


def _reject_unknown(section: dict, allowed, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _parse_beta(raw) -> float:
    if isinstance(raw, str):
        if raw.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"em.beta: expected a number or 'inf', got {raw!r}")
    beta = float(raw)
    if beta < 0 or math.isnan(beta):
        raise ConfigError("em.beta must be >= 0")
    return beta


def _parse_data(section) -> object:
    _reject_unknown(section, _ALLOWED_DATA, "data")
    if "file" in section:
        extra = set(section) - {"file"}
        if extra:
            raise ConfigError("data.file cannot be combined with generator keys")
        return str(section["file"])
    for key in ("kind", "k", "d", "n"):
        if key not in section:
            raise ConfigError(f"data.{key} is required for generated datasets")
    kwargs = dict(section)
    if kwargs.get("truth") is not None:
        kwargs["truth"] = ParamSet(np.asarray(kwargs["truth"], dtype=np.float64))
    if kwargs.get("mix_weights") is not None:
        kwargs["mix_weights"] = tuple(float(w) for w in kwargs["mix_weights"])
    try:
        return GenSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"data: {exc}") from exc


def _parse_loss(section) -> LossModel:
    _reject_unknown(section, _ALLOWED_LOSS, "loss")
    if "family" not in section:
        raise ConfigError("loss.family is required")
    link = None
    if section.get("link") is not None:
        name = str(section["link"])
        if name not in LINKS:
            raise ConfigError(f"loss.link must be one of {sorted(LINKS)}")
        link = LINKS[name]
    try:
        return LossModel(
            family=str(section["family"]),
            lam=float(section.get("lam", 0.0)),
            link=link,
            domain_radius=(
                float(section["domain_radius"])
                if section.get("domain_radius") is not None
                else None
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"loss: {exc}") from exc


def _parse_init(section) -> InitSpec:
    if section is None:
        return InitSpec()
    _reject_unknown(section, _ALLOWED_INIT, "init")
    kwargs = dict(section)
    if kwargs.get("thetas") is not None:
        kwargs["thetas"] = ParamSet(np.asarray(kwargs["thetas"], dtype=np.float64))
    return InitSpec(**kwargs)


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"YAML parse error: {exc}") from exc
    if not isinstance(doc, dict):
        missing = ", ".join(_REQUIRED_TOP)
        raise ConfigError(f"empty or scalar config; required sections: {missing}")
    _reject_unknown(doc, _ALLOWED_TOP, "config")
    missing = [key for key in _REQUIRED_TOP if key not in doc]
    if missing:
        raise ConfigError(f"missing required sections: {', '.join(missing)}")

    em = doc["em"]
    _reject_unknown(em, _ALLOWED_EM, "em")
    if "iterations" not in em:
        raise ConfigError("em.iterations is required")
    checks = doc.get("checks") or {}
    if isinstance(checks, dict):
        for name, value in checks.items():
            if name not in CHECK_NAMES:
                raise ConfigError(f"unknown check {name!r}")
            if not isinstance(value, bool):
                raise ConfigError(f"checks.{name} must be a boolean")
        enabled = tuple(name for name in CHECK_NAMES if checks.get(name))
    else:
        raise ConfigError("checks must be a mapping of check name to boolean")

    return ExperimentConfig(
        data=_parse_data(doc["data"]),
        loss=_parse_loss(doc["loss"]),
        gamma=(float(em["gamma"]) if em.get("gamma") is not None else None),
        iterations=int(em["iterations"]),
        beta=_parse_beta(em.get("beta", 1.0)),
        resample=bool(em.get("resample", True)),
        init=_parse_init(doc.get("init")),
        reference_mode=str(doc.get("reference", "truth")),
        checks=enabled,
        lemma_trials=int(doc.get("lemma_trials", 20)),
        repetitions=int(doc.get("repetitions", 1)),
        seed=int(doc.get("seed", 0)),
        c_universal=float(doc.get("c_universal", 1.0)),
        output_dir=str(doc.get("output_dir", "softmix-out")),
    )


def serialize(config: ExperimentConfig) -> str:
    """YAML document that reparses (via validate_config) to an equal config."""
    doc: dict = {}
    if isinstance(config.data, str):
        doc["data"] = {"file": config.data}
    else:
        spec: GenSpec = config.data
        data = {
            "kind": spec.kind,
            "k": spec.k,
            "d": spec.d,
            "n": spec.n,
            "noise_sigma": spec.noise_sigma,
            "covariate": spec.covariate,
            "cov_scale": spec.cov_scale,
            "t_dof": spec.t_dof,
            "seed": spec.seed,
            "truth_scale": spec.truth_scale,
            "perturb_amplitude": spec.perturb_amplitude,
            "margin": spec.margin,
        }
        if spec.mix_weights is not None:
            data["mix_weights"] = list(spec.mix_weights)
        if spec.truth is not None:
            data["truth"] = spec.truth.thetas.tolist()
        doc["data"] = data
    loss = {"family": config.loss.family, "lam": config.loss.lam}
    if config.loss.link is not None:
        loss["link"] = config.loss.link.name
    if config.loss.domain_radius is not None:
        loss["domain_radius"] = config.loss.domain_radius
    doc["loss"] = loss
    doc["em"] = {
        "gamma": config.gamma,
        "iterations": config.iterations,
        "beta": "inf" if math.isinf(config.beta) else config.beta,
        "resample": config.resample,
    }
    init = {"mode": config.init.mode}
    if config.init.c_ini is not None:
        init["c_ini"] = config.init.c_ini
    if config.init.thetas is not None:
        init["thetas"] = config.init.thetas.thetas.tolist()
    if config.init.radius is not None:
        init["radius"] = config.init.radius
    doc["init"] = init
    doc["reference"] = config.reference_mode
    doc["checks"] = {name: (name in config.checks) for name in CHECK_NAMES}
    doc["lemma_trials"] = config.lemma_trials
    doc["repetitions"] = config.repetitions
    doc["seed"] = config.seed
    doc["c_universal"] = config.c_universal
    doc["output_dir"] = config.output_dir
    return yaml.safe_dump(doc, sort_keys=False)
