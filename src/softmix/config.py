"""Declarative experiment configuration: parsing, validation, serialization.

Configs are YAML documents, and the dataclasses are their only schema:
``ExperimentConfig`` at the top level, :class:`~softmix.datagen.GenSpec`
under ``data:`` (or ``data: {file: <csv>}``),
:class:`~softmix.losses.LossModel` under ``loss:``,
:class:`~softmix.em.EMConfig` under ``em:``, :class:`InitSpec` under
``init:`` and :class:`Checks` under ``checks:``.  The fields that
:data:`NOT_KEYS` lists for a class are set by the run, not by the config:
the seeds of the generated data and of the folds, which repetition r sets
to ``seed + r``.  Every other field is a key, a field without a default is
required, and an absent key (or a ``null`` section) takes the field
default.  :func:`_typed` only parses a value as its field annotation: ints
must be integral, booleans YAML booleans, and floats numbers or strings that
``float()`` parses (PyYAML reads ``1e-3`` as a string; ``beta: "inf"``
selects the hard min).  The class of each field checks its range, NaN
included (only ``em.beta`` may be infinite), in a message that opens with
the field, and :func:`_section` adds the section: ``data.noise_sigma must
be >= 0, got -1.0``.  Unknown keys are rejected so typos fail loudly, and so
is a key that the rest of the config makes the run ignore (``loss.link``
outside ``glm``, ``init.c_ini`` outside ``perturb_reference``,
``init.radius`` outside ``random_ball``, ``data.noise_sigma`` outside
``generative_mlr``, ``data.perturb_amplitude`` outside
``agnostic_piecewise``, ``data.t_dof`` outside ``student_t`` covariates,
``data.truth_scale`` with a given ``data.truth``, ``init.thetas`` outside
``explicit`` on generated data, where k comes from the truth); where such a
key is read, its absence takes the default that its class fills in;
``serialize`` walks the same fields and emits a document that reparses to an
equal config.  The two keys that need the size of the data, ``em.resample``
and ``init.thetas``, are checked by :func:`check_data`: for generated data
when the config is built, for a data file as soon as it is read.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import MISSING, dataclass
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .data import ParamSet
from .datagen import SEED_LIMIT, GenSpec
from .em import EMConfig
from .losses import LINKS, LinkFunction, LossModel


class ConfigError(ValueError):
    """Raised on malformed or incomplete experiment configs."""


PERTURB_REFERENCE = "perturb_reference"
EXPLICIT = "explicit"
RANDOM_BALL = "random_ball"
INIT_MODES = (PERTURB_REFERENCE, EXPLICIT, RANDOM_BALL)

REFERENCE_MODES = ("truth", "multistart")

# fields that the run sets, not config keys: each repetition sets the seed
# of its generated data and of its folds
NOT_KEYS = {GenSpec: ("seed",), EMConfig: ("seed",)}


@dataclass(frozen=True)
class InitSpec:
    mode: str = PERTURB_REFERENCE
    c_ini: Optional[float] = None  # 0.2 under mode perturb_reference
    thetas: Optional[ParamSet] = None
    radius: Optional[float] = None

    def __post_init__(self):
        if self.mode not in INIT_MODES:
            raise ValueError(f"mode must be one of {INIT_MODES}, got {self.mode!r}")
        if self.mode == PERTURB_REFERENCE:
            if self.c_ini is None:
                object.__setattr__(self, "c_ini", 0.2)
            if not 0.0 < self.c_ini < 1.0:
                raise ValueError(f"c_ini must lie in (0, 1), got {self.c_ini}")
        elif self.c_ini is not None:
            raise ValueError(f"c_ini is read only by mode {PERTURB_REFERENCE}, not {self.mode}")
        if self.mode == EXPLICIT and self.thetas is None:
            raise ValueError(f"thetas is required by mode {EXPLICIT}")
        if self.mode == RANDOM_BALL and (self.radius is None or self.radius <= 0):
            raise ValueError(f"radius must be > 0 under mode {RANDOM_BALL}, got {self.radius}")
        if self.mode != RANDOM_BALL and self.radius is not None:
            raise ValueError(f"radius is read only by mode {RANDOM_BALL}, not {self.mode}")
        if self.radius is not None and not math.isfinite(self.radius):
            raise ValueError(f"radius must be finite, got {self.radius}")


@dataclass(frozen=True)
class Checks:
    """The oracles run on repetition 0 after the repetitions."""

    lemmas: bool = False
    decomposition: bool = False
    gradient_oracle: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """A whole experiment; its fields are the top-level config keys.

    Building one checks every key that is known before the data is read:
    each key's range, the combinations of keys, and for generated data the
    keys that need its size (:func:`check_data`).
    """

    data: Union[GenSpec, str]  # a generated dataset, or the path of a CSV file
    loss: LossModel
    em: EMConfig  # em.gamma None -> 1/(2 * mean smoothness)
    init: InitSpec = InitSpec()
    reference: str = "truth"
    checks: Checks = Checks()
    repetitions: int = 1
    seed: int = 0
    output_dir: str = "softmix-out"

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if not 0 <= self.seed <= SEED_LIMIT - self.repetitions:
            # repetition r runs with seed + r, which must itself be a seed
            raise ConfigError(
                f"seed must lie in [0, 2**64 - repetitions], got {self.seed} "
                f"with {self.repetitions} repetitions"
            )
        if self.reference not in REFERENCE_MODES:
            raise ConfigError(f"reference must be one of {REFERENCE_MODES}")
        if self.checks.lemmas and math.isinf(self.em.beta):
            raise ConfigError("checks.lemmas requires a finite em.beta")
        if isinstance(self.data, GenSpec):
            if self.init.thetas is not None and self.init.mode != EXPLICIT:
                # k comes from the truth, so only an explicit start reads thetas
                raise ConfigError(
                    f"init.thetas on generated data is read only by mode explicit, "
                    f"not {self.init.mode}"
                )
            check_data(self, self.data.n, self.data.d, self.data.k, "data")
        elif self.reference == "truth":
            raise ConfigError("reference=truth requires generated data, not data.file")


def check_data(config: ExperimentConfig, n: int, d: int, k: int, source: str) -> None:
    """ConfigError unless ``config`` fits ``n`` rows of dimension ``d`` fitted
    with ``k`` components: ``em.resample`` needs one row per iteration, and
    ``init.thetas`` the shape ``(k, d)``.  ``source`` names the data in the
    message: ``data`` for generated data, else the file's path."""
    T = config.em.iterations
    if config.em.resample and n < T:
        raise ConfigError(
            f"em.resample takes one fold per iteration: em.iterations={T} exceeds "
            f"the {n} rows of {source}"
        )
    shape = (k, d) if config.init.thetas is None else config.init.thetas.thetas.shape
    if shape != (k, d):
        raise ConfigError(f"init.thetas has shape {shape}, the (k, d) of {source} is {(k, d)}")


def _typed(raw, hint, where: str):
    """``raw``, a value read from YAML, as a value of the annotation ``hint``;
    a ConfigError that names the key ``where`` if it is not one."""
    if get_origin(hint) is Union:  # Optional[X]
        if raw is None:
            return None
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if hint is bool and isinstance(raw, bool):
        return raw
    if hint is int and number and (isinstance(raw, int) or raw.is_integer()):
        return int(raw)
    if hint is float and (number or isinstance(raw, str)):
        try:
            return float(raw)
        except (ValueError, OverflowError):
            pass
    if hint is str and isinstance(raw, str):
        return raw
    if get_origin(hint) is tuple and isinstance(raw, list):  # Tuple[X, ...]
        item = get_args(hint)[0]
        return tuple(_typed(value, item, f"{where}[{i}]") for i, value in enumerate(raw))
    if hint is ParamSet:
        try:
            return ParamSet(np.asarray(raw, dtype=np.float64))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if hint is LinkFunction:
        if isinstance(raw, str) and raw in LINKS:
            return LINKS[raw]
        raise ConfigError(f"{where} must be one of {sorted(LINKS)}")
    if dataclasses.is_dataclass(hint):
        return _section(raw, hint, where)
    expected = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}
    raise ConfigError(f"{where}: expected {expected.get(hint, 'a list')}, got {raw!r}")


def _reject_unknown(section, allowed, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


def _typed_fields(cls, raw: dict, where: str, names) -> dict:
    """The fields ``names`` of dataclass ``cls`` that ``raw`` sets, each typed
    by its annotation; a ConfigError if a field without a default is absent."""
    hints = get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in names:
            continue
        key = f"{where}.{f.name}" if where else f.name
        if f.name in raw:
            kwargs[f.name] = _typed(raw[f.name], hints[f.name], key)
        elif f.default is MISSING:
            raise ConfigError(f"{key} is required")
    return kwargs


def _section(raw, cls, where: str):
    """Dataclass ``cls`` from the YAML mapping ``raw`` (empty when ``None``);
    the ValueErrors of ``cls`` open with the field they are about, and come
    out as ConfigErrors on ``where.<field>``."""
    raw = {} if raw is None else raw
    names = [f.name for f in dataclasses.fields(cls) if f.name not in NOT_KEYS.get(cls, ())]
    _reject_unknown(raw, names, where)
    kwargs = _typed_fields(cls, raw, where, names)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


def _parse_data(raw) -> Union[GenSpec, str]:
    if isinstance(raw, dict) and "file" in raw:
        if set(raw) != {"file"}:
            raise ConfigError("data.file cannot be combined with generator keys")
        return _typed(raw["file"], str, "data.file")
    return _section(raw, GenSpec, "data")


def parse_yaml(text: str):
    """The data of a YAML document; a one-line ConfigError, naming the line
    and column where PyYAML gives them, if it does not parse."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = "" if mark is None else f" at line {mark.line + 1}, column {mark.column + 1}"
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"YAML parse error{where}: {problem}") from exc


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment config document."""
    doc = parse_yaml(text)
    fields = dataclasses.fields(ExperimentConfig)
    required = [f.name for f in fields if f.default is MISSING]
    if not isinstance(doc, dict):
        missing = ", ".join(required)
        raise ConfigError(f"empty or scalar config; required sections: {missing}")
    _reject_unknown(doc, [f.name for f in fields], "config")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"missing required sections: {', '.join(missing)}")
    rest = [f.name for f in fields if f.name != "data"]
    return ExperimentConfig(
        data=_parse_data(doc["data"]), **_typed_fields(ExperimentConfig, doc, "", rest)
    )


def _plain(value):
    """``value`` as YAML data that ``_typed`` reads back to an equal value; a
    dataclass omits its ``NOT_KEYS`` fields and ``None`` where that is the
    default."""
    if isinstance(value, LinkFunction):
        return value.name
    if dataclasses.is_dataclass(value):
        items = ((f, getattr(value, f.name)) for f in dataclasses.fields(value))
        skip = NOT_KEYS.get(type(value), ())
        return {
            f.name: _plain(item) for f, item in items
            if f.name not in skip and not (item is None and f.default is None)
        }
    if isinstance(value, ParamSet):
        return value.thetas.tolist()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, float) and math.isinf(value):
        return str(value)
    return value


def serialize(config: ExperimentConfig) -> str:
    """YAML document that reparses (via validate_config) to an equal config."""
    doc = _plain(config)
    if isinstance(config.data, str):
        doc["data"] = {"file": config.data}
    return yaml.safe_dump(doc, sort_keys=False)
