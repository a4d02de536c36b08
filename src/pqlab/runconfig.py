"""Run configuration: INI schema, strict parsing, canonical echo.

A run is fully described by one INI file; every command takes the file
plus optional flag overrides, and every output directory receives the
resolved configuration (``resolved_text``) so results stay auditable.
All seeds are fixed integers; nothing is derived from the clock.

The section dataclasses are the schema, and the only place a setting is
declared.  ``[run]`` holds ``RunConfig``'s own scalar fields (``out_dir``
is required); every section-typed field of ``RunConfig`` is an INI
section of the same name whose keys are that class's fields, in
declaration order, with the field defaults.  ``[loss]``, ``[train]``,
``[sampler]`` and ``[game]`` are the library's own ``objectives.LossConfig``,
``training.TrainConfig``, ``sampler.SamplerConfig`` and
``pq_game.GameConfig``; the other sections are declared here, and take
the defaults of the library settings they describe by name: ``[data]``'s
generator keys are ``market_paths.GeneratorConfig``'s fields (built by
``DataSection.generator_config``), ``[schedule]`` uses
``diffusion.DEFAULT_*``, ``[model]`` ``DenoiserConfig``'s defaults and
``[contracts]`` those of the contract fields its keys set.
The field annotation picks the parser (``_PARSERS``); lists are
comma-separated.  Parsing and the echo both walk these fields.

Strictness: unknown sections or keys, values that do not parse, and
non-finite numbers (``nan``, ``inf``, also inside a list) are
``ConfigError``s naming the section and key; so is every value a section
class's ``__post_init__`` rejects (a negative seed, a malformed date, a
generator, noise schedule, network or contract the library would
refuse), with the section name prefixed; a ``[data]``, ``[schedule]`` or
``[contracts]`` library message also names the offending keys, as
``key = value: <library message>``.  All of it fails at load time (CLI
exit code 2) rather than later in a run.  The file is read as UTF-8, so
other bytes are a ``ConfigError`` naming it, and without interpolation:
a ``%`` in a value is kept as written, and the echo loads back equal.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import SimpleNamespace
from typing import get_type_hints

from .denoiser import MAX_DEPTH, DenoiserConfig
from .diffusion import (DEFAULT_BETA_END, DEFAULT_BETA_START, DEFAULT_T, MODES,
                        NoiseSchedule, build_schedule)
from .errors import ConfigError
from .market_paths import GeneratorConfig, parse_date
from .objectives import LossConfig
from .payoffs import CONTRACT_TYPES, Accumulator, European, Snowball
from .pq_game import CONTRACTS, PRODUCTS, GameConfig  # noqa: F401  (PRODUCTS is API)
from .sampler import MAX_PATHS, SamplerConfig
from .training import TrainConfig


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_ints(raw: str) -> tuple:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def parse_floats(raw: str) -> tuple:
    """Comma-separated finite floats; empty parts are skipped."""
    return tuple(_parse_float(part) for part in raw.split(",") if part.strip())


def _parse_names(raw: str) -> tuple:
    return tuple(part.strip().lower() for part in raw.split(",") if part.strip())


# Most worker threads: each of q_pricer.price_books's workers values its
# share of a chunk's test slices in one 16,384-path closes buffer, 2.6 MB at
# 20 trading days and 33 MB at a year's 252, so 32 workers hold at most
# about 1 GB beside the chunk's one Brownian block.
MAX_THREADS = 32

_PARSERS = {
    int: int,
    float: _parse_float,
    str: str,
    bool: _parse_bool,
    tuple[int, ...]: _parse_ints,
    tuple[float, ...]: parse_floats,
    tuple[str, ...]: _parse_names,
}


@dataclass(frozen=True)
class DataSection:
    source: str = "synthetic"  # synthetic | csv
    series_csv: str = ""
    rates_csv: str = ""
    windows: tuple[int, ...] = (30,)  # calendar days per slice
    split_date: str = "2015-12-01"
    stride: int = 1
    seed: int = 0
    # synthetic two-regime generator: the GeneratorConfig fields, by name
    n_days: int = GeneratorConfig.n_days
    s0: float = GeneratorConfig.s0
    mu1: float = GeneratorConfig.mu1
    mu2: float = GeneratorConfig.mu2
    sigma1: float = GeneratorConfig.sigma1
    sigma2: float = GeneratorConfig.sigma2
    p_switch: float = GeneratorConfig.p_switch
    start_date: str = GeneratorConfig.start_date
    rate: float = 0.03

    def __post_init__(self) -> None:
        if self.source not in ("synthetic", "csv"):
            raise ConfigError(f"source must be synthetic or csv, got {self.source!r}")
        if not self.windows or any(w < 1 for w in self.windows):
            raise ConfigError("windows must be positive calendar-day counts")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        try:
            parse_date(self.split_date)
        except ValueError as exc:
            raise ConfigError(f"split_date = {self.split_date}: {exc}") from exc
        if self.source == "csv":
            for label, path in (("series_csv", self.series_csv),
                                ("rates_csv", self.rates_csv)):
                if not path:
                    raise ConfigError(f"csv source requires {label}")
                if not os.path.isfile(path):
                    raise ConfigError(f"{label} not found: {path}")
        _check_naming_keys(self, DataSection.generator_config)

    def generator_config(self) -> GeneratorConfig:
        """The synthetic generator these settings describe."""
        return GeneratorConfig(**{f.name: getattr(self, f.name)
                                  for f in fields(GeneratorConfig)})


def _check_naming_keys(section, check) -> None:
    """Run check(section); its ConfigError is re-raised naming the INI keys at fault.

    The library rule speaks of its own arguments (``T``, ``ki_ratio``), so
    the keys are found by value: each key that differs from its default is
    checked alone on the defaults, and the ones that fail are named (all
    changed keys, if the rule breaks only in combination).
    """
    try:
        check(section)
    except ConfigError as exc:
        defaults = {f.name: f.default for f in fields(section)}
        changed = {k: getattr(section, k) for k, v in defaults.items()
                   if getattr(section, k) != v}

        def fails_alone(key) -> bool:
            try:
                check(SimpleNamespace(**{**defaults, key: changed[key]}))
            except ConfigError:
                return True
            return False

        keys = [k for k in changed if fails_alone(k)] or list(changed)
        named = ", ".join(f"{k} = {changed[k]}" for k in keys)
        raise ConfigError(f"{named}: {exc}") from exc


def _build_contracts(section) -> None:
    for cls in CONTRACT_TYPES:
        cls.from_contracts(section)


@dataclass(frozen=True)
class ScheduleSection:
    timesteps: int = DEFAULT_T
    beta_start: float = DEFAULT_BETA_START
    beta_end: float = DEFAULT_BETA_END

    def __post_init__(self) -> None:
        _check_naming_keys(self, ScheduleSection.noise_schedule)

    def noise_schedule(self) -> NoiseSchedule:
        """The linear beta schedule these settings describe."""
        return build_schedule(self.timesteps, self.beta_start, self.beta_end)


@dataclass(frozen=True)
class ModelSection:
    base_channels: int = DenoiserConfig.base_channels
    depth: int = DenoiserConfig.depth
    time_embed_dim: int = DenoiserConfig.time_embed_dim
    cond_embed_dim: int = DenoiserConfig.cond_embed_dim
    cond_hidden_dim: int = DenoiserConfig.cond_hidden_dim
    mode: str = "v"
    input_length: int = 0  # 0 = fit to data

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.input_length < 0:
            raise ConfigError("input_length must be >= 0 (0 = fit to data)")
        # min() keeps the power small; DenoiserConfig refuses a depth over MAX_DEPTH
        self.denoiser_config(self.input_length or 2 ** min(self.depth, MAX_DEPTH))

    def denoiser_config(self, input_length: int) -> DenoiserConfig:
        """The network layout at a resolved input length."""
        return DenoiserConfig(
            input_length=input_length,
            base_channels=self.base_channels,
            depth=self.depth,
            time_embed_dim=self.time_embed_dim,
            cond_embed_dim=self.cond_embed_dim,
            cond_hidden_dim=self.cond_hidden_dim,
        )


@dataclass(frozen=True)
class ValidateSection:
    n_paths: int = 200
    max_conditions: int = 0  # 0 = all test slices

    def __post_init__(self) -> None:
        if not 1 <= self.n_paths <= MAX_PATHS:
            raise ConfigError(f"n_paths must be in [1, {MAX_PATHS}], got {self.n_paths}")
        if self.max_conditions < 0:
            raise ConfigError("max_conditions must be >= 0")


@dataclass(frozen=True)
class ContractsSection:
    strike_ratio: float = European.strike_ratio
    acc_discount: float = Accumulator.discount
    acc_ko: float = Accumulator.ko_ratio
    snow_ko: float = Snowball.ko_ratio
    snow_ki: float = Snowball.ki_ratio
    snow_coupon: float = Snowball.coupon_pa
    snow_notional: float = Snowball.notional

    def __post_init__(self) -> None:
        _check_naming_keys(self, _build_contracts)

    def build(self, product: str):
        """Instantiate the contract for a product family name."""
        if product not in CONTRACTS:
            raise ConfigError(f"unknown product {product!r}")
        return CONTRACTS[product].from_contracts(self)


@dataclass(frozen=True)
class RunConfig:
    out_dir: str
    threads: int = 1
    data: DataSection = field(default_factory=DataSection)
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    model: ModelSection = field(default_factory=ModelSection)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    validate: ValidateSection = field(default_factory=ValidateSection)
    game: GameConfig = field(default_factory=GameConfig)
    contracts: ContractsSection = field(default_factory=ContractsSection)

    def __post_init__(self) -> None:
        if not self.out_dir:
            raise ConfigError("[run] out_dir is required")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ConfigError(f"[run] threads must be in [1, {MAX_THREADS}], "
                              f"got {self.threads}")


def _schema() -> list:
    """(section, section class or None for [run], [(field, parser)]) in echo order."""
    hints = get_type_hints(RunConfig)
    run_keys: list = []
    schema = [("run", None, run_keys)]
    for f in fields(RunConfig):
        kind = hints[f.name]
        if is_dataclass(kind):
            kind_hints = get_type_hints(kind)
            keys = [(g, _PARSERS[kind_hints[g.name]]) for g in fields(kind)]
            schema.append((f.name, kind, keys))
        else:
            run_keys.append((f, _PARSERS[kind]))
    return schema


_SCHEMA = _schema()


def _section_values(parser: configparser.ConfigParser, name: str, keys) -> dict:
    """Parsed values of the keys present in one section; absent keys default."""
    # read raw, so a parser with interpolation keeps a '%' as written too
    raw = dict(parser.items(name, raw=True)) if parser.has_section(name) else {}
    unknown = sorted(set(raw) - {f.name for f, _ in keys})
    if unknown:
        raise ConfigError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")
    values = {}
    for f, cast in keys:
        if f.name not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"[{name}] {f.name} is required")
            continue
        try:
            values[f.name] = cast(raw[f.name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{name}] {f.name} = {raw[f.name]!r}: {exc}") from exc
    return values


def parse_config(parser: configparser.ConfigParser) -> RunConfig:
    """Build a validated RunConfig from a read INI; rules in the module docstring."""
    unknown = sorted(set(parser.sections()) - {name for name, _, _ in _SCHEMA})
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")
    sections = {}
    for name, kind, keys in _SCHEMA:
        values = _section_values(parser, name, keys)
        if kind is None:
            sections[name] = values
            continue
        try:
            sections[name] = kind(**values)
        except ConfigError as exc:
            raise ConfigError(f"[{name}] {exc}") from exc
    return RunConfig(**sections.pop("run"), **sections)


def load_config(path) -> RunConfig:
    """Parse and validate an INI run configuration."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    # no key is a template, so a '%' is kept as written, not interpolated
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(parser)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def resolved_text(cfg: RunConfig) -> str:
    """Canonical INI serialization; parses back to an equal RunConfig."""
    lines = []
    for name, kind, keys in _SCHEMA:
        section = cfg if kind is None else getattr(cfg, name)
        lines.append(f"[{name}]")
        lines.extend(f"{f.name} = {_fmt(getattr(section, f.name))}" for f, _ in keys)
        lines.append("")
    return "\n".join(lines)
