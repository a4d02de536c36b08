"""Run configuration: INI schema, strict parsing, canonical echo.

A run is fully described by one INI file; every command takes the file
plus optional flag overrides, and every output directory receives the
resolved configuration (``resolved_text``) so results stay auditable.
Unknown sections or keys are configuration errors: a typoed key must
fail loudly rather than silently fall back to a default.  All seeds are
fixed integers; nothing is derived from the clock.

Sections and keys (all optional unless noted):

    [run]       out_dir (required), threads
    [data]      source (synthetic|csv), series_csv, rates_csv, windows,
                split_date, stride, seed, and the synthetic-generator
                knobs n_days, s0, mu1, mu2, sigma1, sigma2, p_switch,
                start_date, rate
    [schedule]  timesteps, beta_start, beta_end
    [model]     base_channels, depth, time_embed_dim, cond_embed_dim,
                cond_hidden_dim, mode, input_length (0 = fit to data)
    [loss]      lambda_jump, lambda_vol, lambda_gvol, lambda_kurt,
                lambda_drift, lambda_pinball, lambda_spectral,
                warmup_fraction, vol_window, vol_stride
    [train]     steps, batch_size, lr, clip_norm, seed, checkpoint_every
    [sampler]   num_steps, eta, n_paths, seed
    [validate]  n_paths, max_conditions (0 = all test slices)
    [game]      products, levels (empty = per-product defaults),
                threshold, q_paths, p_paths, seed, discount
    [contracts] strike_ratio, acc_discount, acc_ko, snow_ko, snow_ki,
                snow_coupon, snow_notional
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .objectives import LossWeights
from .payoffs import Accumulator, Asian, European, Lookback, Snowball

PRODUCTS = ("european", "lookback", "asian", "accumulator", "snowball")


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_ints(raw: str) -> tuple:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _parse_floats(raw: str) -> tuple:
    return tuple(float(part) for part in raw.split(",") if part.strip())


def _parse_names(raw: str) -> tuple:
    return tuple(part.strip().lower() for part in raw.split(",") if part.strip())


class _Section:
    """One INI section with typed gets and unknown-key detection."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.raw = dict(parser[name]) if parser.has_section(name) else {}
        self.seen: set = set()

    def get(self, key: str, cast, default):
        self.seen.add(key)
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"[{self.name}] {key} is required")
            return default
        try:
            return cast(self.raw[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"[{self.name}] {key} = {self.raw[key]!r}: {exc}"
            ) from exc

    def finish(self) -> None:
        unknown = sorted(set(self.raw) - self.seen)
        if unknown:
            raise ConfigError(f"unknown key(s) in [{self.name}]: {', '.join(unknown)}")


_REQUIRED = object()


@dataclass(frozen=True)
class DataSection:
    source: str = "synthetic"
    series_csv: str = ""
    rates_csv: str = ""
    windows: tuple = (30,)
    split_date: str = "2015-12-01"
    stride: int = 1
    seed: int = 0
    n_days: int = 400
    s0: float = 100.0
    mu1: float = 0.05
    mu2: float = 0.05
    sigma1: float = 0.15
    sigma2: float = 0.45
    p_switch: float = 0.02
    start_date: str = "2015-01-01"
    rate: float = 0.03

    def __post_init__(self) -> None:
        if self.source not in ("synthetic", "csv"):
            raise ConfigError(f"data source must be synthetic or csv, got {self.source!r}")
        if not self.windows or any(w < 1 for w in self.windows):
            raise ConfigError("windows must be positive calendar-day counts")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.source == "csv":
            for label, path in (("series_csv", self.series_csv),
                                ("rates_csv", self.rates_csv)):
                if not path:
                    raise ConfigError(f"csv source requires [data] {label}")
                if not os.path.isfile(path):
                    raise ConfigError(f"[data] {label} not found: {path}")


@dataclass(frozen=True)
class ScheduleSection:
    timesteps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02


@dataclass(frozen=True)
class ModelSection:
    base_channels: int = 16
    depth: int = 2
    time_embed_dim: int = 16
    cond_embed_dim: int = 16
    cond_hidden_dim: int = 32
    mode: str = "v"
    input_length: int = 0

    def __post_init__(self) -> None:
        if self.input_length < 0:
            raise ConfigError("input_length must be >= 0 (0 = fit to data)")


@dataclass(frozen=True)
class LossSection:
    lambda_jump: float = 0.1
    lambda_vol: float = 0.1
    lambda_gvol: float = 0.1
    lambda_kurt: float = 0.05
    lambda_drift: float = 0.1
    lambda_pinball: float = 0.05
    lambda_spectral: float = 0.05
    warmup_fraction: float = 0.1
    vol_window: int = 5
    vol_stride: int = 1

    def weights(self) -> LossWeights:
        return LossWeights(
            lambda_jump=self.lambda_jump,
            lambda_vol=self.lambda_vol,
            lambda_gvol=self.lambda_gvol,
            lambda_kurt=self.lambda_kurt,
            lambda_drift=self.lambda_drift,
            lambda_pinball=self.lambda_pinball,
            lambda_spectral=self.lambda_spectral,
            warmup_fraction=self.warmup_fraction,
        )


@dataclass(frozen=True)
class TrainSection:
    steps: int = 500
    batch_size: int = 32
    lr: float = 1e-3
    clip_norm: float = 1.0
    seed: int = 0
    checkpoint_every: int = 0


@dataclass(frozen=True)
class SamplerSection:
    num_steps: int = 50
    eta: float = 0.0
    n_paths: int = 1000
    seed: int = 0


@dataclass(frozen=True)
class ValidateSection:
    n_paths: int = 200
    max_conditions: int = 0

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise ConfigError("[validate] n_paths must be >= 1")
        if self.max_conditions < 0:
            raise ConfigError("[validate] max_conditions must be >= 0")


@dataclass(frozen=True)
class GameSection:
    products: tuple = ("european",)
    levels: tuple = ()
    threshold: float = 0.10
    q_paths: int = 20_000
    p_paths: int = 1_000
    seed: int = 0
    discount: bool = True

    def __post_init__(self) -> None:
        for product in self.products:
            if product not in PRODUCTS:
                raise ConfigError(
                    f"unknown product {product!r}; choose from {', '.join(PRODUCTS)}"
                )
        if any(not math.isfinite(lv) or lv < 0.0 for lv in self.levels):
            raise ConfigError("levels must be finite and >= 0")
        if not math.isfinite(self.threshold) or self.threshold < 0.0:
            raise ConfigError("[game] threshold must be finite and >= 0")
        if self.p_paths < 1:
            raise ConfigError("[game] p_paths must be >= 1")


@dataclass(frozen=True)
class ContractsSection:
    strike_ratio: float = 1.0
    acc_discount: float = 0.9
    acc_ko: float = 1.2
    snow_ko: float = 1.05
    snow_ki: float = 0.8
    snow_coupon: float = 0.15
    snow_notional: float = 1_000_000.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ConfigError(f"[contracts] {name} must be finite, got {value}")

    def build(self, product: str):
        """Instantiate the contract for a product family name."""
        if product == "european":
            return European(strike_ratio=self.strike_ratio)
        if product == "lookback":
            return Lookback(strike_ratio=self.strike_ratio)
        if product == "asian":
            return Asian(strike_ratio=self.strike_ratio)
        if product == "accumulator":
            return Accumulator(discount=self.acc_discount, ko_ratio=self.acc_ko)
        if product == "snowball":
            return Snowball(
                ko_ratio=self.snow_ko,
                ki_ratio=self.snow_ki,
                coupon_pa=self.snow_coupon,
                notional=self.snow_notional,
            )
        raise ConfigError(f"unknown product {product!r}")


@dataclass(frozen=True)
class RunConfig:
    out_dir: str
    threads: int = 1
    data: DataSection = field(default_factory=DataSection)
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    model: ModelSection = field(default_factory=ModelSection)
    loss: LossSection = field(default_factory=LossSection)
    train: TrainSection = field(default_factory=TrainSection)
    sampler: SamplerSection = field(default_factory=SamplerSection)
    validate: ValidateSection = field(default_factory=ValidateSection)
    game: GameSection = field(default_factory=GameSection)
    contracts: ContractsSection = field(default_factory=ContractsSection)

    def __post_init__(self) -> None:
        if not self.out_dir:
            raise ConfigError("[run] out_dir is required")
        if self.threads < 1:
            raise ConfigError("[run] threads must be >= 1")


_KNOWN_SECTIONS = (
    "run", "data", "schedule", "model", "loss", "train",
    "sampler", "validate", "game", "contracts",
)


def parse_config(parser: configparser.ConfigParser) -> RunConfig:
    unknown = sorted(set(parser.sections()) - set(_KNOWN_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")

    run = _Section(parser, "run")
    out_dir = run.get("out_dir", str, _REQUIRED)
    threads = run.get("threads", int, 1)
    run.finish()

    data = _Section(parser, "data")
    data_cfg = DataSection(
        source=data.get("source", str, "synthetic"),
        series_csv=data.get("series_csv", str, ""),
        rates_csv=data.get("rates_csv", str, ""),
        windows=data.get("windows", _parse_ints, (30,)),
        split_date=data.get("split_date", str, "2015-12-01"),
        stride=data.get("stride", int, 1),
        seed=data.get("seed", int, 0),
        n_days=data.get("n_days", int, 400),
        s0=data.get("s0", float, 100.0),
        mu1=data.get("mu1", float, 0.05),
        mu2=data.get("mu2", float, 0.05),
        sigma1=data.get("sigma1", float, 0.15),
        sigma2=data.get("sigma2", float, 0.45),
        p_switch=data.get("p_switch", float, 0.02),
        start_date=data.get("start_date", str, "2015-01-01"),
        rate=data.get("rate", float, 0.03),
    )
    data.finish()

    schedule = _Section(parser, "schedule")
    schedule_cfg = ScheduleSection(
        timesteps=schedule.get("timesteps", int, 1000),
        beta_start=schedule.get("beta_start", float, 1e-4),
        beta_end=schedule.get("beta_end", float, 0.02),
    )
    schedule.finish()

    model = _Section(parser, "model")
    model_cfg = ModelSection(
        base_channels=model.get("base_channels", int, 16),
        depth=model.get("depth", int, 2),
        time_embed_dim=model.get("time_embed_dim", int, 16),
        cond_embed_dim=model.get("cond_embed_dim", int, 16),
        cond_hidden_dim=model.get("cond_hidden_dim", int, 32),
        mode=model.get("mode", str, "v"),
        input_length=model.get("input_length", int, 0),
    )
    model.finish()

    loss = _Section(parser, "loss")
    loss_cfg = LossSection(
        lambda_jump=loss.get("lambda_jump", float, 0.1),
        lambda_vol=loss.get("lambda_vol", float, 0.1),
        lambda_gvol=loss.get("lambda_gvol", float, 0.1),
        lambda_kurt=loss.get("lambda_kurt", float, 0.05),
        lambda_drift=loss.get("lambda_drift", float, 0.1),
        lambda_pinball=loss.get("lambda_pinball", float, 0.05),
        lambda_spectral=loss.get("lambda_spectral", float, 0.05),
        warmup_fraction=loss.get("warmup_fraction", float, 0.1),
        vol_window=loss.get("vol_window", int, 5),
        vol_stride=loss.get("vol_stride", int, 1),
    )
    loss.finish()

    train = _Section(parser, "train")
    train_cfg = TrainSection(
        steps=train.get("steps", int, 500),
        batch_size=train.get("batch_size", int, 32),
        lr=train.get("lr", float, 1e-3),
        clip_norm=train.get("clip_norm", float, 1.0),
        seed=train.get("seed", int, 0),
        checkpoint_every=train.get("checkpoint_every", int, 0),
    )
    train.finish()

    sampler = _Section(parser, "sampler")
    sampler_cfg = SamplerSection(
        num_steps=sampler.get("num_steps", int, 50),
        eta=sampler.get("eta", float, 0.0),
        n_paths=sampler.get("n_paths", int, 1000),
        seed=sampler.get("seed", int, 0),
    )
    sampler.finish()

    validate = _Section(parser, "validate")
    validate_cfg = ValidateSection(
        n_paths=validate.get("n_paths", int, 200),
        max_conditions=validate.get("max_conditions", int, 0),
    )
    validate.finish()

    game = _Section(parser, "game")
    game_cfg = GameSection(
        products=game.get("products", _parse_names, ("european",)),
        levels=game.get("levels", _parse_floats, ()),
        threshold=game.get("threshold", float, 0.10),
        q_paths=game.get("q_paths", int, 20_000),
        p_paths=game.get("p_paths", int, 1_000),
        seed=game.get("seed", int, 0),
        discount=game.get("discount", _parse_bool, True),
    )
    game.finish()

    contracts = _Section(parser, "contracts")
    contracts_cfg = ContractsSection(
        strike_ratio=contracts.get("strike_ratio", float, 1.0),
        acc_discount=contracts.get("acc_discount", float, 0.9),
        acc_ko=contracts.get("acc_ko", float, 1.2),
        snow_ko=contracts.get("snow_ko", float, 1.05),
        snow_ki=contracts.get("snow_ki", float, 0.8),
        snow_coupon=contracts.get("snow_coupon", float, 0.15),
        snow_notional=contracts.get("snow_notional", float, 1_000_000.0),
    )
    contracts.finish()

    return RunConfig(
        out_dir=out_dir,
        threads=threads,
        data=data_cfg,
        schedule=schedule_cfg,
        model=model_cfg,
        loss=loss_cfg,
        train=train_cfg,
        sampler=sampler_cfg,
        validate=validate_cfg,
        game=game_cfg,
        contracts=contracts_cfg,
    )


def load_config(path) -> RunConfig:
    """Parse and validate an INI run configuration."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
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
    sections = [
        ("run", (("out_dir", cfg.out_dir), ("threads", cfg.threads))),
        ("data", (
            ("source", cfg.data.source),
            ("series_csv", cfg.data.series_csv),
            ("rates_csv", cfg.data.rates_csv),
            ("windows", cfg.data.windows),
            ("split_date", cfg.data.split_date),
            ("stride", cfg.data.stride),
            ("seed", cfg.data.seed),
            ("n_days", cfg.data.n_days),
            ("s0", cfg.data.s0),
            ("mu1", cfg.data.mu1),
            ("mu2", cfg.data.mu2),
            ("sigma1", cfg.data.sigma1),
            ("sigma2", cfg.data.sigma2),
            ("p_switch", cfg.data.p_switch),
            ("start_date", cfg.data.start_date),
            ("rate", cfg.data.rate),
        )),
        ("schedule", (
            ("timesteps", cfg.schedule.timesteps),
            ("beta_start", cfg.schedule.beta_start),
            ("beta_end", cfg.schedule.beta_end),
        )),
        ("model", (
            ("base_channels", cfg.model.base_channels),
            ("depth", cfg.model.depth),
            ("time_embed_dim", cfg.model.time_embed_dim),
            ("cond_embed_dim", cfg.model.cond_embed_dim),
            ("cond_hidden_dim", cfg.model.cond_hidden_dim),
            ("mode", cfg.model.mode),
            ("input_length", cfg.model.input_length),
        )),
        ("loss", (
            ("lambda_jump", cfg.loss.lambda_jump),
            ("lambda_vol", cfg.loss.lambda_vol),
            ("lambda_gvol", cfg.loss.lambda_gvol),
            ("lambda_kurt", cfg.loss.lambda_kurt),
            ("lambda_drift", cfg.loss.lambda_drift),
            ("lambda_pinball", cfg.loss.lambda_pinball),
            ("lambda_spectral", cfg.loss.lambda_spectral),
            ("warmup_fraction", cfg.loss.warmup_fraction),
            ("vol_window", cfg.loss.vol_window),
            ("vol_stride", cfg.loss.vol_stride),
        )),
        ("train", (
            ("steps", cfg.train.steps),
            ("batch_size", cfg.train.batch_size),
            ("lr", cfg.train.lr),
            ("clip_norm", cfg.train.clip_norm),
            ("seed", cfg.train.seed),
            ("checkpoint_every", cfg.train.checkpoint_every),
        )),
        ("sampler", (
            ("num_steps", cfg.sampler.num_steps),
            ("eta", cfg.sampler.eta),
            ("n_paths", cfg.sampler.n_paths),
            ("seed", cfg.sampler.seed),
        )),
        ("validate", (
            ("n_paths", cfg.validate.n_paths),
            ("max_conditions", cfg.validate.max_conditions),
        )),
        ("game", (
            ("products", cfg.game.products),
            ("levels", cfg.game.levels),
            ("threshold", cfg.game.threshold),
            ("q_paths", cfg.game.q_paths),
            ("p_paths", cfg.game.p_paths),
            ("seed", cfg.game.seed),
            ("discount", cfg.game.discount),
        )),
        ("contracts", (
            ("strike_ratio", cfg.contracts.strike_ratio),
            ("acc_discount", cfg.contracts.acc_discount),
            ("acc_ko", cfg.contracts.acc_ko),
            ("snow_ko", cfg.contracts.snow_ko),
            ("snow_ki", cfg.contracts.snow_ki),
            ("snow_coupon", cfg.contracts.snow_coupon),
            ("snow_notional", cfg.contracts.snow_notional),
        )),
    ]
    lines = []
    for name, pairs in sections:
        lines.append(f"[{name}]")
        for key, value in pairs:
            lines.append(f"{key} = {_fmt(value)}")
        lines.append("")
    return "\n".join(lines)
