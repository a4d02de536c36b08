"""Run-configuration parsing: defaults, strictness, echo round trip."""

import configparser
from dataclasses import MISSING, fields, is_dataclass
from typing import get_type_hints

import pytest

import pqlab.cli as cli
import pqlab.runconfig as rc
from pqlab.errors import ConfigError
from pqlab.market_paths import GeneratorConfig
from pqlab.objectives import LossConfig
from pqlab.payoffs import Accumulator, Asian, European, Lookback, Snowball
from pqlab.pq_game import GameConfig
from pqlab.sampler import SamplerConfig
from pqlab.training import TrainConfig


def write_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    return path


MINIMAL = "[run]\nout_dir = out\n"


def ini_keys():
    """(section, field, annotation) of every INI key, read from the dataclasses."""
    hints = get_type_hints(rc.RunConfig)
    for f in fields(rc.RunConfig):
        kind = hints[f.name]
        if is_dataclass(kind):
            section_hints = get_type_hints(kind)
            for g in fields(kind):
                yield f.name, g, section_hints[g.name]
        else:
            yield "run", f, kind


FLOAT_KEYS = [(section, f.name) for section, f, kind in ini_keys()
              if kind in (float, tuple[float, ...])]
SEED_KEYS = [(section, f.name) for section, f, _ in ini_keys() if f.name == "seed"]


class TestLoadConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg = rc.load_config(write_config(tmp_path, MINIMAL))
        assert cfg.out_dir == "out"
        assert cfg.threads == 1
        assert cfg.data.source == "synthetic"
        assert cfg.data.windows == (30,)
        assert cfg.schedule.timesteps == 1000
        assert cfg.model.mode == "v"
        assert cfg.train.steps == 500
        assert cfg.sampler.eta == 0.0
        assert cfg.game.products == ("european",)
        assert cfg.game.discount is True
        assert cfg.contracts.snow_notional == 1_000_000.0

    def test_missing_out_dir_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="out_dir"):
            rc.load_config(write_config(tmp_path, "[run]\nthreads = 2\n"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            rc.load_config(tmp_path / "absent.ini")

    def test_unknown_section_rejected(self, tmp_path):
        body = MINIMAL + "[extra]\nx = 1\n"
        with pytest.raises(ConfigError, match="unknown section"):
            rc.load_config(write_config(tmp_path, body))

    def test_unknown_key_rejected(self, tmp_path):
        body = MINIMAL + "[train]\nstpes = 100\n"
        with pytest.raises(ConfigError, match="stpes"):
            rc.load_config(write_config(tmp_path, body))

    def test_bad_cast_reports_key(self, tmp_path):
        body = MINIMAL + "[train]\nsteps = many\n"
        with pytest.raises(ConfigError, match=r"\[train\] steps"):
            rc.load_config(write_config(tmp_path, body))

    def test_malformed_ini_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            rc.load_config(write_config(tmp_path, "no section header\n"))

    def test_windows_and_levels_lists(self, tmp_path):
        body = MINIMAL + "[data]\nwindows = 30, 60,90\n[game]\nlevels = 0.0,0.1, 0.2\n"
        cfg = rc.load_config(write_config(tmp_path, body))
        assert cfg.data.windows == (30, 60, 90)
        assert cfg.game.levels == (0.0, 0.1, 0.2)

    def test_products_parsed_and_validated(self, tmp_path):
        body = MINIMAL + "[game]\nproducts = European, snowball\n"
        cfg = rc.load_config(write_config(tmp_path, body))
        assert cfg.game.products == ("european", "snowball")
        bad = MINIMAL + "[game]\nproducts = swaption\n"
        with pytest.raises(ConfigError, match="swaption"):
            rc.load_config(write_config(tmp_path, bad))

    def test_negative_level_rejected(self, tmp_path):
        body = MINIMAL + "[game]\nlevels = -0.1\n"
        with pytest.raises(ConfigError, match="levels"):
            rc.load_config(write_config(tmp_path, body))

    def test_discount_boolean_forms(self, tmp_path):
        for raw, expected in (("true", True), ("0", False), ("off", False)):
            body = MINIMAL + f"[game]\ndiscount = {raw}\n"
            cfg = rc.load_config(write_config(tmp_path, body))
            assert cfg.game.discount is expected
        body = MINIMAL + "[game]\ndiscount = maybe\n"
        with pytest.raises(ConfigError, match="discount"):
            rc.load_config(write_config(tmp_path, body))

    def test_csv_source_requires_existing_files(self, tmp_path):
        series = tmp_path / "series.csv"
        rates = tmp_path / "rates.csv"
        series.write_text("date,close,is_trading_day\n")
        rates.write_text("date,tenor_days,rate\n")
        body = (
            MINIMAL
            + f"[data]\nsource = csv\nseries_csv = {series}\nrates_csv = {rates}\n"
        )
        cfg = rc.load_config(write_config(tmp_path, body))
        assert cfg.data.source == "csv"
        missing = (
            MINIMAL
            + f"[data]\nsource = csv\nseries_csv = {tmp_path/'nope.csv'}\nrates_csv = {rates}\n"
        )
        with pytest.raises(ConfigError, match="nope.csv"):
            rc.load_config(write_config(tmp_path, missing))

    def test_csv_source_requires_paths(self, tmp_path):
        body = MINIMAL + "[data]\nsource = csv\n"
        with pytest.raises(ConfigError, match="series_csv"):
            rc.load_config(write_config(tmp_path, body))

    def test_bad_source_rejected(self, tmp_path):
        body = MINIMAL + "[data]\nsource = bloomberg\n"
        with pytest.raises(ConfigError, match="bloomberg"):
            rc.load_config(write_config(tmp_path, body))

    def test_inline_comments_stripped(self, tmp_path):
        body = "[run]\nout_dir = out  ; results land here\n[train]\nsteps = 7 # short\n"
        cfg = rc.load_config(write_config(tmp_path, body))
        assert cfg.out_dir == "out"
        assert cfg.train.steps == 7

    def test_threads_validated(self, tmp_path):
        body = "[run]\nout_dir = out\nthreads = 0\n"
        with pytest.raises(ConfigError, match="threads"):
            rc.load_config(write_config(tmp_path, body))


class TestLossWeights:
    def test_bad_weight_rejected_at_load(self, tmp_path):
        body = MINIMAL + "[loss]\nlambda_jump = -0.5\n"
        with pytest.raises(ConfigError, match="lambda_jump"):
            rc.load_config(write_config(tmp_path, body))

    def test_weights_carried_through(self, tmp_path):
        body = MINIMAL + "[loss]\nlambda_jump = 0.5\nwarmup_fraction = 0.25\n"
        cfg = rc.load_config(write_config(tmp_path, body))
        w = cfg.loss
        assert w.lambda_jump == 0.5
        assert w.warmup_fraction == 0.25
        assert w.lambda_vol == 0.1


class TestDataSection:
    def test_generator_fields_are_data_keys_with_the_library_defaults(self):
        data = {f.name: f.default for f in fields(rc.DataSection)}
        for f in fields(GeneratorConfig):
            assert f.name in data, f.name
            assert data[f.name] == f.default, f.name

    def test_generator_config_carries_the_data_keys(self, tmp_path):
        body = MINIMAL + ("[data]\nn_days = 500\ns0 = 50\nmu2 = -0.1\nsigma2 = 0.5\n"
                          "p_switch = 0.1\nstart_date = 2016-03-01\nseed = 4\n")
        cfg = rc.load_config(write_config(tmp_path, body))
        assert cfg.data.generator_config() == GeneratorConfig(
            n_days=500, s0=50.0, mu2=-0.1, sigma2=0.5, p_switch=0.1,
            start_date="2016-03-01")


class TestContracts:
    def test_build_each_product(self, tmp_path):
        cfg = rc.load_config(write_config(tmp_path, MINIMAL))
        built = {p: cfg.contracts.build(p) for p in rc.PRODUCTS}
        assert isinstance(built["european"], European)
        assert isinstance(built["lookback"], Lookback)
        assert isinstance(built["asian"], Asian)
        assert isinstance(built["accumulator"], Accumulator)
        assert isinstance(built["snowball"], Snowball)

    def test_parameters_reach_contracts(self, tmp_path):
        body = MINIMAL + (
            "[contracts]\nstrike_ratio = 1.1\nacc_discount = 0.85\n"
            "snow_coupon = 0.2\nsnow_notional = 500000\n"
        )
        cfg = rc.load_config(write_config(tmp_path, body))
        assert cfg.contracts.build("european").strike_ratio == 1.1
        assert cfg.contracts.build("accumulator").discount == 0.85
        snow = cfg.contracts.build("snowball")
        assert snow.coupon_pa == 0.2
        assert snow.notional == 500000.0

    @pytest.mark.parametrize("product", rc.PRODUCTS)
    def test_section_defaults_are_the_contract_defaults(self, product):
        assert rc.ContractsSection().build(product) == rc.CONTRACTS[product]()

    def test_unknown_product_rejected(self, tmp_path):
        cfg = rc.load_config(write_config(tmp_path, MINIMAL))
        with pytest.raises(ConfigError):
            cfg.contracts.build("variance_swap")


class TestNonFiniteRejected:
    """NaN and inf fail validation at load time, never later in a run."""

    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_ini_value_rejected(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, MINIMAL + f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} = '{value}'"):
            rc.load_config(path)
        assert cli.main(["prepare", str(path)]) == 2
        assert key in capsys.readouterr().err

    def test_every_float_key_is_covered(self):
        assert ("data", "mu1") in FLOAT_KEYS
        assert ("game", "levels") in FLOAT_KEYS

    def test_list_element_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL + "[game]\nlevels = 0.0, nan, 0.2\n")
        with pytest.raises(ConfigError, match=r"\[game\] levels"):
            rc.load_config(path)

    def test_levels_flag_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert cli.main(["game", str(path), "--levels", "0.1,inf"]) == 2
        assert "--levels" in capsys.readouterr().err

    def test_game_config_rejects_nan_threshold(self):
        with pytest.raises(ConfigError):
            GameConfig(threshold=float("nan"))

    @pytest.mark.parametrize("build", [
        lambda v: European(strike_ratio=v),
        lambda v: Lookback(strike_ratio=v),
        lambda v: Asian(strike_ratio=v),
        lambda v: Accumulator(ko_ratio=v),
        lambda v: Accumulator(discount=v),
        lambda v: Snowball(coupon_pa=v),
        lambda v: Snowball(notional=v),
    ])
    def test_contracts_reject_nan(self, build):
        with pytest.raises(ConfigError):
            build(float("nan"))


class TestCheckedAtLoad:
    """Each section class validates its values when the file is loaded."""

    def assert_rejected(self, tmp_path, capsys, body, section, key):
        path = write_config(tmp_path, MINIMAL + body)
        with pytest.raises(ConfigError) as info:
            rc.load_config(path)
        assert str(info.value).startswith(f"[{section}] ")
        assert key in str(info.value)
        assert cli.main(["prepare", str(path)]) == 2
        assert key in capsys.readouterr().err
        return str(info.value)

    def test_every_seed_key_is_covered(self):
        assert sorted(SEED_KEYS) == [("data", "seed"), ("game", "seed"),
                                     ("sampler", "seed"), ("train", "seed")]

    @pytest.mark.parametrize("section,key", SEED_KEYS)
    def test_negative_seed_rejected(self, tmp_path, capsys, section, key):
        self.assert_rejected(tmp_path, capsys, f"[{section}]\n{key} = -1\n", section, key)

    @pytest.mark.parametrize("key", ["split_date", "start_date"])
    def test_malformed_date_rejected(self, tmp_path, capsys, key):
        self.assert_rejected(tmp_path, capsys, f"[data]\n{key} = notadate\n", "data", key)

    @pytest.mark.parametrize("value", ["today", "now", "2016", "2016-01", "20160105",
                                       "2016-01-05T10"])
    @pytest.mark.parametrize("key", ["split_date", "start_date"])
    def test_non_literal_date_rejected(self, tmp_path, capsys, key, value):
        # numpy alone reads these as the wall-clock date, a year, a month,
        # the year 20160105 and an hour
        message = self.assert_rejected(tmp_path, capsys, f"[data]\n{key} = {value}\n",
                                       "data", key)
        assert message.startswith(f"[data] {key} = {value}: ")

    @pytest.mark.parametrize("section,key,value", [
        ("train", "lr", "-1"),
        ("sampler", "eta", "1.5"),
        ("game", "q_paths", "0"),
        ("loss", "vol_stride", "0"),
        ("loss", "vol_window", "0"),
        ("model", "mode", "foo"),
    ])
    def test_out_of_range_value_rejected(self, tmp_path, capsys, section, key, value):
        self.assert_rejected(tmp_path, capsys, f"[{section}]\n{key} = {value}\n",
                             section, key)

    @pytest.mark.parametrize("key,value", [
        ("products", ""),
        ("products", "european, european"),
        ("products", "Asian, european, asian"),
        ("levels", "0.1, 0.1"),
        ("levels", "0.0, 0.2, -0.0"),
    ])
    def test_empty_or_repeated_game_list_rejected(self, tmp_path, capsys, key, value):
        # an empty book values nothing, a repeated product values its book
        # twice, and a repeated level writes two columns of one name
        self.assert_rejected(tmp_path, capsys, f"[game]\n{key} = {value}\n", "game", key)

    @pytest.mark.parametrize("section,key,value,message", [
        ("schedule", "timesteps", "0", "T must be at least 1"),
        ("schedule", "beta_end", "2", "beta_end < 1"),
        ("schedule", "beta_start", "0.5", "beta_start <= beta_end"),
        ("model", "depth", "0", "depth must be at least 1"),
        ("model", "base_channels", "0", "base_channels must be positive"),
        ("model", "time_embed_dim", "3", "time_embed_dim must be a positive even"),
        ("model", "input_length", "18", "input_length must be a positive multiple of 4"),
        ("contracts", "strike_ratio", "-1", "strike_ratio must be finite and positive"),
        ("contracts", "acc_discount", "1.5", "discount must lie in (0, 1)"),
        ("contracts", "acc_ko", "0.5", "ko_ratio must be finite and exceed 1"),
        ("contracts", "snow_ki", "2.0", "need ki_ratio < 1 < ko_ratio"),
        ("contracts", "snow_notional", "0", "notional must be positive"),
        ("data", "n_days", "1", "generator needs at least 2 days"),
        ("data", "sigma1", "-0.1", "volatilities must be finite and non-negative"),
        ("data", "p_switch", "2", "p_switch must be a probability"),
        ("data", "s0", "-5", "s0 must be finite and positive"),
    ])
    def test_library_rule_rejected(self, tmp_path, capsys, section, key, value, message):
        # the INI key and the library's own message, which names its argument
        text = self.assert_rejected(tmp_path, capsys, f"[{section}]\n{key} = {value}\n",
                                    section, key)
        if section == "model":  # its messages already start with the key
            assert message in text
        else:
            named, _, library = text.partition(": ")
            prefix = f"[{section}] {key} = "
            assert named.startswith(prefix)
            assert float(named[len(prefix):]) == float(value)
            assert message in library

    def test_rule_broken_only_in_combination_names_every_changed_key(self, tmp_path):
        # each value is valid on the defaults; together beta_start > beta_end
        body = "[schedule]\ntimesteps = 50\nbeta_start = 0.015\nbeta_end = 0.01\n"
        with pytest.raises(ConfigError) as info:
            rc.load_config(write_config(tmp_path, MINIMAL + body))
        assert str(info.value) == (
            "[schedule] timesteps = 50, beta_start = 0.015, beta_end = 0.01: "
            "need 0 < beta_start <= beta_end < 1")

    def test_only_the_key_at_fault_is_named(self, tmp_path):
        body = "[contracts]\nstrike_ratio = 1.1\nsnow_ki = 2.0\nsnow_coupon = 0.2\n"
        with pytest.raises(ConfigError) as info:
            rc.load_config(write_config(tmp_path, MINIMAL + body))
        assert str(info.value) == "[contracts] snow_ki = 2.0: need ki_ratio < 1 < ko_ratio"

    def test_sections_are_the_library_classes(self, tmp_path):
        cfg = rc.load_config(write_config(tmp_path, MINIMAL))
        assert type(cfg.loss) is LossConfig
        assert type(cfg.train) is TrainConfig
        assert type(cfg.sampler) is SamplerConfig
        assert type(cfg.game) is GameConfig


# The echo of MINIMAL: every section, key and default in declaration order.
# The section classes live in several modules; reordering a field in any of
# them reorders config.ini, so the text is pinned here.
MINIMAL_ECHO = "\n".join([
    "[run]", "out_dir = out", "threads = 1", "",
    "[data]", "source = synthetic", "series_csv = ", "rates_csv = ", "windows = 30",
    "split_date = 2015-12-01", "stride = 1", "seed = 0", "n_days = 400",
    "s0 = 100.0", "mu1 = 0.05", "mu2 = 0.05", "sigma1 = 0.15", "sigma2 = 0.45",
    "p_switch = 0.02", "start_date = 2015-01-01", "rate = 0.03", "",
    "[schedule]", "timesteps = 1000", "beta_start = 0.0001", "beta_end = 0.02", "",
    "[model]", "base_channels = 16", "depth = 2", "time_embed_dim = 16",
    "cond_embed_dim = 16", "cond_hidden_dim = 32", "mode = v", "input_length = 0", "",
    "[loss]", "lambda_jump = 0.1", "lambda_vol = 0.1", "lambda_gvol = 0.1",
    "lambda_kurt = 0.05", "lambda_drift = 0.1", "lambda_pinball = 0.05",
    "lambda_spectral = 0.05", "warmup_fraction = 0.1", "vol_window = 5",
    "vol_stride = 1", "",
    "[train]", "steps = 500", "batch_size = 32", "lr = 0.001", "clip_norm = 1.0",
    "seed = 0", "checkpoint_every = 0", "",
    "[sampler]", "num_steps = 50", "eta = 0.0", "n_paths = 1000", "seed = 0", "",
    "[validate]", "n_paths = 200", "max_conditions = 0", "",
    "[game]", "products = european", "levels = ", "threshold = 0.1", "q_paths = 20000",
    "p_paths = 1000", "seed = 0", "discount = true", "",
    "[contracts]", "strike_ratio = 1.0", "acc_discount = 0.9", "acc_ko = 1.2",
    "snow_ko = 1.05", "snow_ki = 0.8", "snow_coupon = 0.15",
    "snow_notional = 1000000.0", "",
])


class TestResolvedText:
    def test_minimal_echo_pinned(self, tmp_path):
        cfg = rc.load_config(write_config(tmp_path, MINIMAL))
        assert rc.resolved_text(cfg) == MINIMAL_ECHO

    def test_round_trip_identity(self, tmp_path):
        body = MINIMAL + (
            "[data]\nwindows = 20,40\nsigma2 = 0.5\n"
            "[model]\nmode = eps\nbase_channels = 8\n"
            "[train]\nsteps = 123\nlr = 0.0005\n"
            "[game]\nproducts = asian,snowball\nlevels = 0.0,0.01\ndiscount = false\n"
        )
        cfg = rc.load_config(write_config(tmp_path, body))
        echo = rc.resolved_text(cfg)
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(echo)
        again = rc.parse_config(parser)
        assert again == cfg

    def test_every_key_round_trips(self, tmp_path):
        series = tmp_path / "series.csv"
        rates = tmp_path / "rates.csv"
        series.write_text("date,close,is_trading_day\n")
        rates.write_text("date,tenor_days,rate\n")
        # keys whose values are constrained; every other key is derived
        # from its field's default and annotation
        constrained = {"source": "csv", "series_csv": str(series),
                       "rates_csv": str(rates), "products": ("asian", "snowball"),
                       "split_date": "2016-01-04", "start_date": "2015-02-02",
                       "mode": "eps", "time_embed_dim": 18, "input_length": 16,
                       "acc_discount": 0.8, "snow_ki": 0.7}
        expected = {}
        for section, f, kind in ini_keys():
            default = "out" if f.default is MISSING else f.default
            if f.name in constrained:
                value = constrained[f.name]
            elif kind is bool:
                value = not default
            elif kind is int:
                value = default + 1
            elif kind is float:
                value = default + 0.5
            elif kind is str:
                value = default + "x"
            elif kind == tuple[int, ...]:
                value = default + (default[-1] + 1,)
            else:
                assert kind == tuple[float, ...], (section, f.name, kind)
                value = default + (0.25,)
            assert value != default
            expected.setdefault(section, {})[f.name] = value

        def fmt(value):
            if isinstance(value, tuple):
                return ",".join(fmt(v) for v in value)
            if isinstance(value, bool):
                return "true" if value else "false"
            return repr(value) if isinstance(value, float) else str(value)

        body = "".join(
            f"[{section}]\n" + "".join(f"{k} = {fmt(v)}\n" for k, v in keys.items())
            for section, keys in expected.items()
        )
        cfg = rc.load_config(write_config(tmp_path, body))
        for section, keys in expected.items():
            holder = cfg if section == "run" else getattr(cfg, section)
            for key, value in keys.items():
                assert getattr(holder, key) == value, (section, key)
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(rc.resolved_text(cfg))
        assert rc.parse_config(parser) == cfg

    def test_echo_is_stable(self, tmp_path):
        cfg = rc.load_config(write_config(tmp_path, MINIMAL))
        assert rc.resolved_text(cfg) == rc.resolved_text(cfg)

    def test_echo_contains_every_section(self, tmp_path):
        cfg = rc.load_config(write_config(tmp_path, MINIMAL))
        echo = rc.resolved_text(cfg)
        for name in ("run", "data", "schedule", "model", "loss", "train",
                     "sampler", "validate", "game", "contracts"):
            assert f"[{name}]" in echo
