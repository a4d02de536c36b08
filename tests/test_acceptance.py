"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Each test prints ``criterion N: PASS`` (or FAIL) so a plain ``pytest -s``
run shows the checklist.  Criteria 9 and 10 are end-to-end soft targets:
they train a toy generator on synthetic two-regime data with pinned seeds
and assert distribution-match and game-monotonicity thresholds.  The
thresholds are stochastic claims made deterministic by the fixed seeds;
rerunning the suite reproduces the identical numbers.
"""

import contextlib
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

import pqlab.cli as cli
import pqlab.denoiser as dn
import pqlab.objectives as obj
import pqlab.path_stats as ps
import pqlab.pq_game as game
import pqlab.q_pricer as qp
from pqlab.diffusion import build_schedule, forward_diffuse
from pqlab.market_paths import ConditionVector, PathSlice
from pqlab.payoffs import (
    Accumulator,
    European,
    Snowball,
    contract_cashflows,
    linear_calendar_fraction,
)
from pqlab.sampler import ddim_trajectory, step_subsequence


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {name}")
        raise
    print(f"criterion {number}: PASS - {name}")


def black_scholes_call(s0, k, r, sigma, t):
    d1 = (math.log(s0 / k) + (r + 0.5 * sigma * sigma) * t) / (sigma * math.sqrt(t))
    d2 = d1 - sigma * math.sqrt(t)
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))  # noqa: E731
    return s0 * cdf(d1) - k * math.exp(-r * t) * cdf(d2)


def test_criterion_01_q_pricer_black_scholes_oracle():
    with criterion(1, "Q pricer within 3 MC std errors of Black-Scholes"):
        assert black_scholes_call(100.0, 100.0, 0.05, 0.2, 1.0) == pytest.approx(
            10.4506, abs=5e-4
        )
        for sigma in (0.2, 0.1, 0.4):
            params = qp.GbmParams(
                s0=100.0, r=0.05, sigma=sigma, n_days=252,
                n_paths=200_000, seed=123,
            )
            start = time.perf_counter()
            est = qp.price(European(strike_ratio=1.0), params)
            elapsed = time.perf_counter() - start
            ref = black_scholes_call(100.0, 100.0, 0.05, sigma, 1.0)
            assert abs(est.value - ref) < 3.0 * est.std_error, sigma
            assert elapsed < 10.0, sigma


def test_criterion_02_forward_process_statistics():
    with criterion(2, "forward-process mean/variance at t in {1, T/2, T}"):
        sched = build_schedule(1000, 1e-4, 0.02)
        rng = np.random.default_rng(22)
        x0_row = rng.normal(size=4)
        draws = 100_000
        x0 = np.tile(x0_row, (draws, 1))
        for t in (1, 500, 1000):
            eps = rng.standard_normal((draws, 4))
            x_t = forward_diffuse(x0, np.full(draws, t), eps, sched)
            alpha_bar = float(sched.alpha_bar_at(t))
            mean_err = np.abs(x_t.mean(axis=0) - math.sqrt(alpha_bar) * x0_row)
            var_rel = np.abs(x_t.var(axis=0) / (1.0 - alpha_bar) - 1.0)
            assert mean_err.max() < 0.01, t
            assert var_rel.max() < 0.01, t


def test_criterion_03_ddim_exact_oracle_recovery():
    with criterion(3, "DDIM recovers x0 exactly from a true-noise oracle"):
        sched = build_schedule(1000, 1e-4, 0.02)
        rng = np.random.default_rng(33)
        x0 = rng.normal(size=(2, 16))

        def true_eps(x_t, t):
            alpha_bar = float(sched.alpha_bar_at(t))
            return (x_t - math.sqrt(alpha_bar) * x0) / math.sqrt(1.0 - alpha_bar)

        x_start = rng.standard_normal(x0.shape)
        start = time.perf_counter()
        for k in (1000, 50):
            steps = step_subsequence(1000, k)
            out = ddim_trajectory(true_eps, x_start, sched, steps, eta=0.0)
            assert np.abs(out - x0).max() < 1e-6, k
        assert time.perf_counter() - start < 1.0


def test_criterion_04_gradients_match_finite_differences():
    with criterion(4, "backprop vs central differences on a small denoiser"):
        config = dn.DenoiserConfig(
            input_length=4, base_channels=2, depth=1,
            time_embed_dim=2, cond_embed_dim=2, cond_hidden_dim=2,
        )
        assert dn.param_count(config) <= 500
        params = dn.init_params(config, seed=40)
        rng = np.random.default_rng(41)
        params["head.w"] = 0.3 * rng.normal(size=params["head.w"].shape)
        params["head.b"] = 0.1 * rng.normal(size=params["head.b"].shape)
        state = dn.init_bn_state(config)
        x = rng.normal(size=(2, 1, config.input_length))
        t = rng.integers(1, 100, size=2)
        c = rng.normal(size=(2, config.cond_dim))
        target = rng.normal(size=x.shape)

        def loss_fn(pred):
            diff = pred - target
            return float(np.sum(diff * diff) / diff.size), 2.0 * diff / diff.size

        _, grads, _ = dn.gradient(params, state, (x, t, c), loss_fn, config)
        spec = dn.param_spec(config)
        analytic = dn.flatten_params(grads, spec)
        flat = dn.flatten_params(params, spec)
        fd = np.zeros_like(flat)
        h = 1e-5
        for k in range(flat.size):
            bumped = flat.copy()
            bumped[k] = flat[k] + h
            up, _, _ = dn.forward(
                dn.unflatten_params(bumped, spec), state, x, t, c, config,
                training=True,
            )
            bumped[k] = flat[k] - h
            down, _, _ = dn.forward(
                dn.unflatten_params(bumped, spec), state, x, t, c, config,
                training=True,
            )
            fd[k] = (loss_fn(up)[0] - loss_fn(down)[0]) / (2.0 * h)
        # floor at 1e-6: central differences carry ~1e-11 roundoff noise,
        # so exactly-zero gradients would otherwise dominate the ratio
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-6)
        assert (np.abs(analytic - fd) / denom).max() < 1e-4


def test_criterion_05_loss_suite_identities():
    with criterion(5, "loss terms vanish at truth; pinball/kurtosis/mask oracles"):
        rng = np.random.default_rng(55)
        x0 = rng.normal(size=(3, 12))
        mask = np.zeros((3, 12), dtype=bool)
        mask[0, :12] = mask[1, :9] = mask[2, :6] = True
        breakdown = obj.total_loss(
            x0, x0, x0, x0, mask, step=1000, total_steps=1000,
        )
        for field in ("core", "jump", "vol", "gvol", "kurt",
                      "drift", "pinball", "spectral", "total"):
            assert getattr(breakdown, field) == 0.0, field

        assert obj.pinball_loss([1.0], [0.0], 0.99) == pytest.approx(0.99)
        assert obj.pinball_loss([0.0], [1.0], 0.99) == pytest.approx(0.01)
        assert obj.pinball_loss([1.0], [0.0], 0.01) == pytest.approx(0.01)
        assert obj.pinball_loss([0.0], [1.0], 0.01) == pytest.approx(0.99)

        assert obj.kurtosis([-1.0, 1.0, -1.0, 1.0]) == -2.0

        pred = rng.normal(size=(3, 12))
        x0_pred = rng.normal(size=(3, 12))
        base = obj.total_loss(
            pred, x0, x0_pred, x0, mask, step=1000, total_steps=1000,
        )
        noisy_pred = pred.copy()
        noisy_x0_pred = x0_pred.copy()
        noisy_pred[~mask] += 1e6
        noisy_x0_pred[~mask] -= 1e6
        bumped = obj.total_loss(
            noisy_pred, x0, noisy_x0_pred, x0, mask, step=1000, total_steps=1000,
        )
        for field in ("core", "jump", "vol", "gvol", "kurt",
                      "drift", "pinball", "spectral", "total"):
            assert abs(getattr(bumped, field) - getattr(base, field)) <= 1e-12, field


def test_criterion_06_payoff_hand_oracles():
    with criterion(6, "accumulator and snowball hand-traced cash flows"):
        schedule = contract_cashflows(
            Accumulator(discount=0.9, ko_ratio=1.2), [95.0, 85.0, 121.0], 100.0
        )
        assert schedule.days.tolist() == [1, 2, 3]
        assert schedule.amounts.tolist() == [5.0, -10.0, 31.0]
        assert schedule.termination_day == 3
        assert schedule.terminated_early

        spec = Snowball(ko_ratio=1.05, ki_ratio=0.9, coupon_pa=0.15, notional=1e6)
        cal = linear_calendar_fraction(20, 30.0 / 365.0)

        def snowball_payoff(path, s0, spec, cal):
            schedule = contract_cashflows(spec, path, s0, cal)
            assert schedule.days.tolist() == [schedule.termination_day]
            return schedule.amounts[0], schedule.termination_day

        quiet = np.full(20, 100.0)
        amount, day = snowball_payoff(quiet, 100.0, spec, cal)
        assert amount == pytest.approx(1e6 * 0.15 * 30.0 / 365.0, abs=1e-6)
        assert amount == pytest.approx(12_328.77, abs=0.01)
        assert day == 20

        ki_loss = np.full(20, 95.0)
        ki_loss[4] = 85.0
        ki_loss[-1] = 80.0
        amount, day = snowball_payoff(ki_loss, 100.0, spec, cal)
        assert amount == pytest.approx(-200_000.0, abs=1e-6)
        assert day == 20

        recovered = np.full(20, 95.0)
        recovered[4] = 85.0
        recovered[-1] = 100.0
        amount, _ = snowball_payoff(recovered, 100.0, spec, cal)
        assert amount == pytest.approx(0.0, abs=1e-6)


def _game_slice(seed: int, n: int = 20) -> PathSlice:
    rng = np.random.default_rng([seed, 0xACC])
    returns = 0.2 / math.sqrt(252.0) * rng.standard_normal(n)
    condition = ConditionVector(
        sigma_hist=0.2, r=0.03, t_calendar=2.0 * n / 365.0,
        t_trading=n / 252.0, n_trading=n,
    )
    return PathSlice(
        s0=100.0,
        log_returns=returns,
        condition=condition,
        window_calendar_days=2 * n,
        start_date=np.datetime64("2021-01-04") + seed,
    )


def test_criterion_07_game_invariants_and_tables():
    with criterion(7, "game zero-sum, P=Q silence, monotone trades, level grids"):
        slices = [_game_slice(i) for i in range(6)]
        config = game.GameConfig(q_paths=512, seed=7)

        (values,) = game.value_slices(slices, [European()], game.gbm_p_source, config)
        identical = game.run_game(values, European(), config=config)
        assert all(o.report.trades == 0 for o in identical)

        def inflated(s, params):
            return s.s0 + 3.0 * (qp.simulate_gbm(params) - s.s0)

        (values,) = game.value_slices(slices, [European()], inflated, config)
        outcomes = game.run_game(values, European(), config=config)
        trades = [o.report.trades for o in outcomes]
        assert trades == sorted(trades, reverse=True)
        for outcome in outcomes:
            for record in outcome.records:
                assert record.pnl_p + record.pnl_q == 0.0

        euro_table = game.format_game_table([o.report for o in outcomes])
        euro_lines = euro_table.splitlines()
        assert len(euro_lines) == 1 + 5
        assert [line.split()[0] for line in euro_lines[1:]] == [
            "0", "0.1", "0.2", "0.3", "0.4"
        ]

        snow = Snowball()
        (values,) = game.value_slices(slices, [snow], game.gbm_p_source, config)
        snow_outcomes = game.run_game(values, snow, config=config)
        snow_table = game.format_game_table([o.report for o in snow_outcomes])
        snow_lines = snow_table.splitlines()
        assert len(snow_lines) == 1 + 5
        assert [line.split()[0] for line in snow_lines[1:]] == [
            "0", "0.005", "0.01", "0.015", "0.02"
        ]


def test_criterion_08_statistics_oracles():
    with criterion(8, "KS, Wasserstein and QQ closed-form oracles"):
        d, _ = ps.ks_two_sample([1.0, 2.0], [3.0, 4.0])
        assert d == 1.0
        d, p = ps.ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert d == 0.0 and p == 1.0
        assert ps.wasserstein1([0.0, 1.0], [0.5, 1.5]) == pytest.approx(0.5)
        rng = np.random.default_rng(88)
        a = rng.normal(size=64)
        assert ps.qq_r_squared(a, 2.0 * a + 3.0) == pytest.approx(1.0, abs=1e-12)


TOY_CONFIG = """\
[run]
out_dir = {out}

[data]
source = synthetic
n_days = 700
windows = 30
split_date = 2016-06-01
seed = 11

[schedule]
timesteps = 200

[model]
base_channels = 16
depth = 2
time_embed_dim = 16
cond_embed_dim = 16
cond_hidden_dim = 32
mode = v

[train]
steps = 600
batch_size = 64
lr = 0.001
seed = 7

[sampler]
num_steps = 20
eta = 0.0
n_paths = 200
seed = 21

[validate]
n_paths = 200
max_conditions = 0

[game]
products = european
levels = 0.0,0.4
q_paths = 2000
p_paths = 200
seed = 17
"""


@pytest.fixture(scope="session")
def toy_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    out = os.path.join(str(root), "out")
    ini = os.path.join(str(root), "run.ini")
    with open(ini, "w") as fh:
        fh.write(TOY_CONFIG.format(out=out))
    assert cli.main(["prepare", ini]) == 0
    start = time.perf_counter()
    assert cli.main(["train", ini]) == 0
    train_seconds = time.perf_counter() - start
    return SimpleNamespace(ini=ini, out=out, train_seconds=train_seconds)


def read_metric_table(path):
    rows = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "metric,mean,std"
    for line in lines[1:]:
        metric, mean, std = line.split(",")
        rows[metric] = (float(mean), float(std))
    return rows


def test_criterion_09_toy_training_matches_held_out_distribution(toy_run):
    with criterion(9, "toy model beats KS p>0.05 and QQ R2>0.8 on held-out data"):
        assert toy_run.train_seconds < 600.0
        assert cli.main(["validate", toy_run.ini]) == 0
        table = read_metric_table(os.path.join(toy_run.out, "table_5_1.csv"))
        assert table["ks_pvalue"][0] > 0.05
        assert table["qq_r2"][0] > 0.8


def read_cum_pnl(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("level,cum_pnl")
    return float(lines[1].split(",")[1])


def test_criterion_10_game_pnl_no_worse_at_zero_greediness(toy_run):
    with criterion(10, "European cum P&L at greediness 0 >= at 0.4"):
        assert cli.main(["game", toy_run.ini]) == 0
        pnl_0 = read_cum_pnl(os.path.join(toy_run.out, "game_european_0.0.csv"))
        pnl_4 = read_cum_pnl(os.path.join(toy_run.out, "game_european_0.4.csv"))
        assert pnl_0 >= pnl_4


RERUN_CONFIG = """\
[run]
out_dir = {out}

[data]
source = synthetic
n_days = 400
windows = 30
split_date = 2015-12-01
seed = 3

[schedule]
timesteps = 60

[model]
base_channels = 4
depth = 2
time_embed_dim = 4
cond_embed_dim = 4
cond_hidden_dim = 8
mode = v

[train]
steps = 10
batch_size = 8
seed = 1

[sampler]
num_steps = 12
n_paths = 16
seed = 5

[validate]
n_paths = 40
max_conditions = 4

[game]
products = european
levels = 0.0,0.2
q_paths = 400
p_paths = 32
seed = 9
"""


def test_criterion_11_command_reruns_are_byte_identical(tmp_path):
    with criterion(11, "prepare/train/validate/game reruns byte-identical"):
        out = os.path.join(str(tmp_path), "out")
        ini = os.path.join(str(tmp_path), "run.ini")
        with open(ini, "w") as fh:
            fh.write(RERUN_CONFIG.format(out=out))

        def run_all():
            for argv in (["prepare", ini], ["train", ini],
                         ["validate", ini], ["game", ini]):
                assert cli.main(argv) == 0, argv

        run_all()
        artifacts = (
            "config.ini", "slices.npz", "dataset.manifest", "loss_log.csv",
            "train_trace.csv", "checkpoint.npz", "table_5_1.csv", "validate_conditions.csv",
            "game_european_0.0.csv",
            "game_european_0.2.csv", "game_european.txt", "game_european_slices.csv",
        )
        before = {}
        for name in artifacts:
            with open(os.path.join(out, name), "rb") as fh:
                before[name] = fh.read()
        run_all()
        for name in artifacts:
            with open(os.path.join(out, name), "rb") as fh:
                assert fh.read() == before[name], name
