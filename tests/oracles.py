"""Independent closed-form oracles and reference loops used only by the test suite."""

import math
from collections import Counter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.stats import norm

from pqlab import denoiser as dn
from pqlab import diffusion, nn, objectives
from pqlab.errors import ConfigError, DataError
from pqlab import market_paths as mp
from pqlab.market_paths import TRADING_DAYS_PER_YEAR
from pqlab.payoffs import (Accumulator, Asian, CashFlowSchedule, European, Lookback, PathFlows,
                           Snowball)


def black_scholes_call(s0, k, r, sigma, t):
    """Standard Black-Scholes European call value."""
    if sigma <= 0.0:
        return max(s0 - k * math.exp(-r * t), 0.0)
    d1 = (math.log(s0 / k) + (r + 0.5 * sigma**2) * t) / (sigma * math.sqrt(t))
    d2 = d1 - sigma * math.sqrt(t)
    return s0 * norm.cdf(d1) - k * math.exp(-r * t) * norm.cdf(d2)


def estimate_reference(values, chunk_paths):
    """Mean and standard error as a per-element Python loop over the values.

    Reference for ``q_pricer._estimate``: returns (mean, std_error).  The
    squares are taken about c, the mean of the first ``chunk_paths`` values
    (so c is the mean itself when there are no more), and
    var = (S - n (m - c)^2) / (n - 1), with S their correctly rounded sum.
    """
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        first = values[:chunk_paths]
        shift = math.fsum(first) / len(first)
        # d * d is one correctly rounded product; d ** 2 goes through the C
        # library's pow, which on some platforms is 1 ULP off
        squares = math.fsum((v - shift) * (v - shift) for v in values)
        var = (squares - n * ((mean - shift) * (mean - shift))) / (n - 1)
        return mean, math.sqrt(max(var, 0.0) / n)
    return mean, 0.0


def simulate_gbm_reference(params, chunk_paths):
    """Out-of-place GBM chunks, one normal stream [seed, chunk, day] per day.

    Reference for ``q_pricer.simulate_gbm``: a chunk's day d is a standard
    normal draw of one value per path from its own stream; the Brownian
    walk W is their cumulative sum over days, and the closes are
    s0 * exp(vol * W_k + drift * k) on days k = 1..n_days.
    """
    dt = 1.0 / 252.0
    vol = params.sigma * math.sqrt(dt)
    drift = (params.r - 0.5 * params.sigma**2) * dt
    days = np.arange(1, params.n_days + 1)[:, None]
    chunks = []
    done = 0
    chunk = 0
    while done < params.n_paths:
        rows = min(chunk_paths, params.n_paths - done)
        z = np.array([np.random.default_rng([params.seed, chunk, day]).standard_normal(rows)
                      for day in range(params.n_days)])
        walk = np.cumsum(z, axis=0)
        chunks.append((params.s0 * np.exp(vol * walk + drift * days)).T)
        done += rows
        chunk += 1
    return np.vstack(chunks)


# ---------------------------------------------------------------------------
# per-path contract traces: the oracle for the vectorised kernels in
# ``pqlab.payoffs``.  A path is the 1-d vector of closes after inception.


def _check_path(path):
    path = np.asarray(path, dtype=float)
    if path.ndim != 1 or path.size == 0:
        raise ValueError("path must be a non-empty 1-d close vector")
    return path


def european_payoff(path, s0, strike_ratio=1.0):
    """max(S_T - K, 0) with K = strike_ratio * s0."""
    path = _check_path(path)
    return max(float(path[-1]) - strike_ratio * s0, 0.0)


def lookback_payoff(path, s0, strike_ratio=1.0):
    """max(max_t S_t - K, 0) with K = strike_ratio * s0."""
    path = _check_path(path)
    return max(float(path.max()) - strike_ratio * s0, 0.0)


def asian_payoff(path, s0, strike_ratio=1.0):
    """max(mean_t S_t - K, 0) with K = strike_ratio * s0; closes add in day order."""
    path = _check_path(path).tolist()
    total = path[0]
    for close in path[1:]:
        total += close
    return max(total / len(path) - strike_ratio * s0, 0.0)


def accumulator_cashflows(path, s0, spec):
    """Daily CF_t = q_t * (S_t - K_d); the KO day settles, then stops."""
    path = _check_path(path)
    k_d = spec.discount * s0
    ko_level = spec.ko_ratio * s0
    days, amounts = [], []
    termination_day, terminated = len(path), False
    for t, s in enumerate(path, start=1):
        q = 2.0 if s < k_d else 1.0
        days.append(t)
        amounts.append(q * (s - k_d))
        if s >= ko_level:
            termination_day, terminated = t, True
            break
    return CashFlowSchedule(
        np.array(days), np.array(amounts), termination_day, terminated
    )


def snowball_payoff(path, s0, spec, cal_frac):
    """One snowball as (amount, termination_day).

    cal_frac[t-1] is the elapsed calendar-year fraction at trading day t,
    so cal_frac[-1] is the contract's full calendar maturity.
    """
    path = _check_path(path)
    n = len(path)
    ko_level = spec.ko_ratio * s0
    ki_level = spec.ki_ratio * s0
    ki_hit = False
    for t, s in enumerate(path, start=1):
        if s < ki_level:
            ki_hit = True
        if (t % spec.ko_obs_stride == 0 or t == n) and s >= ko_level:
            return spec.notional * spec.coupon_pa * float(cal_frac[t - 1]), t
    if ki_hit:
        loss = min(float(path[-1]) / s0 - 1.0, 0.0)
        return spec.notional * max(loss, -1.0), n
    return spec.notional * spec.coupon_pa * float(cal_frac[n - 1]), n


def classify_snowball(path, s0, spec):
    """Outcome tag: 'ko', 'ki_loss', 'ki_par', or 'full_coupon'."""
    path = _check_path(path)
    n = len(path)
    ko_level = spec.ko_ratio * s0
    ki_level = spec.ki_ratio * s0
    ki_hit = False
    for t, s in enumerate(path, start=1):
        if s < ki_level:
            ki_hit = True
        if (t % spec.ko_obs_stride == 0 or t == n) and s >= ko_level:
            return "ko"
    if ki_hit:
        return "ki_loss" if float(path[-1]) < s0 else "ki_par"
    return "full_coupon"


def cashflow_schedule(contract, path, s0, cal_frac=None):
    """The schedule of any contract on one path, by the traces above."""
    path = _check_path(path)
    n = len(path)
    if isinstance(contract, Accumulator):
        return accumulator_cashflows(path, s0, contract)
    if isinstance(contract, Snowball):
        amount, day = snowball_payoff(path, s0, contract, cal_frac)
        return CashFlowSchedule(np.array([day]), np.array([amount]), day, day < n)
    payoff = {European: european_payoff, Lookback: lookback_payoff,
              Asian: asian_payoff}[type(contract)]
    amount = payoff(path, s0, contract.strike_ratio)
    return CashFlowSchedule(np.array([n]), np.array([amount]), n, False)


# ---------------------------------------------------------------------------
# whole-matrix kernels written with row reductions and out-of-place
# products: the oracle that the in-place lookback, accumulator and snowball
# ``_flows`` of ``pqlab.payoffs`` keep every bit.  Same (N, L) closes in,
# same PathFlows out.


def lookback_flows_reference(spec, paths, s0):
    """Fixed-strike lookback call via a row-wise ``max``."""
    n, length = paths.shape
    payoff = np.maximum(paths.max(axis=1) - spec.strike_ratio * s0, 0.0)
    return PathFlows(np.array([[length]]), payoff[:, None],
                     np.full(n, length), np.zeros(n, dtype=bool))


def accumulator_flows_reference(spec, paths, s0):
    """Accumulator flows from ``any`` + ``argmax`` and out-of-place products."""
    days = np.arange(1, paths.shape[1] + 1)[None, :]
    k_d = spec.discount * s0
    amounts = np.where(paths < k_d, 2.0, 1.0) * (paths - k_d)
    hit = paths >= spec.ko_ratio * s0
    knocked_out = hit.any(axis=1)
    stop = np.where(knocked_out, hit.argmax(axis=1) + 1, paths.shape[1])
    return PathFlows(days, amounts * (days <= stop[:, None]), stop, knocked_out)


def snowball_flows_reference(spec, paths, s0, cal_frac):
    """Snowball flows with KO read on every column and masked to the observed days."""
    length = paths.shape[1]
    day = np.arange(1, length + 1)
    observed = (day % spec.ko_obs_stride == 0) | (day == length)
    ko_hit = (paths >= spec.ko_ratio * s0) & observed
    knocked_out = ko_hit.any(axis=1)
    stop = np.where(knocked_out, ko_hit.argmax(axis=1) + 1, length)
    coupon = spec.notional * spec.coupon_pa * cal_frac[stop - 1]
    knocked_in = (paths < spec.ki_ratio * s0).any(axis=1)
    downside = spec.notional * np.maximum(
        np.minimum(paths[:, -1] / s0 - 1.0, 0.0), -1.0
    )
    amount = np.where(knocked_out | ~knocked_in, coupon, downside)
    return PathFlows(stop[:, None], amount[:, None], stop, stop < length)


def synthesize_series_reference(cfg, seed):
    """``market_paths.synthesize_series`` as per-day loops over the same draws."""
    rng = np.random.default_rng([int(seed), 0xDA7A])
    dates = mp.parse_date(cfg.start_date) + np.arange(cfg.n_days)
    weekday = (dates.astype("datetime64[D]").view("int64") - 4) % 7  # 0=Mon
    is_weekday = weekday < 5
    weekday_no = np.cumsum(is_weekday)
    is_holiday = is_weekday & (weekday_no % mp._HOLIDAY_EVERY_N_WEEKDAYS == 0)
    trading = is_weekday & ~is_holiday

    n_t = int(trading.sum())
    dt = 1.0 / TRADING_DAYS_PER_YEAR
    regime = np.empty(n_t, dtype=np.int64)
    state = 0
    switches = rng.random(n_t)
    for i in range(n_t):
        if switches[i] < cfg.p_switch:
            state = 1 - state
        regime[i] = state
    mu = np.where(regime == 0, cfg.mu1, cfg.mu2)
    sigma = np.where(regime == 0, cfg.sigma1, cfg.sigma2)
    z = rng.standard_normal(n_t)
    steps = (mu - 0.5 * sigma**2) * dt + sigma * math.sqrt(dt) * z
    t_closes = cfg.s0 * np.exp(np.cumsum(steps))

    closes = np.empty(cfg.n_days)
    last = cfg.s0
    j = 0
    for i in range(cfg.n_days):
        if trading[i]:
            last = t_closes[j]
            j += 1
        closes[i] = last
    return mp.DailySeries(dates, closes, trading)


def _sigma_hist_at(series, start_idx_t):
    """Annualized vol from the closes of up to the last 252 trading days
    strictly before the start; None if fewer than 60 are available."""
    lo = max(0, start_idx_t - mp.SIGMA_HIST_DAYS)
    closes = series.trading_closes[lo:start_idx_t]
    if len(closes) < mp.SIGMA_HIST_MIN_DAYS:
        return None
    return mp.annualized_volatility(mp.log_returns(closes))


def slice_dataset_reference(series, rates, windows, split_date, stride=1):
    """``market_paths.slice_dataset`` as two loops that re-take each slice's
    logs: every candidate re-reads its history closes and its own closes."""
    windows = sorted(set(int(w) for w in windows))
    if not windows:
        raise ConfigError("need at least one window length")
    for w in windows:
        if w not in rates:
            raise DataError(f"no rate table with tenor {w} days")
    try:
        split = mp.parse_date(split_date)
    except ValueError as exc:
        raise ConfigError(f"split_date: {exc}") from exc
    if not (series.dates[0] < split <= series.dates[-1]):
        raise DataError("split date must fall inside the series")

    t_dates = series.trading_dates
    t_closes = series.trading_closes
    skipped = Counter()
    raw = []  # (start_idx_t, window, returns, cond, is_train)
    for start_idx in range(0, len(t_dates), stride):
        start = t_dates[start_idx]
        for w in windows:
            end = start + np.timedelta64(w, "D")
            if end > series.dates[-1]:
                skipped["window_past_series_end"] += 1
                continue
            is_train = start < split
            if is_train and end >= split:
                # Training slices must not touch any price dated >= split.
                skipped["straddles_split"] += 1
                continue
            stop_idx = int(np.searchsorted(t_dates, end, side="right"))
            n_trading = stop_idx - (start_idx + 1)
            if n_trading < 1:
                skipped["no_trading_days"] += 1
                continue
            if n_trading * mp.CALENDAR_DAYS_PER_YEAR > w * TRADING_DAYS_PER_YEAR:
                skipped["trading_density_too_high"] += 1
                continue
            sigma = _sigma_hist_at(series, start_idx)
            if sigma is None:
                skipped["insufficient_history"] += 1
                continue
            rate = rates[w].rate_at(start)
            cond = mp.ConditionVector(
                sigma_hist=sigma,
                r=rate,
                t_calendar=w / mp.CALENDAR_DAYS_PER_YEAR,
                t_trading=n_trading / TRADING_DAYS_PER_YEAR,
                n_trading=n_trading,
            )
            rets = mp.log_returns(t_closes[start_idx:stop_idx])
            raw.append((start_idx, w, rets, cond, is_train))

    l_max = max((len(r[2]) for r in raw), default=0)
    train, test = [], []
    for start_idx, w, rets, cond, is_train in raw:
        sl = mp.PathSlice(
            s0=float(t_closes[start_idx]),
            log_returns=rets,
            condition=cond,
            window_calendar_days=w,
            start_date=t_dates[start_idx],
        )
        (train if is_train else test).append(sl)
    return ReferenceSplit(train=train, test=test, skipped=skipped, l_max=l_max)


class ReferenceSplit(NamedTuple):
    """``slice_dataset_reference``'s result: PathSlice lists, not store columns."""

    train: list
    test: list
    skipped: Counter
    l_max: int


def pack_group(slices) -> dict:
    """A group's slice store columns, packed slice by slice from PathSlices."""
    returns = np.concatenate([np.empty(0)] + [s.log_returns for s in slices])
    offsets = np.cumsum([0] + [len(s.log_returns) for s in slices], dtype=np.int64)
    return {
        "s0": np.array([s.s0 for s in slices], dtype=np.float64),
        "start": np.array([s.start_date for s in slices], dtype="datetime64[D]"),
        "window": np.array([s.window_calendar_days for s in slices], dtype=np.int64),
        "sigma": np.array([s.condition.sigma_hist for s in slices], dtype=np.float64),
        "r": np.array([s.condition.r for s in slices], dtype=np.float64),
        "tcal": np.array([s.condition.t_calendar for s in slices], dtype=np.float64),
        "ttrad": np.array([s.condition.t_trading for s in slices], dtype=np.float64),
        "returns": returns,
        "offsets": offsets,
    }


def packed_split(ref: ReferenceSplit) -> mp.SplitSlices:
    """``ref`` as a SplitSlices whose columns ``pack_group`` packed."""
    return mp.SplitSlices(columns={"train": pack_group(ref.train), "test": pack_group(ref.test)},
                          skipped=ref.skipped, l_max=ref.l_max)


def discount_value(
    cashflows: CashFlowSchedule, r: float, day_count: int = TRADING_DAYS_PER_YEAR
) -> float:
    """Present value: sum of CF_t * exp(-r * t / day_count)."""
    if not math.isfinite(r):
        raise DataError("rate must be finite")
    if len(cashflows.days) == 0:
        return 0.0
    disc = np.exp(-r * cashflows.days.astype(float) / day_count)
    return float(np.dot(cashflows.amounts, disc))


# ---------------------------------------------------------------------------
# batch-major U-Net: the oracle for the position-major ``pqlab.nn`` kernels
# and ``pqlab.denoiser``.  Activations are (batch, channels, length); each
# fusion conv convolves the embeddings tiled along the length axis, and
# inference normalizes with the running statistics instead of folding them.

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def conv1d_bcl(x, w, b):
    """y[b,o,l] = sum_{c,k} w[o,c,k] x[b,c,l+k-pad] + b[o]."""
    k = w.shape[2]
    pad = (k - 1) // 2
    if pad:
        length = x.shape[2]
        xp = np.zeros(x.shape[:2] + (length + 2 * pad,), dtype=x.dtype)
        xp[:, :, pad : pad + length] = x
    else:
        xp = x
    cols = sliding_window_view(xp, k, axis=2)  # (B, Cin, L, K)
    y = np.einsum("bclk,ock->bol", cols, w, optimize=True)
    y += b[None, :, None]
    return y, (xp, w, pad, x.shape[2])


def conv1d_bcl_backward(gy, cache):
    xp, w, pad, length = cache
    k = w.shape[2]
    cols = sliding_window_view(xp, k, axis=2)
    gw = np.einsum("bol,bclk->ock", gy, cols, optimize=True)
    gb = gy.sum(axis=(0, 2))
    gcols = np.einsum("bol,ock->bclk", gy, w, optimize=True)
    gxp = np.zeros_like(xp)
    for j in range(k):
        gxp[:, :, j : j + length] += gcols[:, :, :, j]
    gx = gxp[:, :, pad : pad + length] if pad else gxp
    return gx, gw, gb


def batchnorm_bcl(x, gamma, beta, running_mean, running_var, training):
    """Per-channel normalization over the batch and length axes."""
    if training:
        mean = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        new_mean = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
        new_var = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    else:
        mean, var = running_mean, running_var
        new_mean, new_var = running_mean, running_var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[None, :, None]) * inv[None, :, None]
    y = gamma[None, :, None] * xhat + beta[None, :, None]
    return y, (xhat, inv, gamma, training), new_mean, new_var


def batchnorm_bcl_backward(gy, cache):
    xhat, inv, gamma, training = cache
    ggamma = (gy * xhat).sum(axis=(0, 2))
    gbeta = gy.sum(axis=(0, 2))
    gxhat = gy * gamma[None, :, None]
    if not training:
        return gxhat * inv[None, :, None], ggamma, gbeta
    n = gy.shape[0] * gy.shape[2]
    sum_g = gxhat.sum(axis=(0, 2), keepdims=True)
    sum_gx = (gxhat * xhat).sum(axis=(0, 2), keepdims=True)
    gx = (inv[None, :, None] / n) * (n * gxhat - sum_g - xhat * sum_gx)
    return gx, ggamma, gbeta


def maxpool2_bcl(x):
    b, c, length = x.shape
    xr = x.reshape(b, c, length // 2, 2)
    idx = xr.argmax(axis=3)
    y = np.take_along_axis(xr, idx[..., None], axis=3)[..., 0]
    return y, (idx, x.shape)


def maxpool2_bcl_backward(gy, cache):
    idx, shape = cache
    b, c, length = shape
    gxr = np.zeros((b, c, length // 2, 2))
    np.put_along_axis(gxr, idx[..., None], gy[..., None], axis=3)
    return gxr.reshape(b, c, length)


def _tile(emb, length):
    return np.broadcast_to(emb[:, :, None], emb.shape + (length,))


def _fuse(h, emb):
    return np.concatenate([h, _tile(emb, h.shape[2])], axis=1)


def _resblock_bcl(x, params, bn_state, prefix, training):
    y, c1 = conv1d_bcl(x, params[f"{prefix}.conv1.w"], params[f"{prefix}.conv1.b"])
    y, cbn, new_mean, new_var = batchnorm_bcl(
        y,
        params[f"{prefix}.bn.gamma"],
        params[f"{prefix}.bn.beta"],
        bn_state[f"{prefix}.bn.running_mean"],
        bn_state[f"{prefix}.bn.running_var"],
        training,
    )
    y, mask = nn.relu(y)
    y, c2 = conv1d_bcl(y, params[f"{prefix}.conv2.w"], params[f"{prefix}.conv2.b"])
    updates = {
        f"{prefix}.bn.running_mean": new_mean,
        f"{prefix}.bn.running_var": new_var,
    }
    return x + y, (c1, cbn, mask, c2), updates


def _resblock_bcl_backward(g, cache, prefix, grads):
    c1, cbn, mask, c2 = cache
    gy, gw2, gb2 = conv1d_bcl_backward(g, c2)
    grads[f"{prefix}.conv2.w"] += gw2
    grads[f"{prefix}.conv2.b"] += gb2
    gy = nn.relu_backward(gy, mask)
    gy, ggamma, gbeta = batchnorm_bcl_backward(gy, cbn)
    grads[f"{prefix}.bn.gamma"] += ggamma
    grads[f"{prefix}.bn.beta"] += gbeta
    gx, gw1, gb1 = conv1d_bcl_backward(gy, c1)
    grads[f"{prefix}.conv1.w"] += gw1
    grads[f"{prefix}.conv1.b"] += gb1
    return g + gx


def denoiser_forward_reference(params, bn_state, x, t, c, config, training=False):
    """The batch-major U-Net: returns (out, cache, bn_updates) like ``dn.forward``."""
    x = np.asarray(x, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    te = dn.time_embed(t, config.time_embed_dim)
    if te.shape[0] == 1 and x.shape[0] > 1:
        te = np.broadcast_to(te, (x.shape[0], te.shape[1])).copy()
    ce, ce_cache = dn._cond_embed_fwd(c, params)
    emb = np.concatenate([te, ce], axis=1)

    bn_updates = {}
    enc_caches = []
    skips = []
    h = x
    for i in range(config.depth):
        z = _fuse(h, emb)
        y, c_in = conv1d_bcl(z, params[f"enc{i}.in.w"], params[f"enc{i}.in.b"])
        y, c_res, upd = _resblock_bcl(y, params, bn_state, f"enc{i}.res", training)
        bn_updates.update(upd)
        skips.append(y)
        y, c_pool = maxpool2_bcl(y)
        enc_caches.append((h.shape[1], c_in, c_res, c_pool))
        h = y

    z = _fuse(h, emb)
    y, c_in = conv1d_bcl(z, params["mid.in.w"], params["mid.in.b"])
    h, c_res, upd = _resblock_bcl(y, params, bn_state, "mid.res", training)
    bn_updates.update(upd)
    mid_cache = (z.shape[1] - config.embed_channels, c_in, c_res)

    dec_caches = []
    for i in reversed(range(config.depth)):
        up = np.repeat(h, 2, axis=2)
        z = np.concatenate([up, skips[i], _tile(emb, up.shape[2])], axis=1)
        y, c_in = conv1d_bcl(z, params[f"dec{i}.in.w"], params[f"dec{i}.in.b"])
        h, c_res, upd = _resblock_bcl(y, params, bn_state, f"dec{i}.res", training)
        bn_updates.update(upd)
        dec_caches.append((i, up.shape[1], skips[i].shape[1], c_in, c_res))

    out, head_cache = conv1d_bcl(h, params["head.w"], params["head.b"])
    cache = {"config": config, "ce": ce_cache, "enc": enc_caches,
             "mid": mid_cache, "dec": dec_caches, "head": head_cache}
    return out, cache, (bn_updates if training else {})


def denoiser_backward_reference(g_out, cache, params):
    """Parameter gradients of the batch-major U-Net, like ``dn.backward``."""
    config = cache["config"]
    grads = {name: np.zeros(shape) for name, shape in dn.param_spec(config)}
    g_emb = 0.0

    g, gw, gb = conv1d_bcl_backward(g_out, cache["head"])
    grads["head.w"] += gw
    grads["head.b"] += gb

    g_skip = {}
    for i, up_ch, skip_ch, c_in, c_res in reversed(cache["dec"]):
        g = _resblock_bcl_backward(g, c_res, f"dec{i}.res", grads)
        gz, gw, gb = conv1d_bcl_backward(g, c_in)
        grads[f"dec{i}.in.w"] += gw
        grads[f"dec{i}.in.b"] += gb
        g_up = gz[:, :up_ch]
        g_skip[i] = gz[:, up_ch : up_ch + skip_ch]
        g_emb = g_emb + gz[:, up_ch + skip_ch :].sum(axis=2)
        b, ch, length = g_up.shape
        g = g_up.reshape(b, ch, length // 2, 2).sum(axis=3)

    in_ch, c_in, c_res = cache["mid"]
    g = _resblock_bcl_backward(g, c_res, "mid.res", grads)
    gz, gw, gb = conv1d_bcl_backward(g, c_in)
    grads["mid.in.w"] += gw
    grads["mid.in.b"] += gb
    g = gz[:, :in_ch]
    g_emb = g_emb + gz[:, in_ch:].sum(axis=2)

    for i in reversed(range(config.depth)):
        h_ch, c_in, c_res, c_pool = cache["enc"][i]
        g = maxpool2_bcl_backward(g, c_pool)
        g = g + g_skip[i]
        g = _resblock_bcl_backward(g, c_res, f"enc{i}.res", grads)
        gz, gw, gb = conv1d_bcl_backward(g, c_in)
        grads[f"enc{i}.in.w"] += gw
        grads[f"enc{i}.in.b"] += gb
        g = gz[:, :h_ch]
        g_emb = g_emb + gz[:, h_ch:].sum(axis=2)

    dn._cond_embed_bwd(g_emb[:, config.time_embed_dim :], cache["ce"], grads)
    return grads


# ---------------------------------------------------------------------------
# position-major (length, channels, batch) kernels written as plain
# expressions, each a fresh array


def batchnorm_reference(x, gamma, beta, running_mean, running_var):
    """Training-mode batch-norm of (L, C, B) from ``x.mean``/``x.var``."""
    mean = x.mean(axis=(0, 2))
    var = x.var(axis=(0, 2))
    new_mean = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
    new_var = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[:, None]) * inv[:, None]
    y = gamma[:, None] * xhat + beta[:, None]
    return y, (xhat, inv, gamma), new_mean, new_var


def batchnorm_backward_reference(gy, cache):
    xhat, inv, gamma = cache
    ggamma = (gy * xhat).sum(axis=(0, 2))
    gbeta = gy.sum(axis=(0, 2))
    gxhat = gy * gamma[:, None]
    n = gy.shape[0] * gy.shape[2]
    sum_g = gxhat.sum(axis=(0, 2), keepdims=True)
    sum_gx = (gxhat * xhat).sum(axis=(0, 2), keepdims=True)
    gx = (inv[:, None] / n) * (n * gxhat - sum_g - xhat * sum_gx)
    return gx, ggamma, gbeta


def maxpool2_backward_reference(gy, take_second):
    half, c, b = gy.shape
    gx = np.empty((half, 2, c, b))
    gx[:, 0] = np.where(take_second, 0.0, gy)
    gx[:, 1] = np.where(take_second, gy, 0.0)
    return gx.reshape(2 * half, c, b)


def upsample2_backward_reference(gy):
    length, c, b = gy.shape
    return gy.reshape(length // 2, 2, c, b).sum(axis=1)


def kurtosis_reference(x):
    """Per-row excess kurtosis and its gradient of (G, n) rows, from ``np.mean``."""
    n = x.shape[1]
    c = x - x.mean(axis=1, keepdims=True)
    c3 = c**3
    m2 = np.mean(c * c, axis=1, keepdims=True)
    m3 = np.mean(c3, axis=1, keepdims=True)
    m4 = np.mean(c**4, axis=1, keepdims=True)
    g = 4.0 / n * (c3 - m3) / m2**2 - 2.0 * m4 * (2.0 / n * c) / m2**3
    return m4[:, 0] / m2[:, 0] ** 2 - 3.0, g


def guarded_std_reference(x, floor):
    """Means and floored population stds along the last axis, from ``np.var``."""
    return x.mean(axis=-1), np.sqrt(x.var(axis=-1) + floor)


# ---------------------------------------------------------------------------
# the training loop on per-parameter dicts


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def make_batch_reference(slices, length, rng, batch_size, return_scale):
    """Sample slices with replacement, padding each row from its slice."""
    idx = rng.integers(0, len(slices), size=batch_size)
    x0 = np.zeros((batch_size, length))
    mask = np.zeros((batch_size, length), dtype=bool)
    cond = np.zeros((batch_size, len(slices[0].condition.as_array())))
    for row, i in enumerate(idx):
        s = slices[int(i)]
        n = s.condition.n_trading
        x0[row, :n] = s.log_returns / return_scale
        mask[row, :n] = True
        cond[row] = s.condition.as_array()
    return x0, mask, cond


def clip_global_norm_reference(grads, max_norm):
    """Scale a gradient dict to global L2 norm <= max_norm, as new arrays."""
    sq = math.fsum(float(np.sum(g * g)) for g in grads.values())
    norm = math.sqrt(sq)
    if norm > max_norm:
        factor = max_norm / norm
        grads = {k: g * factor for k, g in grads.items()}
    return grads, norm


def adam_update_reference(params, adam_m, adam_v, grads, lr, step):
    """One Adam step over the dicts, parameter by parameter, as new arrays."""
    b1c = 1.0 - ADAM_BETA1**step
    b2c = 1.0 - ADAM_BETA2**step
    for k, p in params.items():
        g = grads[k]
        adam_m[k] = ADAM_BETA1 * adam_m[k] + (1.0 - ADAM_BETA1) * g
        adam_v[k] = ADAM_BETA2 * adam_v[k] + (1.0 - ADAM_BETA2) * g * g
        m_hat = adam_m[k] / b1c
        v_hat = adam_v[k] / b2c
        params[k] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train_reference(slices, params, bn_state, net, sched, mode, return_scale,
                    config, loss, steps):
    """``steps`` training steps on copies of the dicts.

    Returns (params, adam_m, adam_v, bn_state, loss rows, (norm, clipped)
    per step), each dict holding one array per parameter.
    """
    params = {k: v.copy() for k, v in params.items()}
    bn_state = {k: v.copy() for k, v in bn_state.items()}
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    rows, trace = [], []
    for step in range(1, steps + 1):
        rng = np.random.default_rng([config.seed, step])
        x0, mask, cond = make_batch_reference(
            slices, net.input_length, rng, config.batch_size, return_scale)
        t = rng.integers(1, sched.T + 1, size=config.batch_size)
        eps = rng.standard_normal((config.batch_size, net.input_length))
        x_t = diffusion.forward_diffuse(x0, t, eps, sched)
        target = diffusion.training_target(mode, x0, eps, t, sched)
        pred3, cache, bn_updates = dn.forward(params, bn_state, x_t[:, None, :], t,
                                              cond, net, training=True)
        pred = pred3[:, 0, :]
        x0_pred = diffusion.recover_x0(x_t, pred, mode, t, sched)
        breakdown, g_pred, g_x0 = objectives.total_loss(
            pred, target, x0_pred, x0, mask, step, config.steps, loss, with_grads=True)
        scale = diffusion.x0_coefficients(mode, t, sched)
        g_out = g_pred + g_x0 * scale[:, None]
        grads = dn.backward(g_out[:, None, :], cache, params)
        grads, norm = clip_global_norm_reference(grads, config.clip_norm)
        adam_update_reference(params, adam_m, adam_v, grads, config.lr, step)
        bn_state.update(bn_updates)
        rows.append(objectives.format_loss_row(step, breakdown))
        trace.append((norm, norm > config.clip_norm))
    return params, adam_m, adam_v, bn_state, rows, trace
