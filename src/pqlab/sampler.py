"""Reverse-process sampling: deterministic or stochastic DDIM with step skipping.

The update at step t -> t_prev is

    x_prev = sqrt(abar_prev) * x0_hat + sqrt(1 - abar_prev - sigma^2) * eps_hat
             + sigma * z

with x0_hat recovered from the noise estimate.  sigma follows the usual
eta-scaled schedule, so eta=0 is fully deterministic and eta=1 matches the
ancestral process variance.

One chunk loop, ``sample_requests``, serves several (condition, seed)
requests for n_paths paths each; no other code packs requests into
chunks.  Row i of a request sees its request's condition and draws x_T
and every stochastic step's noise in one call from its own seeded
stream, derived from (seed, i).  Rows run in chunks of at most
SAMPLE_CHUNK: as many whole requests share a chunk as fit in it, and a
larger request is chunked on its own, as ``sample_paths`` chunks it.
The requests are checked at the call; then each one's paths stream out
as soon as its chunk has run.  A run is bitwise identical for the same
requests and n_paths.  Path i of a request is the same path for any
n_paths and any requests sharing its chunk, but only to float rounding
(about 1e-16): the batch size of the network calls changes the BLAS
summation order.

Each chunk runs the network once per DDIM step at one batch size, so it
gives every call the same ``nn.Workspace``: the U-Net's activations live
in memory allocated once per chunk instead of once per step.  The chunk
also prepares the network once for its conditions
(``denoiser.prepare``: batch-norm folded, the condition MLP run and its
fusion taps applied) and passes that net to every step, which then runs
only the convs and the time embedding.  Path bundles go through ``write_csv``.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import denoiser, diffusion, nn
from .denoiser import DenoiserConfig
from .diffusion import MODES, NoiseSchedule
from .errors import ConfigError, DataError, NumericError
from .market_paths import (ConditionVector, manifest_value, read_manifest, write_csv,
                           write_manifest)

SAMPLE_CHUNK = 256
# Most paths per condition ([sampler] and [validate] n_paths, [game]
# p_paths): one request's (n_paths, input_length) float64 block is 10 MiB
# at the toy length 20, and its condition rows, repeated per path, 2.5 MiB.
MAX_PATHS = 2**16

BUNDLE_CSV_HEADER = "path_id,step,log_return"


@dataclass(frozen=True)
class SamplerConfig:
    """The ``[sampler]`` section: knobs for one sampling run."""

    num_steps: int = 50
    eta: float = 0.0
    n_paths: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise ConfigError(f"num_steps must be >= 1, got {self.num_steps}")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must be in [0, 1], got {self.eta}")
        if not 0 <= self.n_paths <= MAX_PATHS:
            raise ConfigError(f"n_paths must be in [0, {MAX_PATHS}], got {self.n_paths}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class GeneratorModel:
    """A trained denoiser bundled with everything sampling needs.

    return_scale converts the network's unit-variance working space back to
    log-return space; it is the global training-set std recorded at fit time.
    """

    params: dict
    bn_state: dict
    net: DenoiserConfig
    mode: str = "v"
    return_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not np.isfinite(self.return_scale) or self.return_scale <= 0.0:
            raise ConfigError(
                f"return_scale must be finite and > 0, got {self.return_scale}"
            )


def step_subsequence(total_steps: int, k: int) -> np.ndarray:
    """k step indices, uniformly spaced over 1..T, descending, both endpoints.

    Uniform spacing keeps consecutive gaps >= 1, so the rounded grid never
    collides and the result always has exactly k entries.
    """
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if not 1 <= k <= total_steps:
        raise ConfigError(f"num_steps must be in 1..{total_steps}, got {k}")
    grid = np.linspace(total_steps, 1, k)
    # distinct, descending (np.unique would import numpy.ma)
    return np.flatnonzero(np.bincount(np.rint(grid).astype(np.int64)))[::-1]


def ddim_sigma(sched: NoiseSchedule, t: int, t_prev: int, eta: float) -> float:
    """Noise scale for the t -> t_prev jump; 0 at eta=0 or when abar_prev=1."""
    if not 0.0 <= eta <= 1.0:
        raise ConfigError(f"eta must be in [0, 1], got {eta}")
    if not t_prev < t:
        raise DataError(f"t_prev must be < t, got {t_prev} >= {t}")
    if eta == 0.0:
        return 0.0
    ab_t = float(sched.alpha_bar_at(t))
    ab_p = float(sched.alpha_bar_at(t_prev))
    ratio = max(0.0, 1.0 - ab_t / ab_p)
    return eta * np.sqrt((1.0 - ab_p) / (1.0 - ab_t)) * np.sqrt(ratio)


def ddim_step(x_t, eps_hat, t: int, t_prev: int, sched: NoiseSchedule,
              sigma: float, noise=None) -> np.ndarray:
    """One reverse jump t -> t_prev given the noise estimate at t.

    noise is required only when sigma > 0; with sigma = 0 the step is
    deterministic and t_prev = 0 returns the x0 reconstruction exactly.
    """
    if not t_prev < t:
        raise DataError(f"t_prev must be < t, got {t_prev} >= {t}")
    if not sigma >= 0.0:  # NaN fails this too
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    ab_p = float(sched.alpha_bar_at(t_prev))
    if sigma * sigma > 1.0 - ab_p + 1e-15:
        raise ConfigError(
            f"sigma^2 = {sigma * sigma} exceeds 1 - alpha_bar_prev = {1.0 - ab_p}"
        )
    x0_hat = diffusion.recover_x0(x_t, eps_hat, "eps", t, sched)
    direction = np.sqrt(max(0.0, 1.0 - ab_p - sigma * sigma))
    out = np.sqrt(ab_p) * x0_hat + direction * np.asarray(eps_hat, dtype=float)
    if sigma > 0.0:
        if noise is None:
            raise ConfigError("sigma > 0 requires a noise array")
        out = out + sigma * np.asarray(noise, dtype=float)
    return out


def ddim_trajectory(eps_fn, x_start, sched: NoiseSchedule, steps,
                    eta: float = 0.0, noise_fn=None) -> np.ndarray:
    """Run the full reverse chain from x_T to the data-space output.

    eps_fn(x_t, t) supplies the noise estimate; noise_fn(shape) supplies
    fresh Gaussians and is consulted only when the step is stochastic.
    """
    steps = np.asarray(steps, dtype=np.int64)
    if steps.size == 0:
        raise ConfigError("empty step subsequence")
    x = np.asarray(x_start, dtype=float)
    for i, t in enumerate(steps):
        t_prev = int(steps[i + 1]) if i + 1 < steps.size else 0
        eps_hat = eps_fn(x, int(t))
        sigma = ddim_sigma(sched, int(t), t_prev, eta)
        noise = None
        if sigma > 0.0:
            if noise_fn is None:
                raise ConfigError("eta > 0 requires a noise source")
            noise = noise_fn(x.shape)
        x = ddim_step(x, eps_hat, int(t), t_prev, sched, sigma, noise)
    return x


def _run_chunk(model: GeneratorModel, sched: NoiseSchedule, steps, eta: float,
               cond: np.ndarray, streams) -> np.ndarray:
    """One DDIM trajectory for a chunk: row j sees cond[j] and draws from streams[j]."""
    workspace = nn.Workspace()  # every step of the chunk reuses its arrays
    prepared = denoiser.prepare(model.params, model.bn_state, cond, model.net)

    def eps_fn(x, t):
        pred, _, _ = denoiser.forward(
            model.params, model.bn_state, x, t, cond, model.net, training=False,
            workspace=workspace, prepared=prepared,
        )
        return diffusion.recover_eps(x, pred, model.mode, t, sched)

    # Each row's stream fills x_T and every stochastic step's noise in one
    # draw; one fill gives the same normals as successive calls would.
    t_prev = [*steps[1:], 0]
    n_draws = 1 + sum(ddim_sigma(sched, int(t), int(p), eta) > 0.0
                      for t, p in zip(steps, t_prev))
    shape = (n_draws, 1, model.net.input_length)
    draws = iter(np.stack([rng.standard_normal(shape) for rng in streams], axis=1))
    x_start = next(draws)
    return ddim_trajectory(eps_fn, x_start, sched, steps, eta, lambda _: next(draws))


def sample_requests(model: GeneratorModel, config: SamplerConfig, requests,
                    sched: NoiseSchedule) -> Iterator[np.ndarray]:
    """Stream config.n_paths log-return sequences for each (condition, seed) request.

    The requests are checked here, before any network call.  Then
    consecutive requests are packed into chunks, as many whole requests as
    fit, so they share each DDIM step's network call; config.seed is not
    read.  The iterator yields one (n_paths, n_trading) array per request,
    in order, as soon as its chunk has run: the network output truncated to
    the request's valid length and rescaled to log-return space.  It holds
    one chunk's paths (one request's, if that is larger) and none that it
    has handed out.
    """
    requests = list(requests)
    if config.num_steps > sched.T:
        raise ConfigError(
            f"num_steps {config.num_steps} exceeds schedule length {sched.T}"
        )
    length = model.net.input_length
    for condition, _ in requests:
        if condition.n_trading > length:
            raise ConfigError(f"condition needs {condition.n_trading} steps but the "
                              f"network length is {length}")
    steps = step_subsequence(sched.T, config.num_steps)
    return _stream(model, sched, steps, config.eta, config.n_paths, requests)


def _stream(model: GeneratorModel, sched: NoiseSchedule, steps, eta: float, n: int,
            requests) -> Iterator[np.ndarray]:
    """``sample_requests``'s loop over groups: the whole requests that fit one
    chunk, or one larger request; a request's rows are a slice of x."""
    per_group = max(1, SAMPLE_CHUNK // max(1, n))
    for first in range(0, len(requests), per_group):
        conditions, seeds = zip(*requests[first:first + per_group])
        conds = np.repeat(np.stack([c.as_array() for c in conditions]), n, axis=0)
        rows = ([seed, i] for seed in seeds for i in range(n))
        x = np.empty((len(conds), 1, model.net.input_length))
        for start in range(0, len(conds), SAMPLE_CHUNK):
            streams = [np.random.default_rng(row) for row in islice(rows, SAMPLE_CHUNK)]
            stop = start + len(streams)
            x[start:stop] = _run_chunk(model, sched, steps, eta, conds[start:stop], streams)
        for k, condition in enumerate(conditions):
            paths = x[k * n:(k + 1) * n, 0, :condition.n_trading] * model.return_scale
            if not np.all(np.isfinite(paths)):
                raise NumericError("sampler produced non-finite log returns")
            yield paths
        del paths, x  # free what was handed out before the next group runs


def sample_paths(model: GeneratorModel, config: SamplerConfig,
                 condition: ConditionVector, sched: NoiseSchedule) -> np.ndarray:
    """Draw n_paths log-return sequences for one condition, seeded by config.seed.

    Returns an (n_paths, n_trading) array: the network output truncated to
    the condition's valid length and rescaled to log-return space.
    """
    return next(sample_requests(model, config, [(condition, config.seed)], sched))


# ---------------------------------------------------------------------------
# path bundle files


def write_path_bundle(csv_path, paths: np.ndarray, condition: ConditionVector,
                      config: SamplerConfig) -> None:
    """Write generated paths as path_id,step,log_return rows plus a sidecar.

    step is 1-based so it matches cash-flow day indexing.  The sidecar
    manifest (csv_path + '.manifest') records the condition, seed and
    sampler settings; repr() keeps floats lossless.
    """
    paths = np.asarray(paths, dtype=np.float64)
    if paths.ndim != 2:
        raise DataError("paths must be a 2-D array")
    write_csv(csv_path, BUNDLE_CSV_HEADER.split(","),
              ([pid, step, repr(float(x))] for pid, row in enumerate(paths)
               for step, x in enumerate(row, start=1)))
    entries = {
        "n_paths": paths.shape[0],
        "n_steps": paths.shape[1],
        "seed": config.seed,
        "eta": repr(float(config.eta)),
        "num_steps": config.num_steps,
        "sigma_hist": repr(float(condition.sigma_hist)),
        "r": repr(float(condition.r)),
        "t_calendar": repr(float(condition.t_calendar)),
        "t_trading": repr(float(condition.t_trading)),
        "n_trading": condition.n_trading,
    }
    write_manifest(f"{csv_path}.manifest", entries)


def read_path_bundle(csv_path) -> tuple[np.ndarray, dict]:
    """Load a path bundle written by write_path_bundle.

    The CSV must hold exactly one row per (path_id, step) cell of the
    manifest's n_paths x n_steps grid; anything else is a DataError.
    """
    manifest_path = f"{csv_path}.manifest"
    manifest = read_manifest(manifest_path)
    n_paths = manifest_value(manifest, "n_paths", int, manifest_path)
    n_steps = manifest_value(manifest, "n_steps", int, manifest_path)
    if n_paths < 0 or n_steps < 0:
        raise DataError(f"{manifest_path}: negative n_paths or n_steps")
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read path bundle {csv_path}: {exc}") from exc
    header = rows[0] if rows else None
    if header != BUNDLE_CSV_HEADER.split(","):
        raise DataError(f"{csv_path}: unexpected header {header}")
    if len(rows) - 1 != n_paths * n_steps:
        raise DataError(f"{csv_path}: {len(rows) - 1} data rows for a "
                        f"{n_paths} x {n_steps} grid")
    # counted first, so the grid is no larger than the file that fills it
    try:
        paths = np.full((n_paths, n_steps), np.nan)
    except ValueError as exc:  # an empty grid with a side numpy cannot shape
        raise DataError(f"{manifest_path}: {exc}") from None
    for row in rows[1:]:
        if len(row) != 3:
            raise DataError(f"{csv_path}: bad row {row}")
        try:
            pid, step, value = int(row[0]), int(row[1]), float(row[2])
        except ValueError:
            raise DataError(f"{csv_path}: bad row {row}") from None
        if not (0 <= pid < n_paths and 1 <= step <= n_steps):
            raise DataError(f"{csv_path}: out-of-range indices in {row}")
        paths[pid, step - 1] = value
    if n_paths and not np.all(np.isfinite(paths)):
        raise DataError(f"{csv_path}: incomplete path grid")
    return paths, manifest
